//! Fragment → machine placement (§5.2).
//!
//! The paper's default deployment pins one fragment per machine. When fewer
//! machines than fragments are available, the §5.2 strategy ("an unassigned
//! task must be assigned to an idle machine") degenerates — for a static
//! homogeneous pipeline — to spreading fragments evenly; we implement the
//! static even spread here and keep per-machine cost accounting so the
//! Theorem 6 unbalance factor can be measured under any placement. Every
//! fragment has exactly one owner.

use disks_partition::FragmentId;

/// A static fragment → machine placement: one owner per fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `owner_of[f]` = the machine hosting fragment `f`.
    owner_of: Vec<usize>,
    /// `fragments_of[m]` = fragments hosted by machine `m`, ascending.
    fragments_of: Vec<Vec<FragmentId>>,
    /// Machines hosting at least one fragment, ascending — precomputed so
    /// the per-gather broadcast loop never rescans the hosting tables.
    busy: Vec<usize>,
}

impl Placement {
    /// Spread `num_fragments` fragments over `machines` machines round-robin
    /// (the even static assignment; with `machines == num_fragments` this is
    /// the paper's one-fragment-per-machine default).
    pub fn round_robin(num_fragments: usize, machines: usize) -> Self {
        assert!(machines > 0, "at least one machine required");
        let owner_of: Vec<usize> = (0..num_fragments).map(|f| f % machines).collect();
        let mut fragments_of: Vec<Vec<FragmentId>> = vec![Vec::new(); machines];
        for (f, &m) in owner_of.iter().enumerate() {
            fragments_of[m].push(FragmentId(f as u32));
        }
        let busy = (0..machines).filter(|&m| !fragments_of[m].is_empty()).collect();
        Placement { owner_of, fragments_of, busy }
    }

    pub fn num_machines(&self) -> usize {
        self.fragments_of.len()
    }

    pub fn num_fragments(&self) -> usize {
        self.owner_of.len()
    }

    /// The machine hosting fragment `f`.
    pub fn machine_of(&self, f: FragmentId) -> usize {
        self.owner_of[f.index()]
    }

    /// Fragments hosted by machine `m`.
    pub fn fragments_of(&self, m: usize) -> &[FragmentId] {
        &self.fragments_of[m]
    }

    /// Machines that host at least one fragment (precomputed, ascending).
    pub fn busy_machines(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy.iter().copied()
    }

    /// Group raw fragment ids by owner, preserving first-seen machine order
    /// — the shape of a narrowed retry dispatch (one request per machine
    /// listing just its missing fragments). O(n + machines) via a scratch
    /// index instead of rescanning the group list per fragment.
    pub fn machines_hosting(&self, fragments: &[u32]) -> Vec<(usize, Vec<u32>)> {
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut slot = vec![usize::MAX; self.num_machines()];
        for &f in fragments {
            let m = self.machine_of(FragmentId(f));
            if slot[m] == usize::MAX {
                slot[m] = groups.len();
                groups.push((m, Vec::new()));
            }
            groups[slot[m]].1.push(f);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_fragment_per_machine_default() {
        let a = Placement::round_robin(4, 4);
        for f in 0..4 {
            assert_eq!(a.machine_of(FragmentId(f)), f as usize);
            assert_eq!(a.fragments_of(f as usize), &[FragmentId(f)]);
        }
    }

    #[test]
    fn fewer_machines_spread_evenly() {
        let a = Placement::round_robin(10, 3);
        let sizes: Vec<usize> = (0..3).map(|m| a.fragments_of(m).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        for f in 0..10 {
            let m = a.machine_of(FragmentId(f));
            assert!(a.fragments_of(m).contains(&FragmentId(f)));
        }
    }

    #[test]
    fn more_machines_than_fragments_leaves_idle_machines() {
        let a = Placement::round_robin(2, 5);
        assert_eq!(a.busy_machines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = Placement::round_robin(3, 0);
    }

    #[test]
    fn machines_hosting_groups_by_machine() {
        let a = Placement::round_robin(6, 2); // m0: {0,2,4}, m1: {1,3,5}
        let groups = a.machines_hosting(&[0, 1, 4, 5]);
        assert_eq!(groups, vec![(0, vec![0, 4]), (1, vec![1, 5])]);
        assert!(a.machines_hosting(&[]).is_empty());
    }
}
