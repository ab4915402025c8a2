//! Fragment → machine placement (§5.2, extended with replica sets).
//!
//! The paper's default deployment pins one fragment per machine. When fewer
//! machines than fragments are available, the §5.2 strategy ("an unassigned
//! task must be assigned to an idle machine") degenerates — for a static
//! homogeneous pipeline — to spreading fragments evenly; we implement the
//! static even spread here and keep per-machine cost accounting so the
//! Theorem 6 unbalance factor can be measured under any placement.
//!
//! Beyond the paper: a [`Placement`] may host **replicas** of a fragment's
//! engine on machines other than its primary. Any replica answers the same
//! coverage (the Lemma 1 union is replica-invariant), so the coordinator is
//! free to route each per-query fragment evaluation to whichever replica is
//! least loaded. Replica sites are chosen greedily at build time: fragments
//! in descending heat order each place their copies on the machines with the
//! least placement-time load, so the hottest fragments end up spread across
//! the idlest machines.

use disks_partition::FragmentId;

/// A static fragment → machine placement with optional replica sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `primary_of[f]` = primary machine of fragment `f`.
    primary_of: Vec<usize>,
    /// `replicas_of[f]` = machines hosting fragment `f`, primary first.
    replicas_of: Vec<Vec<usize>>,
    /// `fragments_of[m]` = fragments hosted by machine `m` (primary or
    /// replica); primaries appear in round-robin order before replicas.
    fragments_of: Vec<Vec<FragmentId>>,
    /// Machines hosting at least one fragment, ascending — precomputed so
    /// the per-gather broadcast loop never rescans the hosting tables.
    busy: Vec<usize>,
    /// True iff any fragment has more than one hosting machine.
    replicated: bool,
}

impl Placement {
    /// Spread `num_fragments` fragments over `machines` machines round-robin
    /// (the even static assignment; with `machines == num_fragments` this is
    /// the paper's one-fragment-per-machine default). No replicas.
    pub fn round_robin(num_fragments: usize, machines: usize) -> Self {
        assert!(machines > 0, "at least one machine required");
        let mut primary_of = Vec::with_capacity(num_fragments);
        let mut replicas_of = Vec::with_capacity(num_fragments);
        let mut fragments_of: Vec<Vec<FragmentId>> = vec![Vec::new(); machines];
        for f in 0..num_fragments {
            let m = f % machines;
            primary_of.push(m);
            replicas_of.push(vec![m]);
            fragments_of[m].push(FragmentId(f as u32));
        }
        let busy = (0..machines).filter(|&m| !fragments_of[m].is_empty()).collect();
        Placement { primary_of, replicas_of, fragments_of, busy, replicated: false }
    }

    /// Round-robin primaries plus `replicas` extra copies of every fragment,
    /// placed greedily: fragments in descending `heat` order (ties toward
    /// the smaller fragment id) each put their copies on the machines with
    /// the least accumulated placement load that do not already host them
    /// (ties toward the smaller machine id). Each hosting site is charged
    /// `heat[f] / (copies)` on the assumption the router spreads a
    /// fragment's traffic evenly over its replicas. `replicas` is capped at
    /// `machines - 1`; with `replicas == 0` this is exactly `round_robin`.
    pub fn replicated(
        num_fragments: usize,
        machines: usize,
        replicas: usize,
        heat: &[u64],
    ) -> Self {
        let mut p = Self::round_robin(num_fragments, machines);
        let replicas = replicas.min(machines.saturating_sub(1));
        if replicas == 0 || num_fragments == 0 {
            return p;
        }
        assert!(heat.len() == num_fragments, "one heat entry per fragment");
        let copies = (replicas + 1) as u64;
        let share = |f: usize| (heat[f] / copies).max(1);
        let mut load = vec![0u64; machines];
        for f in 0..num_fragments {
            load[p.primary_of[f]] += share(f);
        }
        let mut order: Vec<usize> = (0..num_fragments).collect();
        order.sort_by_key(|&f| (std::cmp::Reverse(heat[f]), f));
        for f in order {
            for _ in 0..replicas {
                let m = (0..machines)
                    .filter(|m| !p.replicas_of[f].contains(m))
                    .min_by_key(|&m| (load[m], m))
                    .expect("replicas < machines leaves a free host");
                p.replicas_of[f].push(m);
                p.fragments_of[m].push(FragmentId(f as u32));
                load[m] += share(f);
            }
        }
        p.busy = (0..machines).filter(|&m| !p.fragments_of[m].is_empty()).collect();
        p.replicated = true;
        p
    }

    pub fn num_machines(&self) -> usize {
        self.fragments_of.len()
    }

    pub fn num_fragments(&self) -> usize {
        self.primary_of.len()
    }

    /// Primary machine of fragment `f`.
    pub fn machine_of(&self, f: FragmentId) -> usize {
        self.primary_of[f.index()]
    }

    /// Machines hosting fragment `f`, primary first.
    pub fn replicas_of(&self, f: FragmentId) -> &[usize] {
        &self.replicas_of[f.index()]
    }

    /// True iff any fragment is hosted on more than one machine.
    pub fn is_replicated(&self) -> bool {
        self.replicated
    }

    /// Fragments hosted by machine `m` (as primary or replica).
    pub fn fragments_of(&self, m: usize) -> &[FragmentId] {
        &self.fragments_of[m]
    }

    /// Machines that host at least one fragment (precomputed, ascending).
    pub fn busy_machines(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy.iter().copied()
    }

    /// Replicas of `f` eligible for routing after removing machines the
    /// `banned` predicate excludes (dead or quarantined hosts). Returns the
    /// surviving hosts in replica order plus a `degraded` flag: when *every*
    /// host is banned the full replica set comes back unchanged and the
    /// caller must degrade gracefully (route to the least-suspect replica)
    /// rather than leave the fragment unserved.
    pub fn routable_replicas(
        &self,
        f: FragmentId,
        banned: &dyn Fn(usize) -> bool,
    ) -> (Vec<usize>, bool) {
        let all = self.replicas_of(f);
        let ok: Vec<usize> = all.iter().copied().filter(|&m| !banned(m)).collect();
        if ok.is_empty() {
            (all.to_vec(), true)
        } else {
            (ok, false)
        }
    }

    /// Group raw fragment ids by *primary* machine, preserving first-seen
    /// machine order — the shape of a narrowed retry dispatch (one request
    /// per machine listing just its missing fragments). O(n + machines) via
    /// a scratch index instead of rescanning the group list per fragment.
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
            assert_eq!(a.replicas_of(FragmentId(f)), &[f as usize]);
        }
        assert!(!a.is_replicated());
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

    #[test]
    fn zero_replicas_degenerates_to_round_robin() {
        let uniform = vec![1; 6];
        assert_eq!(Placement::replicated(6, 4, 0, &uniform), Placement::round_robin(6, 4));
    }

    #[test]
    fn replicas_live_on_distinct_machines() {
        let a = Placement::replicated(4, 4, 2, &[10, 20, 30, 40]);
        assert!(a.is_replicated());
        for f in 0..4 {
            let hosts = a.replicas_of(FragmentId(f));
            assert_eq!(hosts.len(), 3, "primary + 2 replicas");
            assert_eq!(hosts[0], a.machine_of(FragmentId(f)), "primary listed first");
            let mut sorted = hosts.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), hosts.len(), "fragment {f}: duplicate host");
            for &m in hosts {
                assert!(a.fragments_of(m).contains(&FragmentId(f)));
            }
        }
    }

    #[test]
    fn replica_count_capped_at_machines_minus_one() {
        let a = Placement::replicated(3, 2, 5, &[1, 1, 1]);
        for f in 0..3 {
            assert_eq!(a.replicas_of(FragmentId(f)).len(), 2);
        }
    }

    #[test]
    fn routable_replicas_filters_bans_and_degrades_when_all_banned() {
        let a = Placement::replicated(2, 3, 1, &[5, 5]);
        let hosts = a.replicas_of(FragmentId(0)).to_vec();
        let (ok, degraded) = a.routable_replicas(FragmentId(0), &|m| m == hosts[0]);
        assert_eq!(ok, hosts[1..].to_vec());
        assert!(!degraded);
        let (all, degraded) = a.routable_replicas(FragmentId(0), &|_| true);
        assert_eq!(all, hosts, "all banned: full set returned for degraded routing");
        assert!(degraded);
    }

    #[test]
    fn hottest_fragment_places_first_on_idlest_machines() {
        // Four machines, four fragments, fragment 3 carries nearly all heat:
        // its replica must land before the cold fragments claim machines.
        let a = Placement::replicated(4, 4, 1, &[1, 1, 1, 1000]);
        let hot = a.replicas_of(FragmentId(3));
        // Primary of 3 is machine 3; its replica goes to the least loaded
        // machine at placement time — machine 0 (all primaries weigh 1 or
        // the hot share, ties break to the smallest id ≠ 3).
        assert_eq!(hot[0], 3);
        assert_eq!(hot.len(), 2);
        assert_ne!(hot[1], 3);
    }

    #[test]
    fn primary_spread_unchanged_by_replication() {
        let heat = vec![7, 3, 9, 1, 4, 2];
        let a = Placement::replicated(6, 3, 1, &heat);
        let rr = Placement::round_robin(6, 3);
        for f in 0..6 {
            assert_eq!(a.machine_of(FragmentId(f)), rr.machine_of(FragmentId(f)));
        }
        // Primaries stay a prefix of each machine's hosting list.
        for m in 0..3 {
            let primaries = rr.fragments_of(m);
            assert_eq!(&a.fragments_of(m)[..primaries.len()], primaries);
        }
    }
}
