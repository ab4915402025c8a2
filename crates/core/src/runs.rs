//! The form a fragment's answer has from the engine's bitset to the
//! coordinator's bitmap: runs of consecutive global node ids.
//!
//! Node ids are row-major on a road grid and a fragment is a patch of it, so
//! a coverage is a few long stretches of consecutive ids a row. Every stage
//! between the local bitset and the final answer — translation to global
//! ids, the wire layout, the coordinator's union — costs per run in this
//! form, not per id; ids are materialised once, where the caller reads them.

use disks_roadnet::NodeId;

use crate::bitset::BitSet;

/// A strictly ascending set of node ids held as its maximal runs.
///
/// The runs are canonical: each is non-empty, they ascend, and at least one
/// absent id separates two neighbours — so equal sets are equal values and
/// a set has exactly one wire encoding. Every constructor keeps that true;
/// nothing outside this module can build a value that breaks it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeRuns {
    ids: usize,
    /// `(first id, length)`.
    runs: Vec<(u32, u32)>,
}

impl NodeRuns {
    /// Most ids one answer may hold: what a raw 4-byte-an-id layout could
    /// carry in the cluster's largest legal frame. A run costs O(1) bytes
    /// whatever its length, so without a bound on the type a few bytes of
    /// wire input could stand for 2³² ids.
    pub const MAX_IDS: usize = 1 << 24;

    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty set with room for `runs` runs.
    pub fn with_capacity(runs: usize) -> Self {
        NodeRuns { ids: 0, runs: Vec::with_capacity(runs) }
    }

    /// Number of ids (not runs).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids == 0
    }

    /// The runs, `(first id, length)`, ascending.
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// One past the largest id (0 for the empty set); at most 2³².
    #[inline]
    pub fn end(&self) -> u64 {
        self.runs.last().map_or(0, |&(start, len)| u64::from(start) + u64::from(len))
    }

    /// Append the run `start .. start + len`.
    ///
    /// # Panics
    /// Panics if the run is empty, reaches past `u32::MAX`, does not start
    /// above [`Self::end`] (it would overlap or touch the previous run — a
    /// touching run is the same run, and has to be pushed as one), or takes
    /// the set past [`Self::MAX_IDS`]. A decoder checks its input for each
    /// of these first; from anywhere else they are bugs in the caller.
    #[inline]
    pub fn push_run(&mut self, start: u32, len: u32) {
        assert!(len >= 1, "empty run at {start}");
        assert!(u64::from(start) + u64::from(len) <= 1 << 32, "run {start}+{len} past u32::MAX");
        assert!(
            self.runs.is_empty() || u64::from(start) > self.end(),
            "run at {start} does not leave a gap after the run ending at {}",
            self.end()
        );
        assert!(self.ids + len as usize <= Self::MAX_IDS, "answer exceeds {} ids", Self::MAX_IDS);
        self.ids += len as usize;
        self.runs.push((start, len));
    }

    /// The ids, ascending, in a vector of exactly their number.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.ids);
        for &(start, len) in &self.runs {
            ids.extend((start..=start + (len - 1)).map(NodeId));
        }
        ids
    }

    /// Where the global id sequence of a fragment breaks: bit `i` is set
    /// when local node `i` does not directly follow local node `i − 1` in
    /// global id (`i = 0` included). `globals` is the fragment's members in
    /// local id order, strictly ascending.
    pub fn breaks(globals: &[NodeId]) -> BitSet {
        let mut breaks = BitSet::new(globals.len());
        for i in 0..globals.len() {
            if i == 0 || globals[i].0 != globals[i - 1].0 + 1 {
                breaks.insert(i);
            }
        }
        breaks
    }

    /// The global ids of the local set `cov` — `cov.iter().map(|i|
    /// globals[i])` — read off the bitset's words: a run starts at a set bit
    /// whose predecessor is clear or which `breaks` marks, and ends at a set
    /// bit whose successor is clear or marked, so a word costs a few shifts
    /// and masks plus one step per run that starts or ends in it, whatever
    /// the number of ids.
    ///
    /// `breaks` must be [`Self::breaks`]`(globals)`.
    ///
    /// # Panics
    /// Panics if the three do not describe the same number of nodes.
    pub fn from_bitset(cov: &BitSet, globals: &[NodeId], breaks: &BitSet) -> NodeRuns {
        assert_eq!(cov.capacity(), globals.len(), "coverage and fragment sizes differ");
        assert_eq!(breaks.capacity(), globals.len(), "break set and fragment sizes differ");
        let (words, marks) = (cov.words(), breaks.words());
        // One run a word is where the vector starts; it grows from there.
        let mut out = NodeRuns::with_capacity(words.len());
        // Local id at which the run still open at a word's end started.
        let mut open: Option<usize> = None;
        // The previous word's top bit, moved to bit 0.
        let mut below = 0u64;
        for (wi, (&w, &mark)) in words.iter().zip(marks).enumerate() {
            if w == 0 {
                // A run never stays open across a clear bit.
                below = 0;
                continue;
            }
            // Past the last word nothing is set: the last set bit ends a run.
            let (w_above, mark_above) = match words.get(wi + 1) {
                Some(&next) => (next << 63, marks[wi + 1] << 63),
                None => (0, 0),
            };
            let mut starts = w & (!(w << 1 | below) | mark);
            let mut ends = w & (!(w >> 1 | w_above) | (mark >> 1 | mark_above));
            below = w >> 63;
            // Starts and ends alternate, and an open run ends before the
            // word's first start.
            while ends != 0 {
                let first = open.take().unwrap_or_else(|| {
                    let bit = starts.trailing_zeros() as usize;
                    starts &= starts - 1;
                    wi * 64 + bit
                });
                let last = wi * 64 + ends.trailing_zeros() as usize;
                ends &= ends - 1;
                out.push_run(globals[first].0, (last - first + 1) as u32);
            }
            if starts != 0 {
                open = Some(wi * 64 + starts.trailing_zeros() as usize);
            }
        }
        debug_assert!(open.is_none(), "a run ends at the last set bit");
        out
    }
}

/// From strictly ascending ids.
///
/// # Panics
/// Panics if the ids do not ascend strictly, or number more than
/// [`NodeRuns::MAX_IDS`].
impl FromIterator<NodeId> for NodeRuns {
    fn from_iter<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut out = NodeRuns::new();
        let mut ids = ids.into_iter().map(|n| n.0);
        let Some(mut start) = ids.next() else { return out };
        let mut len = 1u32;
        for id in ids {
            let end = u64::from(start) + u64::from(len);
            if u64::from(id) == end {
                len += 1;
                continue;
            }
            assert!(
                u64::from(id) > end,
                "answer ids must be strictly ascending ({id} after {})",
                end - 1
            );
            out.push_run(start, len);
            (start, len) = (id, 1);
        }
        out.push_run(start, len);
        out
    }
}

impl From<Vec<NodeId>> for NodeRuns {
    fn from(ids: Vec<NodeId>) -> Self {
        ids.into_iter().collect()
    }
}

/// The ids of a [`NodeRuns`], ascending.
#[derive(Debug, Clone)]
pub struct IntoIter {
    runs: std::vec::IntoIter<(u32, u32)>,
    open: std::ops::Range<u64>,
}

impl Iterator for IntoIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if let Some(id) = self.open.next() {
                return Some(NodeId(id as u32));
            }
            let (start, len) = self.runs.next()?;
            self.open = u64::from(start)..u64::from(start) + u64::from(len);
        }
    }
}

impl IntoIterator for NodeRuns {
    type Item = NodeId;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter { runs: self.runs.into_iter(), open: 0..0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        ids.into_iter().map(NodeId).collect()
    }

    #[test]
    fn ids_fold_into_maximal_runs_and_back() {
        let ids = nodes([0, 1, 2, 7, 9, 10, u32::MAX - 1, u32::MAX]);
        let runs = NodeRuns::from(ids.clone());
        assert_eq!(runs.runs(), [(0, 3), (7, 1), (9, 2), (u32::MAX - 1, 2)]);
        assert_eq!(runs.len(), 8);
        assert_eq!(runs.end(), 1 << 32);
        assert_eq!(runs.to_vec(), ids);
        assert_eq!(runs.into_iter().collect::<Vec<_>>(), ids);
        let empty = NodeRuns::from(vec![]);
        assert!(empty.is_empty() && empty.runs().is_empty() && empty.end() == 0);
        assert_eq!(empty, NodeRuns::new());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_list_that_does_not_ascend_is_no_answer() {
        let _ = NodeRuns::from(nodes([4, 9, 9]));
    }

    #[test]
    #[should_panic(expected = "does not leave a gap")]
    fn a_run_touching_the_previous_one_is_refused() {
        let mut runs = NodeRuns::new();
        runs.push_run(4, 2);
        runs.push_run(6, 1);
    }

    #[test]
    #[should_panic(expected = "past u32::MAX")]
    fn a_run_past_the_id_space_is_refused() {
        NodeRuns::new().push_run(u32::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn a_set_past_the_id_bound_is_refused() {
        let mut runs = NodeRuns::new();
        runs.push_run(0, NodeRuns::MAX_IDS as u32);
        runs.push_run(NodeRuns::MAX_IDS as u32 + 1, 1);
    }

    #[test]
    fn bitset_runs_split_where_the_global_ids_break() {
        // Two grid rows of a fragment: locals 0..4 are globals 10..14,
        // locals 4..8 are globals 30..34.
        let globals = nodes((10..14).chain(30..34));
        let breaks = NodeRuns::breaks(&globals);
        assert_eq!(breaks.iter().collect::<Vec<_>>(), [0, 4]);
        let mut cov = BitSet::new(8);
        for i in [1, 2, 3, 4, 5, 7] {
            cov.insert(i);
        }
        let runs = NodeRuns::from_bitset(&cov, &globals, &breaks);
        assert_eq!(runs.runs(), [(11, 3), (30, 2), (33, 1)]);
        assert_eq!(runs.len(), 6);
    }
}
