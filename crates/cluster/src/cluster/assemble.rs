//! Assembling one query's answer from its fragments' lists.
//!
//! What the coordinator knows about the k lists it gathered: each is
//! strictly ascending (the answer decoder cannot produce anything else) and
//! they are pairwise disjoint (Lemma 1: fragments partition V). Sorting
//! their concatenation from scratch throws both facts away — it was the
//! largest single cost of a large answer — so a dense answer is scattered
//! into a bitmap over V and read back in order instead.

use disks_roadnet::NodeId;

/// Coordinator-owned scratch for [`AnswerGather::assemble`]: one bit per
/// node, all zero between calls.
#[derive(Debug)]
pub struct AnswerGather {
    words: Vec<u64>,
}

impl AnswerGather {
    /// Scratch for answers over node ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        AnswerGather { words: vec![0; universe.div_ceil(64)] }
    }

    /// The gather rule: an answer of `ids` ids takes the bitmap when it has
    /// at least one id per bitmap word (`ids ≥ ⌈|V|/64⌉`), so the sweep
    /// that reads the bitmap back touches no more words than the answer has
    /// ids. Below that the sweep would dominate (a 10-id answer over a
    /// million nodes would read 16 k words) and a comparison sort of so few
    /// ids is cheap, so both sides stay.
    pub fn is_dense(&self, ids: usize) -> bool {
        ids >= self.words.len()
    }

    /// The ascending union of `lists`, each strictly ascending and pairwise
    /// disjoint: equal to sorting their concatenation.
    ///
    /// A dense answer whose ids all fit the bitmap is scattered into it and
    /// swept back out between the lowest and highest touched word, each
    /// word cleared as it is read, so the scratch is zero again on return.
    /// Anything else — a sparse answer, or one naming an id beyond the
    /// universe (only a corrupt worker could) — is concatenated and sorted.
    pub fn assemble(&mut self, lists: Vec<Vec<NodeId>>) -> Vec<NodeId> {
        let total = lists.iter().map(Vec::len).sum();
        let bits = self.words.len() * 64;
        // Ascending lists: the last id of each is its largest.
        let fits = lists.iter().all(|l| l.last().is_none_or(|n| n.index() < bits));
        let mut out = Vec::with_capacity(total);
        if !(self.is_dense(total) && fits) {
            for list in lists {
                out.extend(list);
            }
            out.sort_unstable();
            return out;
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for list in &lists {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "fragment lists ascend");
            let (Some(first), Some(last)) = (list.first(), list.last()) else { continue };
            lo = lo.min(first.index() / 64);
            hi = hi.max(last.index() / 64);
            for n in list {
                self.words[n.index() / 64] |= 1 << (n.0 % 64);
            }
        }
        for w in lo..=hi {
            let mut word = std::mem::take(&mut self.words[w]);
            while word != 0 {
                out.push(NodeId((w * 64) as u32 + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        out
    }

    /// Whether every bit of the scratch is zero (it is between calls).
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}
