//! Assembling one query's answer from its fragments' answers.
//!
//! What the coordinator knows about the k answers it gathered: each is a
//! list of ascending runs (the answer decoder cannot produce anything else)
//! and they are pairwise disjoint (Lemma 1: fragments partition V). Sorting
//! their concatenated ids from scratch throws both facts away — it was the
//! largest single cost of a large answer — so a dense answer's runs are
//! filled into a bitmap over V, a word mask at a time, and the runs of ones
//! read back in order. This is where an answer's ids are materialised: the
//! engine, the wire and the gather before it carry runs.

use disks_core::NodeRuns;
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
    /// runs is cheap, so both sides stay.
    pub fn is_dense(&self, ids: usize) -> bool {
        ids >= self.words.len()
    }

    /// The ascending union of `lists`, pairwise disjoint: equal to sorting
    /// their concatenated ids.
    ///
    /// A dense answer whose ids all fit the bitmap is filled into it run by
    /// run and swept back out between the lowest and highest touched word,
    /// each word cleared as it is read, so the scratch is zero again on
    /// return. Anything else — a sparse answer, or one naming an id beyond
    /// the universe (only a corrupt worker could) — has its runs sorted by
    /// first id and expanded.
    pub fn assemble(&mut self, lists: &[NodeRuns]) -> Vec<NodeId> {
        let total = lists.iter().map(NodeRuns::len).sum();
        let bits = (self.words.len() * 64) as u64;
        let mut out = Vec::with_capacity(total);
        if !(self.is_dense(total) && lists.iter().all(|l| l.end() <= bits)) {
            let mut runs: Vec<(u32, u32)> =
                lists.iter().flat_map(|l| l.runs().iter().copied()).collect();
            runs.sort_unstable();
            for (start, len) in runs {
                out.extend((start..=start + (len - 1)).map(NodeId));
            }
            return out;
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &(start, len) in lists.iter().flat_map(|l| l.runs()) {
            // The run's first and last bit: `first_w`'s bits from `first`
            // up, `last_w`'s bits up to `last`, every bit of a word between.
            let (first, last) = (start as usize, (start + (len - 1)) as usize);
            let (first_w, last_w) = (first / 64, last / 64);
            let (from, upto) = (!0u64 << (first % 64), !0u64 >> (63 - last % 64));
            if first_w == last_w {
                self.words[first_w] |= from & upto;
            } else {
                self.words[first_w] |= from;
                self.words[first_w + 1..last_w].fill(!0);
                self.words[last_w] |= upto;
            }
            lo = lo.min(first_w);
            hi = hi.max(last_w);
        }
        let node = |id: u64| NodeId(id as u32);
        for w in lo..=hi {
            // `word` is shifted down as it is read; `at` is the id its bit 0
            // stands for.
            let mut word = std::mem::take(&mut self.words[w]);
            let mut at = w as u64 * 64;
            if word & (word >> 1) == 0 {
                // No two neighbours set: every run is one id, and clearing
                // the lowest bit is cheaper than measuring a run.
                while word != 0 {
                    out.push(node(at + u64::from(word.trailing_zeros())));
                    word &= word - 1;
                }
                continue;
            }
            while word != 0 {
                let zeros = word.trailing_zeros();
                word >>= zeros;
                at += u64::from(zeros);
                let ones = word.trailing_ones();
                out.extend((at..at + u64::from(ones)).map(node));
                // A shift by 64 is not a shift: a full word is done.
                word = word.checked_shr(ones).unwrap_or(0);
                at += u64::from(ones);
            }
        }
        out
    }

    /// Whether every bit of the scratch is zero (it is between calls).
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}
