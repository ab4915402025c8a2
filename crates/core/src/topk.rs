//! Top-k group keyword queries — an extension answering the paper's open
//! question ("it remains open whether other types of queries can benefit
//! from NPD-index", §8).
//!
//! A [`TopKQuery`] ranks nodes by an aggregate of their distances to each
//! query keyword and returns the best `k`:
//!
//! * [`ScoreCombine::Max`] — `score(A) = maxᵢ d(A, ωᵢ)`: the radius of the
//!   smallest "ball" around `A` touching every keyword (the ranked analogue
//!   of SGKQ: `score(A) ≤ r ⟺ A ∈ ⋂ R(ωᵢ, r)`).
//! * [`ScoreCombine::Sum`] — `score(A) = Σᵢ d(A, ωᵢ)`: total travel cost to
//!   visit one instance of each keyword from `A` (a collective-style cost).
//!
//! The NPD-index machinery applies unchanged: each fragment evaluates the
//! plan `⋂ R(ωᵢ, horizon) ∩ P` (Alg. 2), scores only the nodes it leaves by
//! their keyword distances (Alg. 2's search with distances kept, or a list's
//! prefix), and ships its local top-k; the coordinator merges k-way. Scores are exact for every node with all term
//! distances ≤ `horizon`, which must be ≤ the index `maxR`; nodes beyond the
//! horizon are not ranked (the same contract the paper's bounded index
//! offers coverage queries).

use bytes::{Buf, BufMut};

use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::{DecodeError, KeywordId, NodeId, RoadNetwork};

use crate::coverage::CentralizedCoverage;
use crate::dfunc::Term;
use crate::error::QueryError;

/// Distance aggregation across the query keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreCombine {
    /// `maxᵢ d(A, ωᵢ)` — ranked SGKQ.
    Max,
    /// `Σᵢ d(A, ωᵢ)` — collective travel cost.
    Sum,
}

impl ScoreCombine {
    #[inline]
    pub(crate) fn fold(self, acc: u64, d: u64) -> u64 {
        match self {
            ScoreCombine::Max => acc.max(d),
            ScoreCombine::Sum => acc.saturating_add(d),
        }
    }
}

/// A top-k group keyword query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKQuery {
    pub keywords: Vec<KeywordId>,
    pub k: usize,
    /// Per-term distance horizon; must be ≤ the index `maxR`. Nodes with
    /// any term distance beyond the horizon are not ranked.
    pub horizon: u64,
    pub combine: ScoreCombine,
}

impl TopKQuery {
    pub fn new(
        mut keywords: Vec<KeywordId>,
        k: usize,
        horizon: u64,
        combine: ScoreCombine,
    ) -> Self {
        keywords.sort_unstable();
        keywords.dedup();
        TopKQuery { keywords, k, horizon, combine }
    }
}

impl Encode for ScoreCombine {
    fn encode(&self, buf: &mut impl BufMut) {
        let tag: u8 = match self {
            ScoreCombine::Max => 0,
            ScoreCombine::Sum => 1,
        };
        tag.encode(buf);
    }
}
impl Decode for ScoreCombine {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(ScoreCombine::Max),
            1 => Ok(ScoreCombine::Sum),
            tag => Err(DecodeError::BadTag { context: "ScoreCombine", tag }),
        }
    }
}

/// A ranked result: `(score, node)`, ordered by score then node id (the
/// deterministic tie-break used by both the distributed and centralized
/// paths, so results are comparable bit-for-bit).
pub type Ranked = (u64, NodeId);

/// Merge locally ranked lists into the global top-k.
pub fn merge_topk(mut lists: Vec<Vec<Ranked>>, k: usize) -> Vec<Ranked> {
    let mut all: Vec<Ranked> = lists.drain(..).flatten().collect();
    all.sort_unstable();
    all.dedup(); // fragments are disjoint, but be robust to overlap
    all.truncate(k);
    all
}

/// Centralized ground-truth top-k (whole-graph distance tables).
pub fn centralized_topk(net: &RoadNetwork, q: &TopKQuery) -> Result<Vec<Ranked>, QueryError> {
    if q.keywords.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    let mut eval = CentralizedCoverage::new(net);
    let mut scores: Vec<Option<u64>> = vec![Some(0); net.num_nodes()];
    for &kw in &q.keywords {
        let table = eval.distance_table(Term::Keyword(kw));
        for (i, slot) in scores.iter_mut().enumerate() {
            if let Some(acc) = *slot {
                match table.get(&NodeId(i as u32)) {
                    Some(&d) if d <= q.horizon => *slot = Some(q.combine.fold(acc, d)),
                    _ => *slot = None,
                }
            }
        }
    }
    let mut ranked: Vec<Ranked> = scores
        .into_iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|score| (score, NodeId(i as u32))))
        .collect();
    ranked.sort_unstable();
    ranked.truncate(q.k);
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_roadnet::graph::figure1_network;

    #[test]
    fn centralized_topk_on_figure1() {
        let (net, names) = figure1_network();
        let museum = net.vocab().get("museum").unwrap();
        let school = net.vocab().get("school").unwrap();
        // Max-scores: A: max(0, 4)=4; B: max(2,2)=2; C: max(4,4)=4;
        // D: max(4,0)=4; E: max(1,3)=3.
        let q = TopKQuery::new(vec![museum, school], 3, 100, ScoreCombine::Max);
        let top = centralized_topk(&net, &q).unwrap();
        assert_eq!(top[0], (2, names["B"]));
        assert_eq!(top[1], (3, names["E"]));
        assert_eq!(top[2].0, 4); // three nodes tie at 4; smallest id wins
                                 // Sum-scores: A: 4; B: 4; C: 8; D: 4; E: 4.
        let q = TopKQuery::new(vec![museum, school], 5, 100, ScoreCombine::Sum);
        let top = centralized_topk(&net, &q).unwrap();
        assert_eq!(top[0].0, 4);
        assert_eq!(top.last().unwrap(), &(8, names["C"]));
    }

    #[test]
    fn horizon_excludes_far_nodes() {
        let (net, names) = figure1_network();
        let school = net.vocab().get("school").unwrap();
        // d(·, school): A0 B2 C4 D4 E1. Horizon 2 keeps A, B, E only.
        let q = TopKQuery::new(vec![school], 10, 2, ScoreCombine::Max);
        let top = centralized_topk(&net, &q).unwrap();
        let nodes: Vec<NodeId> = top.iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![names["A"], names["E"], names["B"]]);
    }

    #[test]
    fn merge_topk_orders_and_truncates() {
        let a = vec![(3u64, NodeId(5)), (7, NodeId(1))];
        let b = vec![(1u64, NodeId(9)), (3, NodeId(2))];
        let merged = merge_topk(vec![a, b], 3);
        assert_eq!(merged, vec![(1, NodeId(9)), (3, NodeId(2)), (3, NodeId(5))]);
    }

    #[test]
    fn empty_keywords_rejected() {
        let (net, _) = figure1_network();
        let q = TopKQuery::new(vec![], 3, 10, ScoreCombine::Max);
        assert!(matches!(centralized_topk(&net, &q), Err(QueryError::EmptyQuery)));
    }

    #[test]
    fn duplicate_keywords_deduped() {
        let q = TopKQuery::new(
            vec![KeywordId(2), KeywordId(2), KeywordId(1)],
            3,
            10,
            ScoreCombine::Sum,
        );
        assert_eq!(q.keywords, vec![KeywordId(1), KeywordId(2)]);
    }
}
