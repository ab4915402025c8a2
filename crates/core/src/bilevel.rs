//! The §5.5 bi-level index.
//!
//! `maxR` caps the radii a bounded index can serve. For the rare query with
//! `r > maxR` the paper proposes holding **two** indexes per machine: a
//! bounded primary (small, serves most queries) and an unbounded secondary.
//! [`BiLevelIndex`] wraps two [`FragmentEngine`]s and routes each D-function
//! by its largest radius.

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::{NodeId, RoadNetwork, INF};

use crate::dfunc::DFunction;
use crate::engine::{Answer, CoverageStore, FragmentEngine, QueryCost};
use crate::error::{IndexError, QueryError};
use crate::index::{build_index, IndexConfig, NpdIndex};
use crate::plan::QueryPlan;

/// Which level served a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The bounded (`maxR`) primary index.
    Primary,
    /// The unbounded secondary index.
    Secondary,
}

/// A bounded primary + unbounded secondary engine pair for one fragment.
///
/// Keyword lists and their reach masks (see [`FragmentEngine`]) are each
/// engine's own: the primary builds them at its `maxR` as its keywords are
/// searched, the secondary (`maxR = INF`) keeps none — a plan routed there
/// is capped by nothing and searches every keyword slot it fetches.
pub struct BiLevelIndex {
    primary: FragmentEngine,
    secondary: FragmentEngine,
    max_r: u64,
}

impl BiLevelIndex {
    /// Build both indexes for `fragment` and wrap them in engines.
    pub fn build(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        fragment: FragmentId,
        config: &IndexConfig,
    ) -> Result<Self, IndexError> {
        assert!(config.max_r != INF, "bi-level needs a finite primary maxR");
        let primary_idx = build_index(net, partitioning, fragment, config);
        let secondary_cfg = IndexConfig { max_r: INF, ..*config };
        let secondary_idx = build_index(net, partitioning, fragment, &secondary_cfg);
        Self::from_indexes(net, partitioning, &primary_idx, &secondary_idx)
    }

    /// Wrap pre-built indexes (primary bounded, secondary unbounded).
    pub fn from_indexes(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        primary: &NpdIndex,
        secondary: &NpdIndex,
    ) -> Result<Self, IndexError> {
        assert_eq!(primary.fragment(), secondary.fragment(), "fragment mismatch");
        assert_eq!(secondary.max_r(), INF, "secondary must be unbounded");
        Ok(BiLevelIndex {
            max_r: primary.max_r(),
            primary: FragmentEngine::new(net, partitioning, primary)?,
            secondary: FragmentEngine::new(net, partitioning, secondary)?,
        })
    }

    /// The primary's `maxR` routing threshold.
    pub fn max_r(&self) -> u64 {
        self.max_r
    }

    /// The fragment both engines serve.
    pub fn fragment(&self) -> FragmentId {
        self.primary.fragment()
    }

    /// DL scope shared by both engines.
    pub fn dl_scope(&self) -> crate::index::DlScope {
        self.primary.dl_scope()
    }

    /// Evaluate, routing by the query's largest radius.
    pub fn evaluate(
        &mut self,
        f: &DFunction,
    ) -> Result<(Vec<NodeId>, QueryCost, ServedBy), QueryError> {
        let plan = QueryPlan::lower(f);
        let (r, c) = self.engine_for(plan.max_radius()).evaluate_plan(&plan)?;
        let served =
            if plan.max_radius() <= self.max_r { ServedBy::Primary } else { ServedBy::Secondary };
        Ok((r, c, served))
    }

    /// The engine that would serve a plan with the given max radius (§5.5
    /// routing). Coverage is exact on either level for any radius it
    /// admits, so cache entries keyed only by `(term, radius)` stay valid
    /// across levels.
    pub fn engine_for(&mut self, max_radius: u64) -> &mut FragmentEngine {
        if max_radius <= self.max_r {
            &mut self.primary
        } else {
            &mut self.secondary
        }
    }

    /// Evaluate a normalized plan, ranked or not, routing by its max radius
    /// (a top-k's horizon) and consulting `store` per coverage slot.
    pub fn evaluate_plan_with_cache(
        &mut self,
        plan: &QueryPlan,
        store: &mut dyn CoverageStore,
    ) -> Result<(Answer, QueryCost), QueryError> {
        self.engine_for(plan.max_radius()).evaluate_plan_with_cache(plan, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CentralizedCoverage;
    use crate::dfunc::Term;
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::KeywordId;

    fn top_keyword(net: &RoadNetwork) -> KeywordId {
        let freqs = net.keyword_frequencies();
        KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32)
    }

    #[test]
    fn routes_small_radii_to_primary_and_large_to_secondary() {
        let net = GridNetworkConfig::tiny(50).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let e = net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(4 * e);
        let kw = top_keyword(&net);
        let mut central = CentralizedCoverage::new(&net);

        let mut got_small: Vec<NodeId> = Vec::new();
        let mut got_large: Vec<NodeId> = Vec::new();
        for f in p.fragment_ids() {
            let mut bi = BiLevelIndex::build(&net, &p, f, &cfg).unwrap();
            let small = DFunction::single(Term::Keyword(kw), 2 * e);
            let (r, _, served) = bi.evaluate(&small).unwrap();
            assert_eq!(served, ServedBy::Primary);
            got_small.extend(r);
            let large = DFunction::single(Term::Keyword(kw), 20 * e);
            let (r, _, served) = bi.evaluate(&large).unwrap();
            assert_eq!(served, ServedBy::Secondary);
            got_large.extend(r);
        }
        got_small.sort_unstable();
        got_large.sort_unstable();
        assert_eq!(
            got_small,
            central.evaluate(&DFunction::single(Term::Keyword(kw), 2 * e)).unwrap()
        );
        assert_eq!(
            got_large,
            central.evaluate(&DFunction::single(Term::Keyword(kw), 20 * e)).unwrap()
        );
    }

    /// Each level keeps its own keyword lists: the bounded primary builds
    /// them as its keywords are searched, the unbounded secondary never
    /// does, and a conjunction routed to either level is the oracle's the
    /// first time and the second.
    #[test]
    fn each_level_keeps_its_own_reach_masks() {
        let net = GridNetworkConfig::tiny(53).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let e = net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(4 * e);
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let (a, b) = (KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32));
        let mut central = CentralizedCoverage::new(&net);
        let mut levels: Vec<BiLevelIndex> =
            p.fragment_ids().map(|f| BiLevelIndex::build(&net, &p, f, &cfg).unwrap()).collect();
        let fresh: Vec<(usize, usize)> = levels
            .iter()
            .map(|bi| (bi.primary.memory_bytes(), bi.secondary.memory_bytes()))
            .collect();
        for r in [2 * e, 20 * e, 3 * e, 21 * e] {
            let f = DFunction::intersection_of(&[a, b], r);
            let mut got: Vec<NodeId> = Vec::new();
            for bi in &mut levels {
                got.extend(bi.evaluate(&f).unwrap().0);
            }
            got.sort_unstable();
            assert_eq!(got, central.evaluate(&f).unwrap(), "r = {r}");
        }
        let grown = |bi: &BiLevelIndex| (bi.primary.memory_bytes(), bi.secondary.memory_bytes());
        assert!(levels.iter().zip(&fresh).all(|(bi, fresh)| grown(bi).1 == fresh.1));
        assert!(levels.iter().zip(&fresh).any(|(bi, fresh)| grown(bi).0 > fresh.0));
    }

    #[test]
    #[should_panic(expected = "finite primary maxR")]
    fn unbounded_primary_rejected() {
        let net = GridNetworkConfig::tiny(51).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let _ = BiLevelIndex::build(&net, &p, FragmentId(0), &IndexConfig::unbounded());
    }

    #[test]
    fn boundary_radius_goes_to_primary() {
        let net = GridNetworkConfig::tiny(52).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let e = net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(3 * e);
        let kw = top_keyword(&net);
        let mut bi = BiLevelIndex::build(&net, &p, FragmentId(0), &cfg).unwrap();
        let f = DFunction::single(Term::Keyword(kw), 3 * e);
        let (_, _, served) = bi.evaluate(&f).unwrap();
        assert_eq!(served, ServedBy::Primary);
    }
}
