//! Experiment runners — one per table/figure of the paper (§6).
//!
//! Measurement methodology: the paper observes that "in distributed
//! computing, the response time is determined by the slowest task"
//! (analysis of Theorem 5). We therefore evaluate each fragment's task
//! sequentially on one host (so per-task wall-clock is contention-free and
//! deterministic), take the **maximum task time** as the distributed
//! response, and add the modeled network cost of the coordinator round
//! (dispatch + slowest result transfer over the paper's 100 Mb switch).
//! The threaded [`disks_cluster::Cluster`] exercises the same engines
//! concurrently and is used by the communication experiment and the
//! integration tests.

mod ablation;
mod comm;
mod mix;
mod size;
mod time;

pub use ablation::{ablation_keyword_aggregation, ablation_minimality, ablation_partitioner};
pub use comm::comm_contrast;
pub use mix::{fig16_dfunctions, fig17_rkq, topk_extension};
pub use size::{fig7_index_size, fig8_index_size_unbounded, tab1_datasets, tab3_indexing_time};
pub use time::{fig10_11_keywords, fig12_13_fragments, fig14_15_radius, fig9_query_time_vs_maxr};

use std::time::Duration;

use disks_core::{
    build_all_indexes, Answer, DFunction, FragmentEngine, IndexConfig, NoCache, NpdIndex,
    QueryCost, QueryPlan, Ranked, TopKQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::{NodeId, RoadNetwork};

use crate::report::median_duration;

/// A prepared distributed deployment: partitioning + per-fragment indexes +
/// per-fragment engines.
pub struct Deployment {
    pub partitioning: Partitioning,
    pub indexes: Vec<NpdIndex>,
    pub engines: Vec<FragmentEngine>,
}

impl Deployment {
    /// Partition `net` into `k` fragments, build all NPD-indexes, and
    /// materialize the engines.
    pub fn prepare(net: &RoadNetwork, k: usize, config: &IndexConfig) -> Deployment {
        let partitioning = MultilevelPartitioner::default().partition(net, k);
        let indexes = build_all_indexes(net, &partitioning, config);
        let engines = indexes
            .iter()
            .map(|i| FragmentEngine::new(net, &partitioning, i).expect("engine build"))
            .collect();
        Deployment { partitioning, indexes, engines }
    }

    /// Evaluate a D-function on every fragment; returns the merged results
    /// and per-fragment costs.
    pub fn evaluate(&mut self, f: &DFunction) -> (Vec<NodeId>, Vec<QueryCost>) {
        let mut results = Vec::new();
        let mut costs = Vec::with_capacity(self.engines.len());
        for engine in &mut self.engines {
            let (nodes, cost) = engine.evaluate(f).expect("query within maxR");
            results.extend(nodes);
            costs.push(cost);
        }
        results.sort_unstable();
        (results, costs)
    }

    /// Rank a top-k on every fragment, its plan evaluated as the workers
    /// evaluate it; returns each fragment's local top-k and its cost.
    pub fn topk(&mut self, q: &TopKQuery) -> Vec<(Vec<Ranked>, QueryCost)> {
        let plan = QueryPlan::topk(q).expect("a top-k names a keyword");
        let rank = |engine: &mut FragmentEngine| match engine
            .evaluate_plan_with_cache(&plan, &mut NoCache)
            .expect("horizon within maxR")
        {
            (Answer::Ranked(ranked), cost) => (ranked, cost),
            (answer, _) => unreachable!("a ranked plan answered {answer:?}"),
        };
        self.engines.iter_mut().map(rank).collect()
    }

    /// The distributed response time of one query: slowest task + the
    /// modeled coordinator round on the 100 Mb switch.
    pub fn response_time(&mut self, f: &DFunction) -> Duration {
        let (results, costs) = self.evaluate(f);
        let slowest = costs.iter().map(|c| c.elapsed).max().unwrap_or(Duration::ZERO);
        let network = disks_cluster::NetworkModel::switch_100mbps();
        // Request ≈ encoded D-function; response ≈ 4 bytes/node + header:
        // the raw-id upper bound (the cluster's run-length answers weigh
        // less, DESIGN §6d), kept so Figs. 10–17 stay comparable.
        let request_bytes = 16 * f.num_terms() as u64 + 16;
        let largest_response = costs.iter().map(|c| 4 * c.results as u64 + 32).max().unwrap_or(0);
        let _ = results;
        network.transfer_time(request_bytes) + slowest + network.transfer_time(largest_response)
    }

    /// Representative response time over a query batch: one warmup pass
    /// (caches, allocator), then the median of per-query response times —
    /// max-over-machines metrics inherit any single straggler, so the
    /// median is the stable summary.
    pub fn mean_response(&mut self, fs: &[DFunction]) -> Duration {
        for f in fs {
            let _ = self.evaluate(f);
        }
        let times: Vec<Duration> = fs.iter().map(|f| self.response_time(f)).collect();
        median_duration(&times)
    }
}

/// Representative centralized ("1 fragment") time over a query batch
/// (warmup pass + median, mirroring [`Deployment::mean_response`]).
pub fn mean_centralized(net: &RoadNetwork, fs: &[DFunction]) -> Duration {
    let mut engine = disks_baseline::CentralizedEngine::new(net);
    for f in fs {
        let _ = engine.run(f).expect("valid query");
    }
    let times: Vec<Duration> = fs.iter().map(|f| engine.run(f).expect("valid query").1).collect();
    median_duration(&times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};
    use crate::queries::QueryGenerator;

    #[test]
    fn deployment_round_trip_matches_centralized() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let e = ds.net.avg_edge_weight();
        let mut dep = Deployment::prepare(&ds.net, 4, &IndexConfig::with_max_r(40 * e));
        let mut gen = QueryGenerator::new(&ds.net, 11);
        let q = gen.gen_sgkq(3, 10 * e).unwrap();
        let f = q.to_dfunction();
        let (results, costs) = dep.evaluate(&f);
        assert_eq!(costs.len(), 4);
        let mut central = disks_core::CentralizedCoverage::new(&ds.net);
        assert_eq!(results, central.evaluate(&f).unwrap());
        let t = dep.response_time(&f);
        assert!(t > Duration::ZERO);
    }
}
