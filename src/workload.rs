//! Deterministic workload shared by the multi-process runner.
//!
//! The coordinator and worker executables live in separate processes with
//! no shared memory, so everything they must agree on — the synthetic road
//! network, the partitioning, the per-machine engine set, the Zipf query
//! stream, and the result digest — is derived here from explicit seeds.
//! Both sides calling these functions with the same arguments reconstruct
//! bit-identical state, which is what lets `tests/multiprocess.rs` demand
//! byte-identical output from the TCP runner and the in-process cluster.

use disks_cluster::worker::WorkerEngine;
use disks_cluster::Placement;
use disks_core::{build_all_indexes, FragmentEngine, IndexConfig, SgkQuery};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, NodeId, RoadNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shared synthetic road network: small enough that every worker can
/// rebuild it at startup, large enough to exercise multi-fragment queries.
pub fn grid_net(seed: u64) -> RoadNetwork {
    GridNetworkConfig::tiny(seed).generate()
}

/// The shared partitioning (one fragment per simulated machine by default).
pub fn partition(net: &RoadNetwork, fragments: usize) -> Partitioning {
    MultilevelPartitioner::default().partition(net, fragments)
}

/// The engines machine `m` owns under the cluster's round-robin fragment
/// placement — the one placement every cluster uses (each worker process
/// rebuilds its own engines from these seeds), so a worker rebuilds exactly
/// the fragments the coordinator will address to it.
pub fn machine_engines(
    net: &RoadNetwork,
    p: &Partitioning,
    machines: usize,
    m: usize,
) -> Vec<WorkerEngine> {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    let placement = Placement::round_robin(p.num_fragments(), machines);
    placement
        .fragments_of(m)
        .iter()
        .map(|&f| {
            WorkerEngine::Single(
                FragmentEngine::new(net, p, &indexes[f.index()]).expect("engine build"),
            )
        })
        .collect()
}

/// A seeded Zipf-skewed SGKQ stream — the same shape the cache and
/// batching test suites use: keywords drawn by popularity rank, radii from
/// a small pool.
pub fn zipf_queries(net: &RoadNetwork, seed: u64, n: usize) -> Vec<SgkQuery> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
    ranked.truncate(10);
    let zipf = Zipf::new(ranked.len(), 1.0);
    let e = net.avg_edge_weight();
    let radii = [2 * e, 3 * e, 4 * e];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let num_kw = 1 + rng.gen_range(0..2);
            let kws: Vec<KeywordId> =
                (0..num_kw).map(|_| KeywordId(ranked[zipf.sample(&mut rng)] as u32)).collect();
            SgkQuery::new(kws, radii[rng.gen_range(0..radii.len())])
        })
        .collect()
}

/// FNV-1a over the result node ids in answer order — a stable digest two
/// processes can compare without shipping the full result sets around.
pub fn result_hash(results: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in results {
        for b in n.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
