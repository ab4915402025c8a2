//! The program surface: every public item of the system under test that the
//! benchmark calls is named in this file and nowhere else.
//!
//! The other modules of the harness import only from `crate::sut`. A change
//! that removes or renames one of the items below breaks the benchmark's
//! build, so it needs a benchmark issue first (see `README.md`).

use std::time::Duration;

use disks_baseline::CentralizedEngine;
use disks_core::{build_all_indexes, IndexConfig, RangeKeywordQuery, SgkQuery};
use disks_partition::{MultilevelPartitioner, PartitionMetrics, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;

pub use disks_cluster::message::{decode_frame, encode_frame};
pub use disks_cluster::{
    BatchAnswer, Cluster, ClusterConfig, CoverageCache, QueryOutcome, Request, Response, WireCost,
};
pub use disks_core::bitset::BitSet;
pub use disks_core::index::{load_index, save_index};
pub use disks_core::{
    DFunction, DTerm, FragmentEngine, NpdIndex, QueryError, QueryPlan, SuperPlan, Term,
};
pub use disks_partition::{FragmentId, Partitioning};
pub use disks_roadnet::{KeywordId, NodeId, RoadNetwork};

use crate::rng::Fnv;

/// A request's unit of work as the program sees it.
pub type Query = DFunction;

/// Seed of the one dataset every workload runs on (`--seed` never reaches it).
pub const DATASET_SEED: u64 = 0xA052;
pub const FRAGMENTS: usize = 8;
pub const MACHINES: usize = 2;
/// The 64 MiB default scaled by 39 306 / 1.22 M paper-AUS nodes, so the
/// cache is as tight against the hot set as it is at paper scale.
pub const CACHE_BYTES: usize = 2 << 20;
/// `maxR` of the index, in average edge weights.
pub const MAX_R_EDGES: u64 = 40;

/// Remove every `DISKS_*` variable so `ClusterConfig::default()` yields the
/// shipped defaults. Call before any thread is started.
pub fn scrub_env() {
    let names: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    for name in names.into_iter().filter(|n| n.starts_with("DISKS_")) {
        std::env::remove_var(name);
    }
}

pub fn generate() -> RoadNetwork {
    GridNetworkConfig::aus_like(DATASET_SEED).generate()
}

pub fn max_r(net: &RoadNetwork) -> u64 {
    MAX_R_EDGES * net.avg_edge_weight()
}

pub fn partition(net: &RoadNetwork) -> Partitioning {
    MultilevelPartitioner::default().partition(net, FRAGMENTS)
}

/// `(edge cut, total portals)` of a partitioning.
pub fn partition_shape(net: &RoadNetwork, p: &Partitioning) -> (usize, usize) {
    let m = PartitionMetrics::compute(net, p);
    (m.cut_edges, m.total_portals)
}

pub fn build_indexes(net: &RoadNetwork, p: &Partitioning) -> Vec<NpdIndex> {
    build_all_indexes(net, p, &IndexConfig::with_max_r(max_r(net)))
}

/// `(persisted bytes, DL pairs, shortcuts)` summed over the fragment indexes.
pub fn index_shape(indexes: &[NpdIndex]) -> (usize, usize, usize) {
    indexes.iter().fold((0, 0, 0), |(b, d, s), idx| {
        let st = idx.stats();
        (b + st.encoded_bytes, d + st.dl_pairs, s + st.shortcuts)
    })
}

pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        machines: Some(MACHINES),
        coverage_cache_bytes: CACHE_BYTES,
        ..ClusterConfig::default()
    }
}

pub fn build_cluster(net: &RoadNetwork, p: &Partitioning, indexes: Vec<NpdIndex>) -> Cluster {
    Cluster::build(net, p, indexes, cluster_config())
}

pub fn sgkq(keywords: &[u32], radius: u64) -> Query {
    SgkQuery::new(keywords.iter().map(|&k| KeywordId(k)).collect(), radius).to_dfunction()
}

pub fn rkq(location: u32, keyword: u32, radius: u64) -> Query {
    RangeKeywordQuery::new(NodeId(location), vec![KeywordId(keyword)], radius).to_dfunction()
}

/// What workload generation needs to know about the dataset.
pub struct Catalog {
    /// Keywords borne by at least one node, most frequent first (ties by id).
    pub keywords_by_frequency: Vec<u32>,
    /// `(object node, its keywords)` in node order.
    pub objects: Vec<(u32, Vec<u32>)>,
    pub max_r: u64,
}

pub fn catalog(net: &RoadNetwork) -> Catalog {
    let freq = net.keyword_frequencies();
    let mut keywords: Vec<u32> = (0..freq.len() as u32).filter(|&k| freq[k as usize] > 0).collect();
    keywords.sort_by_key(|&k| (std::cmp::Reverse(freq[k as usize]), k));
    let objects = net
        .node_ids()
        .filter(|&n| net.is_object(n))
        .map(|n| (n.0, net.keywords(n).iter().map(|k| k.0).collect()))
        .collect();
    Catalog { keywords_by_frequency: keywords, objects, max_r: max_r(net) }
}

/// FNV-1a over the edges and the node keywords: what the workloads run on.
pub fn dataset_fingerprint(net: &RoadNetwork) -> u64 {
    let mut h = Fnv::new();
    for (a, b, w) in net.edges() {
        h.word(a.0 as u64);
        h.word(b.0 as u64);
        h.word(w as u64);
    }
    for n in net.node_ids() {
        h.word(u64::MAX);
        for k in net.keywords(n) {
            h.word(k.0 as u64);
        }
    }
    h.0
}

/// Fold a query's terms, radii and operators into a stream fingerprint.
pub fn fingerprint_query(q: &Query, h: &mut Fnv) {
    fn term(t: &DTerm, h: &mut Fnv) {
        match t.term {
            Term::Keyword(k) => h.word(k.0 as u64),
            Term::Node(n) => h.word((1 << 32) | n.0 as u64),
        }
        h.word(t.radius);
    }
    term(&q.first, h);
    for (op, t) in &q.rest {
        h.word(*op as u64);
        term(t, h);
    }
}

pub fn digest(nodes: &[NodeId]) -> u64 {
    let mut h = Fnv::new();
    for n in nodes {
        h.word(n.0 as u64);
    }
    h.0
}

/// One client submission: everything in `queries` is outstanding together.
pub fn submit(cluster: &Cluster, queries: &[Query]) -> Vec<Result<QueryOutcome, QueryError>> {
    cluster.run_stream(queries).0
}

/// The centralized reference answer and the time it took.
pub struct Oracle<'a>(CentralizedEngine<'a>);

impl<'a> Oracle<'a> {
    pub fn new(net: &'a RoadNetwork) -> Self {
        Oracle(CentralizedEngine::new(net))
    }

    pub fn answer(&mut self, q: &Query) -> Result<(Vec<NodeId>, Duration), QueryError> {
        self.0.run(q)
    }
}

/// Lifetime counters the cluster exposes through public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_bypassed: u64,
    pub c2w_bytes: u64,
    pub w2c_bytes: u64,
    pub c2w_frames: u64,
    pub w2c_frames: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub respawns: u64,
    pub shed: u64,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Self {
        let cache = cluster.cache_counters();
        let (c2w_bytes, w2c_bytes) = cluster.link_totals();
        let (c2w_frames, w2c_frames) = cluster.link_message_totals();
        let recovery = cluster.recovery_counters();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bypassed: cache.bypassed,
            c2w_bytes,
            w2c_bytes,
            c2w_frames,
            w2c_frames,
            retries: recovery.retries,
            timeouts: recovery.timeouts,
            respawns: recovery.respawned_workers,
            shed: cluster.overload_counters().shed,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_bypassed: self.cache_bypassed - earlier.cache_bypassed,
            c2w_bytes: self.c2w_bytes - earlier.c2w_bytes,
            w2c_bytes: self.w2c_bytes - earlier.w2c_bytes,
            c2w_frames: self.c2w_frames - earlier.c2w_frames,
            w2c_frames: self.w2c_frames - earlier.w2c_frames,
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            respawns: self.respawns - earlier.respawns,
            shed: self.shed - earlier.shed,
        }
    }
}

/// Theorem 6's max/min machine evaluation time over the cluster's lifetime.
pub fn unbalance(cluster: &Cluster) -> f64 {
    cluster.unbalance_factor()
}

/// Which machine hosts each fragment, as the cluster placed them.
pub fn fragments_by_machine(cluster: &Cluster) -> Vec<Vec<u32>> {
    let placement = cluster.placement();
    (0..placement.num_machines())
        .map(|m| placement.fragments_of(m).iter().map(|f| f.0).collect())
        .collect()
}
