//! # DISKS — Distributed Spatial Keyword Querying on Road Networks
//!
//! A from-scratch Rust reproduction of the EDBT 2014 paper *"Distributed
//! Spatial Keyword Querying on Road Networks"* (Luo, Luo, Zhou, Cong, Guan,
//! Yong): the **NPD-index** and the keyword-coverage / D-function framework
//! for answering Spatial Group Keyword Queries (SGKQ) and Range Keyword
//! Queries (RKQ) in a coordinator-based share-nothing distributed setting
//! with zero inter-worker communication at query time.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`roadnet`] — road-network graph substrate (CSR graph, keywords,
//!   Dijkstra toolkit, synthetic generators, I/O).
//! * [`partition`] — graph partitioners (geometric, region-growing,
//!   multilevel METIS-like) producing node-disjoint fragments and portals.
//! * [`core`] — the NPD-index (SC + DL components), fragment query engine,
//!   D-functions, SGKQ/RKQ/Q-class queries.
//! * [`cluster`] — the distributed runtime: coordinator, workers, simulated
//!   byte-accounted network, scheduler, load-balance statistics.
//! * [`baseline`] — centralized evaluation, a mini-Pregel BSP engine with a
//!   distributed-Dijkstra baseline, and a partitioned iterative-correcting
//!   Dijkstra baseline.
//! * [`mod@bench`] — the experiment harness regenerating every table and figure
//!   of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use disks::prelude::*;
//!
//! // 1. A small synthetic road network (substitute for an OSM extract).
//! let net = GridNetworkConfig::small(7).generate();
//!
//! // 2. Partition it into 4 fragments (one per simulated machine).
//! let partitioning = MultilevelPartitioner::default().partition(&net, 4);
//!
//! // 3. Build the NPD-index for every fragment.
//! let max_r = 40 * net.avg_edge_weight();
//! let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::with_max_r(max_r));
//!
//! // 4. Spin up the share-nothing cluster and run an SGKQ.
//! let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
//! let kw = net.vocab().iter().next().unwrap().0;
//! let query = SgkQuery::new(vec![kw], max_r / 4);
//! let outcome = cluster.run_sgkq(&query).unwrap();
//! assert_eq!(outcome.stats.inter_worker_bytes, 0); // the paper's headline property
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod demo;
pub mod flags;
pub mod workload;

pub use disks_baseline as baseline;
pub use disks_bench as bench;
pub use disks_cluster as cluster;
pub use disks_core as core;
pub use disks_partition as partition;
pub use disks_roadnet as roadnet;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use disks_baseline::centralized::CentralizedEngine;
    pub use disks_cluster::{Cluster, ClusterConfig};
    pub use disks_core::{
        build_all_indexes, DFunction, IndexConfig, NpdIndex, QClassQuery, RangeKeywordQuery,
        ScoreCombine, SetOp, SgkQuery, Term, TopKQuery,
    };
    pub use disks_partition::{
        BfsPartitioner, GridPartitioner, MultilevelPartitioner, Partitioner, Partitioning,
    };
    pub use disks_roadnet::generator::GridNetworkConfig;
    pub use disks_roadnet::{KeywordId, NodeId, RoadNetwork, RoadNetworkBuilder, INF};
}
