//! Graph-partitioning substrate for the DISKS system.
//!
//! The paper fragments each road network into `N` node-disjoint fragments
//! with ParMetis \[13\], "aiming at minimizing cross-partition edges for
//! parallel computing" with balanced fragment sizes. This crate is the
//! from-scratch substitution (DESIGN.md §4):
//!
//! * [`GridPartitioner`] — geometric kd-splitting on node coordinates;
//!   trivially balanced, a good road-network baseline.
//! * [`BfsPartitioner`] — multi-seed region growing over the graph topology.
//! * [`MultilevelPartitioner`] — the METIS-like default: heavy-edge-matching
//!   coarsening, region-grow initial partitioning, and boundary
//!   Fiduccia–Mattheyses refinement during uncoarsening.
//!
//! All partitioners emit a [`Partitioning`], which also computes the
//! *portal nodes* (endpoints of cross-fragment edges — §3.2 of the paper),
//! the edge cut, and balance statistics consumed by the load-balance
//! analysis (Theorem 6).

#![forbid(unsafe_code)]

pub mod bfs;
pub mod fragment;
pub mod grid;
pub mod metrics;
pub mod multilevel;

pub use bfs::BfsPartitioner;
pub use fragment::{FragmentId, Partitioning};
pub use grid::GridPartitioner;
pub use metrics::PartitionMetrics;
pub use multilevel::MultilevelPartitioner;

use disks_roadnet::RoadNetwork;

/// A strategy producing a `k`-way node-disjoint partitioning.
pub trait Partitioner {
    /// Partition `net` into `k` fragments. Implementations must return a
    /// partitioning with exactly `k` fragments (some may be empty only for
    /// degenerate inputs with fewer than `k` nodes).
    fn partition(&self, net: &RoadNetwork, k: usize) -> Partitioning;
}
