//! Road-network graph substrate for the DISKS system.
//!
//! This crate provides everything the NPD-index (EDBT 2014, "Distributed
//! Spatial Keyword Querying on Road Networks") needs from the underlying
//! road network:
//!
//! * [`RoadNetwork`] — an edge-weighted undirected graph in CSR form with two
//!   kinds of nodes (road junctions and objects), a keyword vocabulary, a
//!   per-node keyword mapping `L`, and an inverted keyword→nodes index.
//! * [`dijkstra`] — a reusable Dijkstra toolkit (bounded searches,
//!   multi-source searches, predecessor tracking) shared by index
//!   construction, query evaluation and the baselines.
//! * [`generator`] — deterministic synthetic road-network generators that
//!   substitute for the paper's OpenStreetMap extracts (see `DESIGN.md` §4).
//! * [`io`] / [`codec`] — text and binary (de)serialization.
//!
//! Distances are `u64` with [`INF`] as the unreachable sentinel; edge weights
//! are strictly positive `u32`s, so sums over paths of any realistic length
//! cannot overflow.

#![forbid(unsafe_code)]

pub mod codec;
pub mod digraph;
pub mod dijkstra;
pub mod error;
pub mod generator;
pub mod graph;
pub mod io;
pub mod vocab;
pub mod zipf;

pub use dijkstra::{kernel_for, DijkstraWorkspace, Graph, Kernel};
pub use error::{DecodeError, RoadNetError};
pub use graph::{NodeId, RoadNetwork, RoadNetworkBuilder, Weight};
pub use vocab::{KeywordId, Vocabulary};

/// Sentinel distance for "unreachable".
pub const INF: u64 = u64::MAX;
