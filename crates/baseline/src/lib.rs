//! Baselines the paper discusses (§2.3) or uses as references.
//!
//! * [`centralized`] — the "1 fragment" single-machine reference plotted in
//!   Figs. 10/11: whole-graph keyword coverage with no index.
//! * [`bsp`] — a miniature vertex-centric BSP engine in the style of Pregel
//!   \[17\], with per-superstep message accounting.
//! * [`bsp_dijkstra`] — distributed SSSP / keyword coverage / SGKQ on the
//!   BSP engine. This is the "general graph processing" alternative the
//!   paper argues against: correct, but it pays multiple communication
//!   rounds and inter-worker messages per query, which the experiment
//!   harness contrasts with the NPD-index's single round and zero
//!   inter-worker bytes.
//! * [`partition_dijkstra`] — the partition-based iterative-correcting
//!   shortest-path scheme of Tang et al. \[23\]: local Dijkstra per fragment
//!   plus boundary-exchange rounds until a fixpoint.

#![forbid(unsafe_code)]

pub mod bsp;
pub mod bsp_dijkstra;
pub mod centralized;
pub mod partition_dijkstra;

pub use bsp::{BspRun, MAX_SUPERSTEPS};
pub use bsp_dijkstra::{bsp_keyword_coverage, bsp_sgkq, bsp_sssp};
pub use centralized::CentralizedEngine;
pub use partition_dijkstra::{iterative_coverage, iterative_sssp, IterativeStats};
