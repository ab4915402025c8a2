//! # The NPD-index and query engine — the paper's primary contribution.
//!
//! This crate implements Sections 3–5 of *"Distributed Spatial Keyword
//! Querying on Road Networks"* (EDBT 2014):
//!
//! * [`dfunc`] — the *keyword coverage* operation `R(ω, r)` and
//!   **D-functions** `F(X₁,…,X_k) = X₁ θ₁ … θ_{k-1} X_k` over coverages
//!   (θ ∈ {∪, ∩, −}), including Lemma 1 (distributed evaluation).
//! * [`query`] — Spatial Group Keyword Queries (SGKQ), Range Keyword Queries
//!   (RKQ), and the generalized Q-class (Definition 8), each lowered to a
//!   D-function.
//! * [`index`] — the **NPD-index** per fragment: the `SC` shortcut component
//!   (Rules 1/3, Theorems 1–2) and the `DL` distance-list component
//!   (Rules 2/4, Theorems 3–4), built with the backward portal-source search
//!   of Algorithm 1, with `maxR` pruning (§3.7) and persistence.
//! * [`plan`] — normalized query plans: deduplicated `(term, radius)`
//!   coverage slots plus a combine program over slot indexes, the unit the
//!   coordinator admits/ships and the cluster layer caches.
//! * [`floors`] — the coordinator's copy of Alg. 2's seed test, which
//!   leaves out a (query, fragment) pair with a seedless conjunct.
//! * [`engine`] — the per-fragment query engine of Algorithm 2: extended
//!   fragment construction and per-term coverage Dijkstra, instrumented with
//!   the Theorem 5 cost model.
//! * [`directed`] — the §2.1 adaptation to directed networks: the same
//!   Algorithm 1 over the reversed graph and the same engine over out-arcs.
//! * [`runs`] — the run-level form a fragment's answer keeps from the
//!   engine's bitset to the coordinator's bitmap.
//! * [`coverage`] — centralized whole-graph evaluation used as ground truth
//!   and as the "1 fragment" baseline.
//! * [`bilevel`] — the §5.5 bi-level index that routes queries with
//!   `r > maxR` to an unbounded secondary index.

#![forbid(unsafe_code)]

pub mod bilevel;
pub mod bitset;
pub mod coverage;
pub mod dfunc;
pub mod directed;
pub mod engine;
pub mod error;
pub mod floors;
pub mod index;
pub mod plan;
pub mod query;
pub mod runs;
pub mod topk;

pub use bilevel::BiLevelIndex;
pub use coverage::CentralizedCoverage;
pub use dfunc::{DFunction, DTerm, SetOp, Term};
pub use directed::{
    build_directed_index, directed_sgkq_centralized, directed_sgkq_distributed, DirectedNpdIndex,
    DirectedPartition,
};
pub use engine::{
    CoverageStore, Floors, FragmentEngine, KeywordList, NoCache, QueryCost, SlotCost,
};
pub use error::{IndexError, QueryError};
pub use floors::SeedFloors;
pub use index::{
    build_all_indexes, build_index, build_index_with_threads, build_naive_index, DlScope,
    IndexConfig, IndexStats, NpdIndex,
};
pub use plan::{QueryPlan, SuperPlan, Targets, Within};
pub use query::{QClassQuery, RangeKeywordQuery, SgkQuery};
pub use runs::NodeRuns;
pub use topk::{centralized_topk, merge_topk, Ranked, ScoreCombine, TopKQuery};
