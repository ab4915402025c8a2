//! The **NPD-index** (Node-Partition-Distance index, §3).
//!
//! For each fragment `P` the index `IND(P)` holds two components:
//!
//! * **SC(P)** — *shortcut* edges `(A, B, d(A,B))` with both ends in `P`,
//!   added exactly when Rule 1 (or Rule 3 under multiple shortest paths)
//!   holds: `(A,B)` is not an original edge and no shortest path `A↔B`
//!   contains another node of `P`. `P ∪ SC(P)` is then a *complete fragment*
//!   (Theorem 1): every intra-fragment distance (≤ maxR) is computable
//!   locally, and SC(P) is the smallest such set (Theorem 2).
//! * **DL(P)** — *distance lists*: for an external node `A ∉ P`, the entry
//!   `(A, P)` maps to the sorted list of `(Nᵢ, d(A,Nᵢ))` over portals `Nᵢ` of
//!   `P` whose shortest path from `A` meets `P` only at `Nᵢ` (Rule 2/4).
//!   Together with SC this computes `d(A,B)` for every `A ∈ G, B ∈ P`
//!   (Theorem 3) and is the smallest standard fragment index (Theorem 4).
//!
//! Following §3.7 the index additionally materializes the *virtual keyword
//! node* aggregation: for each keyword `ω`, the per-portal minimum of DL
//! distances over external nodes containing `ω`. SGKQ evaluation touches
//! `O(|port(P)|)` pairs per keyword instead of scanning node entries; the
//! paper's reported index size is the node-keyed pair count, which
//! [`IndexStats::distances_recorded`] preserves.

mod build;
mod naive;
mod persist;

pub(crate) use build::{assemble_index, Alg1, BuildWorkspace};
pub use build::{build_all_indexes, build_index, build_index_with_threads};
pub use naive::build_naive_index;
pub use persist::{load_index, save_index, INDEX_MAGIC};

use std::collections::HashMap;

use disks_partition::FragmentId;
use disks_roadnet::{KeywordId, NodeId, INF};

/// Which external nodes get DL entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlScope {
    /// Only object (keyword-bearing) nodes — the paper's §3.7 pruning.
    /// RKQ query locations must then be object nodes.
    ObjectsOnly,
    /// Every node: any node id can be a query location, at a larger index.
    AllNodes,
}

/// NPD-index construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Distance cap `maxR = λ·ē` (§3.7); [`disks_roadnet::INF`] = unbounded.
    pub max_r: u64,
    /// DL entry scope.
    pub dl_scope: DlScope,
}

impl IndexConfig {
    /// Bounded index with the given `maxR`, objects-only DL.
    pub fn with_max_r(max_r: u64) -> Self {
        IndexConfig { max_r, dl_scope: DlScope::ObjectsOnly }
    }

    /// Unbounded index (`maxR = ∞`), objects-only DL.
    pub fn unbounded() -> Self {
        IndexConfig { max_r: INF, dl_scope: DlScope::ObjectsOnly }
    }

    pub fn with_scope(mut self, scope: DlScope) -> Self {
        self.dl_scope = scope;
        self
    }
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig::unbounded()
    }
}

/// The NPD-index of one fragment.
#[derive(Debug, Clone)]
pub struct NpdIndex {
    pub(crate) fragment: FragmentId,
    pub(crate) max_r: u64,
    pub(crate) dl_scope: DlScope,
    /// SC(P): shortcut edges `(a, b, d)` with `a < b`, sorted; inside a
    /// [`crate::DirectedNpdIndex`], arcs `a → b` as found, sorted.
    pub(crate) sc: Vec<(NodeId, NodeId, u64)>,
    /// DL(P): external node → list of `(portal, distance)` sorted by
    /// distance (Rule 2 condition 3).
    pub(crate) dl_entries: HashMap<NodeId, Vec<(NodeId, u64)>>,
    /// §3.7 keyword aggregation: keyword → per-portal minimum distances,
    /// sorted by distance.
    pub(crate) keyword_portals: HashMap<KeywordId, Vec<(NodeId, u64)>>,
    /// Wall-clock spent building, for the Table 3 experiment.
    pub(crate) build_time: std::time::Duration,
    /// Total nodes settled during construction searches.
    pub(crate) build_settled: u64,
}

impl NpdIndex {
    /// The fragment this index belongs to.
    pub fn fragment(&self) -> FragmentId {
        self.fragment
    }

    /// The `maxR` bound the index was built with ([`INF`] = unbounded).
    pub fn max_r(&self) -> u64 {
        self.max_r
    }

    /// DL entry scope.
    pub fn dl_scope(&self) -> DlScope {
        self.dl_scope
    }

    /// SC(P) shortcut edges.
    pub fn shortcuts(&self) -> &[(NodeId, NodeId, u64)] {
        &self.sc
    }

    /// DL entry for external node `a`, if recorded.
    pub fn dl_entry(&self, a: NodeId) -> Option<&[(NodeId, u64)]> {
        self.dl_entries.get(&a).map(Vec::as_slice)
    }

    /// Iterate all DL entries.
    pub fn dl_entries(&self) -> impl Iterator<Item = (NodeId, &[(NodeId, u64)])> {
        self.dl_entries.iter().map(|(&n, v)| (n, v.as_slice()))
    }

    /// §3.7 aggregated `(portal, min distance)` list for keyword `kw`
    /// (external occurrences only), sorted by distance.
    pub fn keyword_portal_list(&self, kw: KeywordId) -> &[(NodeId, u64)] {
        self.keyword_portals.get(&kw).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of node-keyed DL `(portal, distance)` pairs.
    pub fn dl_pairs(&self) -> usize {
        self.dl_entries.values().map(Vec::len).sum()
    }

    /// The paper's index-size measure: number of recorded distances
    /// (`|SC| + Σ |DL entry|`, Theorem 4's counting).
    pub fn distances_recorded(&self) -> usize {
        self.sc.len() + self.dl_pairs()
    }

    /// Size/shape summary.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            fragment: self.fragment,
            shortcuts: self.sc.len(),
            dl_entries: self.dl_entries.len(),
            dl_pairs: self.dl_pairs(),
            keyword_pairs: self.keyword_portals.values().map(Vec::len).sum(),
            distances_recorded: self.distances_recorded(),
            encoded_bytes: persist::encoded_size(self),
            build_time: self.build_time,
            build_settled: self.build_settled,
        }
    }
}

/// Per-fragment index statistics (EXP 1 and EXP 2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    pub fragment: FragmentId,
    /// |SC(P)| — `β` in Theorem 5.
    pub shortcuts: usize,
    /// Number of DL entries (distinct external nodes).
    pub dl_entries: usize,
    /// Total node-keyed `(portal, distance)` pairs across entries.
    pub dl_pairs: usize,
    /// Total keyword-aggregated pairs (§3.7 materialization).
    pub keyword_pairs: usize,
    /// `|SC| + dl_pairs` — the paper's size measure.
    pub distances_recorded: usize,
    /// Bytes of the persisted binary form (the Fig. 7/8 storage cost).
    pub encoded_bytes: usize,
    /// Wall-clock construction time (Table 3).
    pub build_time: std::time::Duration,
    /// Nodes settled across all portal-source searches.
    pub build_settled: u64,
}

impl std::fmt::Display for IndexStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: sc={} dl_entries={} dl_pairs={} distances={} bytes={} built_in={:?}",
            self.fragment,
            self.shortcuts,
            self.dl_entries,
            self.dl_pairs,
            self.distances_recorded,
            self.encoded_bytes,
            self.build_time
        )
    }
}
