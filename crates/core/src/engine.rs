//! The per-fragment query engine — Algorithm 2.
//!
//! A [`FragmentEngine`] is the state one machine keeps for its fragment `P`:
//!
//! * the *extended fragment* `P' = P ∪ SC(P)` as a local CSR graph (Step 1),
//! * the DL component for seeding cross-fragment distances (Steps 2–3),
//! * a local inverted keyword index (sources of the virtual keyword nodes),
//! * on a bounded index, per keyword searched so far, a [`KeywordList`]: the
//!   local nodes within `maxR` of it sorted by distance (8 B a node), beside
//!   their set, the *reach mask* `R(ω, maxR) ∩ P` — a ceiling on every later
//!   coverage of the keyword — and, once a location's search has steered
//!   by it, a floor byte a fragment node, a lower bound on each node's
//!   distance to the keyword.
//!
//! A keyword's first search on a bounded index runs to `maxR` and builds its
//! list; every later coverage or distance read of the keyword, at any
//! `r ≤ maxR`, is the list's prefix within `r` and searches nothing. So
//! each (fragment, keyword) is searched once for the engine's life.
//!
//! A location's slot `R(l, r)` that a plan intersects or subtracts once is
//! searched after the plan's keywords and only as far as the answer needs:
//! it reports the nodes of the accumulator it meets and stops once all of
//! them have settled (the bounded fetch of [`QueryPlan::evaluate_lazy`]).
//! On an undirected engine it also goes only toward the answer: the
//! accumulator lies within the keyword conjuncts already intersected, so
//! their floors bound how far each node is from it, and the search pushes
//! no node that cannot reach it within `r`.
//!
//! The paper's "virtual node `Vᵢ` connected by directed 0-weight edges" is
//! realized as multi-source Dijkstra seeding, which is the same computation
//! without materializing the node (seeds cannot be re-entered, exactly like
//! the paper's directed virtual edges). Per query term the engine seeds:
//!
//! * every local node containing the term's keyword at distance 0,
//! * every portal `N` with an aggregated DL distance `d(ω, N) ≤ r` at
//!   distance `d` (Step 3's added shortcut edges),
//!
//! then runs a Dijkstra bounded by `r` over `P'`. The resulting coverage
//! `R(ω, r) ∩ P` feeds the D-function combiner (Lemma 1). No information
//! from any other machine is consulted — Theorem 3's zero-communication
//! property, which the cluster layer asserts at runtime.
//!
//! The engine is **share-nothing by construction**: after `new` returns it
//! holds copies of exactly `P ∪ SC(P) ∪ DL(P)` plus local keywords, never a
//! reference to the global network.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::digraph::DirectedRoadNetwork;
use disks_roadnet::dijkstra::{Control, Graph};
use disks_roadnet::{DijkstraWorkspace, KeywordId, NodeId, RoadNetwork, Weight};

use crate::bitset::BitSet;
use crate::dfunc::{DFunction, DTerm, Term};
use crate::directed::{DirectedNpdIndex, DirectedPartition};
use crate::error::{IndexError, QueryError};
use crate::index::{DlScope, NpdIndex};
use crate::plan::{QueryPlan, Rank, Within};
use crate::runs::NodeRuns;
use crate::topk::Ranked;

/// What a plan answers on one fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The nodes the program leaves, as global ids in runs.
    Nodes(NodeRuns),
    /// A ranked plan's best `k` of them, by `(score, global id)`.
    Ranked(Vec<Ranked>),
}

impl Answer {
    /// The global ids: a plan's ascending, a ranked plan's best first.
    pub fn to_vec(&self) -> Vec<NodeId> {
        match self {
            Answer::Nodes(runs) => runs.to_vec(),
            Answer::Ranked(ranked) => ranked.iter().map(|&(_, node)| node).collect(),
        }
    }
}

/// Theorem 5 cost attribution for one coverage slot (one `R(term, r) ∩ P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotCost {
    pub term: Term,
    pub radius: u64,
    /// αⱼ — DL pairs inspected for this slot.
    pub alpha: usize,
    /// Nodes settled by this slot's coverage search (0 on a cache hit or a
    /// list cut).
    pub settled: usize,
    /// Heap pushes by this slot's coverage search (0 on a cache hit or a
    /// list cut).
    pub pushed: usize,
    /// `|P ∩ R(term, r)|`; `|P ∩ R(term, r) ∩ acc|` for a `Term::Node` slot
    /// fetched against the accumulator `acc` (a bounded fetch,
    /// [`QueryPlan::evaluate_lazy`]).
    pub coverage_nodes: usize,
    /// Whether the coverage was served from a [`CoverageStore`] hit.
    pub cached: bool,
}

/// Theorem 5 cost-model instrumentation for one query on one fragment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Σ αⱼ — DL pairs inspected across terms.
    pub alpha: usize,
    /// β = |SC(P)| (constant per engine, counted once per query).
    pub beta: usize,
    /// Nodes settled across the coverage searches (0 for a slot served by a
    /// cache hit or a list cut).
    pub settled: usize,
    /// Heap pushes across the coverage searches (0 for a slot served by a
    /// cache hit or a list cut).
    pub pushed: usize,
    /// Σ |P ∩ R(ωⱼ, r)| — total coverage sizes, each slot's as
    /// [`SlotCost::coverage_nodes`] counts it (`|P ∩ R ∩ acc|` for a bounded
    /// fetch).
    pub coverage_nodes: usize,
    /// Result nodes produced.
    pub results: usize,
    /// Wall-clock spent.
    pub elapsed: Duration,
    /// Per-slot breakdown of the aggregates above, in evaluation order: one
    /// entry per slot the lazy driver fetched, none for a slot it skipped.
    pub per_slot: Vec<SlotCost>,
}

impl QueryCost {
    /// Add one fetched slot to the aggregates and the breakdown.
    fn absorb(&mut self, slot: SlotCost) {
        self.alpha += slot.alpha;
        self.settled += slot.settled;
        self.pushed += slot.pushed;
        self.coverage_nodes += slot.coverage_nodes;
        self.per_slot.push(slot);
    }
}

impl From<SlotCost> for QueryCost {
    fn from(slot: SlotCost) -> Self {
        let mut cost = QueryCost::default();
        cost.absorb(slot);
        cost
    }
}

/// A pluggable coverage store consulted per plan slot — the seam between the
/// pure per-term coverage stage and the cluster layer's per-worker cache.
///
/// A slot comes as its index in the plan's table (a window's, for a window
/// program) and its spec. Implementations must be transparent: `lookup`
/// may only return a value previously passed to `store` for the *same*
/// spec on the *same* engine (coverage is a pure function of the immutable
/// engine, so a stored value never goes stale while the engine lives).
pub trait CoverageStore {
    /// A previously stored coverage for `term`, if any.
    fn lookup(&mut self, slot: u32, term: &DTerm) -> Option<Arc<BitSet>>;
    /// Offer a freshly computed coverage for `term`.
    fn store(&mut self, slot: u32, term: &DTerm, coverage: &Arc<BitSet>);
}

/// The no-op [`CoverageStore`]: every lookup misses, stores are dropped.
pub struct NoCache;

impl CoverageStore for NoCache {
    fn lookup(&mut self, _slot: u32, _term: &DTerm) -> Option<Arc<BitSet>> {
        None
    }
    fn store(&mut self, _slot: u32, _term: &DTerm, _coverage: &Arc<BitSet>) {}
}

/// One machine's query-evaluation state for its fragment.
pub struct FragmentEngine {
    fragment: FragmentId,
    max_r: u64,
    dl_scope: DlScope,
    /// local id → global id, strictly ascending: global → local is a
    /// binary search.
    globals: Vec<NodeId>,
    /// [`NodeRuns::breaks`] of `globals`: where a run of local ids stops
    /// being a run of global ids.
    breaks: BitSet,
    /// Local CSR over `P ∪ SC(P)` (both arcs for every undirected edge,
    /// the out-arcs of a directed fragment), `(neighbor, weight)`
    /// interleaved: a relaxation reads both.
    adj_offsets: Vec<u32>,
    adj: Vec<(u32, Weight)>,
    /// Lightest arc of `adj`, shortcuts included.
    min_arc_weight: Weight,
    /// The keywords with a seed in the fragment — a local node bearing the
    /// keyword or a DL pair, so within `max_r` of it — strictly ascending,
    /// and what the engine holds for each, in the same order. A sorted
    /// array under a binary search rather than a table dense by id: it
    /// grows with what a bounded index can reach, not with a vocabulary the
    /// share-nothing engine never sees, and the ids of a fragment stay in
    /// L1 — ten compares where two hash maps cost two SipHash rounds.
    kw_ids: Vec<KeywordId>,
    kw_entries: Vec<KeywordEntry>,
    /// Scratch for the ⋂ of a plan's reach masks.
    ceiling: BitSet,
    /// Node-keyed DL with local portal ids, for `Term::Node` seeds.
    dl_node_entries: HashMap<u32, Vec<(u32, u64)>>,
    /// |SC(P)| — β of Theorem 5.
    sc_size: usize,
    /// Whether every arc has its reverse. Only then is a keyword list's
    /// `d(ω → v)` also `d(v → ω)`, the lower bound a location's search
    /// steers by ([`TowardKeywords`]).
    undirected: bool,
    ws: DijkstraWorkspace,
}

/// What the engine holds for one keyword: its seeds and, once searched, how
/// far it reaches.
#[derive(Default)]
struct KeywordEntry {
    /// Local nodes bearing the keyword (the local inverted index).
    locals: Vec<u32>,
    /// §3.7 aggregation with portals translated to local ids:
    /// (local portal, distance), sorted by distance.
    portals: Vec<(u32, u64)>,
    /// The keyword's list, left behind by the first search a plan needed of
    /// the keyword (which ran to `max_r` for it). A pure function of the
    /// immutable index, like the rest of the engine: set once, never
    /// invalidated, and never set when the engine keeps no lists
    /// ([`FragmentEngine::keeps_lists`]).
    reach: OnceLock<KeywordList>,
}

/// Every local node within `max_r` of a keyword with its distance, sorted by
/// distance, and their set: what a [`FragmentEngine`] keeps of a keyword's
/// first search. `R(keyword, r) ∩ P` for every admissible `r` is a prefix of
/// the list, and the set bounds every coverage of the keyword from above.
/// The first location search that steers by the keyword adds its
/// [`Floors`], a lower bound on every local node's distance to it.
pub struct KeywordList {
    /// Distances, ascending; `nodes[i]` is at `dists[i]`.
    dists: Vec<u32>,
    nodes: Vec<u32>,
    /// The reach mask `R(keyword, max_r) ∩ P`: the list's full set.
    mask: BitSet,
    /// The radius the list was searched to.
    max_r: u64,
    floors: OnceLock<Floors>,
}

/// A floor byte a fragment node, read off a keyword's list: for each local
/// node `v`, a lower bound on `d(keyword, v)` in O(1).
pub struct Floors {
    /// By local id, `⌊d(keyword, v) / quantum⌋` (≤ 254) for a listed `v`,
    /// [`UNLISTED`] for any other.
    bytes: Vec<u8>,
    /// `⌈(max_r + 1) / 255⌉`, so a listed distance's byte stays below
    /// [`UNLISTED`].
    quantum: u64,
    /// `max_r + 1`: what an unlisted node is at least from the keyword.
    beyond: u64,
}

/// [`Floors`]' byte for a node farther than `max_r`.
const UNLISTED: u8 = u8::MAX;

impl Floors {
    /// The lower bound on `d(keyword, v)`: the listed distance rounded down
    /// to a multiple of the quantum, and `max_r + 1` for an unlisted node
    /// (`255 · quantum ≥ max_r + 1`, while a listed node's rounded distance
    /// is at most the distance itself, ≤ `max_r`).
    #[inline]
    fn floor(&self, v: u32) -> u64 {
        (u64::from(self.bytes[v as usize]) * self.quantum).min(self.beyond)
    }

    /// Resident bytes: one a fragment node.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl KeywordList {
    /// The list of the `(distance, local id)` pairs one search to `max_r`
    /// settled, in any order, over a fragment of `num_local` nodes.
    pub fn new(mut settled: Vec<(u32, u32)>, num_local: usize, max_r: u64) -> Self {
        // The bucket kernel settles in bucket order, not distance order.
        settled.sort_unstable();
        let (dists, nodes): (Vec<u32>, Vec<u32>) = settled.into_iter().unzip();
        let mut mask = BitSet::new(num_local);
        nodes.iter().for_each(|&n| mask.insert(n as usize));
        KeywordList { dists, nodes, mask, max_r, floors: OnceLock::new() }
    }

    /// The list's floors, built from it the first time they are asked for.
    pub fn floors(&self) -> &Floors {
        self.floors.get_or_init(|| {
            let quantum = (self.max_r + 1).div_ceil(u64::from(UNLISTED));
            let mut bytes = vec![UNLISTED; self.mask.capacity()];
            for (&d, &n) in self.dists.iter().zip(&self.nodes) {
                let byte = u8::try_from(u64::from(d) / quantum).ok().filter(|&b| b < UNLISTED);
                bytes[n as usize] = byte.expect("a listed distance is within max_r");
            }
            Floors { bytes, quantum, beyond: self.max_r + 1 }
        })
    }

    /// How many nodes are within `r`: the length of the prefix that is
    /// `R(keyword, r) ∩ P`.
    fn cut(&self, r: u64) -> usize {
        self.dists.partition_point(|&d| u64::from(d) <= r)
    }

    /// Insert the nodes within `r` into `cov`; how many there are.
    pub fn cut_into(&self, r: u64, cov: &mut BitSet) -> usize {
        let within = &self.nodes[..self.cut(r)];
        within.iter().for_each(|&n| cov.insert(n as usize));
        within.len()
    }

    /// Resident bytes: 8 a listed node, beside the mask and, once built, the
    /// floors.
    pub fn memory_bytes(&self) -> usize {
        let floors = self.floors.get().map_or(0, Floors::memory_bytes);
        (self.dists.len() + self.nodes.len()) * 4 + self.mask.memory_bytes() + floors
    }
}

/// A fragment engine as a location's search against an accumulator sees it:
/// each node's [`Graph::floor`] is how far it is at least from every
/// accumulator node, by the floors of keyword conjuncts the accumulator lies
/// within. With `acc ⊆ R(ω, r_ω)` and an undirected network, the triangle
/// inequality gives `d(v, a) ≥ d(ω, v) − r_ω` for every `a ∈ acc`, and ω's
/// floor is below `d(ω, v)`; over several conjuncts the largest of these
/// bounds holds. So a node whose distance from the location plus its floor
/// exceeds `r` leads to no answer, and the search never pushes it.
struct TowardKeywords<'e> {
    engine: &'e FragmentEngine,
    /// `(floors of ω, r_ω)` for each keyword conjunct with a list.
    bounds: Vec<(&'e Floors, u64)>,
}

impl Graph for TowardKeywords<'_> {
    fn num_nodes(&self) -> usize {
        self.engine.num_nodes()
    }

    #[inline]
    fn min_arc_weight(&self) -> Weight {
        self.engine.min_arc_weight()
    }

    #[inline]
    fn for_each_neighbor(&self, node: u32, f: impl FnMut(u32, Weight)) {
        self.engine.for_each_neighbor(node, f);
    }

    #[inline]
    fn floor(&self, node: u32) -> u64 {
        let bound = |&(floors, r): &(&Floors, u64)| floors.floor(node).saturating_sub(r);
        self.bounds.iter().map(bound).max().unwrap_or(0)
    }
}

/// What one bounded search starts from, borrowed from the engine.
struct Seeds<'a> {
    /// The term's own node, when the term is a member of the fragment.
    own: Option<u32>,
    /// Local nodes bearing the term's keyword. Like `own`, at distance 0.
    locals: &'a [u32],
    /// DL portal pairs `(local portal, d)` with `d` within the bound; their
    /// number is the search's αⱼ.
    portals: &'a [(u32, u64)],
}

impl Seeds<'_> {
    fn count(&self) -> usize {
        usize::from(self.own.is_some()) + self.locals.len() + self.portals.len()
    }

    fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let at_zero = self.own.iter().chain(self.locals).map(|&n| (n, 0));
        at_zero.chain(self.portals.iter().copied())
    }
}

impl Graph for FragmentEngine {
    fn num_nodes(&self) -> usize {
        self.globals.len()
    }

    #[inline]
    fn min_arc_weight(&self) -> Weight {
        self.min_arc_weight
    }

    #[inline]
    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, Weight)) {
        let lo = self.adj_offsets[node as usize] as usize;
        let hi = self.adj_offsets[node as usize + 1] as usize;
        for &(v, w) in &self.adj[lo..hi] {
            f(v, w);
        }
    }
}

/// Per-node arc lists as one CSR — `(offsets, arcs, lightest arc)` — the
/// lightest arc (1 when there is none) being taken over exactly the arcs a
/// search of the CSR can traverse.
fn interleaved_csr(lists: &[Vec<(u32, Weight)>]) -> (Vec<u32>, Vec<(u32, Weight)>, Weight) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0u32);
    let mut arcs = Vec::new();
    for list in lists {
        arcs.extend_from_slice(list);
        offsets.push(arcs.len() as u32);
    }
    let lightest = arcs.iter().map(|&(_, w)| w).min().unwrap_or(1);
    (offsets, arcs, lightest)
}

/// The local id of global node `g` in a fragment whose members, in local id
/// order, are the strictly ascending `globals`.
fn local_id(globals: &[NodeId], g: NodeId) -> Option<u32> {
    globals.binary_search(&g).ok().map(|i| i as u32)
}

impl FragmentEngine {
    /// Materialize the engine for `index.fragment()` from the global network
    /// and partitioning. This is the *loading* phase; afterwards the engine
    /// is self-contained.
    pub fn new(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        index: &NpdIndex,
    ) -> Result<Self, IndexError> {
        // Both arcs of every edge (`neighbors` lists each edge at both ends)
        // and of every shortcut.
        let shortcut_arcs = index.shortcuts().iter().flat_map(|&(a, b, d)| [(a, b, d), (b, a, d)]);
        Self::assemble(
            index,
            partitioning.nodes(index.fragment()).to_vec(),
            |g| net.neighbors(g),
            shortcut_arcs,
            |g| net.keywords(g),
            true,
        )
    }

    /// The engine of a directed index's fragment (§2.1): the out-arcs of the
    /// fragment's members and one arc a shortcut, so a search runs forward
    /// and `R(ω, r)` holds the nodes reachable from `ω` within `r`. DL
    /// entries cover objects only ([`DlScope::ObjectsOnly`]).
    pub fn from_directed(
        net: &DirectedRoadNetwork,
        partition: &DirectedPartition,
        index: &DirectedNpdIndex,
    ) -> Result<Self, IndexError> {
        Self::assemble(
            &index.0,
            partition.members(index.fragment()).to_vec(),
            |g| net.out_neighbors(g),
            index.shortcuts().iter().copied(),
            |g| net.keywords(g),
            false,
        )
    }

    /// What both directions share: `globals` are the fragment's members,
    /// `arcs(g)` the network's arcs out of member `g` (those leaving the
    /// fragment are dropped), `shortcut_arcs` the SC arcs `(from, to, d)`,
    /// `keywords_of(g)` member `g`'s keywords, and `undirected` whether
    /// every arc has its reverse.
    fn assemble<'n, I>(
        index: &NpdIndex,
        globals: Vec<NodeId>,
        arcs: impl Fn(NodeId) -> I,
        shortcut_arcs: impl Iterator<Item = (NodeId, NodeId, u64)>,
        keywords_of: impl Fn(NodeId) -> &'n [KeywordId],
        undirected: bool,
    ) -> Result<Self, IndexError>
    where
        I: Iterator<Item = (NodeId, Weight)>,
    {
        let fragment = index.fragment();
        // Local id order is global id order: `to_global` reads an ascending
        // answer off the bitset's words with no sort, and the answer wire
        // layout and the coordinator's gather both need that order.
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "fragment {fragment:?}: member node ids must be strictly ascending"
        );
        // Portals and shortcut ends are members of the fragment.
        let local_of = |g: NodeId| local_id(&globals, g).expect("index node outside its fragment");
        // Local adjacency: intra-fragment original arcs + SC shortcuts.
        let mut lists: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); globals.len()];
        for (i, &g) in globals.iter().enumerate() {
            for (nb, w) in arcs(g) {
                if let Some(ln) = local_id(&globals, nb) {
                    lists[i].push((ln, w));
                }
            }
        }
        for (a, b, d) in shortcut_arcs {
            let w = Weight::try_from(d).map_err(|_| IndexError::WeightOverflow { distance: d })?;
            lists[local_of(a) as usize].push((local_of(b), w));
        }
        let (adj_offsets, adj, min_arc_weight) = interleaved_csr(&lists);
        // Local keyword inverted index, and DL with local portal ids.
        let mut keywords: BTreeMap<KeywordId, KeywordEntry> = BTreeMap::new();
        for (i, &g) in globals.iter().enumerate() {
            for &k in keywords_of(g) {
                keywords.entry(k).or_default().locals.push(i as u32);
            }
        }
        for (&kw, list) in &index.keyword_portals {
            keywords.entry(kw).or_default().portals =
                list.iter().map(|&(p, d)| (local_of(p), d)).collect();
        }
        let (kw_ids, kw_entries) = keywords.into_iter().unzip();
        let mut dl_node_entries = HashMap::new();
        for (node, list) in index.dl_entries() {
            let translated: Vec<(u32, u64)> = list.iter().map(|&(p, d)| (local_of(p), d)).collect();
            dl_node_entries.insert(node.0, translated);
        }
        let num_local = globals.len();
        Ok(FragmentEngine {
            fragment,
            max_r: index.max_r(),
            dl_scope: index.dl_scope(),
            breaks: NodeRuns::breaks(&globals),
            globals,
            adj_offsets,
            adj,
            min_arc_weight,
            kw_ids,
            kw_entries,
            ceiling: BitSet::new(num_local),
            dl_node_entries,
            sc_size: index.shortcuts().len(),
            undirected,
            ws: DijkstraWorkspace::new(num_local),
        })
    }

    pub fn fragment(&self) -> FragmentId {
        self.fragment
    }

    /// Number of nodes in the fragment.
    pub fn num_local_nodes(&self) -> usize {
        self.globals.len()
    }

    /// The `maxR` the underlying index supports.
    pub fn max_r(&self) -> u64 {
        self.max_r
    }

    /// DL scope of the underlying index.
    pub fn dl_scope(&self) -> DlScope {
        self.dl_scope
    }

    /// Approximate resident bytes of the engine's state, the keyword lists
    /// and reach masks built so far included.
    pub fn memory_bytes(&self) -> usize {
        let keyword = |e: &KeywordEntry| {
            (e.locals.len() * 4 + 8)
                + (e.portals.len() * 12 + 8)
                + e.reach.get().map_or(0, KeywordList::memory_bytes)
        };
        self.globals.len() * 4
            + self.breaks.memory_bytes()
            + self.adj_offsets.len() * 4
            + self.adj.len() * std::mem::size_of::<(u32, Weight)>()
            + self.kw_entries.iter().map(keyword).sum::<usize>()
            + self.dl_node_entries.values().map(|v| v.len() * 12 + 8).sum::<usize>()
    }

    /// What the engine holds for keyword `k`; `None` when `k` has no seed in
    /// the fragment at any admissible radius.
    fn keyword(&self, k: KeywordId) -> Option<&KeywordEntry> {
        self.kw_ids.binary_search(&k).ok().map(|i| &self.kw_entries[i])
    }

    /// Radius validation happens at coordinator admission; this is the
    /// last-line guard, in debug builds only.
    fn debug_assert_admitted(&self, radius: u64) {
        debug_assert!(
            radius <= self.max_r,
            "radius {radius} exceeds index maxR {} — admission should have rejected this query",
            self.max_r
        );
    }

    /// What a search for `term` bounded by `bound` starts from (Step 2's
    /// "retain pairs with distance at most r"; the DL lists are sorted by
    /// distance).
    ///
    /// A `Term::Node` outside the fragment with no DL entry is either
    /// farther than `bound` from every portal of P (empty local coverage —
    /// correct) or not DL-indexed under ObjectsOnly scope. The coordinator
    /// validates locations against the scope; the engine cannot tell the
    /// two apart without global data (see `DlScope`).
    fn seed_sources(&self, term: Term, bound: u64) -> Seeds<'_> {
        fn within(pairs: Option<&Vec<(u32, u64)>>, bound: u64) -> &[(u32, u64)] {
            pairs.map_or(&[], |p| &p[..p.partition_point(|&(_, d)| d <= bound)])
        }
        match term {
            Term::Keyword(k) => {
                let entry = self.keyword(k);
                Seeds {
                    own: None,
                    locals: entry.map_or(&[], |e| &e.locals),
                    portals: within(entry.map(|e| &e.portals), bound),
                }
            }
            Term::Node(l) => match local_id(&self.globals, l) {
                own @ Some(_) => Seeds { own, locals: &[], portals: &[] },
                None => Seeds {
                    own: None,
                    locals: &[],
                    portals: within(self.dl_node_entries.get(&l.0), bound),
                },
            },
        }
    }

    /// How many nodes a search for `R(term, radius)` would start from, known
    /// without searching. Zero means the local coverage is empty; otherwise
    /// it ranks the ∩ operands of a plan, cheapest first.
    pub fn seed_count(&self, term: Term, radius: u64) -> usize {
        self.seed_sources(term, radius).count()
    }

    /// The one bounded search of the engine, behind [`Self::coverage`],
    /// [`Self::distances`] and the plan driver's fetch:
    /// `visit(local id, distance)` for every local node within `bound` of
    /// `term`, in the kernel's settle order, until it returns
    /// [`Control::Stop`], and the search's Theorem 5 accounting as a slot of
    /// radius `bound`.
    fn search(
        &self,
        ws: &mut DijkstraWorkspace,
        term: Term,
        bound: u64,
        visit: impl FnMut(u32, u64) -> Control,
    ) -> SlotCost {
        self.search_on(self, ws, term, bound, visit)
    }

    /// [`Self::search`] over `graph`, the engine or a view of it that only
    /// adds [`Graph::floor`]s: the nodes a nonzero floor refuses are neither
    /// settled nor visited.
    fn search_on(
        &self,
        graph: &impl Graph,
        ws: &mut DijkstraWorkspace,
        term: Term,
        bound: u64,
        visit: impl FnMut(u32, u64) -> Control,
    ) -> SlotCost {
        self.debug_assert_admitted(bound);
        let seeds = self.seed_sources(term, bound);
        let stats = ws.run(graph, seeds.iter(), bound, visit);
        // Every node settles once and, under a zero floor, none is refused:
        // what settled is the coverage at `bound`, unless `visit` stopped the
        // search.
        SlotCost {
            term,
            radius: bound,
            alpha: seeds.portals.len(),
            settled: stats.settled,
            pushed: stats.pushed,
            coverage_nodes: stats.settled,
            cached: false,
        }
    }

    /// Compute the local keyword coverage `R(term, radius) ∩ P` (Steps 1–3
    /// of Alg. 2 plus the coverage Dijkstra).
    ///
    /// The result is a pure function of the immutable engine, returned as an
    /// `Arc` so callers (and the cluster-layer coverage cache) can share it
    /// across queries without copying.
    pub fn coverage(
        &mut self,
        term: Term,
        radius: u64,
    ) -> Result<(Arc<BitSet>, QueryCost), QueryError> {
        let mut cov = BitSet::new(self.globals.len());
        // Split borrows: the search mutates `ws` while reading `self`'s CSR.
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let cost = self.search(&mut ws, term, radius, |n, _| {
            cov.insert(n as usize);
            Control::Continue
        });
        self.ws = ws;
        Ok((Arc::new(cov), cost.into()))
    }

    /// Whether the engine keeps keyword lists: on a bounded index, whose
    /// distances within `max_r` fit the lists' 32 bits. An unbounded
    /// engine's list would be the whole fragment.
    fn keeps_lists(&self) -> bool {
        self.max_r <= u64::from(u32::MAX)
    }

    /// Keyword `k`'s list, built by one search to `max_r` if this is the
    /// first time it is asked for, with that search's cost (a slot of radius
    /// `max_r`), or nothing searched when the list was already there.
    /// `None` when the engine keeps no lists or `k` has no seed here.
    fn keyword_list(
        &self,
        ws: &mut DijkstraWorkspace,
        k: KeywordId,
    ) -> Option<(&KeywordList, SlotCost)> {
        let reach = &self.keyword(k).filter(|_| self.keeps_lists())?.reach;
        let term = Term::Keyword(k);
        if let Some(list) = reach.get() {
            let unsearched = SlotCost {
                term,
                radius: self.max_r,
                alpha: 0,
                settled: 0,
                pushed: 0,
                coverage_nodes: list.nodes.len(),
                cached: false,
            };
            return Some((list, unsearched));
        }
        let mut settled = Vec::new();
        // Within `max_r`, so every distance fits (`keeps_lists`).
        let cost = self.search(ws, term, self.max_r, |n, d| {
            settled.push((d as u32, n));
            Control::Continue
        });
        let list = reach.get_or_init(|| KeywordList::new(settled, self.globals.len(), self.max_r));
        Some((list, cost))
    }

    /// Fetch a plan slot's coverage. A keyword slot on an engine that keeps
    /// lists is a prefix of the keyword's list — a search to `max_r` the
    /// first time, none after; any other slot searches to its radius
    /// (distances are exact up to `max_r` either way, Theorem 3).
    fn fetch_slot(&self, ws: &mut DijkstraWorkspace, slot: &DTerm) -> (BitSet, SlotCost) {
        let mut cov = BitSet::new(self.globals.len());
        let listed = match slot.term {
            Term::Keyword(k) => self.keyword_list(ws, k),
            Term::Node(_) => None,
        };
        let Some((list, cost)) = listed else {
            let cost = self.search(ws, slot.term, slot.radius, |n, _| {
                cov.insert(n as usize);
                Control::Continue
            });
            return (cov, cost);
        };
        let within = list.cut_into(slot.radius, &mut cov);
        (cov, SlotCost { radius: slot.radius, coverage_nodes: within, ..cost })
    }

    /// A `Term::Node` slot's coverage within `within.acc`, the accumulator
    /// it is about to be combined with: `R(l, r) ∩ acc`, searched only until
    /// every node of `acc` has settled, and only toward `acc`. Nodes outside
    /// `acc` settle (the search runs through them) but are not reported, so
    /// Theorem 5's `|P ∩ R|` is `|P ∩ R ∩ acc|` here; an `acc` node beyond
    /// `r` never settles, and then the search runs out. On an undirected
    /// engine each listed keyword conjunct in `within.inside` is a floor
    /// ([`TowardKeywords`]): a node that cannot reach `acc` within `r` is
    /// never pushed, and a location none of whose seeds can is ∅ with
    /// nothing settled.
    fn fetch_within(
        &self,
        ws: &mut DijkstraWorkspace,
        slot: &DTerm,
        within: Within<'_>,
    ) -> (BitSet, SlotCost) {
        let acc = within.acc;
        let listed = |inside: &DTerm| match inside.term {
            Term::Keyword(k) => Some((self.keyword(k)?.reach.get()?.floors(), inside.radius)),
            Term::Node(_) => None,
        };
        let bounds = within.inside.iter().filter(|_| self.undirected).filter_map(listed).collect();
        let toward = TowardKeywords { engine: self, bounds };
        let mut cov = BitSet::new(self.globals.len());
        let members = acc.count();
        let mut left = members;
        let cost = self.search_on(&toward, ws, slot.term, slot.radius, |n, _| {
            if !acc.contains(n as usize) {
                return Control::Continue;
            }
            cov.insert(n as usize);
            left -= 1;
            if left == 0 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        (cov, SlotCost { coverage_nodes: members - left, ..cost })
    }

    /// The ⋂ of the reach masks held for the keywords among `conjuncts`, in
    /// `scratch`: a superset of the conjuncts' ⋂ at any admissible radii.
    /// `None` when no conjunct has one — a `Term::Node`, a keyword not yet
    /// searched, an unbounded index.
    fn reach_ceiling<'c>(
        &self,
        conjuncts: &mut dyn Iterator<Item = &DTerm>,
        scratch: &'c mut BitSet,
    ) -> Option<&'c BitSet> {
        let mut masks = conjuncts.filter_map(|slot| match slot.term {
            Term::Keyword(k) => self.keyword(k)?.reach.get().map(|list| &list.mask),
            Term::Node(_) => None,
        });
        scratch.copy_from(masks.next()?);
        for mask in masks {
            if !scratch.intersect_with(mask) {
                break;
            }
        }
        Some(scratch)
    }

    /// The one distance reader, behind [`Self::distance_table`] and the rank
    /// pass: `visit(local id, d(node, term))` for local nodes within `bound`
    /// of `term` until it returns [`Control::Stop`], and the read's cost. A
    /// keyword's list prefix where the engine keeps lists, else a search.
    fn distances(
        &self,
        ws: &mut DijkstraWorkspace,
        term: Term,
        bound: u64,
        mut visit: impl FnMut(u32, u64) -> Control,
    ) -> SlotCost {
        let listed = match term {
            Term::Keyword(k) if bound <= self.max_r => self.keyword_list(ws, k),
            _ => None,
        };
        let Some((list, cost)) = listed else {
            return self.search(ws, term, bound, visit);
        };
        let within = list.nodes[..list.cut(bound)].iter().zip(&list.dists);
        let read = within.take_while(|&(&n, &d)| visit(n, u64::from(d)) == Control::Continue);
        SlotCost { radius: bound, coverage_nodes: read.count(), ..cost }
    }

    /// Local per-node distances for one term: `(local id, d(node, term))`
    /// for every local node within `bound` (the engine's one distance
    /// reader), in no particular order. Exact for `bound ≤ maxR` (Theorem 3).
    pub fn distance_table(
        &mut self,
        term: Term,
        bound: u64,
    ) -> Result<(Vec<(u32, u64)>, QueryCost), QueryError> {
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let mut table = Vec::new();
        let cost = self.distances(&mut ws, term, bound, |n, d| {
            table.push((n, d));
            Control::Continue
        });
        self.ws = ws;
        Ok((table, cost.into()))
    }

    /// A ranked plan's rank pass: the best `rank.k` by `(score, global id)`
    /// of `acc`, what its program left, scored by `rank.combine` over their
    /// distances to the keyword slots it names, each within reach of them
    /// all; a slot is read until every node has one, into `total`.
    fn rank(
        &self,
        ws: &mut DijkstraWorkspace,
        plan: &QueryPlan,
        rank: Rank,
        acc: &BitSet,
        total: &mut QueryCost,
    ) -> Vec<Ranked> {
        let members: Vec<u32> = acc.iter().map(|n| n as u32).collect();
        let mut scores = vec![0; members.len()];
        for slot in plan.named().filter(|_| !members.is_empty()) {
            let mut left = members.len();
            let cost = self.distances(ws, slot.term, slot.radius, |n, d| {
                // A bit test turns away the read's other nodes sooner than a search.
                if !acc.contains(n as usize) {
                    return Control::Continue;
                }
                let i = members.binary_search(&n).expect("a node of acc is a member");
                scores[i] = rank.combine.fold(scores[i], d);
                left -= 1;
                if left == 0 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            total.absorb(SlotCost { coverage_nodes: members.len() - left, ..cost });
        }
        let globals = members.iter().map(|&n| self.globals[n as usize]);
        let mut ranked: Vec<Ranked> = scores.into_iter().zip(globals).collect();
        ranked.sort_unstable();
        ranked.truncate(rank.k);
        ranked
    }

    /// Evaluate a D-function on this fragment (Alg. 2), returning the local
    /// result nodes as **global** ids (sorted) plus the cost breakdown.
    ///
    /// Convenience wrapper: lowers to a [`QueryPlan`] (deduplicating
    /// repeated terms) and runs [`Self::evaluate_plan`].
    pub fn evaluate(&mut self, f: &DFunction) -> Result<(Vec<NodeId>, QueryCost), QueryError> {
        self.evaluate_plan(&QueryPlan::lower(f))
    }

    /// Evaluate a normalized plan without a coverage store, the answer
    /// expanded to ids ([`Answer::to_vec`]).
    pub fn evaluate_plan(
        &mut self,
        plan: &QueryPlan,
    ) -> Result<(Vec<NodeId>, QueryCost), QueryError> {
        self.evaluate_plan_with_cache(plan, &mut NoCache).map(|(a, cost)| (a.to_vec(), cost))
    }

    /// Evaluate a normalized plan, consulting `store` for each coverage slot
    /// the plan's lazy driver asks for.
    ///
    /// This is the layered split of Alg. 2: a per-slot coverage stage (each
    /// fetched slot either served from `store` or computed — searched, or
    /// cut from a keyword list — and offered back) driven by
    /// [`QueryPlan::evaluate_lazy`], which stops asking once the local
    /// answer is known to be empty — from the coverages fetched so far, or
    /// beforehand from the reach masks of the plan's conjuncts. A
    /// `Term::Node` slot the driver fetches against its accumulator (named
    /// once, as a ∩ or − operand) is searched only until every accumulator
    /// node has settled, and reports only those nodes; that is not the
    /// slot's coverage, so `store` is neither asked for it nor offered it.
    /// Lemma 1 semantics are identical to [`Self::evaluate`]; a hit, a list
    /// cut, a bounded fetch or a skipped slot saves search, never changes
    /// the answer. The answer stays in the run-level form the wire and the
    /// coordinator's gather take; a ranked plan's is the rank pass over it.
    pub fn evaluate_plan_with_cache(
        &mut self,
        plan: &QueryPlan,
        store: &mut dyn CoverageStore,
    ) -> Result<(Answer, QueryCost), QueryError> {
        // Checked here as well as per search: a plan may never search.
        self.debug_assert_admitted(plan.max_radius());
        let start = std::time::Instant::now();
        let mut total = QueryCost { beta: self.sc_size, ..QueryCost::default() };
        // Split borrows: a search mutates `ws`, and the ceiling is built in
        // `scratch`, while the driver's closures read the engine. A panic
        // unwinding through the driver leaves the empty placeholders behind,
        // which grow on first use: `ws` in its next run, `scratch` as a
        // reach mask is copied into it.
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let mut scratch = std::mem::replace(&mut self.ceiling, BitSet::new(0));
        let (engine, ceiling) = (&*self, &mut scratch);
        let local = plan.evaluate_lazy(
            engine.globals.len(),
            |slot| engine.seed_count(slot.term, slot.radius),
            move |conjuncts| engine.reach_ceiling(conjuncts, ceiling),
            |index, within| {
                let slot = &plan.slots()[index as usize];
                // A bounded fetch is not the slot's coverage: the store
                // neither serves nor keeps it.
                if let (Term::Node(_), Some(within)) = (slot.term, within) {
                    let (cov, cost) = engine.fetch_within(&mut ws, slot, within);
                    total.absorb(cost);
                    return Ok(Arc::new(cov));
                }
                if let Some(hit) = store.lookup(index, slot) {
                    total.absorb(SlotCost {
                        term: slot.term,
                        radius: slot.radius,
                        alpha: 0,
                        settled: 0,
                        pushed: 0,
                        coverage_nodes: hit.count(),
                        cached: true,
                    });
                    return Ok(hit);
                }
                let (cov, cost) = engine.fetch_slot(&mut ws, slot);
                let cov = Arc::new(cov);
                store.store(index, slot, &cov);
                total.absorb(cost);
                Ok(cov)
            },
        );
        let answer = local.map(|local| match plan.rank() {
            None => Answer::Nodes(self.to_global(&local)),
            Some(rank) => Answer::Ranked(self.rank(&mut ws, plan, rank, &local, &mut total)),
        });
        (self.ws, self.ceiling) = (ws, scratch);
        let answer = answer?;
        total.results = match &answer {
            Answer::Nodes(runs) => runs.len(),
            Answer::Ranked(ranked) => ranked.len(),
        };
        total.elapsed = start.elapsed();
        Ok((answer, total))
    }

    /// Translate a local coverage bitset to global node ids, strictly
    /// ascending because `globals` is (checked in [`FragmentEngine::new`]),
    /// at a cost that follows the answer's runs, not its ids.
    pub fn to_global(&self, cov: &BitSet) -> NodeRuns {
        NodeRuns::from_bitset(cov, &self.globals, &self.breaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CentralizedCoverage;
    use crate::index::{build_all_indexes, IndexConfig};
    use crate::query::{RangeKeywordQuery, SgkQuery};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::graph::figure1_network;

    /// One engine per fragment of a `k`-way split of `net`.
    fn engines(net: &RoadNetwork, k: usize, cfg: &IndexConfig) -> Vec<FragmentEngine> {
        let p = MultilevelPartitioner::default().partition(net, k);
        build_all_indexes(net, &p, cfg)
            .iter()
            .map(|idx| FragmentEngine::new(net, &p, idx).unwrap())
            .collect()
    }

    /// Distributed evaluation = union of fragment evaluations (Lemma 1);
    /// compare against centralized ground truth (Theorem 3 end-to-end).
    fn assert_distributed_matches_centralized(
        net: &RoadNetwork,
        k: usize,
        cfg: &IndexConfig,
        f: &DFunction,
    ) {
        let mut distributed: Vec<NodeId> = Vec::new();
        for mut engine in engines(net, k, cfg) {
            let (local, _) = engine.evaluate(f).unwrap();
            distributed.extend(local);
        }
        distributed.sort_unstable();
        let mut central = CentralizedCoverage::new(net);
        let expect = central.evaluate(f).unwrap();
        assert_eq!(distributed, expect, "query {f}");
    }

    #[test]
    fn figure1_sgkq_distributed_matches_example1() {
        let (net, names) = figure1_network();
        let museum = net.vocab().get("museum").unwrap();
        let school = net.vocab().get("school").unwrap();
        let f = SgkQuery::new(vec![museum, school], 3).to_dfunction();
        assert_distributed_matches_centralized(&net, 2, &IndexConfig::unbounded(), &f);
        let _ = names;
    }

    #[test]
    fn generated_network_sgkq_matches_centralized_for_all_radii() {
        let net = GridNetworkConfig::tiny(42).generate();
        let freqs = net.keyword_frequencies();
        // Pick the two most frequent keywords so coverages are non-trivial.
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let k1 = KeywordId(ranked[0] as u32);
        let k2 = KeywordId(ranked[1] as u32);
        let e = net.avg_edge_weight();
        for r in [0, e, 3 * e, 10 * e] {
            let f = SgkQuery::new(vec![k1, k2], r).to_dfunction();
            assert_distributed_matches_centralized(&net, 3, &IndexConfig::unbounded(), &f);
        }
    }

    #[test]
    fn rkq_distributed_matches_centralized() {
        let net = GridNetworkConfig::tiny(43).generate();
        // Query location: some object node; keyword: its first keyword →
        // non-empty result guaranteed (the node itself at distance 0).
        let obj = net.node_ids().find(|&n| net.is_object(n)).unwrap();
        let kw = net.keywords(obj)[0];
        let f = RangeKeywordQuery::new(obj, vec![kw], 5 * net.avg_edge_weight()).to_dfunction();
        assert_distributed_matches_centralized(&net, 3, &IndexConfig::unbounded(), &f);
    }

    #[test]
    fn bounded_max_r_still_exact_within_bound() {
        let net = GridNetworkConfig::tiny(44).generate();
        let e = net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(8 * e);
        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        for r in [e, 4 * e, 8 * e] {
            let f = DFunction::single(Term::Keyword(top), r);
            assert_distributed_matches_centralized(&net, 4, &cfg, &f);
        }
    }

    /// Radius validation moved to coordinator admission; the engine keeps a
    /// debug assert as the last-line guard.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds index maxR")]
    fn radius_above_max_r_trips_debug_guard() {
        let net = GridNetworkConfig::tiny(45).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let cfg = IndexConfig::with_max_r(net.avg_edge_weight());
        let indexes = build_all_indexes(&net, &p, &cfg);
        let mut engine = FragmentEngine::new(&net, &p, &indexes[0]).unwrap();
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 100 * net.avg_edge_weight());
        let _ = engine.evaluate(&f);
    }

    /// A caching store changes the work (slots marked cached, zero settled)
    /// but never the answer.
    #[test]
    fn plan_evaluation_with_store_matches_uncached() {
        use crate::plan::QueryPlan;
        use std::collections::HashMap as Map;
        use std::sync::Arc;

        struct MapStore(Map<(Term, u64), Arc<crate::bitset::BitSet>>);
        impl crate::engine::CoverageStore for MapStore {
            fn lookup(&mut self, _: u32, slot: &DTerm) -> Option<Arc<BitSet>> {
                self.0.get(&(slot.term, slot.radius)).cloned()
            }
            fn store(&mut self, _: u32, slot: &DTerm, cov: &Arc<BitSet>) {
                self.0.insert((slot.term, slot.radius), cov.clone());
            }
        }

        let net = GridNetworkConfig::tiny(49).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let mut engine = FragmentEngine::new(&net, &p, &indexes[0]).unwrap();
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let e = net.avg_edge_weight();
        let f =
            SgkQuery::new(vec![KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32)], 4 * e)
                .to_dfunction();
        let plan = QueryPlan::lower(&f);

        let (expect, cold_cost) = engine.evaluate_plan(&plan).unwrap();
        assert!(cold_cost.per_slot.iter().all(|s| !s.cached));

        let mut store = MapStore(Map::new());
        let (first, _) = engine.evaluate_plan_with_cache(&plan, &mut store).unwrap();
        let (second, warm_cost) = engine.evaluate_plan_with_cache(&plan, &mut store).unwrap();
        assert_eq!(first.to_vec(), expect);
        assert_eq!(second.to_vec(), expect);
        assert!(warm_cost.per_slot.iter().all(|s| s.cached && s.settled == 0));
        assert_eq!(warm_cost.settled, 0);
        assert_eq!(warm_cost.coverage_nodes, cold_cost.coverage_nodes);
    }

    /// A panic that unwinds through an evaluation, as the worker's
    /// `catch_unwind` catches it, leaves the engine answering: the next
    /// evaluation that builds a reach ceiling gets the same answer as
    /// before the panic.
    #[test]
    fn a_caught_panic_leaves_the_engine_answering() {
        use crate::plan::QueryPlan;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        struct Panicking;
        impl CoverageStore for Panicking {
            fn lookup(&mut self, _: u32, _: &DTerm) -> Option<Arc<BitSet>> {
                panic!("a store that fails mid-evaluation")
            }
            fn store(&mut self, _: u32, _: &DTerm, _: &Arc<BitSet>) {}
        }

        let net = GridNetworkConfig::tiny(49).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let e = net.avg_edge_weight();
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(8 * e));
        let mut engine = FragmentEngine::new(&net, &p, &indexes[0]).unwrap();
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let kws = vec![KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32)];
        let plan = QueryPlan::lower(&SgkQuery::new(kws, 4 * e).to_dfunction());
        // The first evaluation leaves both keywords' lists, so later ones
        // build a reach ceiling before their first fetch.
        let (expect, _) = engine.evaluate_plan(&plan).unwrap();
        assert_eq!(lists_built(&engine), 2);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.evaluate_plan_with_cache(&plan, &mut Panicking)
        }));
        assert!(unwound.is_err(), "the store's panic unwinds through the evaluation");
        assert_eq!(engine.evaluate_plan(&plan).unwrap().0, expect);
    }

    fn lists_built(engine: &FragmentEngine) -> usize {
        engine.kw_entries.iter().filter(|e| e.reach.get().is_some()).count()
    }

    /// On a bounded index a keyword's first fetch on a fragment searches to
    /// `maxR` and leaves its list behind; every later one, at any radius, is
    /// a cut of the list and settles nothing. The lists' masks cap SGKQs, an
    /// RKQ, a `−` tail and a `∪` prefix alike, at every radius up to `maxR`
    /// itself, and the answers stay the oracle's — on the pass that builds
    /// the lists and on the passes that cut them. The RKQ's `Term::Node`
    /// slot is searched after its keyword, against what the keyword left:
    /// it settles no more than the plain search to its radius, and reports
    /// `|R(l, r) ∩ R(kw, 0)|` nodes.
    #[test]
    fn a_keyword_is_searched_once_a_fragment_and_never_changes_the_answer() {
        use crate::dfunc::SetOp::{Intersect, Subtract, Union};
        let net = GridNetworkConfig::tiny(0x4D).generate();
        let e = net.avg_edge_weight();
        let max_r = 8 * e;
        let mut engines = engines(&net, 3, &IndexConfig::with_max_r(max_r));
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let kw = |i: usize| Term::Keyword(KeywordId(ranked[i] as u32));
        let rare = |i: usize| kw(ranked.len() - 1 - i);
        let obj = net.node_ids().find(|&n| net.is_object(n)).unwrap();
        let queries = |r: u64| {
            vec![
                SgkQuery::new(vec![KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32)], r)
                    .to_dfunction(),
                DFunction::single(rare(0), r).then(Intersect, rare(1), r).then(Intersect, kw(2), r),
                RangeKeywordQuery::new(obj, vec![net.keywords(obj)[0]], r).to_dfunction(),
                DFunction::single(kw(0), r).then(Intersect, rare(2), r).then(
                    Subtract,
                    kw(1),
                    r / 2,
                ),
                DFunction::single(rare(0), r).then(Union, kw(3), r / 2).then(Intersect, rare(1), r),
            ]
        };
        let mut central = CentralizedCoverage::new(&net);
        let mut searched = std::collections::HashSet::new();
        let (mut widened, mut cut, mut nodes, mut stopped) = (0, 0, 0, 0);
        for pass in 0..3 {
            for r in [0, e, 4 * e, max_r] {
                for f in queries(r) {
                    let mut got: Vec<NodeId> = Vec::new();
                    for engine in &mut engines {
                        let (local, cost) = engine.evaluate(&f).unwrap();
                        got.extend(local);
                        for slot in &cost.per_slot {
                            assert!(!slot.cached, "{f}: {slot:?}");
                            if matches!(slot.term, Term::Node(_)) {
                                let (plain, full) =
                                    engine.coverage(slot.term, slot.radius).unwrap();
                                assert!(slot.settled <= full.settled, "{f}: {slot:?}");
                                let mut within = (*plain).clone();
                                let kw = Term::Keyword(net.keywords(obj)[0]);
                                within.intersect_with(&engine.coverage(kw, 0).unwrap().0);
                                assert_eq!(slot.coverage_nodes, within.count(), "{f}: {slot:?}");
                                stopped += usize::from(slot.settled < full.settled);
                                nodes += 1;
                            } else if searched.insert((engine.fragment(), slot.term)) {
                                assert!(slot.settled >= slot.coverage_nodes, "{f}: {slot:?}");
                                widened += usize::from(slot.settled > slot.coverage_nodes);
                            } else {
                                let work = (slot.settled, slot.pushed, slot.alpha);
                                assert_eq!(work, (0, 0, 0), "{f}: {slot:?}");
                                cut += usize::from(slot.coverage_nodes > 0);
                            }
                        }
                    }
                    got.sort_unstable();
                    assert_eq!(got, central.evaluate(&f).unwrap(), "pass {pass}: {f}");
                }
            }
        }
        assert!(widened > 0, "no first search reached past its radius");
        assert!(cut > 0 && nodes > 0, "{cut} non-empty cuts, {nodes} node slots");
        assert!(stopped > 0, "no node slot of {nodes} stopped short of its radius");
        let built: usize = engines.iter().map(lists_built).sum();
        assert!(built > 0 && built <= searched.len(), "{built} lists, {} searched", searched.len());
    }

    /// An RKQ from an object whose keyword no other node of its fragment
    /// bears: there the keyword's `R(kw, 0)` is the location alone, and the
    /// location's search stops as soon as it has settled its own source.
    /// The evaluation leaves the keyword's list, mask and floors, counted
    /// in `memory_bytes` to the byte.
    #[test]
    fn a_location_that_alone_bears_its_keyword_settles_one_node() {
        let net = GridNetworkConfig::tiny(0x4D).generate();
        let max_r = 8 * net.avg_edge_weight();
        let mut engines = engines(&net, 3, &IndexConfig::with_max_r(max_r));
        let (engine, obj, kw) = net
            .node_ids()
            .filter(|&n| net.is_object(n))
            .find_map(|obj| {
                let engine = engines.iter().position(|e| local_id(&e.globals, obj).is_some())?;
                let kw = *net
                    .keywords(obj)
                    .iter()
                    .find(|&&k| engines[engine].seed_count(Term::Keyword(k), 0) == 1)?;
                Some((engine, obj, kw))
            })
            .expect("an object that alone bears one of its keywords on its fragment");
        let engine = &mut engines[engine];
        let fresh = engine.memory_bytes();
        let f = RangeKeywordQuery::new(obj, vec![kw], max_r).to_dfunction();
        let (local, cost) = engine.evaluate(&f).unwrap();
        assert_eq!(local, vec![obj]);
        // The keyword's list and mask, and the floors the location's search
        // steered by: one byte a fragment node.
        let listed = engine.coverage(Term::Keyword(kw), max_r).unwrap().0.count();
        let n = engine.num_local_nodes();
        let built = 8 * listed + BitSet::new(n).memory_bytes() + n;
        assert_eq!(engine.memory_bytes(), fresh + built);
        let node = cost.per_slot.iter().find(|s| s.term == Term::Node(obj)).unwrap();
        assert_eq!((node.settled, node.coverage_nodes), (1, 1), "{f}: {node:?}");
        let (_, full) = engine.coverage(Term::Node(obj), max_r).unwrap();
        assert!(full.settled > 1, "the plain search settles all within {max_r}");
    }

    /// Two keywords a fragment is seeded for whose reach masks do not meet:
    /// the first conjunction searches both and builds their lists and masks,
    /// counted in `memory_bytes` to the byte (8 B a listed node beside the
    /// mask); the second, at another radius, is answered ∅ with nothing
    /// fetched. An unbounded engine keeps no list — it would be the whole
    /// fragment — and searches both times.
    #[test]
    fn reaches_that_do_not_meet_answer_before_any_fetch() {
        let net = GridNetworkConfig::tiny(0x4E).generate();
        let e = net.avg_edge_weight();
        let max_r = 2 * e;
        let vocab = net.keyword_frequencies().len() as u32;
        let disjoint_pair = |engine: &mut FragmentEngine| {
            let reach: Vec<(Term, Arc<BitSet>)> = (0..vocab)
                .map(|k| Term::Keyword(KeywordId(k)))
                .filter_map(|t| {
                    let seeded = engine.seed_count(t, e) > 0;
                    seeded.then(|| (t, engine.coverage(t, max_r).unwrap().0))
                })
                .collect();
            reach.iter().enumerate().find_map(|(i, (a, ra))| {
                reach[i + 1..].iter().find(|(_, rb)| !ra.intersects(rb)).map(|(b, _)| (*a, *b))
            })
        };
        let (index, (a, b)) = engines(&net, 4, &IndexConfig::with_max_r(max_r))
            .iter_mut()
            .enumerate()
            .find_map(|(i, engine)| Some((i, disjoint_pair(engine)?)))
            .expect("a fragment with two seeded keywords out of each other's reach");
        let conjunction =
            |r: u64| DFunction::single(a, r).then(crate::dfunc::SetOp::Intersect, b, r);

        let mut bounded = engines(&net, 4, &IndexConfig::with_max_r(max_r)).swap_remove(index);
        let fresh = bounded.memory_bytes();
        let mask_bytes = BitSet::new(bounded.num_local_nodes()).memory_bytes();
        let listed: usize =
            [a, b].map(|t| bounded.coverage(t, max_r).unwrap().0.count()).iter().sum();
        assert_eq!(bounded.memory_bytes(), fresh, "a plain coverage keeps nothing");
        let (nodes, cost) = bounded.evaluate(&conjunction(e)).unwrap();
        assert!(nodes.is_empty());
        assert_eq!(cost.per_slot.len(), 2, "nothing is known before the first searches");
        assert_eq!(lists_built(&bounded), 2);
        assert_eq!(bounded.memory_bytes(), fresh + 8 * listed + 2 * mask_bytes);
        let (nodes, cost) = bounded.evaluate(&conjunction(max_r)).unwrap();
        assert!(nodes.is_empty());
        assert!(cost.per_slot.is_empty(), "fetched for a known ∅: {:?}", cost.per_slot);
        assert_eq!((cost.settled, cost.alpha), (0, 0));
        assert_eq!(bounded.memory_bytes(), fresh + 8 * listed + 2 * mask_bytes);

        let mut unbounded = engines(&net, 4, &IndexConfig::unbounded()).swap_remove(index);
        let fresh = unbounded.memory_bytes();
        for r in [e, max_r] {
            let (nodes, cost) = unbounded.evaluate(&conjunction(r)).unwrap();
            assert!(nodes.is_empty());
            assert_eq!(cost.per_slot.len(), 2);
            assert!(cost.per_slot.iter().all(|s| s.settled == s.coverage_nodes));
        }
        assert_eq!(lists_built(&unbounded), 0);
        assert_eq!(unbounded.memory_bytes(), fresh);
    }

    /// A network, its 3-way split and the bounded indexes (`maxR` = 8 ē) of
    /// the split, built once for every case of the property below: `tiny`,
    /// and `tiny` with unit weights (Dial-width buckets).
    fn list_fixture(unit: bool) -> &'static (RoadNetwork, Partitioning, Vec<NpdIndex>) {
        static FIXTURES: OnceLock<[(RoadNetwork, Partitioning, Vec<NpdIndex>); 2]> =
            OnceLock::new();
        let build = |base_weight| {
            let net = GridNetworkConfig { base_weight, ..GridNetworkConfig::tiny(0x4F) }.generate();
            let p = MultilevelPartitioner::default().partition(&net, 3);
            let cfg = IndexConfig::with_max_r(8 * net.avg_edge_weight());
            let indexes = build_all_indexes(&net, &p, &cfg);
            (net, p, indexes)
        };
        let tiny = GridNetworkConfig::tiny(0x4F).base_weight;
        &FIXTURES.get_or_init(|| [build(tiny), build(1)])[usize::from(unit)]
    }

    use proptest::prelude::any;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any keyword of any fragment, its list built at any radius, then
        /// cut at any `r ∈ 0..=maxR` — a listed distance, one short of one,
        /// or anything: the cut settles nothing and is the plain
        /// `r`-bounded search's coverage, the oracle's coverage restricted
        /// to the fragment, and with its distances the search's table.
        #[test]
        fn a_list_cut_is_the_coverage_at_any_radius(
            (unit, fragment, mode) in (any::<bool>(), 0usize..3, 0u8..3),
            (keyword, listed) in (any::<u64>(), any::<u64>()),
            (first_r, any_r) in (any::<u64>(), any::<u64>()),
        ) {
            let (net, p, indexes) = list_fixture(unit);
            let mut engine = FragmentEngine::new(net, p, &indexes[fragment]).unwrap();
            let max_r = engine.max_r();
            let k = engine.kw_ids[keyword as usize % engine.kw_ids.len()];
            let term = Term::Keyword(k);
            let mut ws = DijkstraWorkspace::new(engine.num_local_nodes());
            let (_, built) =
                engine.fetch_slot(&mut ws, &DTerm { term, radius: first_r % (max_r + 1) });
            proptest::prop_assert!(built.settled > 0, "a keyword with a seed settles it");
            let dists = &engine.keyword(k).unwrap().reach.get().unwrap().dists;
            let listed = u64::from(dists[listed as usize % dists.len()]);
            let r = match mode {
                0 => listed,
                1 => listed.saturating_sub(1),
                _ => any_r % (max_r + 1),
            };

            let (cut, cost) = engine.fetch_slot(&mut ws, &DTerm { term, radius: r });
            proptest::prop_assert_eq!((cost.settled, cost.pushed, cost.alpha), (0, 0, 0));
            proptest::prop_assert_eq!(cost.coverage_nodes, cut.count());
            let (plain, plain_cost) = engine.coverage(term, r).unwrap();
            proptest::prop_assert_eq!(&cut, &*plain, "r = {}", r);
            proptest::prop_assert_eq!(plain_cost.settled, cut.count());
            let members = p.nodes(engine.fragment());
            let oracle: Vec<NodeId> = CentralizedCoverage::new(net)
                .coverage(term, r)
                .iter()
                .map(|i| NodeId(i as u32))
                .filter(|n| members.binary_search(n).is_ok())
                .collect();
            proptest::prop_assert_eq!(engine.to_global(&cut).to_vec(), oracle);

            let (mut table, cost) = engine.distance_table(term, r).unwrap();
            proptest::prop_assert_eq!(cost.settled, 0);
            let mut searched = Vec::new();
            engine.search(&mut ws, term, r, |n, d| {
                searched.push((n, d));
                Control::Continue
            });
            table.sort_unstable();
            searched.sort_unstable();
            proptest::prop_assert_eq!(table, searched);
        }
    }

    /// A D-function over a list fixture's network from drawn operands
    /// `(operator, kind, pick, radius)`: ∪, ∩ (twice as likely) or −; a
    /// keyword of the vocabulary, or — one kind in five — an object as the
    /// location (the fixture's DL covers objects only); a radius anywhere
    /// in `0..=max_r`, half the time below two edges, where seeds are scarce.
    fn drawn_dfunction(
        net: &RoadNetwork,
        max_r: u64,
        operands: &[(u8, u8, u64, u64)],
    ) -> DFunction {
        use crate::dfunc::SetOp;
        let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
        let term = |&(_, kind, pick, radius): &(u8, u8, u64, u64)| {
            let term = if kind == 0 {
                Term::Node(objects[pick as usize % objects.len()])
            } else {
                Term::Keyword(KeywordId((pick % net.vocab().len() as u64) as u32))
            };
            let r = match radius % 2 {
                0 => radius / 2 % (2 * net.avg_edge_weight()),
                _ => radius / 2 % (max_r + 1),
            };
            (term, r)
        };
        let (first, r) = term(&operands[0]);
        operands[1..].iter().fold(DFunction::single(first, r), |f, operand| {
            let op = match operand.0 % 4 {
                0 => SetOp::Union,
                1 => SetOp::Subtract,
                _ => SetOp::Intersect,
            };
            let (t, r) = term(operand);
            f.then(op, t, r)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The coordinator's prune is the worker's own ∅ exit: on every
        /// fragment of a list fixture, a random plan the seed floors prune
        /// is answered ∅ with no slot fetched, and a plan answered ∅ with no
        /// slot fetched is one they prune, whether the seedless conjunct is
        /// a keyword or a location. Each plan runs on a fresh engine: no
        /// reach mask cuts it short before a fetch.
        #[test]
        fn a_pruned_pair_is_one_the_worker_answers_empty_without_fetching(
            unit in any::<bool>(),
            operands in proptest::collection::vec(
                (any::<u8>(), 0u8..5, any::<u64>(), any::<u64>()),
                1..6,
            ),
        ) {
            let (net, p, indexes) = list_fixture(unit);
            let floors = crate::floors::SeedFloors::new(net, p, indexes);
            let f = drawn_dfunction(net, indexes[0].max_r(), &operands);
            let plan = QueryPlan::lower(&f);
            for index in indexes {
                let mut engine = FragmentEngine::new(net, p, index).unwrap();
                let pruned = !floors.can_answer(&plan, index.fragment());
                let (answer, cost) = engine.evaluate_plan_with_cache(&plan, &mut NoCache).unwrap();
                let empty_unfetched = answer.to_vec().is_empty() && cost.per_slot.is_empty();
                proptest::prop_assert_eq!(empty_unfetched, pruned, "{} on {:?}", plan, index.fragment());
            }
        }

        /// The answers of the fragments the seed floors leave a random
        /// plan, unioned, are the oracle's answer (Lemma 1 over the targets
        /// alone).
        #[test]
        fn the_targets_answers_union_to_the_oracles(
            unit in any::<bool>(),
            operands in proptest::collection::vec(
                (any::<u8>(), 0u8..5, any::<u64>(), any::<u64>()),
                1..6,
            ),
        ) {
            let (net, p, indexes) = list_fixture(unit);
            let floors = crate::floors::SeedFloors::new(net, p, indexes);
            let f = drawn_dfunction(net, indexes[0].max_r(), &operands);
            let plan = QueryPlan::lower(&f);
            let mut union: Vec<NodeId> = Vec::new();
            for index in indexes.iter().filter(|index| floors.can_answer(&plan, index.fragment())) {
                let mut engine = FragmentEngine::new(net, p, index).unwrap();
                union.extend(engine.evaluate_plan(&plan).unwrap().0);
            }
            union.sort_unstable();
            proptest::prop_assert_eq!(union, CentralizedCoverage::new(net).evaluate(&f).unwrap(), "{}", plan);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A location's search steered by the floors of the keyword
        /// conjuncts its accumulator lies within never changes an answer
        /// and settles no more than the plain search to its radius: RKQs
        /// from any object with one of its own keywords or any keyword at
        /// any radius, the keyword's too, and random plans with node
        /// conjuncts, subtrahends and ∪ prefixes, on every fragment of both
        /// list fixtures, answered as the oracle answers them.
        #[test]
        fn a_floored_location_search_keeps_the_answer_and_settles_no_more(
            unit in any::<bool>(),
            (object, keyword, own) in (any::<u64>(), any::<u64>(), any::<bool>()),
            (r, r_kw) in (any::<u64>(), any::<u64>()),
            operands in proptest::collection::vec(
                (any::<u8>(), 0u8..5, any::<u64>(), any::<u64>()),
                1..6,
            ),
        ) {
            let (net, p, indexes) = list_fixture(unit);
            let max_r = indexes[0].max_r();
            let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
            let l = objects[object as usize % objects.len()];
            let kw = if own {
                net.keywords(l)[keyword as usize % net.keywords(l).len()]
            } else {
                KeywordId((keyword % net.vocab().len() as u64) as u32)
            };
            let (r, r_kw) = (r % (max_r + 1), r_kw % (max_r + 1));
            let rkq = RangeKeywordQuery::new(l, vec![kw], r).to_dfunction();
            let widened = DFunction::single(Term::Node(l), r).then(
                crate::dfunc::SetOp::Intersect,
                Term::Keyword(kw),
                r_kw,
            );
            let mut engines: Vec<FragmentEngine> =
                indexes.iter().map(|index| FragmentEngine::new(net, p, index).unwrap()).collect();
            let mut central = CentralizedCoverage::new(net);
            for f in [rkq, widened, drawn_dfunction(net, max_r, &operands)] {
                let mut got: Vec<NodeId> = Vec::new();
                for engine in &mut engines {
                    let (local, cost) = engine.evaluate(&f).unwrap();
                    got.extend(local);
                    for slot in cost.per_slot.iter().filter(|s| matches!(s.term, Term::Node(_))) {
                        let (_, plain) = engine.coverage(slot.term, slot.radius).unwrap();
                        proptest::prop_assert!(slot.settled <= plain.settled, "{}: {:?}", f, slot);
                    }
                }
                got.sort_unstable();
                proptest::prop_assert_eq!(got, central.evaluate(&f).unwrap(), "{}", f);
            }
        }
    }

    /// A location outside a fragment whose DL seeds are all farther from
    /// the keyword's bearers there than the radius allows: the RKQ's
    /// keyword cut is not empty, so the location is searched, and the floor
    /// refuses every seed — nothing settles, where the plain search to the
    /// same radius settles nodes, and the answer is the oracle's: nothing
    /// on that fragment.
    #[test]
    fn a_location_whose_seeds_the_floor_refuses_settles_nothing() {
        let net = GridNetworkConfig::tiny(0x4D).generate();
        let e = net.avg_edge_weight();
        let mut engines = engines(&net, 3, &IndexConfig::with_max_r(8 * e));
        let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
        let refused = |engine: &mut FragmentEngine| {
            let borne: Vec<KeywordId> = (engine.kw_ids.iter().zip(&engine.kw_entries))
                .filter(|(_, entry)| !entry.locals.is_empty())
                .map(|(&k, _)| k)
                .collect();
            let outside = objects.iter().filter(|&&l| local_id(&engine.globals, l).is_none());
            let rkqs: Vec<RangeKeywordQuery> = outside
                .flat_map(|&l| borne.iter().map(move |&kw| (l, kw)))
                .flat_map(|(l, kw)| {
                    [e, 2 * e, 4 * e].map(|r| RangeKeywordQuery::new(l, vec![kw], r))
                })
                .filter(|q| engine.seed_count(Term::Node(q.location), q.radius) > 0)
                .collect();
            rkqs.into_iter().find_map(|q| {
                let (local, cost) = engine.evaluate(&q.to_dfunction()).unwrap();
                let node = *cost.per_slot.iter().find(|s| s.term == Term::Node(q.location))?;
                (node.settled == 0).then_some((q, local, node))
            })
        };
        let (engine, (q, local, node)) = engines
            .iter_mut()
            .find_map(|engine| refused(engine).map(|hit| (engine, hit)))
            .expect("a location every seed of which the floor refuses");
        assert_eq!((node.pushed, node.coverage_nodes), (0, 0), "{node:?}");
        assert!(local.is_empty());
        let members = &engine.globals;
        let oracle = CentralizedCoverage::new(&net).evaluate(&q.to_dfunction()).unwrap();
        assert!(oracle.iter().all(|n| members.binary_search(n).is_err()), "{oracle:?}");
        let (_, plain) = engine.coverage(Term::Node(q.location), q.radius).unwrap();
        assert!(plain.settled > 0, "the plain search settles its seeds");
    }

    /// Top-k reads the lists plans read: the first evaluation of a top-k's
    /// ranked plan on each fragment searches each keyword once, the second
    /// searches nothing, both merge to the oracle's ranking, and a plan over
    /// the same keywords afterwards searches nothing either.
    #[test]
    fn topk_reads_the_keyword_lists() {
        use crate::topk::{centralized_topk, merge_topk, ScoreCombine, TopKQuery};
        let net = GridNetworkConfig::tiny(0x51).generate();
        let e = net.avg_edge_weight();
        let mut engines = engines(&net, 3, &IndexConfig::with_max_r(6 * e));
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let keywords = vec![KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32)];
        let q = TopKQuery::new(keywords.clone(), 10, 4 * e, ScoreCombine::Sum);
        let plan = QueryPlan::topk(&q).unwrap();
        let expect = centralized_topk(&net, &q).unwrap();
        assert!(!expect.is_empty());
        let mut settled = [0; 2];
        for pass in &mut settled {
            let mut lists = Vec::new();
            for engine in &mut engines {
                let (answer, cost) = engine.evaluate_plan_with_cache(&plan, &mut NoCache).unwrap();
                assert!(cost.per_slot.iter().all(|s| !s.cached));
                *pass += cost.settled;
                let Answer::Ranked(local) = answer else { panic!("{answer:?}") };
                lists.push(local);
            }
            assert_eq!(merge_topk(lists, q.k), expect);
        }
        assert!(settled[0] > 0 && settled[1] == 0, "settled {settled:?}, first call then second");
        let f = SgkQuery::new(keywords, 5 * e).to_dfunction();
        for engine in &mut engines {
            assert_eq!(engine.evaluate(&f).unwrap().1.settled, 0);
        }
    }

    #[test]
    fn subtraction_and_union_dfunctions_match() {
        let net = GridNetworkConfig::tiny(46).generate();
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        let (a, b, c) =
            (KeywordId(ranked[0] as u32), KeywordId(ranked[1] as u32), KeywordId(ranked[2] as u32));
        let e = net.avg_edge_weight();
        // (R(a, 4e) − R(b, 2e)) ∪ R(c, 3e)
        let f = DFunction::single(Term::Keyword(a), 4 * e)
            .then(crate::dfunc::SetOp::Subtract, Term::Keyword(b), 2 * e)
            .then(crate::dfunc::SetOp::Union, Term::Keyword(c), 3 * e);
        assert_distributed_matches_centralized(&net, 3, &IndexConfig::unbounded(), &f);
    }

    #[test]
    fn cost_model_reports_theorem5_quantities() {
        let net = GridNetworkConfig::tiny(47).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let mut engine = FragmentEngine::new(&net, &p, &indexes[1]).unwrap();
        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        let f = DFunction::single(Term::Keyword(top), 6 * net.avg_edge_weight());
        let (_, cost) = engine.evaluate(&f).unwrap();
        assert_eq!(cost.beta, indexes[1].shortcuts().len());
        assert!(cost.settled > 0);
        assert!(cost.coverage_nodes >= cost.results);
    }

    #[test]
    fn engine_is_self_contained_after_construction() {
        // The engine must answer queries correctly even after the global
        // network and index are dropped (share-nothing property).
        let net = GridNetworkConfig::tiny(48).generate();
        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        let e = net.avg_edge_weight();
        let f = DFunction::single(Term::Keyword(top), 4 * e);
        let mut central = CentralizedCoverage::new(&net);
        let expect = central.evaluate(&f).unwrap();

        let p = MultilevelPartitioner::default().partition(&net, 2);
        let mut engines: Vec<FragmentEngine> = {
            let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
            indexes.iter().map(|i| FragmentEngine::new(&net, &p, i).unwrap()).collect()
        }; // indexes dropped here
        let mut got: Vec<NodeId> = Vec::new();
        for engine in &mut engines {
            got.extend(engine.evaluate(&f).unwrap().0);
        }
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
