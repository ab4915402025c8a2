//! The per-fragment query engine — Algorithm 2.
//!
//! A [`FragmentEngine`] is the state one machine keeps for its fragment `P`:
//!
//! * the *extended fragment* `P' = P ∪ SC(P)` as a local CSR graph (Step 1),
//! * the DL component for seeding cross-fragment distances (Steps 2–3),
//! * a local inverted keyword index (sources of the virtual keyword nodes).
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

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::dijkstra::{Control, Graph};
use disks_roadnet::{DijkstraWorkspace, KeywordId, NodeId, RoadNetwork, Weight};

use crate::bitset::BitSet;
use crate::dfunc::{DFunction, DTerm, Term};
use crate::error::{IndexError, QueryError};
use crate::index::{DlScope, NpdIndex};
use crate::plan::QueryPlan;
use crate::runs::NodeRuns;

/// Local sentinel for "not reached this term" in the top-k scorer.
const INF_LOCAL: u64 = u64::MAX;

/// Theorem 5 cost attribution for one coverage slot (one `R(term, r) ∩ P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotCost {
    pub term: Term,
    pub radius: u64,
    /// αⱼ — DL pairs inspected for this slot.
    pub alpha: usize,
    /// Nodes settled by this slot's coverage search (0 on a cache hit).
    pub settled: usize,
    /// Heap pushes by this slot's coverage search (0 on a cache hit).
    pub pushed: usize,
    /// `|P ∩ R(term, r)|`.
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
    /// Nodes settled across the coverage searches.
    pub settled: usize,
    /// Heap pushes across the coverage searches.
    pub pushed: usize,
    /// Σ |P ∩ R(ωⱼ, r)| — total coverage sizes.
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
    fn absorb(&mut self, other: &QueryCost) {
        self.alpha += other.alpha;
        self.settled += other.settled;
        self.pushed += other.pushed;
        self.coverage_nodes += other.coverage_nodes;
        self.per_slot.extend_from_slice(&other.per_slot);
    }
}

/// A pluggable coverage store consulted per plan slot — the seam between the
/// pure per-term coverage stage and the cluster layer's per-worker cache.
///
/// Implementations must be transparent: `lookup` may only return a value
/// previously passed to `store` for the *same* slot on the *same* engine
/// (coverage is a pure function of the immutable engine, so a stored value
/// never goes stale while the engine lives).
pub trait CoverageStore {
    /// A previously stored coverage for `slot`, if any.
    fn lookup(&mut self, slot: &DTerm) -> Option<Arc<BitSet>>;
    /// Offer a freshly computed coverage for `slot`.
    fn store(&mut self, slot: &DTerm, coverage: &Arc<BitSet>);
}

/// The no-op [`CoverageStore`]: every lookup misses, stores are dropped.
pub struct NoCache;

impl CoverageStore for NoCache {
    fn lookup(&mut self, _slot: &DTerm) -> Option<Arc<BitSet>> {
        None
    }
    fn store(&mut self, _slot: &DTerm, _coverage: &Arc<BitSet>) {}
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
    /// Local CSR over `P ∪ SC(P)` (both arcs for every undirected edge),
    /// `(neighbor, weight)` interleaved: a relaxation reads both.
    adj_offsets: Vec<u32>,
    adj: Vec<(u32, Weight)>,
    /// Lightest arc of `adj`, shortcuts included.
    min_arc_weight: Weight,
    /// Local inverted index: keyword → local node ids containing it.
    kw_nodes: HashMap<KeywordId, Vec<u32>>,
    /// §3.7 aggregation with portals translated to local ids:
    /// keyword → (local portal, distance), sorted by distance.
    keyword_portals: HashMap<KeywordId, Vec<(u32, u64)>>,
    /// Node-keyed DL with local portal ids, for `Term::Node` seeds.
    dl_node_entries: HashMap<u32, Vec<(u32, u64)>>,
    /// |SC(P)| — β of Theorem 5.
    sc_size: usize,
    ws: DijkstraWorkspace,
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
pub(crate) fn interleaved_csr(
    lists: &[Vec<(u32, Weight)>],
) -> (Vec<u32>, Vec<(u32, Weight)>, Weight) {
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
        let fragment = index.fragment();
        let members = partitioning.nodes(fragment);
        let globals: Vec<NodeId> = members.to_vec();
        // Local id order is global id order: `to_global` reads an ascending
        // answer off the bitset's words with no sort, and the answer wire
        // layout and the coordinator's gather both need that order.
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "fragment {fragment:?}: member node ids must be strictly ascending"
        );
        // Portals and shortcut ends are members of the fragment.
        let local_of = |g: NodeId| local_id(&globals, g).expect("index node outside its fragment");
        // Local adjacency: intra-fragment original edges + SC shortcuts.
        let mut lists: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); globals.len()];
        for (i, &g) in globals.iter().enumerate() {
            for (nb, w) in net.neighbors(g) {
                if let Some(ln) = local_id(&globals, nb) {
                    lists[i].push((ln, w));
                }
            }
        }
        for &(a, b, d) in index.shortcuts() {
            let w = Weight::try_from(d).map_err(|_| IndexError::WeightOverflow { distance: d })?;
            let (la, lb) = (local_of(a), local_of(b));
            lists[la as usize].push((lb, w));
            lists[lb as usize].push((la, w));
        }
        let (adj_offsets, adj, min_arc_weight) = interleaved_csr(&lists);
        // Local keyword inverted index.
        let mut kw_nodes: HashMap<KeywordId, Vec<u32>> = HashMap::new();
        for (i, &g) in globals.iter().enumerate() {
            for &k in net.keywords(g) {
                kw_nodes.entry(k).or_default().push(i as u32);
            }
        }
        // DL with local portal ids.
        let mut keyword_portals = HashMap::new();
        for (&kw, list) in &index.keyword_portals {
            let translated: Vec<(u32, u64)> = list.iter().map(|&(p, d)| (local_of(p), d)).collect();
            keyword_portals.insert(kw, translated);
        }
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
            kw_nodes,
            keyword_portals,
            dl_node_entries,
            sc_size: index.shortcuts().len(),
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

    /// Approximate resident bytes of the engine's state.
    pub fn memory_bytes(&self) -> usize {
        self.globals.len() * 4
            + self.breaks.memory_bytes()
            + self.adj_offsets.len() * 4
            + self.adj.len() * std::mem::size_of::<(u32, Weight)>()
            + self.kw_nodes.values().map(|v| v.len() * 4 + 8).sum::<usize>()
            + self.keyword_portals.values().map(|v| v.len() * 12 + 8).sum::<usize>()
            + self.dl_node_entries.values().map(|v| v.len() * 12 + 8).sum::<usize>()
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
            Term::Keyword(k) => Seeds {
                own: None,
                locals: self.kw_nodes.get(&k).map_or(&[], Vec::as_slice),
                portals: within(self.keyword_portals.get(&k), bound),
            },
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

    /// The bounded search behind [`Self::coverage_with`] and
    /// [`Self::distance_table`]: `visit(local id, distance)` for every local
    /// node within `bound` of `term`, in the kernel's settle order, and the
    /// search's Theorem 5 accounting.
    fn search(
        &self,
        ws: &mut DijkstraWorkspace,
        term: Term,
        bound: u64,
        mut visit: impl FnMut(u32, u64),
    ) -> QueryCost {
        self.debug_assert_admitted(bound);
        let seeds = self.seed_sources(term, bound);
        let stats = ws.run(self, seeds.iter(), bound, |n, d| {
            visit(n, d);
            Control::Continue
        });
        // Every node settles once and none is refused: what settled is the
        // coverage.
        let slot = SlotCost {
            term,
            radius: bound,
            alpha: seeds.portals.len(),
            settled: stats.settled,
            pushed: stats.pushed,
            coverage_nodes: stats.settled,
            cached: false,
        };
        QueryCost {
            alpha: slot.alpha,
            settled: slot.settled,
            pushed: slot.pushed,
            coverage_nodes: slot.coverage_nodes,
            per_slot: vec![slot],
            ..QueryCost::default()
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
        // Split borrows: the search mutates `ws` while reading `self`'s CSR.
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let out = self.coverage_with(&mut ws, term, radius);
        self.ws = ws;
        out
    }

    /// [`Self::coverage`] against a workspace the caller took out of the
    /// engine: the search mutates the workspace while reading the engine's
    /// CSR, and the plan driver's closures hold `&self` meanwhile.
    fn coverage_with(
        &self,
        ws: &mut DijkstraWorkspace,
        term: Term,
        radius: u64,
    ) -> Result<(Arc<BitSet>, QueryCost), QueryError> {
        let mut cov = BitSet::new(self.globals.len());
        let cost = self.search(ws, term, radius, |n, _| cov.insert(n as usize));
        Ok((Arc::new(cov), cost))
    }

    /// Local per-node distances for one term: `(local id, d(node, term))`
    /// for every local node within `bound` (the coverage Dijkstra of Alg. 2
    /// with distances kept), in no particular order. Exact for
    /// `bound ≤ maxR` (Theorem 3).
    pub fn distance_table(
        &mut self,
        term: Term,
        bound: u64,
    ) -> Result<(Vec<(u32, u64)>, QueryCost), QueryError> {
        let mut table = Vec::new();
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let cost = self.search(&mut ws, term, bound, |n, d| table.push((n, d)));
        self.ws = ws;
        Ok((table, cost))
    }

    /// The fragment's local contribution to a top-k query: its best `k`
    /// `(score, global node)` pairs, exact within the query horizon.
    pub fn topk_local(
        &mut self,
        q: &crate::topk::TopKQuery,
    ) -> Result<(Vec<crate::topk::Ranked>, QueryCost), QueryError> {
        debug_assert!(
            !q.keywords.is_empty(),
            "empty top-k query — admission should have rejected this query"
        );
        let start = std::time::Instant::now();
        let mut total = QueryCost { beta: self.sc_size, ..QueryCost::default() };
        // score[i] = Some(partial aggregate) while node i is within the
        // horizon of every term processed so far.
        let mut scores: Vec<Option<u64>> = vec![Some(0); self.globals.len()];
        let mut this_term = vec![INF_LOCAL; self.globals.len()];
        for &kw in &q.keywords {
            let (table, cost) = self.distance_table(Term::Keyword(kw), q.horizon)?;
            total.absorb(&cost);
            for &(n, d) in &table {
                this_term[n as usize] = d;
            }
            for (i, slot) in scores.iter_mut().enumerate() {
                if let Some(acc) = *slot {
                    let d = this_term[i];
                    *slot = if d == INF_LOCAL { None } else { Some(q.combine.fold(acc, d)) };
                }
            }
            for &(n, _) in &table {
                this_term[n as usize] = INF_LOCAL;
            }
        }
        let mut ranked: Vec<crate::topk::Ranked> = scores
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|score| (score, self.globals[i])))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(q.k);
        total.results = ranked.len();
        total.elapsed = start.elapsed();
        Ok((ranked, total))
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
    /// expanded to ids.
    pub fn evaluate_plan(
        &mut self,
        plan: &QueryPlan,
    ) -> Result<(Vec<NodeId>, QueryCost), QueryError> {
        let (runs, cost) = self.evaluate_plan_with_cache(plan, &mut NoCache)?;
        Ok((runs.to_vec(), cost))
    }

    /// Evaluate a normalized plan, consulting `store` for each coverage slot
    /// the plan's lazy driver asks for.
    ///
    /// This is the layered split of Alg. 2: a per-slot coverage stage (each
    /// fetched slot either served from `store` or computed and offered back)
    /// driven by [`QueryPlan::evaluate_lazy`], which stops asking once the
    /// local answer is known to be empty. Lemma 1 semantics are identical to
    /// [`Self::evaluate`]; a hit or a skipped slot saves a Dijkstra, never
    /// changes the answer. The answer stays in the run-level form the wire
    /// and the coordinator's gather take.
    pub fn evaluate_plan_with_cache(
        &mut self,
        plan: &QueryPlan,
        store: &mut dyn CoverageStore,
    ) -> Result<(NodeRuns, QueryCost), QueryError> {
        // Checked here as well as per search: a plan may never search.
        self.debug_assert_admitted(plan.max_radius());
        let start = std::time::Instant::now();
        let mut total = QueryCost { beta: self.sc_size, ..QueryCost::default() };
        // Split borrows: a search mutates `ws` while reading `self`'s CSR.
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        let local = plan.evaluate_lazy(
            self.globals.len(),
            |slot| self.seed_count(slot.term, slot.radius),
            |slot| {
                if let Some(hit) = store.lookup(slot) {
                    let nodes = hit.count();
                    total.coverage_nodes += nodes;
                    total.per_slot.push(SlotCost {
                        term: slot.term,
                        radius: slot.radius,
                        alpha: 0,
                        settled: 0,
                        pushed: 0,
                        coverage_nodes: nodes,
                        cached: true,
                    });
                    return Ok(hit);
                }
                let (cov, cost) = self.coverage_with(&mut ws, slot.term, slot.radius)?;
                store.store(slot, &cov);
                total.absorb(&cost);
                Ok(cov)
            },
        );
        self.ws = ws;
        let local = local?;
        let result = self.to_global(&local);
        total.results = result.len();
        total.elapsed = start.elapsed();
        Ok((result, total))
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

    /// Distributed evaluation = union of fragment evaluations (Lemma 1);
    /// compare against centralized ground truth (Theorem 3 end-to-end).
    fn assert_distributed_matches_centralized(
        net: &RoadNetwork,
        k: usize,
        cfg: &IndexConfig,
        f: &DFunction,
    ) {
        let p = MultilevelPartitioner::default().partition(net, k);
        let indexes = build_all_indexes(net, &p, cfg);
        let mut distributed: Vec<NodeId> = Vec::new();
        for idx in &indexes {
            let mut engine = FragmentEngine::new(net, &p, idx).unwrap();
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
            fn lookup(&mut self, slot: &crate::dfunc::DTerm) -> Option<Arc<crate::bitset::BitSet>> {
                self.0.get(&(slot.term, slot.radius)).cloned()
            }
            fn store(&mut self, slot: &crate::dfunc::DTerm, cov: &Arc<crate::bitset::BitSet>) {
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
