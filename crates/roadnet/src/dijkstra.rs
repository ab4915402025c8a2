//! Reusable Dijkstra toolkit.
//!
//! Every shortest-path computation in the system — fragment query evaluation
//! (Alg. 2), centralized ground truth, and the baselines — goes through
//! [`DijkstraWorkspace`], except NPD-index construction: Alg. 1 keeps one
//! heap loop of its own, `disks-core`'s `index::build` portal search, for
//! both directions, because its tie rules depend on the settle order. The
//! workspace owns the distance array and the queues and is reused across
//! runs; a run resets only the entries the previous one wrote, so repeated
//! searches on a large graph do not pay O(n) re-initialization.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Weight;
use crate::INF;

/// Minimal directed-graph abstraction used by the Dijkstra toolkit.
///
/// Implementations include [`crate::RoadNetwork`] (undirected: both arcs) and
/// the query engine's extended fragment graph (mixed directed/undirected).
/// A graph may also steer a search toward its targets with a per-node
/// [`Graph::floor`]; every implementation but the engine's location search
/// keeps the default 0, which is the plain search.
pub trait Graph {
    /// Number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// A lower bound (≥ 1) on the weight of every arc `for_each_neighbor`
    /// can yield, computed by the graph from its own arcs. The bounded
    /// kernel derives its bucket width from it, so a value above the true
    /// minimum breaks searches; 1 is always sound.
    fn min_arc_weight(&self) -> Weight;
    /// Invoke `f(neighbor, weight)` for every outgoing arc of `node`.
    fn for_each_neighbor(&self, node: u32, f: impl FnMut(u32, Weight));
    /// A lower bound on how much farther a search must go past `node` to
    /// reach any of its targets; 0, the default, when every node within the
    /// bound is one. The kernels push `node` at distance `d` only when
    /// `d + floor(node)` is within the bound, and test that before the push
    /// writes `dist`, so a node whose first path was pruned is still
    /// admitted by a shorter one. The search still runs in order of `d`.
    /// With an *admissible* floor (never above `node`'s distance to a
    /// target) every target within the bound settles, with its exact
    /// distance, and nothing settles that the plain search would not; a
    /// non-target may settle with a longer distance than its own unless the
    /// floor is also consistent (`floor(u) ≤ w(u, v) + floor(v)`).
    #[inline]
    fn floor(&self, _node: u32) -> u64 {
        0
    }
}

/// What the settle callback tells the search to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep relaxing this node's edges and continue.
    Continue,
    /// Do not relax this node's edges, but continue the search. Useful for
    /// pruned expansions (e.g. virtual keyword nodes must not be re-entered).
    SkipNeighbors,
    /// Stop the whole search now.
    Stop,
}

/// Per-run statistics, used by the Theorem 5 cost-model instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled (popped with their final distance).
    pub settled: usize,
    /// Queue pushes performed (relaxations that improved a distance).
    pub pushed: usize,
}

/// Largest bucket count the bucket kernel is used for.
///
/// A workspace keeps one `Vec` header (24 bytes) per bucket plus the heap
/// block behind every bucket a search has ever pushed into (retained across
/// runs, a few entries each), so the cap bounds the headers at 1.5 MiB; at
/// the bench datasets' radii and arc weights a search spans a few hundred
/// buckets.
const MAX_BUCKETS: u64 = 1 << 16;

/// The queue kernel behind a search (see [`DijkstraWorkspace`]).
/// [`DijkstraWorkspace::run`] picks one with [`kernel_for`]; benchmarks pit
/// them against each other explicitly via [`DijkstraWorkspace::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Bucket queue of width Δ (`bound / Δ < 2^16`).
    Bucket,
    /// Binary heap over `(u64, u32)` tuples (any bound).
    Heap,
}

/// log₂ of the bucket width Δ = 2^⌊log₂ w_min⌋, the largest power of two no
/// arc is lighter than.
fn bucket_shift(w_min: Weight) -> u32 {
    w_min.max(1).ilog2()
}

/// The kernel [`DijkstraWorkspace::run`] selects for a search bounded by
/// `bound` on a graph whose lightest arc weighs `w_min` — a function of
/// those two alone, so serial and parallel evaluations of the same slot
/// always take the same code path.
pub fn kernel_for(bound: u64, w_min: Weight) -> Kernel {
    if (bound >> bucket_shift(w_min)) < MAX_BUCKETS {
        Kernel::Bucket
    } else {
        Kernel::Heap
    }
}

/// A reusable single-source / multi-source Dijkstra workspace.
///
/// `dist` holds [`INF`] for every node outside `touched`; a run starts by
/// resetting the nodes the previous run wrote, so reuse costs no more than
/// the search itself did.
///
/// Two kernels sit behind [`DijkstraWorkspace::run`], picked by
/// [`kernel_for`]:
///
/// * **Buckets of width Δ = 2^⌊log₂ w_min⌋**, `w_min` being the graph's
///   lightest arc. Every arc is ≥ Δ, so relaxing a node of bucket ⌊d/Δ⌋
///   can only push into a *later* bucket: when a bucket starts draining,
///   each of its live entries (`(d, node)` with `d == dist[node]`) is final.
///   Label-setting is kept — every node settles once, with its exact
///   distance — with no comparisons and no sift, and `bound / Δ + 1`
///   buckets instead of `bound + 1`. With `w_min = 1` this is Dial's
///   queue.
/// * **A binary heap** over `(u64, u32)` tuples, for unbounded searches and
///   bounds too wide for the bucket array.
#[derive(Debug)]
pub struct DijkstraWorkspace {
    dist: Vec<u64>,
    /// Nodes whose `dist` the last run wrote.
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Δ-wide buckets of `(dist, node)`; all empty between runs (a run
    /// either drains them or sweeps what an early stop leaves).
    buckets: Vec<Vec<(u64, u32)>>,
}

/// Lower `dist[v]` to `nd` if that improves it, recording the first write.
#[inline]
fn improve(dist: &mut [u64], touched: &mut Vec<u32>, v: u32, nd: u64) -> bool {
    let cur = &mut dist[v as usize];
    if nd >= *cur {
        return false;
    }
    if *cur == INF {
        touched.push(v);
    }
    *cur = nd;
    true
}

impl DijkstraWorkspace {
    /// Create a workspace able to address `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        DijkstraWorkspace {
            dist: vec![INF; num_nodes],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            buckets: Vec::new(),
        }
    }

    /// Grow to accommodate `num_nodes` nodes (no-op if already large enough).
    pub fn ensure_capacity(&mut self, num_nodes: usize) {
        if self.dist.len() < num_nodes {
            self.dist.resize(num_nodes, INF);
        }
    }

    /// Run Dijkstra from `sources` (each with an initial distance), bounded
    /// by `bound` (nodes farther than `bound` are neither settled nor
    /// reported, nor are those whose distance plus [`Graph::floor`] is).
    /// `on_settle(node, dist)` fires exactly once per settled node, with its
    /// exact distance under a zero or consistent floor (see
    /// [`Graph::floor`]), and steers the search via [`Control`].
    ///
    /// **Settle order** is nondecreasing in ⌊d/Δ⌋ and unspecified inside a
    /// bucket, Δ being 1 under the heap and the bucket width (≤ the graph's
    /// lightest arc) under the bucket kernel: a caller may rely on a settled
    /// distance being final, not on nearer nodes having settled before it.
    pub fn run<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: impl IntoIterator<Item = impl Borrow<(u32, u64)>>,
        bound: u64,
        on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let kernel = kernel_for(bound, graph.min_arc_weight());
        self.run_with(kernel, graph, sources, bound, on_settle)
    }

    /// [`Self::run`] with an explicitly chosen kernel — the benchmark seam
    /// for pitting the kernels against each other on identical searches.
    /// The caller owns the validity contract [`kernel_for`] encodes:
    /// `Bucket` requires `bound / Δ < 2^16`.
    pub fn run_with<G: Graph + ?Sized>(
        &mut self,
        kernel: Kernel,
        graph: &G,
        sources: impl IntoIterator<Item = impl Borrow<(u32, u64)>>,
        bound: u64,
        on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        self.ensure_capacity(graph.num_nodes());
        self.heap.clear();
        for v in self.touched.drain(..) {
            self.dist[v as usize] = INF;
        }
        match kernel {
            Kernel::Bucket => self.run_buckets(graph, sources, bound, on_settle),
            Kernel::Heap => self.run_heap(graph, sources, bound, on_settle),
        }
    }

    /// Bucket kernel: bucket `b` holds the entries with ⌊d/Δ⌋ = `b`, buckets
    /// drain in ascending order, entries inside one in arrival order.
    fn run_buckets<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: impl IntoIterator<Item = impl Borrow<(u32, u64)>>,
        bound: u64,
        mut on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let w_min = graph.min_arc_weight();
        let shift = bucket_shift(w_min);
        debug_assert!(w_min >= 1 && 1u64 << shift <= u64::from(w_min), "Δ must not exceed w_min");
        assert!((bound >> shift) < MAX_BUCKETS, "Bucket needs bound / Δ < 2^16");
        let nb = (bound >> shift) as usize + 1;
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        let (dist, touched, buckets) = (&mut self.dist[..], &mut self.touched, &mut self.buckets);
        let mut stats = SearchStats::default();
        let mut lo = nb; // lowest touched bucket
        let mut hi = 0usize; // highest touched bucket
        for source in sources {
            let &(s, d0) = source.borrow();
            if d0.saturating_add(graph.floor(s)) <= bound && improve(dist, touched, s, d0) {
                let b = (d0 >> shift) as usize;
                buckets[b].push((d0, s));
                stats.pushed += 1;
                lo = lo.min(b);
                hi = hi.max(b);
            }
        }
        let mut b = lo;
        'search: while b <= hi {
            // Nothing lands in `b` while it drains (every arc is ≥ Δ), so it
            // can leave the array for the borrow and come back with its
            // capacity.
            let mut bucket = std::mem::take(&mut buckets[b]);
            for &(d, u) in &bucket {
                if d != dist[u as usize] {
                    continue; // stale entry — u has a smaller distance
                }
                stats.settled += 1;
                match on_settle(u, d) {
                    Control::Stop => {
                        // Leave every bucket empty for the next run.
                        buckets[b + 1..=hi].iter_mut().for_each(Vec::clear);
                        bucket.clear();
                        buckets[b] = bucket;
                        break 'search;
                    }
                    Control::SkipNeighbors => continue,
                    Control::Continue => {}
                }
                graph.for_each_neighbor(u, |v, w| {
                    debug_assert!(w >= w_min, "arc {u}→{v} of weight {w} is below w_min {w_min}");
                    // `nd + floor ≤ bound` comes before any narrowing or index.
                    let nd = d.saturating_add(u64::from(w));
                    if nd.saturating_add(graph.floor(v)) <= bound && improve(dist, touched, v, nd) {
                        let to = (nd >> shift) as usize;
                        buckets[to].push((nd, v));
                        stats.pushed += 1;
                        hi = hi.max(to);
                    }
                });
            }
            bucket.clear();
            buckets[b] = bucket;
            b += 1;
        }
        stats
    }

    /// Tuple-heap kernel for unbounded (or absurdly wide) searches.
    fn run_heap<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: impl IntoIterator<Item = impl Borrow<(u32, u64)>>,
        bound: u64,
        mut on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let (dist, touched, heap) = (&mut self.dist[..], &mut self.touched, &mut self.heap);
        let mut stats = SearchStats::default();
        for source in sources {
            let &(s, d0) = source.borrow();
            if d0.saturating_add(graph.floor(s)) <= bound && improve(dist, touched, s, d0) {
                heap.push(Reverse((d0, s)));
                stats.pushed += 1;
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d != dist[u as usize] {
                continue; // stale heap entry
            }
            stats.settled += 1;
            match on_settle(u, d) {
                Control::Stop => break,
                Control::SkipNeighbors => continue,
                Control::Continue => {}
            }
            graph.for_each_neighbor(u, |v, w| {
                let nd = d.saturating_add(u64::from(w));
                if nd.saturating_add(graph.floor(v)) <= bound && improve(dist, touched, v, nd) {
                    heap.push(Reverse((nd, v)));
                    stats.pushed += 1;
                }
            });
        }
        stats
    }

    /// All-destinations distances from a single source, bounded by `bound`.
    /// Returns `(node, dist)` pairs for every reachable node within the
    /// bound, in settle order (see [`Self::run`]).
    pub fn distances_from<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        source: u32,
        bound: u64,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.run(graph, [(source, 0)], bound, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out
    }

    /// Point-to-point distance with early termination.
    pub fn distance<G: Graph + ?Sized>(&mut self, graph: &G, source: u32, target: u32) -> u64 {
        let mut found = INF;
        self.run(graph, [(source, 0)], INF - 1, |n, d| {
            if n == target {
                found = d;
                Control::Stop
            } else {
                Control::Continue
            }
        });
        found
    }

    /// Distance from `source` to the nearest member of `targets`.
    pub fn distance_to_any<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        source: u32,
        targets: &[u32],
    ) -> u64 {
        if targets.is_empty() {
            return INF;
        }
        let mut marks = std::collections::HashSet::with_capacity(targets.len());
        marks.extend(targets.iter().copied());
        // A settled target may be followed by a nearer one of the same
        // bucket; a node a whole lightest arc (≥ Δ) past the best target
        // shows that bucket has drained.
        let w_min = u64::from(graph.min_arc_weight());
        let mut found = INF;
        self.run(graph, [(source, 0)], INF - 1, |n, d| {
            if d >= found.saturating_add(w_min) {
                return Control::Stop;
            }
            if marks.contains(&n) {
                found = found.min(d);
            }
            Control::Continue
        });
        found
    }

    /// Multi-source coverage: all nodes within `radius` of any source
    /// (sources seeded at distance 0). This is the direct form of the
    /// paper's *keyword coverage* when sources are the nodes containing the
    /// keyword.
    pub fn coverage<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[u32],
        radius: u64,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.run(graph, sources.iter().map(|&s| (s, 0)), radius, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out
    }
}

/// Dijkstra with predecessor tracking, for extracting actual shortest paths.
/// Kept separate from [`DijkstraWorkspace`] because predecessor arrays are
/// only needed in tests, diagnostics and the generator.
pub fn shortest_path<G: Graph + ?Sized>(
    graph: &G,
    source: u32,
    target: u32,
) -> Option<(Vec<u32>, u64)> {
    let n = graph.num_nodes();
    let mut dist = vec![INF; n];
    let mut pred = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == target {
            break;
        }
        let mut relaxed = Vec::new();
        graph.for_each_neighbor(u, &mut |v, w| {
            relaxed.push((v, d.saturating_add(u64::from(w))));
        });
        for (v, nd) in relaxed {
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                pred[v as usize] = u;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    if dist[target as usize] == INF {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = pred[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[target as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure1_network;
    use std::collections::HashMap;

    #[test]
    fn figure1_distances_match_paper() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Paper Example 1 geometry: B and E are within 3 of both "museum"
        // (node D) and "school" (node A), while A, C, D are not.
        let d_a = |t: &str, ws: &mut DijkstraWorkspace| ws.distance(&g, names["A"].0, names[t].0);
        assert_eq!(d_a("B", &mut ws), 2);
        assert_eq!(d_a("E", &mut ws), 1);
        assert_eq!(d_a("D", &mut ws), 4);
        assert_eq!(d_a("C", &mut ws), 4);
        let d_d = |t: &str, ws: &mut DijkstraWorkspace| ws.distance(&g, names["D"].0, names[t].0);
        assert_eq!(d_d("B", &mut ws), 2);
        assert_eq!(d_d("E", &mut ws), 3);
        assert_eq!(d_d("C", &mut ws), 4);
    }

    #[test]
    fn bounded_search_respects_radius() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let within_2: Vec<u32> =
            ws.distances_from(&g, names["A"].0, 2).into_iter().map(|(n, _)| n).collect();
        // A(0), E(1), B(2) — D is at 3, C at 4.
        assert_eq!(within_2.len(), 3);
        assert!(within_2.contains(&names["A"].0));
        assert!(within_2.contains(&names["E"].0));
        assert!(within_2.contains(&names["B"].0));
    }

    #[test]
    fn settle_order_is_nondecreasing() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut last = 0u64;
        ws.run(&g, [(names["A"].0, 0)], INF - 1, |_, d| {
            assert!(d >= last);
            last = d;
            Control::Continue
        });
    }

    #[test]
    fn multi_source_coverage_matches_definition() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Coverage of {A, D} (school ∪ museum sources) with radius 1:
        // A(0), D(0), E(1 via A).
        let cov = ws.coverage(&g, &[names["A"].0, names["D"].0], 1);
        let nodes: std::collections::HashSet<u32> = cov.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes, [names["A"].0, names["D"].0, names["E"].0].into_iter().collect());
    }

    #[test]
    fn workspace_reuse_across_epochs_is_correct() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for _ in 0..100 {
            assert_eq!(ws.distance(&g, names["A"].0, names["C"].0), 4);
            assert_eq!(ws.distance(&g, names["C"].0, names["A"].0), 4);
        }
    }

    #[test]
    fn stop_control_halts_search() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut settled = 0;
        ws.run(&g, [(names["A"].0, 0)], INF - 1, |_, _| {
            settled += 1;
            Control::Stop
        });
        assert_eq!(settled, 1);
    }

    #[test]
    fn skip_neighbors_prunes_expansion() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Refuse to expand anything: only sources get settled.
        let mut settled = Vec::new();
        ws.run(&g, [(names["A"].0, 0), (names["D"].0, 0)], INF - 1, |n, _| {
            settled.push(n);
            Control::SkipNeighbors
        });
        settled.sort_unstable();
        let mut expect = vec![names["A"].0, names["D"].0];
        expect.sort_unstable();
        assert_eq!(settled, expect);
    }

    #[test]
    fn distance_to_any_picks_nearest_target() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let d = ws.distance_to_any(&g, names["E"].0, &[names["C"].0, names["B"].0]);
        // E→B = E→A→B(3) or E→D→B(3); C is farther.
        assert_eq!(d, 3);
        assert_eq!(ws.distance_to_any(&g, names["E"].0, &[]), INF);
    }

    #[test]
    fn unreachable_distance_is_inf() {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        let y = b.add_node(1.0, 0.0, &[]);
        let z = b.add_node(9.0, 9.0, &[]);
        b.add_edge(x, y, 1).unwrap();
        let g = b.build().unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(ws.distance(&g, x.0, z.0), INF);
    }

    #[test]
    fn shortest_path_extraction() {
        let (g, names) = figure1_network();
        let (path, d) = shortest_path(&g, names["A"].0, names["C"].0).unwrap();
        assert_eq!(d, 4);
        assert_eq!(path, vec![names["A"].0, names["B"].0, names["C"].0]);
        assert!(shortest_path(&g, names["A"].0, names["A"].0).is_some());
    }

    #[test]
    fn stats_count_settles_and_pushes() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let stats = ws.run(&g, [(names["A"].0, 0)], INF - 1, |_, _| Control::Continue);
        assert_eq!(stats.settled, 5);
        assert!(stats.pushed >= 5);
    }

    /// The settled `(node, dist)` set of one search on one kernel, sorted.
    fn settled_with(
        ws: &mut DijkstraWorkspace,
        kernel: Kernel,
        g: &impl Graph,
        sources: &[(u32, u64)],
        bound: u64,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        ws.run_with(kernel, g, sources, bound, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out.sort_unstable();
        out
    }

    /// A deterministic pseudo-random sparse graph, weights in
    /// `w_lo..w_lo + 50`, large enough that the kernels genuinely diverge in
    /// traversal order.
    fn lcg_network(nodes: usize, edges: usize, w_lo: u32) -> crate::RoadNetwork {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let ids: Vec<_> = (0..nodes).map(|i| b.add_node(i as f32, 0.0, &[])).collect();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut added = 0;
        while added < edges {
            let u = (next() as usize) % nodes;
            let v = (next() as usize) % nodes;
            let w = (next() % 50) as u32 + w_lo;
            if u != v && b.add_edge(ids[u], ids[v], w).is_ok() {
                added += 1;
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn kernel_choice_follows_bound_over_bucket_width() {
        assert_eq!(kernel_for(0, 1), Kernel::Bucket);
        assert_eq!(kernel_for((1 << 16) - 1, 1), Kernel::Bucket);
        assert_eq!(kernel_for(1 << 16, 1), Kernel::Heap);
        // w_min 100 → Δ = 64: the hand-over moves out by the same factor.
        assert_eq!(kernel_for((1 << 22) - 1, 100), Kernel::Bucket);
        assert_eq!(kernel_for(1 << 22, 100), Kernel::Heap);
        assert_eq!(kernel_for(INF - 1, Weight::MAX), Kernel::Heap);
    }

    #[test]
    fn bucket_and_heap_kernels_agree_on_settled_sets() {
        let sources = [(0u32, 0u64), (17, 3), (42, 11)];
        // Lightest arcs 1 (Δ = 1, Dial's queue) and 8 or more (Δ ≥ 8).
        for w_lo in [1, 8] {
            let g = lcg_network(200, 600, w_lo);
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            for bound in [0u64, 1, 7, 40, 200, 1000] {
                let bucket = settled_with(&mut ws, Kernel::Bucket, &g, &sources, bound);
                let heap = settled_with(&mut ws, Kernel::Heap, &g, &sources, bound);
                assert_eq!(bucket, heap, "bucket vs heap at bound {bound}, w_lo {w_lo}");
            }
        }
    }

    #[test]
    fn dial_early_stop_leaves_workspace_clean() {
        let g = lcg_network(100, 300, 1);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Stop mid-search (bucket path), then verify a fresh bounded run
        // still produces the exact settled set — stale bucket entries would
        // corrupt it.
        let mut seen = 0;
        ws.run(&g, [(0, 0)], 500, |_, _| {
            seen += 1;
            if seen == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(kernel_for(120, g.min_arc_weight()), Kernel::Bucket);
        let after = settled_with(&mut ws, Kernel::Bucket, &g, &[(0, 0)], 120);
        let reference = settled_with(&mut ws, Kernel::Heap, &g, &[(0, 0)], 120);
        assert_eq!(after, reference);
    }

    /// `graph` with a floor a node.
    struct Floored<'g, G> {
        graph: &'g G,
        floor: Vec<u64>,
    }

    impl<G: Graph> Graph for Floored<'_, G> {
        fn num_nodes(&self) -> usize {
            self.graph.num_nodes()
        }
        fn min_arc_weight(&self) -> Weight {
            self.graph.min_arc_weight()
        }
        fn for_each_neighbor(&self, node: u32, f: impl FnMut(u32, Weight)) {
            self.graph.for_each_neighbor(node, f);
        }
        fn floor(&self, node: u32) -> u64 {
            self.floor[node as usize]
        }
    }

    /// Every `(node, dist)` one search settles, in settle order, and its stats.
    fn trace(
        ws: &mut DijkstraWorkspace,
        kernel: Kernel,
        g: &impl Graph,
        sources: &[(u32, u64)],
        bound: u64,
    ) -> (Vec<(u32, u64)>, SearchStats) {
        let mut out = Vec::new();
        let stats = ws.run_with(kernel, g, sources, bound, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        (out, stats)
    }

    #[test]
    fn a_zero_floor_is_the_plain_search() {
        let sources = [(0u32, 0u64), (17, 3), (42, 11)];
        for w_lo in [1, 8] {
            let g = lcg_network(200, 600, w_lo);
            let zero = Floored { graph: &g, floor: vec![0; g.num_nodes()] };
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            for bound in [0u64, 7, 40, 200, 1000] {
                for kernel in [Kernel::Bucket, Kernel::Heap] {
                    let plain = trace(&mut ws, kernel, &g, &sources, bound);
                    let floored = trace(&mut ws, kernel, &zero, &sources, bound);
                    assert_eq!(plain, floored, "{kernel:?} at bound {bound}, w_lo {w_lo}");
                }
            }
        }
    }

    /// The floor toward a target set is each node's distance to the nearest
    /// target, rounded down to a multiple of `q` (admissible, and not
    /// consistent once `q > 1`): every target within the bound settles with
    /// the plain search's distance, and the search settles a subset of the
    /// plain one's nodes, strictly fewer at some bounds.
    #[test]
    fn an_admissible_floor_keeps_every_targets_distance_and_settles_a_subset() {
        let mut fewer = 0;
        for w_lo in [1, 8] {
            let g = lcg_network(200, 600, w_lo);
            let targets = [60u32, 61, 120];
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            let mut to_target = vec![INF; g.num_nodes()];
            for (n, d) in ws.coverage(&g, &targets, INF - 1) {
                to_target[n as usize] = d;
            }
            for q in [1, 7, 40] {
                let floor = to_target.iter().map(|&d| if d == INF { INF } else { d / q * q });
                let floored = Floored { graph: &g, floor: floor.collect() };
                for bound in [0u64, 40, 200, 1000] {
                    for kernel in [Kernel::Bucket, Kernel::Heap] {
                        let what = format!("{kernel:?}, q {q}, bound {bound}, w_lo {w_lo}");
                        let sources = [(3u32, 0u64), (150, 5)];
                        let (plain, _) = trace(&mut ws, kernel, &g, &sources, bound);
                        let (pruned, _) = trace(&mut ws, kernel, &floored, &sources, bound);
                        let plain_nodes: HashMap<u32, u64> = plain.iter().copied().collect();
                        assert!(pruned.iter().all(|(n, _)| plain_nodes.contains_key(n)), "{what}");
                        for t in &targets {
                            let pruned_d = pruned.iter().find(|(n, _)| n == t).map(|&(_, d)| d);
                            assert_eq!(pruned_d, plain_nodes.get(t).copied(), "{what}: target {t}");
                        }
                        fewer += usize::from(pruned.len() < plain.len());
                    }
                }
            }
        }
        assert!(fewer > 0, "no search settled fewer nodes than the plain one");
    }

    /// `s → x` (1) `→ v` (10) is relaxed before `s → y` (5) `→ v` (1): with
    /// `floor(v) = 3` and a bound of 10 the first push of `v` (11 + 3) is
    /// refused and the second (6 + 3) admitted, so `v` settles at 6.
    #[test]
    fn a_push_refused_by_the_floor_is_admitted_by_a_shorter_path() {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let [s, x, y, v] = [0.0, 1.0, 2.0, 3.0].map(|at| b.add_node(at, 0.0, &[]));
        for (from, to, w) in [(s, x, 1), (x, v, 10), (s, y, 5), (y, v, 1)] {
            b.add_edge(from, to, w).unwrap();
        }
        let g = b.build().unwrap();
        let mut floor = vec![0; 4];
        floor[v.0 as usize] = 3;
        let floored = Floored { graph: &g, floor };
        let mut ws = DijkstraWorkspace::new(4);
        for kernel in [Kernel::Bucket, Kernel::Heap] {
            let (settled, stats) = trace(&mut ws, kernel, &floored, &[(s.0, 0)], 10);
            assert_eq!(settled, [(s.0, 0), (x.0, 1), (y.0, 5), (v.0, 6)], "{kernel:?}");
            assert_eq!(stats, SearchStats { settled: 4, pushed: 4 }, "{kernel:?}");
        }
    }

    /// A floor of `u64::MAX` (an unreachable target) or just above what is
    /// left of a bound near `u32::MAX` refuses the push without overflow,
    /// seeds included.
    #[test]
    fn a_sentinel_floor_saturates() {
        let g = lcg_network(50, 150, 1);
        let bound = u64::from(u32::MAX);
        let mut floor = vec![0; g.num_nodes()];
        floor[0] = u64::MAX;
        floor[1] = bound;
        let floored = Floored { graph: &g, floor };
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let sources = [(0u32, 0u64), (1, 1), (2, bound - 1)];
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            // The bucket kernel needs `bound / Δ < 2^16`.
            let bound = if kernel == Kernel::Bucket { (1 << 16) - 1 } else { bound };
            let (settled, _) = trace(&mut ws, kernel, &floored, &sources, bound);
            assert!(settled.iter().all(|&(n, _)| n != 0 && n != 1), "{kernel:?}: {settled:?}");
        }
        let (settled, _) = trace(&mut ws, Kernel::Heap, &floored, &[(0, u64::MAX)], u64::MAX);
        assert!(settled.is_empty());
    }

    #[test]
    fn bucket_settle_order_is_nondecreasing_in_bucket_index() {
        let g = lcg_network(120, 350, 8);
        let shift = bucket_shift(g.min_arc_weight());
        assert!(shift >= 3);
        assert_eq!(kernel_for(800, g.min_arc_weight()), Kernel::Bucket);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut last = 0u64;
        ws.run(&g, [(0, 0), (60, 5)], 800, |_, d| {
            assert!(d >> shift >= last, "settle order regressed: {d} after bucket {last}");
            last = d >> shift;
            Control::Continue
        });
    }
}
