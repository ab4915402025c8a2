//! NPD-index construction — Algorithm 1's backward portal-source search.
//!
//! For each portal `n` of fragment `P`, a Dijkstra search runs over the
//! whole graph bounded by `maxR`. Along the shortest-path tree we propagate
//! a per-node flag `reentered`: *does some shortest path from `n` to this
//! node contain an internal node of `P`?* Merging the flag on equal-distance
//! relaxations implements the multiple-shortest-paths Rules 3/4 soundly
//! (with "any shortest path" semantics). On settling node `u` with the flag
//! clear:
//!
//! * `u ∈ P`, `u ≠ n`, `(u, n) ∉ E`  → record the SC shortcut `(u, n, d)`
//!   (Rule 1/3; `u` is necessarily a portal — a path that leaves and
//!   re-enters `P` without internal `P` nodes must re-enter over a cut
//!   edge).
//! * `u ∉ P` and `u` is DL-indexed  → record `(n, d)` in the DL entry
//!   `(u, P)` (Rule 2/4).
//!
//! Note on the paper's pseudocode: Algorithm 1 line 8/9 keys the DL entry as
//! `(n_i, part[p])`, which contradicts the prose of §3.4, Rule 2 and the
//! Fig. 4 caption ("d(A,C) is recorded in DL mapped by entry (A, P)"). We
//! follow the prose, which is the internally consistent reading and the one
//! the query algorithm (Alg. 2 Step 2) actually consumes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::{Graph, KeywordId, NodeId, RoadNetwork, INF};

use super::{DlScope, IndexConfig, NpdIndex};

/// Reusable arrays for the construction searches (sized to the full graph).
struct BuildWorkspace {
    dist: Vec<u64>,
    /// Some shortest path from the source passes through an internal node
    /// of the fragment being indexed.
    reentered: Vec<bool>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl BuildWorkspace {
    fn new(n: usize) -> Self {
        BuildWorkspace {
            dist: vec![INF; n],
            reentered: vec![false; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self) {
        self.heap.clear();
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[inline]
    fn dist_of(&self, u: u32) -> u64 {
        if self.stamp[u as usize] == self.epoch {
            self.dist[u as usize]
        } else {
            INF
        }
    }
}

/// Everything one portal's backward search contributes to the index:
/// shortcut candidates (normalized endpoint keys), DL pairs `(external
/// node, distance)` for this portal, and the settled-node count. Pure per
/// portal, so searches can run sequentially or on scoped threads and merge
/// to the identical index.
struct PortalYield {
    portal: NodeId,
    sc: Vec<((u32, u32), u64)>,
    dl: Vec<(NodeId, u64)>,
    settled: u64,
}

/// Algorithm 1's backward search from one portal (see module docs).
fn portal_search(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    fragment: FragmentId,
    config: &IndexConfig,
    portal: NodeId,
    ws: &mut BuildWorkspace,
) -> PortalYield {
    let assignment = partitioning.assignment();
    let p = fragment.0;
    let max_r = config.max_r;
    let mut y = PortalYield { portal, sc: Vec::new(), dl: Vec::new(), settled: 0 };

    let source = portal.0;
    ws.begin();
    ws.dist[source as usize] = 0;
    ws.reentered[source as usize] = false;
    ws.stamp[source as usize] = ws.epoch;
    ws.heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = ws.heap.pop() {
        if d > ws.dist_of(u) {
            continue; // stale
        }
        y.settled += 1;
        let u_reentered = ws.reentered[u as usize];
        if u != source && !u_reentered {
            if assignment[u as usize] == p {
                // Rule 1/3 condition 2 excludes the case where
                // (A, B, d(A,B)) is an *original edge with that weight*.
                // An original parallel edge that is LONGER than the
                // shortest detour does not make the shortcut redundant
                // (the local fragment would only have the suboptimal
                // edge), so compare weights, not mere existence.
                if net.edge_weight(NodeId(u), portal).map(u64::from) != Some(d) {
                    debug_assert!(
                        partitioning.portals(fragment).contains(&NodeId(u)),
                        "SC endpoint must be a portal"
                    );
                    let key = if u < source { (u, source) } else { (source, u) };
                    y.sc.push((key, d));
                }
            } else {
                let indexed = match config.dl_scope {
                    DlScope::ObjectsOnly => net.is_object(NodeId(u)),
                    DlScope::AllNodes => true,
                };
                if indexed {
                    y.dl.push((NodeId(u), d));
                }
            }
        }
        // A path continuing through `u` has `u` as an internal node, so
        // the flag for successors must include "u is an internal P node".
        let flag_through_u = u_reentered || (u != source && assignment[u as usize] == p);
        let epoch = ws.epoch;
        let (dist, stamp, reentered, heap) =
            (&mut ws.dist, &mut ws.stamp, &mut ws.reentered, &mut ws.heap);
        net.for_each_neighbor(u, &mut |v, w| {
            let nd = d.saturating_add(u64::from(w));
            if nd > max_r {
                return;
            }
            let vi = v as usize;
            let cur = if stamp[vi] == epoch { dist[vi] } else { INF };
            if nd < cur {
                dist[vi] = nd;
                stamp[vi] = epoch;
                reentered[vi] = flag_through_u;
                heap.push(Reverse((nd, v)));
            } else if nd == cur && cur != INF {
                // Rule 3/4: "ANY shortest path" — merge the flag.
                reentered[vi] |= flag_through_u;
            }
        });
    }
    y
}

/// Merge per-portal yields (in portal order) into the finished index. Every
/// downstream structure is either keyed (SC dedup), sorted by a total order
/// (DL entry lists, keyword-portal lists), or a commutative min/sum — so
/// the assembled index is identical however the searches were scheduled.
fn assemble_index(
    net: &RoadNetwork,
    fragment: FragmentId,
    config: &IndexConfig,
    yields: Vec<PortalYield>,
    start: Instant,
) -> NpdIndex {
    let mut settled_total: u64 = 0;
    // SC shortcuts are discovered from both endpoints; normalize and dedup.
    let mut sc_map: HashMap<(u32, u32), u64> = HashMap::new();
    let mut dl_entries: HashMap<NodeId, Vec<(NodeId, u64)>> = HashMap::new();
    for y in yields {
        settled_total += y.settled;
        for (key, d) in y.sc {
            let prev = sc_map.insert(key, d);
            debug_assert!(
                prev.is_none() || prev == Some(d),
                "shortcut rediscovered with a different distance"
            );
        }
        for (node, d) in y.dl {
            dl_entries.entry(node).or_default().push((y.portal, d));
        }
    }

    let mut sc: Vec<(NodeId, NodeId, u64)> =
        sc_map.into_iter().map(|((a, b), d)| (NodeId(a), NodeId(b), d)).collect();
    sc.sort_unstable();

    // Rule 2 condition 3: sort each entry list by distance (ties by portal).
    for list in dl_entries.values_mut() {
        list.sort_unstable_by_key(|&(portal, d)| (d, portal.0));
    }

    // §3.7 keyword aggregation: per (keyword, portal) minimum over entries.
    let mut kw_min: HashMap<(KeywordId, u32), u64> = HashMap::new();
    for (&node, list) in &dl_entries {
        for &kw in net.keywords(node) {
            for &(portal, d) in list {
                kw_min.entry((kw, portal.0)).and_modify(|cur| *cur = (*cur).min(d)).or_insert(d);
            }
        }
    }
    let mut keyword_portals: HashMap<KeywordId, Vec<(NodeId, u64)>> = HashMap::new();
    for ((kw, portal), d) in kw_min {
        keyword_portals.entry(kw).or_default().push((NodeId(portal), d));
    }
    for list in keyword_portals.values_mut() {
        list.sort_unstable_by_key(|&(portal, d)| (d, portal.0));
    }

    NpdIndex {
        fragment,
        max_r: config.max_r,
        dl_scope: config.dl_scope,
        sc,
        dl_entries,
        keyword_portals,
        build_time: start.elapsed(),
        build_settled: settled_total,
    }
}

/// Build the NPD-index for one fragment.
pub fn build_index(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    fragment: FragmentId,
    config: &IndexConfig,
) -> NpdIndex {
    let mut ws = BuildWorkspace::new(net.num_nodes());
    build_index_with_workspace(net, partitioning, fragment, config, &mut ws)
}

fn build_index_with_workspace(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    fragment: FragmentId,
    config: &IndexConfig,
    ws: &mut BuildWorkspace,
) -> NpdIndex {
    let start = Instant::now();
    let yields = partitioning
        .portals(fragment)
        .iter()
        .map(|&portal| portal_search(net, partitioning, fragment, config, portal, ws))
        .collect();
    assemble_index(net, fragment, config, yields, start)
}

/// Build the NPD-index for one fragment with the per-portal backward
/// searches spread over up to `threads` scoped OS threads. The searches
/// are independent (each owns a private `BuildWorkspace`) and the merge
/// is deterministic — the result is bit-identical to [`build_index`].
pub fn build_index_with_threads(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    fragment: FragmentId,
    config: &IndexConfig,
    threads: usize,
) -> NpdIndex {
    let portals = partitioning.portals(fragment);
    let threads = threads.min(portals.len()).max(1);
    if threads == 1 {
        return build_index(net, partitioning, fragment, config);
    }
    let start = Instant::now();
    // Work-stealing over portal positions: portals' search frontiers vary
    // wildly in size (maxR-bounded), so static striping would unbalance.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, PortalYield)>();
    let mut slots: Vec<Option<PortalYield>> = Vec::with_capacity(portals.len());
    slots.resize_with(portals.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                let mut ws = BuildWorkspace::new(net.num_nodes());
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= portals.len() {
                        break;
                    }
                    let y = portal_search(net, partitioning, fragment, config, portals[i], &mut ws);
                    tx.send((i, y)).expect("collector alive");
                }
            });
        }
        drop(tx);
        for (i, y) in rx {
            slots[i] = Some(y);
        }
    });
    // Reassemble in portal order (not completion order).
    let yields = slots.into_iter().map(|o| o.expect("every portal searched")).collect();
    assemble_index(net, fragment, config, yields, start)
}

/// Build the index for every fragment, in parallel across OS threads (the
/// paper's "naturally parallel, fragment-wise" construction — one machine
/// per fragment). Returns indexes ordered by fragment id.
pub fn build_all_indexes(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    config: &IndexConfig,
) -> Vec<NpdIndex> {
    let k = partitioning.num_fragments();
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let across = cores.min(k.max(1));
    // Cores left over after fragment-level parallelism go to portal-level
    // parallelism *within* each build (few big fragments, many cores).
    let within = (cores / across).max(1);
    let mut out: Vec<Option<NpdIndex>> = Vec::with_capacity(k);
    out.resize_with(k, || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Workers pull fragment ids from a shared counter and send finished
    // indexes over a channel; the scope owner reassembles them in order.
    let (tx, rx) = std::sync::mpsc::channel::<NpdIndex>();
    std::thread::scope(|scope| {
        for _ in 0..across {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                let mut ws = BuildWorkspace::new(net.num_nodes());
                loop {
                    let f = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if f >= k {
                        break;
                    }
                    let fragment = FragmentId(f as u32);
                    let idx = if within > 1 {
                        build_index_with_threads(net, partitioning, fragment, config, within)
                    } else {
                        build_index_with_workspace(net, partitioning, fragment, config, &mut ws)
                    };
                    tx.send(idx).expect("collector alive");
                }
            });
        }
        drop(tx);
        for idx in rx {
            let f = idx.fragment.index();
            out[f] = Some(idx);
        }
    });
    out.into_iter().map(|o| o.expect("every fragment built")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::graph::figure1_network;
    use disks_roadnet::DijkstraWorkspace;

    /// Theorem 3 oracle: for each fragment P, each DL-indexed external node
    /// A, and each node B ∈ P, the extended-fragment distance (computed via
    /// SC + DL by the engine machinery in `engine.rs`) must equal the global
    /// distance. Here we verify the *components* directly:
    /// every recorded SC / DL distance is a true shortest distance.
    #[test]
    fn recorded_distances_are_true_shortest_distances() {
        let net = GridNetworkConfig::tiny(1).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let cfg = IndexConfig::unbounded();
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        for f in p.fragment_ids() {
            let idx = build_index(&net, &p, f, &cfg);
            for &(a, b, d) in idx.shortcuts() {
                assert_eq!(ws.distance(&net, a.0, b.0), d, "SC distance wrong for ({a},{b})");
                assert_ne!(
                    net.edge_weight(a, b).map(u64::from),
                    Some(d),
                    "SC must not duplicate an original edge of equal weight"
                );
                assert_eq!(p.fragment_of(a), f);
                assert_eq!(p.fragment_of(b), f);
            }
            for (node, list) in idx.dl_entries() {
                assert_ne!(p.fragment_of(node), f, "DL entries must be external");
                for &(portal, d) in list {
                    assert_eq!(p.fragment_of(portal), f, "DL pairs must target portals of P");
                    assert_eq!(
                        ws.distance(&net, node.0, portal.0),
                        d,
                        "DL distance wrong for ({node},{portal})"
                    );
                }
                // Rule 2 condition 3: sorted by distance.
                assert!(list.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    /// Rule 1 condition 3 oracle: a recorded shortcut's shortest path must
    /// not contain another node of P; conversely, a non-adjacent portal pair
    /// whose *every* shortest path avoids P internally must be recorded.
    #[test]
    fn rule1_shortcut_membership_matches_path_structure() {
        let net = GridNetworkConfig::tiny(2).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let cfg = IndexConfig::unbounded();
        for f in p.fragment_ids() {
            let idx = build_index(&net, &p, f, &cfg);
            let sc_set: std::collections::HashSet<(u32, u32)> =
                idx.shortcuts().iter().map(|&(a, b, _)| (a.0, b.0)).collect();
            let portals = p.portals(f);
            for (i, &a) in portals.iter().enumerate() {
                for &b in &portals[i + 1..] {
                    if net.has_edge(a, b) {
                        continue;
                    }
                    // Check via a P-internal-avoiding Dijkstra whether the
                    // true shortest distance is achievable without internal
                    // P nodes.
                    let (d_true, d_avoiding) = distances_with_and_without_p(&net, &p, f, a, b);
                    let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
                    if d_avoiding == d_true && d_true != INF {
                        assert!(
                            sc_set.contains(&key),
                            "missing shortcut for portal pair ({a},{b}) d={d_true}"
                        );
                    }
                    if sc_set.contains(&key) {
                        assert_eq!(
                            d_avoiding, d_true,
                            "shortcut ({a},{b}) recorded although every shortest path \
                             crosses P internally"
                        );
                    }
                }
            }
        }
    }

    /// d(a,b) globally, and d(a,b) over paths whose internal nodes avoid
    /// fragment `f` (endpoints excluded).
    fn distances_with_and_without_p(
        net: &RoadNetwork,
        p: &Partitioning,
        f: FragmentId,
        a: NodeId,
        b: NodeId,
    ) -> (u64, u64) {
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        let d_true = ws.distance(net, a.0, b.0);
        // Avoiding search: plain Dijkstra where internal P nodes (≠ a, b)
        // are never expanded.
        use disks_roadnet::dijkstra::Control;
        let mut d_avoid = INF;
        ws.run(net, [(a.0, 0)], INF - 1, |n, d| {
            if n == b.0 {
                d_avoid = d;
                return Control::Stop;
            }
            if n != a.0 && p.fragment_of(NodeId(n)) == f {
                return Control::SkipNeighbors;
            }
            Control::Continue
        });
        (d_true, d_avoid)
    }

    #[test]
    fn figure1_example_fragments() {
        // Fragments from paper Example 4: U1 = {A, B}, U2 = {C, D, E}.
        let (net, names) = figure1_network();
        let mut assignment = vec![0u32; 5];
        for n in ["C", "D", "E"] {
            assignment[names[n].index()] = 1;
        }
        let p = Partitioning::from_assignment(&net, assignment, 2);
        let cfg = IndexConfig::unbounded().with_scope(DlScope::AllNodes);
        let idx0 = build_index(&net, &p, FragmentId(0), &cfg);
        let idx1 = build_index(&net, &p, FragmentId(1), &cfg);
        // Fragment 0 = {A, B} with edge (A,B) present: a shortcut (A,B)
        // would duplicate an original edge, so SC(P0) is empty.
        assert!(idx0.shortcuts().is_empty());
        // External nodes C, D, E get DL entries in P0.
        for n in ["C", "D", "E"] {
            assert!(idx0.dl_entry(names[n]).is_some(), "missing DL entry for {n}");
        }
        // DL(P0) entry for D (portals of P0 = {A, B}):
        // d(D,B) = 2 via the direct edge — intersects P0 only at B → (B, 2).
        // d(D,A) = 4 via both D→E→A (valid) and D→B→A (contains B ∈ P0
        // internally) — Rule 4 requires *every* shortest path to meet P0
        // only at A, so (A, 4) is NOT recorded.
        let d_entry = idx0.dl_entry(names["D"]).unwrap();
        assert_eq!(d_entry, &[(names["B"], 2)]);
        // Entry for E: d(E,A) = 1 direct → (A,1); d(E,B) = 3 only via A ∈ P0
        // internally → not recorded.
        assert_eq!(idx0.dl_entry(names["E"]).unwrap(), &[(names["A"], 1)]);
        // SC(P1): portals of P1 = {C, D, E}. C↔D: shortest C→B→D = 4 with
        // only B ∉ P1 internal → shortcut (C,D,4). C↔E: shortest C→B→A→E = 5
        // with only B,A ∉ P1 internal → shortcut (C,E,5). D↔E: the direct
        // edge (weight 3) is shortest → excluded by Rule 1 condition 2.
        let sc1: Vec<(u32, u32, u64)> =
            idx1.shortcuts().iter().map(|&(a, b, d)| (a.0, b.0, d)).collect();
        let key = |x: NodeId, y: NodeId| (x.0.min(y.0), x.0.max(y.0));
        let (cd0, cd1) = key(names["C"], names["D"]);
        let (ce0, ce1) = key(names["C"], names["E"]);
        let (de0, de1) = key(names["D"], names["E"]);
        assert!(sc1.contains(&(cd0, cd1, 4)), "SC(P1) must contain (C,D,4): {sc1:?}");
        assert!(sc1.contains(&(ce0, ce1, 5)), "SC(P1) must contain (C,E,5): {sc1:?}");
        assert!(
            !sc1.iter().any(|&(a, b, _)| (a, b) == (de0, de1)),
            "(D,E) is an original edge, Rule 1 condition 2 excludes it: {sc1:?}"
        );
        assert_eq!(sc1.len(), 2);
    }

    /// Regression: Rule 1 condition 2 is about the *weighted triple*
    /// `(A, B, d(A,B))`. An original edge (A, B) that is LONGER than the
    /// shortest external detour must not suppress the shortcut — otherwise
    /// the complete fragment only sees the suboptimal direct edge and
    /// coverage underestimates. (Found via the small-world extension; grids
    /// are near-metric, so their direct edges are always shortest.)
    #[test]
    fn longer_parallel_edge_does_not_suppress_shortcut() {
        use crate::coverage::CentralizedCoverage;
        use crate::dfunc::{DFunction, Term};
        use crate::engine::FragmentEngine;
        use disks_roadnet::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["poi"]);
        let bb = b.add_node(2.0, 0.0, &[]);
        let c = b.add_node(1.0, 1.0, &[]);
        b.add_edge(a, bb, 10).unwrap(); // direct but long
        b.add_edge(a, c, 2).unwrap();
        b.add_edge(c, bb, 3).unwrap(); // detour of length 5
        let net = b.build().unwrap();
        // P = {A, B}; C is external.
        let mut assignment = vec![0u32; 3];
        assignment[c.index()] = 1;
        let p = Partitioning::from_assignment(&net, assignment, 2);
        let idx = build_index(&net, &p, FragmentId(0), &IndexConfig::unbounded());
        assert_eq!(
            idx.shortcuts(),
            &[(a, bb, 5)],
            "the shortcut must be recorded alongside the longer original edge"
        );
        // End to end: coverage R(poi, 5) must include B.
        let poi = net.vocab().get("poi").unwrap();
        let f = DFunction::single(Term::Keyword(poi), 5);
        let mut engine = FragmentEngine::new(&net, &p, &idx).unwrap();
        let (local, _) = engine.evaluate(&f).unwrap();
        assert!(local.contains(&bb), "B is within 5 of the poi via the detour");
        let mut central = CentralizedCoverage::new(&net);
        let idx1 = build_index(&net, &p, FragmentId(1), &IndexConfig::unbounded());
        let mut engine1 = FragmentEngine::new(&net, &p, &idx1).unwrap();
        let mut got = local;
        got.extend(engine1.evaluate(&f).unwrap().0);
        got.sort_unstable();
        assert_eq!(got, central.evaluate(&f).unwrap());
    }

    /// Rule 3 tie handling: when one of two equally short paths between two
    /// portals passes through an internal node of P, the shortcut must NOT
    /// be recorded. A construction that tracks only one shortest-path tree
    /// (ignoring equal-distance merges) would record it.
    #[test]
    fn rule3_tie_suppresses_shortcut() {
        use disks_roadnet::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &["x"]);
        let y = b.add_node(2.0, 0.0, &["y"]);
        let z = b.add_node(1.0, 0.0, &["z"]); // internal to P
        let w = b.add_node(1.0, 1.0, &["w"]); // outside P
        b.add_edge(x, z, 1).unwrap();
        b.add_edge(z, y, 1).unwrap();
        b.add_edge(x, w, 1).unwrap();
        b.add_edge(w, y, 1).unwrap();
        let net = b.build().unwrap();
        // P = {x, y, z}; w is its own fragment.
        let mut assignment = vec![0u32; 4];
        assignment[w.index()] = 1;
        let p = Partitioning::from_assignment(&net, assignment, 2);
        let idx = build_index(&net, &p, FragmentId(0), &IndexConfig::unbounded());
        // d(x,y) = 2 via z (internal to P) AND via w (outside). Rule 3:
        // "ANY shortest path must not contain another node of P" fails for
        // the z path → no shortcut.
        assert!(
            idx.shortcuts().is_empty(),
            "tie through internal node must suppress the shortcut: {:?}",
            idx.shortcuts()
        );
    }

    #[test]
    fn max_r_prunes_distances() {
        let net = GridNetworkConfig::tiny(3).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let max_r = 3 * net.avg_edge_weight();
        let bounded = build_index(&net, &p, FragmentId(0), &IndexConfig::with_max_r(max_r));
        let unbounded = build_index(&net, &p, FragmentId(0), &IndexConfig::unbounded());
        assert!(bounded.distances_recorded() <= unbounded.distances_recorded());
        for &(_, _, d) in bounded.shortcuts() {
            assert!(d <= max_r);
        }
        for (_, list) in bounded.dl_entries() {
            assert!(list.iter().all(|&(_, d)| d <= max_r));
        }
    }

    #[test]
    fn objects_only_scope_prunes_junction_entries() {
        let net = GridNetworkConfig::tiny(4).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let objects = build_index(&net, &p, FragmentId(0), &IndexConfig::unbounded());
        let all = build_index(
            &net,
            &p,
            FragmentId(0),
            &IndexConfig::unbounded().with_scope(DlScope::AllNodes),
        );
        assert!(objects.dl_entries.len() <= all.dl_entries.len());
        for (node, _) in objects.dl_entries() {
            assert!(net.is_object(node), "ObjectsOnly scope leaked junction {node}");
        }
        // AllNodes is a superset on entries.
        for (node, list) in objects.dl_entries() {
            assert_eq!(all.dl_entry(node), Some(list), "entry for {node} must agree");
        }
    }

    #[test]
    fn keyword_aggregation_is_min_over_entries() {
        let net = GridNetworkConfig::tiny(5).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let idx = build_index(&net, &p, FragmentId(1), &IndexConfig::unbounded());
        // Recompute the aggregation naively and compare.
        let mut expect: HashMap<(KeywordId, u32), u64> = HashMap::new();
        for (node, list) in idx.dl_entries() {
            for &kw in net.keywords(node) {
                for &(portal, d) in list {
                    expect.entry((kw, portal.0)).and_modify(|c| *c = (*c).min(d)).or_insert(d);
                }
            }
        }
        let total: usize = idx.keyword_portals.values().map(Vec::len).sum();
        assert_eq!(total, expect.len());
        for ((kw, portal), d) in expect {
            let list = idx.keyword_portal_list(kw);
            assert!(
                list.contains(&(NodeId(portal), d)),
                "aggregated pair missing for {kw} portal {portal}"
            );
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let net = GridNetworkConfig::tiny(6).generate();
        let p = MultilevelPartitioner::default().partition(&net, 4);
        let cfg = IndexConfig::unbounded();
        let all = build_all_indexes(&net, &p, &cfg);
        assert_eq!(all.len(), 4);
        for (i, idx) in all.iter().enumerate() {
            assert_eq!(idx.fragment().index(), i);
            let solo = build_index(&net, &p, FragmentId(i as u32), &cfg);
            assert_eq!(idx.shortcuts(), solo.shortcuts());
            assert_eq!(idx.dl_pairs(), solo.dl_pairs());
        }
    }

    /// Portal-level parallelism is an implementation detail: for any thread
    /// count the assembled index is identical to the sequential build —
    /// same SC set, same DL entries (order included), same keyword
    /// aggregation, same settled count.
    #[test]
    fn portal_parallel_build_is_deterministic() {
        let net = GridNetworkConfig::tiny(8).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        for cfg in [IndexConfig::unbounded(), IndexConfig::with_max_r(4 * net.avg_edge_weight())] {
            for f in p.fragment_ids() {
                let seq = build_index(&net, &p, f, &cfg);
                for threads in [2, 3, 8] {
                    let par = build_index_with_threads(&net, &p, f, &cfg, threads);
                    assert_eq!(par.shortcuts(), seq.shortcuts(), "threads={threads}");
                    assert_eq!(par.dl_pairs(), seq.dl_pairs(), "threads={threads}");
                    let mut seq_dl: Vec<_> = seq.dl_entries().collect();
                    let mut par_dl: Vec<_> = par.dl_entries().collect();
                    seq_dl.sort_unstable_by_key(|&(n, _)| n);
                    par_dl.sort_unstable_by_key(|&(n, _)| n);
                    assert_eq!(par_dl, seq_dl, "threads={threads}");
                    assert_eq!(par.keyword_portals, seq.keyword_portals, "threads={threads}");
                    assert_eq!(par.build_settled, seq.build_settled, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn single_fragment_index_is_empty() {
        let net = GridNetworkConfig::tiny(7).generate();
        let p = Partitioning::single_fragment(&net);
        let idx = build_index(&net, &p, FragmentId(0), &IndexConfig::unbounded());
        assert_eq!(idx.distances_recorded(), 0, "no portals ⇒ empty index");
    }
}
