//! Theorem-shaped integration tests: each of the paper's formal claims is
//! checked computationally on generated networks.

use disks::cluster::{Cluster, ClusterConfig};
use disks::core::engine::FragmentEngine;
use disks::core::{build_all_indexes, build_index, DFunction, DlScope, IndexConfig, Term};
use disks::partition::{FragmentId, MultilevelPartitioner, Partitioner};
use disks::roadnet::dijkstra::Control;
use disks::roadnet::generator::GridNetworkConfig;
use disks::roadnet::{DijkstraWorkspace, Graph, KeywordId, NodeId, RoadNetwork, INF};

/// Theorem 1: `P ∪ SC(P)` is a complete fragment — for every pair of nodes
/// inside a fragment with global distance ≤ maxR, the distance computed on
/// the local subgraph + shortcuts equals the global distance.
#[test]
fn theorem1_complete_fragment_distances_are_exact() {
    let net = GridNetworkConfig::tiny(600).generate();
    let e = net.avg_edge_weight();
    let max_r = 15 * e;
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let mut global_ws = DijkstraWorkspace::new(net.num_nodes());

    for f in p.fragment_ids() {
        let idx = build_index(&net, &p, f, &IndexConfig::with_max_r(max_r));
        let local = LocalWithShortcuts::new(&net, &p, f, idx.shortcuts());
        let mut local_ws = DijkstraWorkspace::new(net.num_nodes());
        let members = p.nodes(f);
        for &a in members.iter().take(12) {
            // Global bounded distances from a.
            let global: std::collections::HashMap<u32, u64> =
                global_ws.distances_from(&net, a.0, max_r).into_iter().collect();
            let local_d: std::collections::HashMap<u32, u64> =
                local_ws.distances_from(&local, a.0, max_r).into_iter().collect();
            for &b in members {
                let g = global.get(&b.0).copied().unwrap_or(INF);
                let l = local_d.get(&b.0).copied().unwrap_or(INF);
                if g <= max_r {
                    assert_eq!(l, g, "fragment {f}: d({a},{b})");
                } else {
                    assert!(l >= g, "local graph may never underestimate");
                }
            }
        }
    }
}

/// Theorem 3: with SC + DL, the distance from any DL-indexed node to any
/// node of the fragment is computable locally — exercised end to end by
/// seeding the local search with the DL entry.
#[test]
fn theorem3_cross_fragment_distances_are_exact() {
    let net = GridNetworkConfig::tiny(601).generate();
    let e = net.avg_edge_weight();
    let max_r = 12 * e;
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let cfg = IndexConfig::with_max_r(max_r).with_scope(DlScope::AllNodes);
    let mut global_ws = DijkstraWorkspace::new(net.num_nodes());

    for f in p.fragment_ids() {
        let idx = build_index(&net, &p, f, &cfg);
        let local = LocalWithShortcuts::new(&net, &p, f, idx.shortcuts());
        let mut local_ws = DijkstraWorkspace::new(net.num_nodes());
        let externals: Vec<NodeId> =
            net.node_ids().filter(|&n| p.fragment_of(n) != f).take(10).collect();
        for a in externals {
            let global: std::collections::HashMap<u32, u64> =
                global_ws.distances_from(&net, a.0, max_r).into_iter().collect();
            // Seed the local search with the DL entry for `a` (Alg. 2 step 3).
            let seeds: Vec<(u32, u64)> = idx
                .dl_entry(a)
                .map(|list| list.iter().map(|&(portal, d)| (portal.0, d)).collect())
                .unwrap_or_default();
            let mut reached: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
            local_ws.run(&local, &seeds, max_r, |n, d| {
                reached.insert(n, d);
                Control::Continue
            });
            for &b in p.nodes(f) {
                let g = global.get(&b.0).copied().unwrap_or(INF);
                let l = reached.get(&b.0).copied().unwrap_or(INF);
                if g <= max_r {
                    assert_eq!(l, g, "fragment {f}: d({a},{b}) via DL");
                } else {
                    assert!(l >= g);
                }
            }
        }
    }
}

/// Theorem 2/4 (minimality, empirical form): every SC shortcut and every DL
/// pair is *necessary* — removing it breaks exactness for some pair. We
/// check the contrapositive cheaply: no SC shortcut duplicates an original
/// edge or another recorded distance, and no DL pair is dominated by
/// another pair of the same entry combined with SC distances.
#[test]
fn theorem2_4_no_redundant_distances_recorded() {
    let net = GridNetworkConfig::tiny(602).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    for f in p.fragment_ids() {
        let idx = build_index(&net, &p, f, &IndexConfig::unbounded());
        let local = LocalWithShortcuts::new(&net, &p, f, idx.shortcuts());
        // SC minimality: dropping shortcut i must change some local distance
        // between its endpoints (i.e. the remaining graph is strictly worse).
        for (i, &(a, b, d)) in idx.shortcuts().iter().enumerate() {
            let mut rest: Vec<(NodeId, NodeId, u64)> = idx.shortcuts().to_vec();
            rest.remove(i);
            let reduced = LocalWithShortcuts::new(&net, &p, f, &rest);
            let mut ws = DijkstraWorkspace::new(net.num_nodes());
            let with = ws.distance(&local, a.0, b.0);
            let without = ws.distance(&reduced, a.0, b.0);
            assert_eq!(with, d);
            assert!(
                without > d,
                "shortcut ({a},{b},{d}) in fragment {f} is redundant (still {without})"
            );
        }
        // DL entries: within an entry, each portal pair must not be
        // dominated: d(A,N_i) < d(A,N_j) + d(N_j,N_i) for recorded pairs
        // would be violated only if the path through N_j avoided P — which
        // Rule 2 excludes. Check the recorded list is strictly increasing in
        // the sense that no pair is *equal or worse* than routing through an
        // earlier recorded portal within the complete fragment.
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        for (node, list) in idx.dl_entries() {
            for (i, &(ni, di)) in list.iter().enumerate() {
                for &(nj, dj) in &list[..i] {
                    let between = ws.distance(&local, nj.0, ni.0);
                    assert!(
                        di <= dj.saturating_add(between),
                        "DL pair ({node},{ni}) is dominated via {nj}"
                    );
                }
            }
        }
    }
}

/// Theorem 6: the measured unbalance factor U is bounded by
/// `1 + max cost / min cost` over the per-fragment task costs.
#[test]
fn theorem6_unbalance_factor_bound() {
    let net = GridNetworkConfig::small(603).generate();
    let e = net.avg_edge_weight();
    let p = MultilevelPartitioner::default().partition(&net, 6);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(40 * e));
    let cluster = Cluster::build(&net, &p, indexes, ClusterConfig::default());
    let freqs = net.keyword_frequencies();
    let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
    let q = disks::core::SgkQuery::new(vec![top], 10 * e);
    let outcome = cluster.run_sgkq(&q).unwrap();
    let busy: Vec<_> =
        outcome.stats.per_machine.iter().filter(|m| !m.fragments.is_empty()).collect();
    let max = busy.iter().map(|m| m.compute).max().unwrap();
    let min = busy.iter().map(|m| m.compute).min().unwrap();
    let bound = 1.0 + max.as_secs_f64() / min.as_secs_f64().max(1e-12);
    assert!(
        outcome.stats.unbalance_factor <= bound + 1e-9,
        "U = {} exceeds Theorem 6 bound {}",
        outcome.stats.unbalance_factor,
        bound
    );
    cluster.shutdown();
}

/// Theorem 5 accounting: α ≤ DL pairs of the index, β = |SC|, and the
/// engine's settled count is bounded by fragment size per term.
#[test]
fn theorem5_cost_model_bounds() {
    let net = GridNetworkConfig::tiny(604).generate();
    let e = net.avg_edge_weight();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let cfg = IndexConfig::with_max_r(40 * e);
    let indexes = build_all_indexes(&net, &p, &cfg);
    let freqs = net.keyword_frequencies();
    let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
    for idx in &indexes {
        let mut engine = FragmentEngine::new(&net, &p, idx).unwrap();
        let f = DFunction::single(Term::Keyword(top), 10 * e);
        let (_, cost) = engine.evaluate(&f).unwrap();
        assert_eq!(cost.beta, idx.shortcuts().len());
        assert!(cost.alpha <= idx.keyword_portal_list(top).len());
        assert!(cost.settled <= engine.num_local_nodes());
        assert!(cost.coverage_nodes <= engine.num_local_nodes());
    }
}

/// A read-only view of a fragment's subgraph plus a set of shortcut edges —
/// the literal `P ∪ SC(P)` object of the theorems.
struct LocalWithShortcuts<'a> {
    net: &'a RoadNetwork,
    assignment: &'a [u32],
    fragment: u32,
    extra: Vec<Vec<(u32, u32)>>,
    min_weight: u32,
}

impl<'a> LocalWithShortcuts<'a> {
    fn new(
        net: &'a RoadNetwork,
        p: &'a disks::partition::Partitioning,
        f: FragmentId,
        shortcuts: &[(NodeId, NodeId, u64)],
    ) -> Self {
        let mut extra: Vec<Vec<(u32, u32)>> = vec![Vec::new(); net.num_nodes()];
        let mut min_weight = net.min_arc_weight();
        for &(a, b, d) in shortcuts {
            let w = u32::try_from(d).expect("shortcut weight fits u32");
            extra[a.index()].push((b.0, w));
            extra[b.index()].push((a.0, w));
            min_weight = min_weight.min(w);
        }
        LocalWithShortcuts { net, assignment: p.assignment(), fragment: f.0, extra, min_weight }
    }
}

impl Graph for LocalWithShortcuts<'_> {
    fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    fn min_arc_weight(&self) -> u32 {
        self.min_weight
    }

    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, u32)) {
        if self.assignment[node as usize] != self.fragment {
            return;
        }
        for (u, w) in self.net.neighbors(NodeId(node)) {
            if self.assignment[u.index()] == self.fragment {
                f(u.0, w);
            }
        }
        for &(u, w) in &self.extra[node as usize] {
            f(u, w);
        }
    }
}
