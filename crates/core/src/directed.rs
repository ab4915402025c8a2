//! The directed NPD-index — §2.1's "can be easily adapted for the directed
//! graph". Coverage is `R(ω, r) = { A : d(ω → A) ≤ r }`, the nodes reachable
//! from a keyword within `r` (run on [`DirectedRoadNetwork::reversed`] for
//! the nodes that can reach one), and a fragment's portals are its
//! *in-portals*, the nodes with an arc from outside. Index and engine are
//! the undirected ones; direction changes four things:
//!
//! * Algorithm 1 searches the **reversed** network from each in-portal
//!   ([`crate::index`]'s one portal search);
//! * Rule 1's original-arc test asks for the arc `u → portal`, per
//!   direction;
//! * shortcuts keep the orientation they were found in, `u → portal`;
//! * the engine's CSR ([`FragmentEngine::from_directed`]) holds out-arcs and
//!   one arc a shortcut.

use std::time::Instant;

use disks_partition::FragmentId;
use disks_roadnet::digraph::DirectedRoadNetwork;
use disks_roadnet::dijkstra::Control;
use disks_roadnet::{DijkstraWorkspace, KeywordId, NodeId, INF};

use crate::dfunc::DFunction;
use crate::engine::FragmentEngine;
use crate::error::QueryError;
use crate::index::{assemble_index, Alg1, BuildWorkspace, IndexConfig, NpdIndex};

/// A k-way node assignment over a directed network.
#[derive(Debug, Clone)]
pub struct DirectedPartition {
    assignment: Vec<u32>,
    k: usize,
    /// Per fragment: nodes with an incoming cross arc (forward entry points).
    in_portals: Vec<Vec<NodeId>>,
    /// Per fragment: member nodes.
    members: Vec<Vec<NodeId>>,
}

impl DirectedPartition {
    /// Build from a node → fragment assignment.
    ///
    /// # Panics
    /// Panics if the assignment length mismatches or a fragment id ≥ `k`.
    pub fn from_assignment(net: &DirectedRoadNetwork, assignment: Vec<u32>, k: usize) -> Self {
        assert_eq!(assignment.len(), net.num_nodes(), "assignment must label every node");
        assert!(k > 0);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, &f) in assignment.iter().enumerate() {
            assert!((f as usize) < k, "fragment id out of range");
            members[f as usize].push(NodeId(i as u32));
        }
        let mut is_in_portal = vec![false; net.num_nodes()];
        for (from, to, _) in net.arcs() {
            if assignment[from.index()] != assignment[to.index()] {
                is_in_portal[to.index()] = true;
            }
        }
        let mut in_portals: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, &p) in is_in_portal.iter().enumerate() {
            if p {
                in_portals[assignment[i] as usize].push(NodeId(i as u32));
            }
        }
        DirectedPartition { assignment, k, in_portals, members }
    }

    pub fn num_fragments(&self) -> usize {
        self.k
    }

    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    pub fn members(&self, f: u32) -> &[NodeId] {
        &self.members[f as usize]
    }

    pub fn in_portals(&self, f: u32) -> &[NodeId] {
        &self.in_portals[f as usize]
    }
}

/// The directed NPD-index of one fragment: an [`NpdIndex`] whose shortcuts
/// are arcs, out-portal → in-portal, and whose DL entries map an external
/// object `A` to `(in-portal N, d(A → N))`; the engine reads it as one.
#[derive(Debug, Clone)]
pub struct DirectedNpdIndex(pub(crate) NpdIndex);

impl DirectedNpdIndex {
    pub fn fragment(&self) -> u32 {
        self.0.fragment().0
    }

    /// Directed shortcuts `(from, to, d(from → to))`, sorted.
    pub fn shortcuts(&self) -> &[(NodeId, NodeId, u64)] {
        self.0.shortcuts()
    }

    pub fn dl_entry(&self, node: NodeId) -> Option<&[(NodeId, u64)]> {
        self.0.dl_entry(node)
    }

    pub fn distances_recorded(&self) -> usize {
        self.0.distances_recorded()
    }
}

/// Build the directed index for `fragment`: Algorithm 1 from each in-portal
/// over the reversed network, DL entries for objects only.
pub fn build_directed_index(
    net: &DirectedRoadNetwork,
    partition: &DirectedPartition,
    fragment: u32,
    max_r: u64,
) -> DirectedNpdIndex {
    let start = Instant::now();
    let alg1 = Alg1 {
        graph: &net.reversed(),
        assignment: partition.assignment(),
        fragment,
        max_r,
        original_arc: |u, portal| net.arc_weight(u, portal),
        dl_indexed: |u| net.is_object(u),
    };
    let mut ws = BuildWorkspace::new(net.num_nodes());
    let yields =
        partition.in_portals(fragment).iter().map(|&p| alg1.portal_search(p, &mut ws)).collect();
    let config = IndexConfig::with_max_r(max_r);
    // Shortcuts keep their orientation, `u → portal`.
    let index = assemble_index(
        FragmentId(fragment),
        &config,
        yields,
        |n| net.keywords(n),
        |arc| arc,
        start,
    );
    DirectedNpdIndex(index)
}

/// Centralized directed coverage (ground truth): forward multi-source
/// Dijkstra from all `ω` carriers.
pub fn directed_centralized_coverage(
    net: &DirectedRoadNetwork,
    kw: KeywordId,
    r: u64,
) -> Vec<NodeId> {
    let seeds: Vec<(u32, u64)> = net.nodes_with_keyword(kw).iter().map(|n| (n.0, 0)).collect();
    let mut ws = DijkstraWorkspace::new(net.num_nodes());
    let mut out = Vec::new();
    ws.run(&net.forward(), &seeds, r, |n, _| {
        out.push(NodeId(n));
        Control::Continue
    });
    out.sort_unstable();
    out
}

/// Distributed directed SGKQ: `⋂ R(ωᵢ, r)` evaluated on each fragment's
/// [`FragmentEngine::from_directed`] and unioned — Lemma 1 is
/// direction-agnostic.
pub fn directed_sgkq_distributed(
    net: &DirectedRoadNetwork,
    partition: &DirectedPartition,
    indexes: &[DirectedNpdIndex],
    keywords: &[KeywordId],
    r: u64,
) -> Result<Vec<NodeId>, QueryError> {
    if keywords.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    let max_r = indexes.iter().map(|idx| idx.0.max_r()).min().unwrap_or(INF);
    if r > max_r {
        return Err(QueryError::RadiusExceedsMaxR { r, max_r });
    }
    let f = DFunction::intersection_of(keywords, r);
    let mut results = Vec::new();
    for idx in indexes {
        let mut engine = FragmentEngine::from_directed(net, partition, idx)
            .map_err(|e| QueryError::Engine(e.to_string()))?;
        results.extend(engine.evaluate(&f)?.0);
    }
    results.sort_unstable();
    Ok(results)
}

/// Centralized directed SGKQ for cross-checking.
pub fn directed_sgkq_centralized(
    net: &DirectedRoadNetwork,
    keywords: &[KeywordId],
    r: u64,
) -> Result<Vec<NodeId>, QueryError> {
    if keywords.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    let mut acc: Option<Vec<NodeId>> = None;
    for &kw in keywords {
        let cov = directed_centralized_coverage(net, kw, r);
        acc = Some(match acc {
            None => cov,
            Some(prev) => prev.into_iter().filter(|n| cov.binary_search(n).is_ok()).collect(),
        });
    }
    Ok(acc.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CentralizedCoverage;
    use crate::dfunc::Term;
    use crate::index::build_index;
    use crate::query::{RangeKeywordQuery, SgkQuery};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::digraph::DirectedRoadNetworkBuilder;
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::RoadNetwork;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One-way ring with a keyword at one node: coverage is strongly
    /// asymmetric (only "downstream" nodes are covered).
    #[test]
    fn one_way_ring_coverage_is_downstream_only() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let nodes: Vec<NodeId> = (0..6)
            .map(|i| {
                if i == 0 {
                    b.add_node(i as f32, 0.0, &["cafe"])
                } else {
                    b.add_node(i as f32, 0.0, &[])
                }
            })
            .collect();
        for i in 0..6 {
            b.add_arc(nodes[i], nodes[(i + 1) % 6], 1).unwrap();
        }
        let net = b.build().unwrap();
        let cafe = net.vocab().get("cafe").unwrap();
        // r = 2 covers nodes 0, 1, 2 only (downstream of the arc direction).
        let cov = directed_centralized_coverage(&net, cafe, 2);
        assert_eq!(cov, vec![nodes[0], nodes[1], nodes[2]]);
        // Distributed over fragments {0,1,2} and {3,4,5}.
        let partition = DirectedPartition::from_assignment(&net, vec![0, 0, 0, 1, 1, 1], 2);
        let indexes: Vec<_> =
            (0..2).map(|f| build_directed_index(&net, &partition, f, INF)).collect();
        let got = directed_sgkq_distributed(&net, &partition, &indexes, &[cafe], 2).unwrap();
        assert_eq!(got, cov);
    }

    /// Antiparallel arcs with different weights: the directed Rule 1
    /// condition-2 must compare arc weight per direction.
    #[test]
    fn asymmetric_antiparallel_arcs_are_handled() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["poi"]);
        let x = b.add_node(1.0, 0.0, &[]);
        let c = b.add_node(2.0, 0.0, &[]);
        // a→x fast (1), x→a slow (10); x→c 1, c→x 1; a→c direct slow (9),
        // detour a→x→c = 2.
        b.add_arc(a, x, 1).unwrap();
        b.add_arc(x, a, 10).unwrap();
        b.add_road(x, c, 1).unwrap();
        b.add_arc(a, c, 9).unwrap();
        let net = b.build().unwrap();
        let poi = net.vocab().get("poi").unwrap();
        // P = {a, c}; x external. d(a→c) = 2 via x.
        let partition = DirectedPartition::from_assignment(&net, vec![0, 1, 0], 2);
        let idx = build_directed_index(&net, &partition, 0, INF);
        assert!(
            idx.shortcuts().contains(&(a, c, 2)),
            "directed shortcut a→c=2 required despite the slower direct arc: {:?}",
            idx.shortcuts()
        );
        let indexes: Vec<_> =
            (0..2).map(|f| build_directed_index(&net, &partition, f, INF)).collect();
        for r in 0..=4 {
            let got = directed_sgkq_distributed(&net, &partition, &indexes, &[poi], r).unwrap();
            assert_eq!(got, directed_centralized_coverage(&net, poi, r), "r={r}");
        }
    }

    /// Randomized cross-check: random directed graphs, random assignments,
    /// random radii — distributed == centralized.
    #[test]
    fn randomized_directed_distributed_equals_centralized() {
        let mut rng = StdRng::seed_from_u64(0xD12EC7);
        for trial in 0..60 {
            let n = rng.gen_range(5..30usize);
            let mut b = DirectedRoadNetworkBuilder::new();
            let words = ["p", "q", "s"];
            let nodes: Vec<NodeId> = (0..n)
                .map(|i| {
                    let kws: Vec<&str> = if rng.gen_bool(0.4) {
                        vec![words[rng.gen_range(0..words.len())]]
                    } else {
                        vec![]
                    };
                    b.add_node(i as f32, 0.0, &kws)
                })
                .collect();
            // Cycle spine for reachability variety + random extra arcs.
            for i in 0..n {
                b.add_arc(nodes[i], nodes[(i + 1) % n], rng.gen_range(1..10)).unwrap();
            }
            for _ in 0..rng.gen_range(0..2 * n) {
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                if x != y {
                    b.add_arc(nodes[x], nodes[y], rng.gen_range(1..10)).unwrap();
                }
            }
            let net = b.build().unwrap();
            let k = rng.gen_range(1..4usize);
            let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
            let partition = DirectedPartition::from_assignment(&net, assignment, k);
            let max_r = if rng.gen_bool(0.5) { INF } else { rng.gen_range(5..60) };
            let indexes: Vec<_> =
                (0..k as u32).map(|f| build_directed_index(&net, &partition, f, max_r)).collect();
            let keywords: Vec<KeywordId> =
                words.iter().filter_map(|w| net.vocab().get(w)).take(rng.gen_range(1..3)).collect();
            if keywords.is_empty() {
                continue; // no node drew a keyword this trial
            }
            let r = rng.gen_range(0..40).min(max_r);
            let got = directed_sgkq_distributed(&net, &partition, &indexes, &keywords, r)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let expect = directed_sgkq_centralized(&net, &keywords, r).unwrap();
            assert_eq!(got, expect, "trial {trial} r={r} maxR={max_r} k={k}");
            if max_r == INF {
                continue;
            }
            // A bounded engine keeps each keyword's first search: the same
            // SGKQ again is list cuts, with the same answer.
            let f = DFunction::intersection_of(&keywords, r);
            for idx in &indexes {
                let mut engine = FragmentEngine::from_directed(&net, &partition, idx).unwrap();
                let (first, _) = engine.evaluate(&f).unwrap();
                let (second, cost) = engine.evaluate(&f).unwrap();
                assert_eq!((second, cost.settled), (first, 0), "trial {trial}");
            }
        }
    }

    /// One arc `a → c` of weight 1, `a` bearing `x`, as one fragment.
    fn one_arc() -> (DirectedRoadNetwork, DirectedPartition) {
        let mut b = DirectedRoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["x"]);
        let c = b.add_node(1.0, 0.0, &[]);
        b.add_arc(a, c, 1).unwrap();
        let net = b.build().unwrap();
        let partition = DirectedPartition::from_assignment(&net, vec![0, 0], 1);
        (net, partition)
    }

    #[test]
    fn empty_keywords_rejected() {
        let (net, partition) = one_arc();
        let indexes = vec![build_directed_index(&net, &partition, 0, INF)];
        assert!(matches!(
            directed_sgkq_distributed(&net, &partition, &indexes, &[], 5),
            Err(QueryError::EmptyQuery)
        ));
    }

    /// A radius beyond the index's `maxR` is refused before any engine is
    /// built, with the index's real bound.
    #[test]
    fn radius_above_max_r_rejected() {
        let (net, partition) = one_arc();
        let x = net.vocab().get("x").unwrap();
        let indexes = vec![build_directed_index(&net, &partition, 0, 4)];
        let sgkq = |r| directed_sgkq_distributed(&net, &partition, &indexes, &[x], r);
        assert_eq!(sgkq(5), Err(QueryError::RadiusExceedsMaxR { r: 5, max_r: 4 }));
        assert_eq!(sgkq(4), Ok(vec![NodeId(0), NodeId(1)]));
    }

    /// A directed keyword list holds `d(ω → v)`, no lower bound on how far
    /// `v` is from `ω`'s bearers, so a directed engine's location search
    /// takes no floor from it. One fragment `u ← l → v → a`, `u → w`, unit
    /// arcs, `a` the one bearer of `x` and without out-arcs: `x`'s list is
    /// `a` alone, and a floor read off it would refuse every push from `l`.
    /// The RKQ `R(l, 3) ∩ R(x, 0)` is the oracle's `{a}`, and since `a` is
    /// the farthest node within 3 the search settles what the plain search
    /// does.
    #[test]
    fn a_directed_location_search_takes_no_floor_from_a_keyword_list() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let [l, u, v, w] = [0.0, 1.0, 2.0, 3.0].map(|at| b.add_node(at, 0.0, &["o"]));
        let a = b.add_node(4.0, 0.0, &["x"]);
        for (from, to) in [(l, u), (u, w), (l, v), (v, a)] {
            b.add_arc(from, to, 1).unwrap();
        }
        let net = b.build().unwrap();
        let partition = DirectedPartition::from_assignment(&net, vec![0; 5], 1);
        let index = build_directed_index(&net, &partition, 0, 5);
        let mut engine = FragmentEngine::from_directed(&net, &partition, &index).unwrap();
        let x = net.vocab().get("x").unwrap();
        let f = RangeKeywordQuery::new(l, vec![x], 3).to_dfunction();

        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        let mut expect = Vec::new();
        ws.run(&net.forward(), [(l.0, 0)], 3, |n, _| {
            expect.extend(net.nodes_with_keyword(x).iter().filter(|b| b.0 == n));
            Control::Continue
        });
        assert_eq!(expect, [a]);
        for _ in 0..2 {
            let (got, cost) = engine.evaluate(&f).unwrap();
            assert_eq!(got, expect);
            let node = cost.per_slot.iter().find(|s| s.term == Term::Node(l)).unwrap();
            let (_, plain) = engine.coverage(Term::Node(l), 3).unwrap();
            assert_eq!((node.settled, plain.settled), (5, 5), "{node:?}");
        }
    }

    /// `net` with both arcs for each edge, node ids and keyword ids kept
    /// (the vocabulary is interned in id order first).
    fn two_way(net: &RoadNetwork) -> DirectedRoadNetwork {
        let mut b = DirectedRoadNetworkBuilder::new();
        for (_, word) in net.vocab().iter() {
            b.vocab_mut().intern(word);
        }
        for n in net.node_ids() {
            let (x, y) = net.coord(n);
            let words: Vec<&str> =
                net.keywords(n).iter().map(|&k| net.vocab().word(k).unwrap()).collect();
            b.add_node(x, y, &words);
        }
        for (a, c, w) in net.edges() {
            b.add_road(a, c, w).unwrap();
        }
        b.build().unwrap()
    }

    /// Direction is the only difference: an undirected network rebuilt with
    /// both arcs for each edge gets the undirected index, each shortcut as
    /// its two arcs, and directed engines answer as undirected ones do.
    #[test]
    fn a_two_way_network_is_the_undirected_network() {
        let net = GridNetworkConfig::tiny(1).generate();
        let dnet = two_way(&net);
        let ebar = net.avg_edge_weight();
        let mut oracle = CentralizedCoverage::new(&net);
        let words: Vec<KeywordId> = net.vocab().iter().map(|(k, _)| k).collect();
        let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).take(8).collect();
        for k in [2, 3, 4] {
            let p = MultilevelPartitioner::default().partition(&net, k);
            let dp = DirectedPartition::from_assignment(&dnet, p.assignment().to_vec(), k);
            for max_r in [INF, 8 * ebar, 3 * ebar] {
                let cfg = IndexConfig::with_max_r(max_r);
                let mut undirected = Vec::new();
                let mut directed = Vec::new();
                for f in p.fragment_ids() {
                    let (idx, didx) = (
                        build_index(&net, &p, f, &cfg),
                        build_directed_index(&dnet, &dp, f.0, max_r),
                    );
                    let at = format!("k={k} maxR={max_r} {f}");
                    let mut arcs: Vec<_> =
                        idx.sc.iter().flat_map(|&(a, b, d)| [(a, b, d), (b, a, d)]).collect();
                    arcs.sort_unstable();
                    assert_eq!(didx.shortcuts(), arcs, "{at}");
                    assert_eq!(didx.0.dl_entries, idx.dl_entries, "{at}");
                    assert_eq!(didx.0.keyword_portals, idx.keyword_portals, "{at}");
                    let recorded = 2 * idx.sc.len() + idx.dl_pairs();
                    assert_eq!(didx.distances_recorded(), recorded, "{at}");
                    undirected.push(FragmentEngine::new(&net, &p, &idx).unwrap());
                    directed.push(FragmentEngine::from_directed(&dnet, &dp, &didx).unwrap());
                }
                let mut queries = Vec::new();
                for r in [0, ebar, 3 * ebar, 8 * ebar].into_iter().filter(|&r| r <= max_r) {
                    for pair in words.windows(2) {
                        queries.push(SgkQuery::new(pair.to_vec(), r).to_dfunction());
                    }
                    queries.push(SgkQuery::new(words[..3].to_vec(), r).to_dfunction());
                    for &l in &objects {
                        let kw = net.keywords(l)[0];
                        queries.push(RangeKeywordQuery::new(l, vec![kw], r).to_dfunction());
                    }
                }
                for f in &queries {
                    let expect = oracle.evaluate(f).unwrap();
                    for engines in [&mut undirected, &mut directed] {
                        let mut got: Vec<NodeId> =
                            engines.iter_mut().flat_map(|e| e.evaluate(f).unwrap().0).collect();
                        got.sort_unstable();
                        assert_eq!(got, expect, "k={k} maxR={max_r} {f:?}");
                    }
                }
            }
        }
    }
}
