//! Directed NPD-index — the paper's §2.1 adaptation, made concrete.
//!
//! Everything mirrors the undirected construction with directions made
//! explicit:
//!
//! * **Coverage direction.** `R(ω, r) = { A : d(ω → A) ≤ r }` — nodes
//!   *reachable from* a keyword node within `r`, which is exactly the
//!   paper's virtual-node formulation (virtual `W` with arcs `W → keyword
//!   nodes`, forward Dijkstra). For the opposite semantics ("nodes that can
//!   reach a keyword") run the same machinery on [`DirectedRoadNetwork::reversed`].
//! * **Portals.** An *in-portal* of fragment `P` is a node of `P` with an
//!   incoming arc from outside; an *out-portal* has an outgoing arc to
//!   outside. Forward paths enter `P` through in-portals and leave through
//!   out-portals.
//! * **DL(P).** For an external keyword node `A`: `(N, d(A→N))` for
//!   in-portals `N` whose every shortest `A→N` path meets `P` only at `N`.
//! * **SC(P).** Directed shortcuts `u → N` (out-portal → in-portal) for
//!   paths that leave and re-enter `P` with no internal `P` node, excluding
//!   original arcs of equal weight (the directed Rule 1, including the
//!   weighted-triple condition 2).
//!
//! Both components fall out of one backward search per in-portal over the
//! **reversed** graph — the directed analogue of Algorithm 1 — so the
//! construction remains fragment-wise and the query remains one-round and
//! communication-free.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use disks_roadnet::digraph::DirectedRoadNetwork;
use disks_roadnet::dijkstra::Control;
use disks_roadnet::{DijkstraWorkspace, Graph, KeywordId, NodeId, Weight, INF};

use crate::error::{IndexError, QueryError};

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

/// The directed NPD-index of one fragment.
#[derive(Debug, Clone)]
pub struct DirectedNpdIndex {
    fragment: u32,
    max_r: u64,
    /// Directed shortcuts `(from, to, d(from→to))`, out-portal → in-portal.
    sc: Vec<(NodeId, NodeId, u64)>,
    /// External object node → sorted `(in-portal, d(node→portal))`.
    dl_entries: HashMap<NodeId, Vec<(NodeId, u64)>>,
    /// Keyword → per-in-portal minimum `d(ω→portal)` over external carriers.
    keyword_portals: HashMap<KeywordId, Vec<(NodeId, u64)>>,
}

impl DirectedNpdIndex {
    pub fn fragment(&self) -> u32 {
        self.fragment
    }

    pub fn shortcuts(&self) -> &[(NodeId, NodeId, u64)] {
        &self.sc
    }

    pub fn dl_entry(&self, node: NodeId) -> Option<&[(NodeId, u64)]> {
        self.dl_entries.get(&node).map(Vec::as_slice)
    }

    pub fn distances_recorded(&self) -> usize {
        self.sc.len() + self.dl_entries.values().map(Vec::len).sum::<usize>()
    }
}

/// Build the directed index for `fragment`: one bounded Dijkstra per
/// in-portal over the reversed graph, with the Rules 3/4 tie-merging flag.
pub fn build_directed_index(
    net: &DirectedRoadNetwork,
    partition: &DirectedPartition,
    fragment: u32,
    max_r: u64,
) -> DirectedNpdIndex {
    let assignment = partition.assignment();
    let n = net.num_nodes();
    let reversed = net.reversed();
    let mut dist = vec![INF; n];
    let mut reentered = vec![false; n];
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    let mut sc: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let mut dl_entries: HashMap<NodeId, Vec<(NodeId, u64)>> = HashMap::new();

    for &portal in partition.in_portals(fragment) {
        epoch += 1;
        heap.clear();
        let source = portal.0;
        dist[source as usize] = 0;
        stamp[source as usize] = epoch;
        reentered[source as usize] = false;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if stamp[u as usize] != epoch || d > dist[u as usize] {
                continue;
            }
            // Mark settled by leaving dist as-is; stale entries are filtered
            // by the distance comparison above.
            let u_reentered = reentered[u as usize];
            if u != source && !u_reentered {
                if assignment[u as usize] == fragment {
                    // Directed Rule 1: shortcut u → portal, unless an
                    // original arc of exactly this weight exists.
                    if net.arc_weight(NodeId(u), portal).map(u64::from) != Some(d) {
                        sc.push((NodeId(u), portal, d));
                    }
                } else if net.is_object(NodeId(u)) {
                    dl_entries.entry(NodeId(u)).or_default().push((portal, d));
                }
            }
            let flag_through_u = u_reentered || (u != source && assignment[u as usize] == fragment);
            reversed.for_each_neighbor(u, &mut |v, w| {
                let nd = d.saturating_add(u64::from(w));
                if nd > max_r {
                    return;
                }
                let vi = v as usize;
                let cur = if stamp[vi] == epoch { dist[vi] } else { INF };
                match nd.cmp(&cur) {
                    std::cmp::Ordering::Less => {
                        dist[vi] = nd;
                        stamp[vi] = epoch;
                        reentered[vi] = flag_through_u;
                        heap.push(Reverse((nd, v)));
                    }
                    std::cmp::Ordering::Equal => {
                        // Rules 3/4: merge across equal shortest paths.
                        reentered[vi] |= flag_through_u;
                    }
                    std::cmp::Ordering::Greater => {}
                }
            });
        }
    }
    sc.sort_unstable();
    sc.dedup();
    for list in dl_entries.values_mut() {
        list.sort_unstable_by_key(|&(p, d)| (d, p.0));
    }
    let mut kw_min: HashMap<(KeywordId, u32), u64> = HashMap::new();
    for (&node, list) in &dl_entries {
        for &kw in net.keywords(node) {
            for &(portal, d) in list {
                kw_min.entry((kw, portal.0)).and_modify(|c| *c = (*c).min(d)).or_insert(d);
            }
        }
    }
    let mut keyword_portals: HashMap<KeywordId, Vec<(NodeId, u64)>> = HashMap::new();
    for ((kw, portal), d) in kw_min {
        keyword_portals.entry(kw).or_default().push((NodeId(portal), d));
    }
    for list in keyword_portals.values_mut() {
        list.sort_unstable_by_key(|&(p, d)| (d, p.0));
    }
    DirectedNpdIndex { fragment, max_r, sc, dl_entries, keyword_portals }
}

/// The directed per-fragment engine: local directed CSR (intra-fragment
/// arcs + SC arcs) with DL-seeded forward coverage.
pub struct DirectedFragmentEngine {
    fragment: u32,
    max_r: u64,
    globals: Vec<NodeId>,
    /// Local directed CSR, `(head, weight)` interleaved.
    adj_offsets: Vec<u32>,
    adj: Vec<(u32, Weight)>,
    /// Lightest arc of `adj`, SC arcs included.
    min_arc_weight: Weight,
    kw_nodes: HashMap<KeywordId, Vec<u32>>,
    keyword_portals: HashMap<KeywordId, Vec<(u32, u64)>>,
    ws: DijkstraWorkspace,
}

impl Graph for DirectedFragmentEngine {
    fn num_nodes(&self) -> usize {
        self.globals.len()
    }

    fn min_arc_weight(&self) -> Weight {
        self.min_arc_weight
    }

    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, Weight)) {
        let lo = self.adj_offsets[node as usize] as usize;
        let hi = self.adj_offsets[node as usize + 1] as usize;
        for &(v, w) in &self.adj[lo..hi] {
            f(v, w);
        }
    }
}

impl DirectedFragmentEngine {
    pub fn new(
        net: &DirectedRoadNetwork,
        partition: &DirectedPartition,
        index: &DirectedNpdIndex,
    ) -> Result<Self, IndexError> {
        let fragment = index.fragment;
        let globals: Vec<NodeId> = partition.members(fragment).to_vec();
        let mut local_of = HashMap::with_capacity(globals.len());
        for (i, &g) in globals.iter().enumerate() {
            local_of.insert(g.0, i as u32);
        }
        let mut lists: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); globals.len()];
        for (i, &g) in globals.iter().enumerate() {
            for (to, w) in net.out_neighbors(g) {
                if let Some(&lt) = local_of.get(&to.0) {
                    lists[i].push((lt, w));
                }
            }
        }
        for &(from, to, d) in &index.sc {
            let w = Weight::try_from(d).map_err(|_| IndexError::WeightOverflow { distance: d })?;
            lists[local_of[&from.0] as usize].push((local_of[&to.0], w));
        }
        let (adj_offsets, adj, min_arc_weight) = crate::engine::interleaved_csr(&lists);
        let mut kw_nodes: HashMap<KeywordId, Vec<u32>> = HashMap::new();
        for (i, &g) in globals.iter().enumerate() {
            for &k in net.keywords(g) {
                kw_nodes.entry(k).or_default().push(i as u32);
            }
        }
        let keyword_portals = index
            .keyword_portals
            .iter()
            .map(|(&kw, list)| {
                (kw, list.iter().map(|&(p, d)| (local_of[&p.0], d)).collect::<Vec<_>>())
            })
            .collect();
        let nl = globals.len();
        Ok(DirectedFragmentEngine {
            fragment,
            max_r: index.max_r,
            globals,
            adj_offsets,
            adj,
            min_arc_weight,
            kw_nodes,
            keyword_portals,
            ws: DijkstraWorkspace::new(nl),
        })
    }

    pub fn fragment(&self) -> u32 {
        self.fragment
    }

    /// Local directed coverage `R(ω, r) ∩ P` (global node ids, sorted).
    pub fn coverage(&mut self, kw: KeywordId, r: u64) -> Result<Vec<NodeId>, QueryError> {
        if r > self.max_r {
            return Err(QueryError::RadiusExceedsMaxR { r, max_r: self.max_r });
        }
        let mut seeds: Vec<(u32, u64)> = Vec::new();
        if let Some(locals) = self.kw_nodes.get(&kw) {
            seeds.extend(locals.iter().map(|&n| (n, 0)));
        }
        if let Some(pairs) = self.keyword_portals.get(&kw) {
            for &(portal, d) in pairs {
                if d > r {
                    break;
                }
                seeds.push((portal, d));
            }
        }
        let mut covered = Vec::new();
        let mut ws = std::mem::replace(&mut self.ws, DijkstraWorkspace::new(0));
        ws.run(&*self, &seeds, r, |n, _| {
            covered.push(self.globals[n as usize]);
            Control::Continue
        });
        self.ws = ws;
        covered.sort_unstable();
        Ok(covered)
    }

    /// Use by tests: the local ids of this fragment.
    pub fn num_local_nodes(&self) -> usize {
        self.globals.len()
    }
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

/// Distributed directed SGKQ (intersection of per-keyword coverages),
/// evaluated per fragment and unioned — Lemma 1 is direction-agnostic.
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
    let mut results = Vec::new();
    for idx in indexes {
        let mut engine = DirectedFragmentEngine::new(net, partition, idx)
            .map_err(|e| QueryError::Engine(e.to_string()))?;
        let mut acc: Option<Vec<NodeId>> = None;
        for &kw in keywords {
            let cov = engine.coverage(kw, r)?;
            acc = Some(match acc {
                None => cov,
                Some(prev) => prev.into_iter().filter(|n| cov.binary_search(n).is_ok()).collect(),
            });
        }
        results.extend(acc.unwrap_or_default());
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
    use disks_roadnet::digraph::DirectedRoadNetworkBuilder;
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
        }
    }

    #[test]
    fn empty_keywords_rejected() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["x"]);
        let c = b.add_node(1.0, 0.0, &[]);
        b.add_arc(a, c, 1).unwrap();
        let net = b.build().unwrap();
        let partition = DirectedPartition::from_assignment(&net, vec![0, 0], 1);
        let indexes = vec![build_directed_index(&net, &partition, 0, INF)];
        assert!(matches!(
            directed_sgkq_distributed(&net, &partition, &indexes, &[], 5),
            Err(QueryError::EmptyQuery)
        ));
    }
}
