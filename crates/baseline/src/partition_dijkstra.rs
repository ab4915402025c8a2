//! Partition-based iterative-correcting shortest paths (Tang et al. \[23\]).
//!
//! Each fragment runs a *local* Dijkstra restricted to its own subgraph from
//! whatever seed distances it currently has. Then a boundary-exchange round
//! relaxes every cut edge: if `dist[u] + w < dist[v]` for a cut edge
//! `(u, v)`, fragment `part(v)` receives the corrected seed and must re-run
//! its local Dijkstra. Rounds repeat until no cut edge improves — the
//! "iterative correcting" of \[23\]. Every correction message crossing a
//! fragment boundary is counted; the paper's point (§2.3) is precisely that
//! such schemes "need multiple rounds of communications between machines".

use disks_partition::Partitioning;
use disks_roadnet::dijkstra::Control;
use disks_roadnet::{DijkstraWorkspace, Graph, KeywordId, NodeId, RoadNetwork, Weight, INF};

/// Accounting for one iterative-correcting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterativeStats {
    /// Boundary-exchange rounds until fixpoint (≥ 1).
    pub rounds: usize,
    /// Correction messages crossing fragment boundaries.
    pub boundary_messages: u64,
    /// Bytes of those messages (12 bytes: vertex u32 + distance u64).
    pub boundary_bytes: u64,
    /// Local Dijkstra re-runs across fragments.
    pub local_runs: u64,
}

/// A view of one fragment's subgraph (edges with both ends inside).
struct FragmentView<'a> {
    net: &'a RoadNetwork,
    assignment: &'a [u32],
    fragment: u32,
}

impl Graph for FragmentView<'_> {
    fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// The network's lightest edge: a subgraph's minimum is no smaller.
    fn min_arc_weight(&self) -> Weight {
        self.net.min_arc_weight()
    }

    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, Weight)) {
        if self.assignment[node as usize] != self.fragment {
            return;
        }
        for (u, w) in self.net.neighbors(NodeId(node)) {
            if self.assignment[u.index()] == self.fragment {
                f(u.0, w);
            }
        }
    }
}

/// Multi-source bounded SSSP by iterative correcting. Returns the global
/// distance vector and the round/message accounting.
pub fn iterative_sssp(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    sources: &[(u32, u64)],
    bound: u64,
) -> (Vec<u64>, IterativeStats) {
    let n = net.num_nodes();
    let k = partitioning.num_fragments();
    let assignment = partitioning.assignment();
    let mut dist = vec![INF; n];
    let mut stats = IterativeStats::default();
    let mut ws = DijkstraWorkspace::new(n);

    // Pending seeds per fragment.
    let mut pending: Vec<Vec<(u32, u64)>> = vec![Vec::new(); k];
    for &(s, d) in sources {
        if d <= bound {
            pending[assignment[s as usize] as usize].push((s, d));
        }
    }

    loop {
        stats.rounds += 1;
        // Local phase: every fragment with pending seeds re-runs Dijkstra on
        // its own subgraph, keeping the better of (existing, newly found).
        let mut improved_any = false;
        #[allow(clippy::needless_range_loop)] // `pending[f]` is taken by value below
        for f in 0..k {
            if pending[f].is_empty() {
                continue;
            }
            stats.local_runs += 1;
            let seeds = std::mem::take(&mut pending[f]);
            let view = FragmentView { net, assignment, fragment: f as u32 };
            // Seed with both new corrections and already-known distances of
            // this fragment's nodes so the local run can only improve.
            let mut all_seeds = seeds;
            for &node in partitioning.nodes(disks_partition::FragmentId(f as u32)) {
                if dist[node.index()] != INF {
                    all_seeds.push((node.0, dist[node.index()]));
                }
            }
            ws.run(&view, &all_seeds, bound, |u, d| {
                if d < dist[u as usize] {
                    dist[u as usize] = d;
                    improved_any = true;
                }
                Control::Continue
            });
        }
        if !improved_any && stats.rounds > 1 {
            break;
        }
        // Boundary exchange: relax every cut edge in both directions.
        let mut corrections = 0u64;
        for (a, b, w) in net.edges() {
            let (fa, fb) = (assignment[a.index()], assignment[b.index()]);
            if fa == fb {
                continue;
            }
            let via_a = dist[a.index()].saturating_add(u64::from(w));
            if via_a <= bound && via_a < dist[b.index()] {
                pending[fb as usize].push((b.0, via_a));
                corrections += 1;
            }
            let via_b = dist[b.index()].saturating_add(u64::from(w));
            if via_b <= bound && via_b < dist[a.index()] {
                pending[fa as usize].push((a.0, via_b));
                corrections += 1;
            }
        }
        stats.boundary_messages += corrections;
        stats.boundary_bytes += corrections * 12;
        if corrections == 0 {
            break;
        }
    }
    (dist, stats)
}

/// Keyword coverage by iterative correcting.
pub fn iterative_coverage(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    keyword: KeywordId,
    radius: u64,
) -> (Vec<NodeId>, IterativeStats) {
    let sources: Vec<(u32, u64)> =
        net.nodes_with_keyword(keyword).iter().map(|n| (n.0, 0)).collect();
    let (dist, stats) = iterative_sssp(net, partitioning, &sources, radius);
    let nodes = dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d <= radius)
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    (nodes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_core::{CentralizedCoverage, Term};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;

    #[test]
    fn iterative_sssp_matches_dijkstra() {
        let net = GridNetworkConfig::tiny(100).generate();
        let p = MultilevelPartitioner::default().partition(&net, 4);
        let (dist, stats) = iterative_sssp(&net, &p, &[(3, 0)], INF - 1);
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        for (n, d) in ws.distances_from(&net, 3, INF - 1) {
            assert_eq!(dist[n as usize], d, "node {n}");
        }
        assert!(stats.rounds >= 2, "multi-fragment SSSP needs correction rounds");
        assert!(stats.boundary_messages > 0);
    }

    #[test]
    fn iterative_coverage_matches_centralized() {
        let net = GridNetworkConfig::tiny(101).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let freqs = net.keyword_frequencies();
        let kw = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        let r = 5 * net.avg_edge_weight();
        let (nodes, _) = iterative_coverage(&net, &p, kw, r);
        let mut central = CentralizedCoverage::new(&net);
        let expect: Vec<NodeId> =
            central.coverage(Term::Keyword(kw), r).iter().map(|i| NodeId(i as u32)).collect();
        assert_eq!(nodes, expect);
    }

    #[test]
    fn single_fragment_needs_no_boundary_messages() {
        let net = GridNetworkConfig::tiny(102).generate();
        let p = Partitioning::single_fragment(&net);
        let (_, stats) = iterative_sssp(&net, &p, &[(0, 0)], INF - 1);
        assert_eq!(stats.boundary_messages, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn bounded_radius_limits_reach() {
        let net = GridNetworkConfig::tiny(103).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let e = net.avg_edge_weight();
        let (dist, _) = iterative_sssp(&net, &p, &[(0, 0)], 2 * e);
        assert!(dist.iter().all(|&d| d == INF || d <= 2 * e));
        assert!(dist.iter().any(|&d| d != INF));
    }
}
