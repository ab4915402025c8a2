//! Multilevel (METIS-like) partitioner — the default, substituting for the
//! paper's ParMetis \[13\].
//!
//! Three classic phases:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched node
//!    pairs; coarse edge weights accumulate the multiplicity of underlying
//!    fine edges, so the coarse cut equals the fine cut.
//! 2. **Initial partitioning** — weighted region growing on the coarsest
//!    graph (smallest-weight fragment claims its frontier first).
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level and improved by a boundary Fiduccia–Mattheyses pass: move a
//!    boundary node to the adjacent fragment with the highest cut gain,
//!    subject to a balance constraint.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use disks_roadnet::RoadNetwork;

use crate::fragment::Partitioning;
use crate::Partitioner;

/// Multilevel partitioner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelPartitioner {
    /// Stop coarsening when the coarse graph has at most `coarsen_target * k`
    /// nodes (bounded below by 64).
    pub coarsen_target: usize,
    /// Allowed imbalance: fragment weight ≤ (1 + epsilon) · total / k.
    pub epsilon: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed (matching order, tie-breaks).
    pub seed: u64,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner { coarsen_target: 16, epsilon: 0.05, refine_passes: 4, seed: 0x317 }
    }
}

/// Adjacency-list weighted graph used internally during coarsening.
struct Level {
    /// Node weights (number of underlying fine nodes).
    node_weight: Vec<u64>,
    /// Weighted adjacency: (neighbor, multiplicity).
    adj: Vec<Vec<(u32, u64)>>,
    /// Mapping from the *finer* level's nodes to this level's nodes.
    fine_to_coarse: Vec<u32>,
}

impl Level {
    fn num_nodes(&self) -> usize {
        self.node_weight.len()
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, net: &RoadNetwork, k: usize) -> Partitioning {
        assert!(k > 0, "k must be positive");
        let n = net.num_nodes();
        if n == 0 {
            return Partitioning::from_assignment(net, Vec::new(), k);
        }
        if k == 1 {
            return Partitioning::single_fragment(net);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Level 0: the input graph with unit node weights.
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (a, b, _) in net.edges() {
            adj[a.index()].push((b.0, 1));
            adj[b.index()].push((a.0, 1));
        }
        let base = Level { node_weight: vec![1; n], adj, fine_to_coarse: Vec::new() };

        // 1. Coarsen.
        let target = (self.coarsen_target * k).max(64);
        let mut levels = vec![base];
        loop {
            let top = levels.last().expect("at least one level");
            if top.num_nodes() <= target {
                break;
            }
            let coarse = coarsen(top, &mut rng);
            let shrunk = coarse.num_nodes() < top.num_nodes() * 95 / 100;
            levels.push(coarse);
            if !shrunk {
                break; // matching stalled (e.g. star graphs); avoid looping
            }
        }

        // 2. Initial partition on the coarsest level.
        let coarsest = levels.last().expect("levels non-empty");
        let mut assignment = initial_partition(coarsest, k, &mut rng);
        let max_weight = balance_cap(coarsest.node_weight.iter().sum(), k, self.epsilon);
        refine(coarsest, &mut assignment, k, max_weight, self.refine_passes, &mut rng);

        // 3. Project back + refine each level.
        for li in (0..levels.len() - 1).rev() {
            let finer = &levels[li];
            let mapping = &levels[li + 1].fine_to_coarse;
            let mut fine_assignment = vec![0u32; finer.num_nodes()];
            for (i, a) in fine_assignment.iter_mut().enumerate() {
                *a = assignment[mapping[i] as usize];
            }
            assignment = fine_assignment;
            let max_weight = balance_cap(finer.node_weight.iter().sum(), k, self.epsilon);
            refine(finer, &mut assignment, k, max_weight, self.refine_passes, &mut rng);
        }

        // Guarantee no empty fragments when n >= k: steal one boundary-ish
        // node for each empty fragment from the largest fragment.
        fill_empty_fragments(&mut assignment, k);

        Partitioning::from_assignment(net, assignment, k)
    }
}

fn balance_cap(total_weight: u64, k: usize, epsilon: f64) -> u64 {
    let ideal = total_weight as f64 / k as f64;
    (ideal * (1.0 + epsilon)).ceil() as u64 + 1
}

/// Heavy-edge matching: visit nodes in random order, match each unmatched
/// node with its unmatched neighbor of maximum edge weight.
fn coarsen(level: &Level, rng: &mut StdRng) -> Level {
    let n = level.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    let mut fine_to_coarse = vec![u32::MAX; n];
    for &u in &order {
        if fine_to_coarse[u as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for &(v, w) in &level.adj[u as usize] {
            if fine_to_coarse[v as usize] == u32::MAX && v != u && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((v, w));
            }
        }
        let c = coarse_count;
        coarse_count += 1;
        fine_to_coarse[u as usize] = c;
        if let Some((v, _)) = best {
            fine_to_coarse[v as usize] = c;
            matched[u as usize] = v;
        }
    }
    let _ = matched;
    let cn = coarse_count as usize;
    let mut node_weight = vec![0u64; cn];
    for i in 0..n {
        node_weight[fine_to_coarse[i] as usize] += level.node_weight[i];
    }
    // Accumulate coarse edges via a hash map per node.
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cn];
    {
        use std::collections::HashMap;
        let mut acc: Vec<HashMap<u32, u64>> = vec![HashMap::new(); cn];
        for u in 0..n {
            let cu = fine_to_coarse[u];
            for &(v, w) in &level.adj[u] {
                let cv = fine_to_coarse[v as usize];
                if cu != cv {
                    *acc[cu as usize].entry(cv).or_insert(0) += w;
                }
            }
        }
        for (cu, map) in acc.into_iter().enumerate() {
            let mut list: Vec<(u32, u64)> = map.into_iter().collect();
            list.sort_unstable();
            // Each undirected fine edge was visited from both endpoints, so
            // halve the accumulated multiplicity.
            for e in &mut list {
                e.1 /= 2;
            }
            adj[cu] = list;
        }
    }
    Level { node_weight, adj, fine_to_coarse }
}

/// Weighted region growing for the initial coarse partition.
fn initial_partition(level: &Level, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = level.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut assignment = vec![u32::MAX; n];
    let mut weights = vec![0u64; k];
    let mut frontiers: Vec<Vec<u32>> = vec![Vec::new(); k];
    // Seed fragments with the first k distinct nodes of the random order.
    for (f, &s) in order.iter().take(k).enumerate() {
        assignment[s as usize] = f as u32;
        weights[f] += level.node_weight[s as usize];
        frontiers[f].push(s);
    }
    loop {
        // Smallest-weight fragment with a frontier grows next.
        let mut best: Option<usize> = None;
        for f in 0..k {
            if frontiers[f].is_empty() {
                continue;
            }
            if best.is_none_or(|b| weights[f] < weights[b]) {
                best = Some(f);
            }
        }
        let Some(f) = best else { break };
        let u = frontiers[f].pop().expect("frontier non-empty");
        for &(v, _) in &level.adj[u as usize] {
            if assignment[v as usize] == u32::MAX {
                assignment[v as usize] = f as u32;
                weights[f] += level.node_weight[v as usize];
                frontiers[f].push(v);
            }
        }
    }
    // Unreached nodes (other components): assign to lightest fragment.
    for (u, a) in assignment.iter_mut().enumerate() {
        if *a == u32::MAX {
            let f = (0..k).min_by_key(|&f| weights[f]).unwrap_or(0);
            *a = f as u32;
            weights[f] += level.node_weight[u];
        }
    }
    assignment
}

/// Boundary FM refinement: greedy positive-gain moves under a balance cap.
fn refine(
    level: &Level,
    assignment: &mut [u32],
    k: usize,
    max_weight: u64,
    passes: usize,
    rng: &mut StdRng,
) {
    let n = level.num_nodes();
    let mut weights = vec![0u64; k];
    for u in 0..n {
        weights[assignment[u] as usize] += level.node_weight[u];
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    for _ in 0..passes {
        order.shuffle(rng);
        let mut moved = 0usize;
        for &u in &order {
            let from = assignment[u as usize] as usize;
            // Connectivity to each adjacent fragment.
            let mut internal = 0u64;
            let mut best: Option<(usize, u64)> = None;
            // Small linear scan; node degrees are tiny in road networks.
            for &(v, w) in &level.adj[u as usize] {
                let fv = assignment[v as usize] as usize;
                if fv == from {
                    internal += w;
                }
            }
            for &(v, w) in &level.adj[u as usize] {
                let fv = assignment[v as usize] as usize;
                if fv == from {
                    continue;
                }
                let mut external = 0u64;
                for &(v2, w2) in &level.adj[u as usize] {
                    if assignment[v2 as usize] as usize == fv {
                        external += w2;
                    }
                }
                let _ = (v, w);
                if external > internal && best.is_none_or(|(_, g)| external - internal > g) {
                    best = Some((fv, external - internal));
                }
            }
            if let Some((to, _gain)) = best {
                let uw = level.node_weight[u as usize];
                if weights[to] + uw <= max_weight && weights[from] > uw {
                    weights[from] -= uw;
                    weights[to] += uw;
                    assignment[u as usize] = to as u32;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
    rebalance(level, assignment, k, max_weight, &mut weights);
}

/// Diffusion rebalance: while some fragment exceeds the balance cap, move a
/// boundary node of the heaviest fragment into a *strictly lighter* adjacent
/// fragment (lighter even after receiving the node). Weight then flows
/// through intermediate fragments toward the light ones even when they are
/// not directly adjacent to the heavy one. Termination: each move strictly
/// decreases Σ weightᵢ², so no cycling is possible. Among legal moves the
/// one with the best cut gain is chosen.
fn rebalance(
    level: &Level,
    assignment: &mut [u32],
    k: usize,
    max_weight: u64,
    weights: &mut [u64],
) {
    let n = level.num_nodes();
    for _ in 0..16 * n {
        if !(0..k).any(|f| weights[f] > max_weight) {
            break;
        }
        // Best legal move from *any* over-cap fragment: (heaviest source,
        // then best cut gain). Considering all over-cap sources matters —
        // the single heaviest fragment can be landlocked by other heavy
        // fragments while a lighter-but-still-over one can move.
        let mut best: Option<(u32, usize, u64, i64)> = None; // (node, to, src_w, gain)
        for u in 0..n as u32 {
            let from = assignment[u as usize] as usize;
            let from_weight = weights[from];
            if from_weight <= max_weight {
                continue;
            }
            let uw = level.node_weight[u as usize];
            let mut internal = 0i64;
            for &(v, w) in &level.adj[u as usize] {
                if assignment[v as usize] as usize == from {
                    internal += w as i64;
                }
            }
            for &(v, _) in &level.adj[u as usize] {
                let fv = assignment[v as usize] as usize;
                // Σw² strictly decreases iff target-after < source-before,
                // which guarantees termination without cycling.
                if fv == from || weights[fv] + uw >= from_weight {
                    continue;
                }
                let mut external = 0i64;
                for &(v2, w2) in &level.adj[u as usize] {
                    if assignment[v2 as usize] as usize == fv {
                        external += w2 as i64;
                    }
                }
                let gain = external - internal;
                let better = match best {
                    None => true,
                    Some((_, _, bw, bg)) => from_weight > bw || (from_weight == bw && gain > bg),
                };
                if better {
                    best = Some((u, fv, from_weight, gain));
                }
            }
        }
        let Some((u, to, _, _)) = best else { break };
        let from = assignment[u as usize] as usize;
        let uw = level.node_weight[u as usize];
        weights[from] -= uw;
        weights[to] += uw;
        assignment[u as usize] = to as u32;
    }
}

/// Ensure every fragment id `< k` appears at least once (if `n >= k`) by
/// reassigning nodes from the largest fragments.
fn fill_empty_fragments(assignment: &mut [u32], k: usize) {
    let n = assignment.len();
    if n < k {
        return;
    }
    let mut counts = vec![0usize; k];
    for &a in assignment.iter() {
        counts[a as usize] += 1;
    }
    for f in 0..k {
        if counts[f] > 0 {
            continue;
        }
        // Take one node from the largest fragment with >1 nodes.
        let donor = (0..k).filter(|&d| counts[d] > 1).max_by_key(|&d| counts[d]);
        if let Some(d) = donor {
            if let Some(pos) = assignment.iter().position(|&a| a as usize == d) {
                assignment[pos] = f as u32;
                counts[d] -= 1;
                counts[f] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridPartitioner;
    use disks_roadnet::generator::GridNetworkConfig;

    #[test]
    fn produces_valid_partitions_for_paper_k_values() {
        let net = GridNetworkConfig::small(1).generate();
        for k in [2, 4, 8, 12, 16] {
            let p = MultilevelPartitioner::default().partition(&net, k);
            p.validate(&net).unwrap();
            assert_eq!(p.num_fragments(), k);
            assert!(
                p.fragment_ids().all(|f| !p.nodes(f).is_empty()),
                "k={k}: no fragment may be empty"
            );
        }
    }

    #[test]
    fn balance_respects_epsilon_roughly() {
        let net = GridNetworkConfig::small(2).generate();
        let p = MultilevelPartitioner::default().partition(&net, 8);
        assert!(p.balance() < 1.35, "balance={}", p.balance());
    }

    #[test]
    fn cut_is_competitive_with_geometric() {
        let net = GridNetworkConfig::small(3).generate();
        let ml = MultilevelPartitioner::default().partition(&net, 8);
        let geo = GridPartitioner.partition(&net, 8);
        // The multilevel partitioner should be in the same league as the
        // geometric one on a grid (within 2x), usually better.
        assert!(
            ml.cut_edges() <= geo.cut_edges() * 2,
            "multilevel cut {} vs geometric {}",
            ml.cut_edges(),
            geo.cut_edges()
        );
    }

    #[test]
    fn k_equals_one_is_single_fragment() {
        let net = GridNetworkConfig::tiny(4).generate();
        let p = MultilevelPartitioner::default().partition(&net, 1);
        assert_eq!(p.num_fragments(), 1);
        assert_eq!(p.cut_edges(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let net = GridNetworkConfig::small(5).generate();
        let a = MultilevelPartitioner::default().partition(&net, 4);
        let b = MultilevelPartitioner::default().partition(&net, 4);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn coarsening_preserves_total_node_weight() {
        let net = GridNetworkConfig::small(6).generate();
        let n = net.num_nodes();
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (a, b, _) in net.edges() {
            adj[a.index()].push((b.0, 1));
            adj[b.index()].push((a.0, 1));
        }
        let level = Level { node_weight: vec![1; n], adj, fine_to_coarse: Vec::new() };
        let mut rng = StdRng::seed_from_u64(1);
        let coarse = coarsen(&level, &mut rng);
        assert!(coarse.num_nodes() < n);
        assert_eq!(coarse.node_weight.iter().sum::<u64>(), n as u64);
        // Coarse edges are symmetric.
        for u in 0..coarse.num_nodes() {
            for &(v, w) in &coarse.adj[u] {
                let back = coarse.adj[v as usize]
                    .iter()
                    .find(|&&(x, _)| x as usize == u)
                    .map(|&(_, w2)| w2);
                assert_eq!(back, Some(w), "asymmetric coarse edge {u}-{v}");
            }
        }
    }
}
