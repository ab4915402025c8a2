//! Deterministic synthetic road-network generation.
//!
//! The paper evaluates on OpenStreetMap extracts of Britain (BRI) and
//! Australia (AUS) that are not shipped with the paper. This module is the
//! substitution documented in `DESIGN.md` §4: a perturbed-grid generator
//! whose outputs preserve the properties the NPD-index is sensitive to:
//!
//! * planar-like, low-degree topology (rectilinear grid with random edge
//!   removal),
//! * non-Euclidean shortest-path detours (circular "lakes" carved out of the
//!   grid — the paper's own motivating example for network distance),
//! * object nodes attached to their nearest junction by a short edge (the
//!   paper's stated preprocessing),
//! * Zipf-skewed, spatially clustered keyword frequencies (required by the
//!   paper's query generator).
//!
//! Generation is fully deterministic given the config (seeded `StdRng`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{NodeId, RoadNetwork, RoadNetworkBuilder};
use crate::vocab::KeywordId;
use crate::zipf::Zipf;

/// Configuration for the grid generator.
#[derive(Debug, Clone)]
pub struct GridNetworkConfig {
    /// Junction-grid width (columns).
    pub width: u32,
    /// Junction-grid height (rows).
    pub height: u32,
    /// Base edge weight between adjacent junctions (e.g. meters).
    pub base_weight: u32,
    /// Relative weight jitter in `[0, 1)`: weights are drawn from
    /// `base ± base·jitter`.
    pub weight_jitter: f64,
    /// Fraction of grid edges removed at random (creates detours).
    pub edge_removal: f64,
    /// Number of circular obstacles ("lakes") removed from the grid.
    pub lakes: usize,
    /// Lake radius as a fraction of `min(width, height)`.
    pub lake_radius_frac: f64,
    /// Probability that a junction spawns an attached object node.
    pub object_fraction: f64,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent for global keyword popularity.
    pub zipf_exponent: f64,
    /// Keywords per object node, inclusive range.
    pub keywords_per_object: (usize, usize),
    /// Spatial keyword clustering: cells per side of the cluster grid.
    pub cluster_grid: u32,
    /// Keywords in each cell's local pool.
    pub cluster_pool: usize,
    /// Probability an object keyword is drawn from the local cell pool
    /// (vs the global Zipf distribution).
    pub cluster_affinity: f64,
    /// RNG seed; same config ⇒ same network.
    pub seed: u64,
}

impl Default for GridNetworkConfig {
    fn default() -> Self {
        GridNetworkConfig {
            width: 60,
            height: 60,
            base_weight: 1000,
            weight_jitter: 0.3,
            edge_removal: 0.12,
            lakes: 3,
            lake_radius_frac: 0.08,
            object_fraction: 0.08,
            vocab_size: 200,
            zipf_exponent: 1.0,
            keywords_per_object: (1, 3),
            cluster_grid: 6,
            cluster_pool: 24,
            cluster_affinity: 0.7,
            seed: 0xD15C5,
        }
    }
}

impl GridNetworkConfig {
    /// Small network for unit tests (~400 junctions).
    pub fn small(seed: u64) -> Self {
        GridNetworkConfig {
            width: 20,
            height: 20,
            vocab_size: 40,
            cluster_grid: 3,
            cluster_pool: 12,
            seed,
            ..Default::default()
        }
    }

    /// Tiny network for property tests (~100 junctions).
    pub fn tiny(seed: u64) -> Self {
        GridNetworkConfig {
            width: 10,
            height: 10,
            vocab_size: 12,
            lakes: 1,
            cluster_grid: 2,
            cluster_pool: 6,
            seed,
            ..Default::default()
        }
    }

    /// BRI-like preset: scaled-down analogue of the paper's Britain extract
    /// (3.76 M nodes, 8 % objects, 57.6 k keywords) — same object/keyword
    /// ratios at ~1/30 scale so the full experiment matrix runs locally.
    pub fn bri_like(seed: u64) -> Self {
        GridNetworkConfig {
            width: 340,
            height: 340,
            object_fraction: 0.08,
            vocab_size: 1800,
            lakes: 10,
            lake_radius_frac: 0.05,
            cluster_grid: 14,
            cluster_pool: 60,
            seed,
            ..Default::default()
        }
    }

    /// AUS-like preset: scaled-down analogue of the Australia extract
    /// (1.22 M nodes, 5.7 % objects, 18.75 k keywords).
    pub fn aus_like(seed: u64) -> Self {
        GridNetworkConfig {
            width: 200,
            height: 200,
            object_fraction: 0.057,
            vocab_size: 750,
            lakes: 6,
            lake_radius_frac: 0.07,
            cluster_grid: 10,
            cluster_pool: 40,
            seed,
            ..Default::default()
        }
    }

    /// Generate the network.
    pub fn generate(&self) -> RoadNetwork {
        generate_grid_network(self)
    }
}

/// Generate a road network per `cfg`. Always returns a connected network
/// with at least one object node (for degenerate configs the generator
/// forces one object so downstream query generation never divides by zero).
pub fn generate_grid_network(cfg: &GridNetworkConfig) -> RoadNetwork {
    assert!(cfg.width >= 2 && cfg.height >= 2, "grid must be at least 2x2");
    assert!(cfg.vocab_size > 0, "vocabulary must be non-empty");
    assert!(
        cfg.keywords_per_object.0 >= 1 && cfg.keywords_per_object.0 <= cfg.keywords_per_object.1,
        "keywords_per_object range must be non-empty and start at >= 1"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (w, h) = (cfg.width as i64, cfg.height as i64);

    // 1. Carve lakes: junctions inside any lake are removed.
    let mut removed = vec![false; (w * h) as usize];
    let lake_radius = cfg.lake_radius_frac * w.min(h) as f64;
    for _ in 0..cfg.lakes {
        let cx = rng.gen_range(0.0..w as f64);
        let cy = rng.gen_range(0.0..h as f64);
        let r2 = lake_radius * lake_radius;
        let x_lo = ((cx - lake_radius).floor().max(0.0)) as i64;
        let x_hi = ((cx + lake_radius).ceil().min((w - 1) as f64)) as i64;
        let y_lo = ((cy - lake_radius).floor().max(0.0)) as i64;
        let y_hi = ((cy + lake_radius).ceil().min((h - 1) as f64)) as i64;
        for x in x_lo..=x_hi {
            for y in y_lo..=y_hi {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                if dx * dx + dy * dy <= r2 {
                    removed[(y * w + x) as usize] = true;
                }
            }
        }
    }

    // 2. Junction nodes.
    let mut builder = RoadNetworkBuilder::new();
    let vocab_ids: Vec<KeywordId> =
        (0..cfg.vocab_size).map(|i| builder.vocab_mut().intern(&format!("kw{i:05}"))).collect();
    let mut grid_to_node: Vec<Option<NodeId>> = vec![None; (w * h) as usize];
    for y in 0..h {
        for x in 0..w {
            let cell = (y * w + x) as usize;
            if removed[cell] {
                continue;
            }
            let jx = x as f32 + rng.gen_range(-0.2..0.2);
            let jy = y as f32 + rng.gen_range(-0.2..0.2);
            grid_to_node[cell] = Some(builder.add_node(jx, jy, &[]));
        }
    }

    // 3. Rectilinear edges with jittered weights and random removal.
    let jitter = cfg.weight_jitter.clamp(0.0, 0.95);
    let edge_weight = |rng: &mut StdRng| -> u32 {
        let f = 1.0 + rng.gen_range(-jitter..=jitter);
        ((cfg.base_weight as f64 * f).round() as u32).max(1)
    };
    for y in 0..h {
        for x in 0..w {
            let here = match grid_to_node[(y * w + x) as usize] {
                Some(n) => n,
                None => continue,
            };
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx >= w || ny >= h {
                    continue;
                }
                if let Some(there) = grid_to_node[(ny * w + nx) as usize] {
                    if rng.gen::<f64>() < cfg.edge_removal {
                        continue;
                    }
                    let wgt = edge_weight(&mut rng);
                    builder.add_edge(here, there, wgt).expect("grid edge must be valid");
                }
            }
        }
    }
    let junction_net = builder.build().expect("grid build");
    let (junction_net, _) = junction_net.largest_component();

    // 4. Spatial keyword cluster pools.
    let zipf = Zipf::new(cfg.vocab_size, cfg.zipf_exponent);
    let cells = (cfg.cluster_grid * cfg.cluster_grid) as usize;
    let mut cell_pools: Vec<Vec<usize>> = Vec::with_capacity(cells);
    for _ in 0..cells {
        let mut pool = Vec::with_capacity(cfg.cluster_pool);
        while pool.len() < cfg.cluster_pool.min(cfg.vocab_size) {
            let k = zipf.sample(&mut rng);
            if !pool.contains(&k) {
                pool.push(k);
            }
        }
        cell_pools.push(pool);
    }
    let cell_of = |x: f32, y: f32| -> usize {
        let cg = cfg.cluster_grid as f32;
        let cx = ((x / w as f32) * cg).clamp(0.0, cg - 1.0) as u32;
        let cy = ((y / h as f32) * cg).clamp(0.0, cg - 1.0) as u32;
        (cy * cfg.cluster_grid + cx) as usize
    };

    // 5. Rebuild with object nodes attached to junctions (the paper's
    //    preprocessing: each object connects to its nearest network node).
    let mut out = RoadNetworkBuilder::new();
    // Keep the same vocabulary ids.
    for id in &vocab_ids {
        let word = junction_net.vocab().word(*id).expect("vocab id").to_string();
        out.vocab_mut().intern(&word);
    }
    let mut junction_ids = Vec::with_capacity(junction_net.num_nodes());
    for j in junction_net.node_ids() {
        let (x, y) = junction_net.coord(j);
        junction_ids.push(out.add_node(x, y, &[]));
    }
    for (a, b, wgt) in junction_net.edges() {
        out.add_edge(junction_ids[a.index()], junction_ids[b.index()], wgt).expect("copied edge");
    }
    let object_edge_weight = (cfg.base_weight / 10).max(1);
    let mut num_objects = 0usize;
    for j in junction_net.node_ids() {
        if rng.gen::<f64>() >= cfg.object_fraction {
            continue;
        }
        let (x, y) = junction_net.coord(j);
        let pool = &cell_pools[cell_of(x, y)];
        let count = rng.gen_range(cfg.keywords_per_object.0..=cfg.keywords_per_object.1);
        let mut kws = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = if !pool.is_empty() && rng.gen::<f64>() < cfg.cluster_affinity {
                pool[rng.gen_range(0..pool.len())]
            } else {
                zipf.sample(&mut rng)
            };
            kws.push(vocab_ids[rank]);
        }
        let obj =
            out.add_node_with_ids(x + rng.gen_range(-0.1..0.1), y + rng.gen_range(-0.1..0.1), kws);
        out.add_edge(junction_ids[j.index()], obj, object_edge_weight).expect("object edge");
        num_objects += 1;
    }
    if num_objects == 0 && !junction_ids.is_empty() {
        // Degenerate config guard: force one object so keyword queries exist.
        let j = junction_ids[0];
        let (x, y) = junction_net.coord(NodeId(0));
        let obj = out.add_node_with_ids(x, y, vec![vocab_ids[0]]);
        out.add_edge(j, obj, object_edge_weight).expect("forced object edge");
    }
    let net = out.build().expect("final build");
    debug_assert!(net.is_connected());
    net
}

/// Configuration for a small-world (Watts–Strogatz style) labelled graph.
///
/// The paper's conclusion proposes extending the NPD-index to "other types
/// of graphs such as relational database graphs and social networks"; the
/// index itself only needs a positive-weight labelled graph, so this
/// generator provides a non-road topology (high clustering + long-range
/// rewired links) to exercise that extension.
#[derive(Debug, Clone)]
pub struct SmallWorldConfig {
    /// Number of nodes on the ring.
    pub nodes: u32,
    /// Each node connects to `neighbors` nearest ring neighbors per side.
    pub neighbors: u32,
    /// Probability that a ring edge is rewired to a random target.
    pub rewire: f64,
    /// Edge weight range (inclusive).
    pub weight_range: (u32, u32),
    /// Vocabulary size ("interests"/"labels").
    pub vocab_size: usize,
    /// Probability a node carries at least one label.
    pub label_fraction: f64,
    /// Zipf exponent for label popularity.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SmallWorldConfig {
    fn default() -> Self {
        SmallWorldConfig {
            nodes: 400,
            neighbors: 2,
            rewire: 0.1,
            weight_range: (1, 10),
            vocab_size: 30,
            label_fraction: 0.5,
            zipf_exponent: 1.0,
            seed: 0x50C1A1,
        }
    }
}

impl SmallWorldConfig {
    /// Generate the labelled small-world graph (largest component, so it is
    /// always connected).
    pub fn generate(&self) -> RoadNetwork {
        assert!(self.nodes >= 4, "need at least 4 nodes");
        assert!(self.neighbors >= 1, "need at least 1 ring neighbor");
        assert!(self.weight_range.0 >= 1 && self.weight_range.0 <= self.weight_range.1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = RoadNetworkBuilder::new();
        let vocab_ids: Vec<KeywordId> =
            (0..self.vocab_size).map(|i| b.vocab_mut().intern(&format!("label{i:04}"))).collect();
        let zipf = Zipf::new(self.vocab_size, self.zipf_exponent);
        let n = self.nodes;
        let mut nodes = Vec::with_capacity(n as usize);
        for i in 0..n {
            let angle = (i as f32) / (n as f32) * std::f32::consts::TAU;
            let kws = if rng.gen::<f64>() < self.label_fraction {
                let count = rng.gen_range(1..=2);
                (0..count).map(|_| vocab_ids[zipf.sample(&mut rng)]).collect()
            } else {
                Vec::new()
            };
            nodes.push(b.add_node_with_ids(angle.cos() * 100.0, angle.sin() * 100.0, kws));
        }
        let weight = |rng: &mut StdRng| rng.gen_range(self.weight_range.0..=self.weight_range.1);
        for i in 0..n {
            for j in 1..=self.neighbors {
                let mut target = (i + j) % n;
                if rng.gen::<f64>() < self.rewire {
                    // Rewire to a uniform random non-self target.
                    loop {
                        target = rng.gen_range(0..n);
                        if target != i {
                            break;
                        }
                    }
                }
                if target != i {
                    let w = weight(&mut rng);
                    b.add_edge(nodes[i as usize], nodes[target as usize], w)
                        .expect("small-world edge");
                }
            }
        }
        let net = b.build().expect("small-world build");
        let (net, _) = net.largest_component();
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GridNetworkConfig::small(11);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GridNetworkConfig::small(1).generate();
        let b = GridNetworkConfig::small(2).generate();
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn network_is_connected_and_valid() {
        let net = GridNetworkConfig::small(3).generate();
        assert!(net.is_connected());
        net.validate().unwrap();
    }

    #[test]
    fn objects_carry_keywords_junctions_do_not_dominate() {
        let net = GridNetworkConfig::small(5).generate();
        let objects = net.num_objects();
        assert!(objects > 0, "must generate object nodes");
        assert!(objects < net.num_nodes(), "junctions must remain");
        for n in net.node_ids() {
            if net.is_object(n) {
                let kws = net.keywords(n);
                assert!(!kws.is_empty() && kws.len() <= 3);
            }
        }
    }

    #[test]
    fn keyword_frequencies_are_skewed() {
        let net = GridNetworkConfig::small(9).generate();
        let freqs = net.keyword_frequencies();
        let max = *freqs.iter().max().unwrap();
        let nonzero = freqs.iter().filter(|&&f| f > 0).count();
        assert!(nonzero >= 10, "many keywords should be used");
        let avg = freqs.iter().sum::<usize>() as f64 / nonzero as f64;
        assert!(max as f64 > 2.0 * avg, "Zipf head should dominate: max={max} avg={avg}");
    }

    #[test]
    fn lakes_remove_junctions() {
        let mut with = GridNetworkConfig::small(13);
        with.lakes = 6;
        with.lake_radius_frac = 0.15;
        let mut without = with.clone();
        without.lakes = 0;
        let a = with.generate();
        let b = without.generate();
        assert!(a.num_nodes() < b.num_nodes(), "lakes must carve out nodes");
    }

    #[test]
    fn degenerate_object_fraction_still_yields_an_object() {
        let mut cfg = GridNetworkConfig::tiny(17);
        cfg.object_fraction = 0.0;
        let net = cfg.generate();
        assert!(net.num_objects() >= 1);
        assert!(net.is_connected());
    }

    #[test]
    fn presets_scale_sanely() {
        let aus = GridNetworkConfig::aus_like(1);
        let bri = GridNetworkConfig::bri_like(1);
        assert!(bri.width * bri.height > aus.width * aus.height);
        // Paper's object ratios: BRI 8%, AUS 5.7%.
        assert!((bri.object_fraction - 0.08).abs() < 1e-9);
        assert!((aus.object_fraction - 0.057).abs() < 1e-9);
    }

    #[test]
    fn small_world_is_connected_and_labelled() {
        let net = SmallWorldConfig::default().generate();
        assert!(net.is_connected());
        net.validate().unwrap();
        assert!(net.num_objects() > 0);
        // Average degree ≈ 2 * neighbors.
        let avg_degree = 2.0 * net.num_edges() as f64 / net.num_nodes() as f64;
        assert!(avg_degree > 3.0 && avg_degree < 5.0, "avg degree {avg_degree}");
    }

    #[test]
    fn small_world_rewiring_creates_shortcuts() {
        // With rewiring, the hop diameter should be far below the ring
        // diameter n / (2 * neighbors).
        let cfg = SmallWorldConfig { nodes: 300, rewire: 0.2, ..Default::default() };
        let net = cfg.generate();
        let mut ws = crate::DijkstraWorkspace::new(net.num_nodes());
        // Hop distance: treat every edge as weight-1 via a wrapper graph.
        struct Hops<'a>(&'a RoadNetwork);
        impl crate::Graph for Hops<'_> {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn min_arc_weight(&self) -> u32 {
                1
            }
            fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, u32)) {
                for (u, _) in self.0.neighbors(crate::NodeId(node)) {
                    f(u.0, 1);
                }
            }
        }
        let hops = Hops(&net);
        let far =
            ws.distances_from(&hops, 0, u64::MAX - 1).into_iter().map(|(_, d)| d).max().unwrap();
        let ring_diameter = net.num_nodes() as u64 / 4;
        assert!(far < ring_diameter, "eccentricity {far} vs ring {ring_diameter}");
    }

    #[test]
    fn small_world_determinism() {
        let a = SmallWorldConfig::default().generate();
        let b = SmallWorldConfig::default().generate();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn avg_edge_weight_near_base() {
        let net = GridNetworkConfig::small(21).generate();
        let avg = net.avg_edge_weight();
        // Object edges (base/10) pull the average below base, but it stays
        // within the same order of magnitude.
        assert!(avg > 300 && avg < 1300, "avg weight {avg}");
    }
}
