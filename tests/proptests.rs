//! Property-based tests: the distributed NPD-index evaluation must equal
//! the centralized ground truth on *arbitrary* connected graphs, *arbitrary*
//! (even non-contiguous) fragment assignments, and arbitrary D-functions.

use proptest::prelude::*;

use disks::core::{
    build_all_indexes, CentralizedCoverage, DFunction, DlScope, FragmentEngine, IndexConfig, SetOp,
    Term,
};
use disks::partition::Partitioning;
use disks::roadnet::{KeywordId, NodeId, RoadNetwork, RoadNetworkBuilder};

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// A random connected road network: spanning tree + extra edges.
#[derive(Debug, Clone)]
struct ArbNet {
    net: RoadNetwork,
}

fn arb_network() -> impl Strategy<Value = ArbNet> {
    (4usize..28)
        .prop_flat_map(|n| {
            let tree = proptest::collection::vec((any::<u32>(), 1u32..15), n - 1);
            let extra = proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..15), 0..n);
            let kws =
                proptest::collection::vec(proptest::collection::vec(0usize..VOCAB.len(), 0..3), n);
            (Just(n), tree, extra, kws)
        })
        .prop_map(|(n, tree, extra, kws)| {
            let mut b = RoadNetworkBuilder::new();
            for w in &VOCAB {
                b.vocab_mut().intern(w);
            }
            let mut nodes = Vec::with_capacity(n);
            for (i, kw) in kws.iter().enumerate() {
                let ids: Vec<KeywordId> = kw.iter().map(|&k| KeywordId(k as u32)).collect();
                nodes.push(b.add_node_with_ids(i as f32, (i % 5) as f32, ids));
            }
            for (i, &(pick, w)) in tree.iter().enumerate() {
                let child = nodes[i + 1];
                let parent = nodes[(pick as usize) % (i + 1)];
                b.add_edge(child, parent, w).expect("tree edge");
            }
            for &(x, y, w) in &extra {
                let a = nodes[(x as usize) % n];
                let c = nodes[(y as usize) % n];
                if a != c {
                    b.add_edge(a, c, w).expect("extra edge");
                }
            }
            ArbNet { net: b.build().expect("build") }
        })
}

fn arb_dfunction() -> impl Strategy<Value = DFunction> {
    let term =
        (0usize..VOCAB.len(), 0u64..80).prop_map(|(k, r)| (Term::Keyword(KeywordId(k as u32)), r));
    let op = prop_oneof![Just(SetOp::Union), Just(SetOp::Intersect), Just(SetOp::Subtract)];
    (term.clone(), proptest::collection::vec((op, term), 0..4)).prop_map(|(first, rest)| {
        let mut f = DFunction::single(first.0, first.1);
        for (o, (t, r)) in rest {
            f = f.then(o, t, r);
        }
        f
    })
}

fn distributed_eval(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    cfg: &IndexConfig,
    f: &DFunction,
) -> Vec<NodeId> {
    let indexes = build_all_indexes(net, partitioning, cfg);
    let mut out = Vec::new();
    for idx in &indexes {
        let mut engine = FragmentEngine::new(net, partitioning, idx).expect("engine");
        out.extend(engine.evaluate(f).expect("within maxR").0);
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: distributed == centralized for any graph,
    /// any assignment, any D-function (unbounded index).
    #[test]
    fn distributed_equals_centralized(
        arb in arb_network(),
        f in arb_dfunction(),
        seed in any::<u64>(),
    ) {
        let net = &arb.net;
        let (assignment, k) = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let k = rng.gen_range(1..5usize);
            ((0..net.num_nodes()).map(|_| rng.gen_range(0..k as u32)).collect::<Vec<_>>(), k)
        };
        let partitioning = Partitioning::from_assignment(net, assignment, k);
        let cfg = IndexConfig::unbounded();
        let got = distributed_eval(net, &partitioning, &cfg, &f);
        let mut central = CentralizedCoverage::new(net);
        let expect = central.evaluate(&f).unwrap();
        prop_assert_eq!(got, expect, "f = {}", f);
    }

    /// Same with a bounded maxR covering the query radii.
    #[test]
    fn bounded_index_distributed_equals_centralized(
        arb in arb_network(),
        f in arb_dfunction(),
        (assignment_seed, pad) in (any::<u64>(), 0u64..40),
    ) {
        let net = &arb.net;
        let (assignment, k) = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(assignment_seed);
            let k = rng.gen_range(1..4usize);
            ((0..net.num_nodes()).map(|_| rng.gen_range(0..k as u32)).collect::<Vec<_>>(), k)
        };
        let partitioning = Partitioning::from_assignment(net, assignment, k);
        let max_r = f.max_radius() + pad; // any bound ≥ every radius
        let cfg = IndexConfig::with_max_r(max_r);
        let got = distributed_eval(net, &partitioning, &cfg, &f);
        let mut central = CentralizedCoverage::new(net);
        let expect = central.evaluate(&f).unwrap();
        prop_assert_eq!(got, expect, "f = {} maxR = {}", f, max_r);
    }

    /// RKQ with AllNodes scope: any node (junction or object) works as a
    /// query location.
    #[test]
    fn rkq_any_location_with_allnodes_scope(
        arb in arb_network(),
        loc_pick in any::<u32>(),
        kw in 0usize..VOCAB.len(),
        r in 0u64..60,
        assignment_seed in any::<u64>(),
    ) {
        let net = &arb.net;
        let location = NodeId(loc_pick % net.num_nodes() as u32);
        let (assignment, k) = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(assignment_seed);
            let k = rng.gen_range(1..4usize);
            ((0..net.num_nodes()).map(|_| rng.gen_range(0..k as u32)).collect::<Vec<_>>(), k)
        };
        let partitioning = Partitioning::from_assignment(net, assignment, k);
        let q = disks::core::RangeKeywordQuery::new(location, vec![KeywordId(kw as u32)], r);
        let f = q.to_dfunction();
        let cfg = IndexConfig::unbounded().with_scope(DlScope::AllNodes);
        let got = distributed_eval(net, &partitioning, &cfg, &f);
        let mut central = CentralizedCoverage::new(net);
        prop_assert_eq!(got, central.rkq(&q).unwrap());
    }

}

/// Persistence round-trip on arbitrary graphs (plain test with its own
/// generator loop — proptest's closure restrictions make the direct form
/// clumsy for multi-crate helpers).
#[test]
fn index_persistence_round_trip_randomized() {
    use disks::core::index::{load_index, save_index};
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xABCD);
    for trial in 0..20 {
        let cfg = disks::roadnet::generator::GridNetworkConfig::tiny(trial);
        let net = cfg.generate();
        let k = rng.gen_range(1..4usize);
        let assignment: Vec<u32> =
            (0..net.num_nodes()).map(|_| rng.gen_range(0..k as u32)).collect();
        let partitioning = Partitioning::from_assignment(&net, assignment, k);
        let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::unbounded());
        let dir = std::env::temp_dir().join(format!("disks-prop-{}-{trial}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for idx in &indexes {
            let path = dir.join(format!("f{}.npd", idx.fragment().0));
            save_index(idx, &path).unwrap();
            let back = load_index(&path, idx.fragment()).unwrap();
            assert_eq!(back.shortcuts(), idx.shortcuts());
            assert_eq!(back.distances_recorded(), idx.distances_recorded());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Top-k extension: distributed merge equals the centralized ranking on
    /// arbitrary graphs and arbitrary fragment assignments, both where a
    /// fragment reads distances from searches (an unbounded index) and
    /// where it reads them from its keyword lists (a bounded index whose
    /// `maxR` is `slack` above the horizon).
    #[test]
    fn topk_distributed_equals_centralized(
        arb in arb_network(),
        ks in proptest::collection::vec(0usize..VOCAB.len(), 1..4),
        k in 1usize..20,
        horizon in 0u64..80,
        slack in 0u64..40,
        seed in any::<u64>(),
    ) {
        use disks::core::{
            centralized_topk, merge_topk, Answer, NoCache, QueryPlan, ScoreCombine, TopKQuery,
        };
        let net = &arb.net;
        let (assignment, frags) = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let frags = rng.gen_range(1..4usize);
            (
                (0..net.num_nodes()).map(|_| rng.gen_range(0..frags as u32)).collect::<Vec<_>>(),
                frags,
            )
        };
        let partitioning = Partitioning::from_assignment(net, assignment, frags);
        let combine = if seed.is_multiple_of(2) { ScoreCombine::Max } else { ScoreCombine::Sum };
        let keywords: Vec<KeywordId> = ks.iter().map(|&i| KeywordId(i as u32)).collect();
        let q = TopKQuery::new(keywords, k, horizon, combine);
        let plan = QueryPlan::topk(&q).unwrap();
        let expect = centralized_topk(net, &q).unwrap();
        for config in [IndexConfig::unbounded(), IndexConfig::with_max_r(horizon + slack)] {
            let indexes = build_all_indexes(net, &partitioning, &config);
            let lists: Vec<Vec<disks::core::Ranked>> = indexes
                .iter()
                .map(|idx| {
                    let mut engine = FragmentEngine::new(net, &partitioning, idx).expect("engine");
                    match engine.evaluate_plan_with_cache(&plan, &mut NoCache).expect("topk") {
                        (Answer::Ranked(ranked), _) => ranked,
                        (answer, _) => panic!("a ranked plan answered {answer:?}"),
                    }
                })
                .collect();
            let got = merge_topk(lists, q.k);
            prop_assert_eq!(
                &got, &expect,
                "combine = {:?} horizon = {} maxR = {}", combine, horizon, config.max_r
            );
        }
    }
}
