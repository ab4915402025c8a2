//! End-to-end integration tests across all crates: generate → partition →
//! index → cluster → query, validated against centralized ground truth.

use disks::cluster::{Cluster, ClusterConfig};
use disks::core::{
    build_all_indexes, CentralizedCoverage, DFunction, DlScope, IndexConfig, QClassQuery,
    RangeKeywordQuery, SetOp, SgkQuery, Term,
};
use disks::partition::{
    BfsPartitioner, GridPartitioner, MultilevelPartitioner, Partitioner, Partitioning,
};
use disks::roadnet::generator::GridNetworkConfig;
use disks::roadnet::{KeywordId, RoadNetwork};

fn top_keywords(net: &RoadNetwork, n: usize) -> Vec<KeywordId> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
    ranked.into_iter().take(n).map(|k| KeywordId(k as u32)).collect()
}

/// Run one SGKQ through the full distributed stack and compare with the
/// centralized result.
fn check_sgkq(net: &RoadNetwork, partitioning: &Partitioning, cfg: &IndexConfig, q: &SgkQuery) {
    let indexes = build_all_indexes(net, partitioning, cfg);
    let cluster = Cluster::build(net, partitioning, indexes, ClusterConfig::default());
    let outcome = cluster.run_sgkq(q).expect("distributed query");
    let mut central = CentralizedCoverage::new(net);
    assert_eq!(outcome.results, central.sgkq(q).expect("centralized"), "query {q:?}");
    assert_eq!(outcome.stats.inter_worker_bytes, 0);
    cluster.shutdown();
}

#[test]
fn every_partitioner_produces_correct_distributed_results() {
    let net = GridNetworkConfig::small(500).generate();
    let e = net.avg_edge_weight();
    let q = SgkQuery::new(top_keywords(&net, 3), 6 * e);
    let cfg = IndexConfig::with_max_r(40 * e);
    for k in [2usize, 5, 8] {
        check_sgkq(&net, &MultilevelPartitioner::default().partition(&net, k), &cfg, &q);
        check_sgkq(&net, &GridPartitioner.partition(&net, k), &cfg, &q);
        check_sgkq(&net, &BfsPartitioner::default().partition(&net, k), &cfg, &q);
    }
}

#[test]
fn sweep_of_radii_and_keyword_counts() {
    let net = GridNetworkConfig::small(501).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 6);
    let cfg = IndexConfig::with_max_r(40 * e);
    let indexes = build_all_indexes(&net, &partitioning, &cfg);
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let mut central = CentralizedCoverage::new(&net);
    for nk in [1usize, 2, 4] {
        for r in [0u64, e, 5 * e, 20 * e, 40 * e] {
            let q = SgkQuery::new(top_keywords(&net, nk), r);
            let outcome = cluster.run_sgkq(&q).expect("query");
            assert_eq!(outcome.results, central.sgkq(&q).unwrap(), "nk={nk} r={r}");
        }
    }
    cluster.shutdown();
}

#[test]
fn rkq_from_many_object_locations() {
    let net = GridNetworkConfig::small(502).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 4);
    let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::with_max_r(40 * e));
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let mut central = CentralizedCoverage::new(&net);
    let objects: Vec<_> = net.node_ids().filter(|&n| net.is_object(n)).take(8).collect();
    for obj in objects {
        let kw = net.keywords(obj)[0];
        let q = RangeKeywordQuery::new(obj, vec![kw], 12 * e);
        let outcome = cluster.run_rkq(&q).expect("rkq");
        assert_eq!(outcome.results, central.rkq(&q).unwrap(), "location {obj}");
        assert!(
            outcome.results.contains(&obj),
            "the location itself contains the keyword and is at distance 0"
        );
    }
    cluster.shutdown();
}

#[test]
fn complex_dfunctions_across_scopes() {
    let net = GridNetworkConfig::small(503).generate();
    let e = net.avg_edge_weight();
    let kws = top_keywords(&net, 4);
    let f = DFunction::single(Term::Keyword(kws[0]), 8 * e)
        .then(SetOp::Union, Term::Keyword(kws[1]), 4 * e)
        .then(SetOp::Subtract, Term::Keyword(kws[2]), 2 * e)
        .then(SetOp::Intersect, Term::Keyword(kws[3]), 10 * e);
    let q = QClassQuery::new(f);
    let partitioning = MultilevelPartitioner::default().partition(&net, 5);
    for scope in [DlScope::ObjectsOnly, DlScope::AllNodes] {
        let cfg = IndexConfig::with_max_r(40 * e).with_scope(scope);
        let indexes = build_all_indexes(&net, &partitioning, &cfg);
        let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
        let outcome = cluster.run_qclass(&q).expect("qclass");
        let mut central = CentralizedCoverage::new(&net);
        assert_eq!(outcome.results, central.qclass(&q).unwrap(), "scope {scope:?}");
        cluster.shutdown();
    }
}

#[test]
fn persisted_indexes_serve_queries_identically() {
    use disks::core::index::{load_index, save_index};
    let net = GridNetworkConfig::tiny(504).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 3);
    let cfg = IndexConfig::with_max_r(40 * e);
    let indexes = build_all_indexes(&net, &partitioning, &cfg);

    // Save to disk, reload, and build the cluster from the reloaded files.
    let dir = std::env::temp_dir().join(format!("disks-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut reloaded = Vec::new();
    for idx in &indexes {
        let path = dir.join(format!("frag{}.npd", idx.fragment().0));
        save_index(idx, &path).unwrap();
        reloaded.push(load_index(&path, idx.fragment()).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();

    let q = SgkQuery::new(top_keywords(&net, 2), 10 * e);
    let cluster_a = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let cluster_b = Cluster::build(&net, &partitioning, reloaded, ClusterConfig::default());
    let a = cluster_a.run_sgkq(&q).unwrap();
    let b = cluster_b.run_sgkq(&q).unwrap();
    assert_eq!(a.results, b.results);
    cluster_a.shutdown();
    cluster_b.shutdown();
}

#[test]
fn many_sequential_queries_reuse_the_cluster() {
    let net = GridNetworkConfig::tiny(505).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 3);
    let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::unbounded());
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let mut central = CentralizedCoverage::new(&net);
    let kws = top_keywords(&net, 3);
    for i in 0..50 {
        let r = (i % 10) * e;
        let q = SgkQuery::new(vec![kws[i as usize % kws.len()]], r);
        let outcome = cluster.run_sgkq(&q).expect("query");
        assert_eq!(outcome.results, central.sgkq(&q).unwrap(), "iteration {i}");
    }
    cluster.shutdown();
}

#[test]
fn small_world_graphs_are_served_exactly() {
    // The paper's future-work extension (non-road graphs): small-world
    // topologies are non-metric (direct edges can be longer than detours)
    // and stress the Rule 1 condition-2 handling.
    use disks::roadnet::generator::SmallWorldConfig;
    for seed in 0..6u64 {
        let net =
            SmallWorldConfig { nodes: 120, vocab_size: 12, seed, ..Default::default() }.generate();
        let partitioning = BfsPartitioner::default().partition(&net, 3);
        let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::unbounded());
        let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
        let mut central = CentralizedCoverage::new(&net);
        let kws = top_keywords(&net, 2);
        for r in [0u64, 3, 6, 12, 30] {
            let q = SgkQuery::new(kws.clone(), r);
            let outcome = cluster.run_sgkq(&q).expect("query");
            assert_eq!(outcome.results, central.sgkq(&q).unwrap(), "seed={seed} r={r}");
        }
        cluster.shutdown();
    }
}

/// The modeled response time charges the paper's 100 Mb switch on top of
/// the slowest task: latency and serialization both ways.
#[test]
fn modeled_response_time_charges_the_switch() {
    let net = GridNetworkConfig::tiny(506).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 2);
    let q = SgkQuery::new(top_keywords(&net, 2), 8 * e);
    let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::unbounded());
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let outcome = cluster.run_sgkq(&q).unwrap();
    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.modeled_response_time > outcome.stats.slowest_task);
    cluster.shutdown();
}

#[test]
fn distributed_topk_on_generated_networks() {
    use disks::core::{centralized_topk, ScoreCombine, TopKQuery};
    let net = GridNetworkConfig::small(507).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 6);
    let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::with_max_r(40 * e));
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let kws = top_keywords(&net, 3);
    for combine in [ScoreCombine::Max, ScoreCombine::Sum] {
        for k in [1usize, 10, 100] {
            let q = TopKQuery::new(kws.clone(), k, 20 * e, combine);
            let (ranked, _) = cluster.run_topk(&q).unwrap();
            assert_eq!(ranked, centralized_topk(&net, &q).unwrap(), "{combine:?} k={k}");
            // Scores are nondecreasing and within the horizon (Max only;
            // Sum can exceed it since it adds per-term distances).
            assert!(ranked.windows(2).all(|w| w[0] <= w[1]));
            if combine == ScoreCombine::Max {
                assert!(ranked.iter().all(|&(s, _)| s <= 20 * e));
            }
        }
    }
    cluster.shutdown();
}
