//! Cross-validation of the baselines against each other and against the
//! NPD-index runtime, plus the §2.3 communication contrast.

use disks::baseline::{bsp_keyword_coverage, bsp_sgkq, iterative_coverage, iterative_sssp};
use disks::cluster::{Cluster, ClusterConfig};
use disks::core::{build_all_indexes, CentralizedCoverage, IndexConfig, SgkQuery, Term};
use disks::partition::{MultilevelPartitioner, Partitioner};
use disks::roadnet::generator::GridNetworkConfig;
use disks::roadnet::{DijkstraWorkspace, KeywordId, NodeId, RoadNetwork, INF};

fn top_keywords(net: &RoadNetwork, n: usize) -> Vec<KeywordId> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
    ranked.into_iter().take(n).map(|k| KeywordId(k as u32)).collect()
}

#[test]
fn all_four_evaluation_paths_agree() {
    let net = GridNetworkConfig::small(700).generate();
    let e = net.avg_edge_weight();
    let k = 5;
    let partitioning = MultilevelPartitioner::default().partition(&net, k);
    let kws = top_keywords(&net, 3);
    let r = 8 * e;
    let q = SgkQuery::new(kws.clone(), r);

    // 1. Centralized ground truth.
    let mut central = CentralizedCoverage::new(&net);
    let expect = central.sgkq(&q).unwrap();

    // 2. NPD-index distributed.
    let indexes = build_all_indexes(&net, &partitioning, &IndexConfig::with_max_r(40 * e));
    let cluster = Cluster::build(&net, &partitioning, indexes, ClusterConfig::default());
    let npd = cluster.run_sgkq(&q).unwrap();
    assert_eq!(npd.results, expect);

    // 3. BSP (Pregel-style).
    let (bsp_nodes, bsp_run) = bsp_sgkq(&net, &partitioning, &q.keywords, r);
    assert_eq!(bsp_nodes, expect);

    // 4. Iterative correcting, per keyword + intersection.
    let mut iter_result: Option<Vec<NodeId>> = None;
    for &kw in &q.keywords {
        let (nodes, _) = iterative_coverage(&net, &partitioning, kw, r);
        iter_result = Some(match iter_result {
            None => nodes,
            Some(prev) => prev.into_iter().filter(|n| nodes.contains(n)).collect(),
        });
    }
    assert_eq!(iter_result.unwrap(), expect);

    // The architectural contrast (§2.3): baselines need multiple rounds and
    // nonzero inter-fragment bytes; the NPD-index needs neither.
    assert_eq!(npd.stats.rounds, 1);
    assert_eq!(npd.stats.inter_worker_bytes, 0);
    assert!(bsp_run.supersteps > 1);
    assert!(bsp_run.inter_fragment_bytes > 0);
    cluster.shutdown();
}

#[test]
fn bsp_and_iterative_agree_on_raw_sssp() {
    let net = GridNetworkConfig::tiny(701).generate();
    let partitioning = MultilevelPartitioner::default().partition(&net, 3);
    let sources = [(0u32, 0u64), (5, 0)];
    let (bsp_dist, _) = disks::baseline::bsp_sssp(&net, &partitioning, &sources, INF - 1);
    let (iter_dist, _) = iterative_sssp(&net, &partitioning, &sources, INF - 1);
    assert_eq!(bsp_dist, iter_dist);
    let mut ws = DijkstraWorkspace::new(net.num_nodes());
    let mut reference = vec![INF; net.num_nodes()];
    ws.run(&net, sources, INF - 1, |n, d| {
        reference[n as usize] = d;
        disks::roadnet::dijkstra::Control::Continue
    });
    assert_eq!(bsp_dist, reference);
}

#[test]
fn baseline_communication_grows_with_fragments() {
    let net = GridNetworkConfig::small(702).generate();
    let e = net.avg_edge_weight();
    let kw = top_keywords(&net, 1)[0];
    let mut previous_bytes = 0u64;
    for k in [2usize, 8] {
        let partitioning = MultilevelPartitioner::default().partition(&net, k);
        let (_, run) = bsp_keyword_coverage(&net, &partitioning, kw, 10 * e);
        assert!(
            run.inter_fragment_bytes > previous_bytes,
            "more fragments should mean more cut traffic: k={k}"
        );
        previous_bytes = run.inter_fragment_bytes;
    }
}

#[test]
fn coverage_definition_cross_check_on_all_engines() {
    // Definition 4 literal check: a node is covered iff its distance table
    // entry is ≤ r — verified against the centralized table for all three
    // distributed implementations.
    let net = GridNetworkConfig::tiny(703).generate();
    let e = net.avg_edge_weight();
    let partitioning = MultilevelPartitioner::default().partition(&net, 3);
    let kw = top_keywords(&net, 1)[0];
    let r = 6 * e;
    let mut central = CentralizedCoverage::new(&net);
    let table = central.distance_table(Term::Keyword(kw));

    let (bsp_nodes, _) = bsp_keyword_coverage(&net, &partitioning, kw, r);
    let (iter_nodes, _) = iterative_coverage(&net, &partitioning, kw, r);
    for n in net.node_ids() {
        let within = table.get(&n).is_some_and(|&d| d <= r);
        assert_eq!(bsp_nodes.contains(&n), within, "bsp node {n}");
        assert_eq!(iter_nodes.contains(&n), within, "iterative node {n}");
    }
}
