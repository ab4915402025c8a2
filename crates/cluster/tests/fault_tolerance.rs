//! Fault-tolerance integration tests: every schedule here is a seeded,
//! deterministic [`FaultPlan`], and every recovered query must still equal
//! the centralized baseline with **zero** inter-worker bytes — Lemma 1's
//! per-fragment union and Theorem 3's communication bound are invariant
//! under retry, duplication, and worker failover because fragment tasks are
//! stateless and idempotent.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::message::encode_frame;
use disks_cluster::{Cluster, ClusterConfig, FaultPlan, LinkDirection, QueryStats, Request};
use disks_core::{
    build_all_indexes, centralized_topk, CentralizedCoverage, DFunction, IndexConfig, QueryError,
    QueryPlan, ScoreCombine, SeedFloors, SgkQuery, SuperPlan, Targets, TopKQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

fn setup(seed: u64, k: usize, config: ClusterConfig) -> (RoadNetwork, Cluster) {
    let net = GridNetworkConfig::tiny(seed).generate();
    let p: Partitioning = MultilevelPartitioner::default().partition(&net, k);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(&net, &p, indexes, config);
    (net, cluster)
}

fn top_keyword(net: &RoadNetwork) -> KeywordId {
    let freqs = net.keyword_frequencies();
    let best = (0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap();
    KeywordId(best as u32)
}

/// A config tuned for fast fault tests: a short stall deadline, so dropped
/// frames are re-dispatched within milliseconds.
fn fault_config(faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        deadline: Duration::from_millis(200),
        faults: Some(faults),
        ..ClusterConfig::default()
    }
}

/// The acceptance scenario: one worker panics, one response frame is
/// dropped, one is duplicated — all in a single seeded plan — and the
/// distributed answer is still exactly the centralized one, with retries
/// recorded and no worker-to-worker traffic.
#[test]
fn combined_panic_drop_duplicate_still_exact() {
    let plan = FaultPlan::new(90)
        .panic_worker(1, 1)
        .drop_frame(0, LinkDirection::WorkerToCoordinator, 1)
        .duplicate_frame(2, LinkDirection::WorkerToCoordinator, 1);
    let (net, cluster) = setup(90, 3, fault_config(plan));
    let q = SgkQuery::new(vec![top_keyword(&net)], 4 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.retries > 0, "panic + drop must force retries");
    assert_eq!(outcome.stats.inter_worker_bytes, 0);
    assert!(outcome.stats.rounds > 1);
    cluster.shutdown();
}

#[test]
fn dropped_response_frame_is_redispatched() {
    let plan = FaultPlan::new(91).drop_frame(0, LinkDirection::WorkerToCoordinator, 1);
    let (net, cluster) = setup(91, 2, fault_config(plan));
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.retries >= 1);
    assert!(outcome.stats.timeouts >= 1, "the drop is only visible as a stall");
    assert!(cluster.recovery_counters().timeouts >= 1);
    cluster.shutdown();
}

#[test]
fn duplicated_response_frame_is_deduplicated() {
    let plan = FaultPlan::new(92).duplicate_frame(0, LinkDirection::WorkerToCoordinator, 1);
    let (net, cluster) = setup(92, 2, fault_config(plan));
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.duplicate_responses >= 1);
    // A duplicate alone must not force a retry round.
    assert_eq!(outcome.stats.retries, 0);
    cluster.shutdown();
}

#[test]
fn corrupt_frame_is_counted_ignored_and_recovered() {
    let plan = FaultPlan::new(93).corrupt_frame(0, LinkDirection::WorkerToCoordinator, 1);
    let (net, cluster) = setup(93, 2, fault_config(plan));
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.corrupt_frames >= 1);
    assert!(outcome.stats.retries >= 1, "the corrupted response must be re-requested");
    cluster.shutdown();
}

#[test]
fn delayed_frame_within_deadline_needs_no_retry() {
    let plan = FaultPlan::new(94).delay_frame(0, LinkDirection::WorkerToCoordinator, 1, 50);
    let (net, cluster) = setup(94, 2, fault_config(plan));
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert_eq!(outcome.stats.retries, 0);
    assert_eq!(outcome.stats.rounds, 1);
    cluster.shutdown();
}

/// A killed worker with no retry budget: the query fails at its first stall
/// deadline with a typed [`QueryError::WorkerTimeout`] naming the silent
/// fragments, instead of hanging; the next query succeeds on a respawned
/// worker.
#[test]
fn killed_worker_yields_typed_timeout_then_respawns() {
    let plan = FaultPlan::new(95).kill_worker(0, 1);
    let config = ClusterConfig { max_attempts: 1, ..fault_config(plan) };
    let (net, cluster) = setup(95, 2, config);
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    match cluster.run_sgkq(&q) {
        Err(QueryError::WorkerTimeout { fragments, attempts }) => {
            assert!(!fragments.is_empty());
            assert_eq!(attempts, 1);
        }
        other => panic!("expected WorkerTimeout, got {other:?}"),
    }
    assert_eq!(cluster.recovery_counters().timeouts, 1, "one silent deadline ends it");

    // The dead machine is detected at the next dispatch and respawned from
    // the retained index spec; the same query now succeeds exactly.
    let outcome = cluster.run_sgkq(&q).unwrap();
    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(outcome.stats.respawned_workers >= 1);
    assert!(cluster.recovery_counters().respawned_workers >= 1);
    cluster.shutdown();
}

/// With `allow_partial`, an exhausted retry budget degrades instead of
/// failing: the unanswered fragments are reported and the result is the
/// union of the fragments that did answer (a subset of the exact answer,
/// by Lemma 1).
#[test]
fn exhausted_budget_with_allow_partial_degrades() {
    let plan = FaultPlan::new(96).kill_worker(0, 1);
    let config = ClusterConfig { max_attempts: 1, allow_partial: true, ..fault_config(plan) };
    let (net, cluster) = setup(96, 2, config);
    let q = SgkQuery::new(vec![top_keyword(&net)], 4 * net.avg_edge_weight());

    let outcome = cluster.run_sgkq(&q).unwrap();

    assert!(!outcome.stats.degraded_fragments.is_empty());
    let mut central = CentralizedCoverage::new(&net);
    let exact = central.sgkq(&q).unwrap();
    assert!(
        outcome.results.iter().all(|n| exact.contains(n)),
        "a degraded answer must be a subset of the exact answer"
    );
    cluster.shutdown();
}

/// A top-k on `tiny` in four fragments, fragment `f` on machine `f`, whose
/// two keywords leave two fragments unranked: the network, the cluster
/// built with the config `config` makes of the targets, the query and the
/// fragments its plan targets by the indexes' seed floors.
fn topk_setup(
    config: impl FnOnce(&[u32]) -> ClusterConfig,
) -> (RoadNetwork, Cluster, TopKQuery, Vec<u32>) {
    let net = GridNetworkConfig::tiny(0x70CC).generate();
    let p: Partitioning = MultilevelPartitioner::default().partition(&net, 4);
    let e = net.avg_edge_weight();
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(4 * e));
    let floors = SeedFloors::new(&net, &p, &indexes);
    let freqs = net.keyword_frequencies();
    let used: Vec<KeywordId> =
        (0..freqs.len()).filter(|&k| freqs[k] > 0).map(|k| KeywordId(k as u32)).collect();
    let targets_of = |q: &TopKQuery| -> Vec<u32> {
        let plan = QueryPlan::topk(q).unwrap();
        (0..4).filter(|&f| floors.can_answer(&plan, disks_partition::FragmentId(f))).collect()
    };
    let (q, targets) = (used.iter().flat_map(|&a| used.iter().map(move |&b| (a, b))))
        .map(|(a, b)| TopKQuery::new(vec![a, b], 10, 2 * e, ScoreCombine::Sum))
        .map(|q| (targets_of(&q), q))
        .find(|(targets, q)| q.keywords.len() == 2 && targets.len() == 2)
        .map(|(targets, q)| (q, targets))
        .expect("a two-keyword top-k ranked on two of the four fragments");
    let cluster = Cluster::build(&net, &p, indexes, config(&targets));
    (net, cluster, q, targets)
}

/// The fragments whose answers a query's stats credit, ascending.
fn answered(stats: &QueryStats) -> Vec<u32> {
    let mut fragments: Vec<u32> =
        stats.per_machine.iter().flat_map(|m| m.fragments.iter().copied()).collect();
    fragments.sort_unstable();
    fragments
}

/// Every coordinator→worker frame is an initial dispatch or a retry.
fn assert_ledger_closes(cluster: &Cluster) {
    let (oc, rc) = (cluster.overload_counters(), cluster.recovery_counters());
    assert_eq!(cluster.link_message_totals().0, oc.dispatch_frames + rc.retries);
}

/// A top-k whose target's machine dies on it is retried, once the stall
/// deadline passes, as a one-program `Batch` naming only that target, on a
/// respawned worker: the ranking is the oracle's, from exactly the targets,
/// and the frame ledger closes. Every coordinator→worker byte is one of the
/// two targets' dispatch frames or that retry.
#[test]
fn a_topk_on_a_killed_worker_is_retried_on_the_missing_target_alone() {
    let kill =
        |targets: &[u32]| fault_config(FaultPlan::new(1).kill_worker(targets[0] as usize, 1));
    let (net, cluster, q, targets) = topk_setup(kill);
    let dead = targets[0];
    let (ranked, stats) = cluster.run_topk(&q).unwrap();
    assert_eq!(ranked, centralized_topk(&net, &q).unwrap());
    assert_eq!(answered(&stats), targets);
    assert_eq!((stats.retries, stats.inter_worker_bytes), (1, 0));
    assert!(stats.respawned_workers >= 1);
    let batch = |targets: Targets| {
        let plan = SuperPlan::merge_targeted(&[QueryPlan::topk(&q).unwrap()], [targets]);
        encode_frame(&Request::Batch { base: 0, plan, fragments: vec![] }).len() as u64
    };
    let dispatch = batch(Targets::Only(targets.clone()));
    assert_eq!(cluster.link_totals().0, 2 * dispatch + batch(Targets::Only(vec![dead])));
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// A panic while a worker ranks its fragment is a typed failure on the
/// wire, retried like any other: the ranking stays exact.
#[test]
fn a_topk_whose_worker_panics_is_retried_and_exact() {
    let panic =
        |targets: &[u32]| fault_config(FaultPlan::new(2).panic_worker(targets[1] as usize, 1));
    let (net, cluster, q, targets) = topk_setup(panic);
    let (ranked, stats) = cluster.run_topk(&q).unwrap();
    assert_eq!(ranked, centralized_topk(&net, &q).unwrap());
    assert_eq!(answered(&stats), targets);
    assert!(stats.retries >= 1, "the panicked fragment must be asked again");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// With one attempt and partial answers, a top-k whose target's machine
/// dies degrades that target alone: its degraded fragments are among its
/// targets, and the rest of them answered.
#[test]
fn a_degraded_topk_loses_only_targets() {
    let (_, cluster, q, targets) = topk_setup(|targets| ClusterConfig {
        max_attempts: 1,
        allow_partial: true,
        ..fault_config(FaultPlan::new(3).kill_worker(targets[0] as usize, 1))
    });
    let (_, stats) = cluster.run_topk(&q).unwrap();
    let lost = &stats.degraded_fragments;
    assert!(lost.iter().all(|f| targets.contains(f)), "degraded {lost:?} of {targets:?}");
    assert_eq!(lost, &[targets[0]], "the dead machine's target, and it alone");
    assert_eq!(answered(&stats), targets[1..]);
    assert_eq!(stats.retries, 0);
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// The give-up path closes a streamed query like any other: a worker killed
/// between the windows of one stream, with no retry budget, leaves the
/// queries of the windows it never answered degraded — each still `Ok`,
/// assembled from exactly the fragments that did answer.
#[test]
fn a_worker_killed_between_windows_degrades_only_its_fragments() {
    let net = GridNetworkConfig::tiny(99).generate();
    let p: Partitioning = MultilevelPartitioner::default().partition(&net, 4);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let config = ClusterConfig {
        max_attempts: 1,
        allow_partial: true,
        // 40 queries are three windows of 16, so machine 0 dies on the
        // second of its three frames.
        ..fault_config(FaultPlan::new(99).kill_worker(0, 2))
    };
    let cluster = Cluster::build(&net, &p, indexes, config);
    let (kw, e) = (top_keyword(&net), net.avg_edge_weight());
    let queries: Vec<SgkQuery> =
        (0..40).map(|i| SgkQuery::new(vec![kw], (2 + i) * e / 2)).collect();
    let fs: Vec<_> = queries.iter().map(SgkQuery::to_dfunction).collect();

    let (outcomes, _) = cluster.run_stream(&fs);

    let mut central = CentralizedCoverage::new(&net);
    let (mut whole, mut degraded) = (0, 0);
    for (q, outcome) in queries.iter().zip(outcomes) {
        let outcome = outcome.expect("a degraded query is still Ok");
        let lost = &outcome.stats.degraded_fragments;
        if lost.is_empty() {
            whole += 1;
        } else {
            degraded += 1;
        }
        let mut expected = central.sgkq(q).unwrap();
        expected.retain(|&n| !lost.contains(&p.fragment_of(n).0));
        assert_eq!(outcome.results, expected, "r={} lost {lost:?}", q.radius);
        assert_eq!(outcome.stats.results, expected.len());
    }
    assert!(whole >= 16, "the first window was answered in full ({whole})");
    assert!(degraded >= 16, "the second window lost machine 0 ({degraded})");
    assert!(cluster.recovery_counters().timeouts >= 1, "silence is how the kill shows");
    cluster.shutdown();
}

/// An aborted query's in-flight responses show up during the *next* gather
/// and must be dropped as out-of-window, not spliced into the wrong result.
/// (Invalid queries no longer produce this scenario — admission rejects
/// them before dispatch — so the abort here is a retry-budget exhaustion
/// while both responses are stuck on a slow link.)
#[test]
fn stale_responses_from_aborted_query_are_dropped_out_of_window() {
    // Both workers' first responses are delayed past the stall deadline and
    // the retry budget is 1, so the first gather aborts with WorkerTimeout
    // while two frames are still in flight.
    let plan = FaultPlan::new(97)
        .delay_frame(0, LinkDirection::WorkerToCoordinator, 1, 600)
        .delay_frame(1, LinkDirection::WorkerToCoordinator, 1, 600);
    let config = ClusterConfig {
        deadline: Duration::from_millis(150),
        max_attempts: 1,
        faults: Some(plan),
        ..ClusterConfig::default()
    };
    let (net, cluster) = setup(97, 2, config);
    let kw = top_keyword(&net);

    let q = SgkQuery::new(vec![kw], 3 * net.avg_edge_weight());
    assert!(matches!(cluster.run_sgkq(&q), Err(QueryError::WorkerTimeout { .. })));

    // Wait for the delayed frames to land in the response channel, then
    // verify the follow-up query is exact despite the stale frames.
    std::thread::sleep(Duration::from_millis(700));
    let outcome = cluster.run_sgkq(&q).unwrap();
    let mut central = CentralizedCoverage::new(&net);
    assert_eq!(outcome.results, central.sgkq(&q).unwrap());
    assert!(cluster.recovery_counters().out_of_window_responses >= 1);
    cluster.shutdown();
}

/// Fault schedules are deterministic: the same seed and plan produce the
/// same recovery counters twice in a row.
#[test]
fn seeded_fault_schedules_are_reproducible() {
    let run = || {
        let plan = FaultPlan::new(98)
            .drop_frame(0, LinkDirection::WorkerToCoordinator, 1)
            .duplicate_frame(1, LinkDirection::WorkerToCoordinator, 1);
        let (net, cluster) = setup(98, 2, fault_config(plan));
        let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());
        let outcome = cluster.run_sgkq(&q).unwrap();
        let counters = cluster.recovery_counters();
        cluster.shutdown();
        (outcome.results, counters)
    };
    let (results_a, counters_a) = run();
    let (results_b, counters_b) = run();
    assert_eq!(results_a, results_b);
    assert_eq!(counters_a, counters_b);
}

/// A seeded Zipf-skewed SGKQ stream over the top-10 keywords — the
/// repetition a real workload shows, so the coverage caches have something
/// to work with and a respawn has something to lose.
fn zipf_stream(net: &RoadNetwork, seed: u64, n: usize) -> Vec<SgkQuery> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
    ranked.truncate(10);
    let zipf = Zipf::new(ranked.len(), 1.0);
    let e = net.avg_edge_weight();
    let radii = [2 * e, 3 * e, 4 * e];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let num_kw = 1 + rng.gen_range(0..2);
            let kws: Vec<KeywordId> =
                (0..num_kw).map(|_| KeywordId(ranked[zipf.sample(&mut rng)] as u32)).collect();
            SgkQuery::new(kws, radii[rng.gen_range(0..radii.len())])
        })
        .collect()
}

/// A chaos soak: a 500-query Zipf stream in windows of 16 while every
/// machine crashes once mid-stream and the response links delay one frame
/// and drop another. Every query ends exact or typed-partial (a subset of
/// the oracle's answer, its unanswered fragments listed), and afterwards
/// the coordinator→worker link ledger closes exactly:
///
/// ```text
/// c2w frames == dispatch_frames + retries
/// ```
#[test]
fn chaos_soak_is_exact_or_partial_and_the_frame_ledger_closes() {
    let net = GridNetworkConfig::tiny(0x0BAD).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0xCAFE, 500);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();

    // Each machine gets 32 window frames, so every kill fires inside the
    // initial dispatch. No coordinator→worker duplicate faults — those
    // legitimately put extra frames on the wire and would (correctly)
    // unbalance the frame ledger this test closes.
    let faults = FaultPlan::new(0x0DD5)
        .kill_worker(0, 10)
        .kill_worker(1, 18)
        .kill_worker(2, 26)
        .delay_frame(1, LinkDirection::WorkerToCoordinator, 20, 30)
        .drop_frame(2, LinkDirection::WorkerToCoordinator, 15);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(
        &net,
        &p,
        indexes,
        ClusterConfig {
            deadline: Duration::from_millis(150),
            allow_partial: true,
            faults: Some(faults),
            coverage_cache_bytes: 64 << 20,
            ..ClusterConfig::default()
        },
    );

    let (items, _elapsed) = cluster.run_stream(&fs);
    assert_eq!(items.len(), fs.len());

    let mut oracle = CentralizedCoverage::new(&net);
    let (mut exact, mut partial) = (0usize, 0usize);
    for (i, item) in items.iter().enumerate() {
        let o =
            item.as_ref().unwrap_or_else(|e| panic!("query {i}: neither exact nor partial: {e}"));
        let full = oracle.sgkq(&stream[i]).unwrap();
        if o.stats.degraded_fragments.is_empty() {
            assert_eq!(o.results, full, "query {i} not exact");
            exact += 1;
        } else {
            for node in &o.results {
                assert!(full.binary_search(node).is_ok(), "query {i}: spurious node {node:?}");
            }
            partial += 1;
        }
        assert_eq!(o.stats.inter_worker_bytes, 0, "query {i}: Theorem 3 violated");
        assert_eq!(o.stats.rounds, 1 + o.stats.retries, "query {i}: round accounting");
    }
    assert_eq!(exact + partial, fs.len());
    assert!(exact > 0, "chaos must not drown every query");

    // Recovery: all three kills fired and narrowed retries actually
    // happened.
    let rc = cluster.recovery_counters();
    assert!(rc.respawned_workers >= 3, "all three kills must fire: {rc:?}");
    assert!(rc.retries > 0, "kills and drops must force narrowed retries");

    // The ledger closes: every coordinator→worker frame is an initial
    // dispatch or a narrowed retry. (Measured before shutdown; shutdown
    // frames are lifecycle, not query traffic.)
    let oc = cluster.overload_counters();
    assert_eq!(oc.shed, 0, "the coordinator sheds nothing");
    let (c2w_frames, _) = cluster.link_message_totals();
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries,
        "frame ledger must reconcile exactly: {oc:?} {rc:?}"
    );

    cluster.shutdown();
}
