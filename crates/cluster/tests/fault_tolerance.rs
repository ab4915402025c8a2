//! Fault-tolerance integration tests: every schedule here is a seeded,
//! deterministic [`FaultPlan`], and every recovered query must still equal
//! the centralized baseline with **zero** inter-worker bytes — Lemma 1's
//! per-fragment union and Theorem 3's communication bound are invariant
//! under retry, duplication, and worker failover because fragment tasks are
//! stateless and idempotent.

use std::time::{Duration, Instant};

use disks_cluster::{Cluster, ClusterConfig, FaultPlan, LinkDirection, NetworkModel};
use disks_core::{build_all_indexes, CentralizedCoverage, IndexConfig, QueryError, SgkQuery};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
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

/// A config tuned for fast fault tests: instant network, short stall
/// deadline so dropped frames are re-dispatched within milliseconds.
fn fault_config(faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        network: NetworkModel::instant(),
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

/// A killed worker with no retry budget: the query fails *quickly* with a
/// typed [`QueryError::WorkerTimeout`] naming the silent fragments, instead
/// of hanging; the next query succeeds on a respawned worker.
#[test]
fn killed_worker_yields_typed_timeout_then_respawns() {
    let plan = FaultPlan::new(95).kill_worker(0, 1);
    let config = ClusterConfig { max_attempts: 1, ..fault_config(plan) };
    let (net, cluster) = setup(95, 2, config);
    let q = SgkQuery::new(vec![top_keyword(&net)], 3 * net.avg_edge_weight());

    let start = Instant::now();
    match cluster.run_sgkq(&q) {
        Err(QueryError::WorkerTimeout { fragments, attempts }) => {
            assert!(!fragments.is_empty());
            assert_eq!(attempts, 1);
        }
        other => panic!("expected WorkerTimeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout must be bounded by the deadline, not hang"
    );

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
        // 40 queries are three windows, so machine 0 dies on the second of
        // its three frames.
        batch_window: 16,
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
        network: NetworkModel::instant(),
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
