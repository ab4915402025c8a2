//! Socket-transport equivalence and TCP-only fault recovery: the `Link`
//! seam makes the transport invisible to the protocol, so a cluster wired
//! over real `TcpStream` pairs must answer bit-for-bit identically to the
//! in-process channel cluster with the *same* frame ledger (keepalives are
//! transport chatter, never protocol frames). Faults that only a socket
//! can exhibit — a connection killed mid-frame, a stalled peer tripping
//! the read timeout — must surface as the same typed stalls the gather
//! path already retries on, and recover through the existing retry +
//! respawn machinery with exact per-query results.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{
    Cluster, ClusterConfig, FaultPlan, HeartbeatConfig, HeartbeatConfigError, LinkDirection,
    TransportKind,
};
use disks_core::{
    build_all_indexes, CentralizedCoverage, FragmentEngine, IndexConfig, QueryPlan, SgkQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream (same shape the cache and batching
/// suites use), so transport parity is measured on a realistic workload.
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

/// The first `n` queries of a Zipf stream that target every fragment: the
/// worker's own seed test finds each conjunct seeded on each, counted on
/// engines built from the indexes the cluster serves. Each is sent to every
/// machine, so a fault on a machine's nth frame fires on the nth query.
fn stream_to_every_fragment(
    net: &RoadNetwork,
    p: &Partitioning,
    seed: u64,
    n: usize,
) -> Vec<SgkQuery> {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    let engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(net, p, index).unwrap()).collect();
    let every = |q: &SgkQuery| {
        let plan = QueryPlan::lower(&q.to_dfunction());
        engines.iter().all(|e| plan.can_answer(|s| e.seed_count(s.term, s.radius) > 0))
    };
    let stream: Vec<SgkQuery> = zipf_stream(net, seed, 20 * n).into_iter().filter(every).collect();
    assert!(stream.len() >= n, "{} of {} queries target every fragment", stream.len(), 20 * n);
    stream.into_iter().take(n).collect()
}

fn build_cluster(
    net: &RoadNetwork,
    p: &Partitioning,
    transport: TransportKind,
    config: ClusterConfig,
) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    Cluster::build(net, p, indexes, ClusterConfig { transport, ..config })
}

fn base_config() -> ClusterConfig {
    ClusterConfig {
        deadline: Duration::from_millis(200),
        coverage_cache_bytes: 64 << 20,
        ..ClusterConfig::default()
    }
}

/// Every coordinator→worker frame is an initial dispatch or a retry — on
/// any transport. Keepalives never enter this ledger.
fn assert_ledger_closes(cluster: &Cluster) {
    let (c2w_frames, _) = cluster.link_message_totals();
    let (oc, rc) = (cluster.overload_counters(), cluster.recovery_counters());
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries,
        "frame ledger must reconcile exactly: {oc:?} {rc:?}"
    );
}

/// Transport parity: 200 Zipf queries through a TCP-linked cluster and a
/// channel-linked cluster produce identical answers (each exact against
/// the centralized oracle, zero inter-worker bytes) and *identical* frame
/// and byte ledgers — the socket's framing and keepalives are invisible to
/// the protocol's accounting.
#[test]
fn tcp_cluster_matches_channel_cluster_bit_for_bit() {
    let net = GridNetworkConfig::tiny(0x7C9).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0x7C9, 200);

    let tcp = build_cluster(&net, &p, TransportKind::Tcp, base_config());
    let chan = build_cluster(&net, &p, TransportKind::Channel, base_config());
    let mut oracle = CentralizedCoverage::new(&net);

    for (i, q) in stream.iter().enumerate() {
        let a = tcp.run_sgkq(q).unwrap_or_else(|e| panic!("tcp query {i}: {e}"));
        let b = chan.run_sgkq(q).unwrap_or_else(|e| panic!("channel query {i}: {e}"));
        assert_eq!(a.results, b.results, "query {i}: tcp != channel");
        assert_eq!(a.results, oracle.sgkq(q).unwrap(), "query {i} not exact");
        assert_eq!(a.stats.results, b.stats.results, "query {i} result counts diverge");
        assert_eq!(a.stats.inter_worker_bytes, 0);
        assert_eq!(b.stats.inter_worker_bytes, 0);
    }

    // The ledgers agree frame-for-frame and byte-for-byte: same dispatches,
    // same responses, no keepalive ever counted.
    assert_eq!(tcp.link_message_totals(), chan.link_message_totals());
    assert_eq!(tcp.link_totals(), chan.link_totals());
    assert_ledger_closes(&tcp);
    assert_ledger_closes(&chan);
    tcp.shutdown();
    chan.shutdown();
}

/// A connection killed *mid-frame* (length prefix + half the payload, then
/// shutdown) in both directions — on machine 0's 2nd request and machine
/// 1's 3rd answer, of a stream whose every query both machines are sent:
/// the torn frame can never complete, both
/// ends observe EOF, and the coordinator recovers through the existing
/// typed stall → narrowed retry → respawn path with exact results for
/// every query.
#[test]
fn mid_frame_connection_cut_recovers_through_typed_retry_path() {
    let plan = FaultPlan::new(0x7CF)
        .cut_link_mid_frame(0, LinkDirection::CoordinatorToWorker, 2)
        .cut_link_mid_frame(1, LinkDirection::WorkerToCoordinator, 3);
    let net = GridNetworkConfig::tiny(0x7CF).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let config = ClusterConfig { faults: Some(plan), ..base_config() };
    let cluster = build_cluster(&net, &p, TransportKind::Tcp, config);
    let stream = stream_to_every_fragment(&net, &p, 0x7CF, 8);
    let mut oracle = CentralizedCoverage::new(&net);

    for (i, q) in stream.iter().enumerate() {
        let outcome = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(outcome.results, oracle.sgkq(q).unwrap(), "query {i} not exact across cuts");
        assert_eq!(outcome.stats.inter_worker_bytes, 0);
    }

    let rc = cluster.recovery_counters();
    assert!(rc.retries >= 1, "a torn frame must force a narrowed retry: {rc:?}");
    assert!(rc.timeouts >= 1, "the cut is only visible as a stall: {rc:?}");
    assert!(rc.respawned_workers >= 2, "both cut links must be respawned: {rc:?}");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// A stalled socket: the coordinator-side egress pump goes silent (no
/// payloads *and* no keepalives) for longer than the peer's read-timeout
/// budget. The worker tears the connection down, the coordinator sees the
/// silence as the same typed stall a dropped frame produces, and recovery
/// flows through retry + respawn with exact results.
#[test]
fn stalled_socket_trips_read_timeout_and_recovers() {
    let plan = FaultPlan::new(0x57A).stall_link(0, LinkDirection::CoordinatorToWorker, 2, 400);
    let net = GridNetworkConfig::tiny(0x57A).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let config = ClusterConfig {
        faults: Some(plan),
        // Tight liveness budget so the 400 ms stall is caught quickly: an
        // idle sender proves liveness every 20 ms, silence past 100 ms is a
        // dead link.
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(20),
            read_timeout: Duration::from_millis(100),
        },
        ..base_config()
    };
    let cluster = build_cluster(&net, &p, TransportKind::Tcp, config);
    let stream = zipf_stream(&net, 0x57A, 6);
    let mut oracle = CentralizedCoverage::new(&net);

    for (i, q) in stream.iter().enumerate() {
        let outcome = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(outcome.results, oracle.sgkq(q).unwrap(), "query {i} not exact across stall");
    }

    let rc = cluster.recovery_counters();
    assert!(rc.timeouts >= 1, "the stall must surface as a typed gather timeout: {rc:?}");
    assert!(rc.retries >= 1, "the stalled dispatch must be narrowly retried: {rc:?}");
    assert!(rc.respawned_workers >= 1, "the torn-down link must be respawned: {rc:?}");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// `HeartbeatConfig::checked` rejects nonsense with *typed* errors an
/// operator (or `ClusterConfig::from_env`) can match on, and passes valid budgets
/// through unchanged.
#[test]
fn heartbeat_validation_yields_typed_errors() {
    assert!(matches!(
        HeartbeatConfig::checked(Duration::ZERO, Duration::from_millis(100)),
        Err(HeartbeatConfigError::ZeroInterval)
    ));
    assert!(matches!(
        HeartbeatConfig::checked(Duration::from_millis(10), Duration::ZERO),
        Err(HeartbeatConfigError::ZeroReadTimeout)
    ));
    // The read timeout must *strictly* exceed the keepalive interval, or a
    // perfectly healthy idle link would flap on schedule.
    match HeartbeatConfig::checked(Duration::from_millis(100), Duration::from_millis(100)) {
        Err(HeartbeatConfigError::ReadTimeoutNotAboveInterval { interval, read_timeout }) => {
            assert_eq!(interval, Duration::from_millis(100));
            assert_eq!(read_timeout, Duration::from_millis(100));
        }
        other => panic!("expected the typed gap error, got {other:?}"),
    }
    let ok = HeartbeatConfig::checked(Duration::from_millis(20), Duration::from_millis(100))
        .expect("a 5x budget is valid");
    assert_eq!(ok.interval, Duration::from_millis(20));
    assert_eq!(ok.read_timeout, Duration::from_millis(100));
    // Typed errors still render an actionable message.
    let msg =
        HeartbeatConfig::checked(Duration::ZERO, Duration::from_millis(1)).unwrap_err().to_string();
    assert!(!msg.is_empty());
}
