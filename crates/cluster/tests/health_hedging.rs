//! Health-aware dispatch: straggler hedging over replicas, quarantine with
//! probation, and the knob-off wire-parity guarantees (DESIGN.md §6j).
//!
//! The chaos half stalls or delays the hottest fragment's primary mid-stream
//! and demands the hedge recover the query long before the transport read
//! timeout — byte-identical answers, no retries, no respawns — on both the
//! TCP and the in-process channel transport, plus the nasty case where the
//! hedge *target* dies mid-hedge and recovery falls back to the ordinary
//! timeout → narrowed retry → respawn path. The property half pins the
//! suspicion score's shape (silence never lowers it, regular arrivals pull
//! it back under the quarantine threshold) and proves the whole health
//! plane is wire-invisible while its knobs are off. Throughout, the frame
//! ledger must close in its extended form:
//!
//! ```text
//! c2w frames == dispatch_frames + retries + prewarm_frames + hedges + probes
//! ```

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{
    Cluster, ClusterConfig, FaultPlan, HealthBoard, HealthConfig, HeartbeatConfig,
    HeartbeatConfigError, HedgeMode, LinkDirection, NetworkModel, TransportKind,
};
use disks_core::{build_all_indexes, CentralizedCoverage, IndexConfig, SgkQuery};
use disks_partition::{FragmentId, MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream over the top-10 keywords — the skew
/// that concentrates load on one fragment's replica set.
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

fn build(
    net: &RoadNetwork,
    p: &Partitioning,
    transport: TransportKind,
    config: ClusterConfig,
) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    Cluster::build(net, p, indexes, ClusterConfig { transport, ..config })
}

/// Explicit knobs everywhere `ClusterConfig::default()` would read the
/// environment, so these tests mean the same thing in every CI lane.
fn base_config() -> ClusterConfig {
    ClusterConfig {
        network: NetworkModel::instant(),
        deadline: Duration::from_millis(1000),
        coverage_cache_bytes: 64 << 20,
        replicas: 1,
        hedge: HedgeMode::Off,
        hedge_ms: 50,
        quarantine: false,
        ..ClusterConfig::default()
    }
}

/// Every coordinator→worker frame is an initial dispatch, a narrowed retry,
/// a pre-warm, a hedge, or a quarantine probe — the extended ledger.
fn assert_ledger_closes(cluster: &Cluster) {
    let (c2w_frames, _) = cluster.link_message_totals();
    let (oc, rc) = (cluster.overload_counters(), cluster.recovery_counters());
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries + rc.prewarm_frames + rc.hedges + rc.probe_frames,
        "frame ledger must reconcile exactly: {oc:?} {rc:?}"
    );
}

/// The acceptance chaos case on the socket transport: the hottest
/// fragment's primary has its worker→coordinator egress pump stalled for
/// 400 ms mid-stream (payloads *and* keepalives stop — exactly what a
/// wedged peer looks like). The adaptive hedge deadline fires within tens
/// of milliseconds, re-dispatches the narrowed plan to the surviving
/// replica, and the first answer wins: every query exact, zero timeouts,
/// zero retries, zero respawns — recovery lands well before the 2 s read
/// timeout would have torn the link down and paid a full respawn.
#[test]
fn hedge_recovers_stalled_tcp_primary_before_read_timeout() {
    let net = GridNetworkConfig::tiny(0x4ED6).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    // Fragment 0 is the declared hotspot: primary machine 0, one replica.
    // Machine 0's second response frame is held hostage for 400 ms.
    let plan = FaultPlan::new(0x4ED6).stall_link(0, LinkDirection::WorkerToCoordinator, 2, 400);
    let cluster = build(
        &net,
        &p,
        TransportKind::Tcp,
        ClusterConfig {
            placement_heat: Some(vec![1000, 1, 1]),
            faults: Some(plan),
            hedge: HedgeMode::Adaptive,
            hedge_ms: 10,
            heartbeat: HeartbeatConfig {
                interval: Duration::from_millis(50),
                read_timeout: Duration::from_millis(2000),
            },
            ..base_config()
        },
    );
    assert_eq!(cluster.placement().machine_of(FragmentId(0)), 0);
    assert_eq!(cluster.placement().replicas_of(FragmentId(0)).len(), 2);

    let stream = zipf_stream(&net, 0x4ED6, 8);
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, q) in stream.iter().enumerate() {
        let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(o.results, oracle.sgkq(q).unwrap(), "query {i} not exact across stall");
        assert_eq!(o.stats.inter_worker_bytes, 0, "query {i}: Theorem 3");
    }

    let rc = cluster.recovery_counters();
    assert!(rc.hedges >= 1, "the stalled answer must be hedged: {rc:?}");
    assert!(rc.hedge_wins >= 1, "the replica's answer must win the race: {rc:?}");
    assert_eq!(rc.timeouts, 0, "hedging must preempt the stall timeout: {rc:?}");
    assert_eq!(rc.retries, 0, "hedges are not retries: {rc:?}");
    assert_eq!(rc.respawned_workers, 0, "recovery must beat the read timeout: {rc:?}");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// The same chaos shape on the in-process channel transport (no keepalives,
/// no read timeout — the delay simply parks the worker thread for 400 ms),
/// with the hedge deadline at its 10 ms floor: identical acceptance — exact answers
/// with zero timeouts, retries, or respawns, and at least one hedge win.
#[test]
fn hedge_recovers_delayed_channel_primary() {
    let net = GridNetworkConfig::tiny(0x4ED7).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let plan = FaultPlan::new(0x4ED7).delay_frame(0, LinkDirection::WorkerToCoordinator, 2, 400);
    let cluster = build(
        &net,
        &p,
        TransportKind::Channel,
        ClusterConfig {
            placement_heat: Some(vec![1000, 1, 1]),
            faults: Some(plan),
            hedge: HedgeMode::Adaptive,
            hedge_ms: 10,
            ..base_config()
        },
    );
    assert_eq!(cluster.placement().replicas_of(FragmentId(0)).len(), 2);

    let stream = zipf_stream(&net, 0x4ED7, 8);
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, q) in stream.iter().enumerate() {
        let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(o.results, oracle.sgkq(q).unwrap(), "query {i} not exact across delay");
    }

    let rc = cluster.recovery_counters();
    assert!(rc.hedges >= 1, "the delayed answer must be hedged: {rc:?}");
    assert!(rc.hedge_wins >= 1, "the replica's answer must win the race: {rc:?}");
    assert_eq!(rc.timeouts, 0, "hedging must preempt the stall timeout: {rc:?}");
    assert_eq!(rc.retries, 0, "hedges are not retries: {rc:?}");
    assert_eq!(rc.respawned_workers, 0, "no link ever died: {rc:?}");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// The nasty case: the hedge *target* is killed by the hedge frame itself.
/// Two fragments fully replicated across two machines; machine 0's answer
/// for fragment 0 is delayed 600 ms, the 10 ms hedge re-dispatches fragment
/// 0 to machine 1 — whose second request (the hedge) is its kill trigger.
/// The hedge can never win; the slot's one-hedge budget is spent; recovery
/// falls back to the ordinary stall path: timeout at the 120 ms deadline,
/// narrowed retry rerouted to machine 1, which is found dead, respawned,
/// pre-warmed, and answers exactly. The respawned worker must not inherit
/// the one-shot kill, and the ledger closes across all five frame kinds.
#[test]
fn killed_hedge_target_falls_back_to_retry() {
    let net = GridNetworkConfig::tiny(0x4ED8).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let plan = FaultPlan::new(0x4ED8)
        .delay_frame(0, LinkDirection::WorkerToCoordinator, 1, 600)
        .kill_worker(1, 2);
    let cluster = build(
        &net,
        &p,
        TransportKind::Channel,
        ClusterConfig {
            faults: Some(plan),
            hedge: HedgeMode::Adaptive,
            hedge_ms: 10,
            deadline: Duration::from_millis(120),
            ..base_config()
        },
    );
    // Fully replicated: machine 1 is the only possible hedge target for
    // fragment 0, and machine 1's first request is query 1's own dispatch.
    assert_eq!(cluster.placement().replicas_of(FragmentId(0)).len(), 2);

    let q = &zipf_stream(&net, 0x4ED8, 1)[0];
    let mut oracle = CentralizedCoverage::new(&net);
    let o = cluster.run_sgkq(q).expect("query must survive a dying hedge target");
    assert_eq!(o.results, oracle.sgkq(q).unwrap(), "not exact across hedge-target death");
    assert!(o.stats.degraded_fragments.is_empty(), "no degradation allowed");

    let rc = cluster.recovery_counters();
    assert_eq!(rc.hedges, 1, "exactly one hedge per slot: {rc:?}");
    assert_eq!(rc.hedge_wins, 0, "a dead target can never win: {rc:?}");
    assert!(rc.timeouts >= 1, "the lost hedge must fall back to the stall timeout: {rc:?}");
    assert!(rc.retries >= 1, "recovery must ride the narrowed-retry path: {rc:?}");
    assert!(rc.respawned_workers >= 1, "the dead hedge target must respawn: {rc:?}");
    assert_eq!(rc.prewarm_frames, rc.respawned_workers, "every respawn is pre-warmed");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

/// Quarantine probation end to end: the hottest fragment's primary parks
/// for 600 ms, its silence crosses the quarantine threshold (expected
/// interval 5 ms, so ~40 ms of dead air), routing stops offering it
/// fragments, jittered backoff probes pile up in its queue — and when the
/// worker wakes, the burst of probe acks clears probation and reinstates
/// it. Queries stay exact throughout, and the probes are the only frames
/// beyond dispatches and hedges on the wire.
#[test]
fn quarantined_machine_is_probed_and_reinstated() {
    let net = GridNetworkConfig::tiny(0x4ED9).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let plan = FaultPlan::new(0x4ED9).delay_frame(0, LinkDirection::WorkerToCoordinator, 1, 600);
    let cluster = build(
        &net,
        &p,
        TransportKind::Channel,
        ClusterConfig {
            placement_heat: Some(vec![1000, 1, 1]),
            faults: Some(plan),
            hedge: HedgeMode::Adaptive,
            hedge_ms: 10,
            quarantine: true,
            // The channel transport sends no keepalives; the interval only
            // sets the health board's expected proof-of-life cadence.
            heartbeat: HeartbeatConfig {
                interval: Duration::from_millis(5),
                read_timeout: Duration::from_millis(500),
            },
            ..base_config()
        },
    );

    let stream = zipf_stream(&net, 0x4ED9, 60);
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, q) in stream.iter().enumerate() {
        let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(o.results, oracle.sgkq(q).unwrap(), "query {i} not exact under quarantine");
    }
    // Keep the stream flowing until the sleeper has woken (600 ms), acked
    // its queued probes, and been reinstated — gathers are what drive the
    // health tick, so reinstatement needs live traffic to land. Pace the
    // tail on the wall clock: the queries themselves finish in microseconds.
    let started = std::time::Instant::now();
    let mut extra = 0usize;
    while cluster.recovery_counters().reinstatements == 0
        && started.elapsed() < Duration::from_secs(5)
    {
        let q = &stream[extra % stream.len()];
        let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("tail query {extra}: {e}"));
        assert_eq!(o.results, oracle.sgkq(q).unwrap(), "tail query {extra} not exact");
        extra += 1;
        std::thread::sleep(Duration::from_millis(1));
    }

    let rc = cluster.recovery_counters();
    assert!(rc.hedges >= 1, "the parked answer must first be hedged: {rc:?}");
    assert!(rc.quarantines >= 1, "40 ms of dead air must quarantine machine 0: {rc:?}");
    assert!(rc.probe_frames >= 1, "quarantine must be probed: {rc:?}");
    assert!(rc.reinstatements >= 1, "the woken worker's acks must reinstate it: {rc:?}");
    assert_eq!(rc.respawned_workers, 0, "quarantine is soft — no respawn: {rc:?}");
    assert_ledger_closes(&cluster);
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Monotonicity: whatever arrival/dispatch/service history a machine
    /// has, more silence never lowers its suspicion score.
    #[test]
    fn suspicion_never_decreases_with_silence(
        events in proptest::collection::vec((0usize..3, 0u64..5_000_000, any::<bool>()), 0..40),
        services in proptest::collection::vec((0usize..3, 0u64..2_000_000), 0..20),
        t1 in 0u64..20_000_000u64,
        dt in 0u64..20_000_000u64,
    ) {
        let mut board = HealthBoard::new(3, HealthConfig::default());
        let mut evs = events;
        evs.sort_by_key(|&(_, t, _)| t);
        for (m, t, arrival) in evs {
            if arrival {
                board.observe_arrival(m, t);
            } else {
                board.observe_dispatch(m, t);
            }
        }
        for (m, micros) in services {
            board.observe_service(m, micros);
        }
        for m in 0..3 {
            let early = board.suspicion(m, t1);
            let late = board.suspicion(m, t1.saturating_add(dt));
            prop_assert!(
                late >= early,
                "longer silence lowered suspicion for {}: {} -> {}", m, early, late
            );
        }
    }

    /// Recovery: after any history — including service times that look
    /// arbitrarily slow — a run of regular arrivals pulls the score back
    /// below the quarantine threshold (the slowness penalty is bounded at
    /// the suspect threshold precisely so service times alone can never
    /// quarantine a live machine).
    #[test]
    fn regular_arrivals_pull_suspicion_below_quarantine(
        events in proptest::collection::vec((0usize..3, 0u64..5_000_000, any::<bool>()), 0..40),
        services in proptest::collection::vec(0u64..10_000_000u64, 0..20),
    ) {
        let cfg = HealthConfig::default();
        let mut board = HealthBoard::new(3, cfg.clone());
        let mut evs = events;
        evs.sort_by_key(|&(_, t, _)| t);
        for (m, t, arrival) in evs {
            if arrival {
                board.observe_arrival(m, t);
            } else {
                board.observe_dispatch(m, t);
            }
        }
        // Make machine 0 look as slow as the history allows (worst case for
        // the bounded penalty) while its peers stay fast.
        for micros in services {
            board.observe_service(0, micros);
        }
        board.observe_service(1, 100);
        board.observe_service(2, 100);
        let step = cfg.expected_interval.as_micros() as u64;
        let mut t = 6_000_000u64;
        for _ in 0..5 {
            board.observe_arrival(0, t);
            t += step;
        }
        let score = board.suspicion(0, t - step);
        prop_assert!(
            score < cfg.quarantine_threshold,
            "regular arrivals must clear quarantine: {} >= {}", score, cfg.quarantine_threshold
        );
    }
}

proptest! {
    // Each case runs three full 200-query clusters; a couple of seeds is
    // plenty for a parity property that is either exact or broken.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// With `DISKS_HEDGE=off` the entire health plane is wire-invisible:
    /// answers, frame counts, and byte counts on a 200-query Zipf stream
    /// are bit-identical whether the health knobs are absent, quarantine is
    /// armed on a healthy cluster, or a hedge deadline is armed but never
    /// reached. Dormant machinery costs nothing on the wire.
    #[test]
    fn dormant_health_plane_is_wire_invisible(seed in any::<u64>()) {
        let net = GridNetworkConfig::tiny(0xD0FF).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let stream = zipf_stream(&net, seed, 200);
        let run = |hedge: HedgeMode, hedge_ms: u64, quarantine: bool| {
            let cluster = build(
                &net,
                &p,
                TransportKind::Channel,
                ClusterConfig { hedge, hedge_ms, quarantine, ..base_config() },
            );
            let answers: Vec<_> = stream
                .iter()
                .map(|q| cluster.run_sgkq(q).expect("fault-free").results)
                .collect();
            let frames = cluster.link_message_totals();
            let bytes = cluster.link_totals();
            let rc = cluster.recovery_counters();
            cluster.shutdown();
            (answers, frames, bytes, rc)
        };
        let (a, fa, ba, ra) = run(HedgeMode::Off, 50, false);
        let (b, fb, bb, rb) = run(HedgeMode::Off, 50, true);
        // A hedge armed 60 s out never fires: arming must be free too.
        let (c, fc, bc, rc_) = run(HedgeMode::Adaptive, 60_000, false);
        prop_assert_eq!(&a, &b, "quarantine-armed healthy cluster diverged");
        prop_assert_eq!(&a, &c, "armed-but-unfired hedge diverged");
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(fa, fc);
        prop_assert_eq!(ba, bb);
        prop_assert_eq!(ba, bc);
        for rc in [&ra, &rb, &rc_] {
            prop_assert_eq!(rc.hedges, 0);
            prop_assert_eq!(rc.hedge_wins, 0);
            prop_assert_eq!(rc.quarantines, 0);
            prop_assert_eq!(rc.probe_frames, 0);
        }
    }
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
