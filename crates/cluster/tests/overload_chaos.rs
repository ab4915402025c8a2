//! Overload + fault chaos soak: a 500-query Zipf stream pushed through the
//! batched dispatch path with cost-model admission, brownout, bounded
//! queues, retry backoff, worker kills, and response-link delays/drops all
//! active at once. The acceptance trichotomy: every query ends in exactly
//! one of {exact oracle match, typed partial with its degraded fragments
//! listed, typed `Overloaded`} — and afterwards the overload/recovery
//! counters reconcile *exactly* against the coordinator→worker link ledger:
//!
//! ```text
//! c2w frames == dispatch_frames + retries + prewarm_frames
//! ```
//!
//! which is the frame-level proof that shed queries never touched the wire.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, FaultPlan, LinkDirection, NetworkModel};
use disks_core::{
    build_all_indexes, CentralizedCoverage, CostParams, DFunction, IndexConfig, QueryError,
    QueryPlan, SgkQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream over the top-10 keywords — the
/// repetition a real workload shows, so the slot-heat ledger and the
/// coverage caches both have something to work with.
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

#[test]
fn chaos_soak_trichotomy_and_ledger_reconciliation() {
    let net = GridNetworkConfig::tiny(0x0BAD).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0xCAFE, 500);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();

    // Budget the per-worker cost at the stream's median estimated cost:
    // everything above the median must shed on cost alone, everything at or
    // below flows through small admission groups (frequent queue pauses).
    let params = CostParams::from_network(&net);
    let mut costs: Vec<u64> =
        fs.iter().map(|f| QueryPlan::lower(f).estimated_cost(&params)).collect();
    costs.sort_unstable();
    let limit = costs[costs.len() / 2];
    let over_budget = costs.iter().filter(|&&c| c > limit).count();
    assert!(over_budget > 0, "seed must produce over-budget queries (limit {limit})");
    assert!(over_budget < fs.len(), "seed must produce admittable queries (limit {limit})");

    // Chaos: each machine crashes once mid-stream; the response link adds a
    // delay and a drop. No coordinator→worker duplicate faults — those
    // legitimately put extra frames on the wire and would (correctly)
    // unbalance the frame ledger this test closes.
    let faults = FaultPlan::new(0x0DD5)
        .kill_worker(0, 25)
        .kill_worker(1, 60)
        .kill_worker(2, 110)
        .delay_frame(1, LinkDirection::WorkerToCoordinator, 40, 30)
        .drop_frame(2, LinkDirection::WorkerToCoordinator, 30);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(
        &net,
        &p,
        indexes,
        ClusterConfig {
            network: NetworkModel::instant(),
            deadline: Duration::from_millis(150),
            allow_partial: true,
            faults: Some(faults),
            coverage_cache_bytes: 64 << 20,
            batch_window: 8,
            cost_limit: limit,
            brownout: 0.75,
            retry_backoff: Duration::from_millis(1),
            queue_capacity: 64,
            ..ClusterConfig::default()
        },
    );

    let (items, _elapsed) = cluster.run_stream(&fs);
    assert_eq!(items.len(), fs.len());

    // The trichotomy: exact, typed partial, or typed Overloaded — nothing
    // else, for every single query.
    let mut oracle = CentralizedCoverage::new(&net);
    let (mut exact, mut partial, mut shed) = (0usize, 0usize, 0usize);
    for (i, item) in items.iter().enumerate() {
        match item {
            Ok(o) if o.stats.degraded_fragments.is_empty() => {
                assert_eq!(o.results, oracle.sgkq(&stream[i]).unwrap(), "query {i} not exact");
                exact += 1;
            }
            Ok(o) => {
                // Typed partial: a strict subset of the oracle's answer,
                // with the unanswered fragments listed.
                let full = oracle.sgkq(&stream[i]).unwrap();
                for node in &o.results {
                    assert!(full.binary_search(node).is_ok(), "query {i}: spurious node {node:?}");
                }
                partial += 1;
            }
            Err(QueryError::Overloaded { retry_after_millis }) => {
                assert!(*retry_after_millis >= 1, "query {i}: empty retry hint");
                shed += 1;
            }
            Err(e) => panic!("query {i}: outside the trichotomy: {e}"),
        }
        if let Ok(o) = item {
            assert_eq!(o.stats.inter_worker_bytes, 0, "query {i}: Theorem 3 violated");
            assert_eq!(o.stats.rounds, 1 + o.stats.retries, "query {i}: round accounting");
            assert!(o.stats.estimated_cost > 0, "query {i}: admitted without a cost");
            assert!(o.stats.estimated_cost <= limit, "query {i}: admitted over budget");
        }
    }
    assert_eq!(exact + partial + shed, fs.len(), "trichotomy must partition the stream");
    assert!(exact > 0, "chaos must not drown every query");
    assert!(shed >= over_budget, "every over-budget query must shed");

    // Overload counters agree with the observed outcomes.
    let oc = cluster.overload_counters();
    assert_eq!(oc.shed, shed as u64);
    assert_eq!(oc.admitted, (exact + partial) as u64);
    assert_eq!(oc.retry_after_hist.iter().sum::<u64>(), oc.shed, "every shed is histogrammed");
    assert!(oc.queue_pauses > 0, "median-cost budget must pause the queue");
    let browned_ok =
        items.iter().filter(|r| matches!(r, Ok(o) if o.stats.browned_out)).count() as u64;
    assert_eq!(oc.browned_out, browned_ok, "brownout attribution matches per-query stats");

    // Recovery: all three kills fired, each respawn was pre-warmed before
    // its retry traffic, and narrowed retries actually happened.
    let rc = cluster.recovery_counters();
    assert!(rc.respawned_workers >= 3, "all three kills must fire: {rc:?}");
    assert_eq!(rc.prewarm_frames, rc.respawned_workers, "every respawn is pre-warmed");
    assert!(rc.prewarmed_slots >= rc.prewarm_frames, "pre-warm frames carry slots");
    assert!(rc.retries > 0, "kills and drops must force narrowed retries");

    // The ledger closes: every coordinator→worker frame is an initial
    // dispatch, a narrowed retry, or a pre-warm — shed queries contributed
    // nothing. (Measured before shutdown; shutdown frames are lifecycle, not
    // query traffic.)
    let (c2w_frames, _) = cluster.link_message_totals();
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries + rc.prewarm_frames,
        "frame ledger must reconcile exactly: {oc:?} {rc:?}"
    );

    cluster.shutdown();
}

/// The same stream with overload control off collapses into one admission
/// group (the pre-overload behavior) and answers everything exactly — the
/// backward-compatibility half of the chaos soak.
#[test]
fn disabled_overload_control_is_the_pre_overload_path() {
    let net = GridNetworkConfig::tiny(0x0BAD).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0xCAFE, 120);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(
        &net,
        &p,
        indexes,
        ClusterConfig {
            network: NetworkModel::instant(),
            deadline: Duration::from_millis(200),
            coverage_cache_bytes: 64 << 20,
            batch_window: 8,
            cost_limit: 0, // overload control off
            brownout: 0.75,
            retry_backoff: Duration::from_millis(1),
            ..ClusterConfig::default()
        },
    );
    let (items, _) = cluster.run_stream(&fs);
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, item) in items.iter().enumerate() {
        let o = item.as_ref().unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        assert_eq!(o.results, oracle.sgkq(&stream[i]).unwrap(), "query {i} not exact");
    }
    let oc = cluster.overload_counters();
    assert_eq!(oc.shed, 0);
    assert_eq!(oc.queue_pauses, 0, "disabled gauge must never pause");
    assert_eq!(oc.browned_out, 0);
    assert_eq!(oc.admitted, fs.len() as u64);
    cluster.shutdown();
}
