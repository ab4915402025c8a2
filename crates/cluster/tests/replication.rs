//! Replica-set placement and load-aware routing: any replica of a fragment
//! answers the same coverage (the Lemma 1 union is replica-invariant), so a
//! replicated cluster must be *observably identical on answers* to the
//! single-owner cluster — over Zipf streams, under least-loaded routing
//! that provably serves fragments off non-primary machines, and across a
//! mid-stream kill of the hottest fragment's primary, where the narrowed
//! retry re-routes to the surviving replica and the query completes exactly
//! while the respawn proceeds in the background.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, FaultPlan, NetworkModel};
use disks_core::{
    build_all_indexes, centralized_topk, CentralizedCoverage, DFunction, IndexConfig, ScoreCombine,
    SgkQuery, TopKQuery,
};
use disks_partition::{FragmentId, MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream over the top-10 keywords — the skew
/// that makes some fragments hot and replication worth having.
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

fn build(net: &RoadNetwork, p: &Partitioning, config: ClusterConfig) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    Cluster::build(net, p, indexes, config)
}

fn base_config() -> ClusterConfig {
    ClusterConfig {
        network: NetworkModel::instant(),
        deadline: Duration::from_millis(200),
        coverage_cache_bytes: 64 << 20,
        ..ClusterConfig::default()
    }
}

/// Replicated clusters (1 and 2 extra copies, least-loaded routing) answer
/// a 200-query Zipf stream byte-identically to the single-owner cluster and
/// exactly against the centralized oracle — fault-free, with zero reroutes,
/// zero inter-worker bytes, and every fragment hosted on `replicas + 1`
/// distinct machines.
#[test]
fn replicated_answers_are_byte_identical_to_single_owner() {
    let net = GridNetworkConfig::tiny(0xD15C).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0x5EED, 200);
    let mut oracle = CentralizedCoverage::new(&net);

    let baseline = build(&net, &p, ClusterConfig { replicas: 0, ..base_config() });
    for replicas in [1usize, 2] {
        let cluster = build(&net, &p, ClusterConfig { replicas, ..base_config() });
        let placement = cluster.placement();
        assert!(placement.is_replicated());
        for f in 0..placement.num_fragments() {
            assert_eq!(
                placement.replicas_of(FragmentId(f as u32)).len(),
                replicas + 1,
                "fragment {f} must be hosted on {} machines",
                replicas + 1
            );
        }
        for (i, q) in stream.iter().enumerate() {
            let a = baseline.run_sgkq(q).unwrap_or_else(|e| panic!("baseline query {i}: {e}"));
            let b = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("r={replicas} query {i}: {e}"));
            assert_eq!(a.results, b.results, "r={replicas} query {i}: answers diverge");
            assert_eq!(b.results, oracle.sgkq(q).unwrap(), "r={replicas} query {i}: not exact");
            assert_eq!(b.stats.inter_worker_bytes, 0, "r={replicas} query {i}: Theorem 3");
            assert!(b.stats.degraded_fragments.is_empty(), "r={replicas} query {i}: degraded");
        }
        let rc = cluster.recovery_counters();
        assert_eq!(rc.reroutes, 0, "fault-free stream must never reroute: {rc:?}");
        assert_eq!(rc.retries, 0, "fault-free stream must never retry: {rc:?}");
        assert!(cluster.unbalance_factor() >= 1.0);
        cluster.shutdown();
    }
    baseline.shutdown();
}

/// Least-loaded routing actually uses the replicas: with three fragments on
/// two machines and one replica of each (every fragment hosted everywhere),
/// the cumulative-load tie-breaking provably serves some fragments off
/// non-primary machines — visible in the per-query serving attribution —
/// while every answer stays exact. Top-k rides the same routed dispatch.
#[test]
fn least_loaded_routing_serves_fragments_off_non_primary_replicas() {
    let net = GridNetworkConfig::tiny(0xBA1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let cluster =
        build(&net, &p, ClusterConfig { machines: Some(2), replicas: 1, ..base_config() });
    let stream = zipf_stream(&net, 0xF00D, 60);
    let mut oracle = CentralizedCoverage::new(&net);

    let mut off_primary = 0usize;
    for (i, q) in stream.iter().enumerate() {
        let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(o.results, oracle.sgkq(q).unwrap(), "query {i}: not exact");
        for (m, mc) in o.stats.per_machine.iter().enumerate() {
            for &f in &mc.fragments {
                if cluster.placement().machine_of(FragmentId(f)) != m {
                    off_primary += 1;
                }
            }
        }
    }
    assert!(
        off_primary > 0,
        "least-loaded routing over fully replicated fragments must serve off-primary"
    );

    // Top-k flows through the same routed dispatch and stays exact.
    let freqs = net.keyword_frequencies();
    let kw = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
    let q = TopKQuery::new(vec![kw], 5, 6 * net.avg_edge_weight(), ScoreCombine::Max);
    let (ranked, stats) = cluster.run_topk(&q).unwrap();
    assert_eq!(ranked, centralized_topk(&net, &q).unwrap(), "top-k not exact under routing");
    assert_eq!(stats.inter_worker_bytes, 0);

    assert_eq!(cluster.recovery_counters().reroutes, 0, "fault-free: no reroutes");
    cluster.shutdown();
}

/// The satellite chaos property: kill the primary of the *hottest* fragment
/// mid-stream with one replica configured. Every query still completes
/// exactly (zero degraded fragments anywhere) because the narrowed retry is
/// re-routed to the surviving replica, the respawn of the dead primary
/// proceeds in the background (pre-warmed before any retry traffic), and
/// the coordinator→worker frame ledger still closes exactly:
///
/// ```text
/// c2w frames == dispatch_frames + retries + prewarm_frames + hedges + probes
/// ```
#[test]
fn killing_hottest_fragment_primary_reroutes_to_surviving_replica() {
    let net = GridNetworkConfig::tiny(0x0BAD).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0xCAFE, 200);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();

    // Declare fragment 0 the hottest: its primary is machine 0 (round-robin
    // places fragment f on machine f here), which the fault plan kills on
    // its 10th request — mid-stream, while queries are in flight.
    let heat = vec![1000, 1, 1];
    let cluster = build(
        &net,
        &p,
        ClusterConfig {
            replicas: 1,
            placement_heat: Some(heat),
            faults: Some(FaultPlan::new(0x0DD5).kill_worker(0, 10)),
            // Windows of 8 put 25 frames on machine 0's link, so the
            // 10th-request kill is sure to fire.
            batch_window: 8,
            ..base_config()
        },
    );
    assert_eq!(cluster.placement().machine_of(FragmentId(0)), 0);
    assert_eq!(cluster.placement().replicas_of(FragmentId(0)).len(), 2);

    let (items, _) = cluster.run_stream(&fs);
    assert_eq!(items.len(), fs.len());
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, item) in items.iter().enumerate() {
        let o = item.as_ref().unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        assert!(o.stats.degraded_fragments.is_empty(), "query {i}: degraded across kill");
        assert_eq!(o.results, oracle.sgkq(&stream[i]).unwrap(), "query {i}: not exact");
        assert_eq!(o.stats.inter_worker_bytes, 0, "query {i}: Theorem 3");
    }

    let rc = cluster.recovery_counters();
    assert!(rc.reroutes >= 1, "retry must move to the surviving replica: {rc:?}");
    assert!(rc.retries >= rc.reroutes, "every reroute is a narrowed retry: {rc:?}");
    assert!(rc.respawned_workers >= 1, "the dead primary must respawn in background: {rc:?}");
    assert_eq!(rc.prewarm_frames, rc.respawned_workers, "every respawn is pre-warmed: {rc:?}");

    // The ledger closes even with re-routed retries in the mix: every
    // coordinator→worker frame is an initial dispatch, a narrowed retry
    // (re-routed or not), a pre-warm, a hedge, or a quarantine probe.
    let oc = cluster.overload_counters();
    let (c2w_frames, _) = cluster.link_message_totals();
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries + rc.prewarm_frames + rc.hedges + rc.probe_frames,
        "frame ledger must reconcile exactly: {oc:?} {rc:?}"
    );

    cluster.shutdown();
}
