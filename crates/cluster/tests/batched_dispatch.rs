//! Batched-dispatch equivalence: merging a window of queries into one
//! super-plan per worker per round is a pure transport optimization, so a
//! Zipf-skewed stream and the same queries asked one at a time must return
//! *byte-identical* answers, equal to the centralized oracle — with zero
//! inter-worker bytes, exact per-query attribution (cache counters summing
//! to the cluster ledger), and a frame economy of well under one frame per
//! query per worker for the stream. Faults inside a batch narrow to
//! per-query retries.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{CacheCounters, Cluster, ClusterConfig, FaultPlan, QueryOutcome};
use disks_core::{
    build_all_indexes, CentralizedCoverage, DFunction, FragmentEngine, IndexConfig, QueryPlan,
    SgkQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream: keywords drawn by popularity rank,
/// radii from a small pool — the repetition a real workload shows and
/// intra-batch slot sharing exploits.
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

fn build_cluster(net: &RoadNetwork, p: &Partitioning, kill_at: Option<u64>) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    let faults = kill_at.map(|nth| FaultPlan::new(0xBA7C).kill_worker(0, nth));
    Cluster::build(
        net,
        p,
        indexes,
        ClusterConfig {
            // Generous stall budget: under TCP lanes with the whole suite
            // running in parallel, a healthy window's answers can be late
            // by scheduler contention alone — only the *kill* may retry.
            // (The kill test asserts pre-kill windows retry exactly zero
            // times, so spurious stall retries are test failures here.)
            deadline: Duration::from_millis(3000),
            coverage_cache_bytes: 64 << 20,
            faults,
            ..ClusterConfig::default()
        },
    )
}

/// The fragments each of `fs` targets: those where the worker's own seed
/// test finds every conjunct seeded, counted on engines built from the
/// indexes the cluster serves, independently of the coordinator.
fn targets(net: &RoadNetwork, p: &Partitioning, fs: &[DFunction]) -> Vec<Vec<bool>> {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    let engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(net, p, index).unwrap()).collect();
    fs.iter()
        .map(|f| {
            let plan = QueryPlan::lower(f);
            engines
                .iter()
                .map(|e| plan.can_answer(|s| e.seed_count(s.term, s.radius) > 0))
                .collect()
        })
        .collect()
}

/// Sum of the per-query wire-reported cache counters — must equal the
/// cluster's lifetime ledger exactly (attribution loses nothing).
fn summed_cache(outcomes: &[QueryOutcome]) -> CacheCounters {
    let mut sum = CacheCounters::default();
    for o in outcomes {
        sum.absorb(&CacheCounters {
            hits: o.stats.cache_hits,
            misses: o.stats.cache_misses,
            evictions: o.stats.cache_evictions,
            bypassed: o.stats.cache_bypassed,
        });
    }
    sum
}

fn summed_batch_shared(outcomes: &[QueryOutcome]) -> u64 {
    outcomes.iter().flat_map(|o| o.stats.per_machine.iter()).map(|m| m.batch_shared).sum()
}

/// The acceptance property: 200 Zipf queries as one stream (windows of 16)
/// and the same 200 asked one `Cluster::run` at a time on the same cluster
/// return byte-identical answers, each exact against the centralized oracle,
/// with zero inter-worker bytes and per-query cache counters that sum to the
/// cluster ledger. The stream shares slots within its windows and sends
/// < 0.25 coordinator frames per query per worker; the single queries send
/// exactly one frame per query per machine hosting a fragment it targets
/// (one fragment a machine here) and share nothing.
#[test]
fn a_stream_matches_single_queries_and_the_oracle_on_a_zipf_stream() {
    let net = GridNetworkConfig::tiny(0xD15C).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0x5EED, 200);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();
    let cluster = build_cluster(&net, &p, None);
    let one_per_query_per_worker = (fs.len() * cluster.num_machines()) as u64;

    let (frames_before, _) = cluster.link_message_totals();
    let (items, _) = cluster.run_stream(&fs);
    let streamed: Vec<QueryOutcome> =
        items.into_iter().collect::<Result<_, _>>().expect("streamed queries");
    let (frames_streamed, _) = cluster.link_message_totals();
    let ledger_streamed = cluster.cache_counters();
    let singles: Vec<QueryOutcome> =
        fs.iter().map(|f| cluster.run(f).expect("single query")).collect();
    let (frames_single, _) = cluster.link_message_totals();

    let mut oracle = CentralizedCoverage::new(&net);
    for (i, q) in stream.iter().enumerate() {
        let (b, u) = (&streamed[i], &singles[i]);
        assert_eq!(b.results, u.results, "query {i}: streamed != single");
        assert_eq!(b.results, oracle.sgkq(q).unwrap(), "query {i} not exact");
        assert_eq!(b.stats.results, u.stats.results, "query {i} result counts diverge");
        // Theorem 3 holds identically under batching.
        assert_eq!(b.stats.inter_worker_bytes, 0);
        assert_eq!(u.stats.inter_worker_bytes, 0);
        assert_eq!(b.stats.retries, 0, "fault-free batch must not retry");
        assert_eq!(u.stats.retries, 0, "fault-free query must not retry");
    }

    // Per-query attribution is exact: the per-outcome wire counters sum to
    // the cluster's lifetime cache ledger, stream and singles alike.
    assert_eq!(summed_cache(&streamed), ledger_streamed);
    let mut all = summed_cache(&streamed);
    all.absorb(&summed_cache(&singles));
    assert_eq!(all, cluster.cache_counters());
    // The Zipf stream repeats slots within a window, so the stream must
    // actually share coverages intra-batch; a single query cannot.
    assert!(summed_batch_shared(&streamed) > 0, "expected intra-batch slot sharing");
    assert_eq!(summed_batch_shared(&singles), 0);

    // Frame economy: at most ceil(200/16) = 13 super-plan frames per worker
    // versus one `Evaluate` frame per query per targeted worker.
    let streamed_rate = (frames_streamed - frames_before) as f64 / one_per_query_per_worker as f64;
    assert!(streamed_rate < 0.25, "streamed frames/query/worker {streamed_rate} too high");
    let targeted: u64 = targets(&net, &p, &fs).iter().flatten().map(|&t| u64::from(t)).sum();
    assert!(targeted < one_per_query_per_worker, "the stream must prune some pairs");
    assert_eq!(frames_single - frames_streamed, targeted);

    cluster.shutdown();
}

/// A worker killed mid-stream (on its 3rd super-plan frame) loses the rest
/// of its queue; recovery narrows to *individual* re-dispatches of only the
/// failed queries — answers stay exact, queries answered before the kill
/// keep `retries == 0`, and attribution still sums to the ledger.
#[test]
fn mid_batch_worker_kill_narrows_to_individual_retries() {
    let net = GridNetworkConfig::tiny(0xC0DE).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let stream = zipf_stream(&net, 0xFA11, 200);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();

    // Window 16 → 13 super-plan frames per worker; machine 0 crashes upon
    // receiving its 3rd (queries 32.. on its fragment never answered).
    let cluster = build_cluster(&net, &p, Some(3));
    let (items, _) = cluster.run_stream(&fs);
    let outcomes: Vec<QueryOutcome> =
        items.into_iter().collect::<Result<_, _>>().expect("stream with mid-batch kill");
    assert_eq!(outcomes.len(), fs.len());

    let mut oracle = CentralizedCoverage::new(&net);
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(outcomes[i].results, oracle.sgkq(q).unwrap(), "query {i} not exact");
        assert_eq!(outcomes[i].stats.inter_worker_bytes, 0);
        assert_eq!(outcomes[i].stats.rounds, 1 + outcomes[i].stats.retries);
    }

    // The kill fired and the worker was respawned.
    assert!(cluster.recovery_counters().respawned_workers >= 1, "kill must have fired");
    // Recovery is per query: some queries were re-dispatched individually,
    // but the first two windows (queries 0..32) completed before the crash
    // and must be untouched.
    let retried: Vec<usize> = (0..fs.len()).filter(|&i| outcomes[i].stats.retries > 0).collect();
    assert!(!retried.is_empty(), "lost batch members must be retried");
    assert!(retried.len() < fs.len(), "retries must narrow, not resend the stream");
    assert!(retried.iter().all(|&i| i >= 32), "pre-kill windows retried: {retried:?}");
    let total: u64 = outcomes.iter().map(|o| o.stats.retries as u64).sum();
    assert_eq!(cluster.recovery_counters().retries, total, "per-query retry attribution");

    // Attribution stays exact across the fault: accepted wire counters sum
    // to the ledger even though some frames were lost with the dead worker.
    assert_eq!(summed_cache(&outcomes), cluster.cache_counters());
    cluster.shutdown();
}
