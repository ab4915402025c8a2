//! Intra-worker parallel slot evaluation (DESIGN.md §6k) is a pure compute
//! optimization: the two-phase protocol evaluates a frame's distinct
//! coverage slots on a pool of evaluator threads, then commits serially,
//! taking what the lazy plan driver asks for in its order — so a cluster at
//! any `worker_threads` must be *value-identical* to the sequential worker.
//! These tests close that contract four ways: a property test over
//! arbitrary Zipf slot tables (answers, per-machine value-plane costs,
//! cache ledger, and frame/byte ledgers all equal across thread counts),
//! the same parity on a rare-keyword stream whose plans have empty operands
//! (the pool speculates on slots the commit pass never asks for), a
//! kill/hedge/quarantine chaos run with the pool enabled on both
//! transports, and an injected-panic case proving poisoned slots degrade to
//! the serial failure path.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{
    CacheCounters, Cluster, ClusterConfig, FaultPlan, HedgeMode, NetworkModel, QueryOutcome,
    TransportKind,
};
use disks_core::{
    build_all_indexes, CentralizedCoverage, DFunction, IndexConfig, QueryPlan, SetOp, Term,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream over the top-10 keywords: repeated
/// slots within and across batch windows, multi-keyword plans, a small
/// radius pool — the slot-table shapes the two-phase protocol must replay
/// exactly.
fn zipf_stream(net: &RoadNetwork, seed: u64, n: usize) -> Vec<DFunction> {
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
            let kw = KeywordId(ranked[zipf.sample(&mut rng)] as u32);
            let mut f = DFunction::single(Term::Keyword(kw), radii[rng.gen_range(0..radii.len())]);
            if rng.gen_bool(0.5) {
                let kw2 = KeywordId(ranked[zipf.sample(&mut rng)] as u32);
                let op = if rng.gen_bool(0.5) { SetOp::Union } else { SetOp::Intersect };
                f = f.then(op, Term::Keyword(kw2), radii[rng.gen_range(0..radii.len())]);
            }
            f
        })
        .collect()
}

/// A seeded stream over the ten *rarest* keywords at radii of zero to two
/// edges: 3–5-term intersections, some with a `∪` or a `−` spliced in, so
/// on most fragments some operand has no seed or the accumulator empties
/// before the last operand — the plans the lazy driver cuts short.
fn rare_stream(net: &RoadNetwork, seed: u64, n: usize) -> Vec<DFunction> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| freqs[k]);
    ranked.truncate(10);
    let e = net.avg_edge_weight();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let operand = |rng: &mut StdRng| {
                let kw = KeywordId(ranked[rng.gen_range(0..ranked.len())] as u32);
                (Term::Keyword(kw), e * rng.gen_range(0..3))
            };
            let (term, radius) = operand(&mut rng);
            let mut f = DFunction::single(term, radius);
            for _ in 0..rng.gen_range(2..5) {
                let op = match rng.gen_range(0..6) {
                    0 => SetOp::Union,
                    1 => SetOp::Subtract,
                    _ => SetOp::Intersect,
                };
                let (term, radius) = operand(&mut rng);
                f = f.then(op, term, radius);
            }
            f
        })
        .collect()
}

/// Explicit knobs everywhere `ClusterConfig::default()` would read the
/// environment, so parity means the same thing in every CI lane.
fn pinned_config(threads: usize) -> ClusterConfig {
    ClusterConfig {
        network: NetworkModel::instant(),
        deadline: Duration::from_millis(3000),
        coverage_cache_bytes: 1 << 20, // small: force mid-stream evictions
        batch_window: 8,
        batch_adaptive: false,
        worker_threads: threads,
        transport: TransportKind::Channel,
        ..ClusterConfig::default()
    }
}

fn build(net: &RoadNetwork, p: &Partitioning, config: ClusterConfig) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    Cluster::build(net, p, indexes, config)
}

/// Sum of the per-query wire-reported cache counters.
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

/// Value-plane equality of two runs: answers, per-machine Theorem 5
/// counters, batch sharing, and cache attribution — everything except the
/// timing plane (`compute`, `busy_micros`, `eval_hist`), which is the only
/// thing a thread count is allowed to change.
fn assert_value_identical(a: &[QueryOutcome], b: &[QueryOutcome], label: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.results, y.results, "{label}: query {i} answers diverge");
        assert_eq!(
            (x.stats.cache_hits, x.stats.cache_misses, x.stats.cache_evictions),
            (y.stats.cache_hits, y.stats.cache_misses, y.stats.cache_evictions),
            "{label}: query {i} cache attribution diverges"
        );
        assert_eq!(x.stats.per_machine.len(), y.stats.per_machine.len());
        for (mx, my) in x.stats.per_machine.iter().zip(&y.stats.per_machine) {
            assert_eq!(mx.fragments, my.fragments, "{label}: query {i} placement diverges");
            assert_eq!(
                (mx.alpha, mx.settled, mx.coverage_nodes, mx.results, mx.batch_shared),
                (my.alpha, my.settled, my.coverage_nodes, my.results, my.batch_shared),
                "{label}: query {i} value-plane cost diverges"
            );
            assert_eq!(
                mx.response_bytes, my.response_bytes,
                "{label}: query {i} response bytes diverge (frames are fixed-width)"
            );
        }
    }
}

/// One run of `fs` at a thread count: the outcomes, the frame and byte
/// ledgers of both directions, and the cache ledger — which must equal the
/// per-query attribution at every thread count on its own.
type Ledgers = ((u64, u64), (u64, u64), CacheCounters);

fn run_at(cluster: Cluster, fs: &[DFunction], threads: usize) -> (Vec<QueryOutcome>, Ledgers) {
    let (outcomes, _) = cluster.run_batched(fs).expect("stream");
    assert_eq!(outcomes.len(), fs.len());
    assert_eq!(summed_cache(&outcomes), cluster.cache_counters(), "threads {threads}");
    let ledgers = (cluster.link_message_totals(), cluster.link_totals(), cluster.cache_counters());
    cluster.shutdown();
    (outcomes, ledgers)
}

proptest! {
    // Each case builds three clusters; keep the sample small but the
    // streams adversarial (shared slots, evictions, multi-fragment fan-out).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole parity property: for an arbitrary Zipf slot table, a
    /// pooled worker at 2 and 4 threads is value-identical to the
    /// sequential worker — answers oracle-exact, cache/LRU ledger equal to
    /// the counter, and the wire ledgers (frames *and* bytes, both
    /// directions) byte-for-byte equal across thread counts.
    #[test]
    fn parallel_evaluation_is_value_identical_to_serial(
        net_seed in 0x40u64..0x44,
        stream_seed in any::<u64>(),
        n in 24usize..56,
    ) {
        let net = GridNetworkConfig::tiny(net_seed).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let fs = zipf_stream(&net, stream_seed, n);

        let (runs, ledgers): (Vec<_>, Vec<_>) =
            [1usize, 2, 4]
                .iter()
                .map(|&threads| run_at(build(&net, &p, pinned_config(threads)), &fs, threads))
                .unzip();

        // Answers stay oracle-exact (spot-checked once; the pairwise
        // value-identity below carries it to the other thread counts).
        let mut oracle = CentralizedCoverage::new(&net);
        for (i, f) in fs.iter().enumerate() {
            prop_assert_eq!(&runs[0][i].results, &oracle.evaluate(f).unwrap(), "query {} not exact", i);
        }

        assert_value_identical(&runs[0], &runs[1], "threads 1 vs 2");
        assert_value_identical(&runs[0], &runs[2], "threads 1 vs 4");
        // Frame ledger: same frames, same bytes, both directions — the
        // pool may not add, drop, or resize a single frame — and the same
        // cache ledger.
        prop_assert_eq!(ledgers[0], ledgers[1]);
        prop_assert_eq!(ledgers[0], ledgers[2]);
    }
}

/// The pool searches ahead of a commit pass that stops early: on a stream
/// whose plans have empty operands it computes slots commit never fetches.
/// None of that may show — answers, `WireCost` counters, frames, bytes and
/// the cache ledger are those of the sequential worker. The bi-level leg
/// (primary `maxR` of one edge, so two-edge radii route to the secondary)
/// adds queries of one frame that search the same slot on different levels.
#[test]
fn parity_holds_when_the_commit_pass_skips_what_the_pool_searched() {
    let net = GridNetworkConfig::tiny(0x42).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let fs = rare_stream(&net, 0x1A2E, 64);
    let primary = IndexConfig::with_max_r(net.avg_edge_weight());
    let builders: [(&str, &dyn Fn(usize) -> Cluster); 2] = [
        ("single", &|threads| build(&net, &p, pinned_config(threads))),
        ("bi-level", &|threads| Cluster::build_bilevel(&net, &p, &primary, pinned_config(threads))),
    ];
    let mut oracle = CentralizedCoverage::new(&net);
    for (name, build) in builders {
        let (serial, serial_ledgers) = run_at(build(1), &fs, 1);
        let (pooled, pooled_ledgers) = run_at(build(4), &fs, 4);
        assert_value_identical(&serial, &pooled, name);
        assert_eq!(serial_ledgers, pooled_ledgers, "{name}");

        let (mut fetched, mut eager) = (0, 0);
        for (f, o) in fs.iter().zip(&serial) {
            assert_eq!(o.results, oracle.evaluate(f).unwrap(), "{name}: {f} not exact");
            let shared: u64 = o.stats.per_machine.iter().map(|m| m.batch_shared).sum();
            fetched += o.stats.cache_hits + o.stats.cache_misses + shared;
            eager += QueryPlan::lower(f).num_slots() as u64 * 3;
        }
        // The stream is what it claims to be: well under half the slots an
        // eager worker resolves are ever fetched.
        assert!(2 * fetched < eager, "{name}: {fetched} of {eager} slot lookups: not lazy");
    }
}

/// The health suite — worker kill mid-stream, straggler hedging over
/// replicas, quarantine — runs unchanged with the pool enabled: every
/// query exact, the recovery machinery fires, and the extended frame
/// ledger (`c2w == dispatch + retries + prewarms + hedges + probes`)
/// closes. Covers both transports, since TCP workers thread the same
/// `worker_loop`.
fn chaos_with_pool(transport: TransportKind) {
    let net = GridNetworkConfig::tiny(0x6B).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let fs = zipf_stream(&net, 0xC4A05, 120);

    let faults = FaultPlan::new(0x6B0B).kill_worker(1, 10);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(
        &net,
        &p,
        indexes,
        ClusterConfig {
            network: NetworkModel::instant(),
            deadline: Duration::from_millis(3000),
            coverage_cache_bytes: 64 << 20,
            batch_window: 8,
            batch_adaptive: false,
            worker_threads: 4,
            transport,
            replicas: 1,
            hedge: HedgeMode::Adaptive,
            hedge_ms: 200,
            quarantine: true,
            faults: Some(faults),
            retry_backoff: Duration::from_millis(1),
            ..ClusterConfig::default()
        },
    );

    let (items, _) = cluster.run_stream(&fs);
    assert_eq!(items.len(), fs.len());
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, item) in items.iter().enumerate() {
        match item {
            Ok(o) => {
                assert_eq!(o.results, oracle.evaluate(&fs[i]).unwrap(), "query {i} not exact");
                assert_eq!(o.stats.inter_worker_bytes, 0, "query {i}: Theorem 3 violated");
            }
            Err(e) => panic!("query {i} failed under pool chaos: {e}"),
        }
    }
    let rc = cluster.recovery_counters();
    // The kill fired: either the dead machine's silence was hedged around
    // via its replicas (first answer wins, no respawn needed) or the
    // coordinator detected the dead thread and respawned it.
    assert!(
        rc.respawned_workers >= 1 || rc.hedges >= 1,
        "the kill must leave a recovery trace: {rc:?}"
    );
    let (c2w_frames, _) = cluster.link_message_totals();
    let oc = cluster.overload_counters();
    assert_eq!(
        c2w_frames,
        oc.dispatch_frames + rc.retries + rc.prewarm_frames + rc.hedges + rc.probe_frames,
        "frame ledger must reconcile exactly under the pool: {oc:?} {rc:?}"
    );
    cluster.shutdown();
}

#[test]
fn pool_survives_kill_hedge_quarantine_chaos_channel() {
    chaos_with_pool(TransportKind::Channel);
}

#[test]
fn pool_survives_kill_hedge_quarantine_chaos_tcp() {
    chaos_with_pool(TransportKind::Tcp);
}

/// A worker panic under the pool surfaces exactly as it does serially: the
/// poisoned slot is absent from the prefetched table, the commit pass
/// recomputes it inline, hits the same panic, and the existing
/// `catch_unwind` turns it into the same typed retry-able failure — the
/// stream still completes exactly.
#[test]
fn injected_panic_under_pool_matches_serial_failure_semantics() {
    let net = GridNetworkConfig::tiny(0x6C).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let fs = zipf_stream(&net, 0x9A41C, 60);

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let faults = FaultPlan::new(0x6C0C).panic_worker(0, 3);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(
            &net,
            &p,
            indexes,
            ClusterConfig { faults: Some(faults), ..pinned_config(threads) },
        );
        let (outcomes, _) = cluster.run_batched(&fs).expect("stream with injected panic");
        let retried: Vec<usize> =
            (0..fs.len()).filter(|&i| outcomes[i].stats.retries > 0).collect();
        assert!(!retried.is_empty(), "threads {threads}: the injected panic must retry");
        runs.push((outcomes, retried));
        cluster.shutdown();
    }
    let (serial, serial_retried) = &runs[0];
    let (pooled, pooled_retried) = &runs[1];
    assert_eq!(serial_retried, pooled_retried, "same queries must be retried");
    let mut oracle = CentralizedCoverage::new(&net);
    for (i, f) in fs.iter().enumerate() {
        let want = oracle.evaluate(f).unwrap();
        assert_eq!(serial[i].results, want, "serial query {i} not exact");
        assert_eq!(pooled[i].results, want, "pooled query {i} not exact");
    }
}
