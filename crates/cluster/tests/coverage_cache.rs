//! Coverage-cache equivalence: the per-worker cache is a pure
//! memoization, so a cached cluster and a cache-disabled cluster must be
//! *observably identical* on answers — over a Zipf-skewed stream and over a
//! rare-keyword stream the lazy plan driver cuts short, across a
//! mid-stream worker kill/respawn (whose fresh cache starts cold and
//! re-misses each slot once), and against the
//! centralized oracle — while Theorem 3's zero inter-worker bytes holds in
//! both modes.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, FaultPlan, TransportKind};
use disks_core::{
    build_all_indexes, CentralizedCoverage, DFunction, FragmentEngine, IndexConfig, QueryPlan,
    SetOp, SgkQuery, Term,
};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

/// A seeded Zipf-skewed SGKQ stream: keywords drawn by popularity rank,
/// radii from a small pool — the repetition a real workload shows and the
/// cache exploits.
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
            let num_kw = 1 + rng.gen_range(0..2);
            let kws: Vec<KeywordId> =
                (0..num_kw).map(|_| KeywordId(ranked[zipf.sample(&mut rng)] as u32)).collect();
            SgkQuery::new(kws, radii[rng.gen_range(0..radii.len())]).to_dfunction()
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

/// How many of `fs` target fragment 0 — the requests its machine receives
/// when they run one at a time, before any retry: the queries where the
/// worker's own seed test finds every conjunct seeded there, counted on an
/// engine built from the index the cluster serves.
fn requests_to_fragment_zero(net: &RoadNetwork, p: &Partitioning, fs: &[DFunction]) -> u64 {
    let index = &build_all_indexes(net, p, &IndexConfig::unbounded())[0];
    let engine = FragmentEngine::new(net, p, index).unwrap();
    let targeted =
        |f: &DFunction| QueryPlan::lower(f).can_answer(|s| engine.seed_count(s.term, s.radius) > 0);
    fs.iter().filter(|f| targeted(f)).count() as u64
}

fn build_cluster(
    net: &RoadNetwork,
    p: &Partitioning,
    cache_bytes: usize,
    kill_at: Option<u64>,
) -> Cluster {
    build_cluster_on(net, p, cache_bytes, kill_at, ClusterConfig::default().transport)
}

fn build_cluster_on(
    net: &RoadNetwork,
    p: &Partitioning,
    cache_bytes: usize,
    kill_at: Option<u64>,
    transport: TransportKind,
) -> Cluster {
    let indexes = build_all_indexes(net, p, &IndexConfig::unbounded());
    let faults = kill_at.map(|nth| FaultPlan::new(0xCACE).kill_worker(0, nth));
    Cluster::build(
        net,
        p,
        indexes,
        ClusterConfig {
            deadline: Duration::from_millis(200),
            coverage_cache_bytes: cache_bytes,
            faults,
            transport,
            ..ClusterConfig::default()
        },
    )
}

/// The acceptance property: 200 queries, worker 0 killed mid-stream on both
/// clusters (on the middle one of the requests the stream sends it), and the cached and cache-disabled runs return identical
/// answers and identical `QueryStats.results` for every query — each one
/// also exact against the centralized oracle, with zero inter-worker bytes
/// in both modes. Twice: a Zipf stream, whose repetition the cache serves,
/// and a rare-keyword stream through a 1 MiB cache, whose plans stop
/// fetching once their ∩/− chain is empty.
#[test]
fn cached_and_disabled_clusters_answer_identically_across_respawn() {
    let net = GridNetworkConfig::tiny(0xD15C).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let inputs = [
        ("zipf", zipf_stream(&net, 0x5EED, 200), 64 << 20),
        ("rare", rare_stream(&net, 0x1A2E, 200), 1 << 20),
    ];
    let mut oracle = CentralizedCoverage::new(&net);
    for (name, stream, cache_bytes) in inputs {
        // The same deterministic kill schedule on both clusters: machine 0
        // dies on the request halfway through those the stream sends it —
        // mid-stream — and is respawned with a cold cache on the cached
        // cluster. (A query is sent only to the fragments it targets.)
        let kill_at = requests_to_fragment_zero(&net, &p, &stream) / 2;
        assert!(kill_at >= 10, "{name}: {kill_at}: the stream must reach machine 0");
        let cached = build_cluster(&net, &p, cache_bytes, Some(kill_at));
        let uncached = build_cluster(&net, &p, 0, Some(kill_at));

        let (mut fetched, mut eager) = (0, 0);
        for (i, f) in stream.iter().enumerate() {
            let a = cached.run(f).unwrap_or_else(|e| panic!("{name}: cached query {i}: {e}"));
            let b = uncached.run(f).unwrap_or_else(|e| panic!("{name}: uncached query {i}: {e}"));
            assert_eq!(a.results, b.results, "{name}: query {i} answers diverge");
            assert_eq!(a.stats.results, b.stats.results, "{name}: query {i} result counts diverge");
            assert_eq!(a.results, oracle.evaluate(f).unwrap(), "{name}: query {i} not exact");
            assert_eq!(a.stats.inter_worker_bytes, 0);
            assert_eq!(b.stats.inter_worker_bytes, 0);
            fetched += a.stats.cache_hits + a.stats.cache_misses;
            eager += QueryPlan::lower(f).num_slots() as u64 * 3;
        }

        // The kill fired and was recovered on both clusters.
        assert!(cached.recovery_counters().respawned_workers >= 1, "{name}");
        assert!(uncached.recovery_counters().respawned_workers >= 1, "{name}");
        // The cached cluster actually exercised its cache; the disabled one
        // counted nothing — its absence is what makes the parity meaningful.
        let counters = cached.cache_counters();
        if name == "zipf" {
            assert!(counters.hits > 0, "Zipf stream must produce cache hits");
            assert!(
                counters.hit_rate() > 0.5,
                "hit rate {} too low for a Zipf stream",
                counters.hit_rate()
            );
        } else {
            // The stream is what it claims to be: well under half the slots
            // an eager worker resolves are ever fetched. (On this 100-node
            // network the rare coverages are all below the cache's content
            // threshold, so every fetch is a bypassed miss.)
            assert!(2 * fetched < eager, "{fetched} of {eager} slot lookups: not lazy");
            assert!(counters.misses > 0, "the cached cluster must have consulted its cache");
        }
        assert_eq!(uncached.cache_counters(), disks_cluster::CacheCounters::default());
        cached.shutdown();
        uncached.shutdown();
    }
}

/// A respawned worker starts cold, like any new worker, and its one cold
/// slot costs exactly one search: the same query run three times with a
/// kill at the second run misses three times in all — run 1's two, plus the
/// respawn's one re-miss on the retried task, which reports the search it
/// ran. Every miss is on the response ledger; run 3 hits everywhere.
#[test]
fn respawned_worker_re_misses_its_slot_once_on_the_retried_task() {
    let net = GridNetworkConfig::tiny(0xC01D).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let cluster = build_cluster(&net, &p, 64 << 20, Some(2));
    let freqs = net.keyword_frequencies();
    let kw = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
    // Fat radius: both fragments' coverages must clear the 16-node content
    // bypass threshold, or the exact miss pin below would count re-misses
    // of a deliberately uncached slot.
    let q = SgkQuery::new(vec![kw], 6 * net.avg_edge_weight());
    let mut oracle = CentralizedCoverage::new(&net);
    let expect = oracle.sgkq(&q).unwrap();

    // Run 1 warms both workers; run 2 kills machine 0 (fragment 0's owner)
    // on its second request, so fragment 0 is answered by the retried task
    // on the cold respawn; run 3 hits everywhere.
    for i in 0..3 {
        let outcome = cluster.run_sgkq(&q).unwrap_or_else(|e| panic!("run {i}: {e}"));
        assert_eq!(outcome.results, expect, "run {i} not exact across respawn");
        if i == 1 {
            assert!(outcome.stats.retries >= 1, "fragment 0 must have been retried");
            assert!(outcome.stats.respawned_workers >= 1, "kill must have fired");
            let retried = &outcome.stats.per_machine[0];
            assert!(retried.settled > 0, "the cold respawn must have searched: {retried:?}");
        }
    }
    let counters = cluster.cache_counters();
    assert_eq!(counters.misses, 3, "run 1's two misses plus the respawn's one: {counters:?}");
    assert!(counters.hits >= 3, "run 2's live fragment and run 3 must all hit: {counters:?}");
    cluster.shutdown();
}

/// The kill → respawn machinery is transport-invariant: the same
/// deterministic kill schedule over an in-process channel link and over a
/// real TCP link produces *identical* recovery counters, identical cache
/// counters, identical frame ledgers, and identical exact answers — the
/// socket adds framing and keepalives, never protocol behavior.
#[test]
fn kill_respawn_counters_are_identical_across_transports() {
    let net = GridNetworkConfig::tiny(0xC01D).generate();
    let p = MultilevelPartitioner::default().partition(&net, 2);
    let freqs = net.keyword_frequencies();
    let kw = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
    let q = SgkQuery::new(vec![kw], 6 * net.avg_edge_weight());
    let mut oracle = CentralizedCoverage::new(&net);
    let expect = oracle.sgkq(&q).unwrap();

    let run = |transport: TransportKind| {
        let cluster = build_cluster_on(&net, &p, 64 << 20, Some(2), transport);
        for i in 0..3 {
            let outcome =
                cluster.run_sgkq(&q).unwrap_or_else(|e| panic!("{transport:?} run {i}: {e}"));
            assert_eq!(outcome.results, expect, "{transport:?} run {i} not exact across respawn");
        }
        let recovery = cluster.recovery_counters();
        let cache = cluster.cache_counters();
        let ledger = cluster.link_message_totals();
        cluster.shutdown();
        (recovery, cache, ledger)
    };

    let (rc_chan, cache_chan, ledger_chan) = run(TransportKind::Channel);
    let (rc_tcp, cache_tcp, ledger_tcp) = run(TransportKind::Tcp);

    assert!(rc_chan.respawned_workers >= 1, "kill must have fired: {rc_chan:?}");
    assert_eq!(rc_chan, rc_tcp, "recovery counters must be transport-invariant");
    assert_eq!(cache_chan, cache_tcp, "cache counters must be transport-invariant");
    assert_eq!(ledger_chan, ledger_tcp, "frame ledgers must be transport-invariant");
}
