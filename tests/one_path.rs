//! One request path: a single query is a stream of one. Under four
//! configurations written out in full (so no `DISKS_*` lane changes what is
//! tested), the same 53 queries asked one `Cluster::run` at a time and then
//! as one `Cluster::run_stream` equal the centralized oracle both ways, no
//! worker ever talks to another, and every coordinator→worker frame is
//! accounted for. The last five are rare-keyword queries a fragment can
//! answer without fetching every slot: the workers look up fewer coverages
//! than slots × fragments for them. A second test asks one dense query (a
//! frequent keyword at a radius that covers most of a larger network): its
//! answer costs fewer worker→coordinator bytes than its raw 4-byte ids would.
//! A third runs 1 728 five-keyword SGKQs at never-repeating radii as 27
//! four-window submissions: each chunk's answers are assembled while the
//! workers evaluate the next, every answer is the oracle's, and the frame
//! ledger closes with nothing recovered.
//! A fourth starts both binaries with a knob this build no longer has, as a
//! flag and as a `DISKS_*` variable, and with a flag value that is not of
//! the flag's form: each refuses it by name.
//! A fifth asks 32 rare-keyword SGKQs of a bounded index twice, the second
//! time at larger radii: the engines' reach masks make the second pass
//! settle fewer nodes than the first under all four configurations.

use std::time::Duration;

use disks::baseline::centralized::CentralizedEngine;
use disks::cluster::transport::TransportKind;
use disks::cluster::{Cluster, ClusterConfig, FaultPlan, HeartbeatConfig, NetworkModel};
use disks::core::{
    build_all_indexes, DFunction, IndexConfig, QClassQuery, QueryPlan, RangeKeywordQuery, SetOp,
    SgkQuery, Term,
};
use disks::partition::{MultilevelPartitioner, Partitioner};
use disks::roadnet::generator::GridNetworkConfig;
use disks::roadnet::{KeywordId, NodeId, RoadNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shipped configuration, every environment-driven field spelled out.
fn shipped() -> ClusterConfig {
    ClusterConfig {
        machines: Some(2),
        network: NetworkModel::instant(),
        deadline: Duration::from_millis(500),
        max_attempts: 3,
        allow_partial: false,
        faults: None,
        coverage_cache_bytes: 64 << 20,
        batch_window: 16,
        transport: TransportKind::Channel,
        heartbeat: HeartbeatConfig::default(),
    }
}

/// The keywords some node bears, most frequent first.
fn keywords_by_frequency(net: &RoadNetwork) -> Vec<usize> {
    let freqs = net.keyword_frequencies();
    let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
    ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
    ranked
}

const FRAGMENTS: usize = 4;
/// Queries of the stream before the rare-keyword ones.
const ORDINARY: usize = 48;

/// 48 seeded queries cycling SGKQ → RKQ → Q-class over the six most
/// frequent keywords, then four 5-term SGKQs over the rarest keywords and
/// one `(A ∩ B) ∪ C − D` with a rare `A`.
fn stream(net: &RoadNetwork) -> Vec<DFunction> {
    let mut ranked = keywords_by_frequency(net);
    let rare: Vec<KeywordId> = ranked.iter().rev().take(8).map(|&k| KeywordId(k as u32)).collect();
    ranked.truncate(6);
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let e = net.avg_edge_weight();
    let mut rng = StdRng::seed_from_u64(0x0E1A);
    let sgkq5 = (0..4).map(|i| SgkQuery::new(rare[i..i + 5].to_vec(), e * (1 + i as u64 % 2)));
    let union_after_rare = QClassQuery::new(
        DFunction::single(Term::Keyword(rare[0]), e)
            .then(SetOp::Intersect, Term::Keyword(rare[1]), e)
            .then(SetOp::Union, Term::Keyword(KeywordId(ranked[0] as u32)), e)
            .then(SetOp::Subtract, Term::Keyword(KeywordId(ranked[1] as u32)), e),
    );
    (0..ORDINARY)
        .map(|i| {
            let mut kw = || KeywordId(ranked[rng.gen_range(0..ranked.len())] as u32);
            let (a, b) = (kw(), kw());
            let r = e * (2 + i as u64 % 4);
            match i % 3 {
                0 => SgkQuery::new(vec![a, b], r).to_dfunction(),
                1 => RangeKeywordQuery::new(objects[i * 7 % objects.len()], vec![a], r)
                    .to_dfunction(),
                _ => QClassQuery::new(DFunction::single(Term::Keyword(a), r).then(
                    SetOp::Subtract,
                    Term::Keyword(b),
                    e,
                ))
                .to_dfunction(),
            }
        })
        .chain(sgkq5.map(|q| q.to_dfunction()))
        .chain([union_after_rare.to_dfunction()])
        .collect()
}

/// Coverages the workers looked up for one query: LRU hits and misses plus
/// the slots another query of the same frame had already resolved.
fn lookups(o: &disks::cluster::QueryOutcome) -> u64 {
    let shared: u64 = o.stats.per_machine.iter().map(|m| m.batch_shared).sum();
    o.stats.cache_hits + o.stats.cache_misses + shared
}

/// `c2w == dispatch + retries`, exactly.
fn assert_ledger_closes(cluster: &Cluster, what: &str) {
    let (c2w, _) = cluster.link_message_totals();
    let (oc, rc) = (cluster.overload_counters(), cluster.recovery_counters());
    assert_eq!(
        c2w,
        oc.dispatch_frames + rc.retries,
        "{what}: frame ledger must close: {oc:?} {rc:?}"
    );
}

/// The four configurations the first, second and fifth tests run under.
fn configs() -> [(&'static str, ClusterConfig); 4] {
    [
        ("shipped defaults", shipped()),
        ("fixed windows over TCP", ClusterConfig { transport: TransportKind::Tcp, ..shipped() }),
        (
            "windows of one, coverage cache off",
            ClusterConfig { batch_window: 1, coverage_cache_bytes: 0, ..shipped() },
        ),
        (
            "mid-stream kill over TCP",
            ClusterConfig {
                transport: TransportKind::Tcp,
                // Every query is one frame to each machine, so machine 0's
                // 20th request arrives inside the 48-query sequential pass.
                faults: Some(FaultPlan::new(0x0E1A).kill_worker(0, 20)),
                ..shipped()
            },
        ),
    ]
}

#[test]
fn a_single_query_is_a_stream_of_one() {
    let net = GridNetworkConfig::tiny(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let fs = stream(&net);
    let eager_lookups: Vec<u64> =
        fs.iter().map(|f| (QueryPlan::lower(f).num_slots() * FRAGMENTS) as u64).collect();
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(&net, &p, indexes, config.clone());
        let mut oracle = CentralizedEngine::new(&net);
        let expected: Vec<_> = fs.iter().map(|f| oracle.run(f).unwrap().0).collect();
        for (i, f) in fs.iter().enumerate() {
            let o = cluster.run(f).unwrap_or_else(|e| panic!("{name}: run {i}: {e}"));
            assert_eq!(o.results, expected[i], "{name}: query {i} vs oracle");
            assert_eq!(o.stats.rounds, 1 + o.stats.retries, "{name}: query {i} rounds");
            assert_eq!(o.stats.inter_worker_bytes, 0, "{name}: query {i}: Theorem 3");
            assert!(lookups(&o) <= eager_lookups[i], "{name}: query {i} looked a slot up twice");
            if i >= ORDINARY {
                assert!(lookups(&o) < eager_lookups[i], "{name}: query {i} fetched every slot");
            }
        }
        if config.faults.is_some() {
            assert!(cluster.recovery_counters().respawned_workers >= 1, "{name}: the kill fired");
        }
        // The same stream as one submission rides the windowed path.
        let (items, _) = cluster.run_stream(&fs);
        for (i, item) in items.into_iter().enumerate() {
            let o = item.unwrap_or_else(|e| panic!("{name}: streamed {i}: {e}"));
            assert_eq!(o.results, expected[i], "{name}: streamed query {i} vs oracle");
            assert_eq!(o.stats.inter_worker_bytes, 0, "{name}: streamed query {i}: Theorem 3");
            if i >= ORDINARY {
                assert!(lookups(&o) < eager_lookups[i], "{name}: streamed {i} fetched every slot");
            }
        }
        assert_ledger_closes(&cluster, name);
        cluster.shutdown();
    }
}

/// A long stream of never-repeating slots, submitted 64 queries at a time:
/// every chunk is four windows, so the answers of one are assembled while
/// the workers evaluate the next, and none of its 8 640 distinct slots
/// repeats. Every answer is the oracle's, on both sides of the gather
/// — small answers and ones covering most of the network — every frame is
/// accounted for, and nothing is recovered.
#[test]
fn a_long_stream_of_fresh_slots_is_answered_chunk_by_chunk() {
    const QUERIES: usize = 27 * 64;
    let net = GridNetworkConfig::tiny(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let ranked = keywords_by_frequency(&net);
    assert!(ranked.len() >= 6);
    let e = net.avg_edge_weight();
    // Query `i` has a radius of its own, so each of its five slots is new.
    let fs: Vec<DFunction> = (0..QUERIES)
        .map(|i| {
            let kws = (0..5).map(|j| KeywordId(ranked[(i + j) % ranked.len().min(8)] as u32));
            SgkQuery::new(kws.collect(), e + 3 * i as u64).to_dfunction()
        })
        .collect();
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let cluster = Cluster::build(&net, &p, indexes, shipped());
    let mut oracle = CentralizedEngine::new(&net);
    let (mut sparse, mut dense) = (0, 0);
    for (c, chunk) in fs.chunks(64).enumerate() {
        let (items, _) = cluster.run_stream(chunk);
        for (i, (f, item)) in chunk.iter().zip(items).enumerate() {
            let o = item.unwrap_or_else(|e| panic!("chunk {c} query {i}: {e}"));
            assert_eq!(o.results, oracle.run(f).unwrap().0, "chunk {c} query {i} vs oracle");
            assert!(o.stats.degraded_fragments.is_empty(), "chunk {c} query {i}");
            if o.results.len() * 64 >= net.num_nodes() {
                dense += 1;
            } else {
                sparse += 1;
            }
        }
    }
    assert!(sparse >= 64 && dense >= 64, "both sides of the gather: {sparse} / {dense}");
    assert_ledger_closes(&cluster, "long stream");
    assert_eq!(cluster.recovery_counters(), Default::default(), "nothing to recover from");
    cluster.shutdown();
}

/// On a bounded index the workers' engines remember how far a keyword
/// reaches (`R(kw, maxR) ∩ P`, left behind by its first search) and answer ∅
/// for a conjunction whose reaches do not meet before searching anything.
/// 32 five-keyword SGKQs over the eight rarest keywords, then the same 32 at
/// larger radii — no coverage of the first pass can answer a slot of the
/// second, and without the masks every search of the second pass would
/// settle at least what its twin in the first did: the answers are the
/// oracle's both times and the workers settle fewer nodes the second time,
/// with the coverage cache off as well (the masks are engine state, not
/// cache entries).
#[test]
fn a_keywords_first_search_caps_its_later_conjunctions() {
    let net = GridNetworkConfig::small(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let e = net.avg_edge_weight();
    let max_r = 12 * e;
    let ranked = keywords_by_frequency(&net);
    let rare: Vec<KeywordId> = ranked.iter().rev().take(8).map(|&k| KeywordId(k as u32)).collect();
    let pass = |grown: u64| -> Vec<DFunction> {
        (0..32)
            .map(|q| {
                let r = 4 * e + q as u64 * e / 4 + grown;
                SgkQuery::new(rare[q % 4..q % 4 + 5].to_vec(), r).to_dfunction()
            })
            .collect()
    };
    let passes = [pass(0), pass(e / 8)];
    assert!(passes[1].iter().all(|f| f.max_radius() <= max_r));
    let mut oracle = CentralizedEngine::new(&net);
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        let settled = passes.each_ref().map(|fs| {
            let (items, _) = cluster.run_stream(fs);
            let mut settled = 0;
            for (i, (f, item)) in fs.iter().zip(items).enumerate() {
                let o = item.unwrap_or_else(|e| panic!("{name}: query {i}: {e}"));
                assert_eq!(o.results, oracle.run(f).unwrap().0, "{name}: {f} vs oracle");
                assert_eq!(o.stats.cache_hits, 0, "{name}: {f}: a slot of this stream repeated");
                settled += o.stats.per_machine.iter().map(|m| m.settled).sum::<u64>();
            }
            settled
        });
        assert!(settled[1] < settled[0], "{name}: settled {settled:?}, first pass then second");
        cluster.shutdown();
    }
}

/// A dense answer is worth less on the wire than its ids: the most frequent
/// keyword at `maxR` covers most of the network, the fragments ship runs of
/// consecutive ids, and the coordinator's bitmap gather returns them in the
/// oracle's order. (The raw layout cost `4 × |answer|` in ids alone, before
/// four frames' headers and costs.)
#[test]
fn a_dense_answer_ships_fewer_bytes_than_its_raw_ids() {
    let net = GridNetworkConfig::small(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let max_r = 40 * net.avg_edge_weight();
    let freqs = net.keyword_frequencies();
    let top = (0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap();
    let dense = SgkQuery::new(vec![KeywordId(top as u32)], max_r).to_dfunction();
    let expected = CentralizedEngine::new(&net).run(&dense).unwrap().0;
    assert!(expected.len() * 64 >= net.num_nodes(), "the query must take the dense gather");
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        for pass in ["cold", "cached"] {
            let o = cluster.run(&dense).unwrap_or_else(|e| panic!("{name}: {pass}: {e}"));
            assert_eq!(o.results, expected, "{name}: {pass} vs oracle");
            assert!(
                o.stats.worker_to_coordinator_bytes < 4 * o.results.len() as u64,
                "{name}: {pass}: {} bytes for {} ids",
                o.stats.worker_to_coordinator_bytes,
                o.results.len()
            );
        }
        cluster.shutdown();
    }
}

/// A removed or misspelt knob is refused by name, never run as its default:
/// the two flags selected an evaluator pool and a cache admission policy that
/// no longer exist, and no `DISKS_*` variable outside the config table is
/// read as anything. A flag this build does have is refused the same way
/// when its value is not of the flag's form. (Both binaries read their flags
/// and the environment before the worker dials or the coordinator builds
/// anything.)
#[test]
fn a_knob_this_build_does_not_have_is_refused_by_name() {
    let binaries = [
        (env!("CARGO_BIN_EXE_disks-worker"), ["--connect", "127.0.0.1:9"], ["--machine", "x"]),
        (env!("CARGO_BIN_EXE_disks-coordinator"), ["--mode", "local"], ["--machines", "three"]),
    ];
    for (binary, valid, bad_value) in binaries {
        let refused = |flags: &[&str], var: Option<(&str, &str)>, name: &str| {
            let out = std::process::Command::new(binary)
                .args(valid)
                .args(flags)
                .envs(var)
                .output()
                .expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{binary} {flags:?} {var:?}: {stderr}");
            assert!(stderr.contains(name), "{binary} {flags:?} {var:?}: {stderr}");
        };
        refused(&["--threads", "4"], None, "--threads");
        refused(&["--cache-heat", "3"], None, "--cache-heat");
        for (var, value) in [
            ("DISKS_THREADS", "4"),
            ("DISKS_REPLICAS", "1"),
            ("DISKS_HEDGE", "adaptive"),
            ("DISKS_QUARANTINE", "1"),
            ("DISKS_COST_LIMIT", "5000000"),
            ("DISKS_BROWNOUT", "0.9"),
            ("DISKS_RETRY_BACKOFF", "3"),
        ] {
            refused(&[], Some((var, value)), var);
        }
        refused(&bad_value, None, &format!("{}: expected", bad_value.join(" ")));
        refused(&["--cache", "2MiB"], None, "--cache 2MiB: expected a byte count");
    }
}
