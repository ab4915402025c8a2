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
//! A fifth asks 32 rare-keyword SGKQs of a bounded index three times, the
//! second time at larger radii and the third at the second's: the engines'
//! keyword lists make the second pass settle fewer nodes than the first
//! under all four configurations, and the third settle none wherever no
//! worker was respawned, the cache-off configuration included.
//! A sixth asks 48 RKQs after their keywords' lists are built: each
//! location is searched only until its answer has settled, so the workers
//! settle fewer nodes than plain searches from the locations would, and a
//! small coverage cache holds no location's partial search, so evicts
//! nothing. Another asks them again: each search pushes only nodes from
//! which its keyword is within reach, so the workers settle fewer nodes
//! than when it pushed every node within `r`, some searches none at all,
//! and the answers stay the oracle's.
//! A seventh asks a cold SGKQ stream, an RKQ stream and top-ks of a
//! bounded index: each query is answered by exactly the fragments where
//! none of its conjuncts, keyword or location, is seedless — counted on the
//! workers' own engines, a top-k's being its keywords at the horizon — and
//! a query with no such fragment puts nothing on the wire, an RKQ whose
//! location reaches none of its keyword's bearers and a top-k on a keyword
//! no node bears included. An eighth kills a worker mid cold stream and mid RKQ stream:
//! only targeted pairs are retried, or degraded.

use std::collections::BTreeSet;
use std::time::Duration;

use disks::baseline::centralized::CentralizedEngine;
use disks::cluster::transport::TransportKind;
use disks::cluster::{Cluster, ClusterConfig, FaultPlan, HeartbeatConfig};
use disks::core::{
    build_all_indexes, centralized_topk, DFunction, FragmentEngine, IndexConfig, NpdIndex,
    QClassQuery, QueryPlan, RangeKeywordQuery, ScoreCombine, SetOp, SgkQuery, Term, TopKQuery,
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
        deadline: Duration::from_millis(500),
        max_attempts: 3,
        allow_partial: false,
        faults: None,
        coverage_cache_bytes: 64 << 20,
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
        ("coverage cache off", ClusterConfig { coverage_cache_bytes: 0, ..shipped() }),
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

/// On a bounded index the workers' engines keep a keyword's first search
/// (its list: the nodes within `maxR` by distance, whose set `R(kw, maxR) ∩ P`
/// is its reach mask): they answer ∅ for a conjunction whose reaches do not
/// meet before searching anything, and cut any later coverage of the keyword
/// from the list without searching. 32 five-keyword SGKQs over the eight
/// rarest keywords, then the same 32 at larger radii, then the second pass
/// again. No coverage of the first pass can answer a slot of the second, and
/// without the lists every search of the second pass would settle at least
/// what its twin in the first did: the answers are the oracle's every time,
/// the workers settle fewer nodes the second time, and none the third time —
/// with the coverage cache off as well (the lists are engine state, not
/// cache entries) — unless a worker was respawned and lost its engine.
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
    let passes = [pass(0), pass(e / 8), pass(e / 8)];
    assert!(passes[1].iter().all(|f| f.max_radius() <= max_r));
    let mut oracle = CentralizedEngine::new(&net);
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        let settled: Vec<u64> = (passes.iter().enumerate())
            .map(|(pass, fs)| {
                let (items, _) = cluster.run_stream(fs);
                let mut settled = 0;
                for (i, (f, item)) in fs.iter().zip(items).enumerate() {
                    let o = item.unwrap_or_else(|e| panic!("{name}: query {i}: {e}"));
                    assert_eq!(o.results, oracle.run(f).unwrap().0, "{name}: {f} vs oracle");
                    if pass < 2 {
                        assert_eq!(o.stats.cache_hits, 0, "{name}: {f}: a slot repeated");
                    }
                    settled += o.stats.per_machine.iter().map(|m| m.settled).sum::<u64>();
                }
                settled
            })
            .collect();
        let hits = cluster.cache_counters().hits;
        assert!(settled[1] < settled[0], "{name}: settled {settled:?}, by pass");
        if cluster.recovery_counters().respawned_workers == 0 {
            assert_eq!(settled[2], 0, "{name}: settled {settled:?}, by pass; {hits} cache hits");
        }
        cluster.shutdown();
    }
}

/// A location's search goes only as far as its answer. An RKQ
/// `R(l, r) ∩ R(kw, 0)` cuts its keyword's slot from the keyword's list
/// first, then searches from `l` against what the cut left and stops once
/// all of it has settled; that bounded result is not `R(l, r)`, so the
/// coverage cache never holds it. 48 RKQs from object locations, each with
/// one keyword of its own at a radius in `[maxR/2, maxR]`, after a pass of
/// `R(kw, 0)` queries that builds the keywords' lists: the answers are the
/// oracle's, the workers settle strictly fewer nodes than the plain
/// `R(l, r)` searches on the fragments each plan searched (unless a worker
/// was respawned and lost its lists), and a cache of a few coverages a
/// worker evicts nothing, where one that held each location's `R(l, r)`
/// would evict.
#[test]
fn a_locations_search_stops_once_its_answer_has_settled() {
    /// A few coverages a worker: an entry is a fragment's bitset and 64
    /// bytes of the cache's bookkeeping.
    const BUDGET: usize = 1 << 10;
    let (net, p, max_r) = rkq_network();
    let (rkqs, fs, warm) = rkq_stream(&net, max_r);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
    let mut engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(&net, &p, index).unwrap()).collect();
    // The plain `R(l, r)` search on every fragment where the plan searches `l`.
    let mut plain = 0;
    for (f, q) in fs.iter().zip(&rkqs) {
        for engine in &mut engines {
            let (_, cost) = engine.evaluate(f).unwrap();
            let location = Term::Node(q.location);
            if cost.per_slot.iter().any(|slot| slot.term == location) {
                plain += engine.coverage(location, q.radius).unwrap().1.settled as u64;
            }
        }
    }
    let mut oracle = CentralizedEngine::new(&net);
    for (name, config) in configs() {
        let budget = if config.coverage_cache_bytes == 0 { 0 } else { BUDGET };
        let config = ClusterConfig { coverage_cache_bytes: budget, ..config };
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        let (items, _) = cluster.run_stream(&warm);
        items.into_iter().for_each(|item| drop(item.unwrap()));
        let (items, _) = cluster.run_stream(&fs);
        let mut settled = 0;
        for (f, item) in fs.iter().zip(items) {
            let o = item.unwrap_or_else(|e| panic!("{name}: {f}: {e}"));
            assert_eq!(o.results, oracle.run(f).unwrap().0, "{name}: {f} vs oracle");
            settled += o.stats.per_machine.iter().map(|m| m.settled).sum::<u64>();
        }
        if cluster.recovery_counters().respawned_workers == 0 {
            assert!(settled < plain, "{name}: settled {settled}, plain searches {plain}");
        }
        assert_eq!(cluster.cache_counters().evictions, 0, "{name}: {:?}", cluster.cache_counters());
        cluster.shutdown();
    }
}

/// The network, split and `maxR` (12 ē) the RKQ tests ask.
fn rkq_network() -> (RoadNetwork, disks::partition::Partitioning, u64) {
    let net = GridNetworkConfig::small(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let max_r = 12 * net.avg_edge_weight();
    (net, p, max_r)
}

/// 48 RKQs from object locations, each with one keyword of its own at a
/// radius in `[maxR/2, maxR]`, as queries and as D-functions, and the
/// `R(kw, 0)` queries that build their keywords' lists first.
fn rkq_stream(
    net: &RoadNetwork,
    max_r: u64,
) -> (Vec<RangeKeywordQuery>, Vec<DFunction>, Vec<DFunction>) {
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let rkqs: Vec<RangeKeywordQuery> = (0..48)
        .map(|i| {
            let l = objects[i * 7 % objects.len()];
            let r = max_r / 2 + i as u64 * (max_r / 2) / 47;
            RangeKeywordQuery::new(l, vec![net.keywords(l)[0]], r)
        })
        .collect();
    let fs: Vec<DFunction> = rkqs.iter().map(RangeKeywordQuery::to_dfunction).collect();
    let keywords: BTreeSet<KeywordId> = rkqs.iter().flat_map(|q| q.keywords.clone()).collect();
    let warm: Vec<DFunction> =
        keywords.iter().map(|&kw| SgkQuery::new(vec![kw], 0).to_dfunction()).collect();
    (rkqs, fs, warm)
}

/// A location's search goes only toward its keyword: the keyword's list
/// bounds from below how far each node is from the keyword's bearers, so
/// the search pushes no node whose distance from the location plus that
/// bound exceeds `r`. The 48 RKQs of the previous test, after the same
/// warm pass: answers are the oracle's under all four configurations, the
/// workers settle strictly fewer nodes than the 3 693 they settled when the
/// search pushed every node within `r` (the counts repeat exactly on this
/// stream), unless a worker was respawned and lost its lists, and on at
/// least one (RKQ, fragment) pair that searches its location the floor
/// refuses every seed, so it settles nothing.
#[test]
fn a_locations_search_pushes_only_toward_its_keyword() {
    /// Σ `per_machine.settled` over the stream when every node within `r`
    /// was pushed.
    const UNFLOORED: u64 = 3_693;
    let (net, p, max_r) = rkq_network();
    let (_, fs, warm) = rkq_stream(&net, max_r);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
    let mut engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(&net, &p, index).unwrap()).collect();
    let mut searched_nothing = 0;
    for f in warm.iter().chain(&fs) {
        for engine in &mut engines {
            let (_, cost) = engine.evaluate(f).unwrap();
            let node = cost.per_slot.iter().find(|slot| matches!(slot.term, Term::Node(_)));
            searched_nothing += usize::from(node.is_some_and(|slot| slot.settled == 0));
        }
    }
    assert!(searched_nothing > 0, "no searched pair had every seed refused");
    let mut oracle = CentralizedEngine::new(&net);
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        let (items, _) = cluster.run_stream(&warm);
        items.into_iter().for_each(|item| drop(item.unwrap()));
        let (items, _) = cluster.run_stream(&fs);
        let mut settled = 0;
        for (f, item) in fs.iter().zip(items) {
            let o = item.unwrap_or_else(|e| panic!("{name}: {f}: {e}"));
            assert_eq!(o.results, oracle.run(f).unwrap().0, "{name}: {f} vs oracle");
            settled += o.stats.per_machine.iter().map(|m| m.settled).sum::<u64>();
        }
        if cluster.recovery_counters().respawned_workers == 0 {
            assert!(settled < UNFLOORED, "{name}: settled {settled}, unfloored {UNFLOORED}");
        }
        assert_ledger_closes(&cluster, name);
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
            ("DISKS_BATCH", "16"),
        ] {
            refused(&[], Some((var, value)), var);
        }
        refused(&bad_value, None, &format!("{}: expected", bad_value.join(" ")));
        refused(&["--cache", "2MiB"], None, "--cache 2MiB: expected a byte count");
    }
}

/// A cold SGKQ stream — five keywords drawn uniformly from the vocabulary,
/// a radius in `[maxR/2, maxR]` — then an RKQ stream from object locations,
/// each with one keyword drawn the same way, over `small`'s bounded
/// indexes.
fn cold_and_rkq_streams(net: &RoadNetwork, max_r: u64) -> [Vec<DFunction>; 2] {
    let vocab = net.vocab().len() as u32;
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let cold = (0..96)
        .map(|_| {
            let kws = (0..5).map(|_| KeywordId(rng.gen_range(0..vocab))).collect();
            SgkQuery::new(kws, rng.gen_range(max_r / 2..=max_r)).to_dfunction()
        })
        .collect();
    let rkq = (0..48)
        .map(|_| {
            let l = objects[rng.gen_range(0..objects.len())];
            let kw = KeywordId(rng.gen_range(0..vocab));
            RangeKeywordQuery::new(l, vec![kw], rng.gen_range(max_r / 2..=max_r)).to_dfunction()
        })
        .collect();
    [cold, rkq]
}

/// The plans of `fs`.
fn lowered(fs: &[DFunction]) -> Vec<QueryPlan> {
    fs.iter().map(QueryPlan::lower).collect()
}

/// 32 top-ks of one to three keywords drawn uniformly from those some node
/// bears, `k = 10`, at a horizon in `[maxR/2, maxR]`, combined by max and
/// by sum in turn.
fn topks(net: &RoadNetwork, max_r: u64) -> Vec<TopKQuery> {
    let used = keywords_by_frequency(net);
    let mut rng = StdRng::seed_from_u64(0x70C5);
    (0..32)
        .map(|i| {
            let n = rng.gen_range(1..=3);
            let kws = (0..n).map(|_| KeywordId(used[rng.gen_range(0..used.len())] as u32));
            let combine = if i % 2 == 0 { ScoreCombine::Max } else { ScoreCombine::Sum };
            TopKQuery::new(kws.collect(), 10, rng.gen_range(max_r / 2..=max_r), combine)
        })
        .collect()
}

/// The fragments each query targets, ascending: those where every
/// conjunct of its plan, keyword or location, has a seed, by the engines'
/// own `seed_count` on engines built from `indexes` — counted without the
/// coordinator.
fn seeded_fragments(
    net: &RoadNetwork,
    p: &disks::partition::Partitioning,
    indexes: &[NpdIndex],
    plans: impl IntoIterator<Item = QueryPlan>,
) -> Vec<Vec<u32>> {
    let engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(net, p, index).unwrap()).collect();
    plans
        .into_iter()
        .map(|plan| {
            (0..engines.len() as u32)
                .filter(|&i| {
                    let e = &engines[i as usize];
                    plan.can_answer(|s| e.seed_count(s.term, s.radius) > 0)
                })
                .collect()
        })
        .collect()
}

/// An RKQ at `maxR/2` from an object with one of the rarest keywords,
/// whose keyword alone has a seed on some fragment, but whose location
/// reaches — holds, or has a portal within `r` of — no fragment where its
/// keyword has one: a query the location's DL entries alone prune
/// everywhere.
fn rkq_reaching_no_bearer(
    net: &RoadNetwork,
    p: &disks::partition::Partitioning,
    indexes: &[NpdIndex],
    max_r: u64,
) -> DFunction {
    let engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(net, p, index).unwrap()).collect();
    let rare: Vec<KeywordId> =
        keywords_by_frequency(net).iter().rev().take(8).map(|&k| KeywordId(k as u32)).collect();
    let seeded = |e: &FragmentEngine, term, r| e.seed_count(term, r) > 0;
    (net.node_ids().filter(|&n| net.is_object(n)))
        .flat_map(|l| rare.iter().map(move |&kw| RangeKeywordQuery::new(l, vec![kw], max_r / 2)))
        .find(|q| {
            let plan = QueryPlan::lower(&q.to_dfunction());
            let kw = Term::Keyword(q.keywords[0]);
            engines.iter().any(|e| seeded(e, kw, q.radius))
                && !engines.iter().any(|e| plan.can_answer(|s| seeded(e, s.term, s.radius)))
        })
        .expect("an RKQ whose location reaches no bearer of its keyword")
        .to_dfunction()
}

/// The fragments a query's answers came from, ascending.
fn answered(stats: &disks::cluster::QueryStats) -> Vec<u32> {
    let mut fragments: Vec<u32> =
        stats.per_machine.iter().flat_map(|m| m.fragments.iter().copied()).collect();
    fragments.sort_unstable();
    fragments
}

/// A query is asked only of the fragments that can answer it. Under all
/// four configurations a cold SGKQ stream and an RKQ stream are answered as
/// the oracle answers them, each query by exactly the fragments where none
/// of its conjuncts, keyword or location, is seedless — fewer pairs than
/// queries × fragments — and a query no fragment can answer is answered ∅
/// with no byte on the wire: a cold SGKQ with a keyword seedless
/// everywhere, and an RKQ whose keyword has seeds but whose location
/// reaches none of their fragments. Top-ks are ranked as the oracle ranks
/// them, each by exactly the fragments where every keyword has a seed
/// within the horizon, and a top-k on a keyword no node bears is `[]` with
/// no byte on the wire.
#[test]
fn a_query_is_asked_only_of_the_fragments_that_can_answer_it() {
    let net = GridNetworkConfig::small(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let max_r = 12 * net.avg_edge_weight();
    let streams = cold_and_rkq_streams(&net, max_r);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
    let seeded: Vec<Vec<Vec<u32>>> =
        streams.iter().map(|fs| seeded_fragments(&net, &p, &indexes, lowered(fs))).collect();
    let mut oracle = CentralizedEngine::new(&net);
    let expected: Vec<Vec<Vec<NodeId>>> =
        streams.iter().map(|fs| fs.iter().map(|f| oracle.run(f).unwrap().0).collect()).collect();
    for (fs, seeded) in streams.iter().zip(&seeded) {
        let pairs: usize = seeded.iter().map(Vec::len).sum();
        assert!(pairs > 0 && pairs < fs.len() * FRAGMENTS, "{pairs} pairs of {}", fs.len());
    }
    let nowhere = (streams[0].iter().zip(&seeded[0]))
        .find_map(|(f, seeded)| seeded.is_empty().then_some(f))
        .expect("a cold query no fragment can answer");
    let unreached = rkq_reaching_no_bearer(&net, &p, &indexes, max_r);
    assert!(oracle.run(&unreached).unwrap().0.is_empty(), "{unreached}: the oracle's answer");
    let topks = topks(&net, max_r);
    let ranked: Vec<_> = topks.iter().map(|q| centralized_topk(&net, q).unwrap()).collect();
    let ranked_by = seeded_fragments(&net, &p, &indexes, topks.iter().map(QueryPlan::topk));
    let pairs: usize = ranked_by.iter().map(Vec::len).sum();
    assert!(pairs < topks.len() * FRAGMENTS, "some top-k must leave a fragment out");
    let freqs = net.keyword_frequencies();
    let unborne = KeywordId(freqs.iter().position(|&n| n == 0).expect("an unborne keyword") as u32);
    let unborne = TopKQuery::new(vec![unborne], 10, max_r, ScoreCombine::Max);
    assert_eq!(centralized_topk(&net, &unborne).unwrap(), [], "the oracle's ranking");
    for (name, config) in configs() {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, config);
        for (s, fs) in streams.iter().enumerate() {
            let (items, _) = cluster.run_stream(fs);
            for (i, item) in items.into_iter().enumerate() {
                let o = item.unwrap_or_else(|e| panic!("{name}: stream {s} query {i}: {e}"));
                assert_eq!(o.results, expected[s][i], "{name}: stream {s} query {i} vs oracle");
                assert_eq!(answered(&o.stats), seeded[s][i], "{name}: stream {s} query {i}");
            }
        }
        for f in [nowhere, &unreached] {
            let before = cluster.link_totals();
            let o = cluster.run(f).unwrap_or_else(|e| panic!("{name}: {f}: {e}"));
            assert!(o.results.is_empty() && answered(&o.stats).is_empty(), "{name}: {f}");
            assert_eq!(cluster.link_totals(), before, "{name}: {f} put bytes on the wire");
        }
        for (i, q) in topks.iter().enumerate() {
            let (top, stats) =
                cluster.run_topk(q).unwrap_or_else(|e| panic!("{name}: top-k {i}: {e}"));
            assert_eq!(top, ranked[i], "{name}: top-k {i} vs oracle");
            assert_eq!(answered(&stats), ranked_by[i], "{name}: top-k {i}");
        }
        let before = cluster.link_totals();
        assert_eq!(cluster.run_topk(&unborne).unwrap().0, [], "{name}: unborne top-k");
        assert_eq!(
            cluster.link_totals(),
            before,
            "{name}: the unborne top-k put bytes on the wire"
        );
        assert_ledger_closes(&cluster, name);
        cluster.shutdown();
    }
}

/// A worker killed mid stream is retried, or given up on, for the pairs
/// it was sent alone, on the cold SGKQ stream and on the RKQ stream, whose
/// locations prune pairs too. Machine 0 (fragments 0 and 2) dies on its
/// second window. With retries every answer is the oracle's from
/// exactly the fragments that can answer it, and a query none of whose
/// targets machine 0 hosts is never retried; with one attempt and partial
/// answers, every degraded fragment is a target on machine 0 and the
/// answered and degraded fragments are exactly the targets.
#[test]
fn a_killed_worker_is_retried_only_for_its_targets() {
    let net = GridNetworkConfig::small(0x0E1A).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let max_r = 12 * net.avg_edge_weight();
    // Four fragments round-robin over the two machines.
    let on_machine_zero = |f: &u32| f.is_multiple_of(2);
    let mut oracle = CentralizedEngine::new(&net);
    let kill = || Some(FaultPlan::new(0x0E1A).kill_worker(0, 2));
    for (stream, fs) in ["cold", "rkq"].into_iter().zip(cold_and_rkq_streams(&net, max_r)) {
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let seeded = seeded_fragments(&net, &p, &indexes, lowered(&fs));

        let retried = ClusterConfig { faults: kill(), ..shipped() };
        let cluster = Cluster::build(&net, &p, indexes, retried);
        let (items, _) = cluster.run_stream(&fs);
        for (i, (f, item)) in fs.iter().zip(items).enumerate() {
            let o = item.unwrap_or_else(|e| panic!("{stream} query {i}: {e}"));
            assert_eq!(o.results, oracle.run(f).unwrap().0, "{stream} query {i} vs oracle");
            assert_eq!(answered(&o.stats), seeded[i], "{stream} query {i}");
            if !seeded[i].iter().any(on_machine_zero) {
                assert_eq!(o.stats.retries, 0, "{stream} query {i} retried with no target on 0");
            }
        }
        let recovery = cluster.recovery_counters();
        assert!(recovery.respawned_workers >= 1 && recovery.retries >= 1, "{stream}: {recovery:?}");
        assert_eq!(recovery.duplicate_responses, 0, "{stream}: {recovery:?}");
        assert_ledger_closes(&cluster, &format!("{stream}, retried"));
        cluster.shutdown();

        let partial = ClusterConfig {
            faults: kill(),
            allow_partial: true,
            max_attempts: 1,
            deadline: Duration::from_millis(200),
            ..shipped()
        };
        let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
        let cluster = Cluster::build(&net, &p, indexes, partial);
        let (items, _) = cluster.run_stream(&fs);
        let mut degraded = 0;
        for (i, item) in items.into_iter().enumerate() {
            let o = item.unwrap_or_else(|e| panic!("{stream} query {i}: {e}"));
            let lost = &o.stats.degraded_fragments;
            assert!(lost.iter().all(on_machine_zero), "{stream} query {i}: degraded {lost:?}");
            let mut asked: Vec<u32> =
                answered(&o.stats).into_iter().chain(lost.iter().copied()).collect();
            asked.sort_unstable();
            assert_eq!(asked, seeded[i], "{stream} query {i}: answered and degraded");
            degraded += lost.len();
        }
        assert!(degraded > 0, "{stream}: the kill must have cost some target its answer");
        assert_eq!(cluster.recovery_counters().retries, 0, "{stream}");
        assert_ledger_closes(&cluster, &format!("{stream}, partial"));
        cluster.shutdown();
    }
}
