//! Bitset combine-stage microbench: the word-wise ∪ / ∩ / − kernels and the
//! short-circuit probes (`intersects`, `popcount`) that back the
//! D-function operator chains.
//!
//! These are the per-slot "second step" loops every query pays after its
//! coverages are in hand, serial and parallel alike — the parallel
//! evaluation pool (DESIGN.md §6k) changes who computes coverages, not how
//! they combine, so this is the fixed per-query floor the thread pool
//! amortises the Dijkstra cost against.
//!
//! `list_cut` prices the fetch a keyword list replaced: on one fragment of
//! the benchmark's dataset (`aus_like(0xA052)`, k = 8, maxR = 40·ē), every
//! seeded keyword's coverage at maxR/4, maxR/2 and maxR, once as the list's
//! prefix scattered into a fresh bitset and once as the bounded search it
//! replaces. Both print **ns per covered node** (the search's unit is then
//! `core.engine.ns_per_settled`: a bounded search settles exactly what it
//! covers), and the lists' memory beside their floors'.
//!
//! `rkq_bounded` prices the bounded fetch of a location's slot on the same
//! fragment: benchmark-shaped RKQs (an object location, one keyword of its
//! own, `r` in `[maxR/2, maxR]`) whose plan searches the location there,
//! once as a whole plan evaluation with the keyword lists warm (the
//! keyword's cut, then the search from the location that pushes no node
//! the keyword's floor puts out of reach and stops once the cut's nodes
//! have settled) and once as the plain `R(l, r)` search the evaluation used
//! to start with. Both print settled nodes and ns a query, for all of them
//! and split between the searches that find an answer on the fragment and
//! those that find none, beside how many searches settle nothing. It
//! asserts every answer is `R(l, r) ∩ R(kw, 0)` by the plain searches and
//! no search settles more than the plain one, so `cargo test --bench
//! bitset_kernels` checks both.
//!
//! Run with: `cargo bench -p disks-core --bench bitset_kernels`

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use disks_core::bitset::{kernels, BitSet};
use disks_core::index::{build_index, IndexConfig};
use disks_core::{FragmentEngine, KeywordList, QueryPlan, RangeKeywordQuery, Term};
use disks_partition::{FragmentId, MultilevelPartitioner, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::{KeywordId, NodeId};

/// Deterministic pseudo-random words (splitmix64) so densities are stable
/// across runs without pulling in an RNG.
fn words(n: usize, seed: u64, keep_every: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Sparse variant: most words zero, mimicking a small coverage
            // inside a large fragment.
            if keep_every > 1 && !(i as u64).is_multiple_of(keep_every) {
                0
            } else {
                z
            }
        })
        .collect()
}

fn bench_word_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset_kernels");
    group.sample_size(20);
    // Fragment sizes in words: 1 Ki words = 64 Ki nodes covers the bench
    // presets; 16 Ki words = 1 Mi nodes is BRI-scale.
    for &nwords in &[1usize << 10, 1 << 14] {
        let a = words(nwords, 0xA11CE, 1);
        let sparse = words(nwords, 0xB0B, 16);
        group.bench_with_input(BenchmarkId::new("or_into", nwords), &nwords, |b, _| {
            let mut dst = a.clone();
            b.iter(|| {
                kernels::or_into(&mut dst, &sparse);
                black_box(dst[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("and_into", nwords), &nwords, |b, _| {
            let mut dst = a.clone();
            b.iter(|| {
                let alive = kernels::and_into(&mut dst, &a);
                black_box(alive)
            });
        });
        group.bench_with_input(BenchmarkId::new("andnot_into", nwords), &nwords, |b, _| {
            let mut dst = a.clone();
            b.iter(|| {
                let alive = kernels::andnot_into(&mut dst, &sparse);
                black_box(alive)
            });
        });
        group.bench_with_input(BenchmarkId::new("intersects", nwords), &nwords, |b, _| {
            b.iter(|| black_box(kernels::intersects(&a, &sparse)));
        });
        group.bench_with_input(BenchmarkId::new("popcount", nwords), &nwords, |b, _| {
            b.iter(|| black_box(kernels::popcount(&a)));
        });
    }
    group.finish();
}

fn bench_bitset_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset_ops");
    group.sample_size(20);
    let nbits = 1usize << 20;
    let mut dense = BitSet::new(nbits);
    let mut sparse = BitSet::new(nbits);
    for i in (0..nbits).step_by(3) {
        dense.insert(i);
    }
    for i in (0..nbits).step_by(97) {
        sparse.insert(i);
    }
    group.bench_with_input(BenchmarkId::new("union_with", nbits), &nbits, |b, _| {
        let mut dst = dense.clone();
        b.iter(|| {
            dst.union_with(&sparse);
            black_box(dst.is_empty())
        });
    });
    group.bench_with_input(BenchmarkId::new("intersect_with", nbits), &nbits, |b, _| {
        let mut dst = dense.clone();
        b.iter(|| black_box(dst.intersect_with(&sparse)));
    });
    group.bench_with_input(BenchmarkId::new("count", nbits), &nbits, |b, _| {
        b.iter(|| black_box(dense.count()));
    });
    group.finish();
}

fn bench_list_cut(_: &mut Criterion) {
    let net = GridNetworkConfig::aus_like(0xA052).generate();
    let part = MultilevelPartitioner::default().partition(&net, 8);
    let max_r = 40 * net.avg_edge_weight();
    let index = build_index(&net, &part, FragmentId(0), &IndexConfig::with_max_r(max_r));
    let mut engine = FragmentEngine::new(&net, &part, &index).expect("engine");
    let n = engine.num_local_nodes();
    let seeded: Vec<Term> = (0..net.vocab().len() as u32)
        .map(|k| Term::Keyword(KeywordId(k)))
        .filter(|&t| engine.seed_count(t, max_r) > 0)
        .collect();
    // Each keyword's first search, kept as the engine keeps it.
    let lists: Vec<KeywordList> = seeded
        .iter()
        .map(|&t| {
            let (table, _) = engine.distance_table(t, max_r).expect("admissible");
            let settled = table.into_iter().map(|(node, d)| (d as u32, node)).collect();
            KeywordList::new(settled, n, max_r)
        })
        .collect();
    let listed: usize = lists.iter().map(|l| l.cut_into(max_r, &mut BitSet::new(n))).sum();
    let list_bytes = lists.iter().map(KeywordList::memory_bytes).sum::<usize>();
    let floor_bytes = lists.iter().map(|l| l.floors().memory_bytes()).sum::<usize>();
    println!(
        "list_cut: {n} nodes, {} seeded keywords, {:.0} listed/keyword, \
         {} KiB of lists and masks beside {} KiB of floors",
        seeded.len(),
        listed as f64 / seeded.len() as f64,
        list_bytes >> 10,
        floor_bytes >> 10
    );
    let median = |pass: &mut dyn FnMut() -> usize| {
        let covered = pass(); // warm-up; the count repeats exactly
        let mut samples: Vec<f64> = (0..15)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(black_box(pass()), covered);
                start.elapsed().as_nanos() as f64 / covered.max(1) as f64
            })
            .collect();
        samples.sort_unstable_by(f64::total_cmp);
        (samples[samples.len() / 2], covered as f64 / seeded.len() as f64)
    };
    for bound in [max_r / 4, max_r / 2, max_r] {
        let (cut, covered) =
            median(&mut || lists.iter().map(|l| l.cut_into(bound, &mut BitSet::new(n))).sum());
        let (search, _) = median(&mut || {
            let cover = |&t: &Term| engine.coverage(t, bound).expect("admissible").0.count();
            seeded.iter().map(cover).sum()
        });
        println!(
            "list_cut/{bound}: median {cut:.1} ns/node cut vs {search:.1} searched \
             ({covered:.0} covered/keyword)"
        );
    }
}

fn bench_rkq_bounded(_: &mut Criterion) {
    const QUERIES: u64 = 512;
    let net = GridNetworkConfig::aus_like(0xA052).generate();
    let part = MultilevelPartitioner::default().partition(&net, 8);
    let max_r = 40 * net.avg_edge_weight();
    let index = build_index(&net, &part, FragmentId(0), &IndexConfig::with_max_r(max_r));
    let mut engine = FragmentEngine::new(&net, &part, &index).expect("engine");
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let rkqs: Vec<RangeKeywordQuery> = (0..QUERIES)
        .map(|i| {
            let l = objects[(i as usize * 97) % objects.len()];
            let r = max_r / 2 + i * (max_r / 2) / (QUERIES - 1);
            RangeKeywordQuery::new(l, vec![net.keywords(l)[0]], r)
        })
        .collect();
    // Warm the keyword lists, and keep the RKQs whose plan searches `l` here.
    let searched: Vec<(QueryPlan, RangeKeywordQuery)> = rkqs
        .into_iter()
        .map(|q| (QueryPlan::lower(&q.to_dfunction()), q))
        .filter(|(plan, q)| {
            let (_, cost) = engine.evaluate_plan(plan).expect("admissible");
            cost.per_slot.iter().any(|slot| slot.term == Term::Node(q.location))
        })
        .collect();
    // Every answer is `R(l, r) ∩ R(kw, 0)` from the plain searches, and no
    // location's search settles more than the plain one; split the RKQs by
    // whether the fragment answers them, and count the searches the floor
    // refuses before a settle.
    let (mut found, mut none, mut zero) = (Vec::new(), Vec::new(), 0);
    for pair in &searched {
        let (plan, q) = pair;
        let (local, cost) = engine.evaluate_plan(plan).expect("admissible");
        let location = Term::Node(q.location);
        let (mut expect, full) = engine.coverage(location, q.radius).expect("admissible");
        let (bearers, _) = engine.coverage(Term::Keyword(q.keywords[0]), 0).expect("admissible");
        Arc::make_mut(&mut expect).intersect_with(&bearers);
        assert_eq!(local, engine.to_global(&expect).to_vec(), "{}", plan);
        let node = cost.per_slot.iter().find(|slot| slot.term == location).expect("searched");
        assert!(node.settled <= full.settled, "{}: {node:?} vs {full:?}", plan);
        zero += usize::from(node.settled == 0);
        if local.is_empty() { &mut none } else { &mut found }.push(pair);
    }
    let fragment_nodes = engine.num_local_nodes();
    let mut per_query = |set: &[&(QueryPlan, RangeKeywordQuery)]| {
        let queries = set.len().max(1) as f64;
        let median = |pass: &mut dyn FnMut() -> usize| {
            let settled = pass(); // warm-up; the count repeats exactly
            let mut samples: Vec<f64> = (0..15)
                .map(|_| {
                    let start = Instant::now();
                    assert_eq!(black_box(pass()), settled);
                    start.elapsed().as_nanos() as f64 / queries
                })
                .collect();
            samples.sort_unstable_by(f64::total_cmp);
            (samples[samples.len() / 2], settled as f64 / queries)
        };
        let bounded = median(&mut || {
            let evaluate = |(plan, _): &&(QueryPlan, _)| engine.evaluate_plan(plan).expect("ok").1;
            set.iter().map(evaluate).map(|cost| cost.settled).sum()
        });
        let plain = median(&mut || {
            let search = |(_, q): &&(_, RangeKeywordQuery)| {
                engine.coverage(Term::Node(q.location), q.radius).expect("admissible").1
            };
            set.iter().map(search).map(|cost| cost.settled).sum()
        });
        (bounded, plain)
    };
    let all: Vec<_> = searched.iter().collect();
    let ((bounded_ns, bounded), (plain_ns, plain)) = per_query(&all);
    println!(
        "rkq_bounded: {} of {QUERIES} RKQs search their location on a {}-node fragment: \
         {bounded:.0} settled/query bounded and floored vs {plain:.0} plain, \
         median {bounded_ns:.0} ns/query vs {plain_ns:.0}; {zero} settle 0",
        searched.len(),
        fragment_nodes
    );
    // A search stops early only where the fragment holds an answer; one that
    // finds none runs out where the floor refuses every push.
    for (set, what) in [(&found, "find an answer"), (&none, "find none")] {
        let ((bounded_ns, bounded), (plain_ns, plain)) = per_query(set);
        println!(
            "rkq_bounded: {} that {what}: {bounded:.0} settled/query bounded and floored \
             vs {plain:.0} plain, median {bounded_ns:.0} ns/query vs {plain_ns:.0}",
            set.len()
        );
    }
}

criterion_group!(bitsets, bench_word_kernels, bench_bitset_ops, bench_list_cut, bench_rkq_bounded);
criterion_main!(bitsets);
