//! Answer-plane microbench: what one query's answer costs to read off a
//! fragment's bitset and encode on the workers, decode on the coordinator
//! and assemble into the final ascending list, for the three shapes the
//! gather rule and the run-length layout distinguish.
//!
//! * `dense_runs` — ~15 k ids in 10-id runs over a 40 000-node universe: a
//!   `sgkq-hot` answer on row-major ids. Runs make the frame small; the
//!   bitmap gather replaces the sort.
//! * `dense_scattered` — the same size with no two ids consecutive: the
//!   layout degrades to a delta-varint (~1 byte an id) and every stage pays
//!   per id again, since every id is a run.
//! * `sparse` — 10 ids: below the density rule, so the runs are sorted.
//!
//! `to_runs` is one fragment's share of the stage: a 4 900-bit bitset over a
//! 70 × 70 patch of the 200-wide row-major grid, holding the shape's ids
//! that fall in the patch. `encode`, `decode` and `assemble` take the
//! shape's ids dealt to 8 fragment answers. The two `*_reference` lines are
//! what the plane replaced, on the same inputs: the per-id walk of the
//! bitset, and concatenating the ids and `sort_unstable`. The vendored
//! criterion stub prints the median wall-clock per iteration.
//!
//! Medians on this host (2-core VM), µs an iteration: the commit before the
//! plane carried runs → this one. `to_runs` did not exist before: its left
//! side is this commit's `per_id_reference`. The old `gather` consumed its
//! id lists, so its figure includes cloning them (1.8 / 1.8 / 0.15 µs).
//!
//! | stage            | dense_runs   | dense_scattered | sparse        |
//! |------------------|--------------|-----------------|---------------|
//! | `to_runs` (1 of 8) | 2.7 → 0.72 | 2.3 → 5.2       | 0.07 → 0.07   |
//! | `encode`         | 42.1 → 5.2   | 87.5 → 18.2     | 2.06 → 1.58   |
//! | `decode`         | 16.2 → 10.3  | 66.7 → 64.2     | 0.95 → 0.80   |
//! | `assemble`       | 36.9 → 10.0  | 27.1 → 46.7     | 0.21 → 0.14   |
//! | `sort_reference` | 191 → 162    | 195 → 158       | 0.05 → 0.04   |
//!
//! Where every id is its own run (`dense_scattered`) the bitset walk and
//! the assembly cost more than the per-id plane did: a run is two words
//! where an id was one, and is found by two bit scans where an id took one.
//!
//! `targets/sgkq5_over_8` and `targets/rkq_over_8` price what the
//! coordinator decides before it encodes a query: the fragments a cold
//! 5-keyword SGKQ, or an RKQ from an object with one keyword of its own,
//! targets, one `SeedFloors::can_answer` for each of 8 fragments of
//! `small`'s bounded indexes, collected as the dispatch collects them
//! (~0.1–0.2 µs a query on this host for either: well under the µs that
//! would show beside a window's encode). The SGKQs target 4 of their 512
//! pairs, the RKQs 144 (~2.3 of 8 fragments a query), and both assert the
//! decision equals the engines' own `seed_count` test on every pair, so
//! `cargo test -p disks-cluster --bench answer_plane --release` is a check
//! as well as a print.
//!
//! Run with: `cargo bench --offline -p disks-cluster --bench answer_plane`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use disks_cluster::message::{decode_frame, encode_frame};
use disks_cluster::{AnswerGather, Response, WireCost};
use disks_core::bitset::BitSet;
use disks_core::{
    build_all_indexes, FragmentEngine, IndexConfig, NodeRuns, QueryPlan, RangeKeywordQuery,
    SeedFloors, SgkQuery,
};
use disks_partition::{FragmentId, MultilevelPartitioner, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::{KeywordId, NodeId};

/// A 200 × 200 row-major grid.
const ROW: u32 = 200;
const UNIVERSE: u32 = ROW * ROW;
/// Side of the fragment patch `to_runs` reads, in rows and columns.
const PATCH: u32 = 70;
const FRAGMENTS: usize = 8;

/// Deal `ids` (ascending) to the fragment answers in blocks of `block` ids.
fn deal(ids: &[u32], block: usize) -> Vec<NodeRuns> {
    let mut lists = vec![Vec::new(); FRAGMENTS];
    for (i, &id) in ids.iter().enumerate() {
        lists[i / block % FRAGMENTS].push(NodeId(id));
    }
    lists.into_iter().map(NodeRuns::from).collect()
}

/// `(shape, its ids ascending, deal block)`.
fn shapes() -> [(&'static str, Vec<u32>, usize); 3] {
    [
        // 10 ids on, 16 off: 1 539 runs, 15 390 ids.
        ("dense_runs", (0..UNIVERSE).filter(|id| id % 26 < 10).collect(), 10),
        // 15 000 ids with gaps of 2 and 3.
        ("dense_scattered", (0..15_000).map(|i| i * 8 / 3).collect(), 64),
        ("sparse", (0..10).map(|i| 17 + i * 3_901).collect(), 1),
    ]
}

/// The patch's members in local id order, and which of them `ids` names.
fn patch(ids: &[u32]) -> (Vec<NodeId>, BitSet) {
    let globals: Vec<NodeId> =
        (0..PATCH).flat_map(|r| (0..PATCH).map(move |c| NodeId((40 + r) * ROW + 60 + c))).collect();
    let mut cov = BitSet::new(globals.len());
    for (i, g) in globals.iter().enumerate() {
        if ids.binary_search(&g.0).is_ok() {
            cov.insert(i);
        }
    }
    (globals, cov)
}

fn frames(lists: &[NodeRuns]) -> Vec<Response> {
    lists
        .iter()
        .enumerate()
        .map(|(f, nodes)| Response::Results {
            query_id: 1,
            fragment: f as u32,
            nodes: nodes.clone(),
            cost: WireCost::default(),
        })
        .collect()
}

fn bench_answer_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("answer_plane");
    group.sample_size(20);
    let mut gather = AnswerGather::new(UNIVERSE as usize);
    for (shape, ids, block) in shapes() {
        let lists = deal(&ids, block);
        let responses = frames(&lists);
        let encoded: Vec<_> = responses.iter().map(encode_frame).collect();
        let bytes: usize = encoded.iter().map(|f| f.len()).sum();
        let runs: usize = lists.iter().map(|l| l.runs().len()).sum();
        let side = if gather.is_dense(ids.len()) { "bitmap" } else { "sort" };
        let (globals, cov) = patch(&ids);
        let breaks = NodeRuns::breaks(&globals);
        println!(
            "answer_plane/{shape}: {} ids in {runs} runs, {bytes} bytes in {FRAGMENTS} frames, \
             {side}; the patch holds {} of them in {} runs",
            ids.len(),
            cov.count(),
            NodeRuns::from_bitset(&cov, &globals, &breaks).runs().len(),
        );
        group.bench_with_input(BenchmarkId::new("to_runs", shape), &cov, |b, cov| {
            b.iter(|| NodeRuns::from_bitset(cov, &globals, &breaks));
        });
        group.bench_with_input(BenchmarkId::new("per_id_reference", shape), &cov, |b, cov| {
            b.iter(|| cov.iter().map(|i| globals[i]).collect::<Vec<NodeId>>());
        });
        group.bench_with_input(BenchmarkId::new("encode", shape), &responses, |b, responses| {
            b.iter(|| responses.iter().map(|r| encode_frame(r).len()).sum::<usize>());
        });
        group.bench_with_input(BenchmarkId::new("decode", shape), &encoded, |b, encoded| {
            b.iter(|| {
                for frame in encoded {
                    black_box(decode_frame::<Response>(frame.clone()).expect("valid frame"));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("assemble", shape), &lists, |b, lists| {
            b.iter(|| gather.assemble(lists));
        });
        // The ids as the old gather received them: one list a fragment.
        let id_lists: Vec<Vec<NodeId>> = lists.iter().map(NodeRuns::to_vec).collect();
        group.bench_with_input(BenchmarkId::new("sort_reference", shape), &id_lists, |b, lists| {
            b.iter(|| {
                let mut all = lists.concat();
                all.sort_unstable();
                all
            });
        });
    }
    group.finish();
}

/// The coordinator's target decision over 8 fragments, cycling through 64
/// queries of each of two shapes: a cold 5-keyword SGKQ (keywords uniform
/// over the vocabulary) and an RKQ from an object location with one keyword
/// of its own, both at a radius in `[maxR/2, maxR]`. Before it is timed,
/// each shape asserts that the decision is the engines' own seed test on
/// every (query, fragment) pair.
fn bench_targets(c: &mut Criterion) {
    let net = GridNetworkConfig::small(0xA052).generate();
    let p = MultilevelPartitioner::default().partition(&net, FRAGMENTS);
    let max_r = 12 * net.avg_edge_weight();
    let indexes = build_all_indexes(&net, &p, &IndexConfig::with_max_r(max_r));
    let floors = SeedFloors::new(&net, &p, &indexes);
    let engines: Vec<FragmentEngine> =
        indexes.iter().map(|index| FragmentEngine::new(&net, &p, index).unwrap()).collect();
    let vocab = net.vocab().len() as u32;
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let radius = |i: u32| max_r / 2 + u64::from(i) * (max_r / 2) / 63;
    let sgkq5: Vec<QueryPlan> = (0..64u32)
        .map(|i| {
            let kws = (0..5).map(|j| KeywordId((i * 7 + j * 13) % vocab)).collect();
            QueryPlan::lower(&SgkQuery::new(kws, radius(i)).to_dfunction())
        })
        .collect();
    let rkq: Vec<QueryPlan> = (0..64u32)
        .map(|i| {
            let l = objects[i as usize * 7 % objects.len()];
            let q = RangeKeywordQuery::new(l, vec![net.keywords(l)[0]], radius(i));
            QueryPlan::lower(&q.to_dfunction())
        })
        .collect();
    let mut group = c.benchmark_group("targets");
    group.sample_size(20);
    for (name, plans) in [("sgkq5_over_8", sgkq5), ("rkq_over_8", rkq)] {
        let mut targeted = 0;
        for plan in &plans {
            for (f, engine) in engines.iter().enumerate() {
                let asked = floors.can_answer(plan, FragmentId(f as u32));
                let seeded = plan.can_answer(|s| engine.seed_count(s.term, s.radius) > 0);
                assert_eq!(asked, seeded, "{name}: {plan} on fragment {f}");
                targeted += usize::from(asked);
            }
        }
        println!(
            "targets/{name}: {targeted} of {} (query, fragment) pairs targeted",
            plans.len() * FRAGMENTS
        );
        let mut next = 0;
        group.bench_with_input(BenchmarkId::new(name, "one query"), &plans, |b, plans| {
            b.iter(|| {
                next = (next + 1) % plans.len();
                (0..FRAGMENTS as u32)
                    .map(|f| floors.can_answer(&plans[next], FragmentId(f)))
                    .collect::<Vec<bool>>()
            });
        });
    }
    group.finish();
}

criterion_group!(answer_plane, bench_answer_plane, bench_targets);
criterion_main!(answer_plane);
