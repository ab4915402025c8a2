//! Answer-plane microbench: what one query's answer costs to encode on the
//! workers, decode on the coordinator and assemble into the final ascending
//! list, for the three shapes the gather rule and the run-length layout
//! distinguish.
//!
//! * `dense_runs` — 8 fragment lists, ~15 k ids in 10-id runs over a
//!   40 000-node universe: a `sgkq-hot` answer on row-major ids. Runs make
//!   the frame small; the bitmap gather replaces the sort.
//! * `dense_scattered` — the same size with no two ids consecutive: the
//!   layout degrades to a delta-varint (~1 byte an id), the gather is
//!   unchanged.
//! * `sparse` — 10 ids: below the density rule, so concatenate-and-sort.
//!
//! `gather` includes cloning the lists (the coordinator owns the decoded
//! lists; the bench must keep its input), which `clone_only` prices.
//! `sort_reference` is the assembly this replaced — concatenate, then
//! `sort_unstable` — on the same lists. The vendored criterion stub prints
//! the median wall-clock per iteration.
//!
//! Run with: `cargo bench -p disks-cluster --bench answer_plane`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use disks_cluster::message::{decode_frame, encode_frame};
use disks_cluster::{AnswerGather, Response, WireCost};
use disks_roadnet::NodeId;

const UNIVERSE: u32 = 40_000;
const FRAGMENTS: usize = 8;

/// Deal `ids` (ascending) to the fragment lists in blocks of `block` ids.
fn deal(ids: impl Iterator<Item = u32>, block: usize) -> Vec<Vec<NodeId>> {
    let mut lists = vec![Vec::new(); FRAGMENTS];
    for (i, id) in ids.enumerate() {
        lists[i / block % FRAGMENTS].push(NodeId(id));
    }
    lists
}

fn shapes() -> [(&'static str, Vec<Vec<NodeId>>); 3] {
    [
        // 10 ids on, 16 off: 1 539 runs, 15 390 ids.
        ("dense_runs", deal((0..UNIVERSE).filter(|id| id % 26 < 10), 10)),
        // 15 000 ids with gaps of 2 and 3.
        ("dense_scattered", deal((0..15_000).map(|i| i * 8 / 3), 64)),
        ("sparse", deal((0..10).map(|i| 17 + i * 3_901), 1)),
    ]
}

fn frames(lists: &[Vec<NodeId>]) -> Vec<Response> {
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
    for (shape, lists) in shapes() {
        let ids: usize = lists.iter().map(Vec::len).sum();
        let responses = frames(&lists);
        let encoded: Vec<_> = responses.iter().map(encode_frame).collect();
        let bytes: usize = encoded.iter().map(|f| f.len()).sum();
        let side = if gather.is_dense(ids) { "bitmap" } else { "sort" };
        println!("answer_plane/{shape}: {ids} ids, {bytes} bytes in {FRAGMENTS} frames, {side}");
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
        group.bench_with_input(BenchmarkId::new("clone_only", shape), &lists, |b, lists| {
            b.iter(|| lists.clone());
        });
        group.bench_with_input(BenchmarkId::new("gather", shape), &lists, |b, lists| {
            b.iter(|| gather.assemble(lists.clone()));
        });
        group.bench_with_input(BenchmarkId::new("sort_reference", shape), &lists, |b, lists| {
            b.iter(|| {
                let mut all = lists.concat();
                all.sort_unstable();
                all
            });
        });
    }
    group.finish();
}

criterion_group!(answer_plane, bench_answer_plane);
criterion_main!(answer_plane);
