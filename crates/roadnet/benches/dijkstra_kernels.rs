//! Bounded-search kernel microbench: Δ-wide bucket queue vs tuple heap on
//! identical searches, through the explicit `run_with` seam
//! (`DijkstraWorkspace::run` itself picks with `kernel_for(bound, w_min)`).
//!
//! * `fragment_search` looks like the traffic: one fragment's extended CSR
//!   of the benchmark's dataset (`aus_like(0xA052)`, k = 8, maxR = 40·ē,
//!   SC shortcut arcs in), one search per keyword seeded with the keyword's
//!   local nodes and its DL portal pairs, at maxR/4, maxR/2 and maxR. It
//!   prints **ns per settled node**, the unit of the benchmark's
//!   `core.engine.ns_per_settled`, so the two can be read side by side.
//! * `whole_network_search` is the old shape — 16 spread sources on the
//!   whole BRI-like network, every bucket full — kept as the other extreme,
//!   not as a stand-in for a query.
//!
//! Run with: `cargo bench -p disks-roadnet --bench dijkstra_kernels`

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use disks_core::index::{build_index, IndexConfig};
use disks_core::FragmentEngine;
use disks_partition::{FragmentId, MultilevelPartitioner, Partitioner};
use disks_roadnet::dijkstra::{kernel_for, Control, DijkstraWorkspace, Graph, Kernel};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::{KeywordId, NodeId};

const KERNELS: [(Kernel, &str); 2] = [(Kernel::Bucket, "bucket"), (Kernel::Heap, "heap")];

fn bench_fragment(_: &mut Criterion) {
    let net = GridNetworkConfig::aus_like(0xA052).generate();
    let part = MultilevelPartitioner::default().partition(&net, 8);
    let max_r = 40 * net.avg_edge_weight();
    let fragment = FragmentId(0);
    let index = build_index(&net, &part, fragment, &IndexConfig::with_max_r(max_r));
    let engine = FragmentEngine::new(&net, &part, &index).expect("engine");
    // Local ids are positions in the fragment's ascending member list.
    let members = part.nodes(fragment);
    let local = |g: NodeId| members.binary_search(&g).ok().map(|i| i as u32);
    // Per keyword: local bearers at 0, then the DL pairs by ascending d.
    let seeds: Vec<Vec<(u32, u64)>> = (0..net.vocab().len() as u32)
        .map(|k| {
            let bearers = net.nodes_with_keyword(KeywordId(k)).iter().filter_map(|&n| local(n));
            let portals = index.keyword_portal_list(KeywordId(k)).iter();
            bearers
                .map(|n| (n, 0))
                .chain(portals.map(|&(p, d)| (local(p).expect("portal is a member"), d)))
                .collect()
        })
        .filter(|s: &Vec<_>| !s.is_empty())
        .collect();
    println!(
        "fragment_search: {} nodes, w_min {}, {} seeded keywords",
        engine.num_nodes(),
        engine.min_arc_weight(),
        seeds.len()
    );
    let mut ws = DijkstraWorkspace::new(engine.num_nodes());
    for bound in [max_r / 4, max_r / 2, max_r] {
        assert_eq!(kernel_for(bound, engine.min_arc_weight()), Kernel::Bucket);
        for (kernel, label) in KERNELS {
            let mut pass = || {
                let mut settled = 0usize;
                for s in &seeds {
                    // The kernel drops seeds farther than the bound itself.
                    settled += ws
                        .run_with(kernel, &engine, s, bound, |node, dist| {
                            black_box((node, dist));
                            Control::Continue
                        })
                        .settled;
                }
                settled
            };
            let settled = pass(); // warm-up; the count repeats exactly
            let mut samples: Vec<f64> = (0..15)
                .map(|_| {
                    let start = Instant::now();
                    assert_eq!(black_box(pass()), settled);
                    start.elapsed().as_nanos() as f64 / settled as f64
                })
                .collect();
            samples.sort_unstable_by(f64::total_cmp);
            println!(
                "fragment_search/{label}/{bound}: median {:.1} ns/settled ({:.0} settled/search)",
                samples[samples.len() / 2],
                settled as f64 / seeds.len() as f64
            );
        }
    }
}

fn bench_whole_network(c: &mut Criterion) {
    let net = GridNetworkConfig::bri_like(0xBE7C).generate();
    let total = net.num_nodes() as u32;
    let srcs: Vec<(u32, u64)> =
        (0..16u32).map(|i| (i.wrapping_mul(2_654_435_761) % total, 0)).collect();
    let mut ws = DijkstraWorkspace::new(net.num_nodes());

    let mut group = c.benchmark_group("whole_network_search");
    group.sample_size(20);
    for bound in [2_000u64, 8_000, 32_000] {
        for (kernel, label) in KERNELS {
            group.bench_with_input(BenchmarkId::new(label, bound), &bound, |b, &bound| {
                b.iter(|| {
                    let stats = ws.run_with(kernel, &net, &srcs, bound, |node, dist| {
                        black_box((node, dist));
                        Control::Continue
                    });
                    black_box((stats.settled, stats.pushed))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(kernels, bench_fragment, bench_whole_network);
criterion_main!(kernels);
