//! Criterion bench for the top-k extension: ranked group-keyword queries
//! on every fragment of a bounded (list-keeping) deployment, per k. Each
//! query's merged ranking at each k is asserted against `centralized_topk`
//! once before it is timed, so a test-mode run (`cargo test --bench
//! topk_extension`) is a check too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disks_bench::datasets::{load, DatasetId, Scale};
use disks_bench::experiments::Deployment;
use disks_bench::queries::QueryGenerator;
use disks_core::{centralized_topk, merge_topk, IndexConfig, ScoreCombine, TopKQuery};

fn bench_topk(c: &mut Criterion) {
    let ds = load(DatasetId::Aus, Scale::Bench);
    let e = ds.net.avg_edge_weight();
    let max_r = 40 * e;
    let mut dep = Deployment::prepare(&ds.net, 8, &IndexConfig::with_max_r(max_r));
    let queries = QueryGenerator::new(&ds.net, 0x70B).sgkq_batch(3, 3, max_r);
    let mut group = c.benchmark_group("topk_extension");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [1usize, 10, 100] {
        let qs: Vec<TopKQuery> = queries
            .iter()
            .map(|q| TopKQuery::new(q.keywords.clone(), k, 10 * e, ScoreCombine::Max))
            .collect();
        for q in &qs {
            let lists = dep.topk(q).into_iter().map(|(ranked, _)| ranked).collect();
            let expect = centralized_topk(&ds.net, q).expect("centralized");
            assert_eq!(merge_topk(lists, k), expect, "k = {k}: {q:?}");
        }
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            b.iter(|| {
                for q in &qs {
                    std::hint::black_box(dep.topk(q));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
