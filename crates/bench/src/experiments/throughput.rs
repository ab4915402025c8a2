//! Throughput experiment — the introduction's second motivation: "it will
//! improve the throughput of query processing".
//!
//! A batch of SGKQs is pushed through the threaded cluster *pipelined*
//! (all requests dispatched before gathering), so worker machines drain
//! their queues concurrently. Throughput = queries / batch wall-clock, per
//! machine count — measured with the per-worker coverage cache warm, with
//! it disabled, and with cross-query batched dispatch
//! ([`ClusterConfig::batch_window`]) over the uncached cluster, so the
//! cache's and the batching layer's contributions are separate columns. A
//! batch-size sweep (windows 1/4/16/64) additionally records
//! frames-per-query-per-worker and bytes-per-query from the link counters.
//! Per-query latency percentiles (p50/p99) come from sequential warm runs.
//! Besides the [`Table`], the experiment returns a [`ThroughputSummary`]
//! that `repro` serializes to `results/BENCH_throughput.json`.

use disks_cluster::{Cluster, ClusterConfig, NetworkModel, RecoveryCounters};
use disks_core::{build_all_indexes, DFunction, IndexConfig, NpdIndex};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};

use crate::datasets::Dataset;
use crate::params::Params;
use crate::queries::QueryGenerator;
use crate::report::Table;

/// The batch window the headline `qps_batched` column is measured at.
const HEADLINE_WINDOW: usize = 16;

/// Windows swept for the frames/bytes-per-query columns. Window 1 is the
/// unbatched baseline (one `Evaluate` frame per query per worker).
const SWEEP_WINDOWS: [usize; 4] = [1, 4, 16, 64];

/// Window-trace entries kept in the JSON artifact per machine point.
const TRACE_LIMIT: usize = 64;

/// One batch-window measurement over the uncached cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSweepPoint {
    pub window: usize,
    /// Pipelined queries/sec at this window, cache disabled.
    pub qps: f64,
    /// Coordinator→worker frames per query per worker over the measured
    /// batch — `ceil(n/window)·machines / (n·machines) = ceil(n/window)/n`.
    pub frames_per_query_per_worker: f64,
    /// Total link bytes (both directions) per query over the measured batch.
    pub bytes_per_query: f64,
    /// Coordinator→worker (dispatch) bytes per query over the measured
    /// batch — the side slot-reference elision shrinks.
    pub c2w_bytes_per_query: f64,
    /// Per-query *service* latency percentiles over the measured batch
    /// (dispatch → last fragment response): what batching costs the queries
    /// held inside a window.
    pub p50_micros: u64,
    pub p99_micros: u64,
}

/// The adaptive streaming dispatch row at one machine count
/// (`DISKS_BATCH=adaptive`): AIMD-chosen windows with slot-reference
/// elision, measured over the same warmup + measured batch as the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePoint {
    /// Pipelined queries/sec, cache disabled (comparable to the sweep rows).
    pub qps: f64,
    /// Per-query service latency percentiles over the measured batch, on
    /// the same metric as the sweep rows'.
    pub p50_micros: u64,
    pub p99_micros: u64,
    pub frames_per_query_per_worker: f64,
    pub bytes_per_query: f64,
    /// Dispatch-side bytes per query: steady state ships believed-known
    /// slots as 5-byte references instead of full specs.
    pub c2w_bytes_per_query: f64,
    /// `SlotUnknown` NACKs over the measured batch (0 on a fault-free run).
    pub slot_nacks: u64,
    /// Controller window size after each closed window of the measured
    /// batch (trimmed to the first [`TRACE_LIMIT`] entries).
    pub window_trace: Vec<u32>,
}

/// One machine-count measurement of the throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    pub machines: usize,
    /// Pipelined queries/sec with a warm coverage cache (window 1).
    pub qps_cached: f64,
    /// Pipelined queries/sec with the cache disabled (window 1).
    pub qps_uncached: f64,
    /// Pipelined queries/sec with the cache disabled and batched dispatch
    /// at [`HEADLINE_WINDOW`].
    pub qps_batched: f64,
    /// Cache hit rate over the measured (warm) batch.
    pub cache_hit_rate: f64,
    /// Sequential warm per-query latency percentiles.
    pub p50_micros: u64,
    pub p99_micros: u64,
    /// Lifetime Theorem 6 unbalance factor U of the cached cluster
    /// (max/min observed compute across busy machines; 1.0 = balanced).
    pub unbalance: f64,
    /// Uncached batch-window sweep at this machine count.
    pub batch_sweep: Vec<BatchSweepPoint>,
    /// Adaptive streaming dispatch at this machine count.
    pub adaptive: AdaptivePoint,
    /// Health-plane recovery activity summed over every cluster built at
    /// this machine count: replica reroutes, speculative hedges (and the
    /// subset that won), quarantine transitions. All zero on the default
    /// (health-off) environment — nonzero under `DISKS_HEDGE` /
    /// `DISKS_QUARANTINE` lanes, where this column shows what the health
    /// plane did to the measured numbers.
    pub reroutes: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub quarantines: u64,
}

/// Machine-readable summary of the throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSummary {
    pub dataset: String,
    pub queries: usize,
    pub num_keywords: usize,
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputSummary {
    /// Hand-formatted JSON (the repo carries no serde; the schema is flat
    /// enough that formatting by hand keeps the artifact dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"num_keywords\": {},\n", self.num_keywords));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"machines\": {}, \"qps_cached\": {:.1}, \"qps_uncached\": {:.1}, \
                 \"qps_batched\": {:.1}, \"cache_hit_rate\": {:.4}, \"p50_micros\": {}, \
                 \"p99_micros\": {}, \"unbalance\": {:.3}, \"reroutes\": {}, \"hedges\": {}, \
                 \"hedge_wins\": {}, \"quarantines\": {}, \"batch_sweep\": [",
                p.machines,
                p.qps_cached,
                p.qps_uncached,
                p.qps_batched,
                p.cache_hit_rate,
                p.p50_micros,
                p.p99_micros,
                p.unbalance,
                p.reroutes,
                p.hedges,
                p.hedge_wins,
                p.quarantines
            ));
            for (j, b) in p.batch_sweep.iter().enumerate() {
                let bsep = if j + 1 == p.batch_sweep.len() { "" } else { ", " };
                s.push_str(&format!(
                    "{{\"window\": {}, \"qps\": {:.1}, \"frames_per_query_per_worker\": {:.4}, \
                     \"bytes_per_query\": {:.1}, \"c2w_bytes_per_query\": {:.1}, \
                     \"p50_micros\": {}, \"p99_micros\": {}}}{bsep}",
                    b.window,
                    b.qps,
                    b.frames_per_query_per_worker,
                    b.bytes_per_query,
                    b.c2w_bytes_per_query,
                    b.p50_micros,
                    b.p99_micros
                ));
            }
            let a = &p.adaptive;
            s.push_str(&format!(
                "], \"adaptive\": {{\"qps\": {:.1}, \"p50_micros\": {}, \"p99_micros\": {}, \
                 \"frames_per_query_per_worker\": {:.4}, \"bytes_per_query\": {:.1}, \
                 \"c2w_bytes_per_query\": {:.1}, \"slot_nacks\": {}, \"window_trace\": [{}]}}",
                a.qps,
                a.p50_micros,
                a.p99_micros,
                a.frames_per_query_per_worker,
                a.bytes_per_query,
                a.c2w_bytes_per_query,
                a.slot_nacks,
                a.window_trace.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
            ));
            s.push_str(&format!("}}{sep}\n"));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn build(
    ds: &Dataset,
    partitioning: &Partitioning,
    indexes: Vec<NpdIndex>,
    machines: usize,
    cache_bytes: usize,
    batch_window: usize,
    adaptive: bool,
) -> Cluster {
    Cluster::build(
        &ds.net,
        partitioning,
        indexes,
        ClusterConfig {
            machines: Some(machines),
            network: NetworkModel::instant(),
            coverage_cache_bytes: cache_bytes,
            batch_window,
            // Pinned explicitly so the sweep measures what its column says
            // regardless of DISKS_BATCH* lane variables, and the adaptive
            // row is reproducible across environments. The latency target
            // and time bound are deliberately non-binding: this is a
            // closed-loop benchmark where the full batch is backlogged at
            // dispatch, so every query's service latency includes queue
            // wait behind the whole batch — a binding target would read
            // that as degradation and collapse the window, measuring the
            // guard instead of the controller. The guard itself is pinned
            // by the unit tests on `WindowController`.
            batch_adaptive: adaptive,
            batch_window_ms: std::time::Duration::from_millis(100),
            batch_p99_target: std::time::Duration::from_secs(30),
            ..ClusterConfig::default()
        },
    )
}

/// Link and latency deltas of one measured pipelined batch.
struct Measured {
    qps: f64,
    /// Coordinator→worker frames.
    frames: u64,
    /// Link bytes, both directions.
    bytes: u64,
    /// Coordinator→worker bytes alone.
    c2w: u64,
    /// Per-query service latency percentiles (µs).
    p50_micros: u64,
    p99_micros: u64,
}

/// Measured pipelined batches per point: single batches are noisy on a
/// shared host, so each reported row is the best-throughput run of these.
const MEASURED_REPS: usize = 3;

/// One warmup then [`MEASURED_REPS`] measured pipelined runs, keeping the
/// best-throughput one — the sweep compares windows, not host scheduling.
fn measure(cluster: &Cluster, fs: &[DFunction]) -> Measured {
    let _ = cluster.run_batched(fs).expect("warmup batch");
    let mut best: Option<Measured> = None;
    for _ in 0..MEASURED_REPS {
        let m = measure_once(cluster, fs);
        if best.as_ref().is_none_or(|b| m.qps > b.qps) {
            best = Some(m);
        }
    }
    best.expect("at least one measured batch")
}

/// One measured pipelined run; link counters and service latencies are
/// delta'd so they cover exactly this batch.
fn measure_once(cluster: &Cluster, fs: &[DFunction]) -> Measured {
    let _ = cluster.take_service_latencies();
    let (fr_before, _) = cluster.link_message_totals();
    let (c2w_before, w2c_before) = cluster.link_totals();
    let (results, elapsed) = cluster.run_batched(fs).expect("measured batch");
    assert_eq!(results.len(), fs.len());
    let (fr_after, _) = cluster.link_message_totals();
    let (c2w_after, w2c_after) = cluster.link_totals();
    let lat: Vec<u64> =
        cluster.take_service_latencies().iter().map(|d| d.as_micros() as u64).collect();
    let (p50_micros, p99_micros) = percentiles(lat);
    let c2w = c2w_after - c2w_before;
    Measured {
        qps: fs.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        frames: fr_after - fr_before,
        bytes: c2w + (w2c_after - w2c_before),
        c2w,
        p50_micros,
        p99_micros,
    }
}

/// (p50, p99) of a latency sample in µs; (0, 0) on an empty sample.
fn percentiles(mut lat: Vec<u64>) -> (u64, u64) {
    if lat.is_empty() {
        return (0, 0);
    }
    lat.sort_unstable();
    (lat[lat.len() / 2], lat[(lat.len() * 99 / 100).min(lat.len() - 1)])
}

/// Pipelined throughput vs number of machines: cached vs cache-disabled vs
/// batched dispatch, plus the uncached batch-window sweep.
pub fn throughput(ds: &Dataset, params: &Params) -> (Table, ThroughputSummary) {
    let e = ds.net.avg_edge_weight();
    let max_r = params.max_r(e);
    let r = params.r(e).min(max_r);
    let batch = (params.queries_per_point * 10).max(20);
    let mut gen = QueryGenerator::new(&ds.net, 0x7890);
    let fs: Vec<DFunction> =
        gen.sgkq_batch(batch, params.num_keywords, r).iter().map(|q| q.to_dfunction()).collect();

    let mut t = Table::new(
        format!(
            "Throughput: pipelined SGKQ batch of {} queries (#kw={}), {}",
            fs.len(),
            params.num_keywords,
            ds.id.name()
        ),
        vec![
            "machines".into(),
            "batch wall".into(),
            "q/s cached".into(),
            "q/s uncached".into(),
            format!("q/s batched(w={HEADLINE_WINDOW})"),
            "q/s adaptive".into(),
            "frames/q/w".into(),
            "hit rate".into(),
            "p50".into(),
            "p99".into(),
            "U".into(),
            "rr/hg/win/quar".into(),
        ],
    );
    let mut summary = ThroughputSummary {
        dataset: ds.id.name().to_string(),
        queries: fs.len(),
        num_keywords: params.num_keywords,
        points: Vec::new(),
    };
    // Fragment count fixed at the default; machines vary (the §5.2
    // fewer-machines-than-fragments schedule kicks in below k).
    let k = params.num_fragments;
    let partitioning = MultilevelPartitioner::default().partition(&ds.net, k);
    let indexes = build_all_indexes(&ds.net, &partitioning, &IndexConfig::with_max_r(max_r));
    for &machines in &[1usize, 2, 4, 8, 16] {
        if machines > k {
            continue;
        }
        // Recovery activity summed over every cluster this point builds
        // (all zero unless a health-plane lane is active).
        let mut recov: Vec<RecoveryCounters> = Vec::new();
        // Cached baseline (window 1 — batching off, so the cache column is
        // the cache's contribution alone): one warmup batch fills every
        // worker's cache (the Zipf stream repeats (keyword, radius) slots),
        // then the measured batch runs warm and its counter delta yields
        // the hit rate.
        let cached = build(ds, &partitioning, indexes.clone(), machines, 64 << 20, 1, false);
        let _ = cached.run_batched(&fs).expect("warmup batch");
        let before = cached.cache_counters();
        let (results, elapsed) = cached.run_batched(&fs).expect("cached batch");
        assert_eq!(results.len(), fs.len());
        let delta = cached.cache_counters().since(&before);
        let qps_cached = fs.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        // Sequential warm runs for per-query latency percentiles.
        let (p50, p99) = percentiles(
            fs.iter()
                .map(|f| cached.run(f).expect("latency run").stats.wall_time.as_micros() as u64)
                .collect(),
        );
        let unbalance = cached.unbalance_factor();
        recov.push(cached.recovery_counters());
        cached.shutdown();

        // Uncached batch-window sweep — window 1 is the unbatched baseline,
        // every cluster gets the same warmup (queue effects) and a zero
        // cache budget so batching is the only variable.
        let mut batch_sweep = Vec::new();
        for &window in &SWEEP_WINDOWS {
            let cluster = build(ds, &partitioning, indexes.clone(), machines, 0, window, false);
            let m = measure(&cluster, &fs);
            recov.push(cluster.recovery_counters());
            cluster.shutdown();
            batch_sweep.push(BatchSweepPoint {
                window,
                qps: m.qps,
                frames_per_query_per_worker: m.frames as f64 / (fs.len() * machines) as f64,
                bytes_per_query: m.bytes as f64 / fs.len() as f64,
                c2w_bytes_per_query: m.c2w as f64 / fs.len() as f64,
                p50_micros: m.p50_micros,
                p99_micros: m.p99_micros,
            });
        }
        let qps_uncached = batch_sweep[0].qps;
        let headline = batch_sweep
            .iter()
            .find(|b| b.window == HEADLINE_WINDOW)
            .expect("headline window in sweep")
            .clone();

        // Adaptive streaming dispatch, same protocol as the sweep rows
        // (uncached, warmup + measured batch): the warmup teaches every
        // worker's slot directory, so the measured batch is the steady
        // state — windows chosen by the AIMD controller, believed-known
        // slots shipped as 5-byte references.
        let adaptive = {
            let cluster =
                build(ds, &partitioning, indexes.clone(), machines, 0, HEADLINE_WINDOW, true);
            // Warmup inlined (not `measure`): the AIMD controller grows
            // additively, so one batch is not enough to reach the
            // steady-state window — repeat until the window stops climbing
            // (growth stalls once the remaining backlog can no longer fill
            // a bigger window), bounded for safety. The first batch also
            // teaches every worker's slot directory; the trace snapshot
            // below then isolates the measured batch's controller
            // decisions.
            let _ = cluster.run_batched(&fs).expect("warmup batch");
            for _ in 0..8 {
                let before = cluster.window_trace().iter().max().copied();
                let _ = cluster.run_batched(&fs).expect("warmup batch");
                if cluster.window_trace().iter().max().copied() == before {
                    break;
                }
            }
            let _ = cluster.take_service_latencies();
            let trace_before = cluster.window_trace().len();
            let mut best: Option<Measured> = None;
            for _ in 0..MEASURED_REPS {
                let m = measure_once(&cluster, &fs);
                if best.as_ref().is_none_or(|b| m.qps > b.qps) {
                    best = Some(m);
                }
            }
            let m = best.expect("at least one measured batch");
            // Repeat batches produce the same steady-state window pattern,
            // so trimming the concatenated trace keeps it representative.
            let mut window_trace = cluster.window_trace().split_off(trace_before);
            window_trace.truncate(TRACE_LIMIT);
            let rc = cluster.recovery_counters();
            let slot_nacks = rc.slot_nacks;
            recov.push(rc);
            cluster.shutdown();
            AdaptivePoint {
                qps: m.qps,
                p50_micros: m.p50_micros,
                p99_micros: m.p99_micros,
                frames_per_query_per_worker: m.frames as f64 / (fs.len() * machines) as f64,
                bytes_per_query: m.bytes as f64 / fs.len() as f64,
                c2w_bytes_per_query: m.c2w as f64 / fs.len() as f64,
                slot_nacks,
                window_trace,
            }
        };

        let reroutes: u64 = recov.iter().map(|r| r.reroutes).sum();
        let hedges: u64 = recov.iter().map(|r| r.hedges).sum();
        let hedge_wins: u64 = recov.iter().map(|r| r.hedge_wins).sum();
        let quarantines: u64 = recov.iter().map(|r| r.quarantines).sum();
        t.push(vec![
            machines.to_string(),
            crate::report::fmt_duration(elapsed),
            format!("{qps_cached:.0}"),
            format!("{qps_uncached:.0}"),
            format!("{:.0}", headline.qps),
            format!("{:.0}", adaptive.qps),
            format!("{:.3}", headline.frames_per_query_per_worker),
            format!("{:.1}%", delta.hit_rate() * 100.0),
            format!("{p50}us"),
            format!("{p99}us"),
            format!("{unbalance:.2}"),
            format!("{reroutes}/{hedges}/{hedge_wins}/{quarantines}"),
        ]);
        summary.points.push(ThroughputPoint {
            machines,
            qps_cached,
            qps_uncached,
            qps_batched: headline.qps,
            cache_hit_rate: delta.hit_rate(),
            p50_micros: p50,
            p99_micros: p99,
            unbalance,
            batch_sweep,
            adaptive,
            reroutes,
            hedges,
            hedge_wins,
            quarantines,
        });
    }
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};

    #[test]
    fn throughput_sweep_reports_cache_latency_and_batching() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let params =
            Params { num_fragments: 4, queries_per_point: 2, num_keywords: 3, ..Params::default() };
        let (t, summary) = throughput(&ds, &params);
        assert!(t.rows.len() >= 3); // 1, 2, 4 machines
        assert_eq!(t.rows.len(), summary.points.len());
        for p in &summary.points {
            assert!(p.qps_cached > 0.0);
            assert!(p.qps_uncached > 0.0);
            assert!(p.qps_batched > 0.0);
            // The measured batch replays the warmup stream, so a warm cache
            // must serve well over half the lookups.
            assert!(p.cache_hit_rate > 0.5, "hit rate {} too low", p.cache_hit_rate);
            assert!(p.p50_micros <= p.p99_micros);
            // Frame economy is deterministic: ceil(n/window)/n frames per
            // query per worker — 1.0 unbatched, < 0.25 at window ≥ 8 for
            // the 20-query smoke batch.
            assert_eq!(p.batch_sweep.len(), SWEEP_WINDOWS.len());
            for b in &p.batch_sweep {
                let n = summary.queries;
                let expect = n.div_ceil(b.window) as f64 / n as f64;
                assert!(
                    (b.frames_per_query_per_worker - expect).abs() < 1e-9,
                    "window {}: frames/q/w {} != {}",
                    b.window,
                    b.frames_per_query_per_worker,
                    expect
                );
                assert!(b.bytes_per_query > 0.0);
            }
            let unbatched = &p.batch_sweep[0];
            assert!((unbatched.frames_per_query_per_worker - 1.0).abs() < 1e-9);
            let headline =
                p.batch_sweep.iter().find(|b| b.window == HEADLINE_WINDOW).expect("headline");
            assert!(
                headline.frames_per_query_per_worker < 0.25,
                "window {HEADLINE_WINDOW} frames/q/w {}",
                headline.frames_per_query_per_worker
            );
            // Slot sharing must shrink the dispatched bytes too.
            assert!(headline.bytes_per_query < unbatched.bytes_per_query);

            // The adaptive row: a live controller trace, no NACKs on a
            // fault-free run, and reference elision keeping the dispatch
            // link below the unbatched full-spec baseline.
            let a = &p.adaptive;
            assert!(a.qps > 0.0);
            assert!(a.p50_micros <= a.p99_micros);
            assert!(!a.window_trace.is_empty(), "controller must close windows");
            assert!(a.window_trace.iter().all(|&w| (1..=256).contains(&w)));
            assert_eq!(a.slot_nacks, 0, "fault-free run must not NACK");
            assert!(a.frames_per_query_per_worker < 1.0);
            assert!(
                a.c2w_bytes_per_query < unbatched.c2w_bytes_per_query,
                "elision must beat per-query full-spec dispatch: {} vs {}",
                a.c2w_bytes_per_query,
                unbatched.c2w_bytes_per_query
            );
        }
        let json = summary.to_json();
        assert!(json.contains("\"qps_cached\""));
        assert!(json.contains("\"qps_batched\""));
        assert!(json.contains("\"batch_sweep\""));
        assert!(json.contains("\"frames_per_query_per_worker\""));
        assert!(json.contains("\"c2w_bytes_per_query\""));
        assert!(json.contains("\"adaptive\""));
        assert!(json.contains("\"window_trace\""));
        assert!(json.contains("\"hedges\""));
        assert!(json.contains("\"quarantines\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
