//! Straggler-hedging sweep — tail latency under fault-delayed worker
//! frames, speculation off vs adaptive (`results/BENCH_hedging.json`).
//!
//! **Fault model.** Every worker→coordinator link delays one frame per
//! [`FAULT_EVERY`] (~1% of worker frames), each by the same `delay`: at
//! least 10× the probe-run median per-query latency (the "typical
//! service time"), at least 45 ms, and at least 16× the probe's
//! *evaluation* p99 — the hedge deadline adapts to `4 ×` that same
//! evaluation p99, so the last floor pins the deadline at ≤ 1/4 of the
//! injected stall and speculation has room to win rather than racing
//! the stall itself. Both arms run the identical stream, placement, and
//! fault plan; only [`ClusterConfig::hedge`] differs.
//!
//! **Topology.** `k` machines, one fragment each plus one replica of
//! every fragment ([`ClusterConfig::replicas`] = 1) under least-loaded
//! routing — a hedge always has a live alternate host. Batching and the
//! coverage cache are off so each query's frames map 1:1 onto fragments
//! and service cost stays comparable across arms; quarantine is off so
//! the sweep isolates hedging from the rest of the health plane.
//!
//! **Metrics.** Per-query wall-clock over the sequential stream
//! (p50/p99/mean), every answer checked byte-for-byte against the
//! centralized oracle, and the extended frame ledger
//! `c2w == dispatch + retries + prewarm + hedges + probes` asserted per
//! arm — speculative frames must stay exactly accounted even under
//! chaos. The acceptance headline `repro` prints: adaptive p99 ≤ 0.5×
//! the hedging-off p99 on the same stream (pinned at bench scale; the
//! smoke-scale unit test leaves contention headroom).
//!
//! [`ClusterConfig::hedge`]: disks_cluster::ClusterConfig::hedge
//! [`ClusterConfig::replicas`]: disks_cluster::ClusterConfig::replicas

use std::time::{Duration, Instant};

use disks_cluster::{Cluster, ClusterConfig, FaultPlan, HedgeMode, LinkDirection, NetworkModel};
use disks_core::{build_all_indexes, CentralizedCoverage, IndexConfig, NpdIndex, SgkQuery};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};

use crate::datasets::Dataset;
use crate::params::Params;
use crate::queries::QueryGenerator;
use crate::report::Table;

/// Query radius in average edge lengths: enough evaluation work that a
/// frame's service time is measurable, small enough that the injected
/// delay — not compute — dominates the fault tail.
const BASE_R_FACTOR: u64 = 8;

/// One frame per this many is delayed on every worker→coordinator link
/// (~1% of worker frames).
const FAULT_EVERY: u64 = 100;

/// Floor of the hedge deadline (ms): small
/// against the injected delay, large against a healthy answer.
const HEDGE_FLOOR_MS: u64 = 5;

/// Injected delay never goes below this (µs), so the stall is a real
/// tail event even on datasets whose queries answer in microseconds.
/// Recovery (hedge deadline + detection tick + the replica's answer)
/// costs a roughly scale-independent ~15 ms, so the floor also sets the
/// best-case p99 contrast the sweep can show.
const MIN_DELAY_US: u64 = 45_000;

/// Unmeasured queries run per arm before the timed stream: the adaptive
/// deadline's evaluation window must reflect steady-state tails, not
/// spawn-time page faults — an early cold outlier would otherwise pin
/// the ring p99 (and so the deadline) at 4× a one-off for the whole
/// run. Every fault ordinal lands past the warm-up frames.
const WARMUP: usize = 50;

/// One hedging arm (off or adaptive) over the faulted stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgingPoint {
    /// `"off"` or `"adaptive"` ([`HedgeMode`]).
    pub mode: String,
    /// Per-query wall-clock percentiles over the sequential stream (µs).
    pub p50_micros: u64,
    pub p99_micros: u64,
    pub mean_micros: u64,
    /// Speculative hedge frames sent (0 with hedging off).
    pub hedges: u64,
    /// Hedges whose answer arrived first (the speculation paid off).
    pub hedge_wins: u64,
    /// Narrowed stall retries (0 here: the deadline sits far above the
    /// injected delay, so the off arm pays the stall instead of retrying).
    pub retries: u64,
    /// Gather deadline expirations (0 for the same reason).
    pub timeouts: u64,
    /// Coordinator→worker frames over the arm — the left side of the
    /// extended ledger the arm asserts.
    pub frames: u64,
}

/// Machine-readable summary of the hedging sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgingSummary {
    pub dataset: String,
    /// Queries per arm.
    pub queries: usize,
    /// Machines (each also hosting one replica of another fragment).
    pub machines: usize,
    /// Probe-run median per-query latency (µs) — the "typical service
    /// time" the injected delay is a multiple of.
    pub typical_micros: u64,
    /// Probe-run *evaluation* p99 (µs, slowest fragment's worker-reported
    /// compute — the signal the adaptive hedge deadline tracks); the
    /// delay also clears 16× this.
    pub probe_eval_p99_micros: u64,
    /// The injected per-frame delay (ms).
    pub delay_ms: u64,
    /// One frame per this many is delayed on each worker link.
    pub fault_every: u64,
    /// Delay faults scheduled per worker link.
    pub faults_per_link: u64,
    pub points: Vec<HedgingPoint>,
}

impl HedgingSummary {
    /// The arm named `mode`, if measured.
    pub fn point(&self, mode: &str) -> Option<&HedgingPoint> {
        self.points.iter().find(|p| p.mode == mode)
    }

    /// `p99(adaptive) / p99(off)` — the acceptance headline (≤ 0.5 at
    /// bench scale).
    pub fn p99_ratio(&self) -> Option<f64> {
        let off = self.point("off")?.p99_micros;
        let adaptive = self.point("adaptive")?.p99_micros;
        (off > 0).then(|| adaptive as f64 / off as f64)
    }

    /// Hand-formatted JSON (the repo carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"machines\": {},\n", self.machines));
        s.push_str(&format!("  \"typical_micros\": {},\n", self.typical_micros));
        s.push_str(&format!("  \"probe_eval_p99_micros\": {},\n", self.probe_eval_p99_micros));
        s.push_str(&format!("  \"delay_ms\": {},\n", self.delay_ms));
        s.push_str(&format!("  \"fault_every\": {},\n", self.fault_every));
        s.push_str(&format!("  \"faults_per_link\": {},\n", self.faults_per_link));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"p50_micros\": {}, \"p99_micros\": {}, \
                 \"mean_micros\": {}, \"hedges\": {}, \"hedge_wins\": {}, \"retries\": {}, \
                 \"timeouts\": {}, \"frames\": {}}}{sep}\n",
                p.mode,
                p.p50_micros,
                p.p99_micros,
                p.mean_micros,
                p.hedges,
                p.hedge_wins,
                p.retries,
                p.timeouts,
                p.frames
            ));
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
    hedge: HedgeMode,
    faults: Option<FaultPlan>,
) -> Cluster {
    Cluster::build(
        &ds.net,
        partitioning,
        indexes,
        ClusterConfig {
            machines: Some(machines),
            network: NetworkModel::instant(),
            // Far above the injected delay: the off arm must pay the
            // stall in full rather than be rescued by a narrowed retry,
            // so the contrast measures speculation alone.
            deadline: Duration::from_secs(5),
            coverage_cache_bytes: 0,
            batch_window: 1,
            replicas: 1,
            faults,
            hedge,
            hedge_ms: HEDGE_FLOOR_MS,
            quarantine: false,
            ..ClusterConfig::default()
        },
    )
}

/// (p50, p99) of a latency sample in µs; (0, 0) on an empty sample.
fn percentiles(mut lat: Vec<u64>) -> (u64, u64) {
    if lat.is_empty() {
        return (0, 0);
    }
    lat.sort_unstable();
    (lat[lat.len() / 2], lat[(lat.len() * 99 / 100).min(lat.len() - 1)])
}

/// Hedging sweep: ~1% of worker frames delayed ≥ 10× typical service
/// time, hedging off vs adaptive on the identical stream and fault plan.
pub fn hedging(ds: &Dataset, params: &Params) -> (Table, HedgingSummary) {
    let e = ds.net.avg_edge_weight();
    let r = BASE_R_FACTOR * e;
    let n = (params.queries_per_point * 50).max(200);
    let mut gen = QueryGenerator::new(&ds.net, 0x4ED6);
    let stream: Vec<SgkQuery> = gen.sgkq_batch(n, params.num_keywords, r);
    assert!(!stream.is_empty(), "query generator produced an empty stream");

    let k = params.num_fragments;
    let partitioning = MultilevelPartitioner::default().partition(&ds.net, k);
    let indexes = build_all_indexes(&ds.net, &partitioning, &IndexConfig::with_max_r(r));

    let mut oracle = CentralizedCoverage::new(&ds.net);
    let oracle_answers: Vec<_> =
        stream.iter().map(|q| oracle.sgkq(q).expect("oracle answers everything")).collect();

    // Probe: the fault-free cluster calibrates the typical (median)
    // per-query latency and the *evaluation* p99 (slowest fragment's
    // worker-reported compute) the delay is scaled from. The evaluation
    // p99 matters because the adaptive hedge deadline is 4× that same
    // signal — flooring the delay at 16× pins the deadline at ≤ 1/4 of
    // the stall, so speculation always has room to win.
    let probe = build(ds, &partitioning, indexes.clone(), k, HedgeMode::Off, None);
    let mut probe_lat: Vec<u64> = Vec::with_capacity(stream.len());
    let mut probe_eval: Vec<u64> = Vec::with_capacity(stream.len());
    for (i, q) in stream.iter().enumerate() {
        let t0 = Instant::now();
        let o = probe.run_sgkq(q).unwrap_or_else(|e| panic!("probe query {i}: {e}"));
        probe_lat.push(t0.elapsed().as_micros() as u64);
        probe_eval.push(o.stats.slowest_task.as_micros() as u64);
        assert_eq!(o.results, oracle_answers[i], "probe query {i} not exact");
    }
    probe.shutdown();
    let (typical_us, _) = percentiles(probe_lat);
    let (_, probe_eval_p99_us) = percentiles(probe_eval);
    let delay_us = (10 * typical_us).max(16 * probe_eval_p99_us).max(MIN_DELAY_US);
    let delay_ms = delay_us.div_ceil(1_000);

    // One delayed frame per FAULT_EVERY on every worker→coordinator
    // link, staggered per machine so the links do not stall in lockstep.
    // The stagger is replica-pair aware: with `replicas: 1` the bi-level
    // placement pairs machines (2i ↔ 2i+1) as each other's only replica,
    // so buddies get opposite halves of the fault period. Hedging
    // *compresses* wall time through a stall (serialized queries no
    // longer wait it out) and every hedge answer advances the buddy
    // link's frame ordinal, so a naive small stagger lets both halves of
    // a pair stall at once in the hedged arm only — and a fragment whose
    // sole alternate is also mid-stall has nowhere to hedge.
    let faults_per_link = (n as u64 / FAULT_EVERY).max(1);
    let mut plan = FaultPlan::new(0x4ED9);
    for m in 0..k {
        let stagger = (m as u64 / 2) * 7 + (m as u64 % 2) * (FAULT_EVERY / 2);
        for j in 1..=faults_per_link {
            plan = plan.delay_frame(
                m,
                LinkDirection::WorkerToCoordinator,
                j * FAULT_EVERY + stagger,
                delay_ms,
            );
        }
    }

    let mut t = Table::new(
        format!(
            "Hedging: 1/{FAULT_EVERY} worker frames delayed {delay_ms}ms \
             (typical {typical_us}us), {n} queries, {k} machines + 1 replica each, {}",
            ds.id.name()
        ),
        vec![
            "hedge".into(),
            "p50".into(),
            "p99".into(),
            "mean".into(),
            "hedges".into(),
            "wins".into(),
            "retries".into(),
            "frames".into(),
        ],
    );
    let mut summary = HedgingSummary {
        dataset: ds.id.name().to_string(),
        queries: n,
        machines: k,
        typical_micros: typical_us,
        probe_eval_p99_micros: probe_eval_p99_us,
        delay_ms,
        fault_every: FAULT_EVERY,
        faults_per_link,
        points: Vec::new(),
    };

    for (name, mode) in [("off", HedgeMode::Off), ("adaptive", HedgeMode::Adaptive)] {
        let cluster = build(ds, &partitioning, indexes.clone(), k, mode, Some(plan.clone()));
        // Warm-up (untimed, still exact): populates the adaptive
        // deadline's evaluation window with steady-state samples before
        // the first fault ordinal can fire.
        for (i, q) in stream.iter().take(WARMUP).enumerate() {
            let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("{name} warm-up {i}: {e}"));
            assert_eq!(o.results, oracle_answers[i], "{name} warm-up query {i} not exact");
        }
        let mut lat: Vec<u64> = Vec::with_capacity(stream.len());
        for (i, q) in stream.iter().enumerate() {
            let t0 = Instant::now();
            let o = cluster.run_sgkq(q).unwrap_or_else(|e| panic!("{name} arm query {i}: {e}"));
            lat.push(t0.elapsed().as_micros() as u64);
            assert_eq!(o.results, oracle_answers[i], "{name} arm query {i} not exact");
        }
        let rc = cluster.recovery_counters();
        let oc = cluster.overload_counters();
        let (c2w, _) = cluster.link_message_totals();
        // The extended ledger closes under chaos: every c2w frame is a
        // dispatch, a narrowed retry, a pre-warm, a hedge, or a probe.
        assert_eq!(
            c2w,
            oc.dispatch_frames + rc.retries + rc.prewarm_frames + rc.hedges + rc.probe_frames,
            "{name} arm: frame ledger must reconcile exactly: {oc:?} {rc:?}"
        );
        cluster.shutdown();

        let mean = lat.iter().sum::<u64>() / lat.len().max(1) as u64;
        let (p50, p99) = percentiles(lat);
        t.push(vec![
            name.into(),
            format!("{p50}us"),
            format!("{p99}us"),
            format!("{mean}us"),
            rc.hedges.to_string(),
            rc.hedge_wins.to_string(),
            rc.retries.to_string(),
            c2w.to_string(),
        ]);
        summary.points.push(HedgingPoint {
            mode: name.to_string(),
            p50_micros: p50,
            p99_micros: p99,
            mean_micros: mean,
            hedges: rc.hedges,
            hedge_wins: rc.hedge_wins,
            retries: rc.retries,
            timeouts: rc.timeouts,
            frames: c2w,
        });
    }
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};

    #[test]
    fn hedging_sweep_cuts_the_fault_tail() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let params =
            Params { num_fragments: 4, queries_per_point: 2, num_keywords: 3, ..Params::default() };
        let (t, summary) = hedging(&ds, &params);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(summary.points.len(), 2);
        assert!(summary.delay_ms * 1_000 >= MIN_DELAY_US);
        assert!(summary.faults_per_link >= 1);

        // The off arm pays every injected stall in full: no speculation,
        // no retries (the deadline sits far above the delay), and a p99
        // that swallows the delay whole.
        let off = summary.point("off").expect("off arm");
        assert_eq!(off.hedges, 0);
        assert_eq!(off.hedge_wins, 0);
        assert_eq!(off.retries, 0);
        assert!(
            off.p99_micros >= summary.delay_ms * 1_000,
            "off-arm p99 {}us must absorb the {}ms delay",
            off.p99_micros,
            summary.delay_ms
        );

        // The adaptive arm speculates past the stalls: hedges fire, at
        // least one wins, answers stay exact (asserted inside). How far
        // the tail drops is a wall-clock ratio: `repro --exp hedging`
        // prints it, with a WARNING above the 0.5× headline; a test amid
        // the parallel suite asserts counts only.
        let adaptive = summary.point("adaptive").expect("adaptive arm");
        assert!(adaptive.hedges >= 1, "adaptive arm must hedge: {adaptive:?}");
        assert!(adaptive.hedge_wins >= 1, "at least one hedge must win: {adaptive:?}");
        assert_eq!(adaptive.retries, 0);
        // Speculation costs frames; the ledger (asserted per arm) keeps
        // them accounted.
        assert!(adaptive.frames >= off.frames);

        let json = summary.to_json();
        assert!(json.contains("\"typical_micros\""));
        assert!(json.contains("\"delay_ms\""));
        assert!(json.contains("\"hedge_wins\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
