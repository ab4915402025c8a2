//! Workload-aware layout vs blind layout — the DESIGN.md §6i pipeline on
//! a clustered-Zipf stream with a cold one-shot tail
//! (`results/BENCH_layout.json`).
//!
//! The paper fixes the physical layout before the first query arrives:
//! the partitioner minimizes raw edge cut, the bi-level split sits at the
//! configured `maxR`, and the cache treats every coverage slot alike. This
//! experiment measures what the observed workload is worth. A probe pass
//! on the blind cluster charges the coordinator's slot-heat ledger, which
//! is exported as a [`HeatSnapshot`], round-tripped through its codec (the
//! artifact a real deployment would ship to the offline planner), and
//! projected into a [`LayoutProfile`]. The profile then drives all three
//! layout levers at once:
//!
//! * **query-weighted repartitioning** — [`refine_with_profile`] moves
//!   boundary nodes to shrink the *query-weighted* edge cut
//!   ([`PartitionMetrics::compute_weighted`]);
//! * **observed-radius bi-level split** — [`observed_split`] drops the
//!   primary/secondary boundary to the 0.9 radius quantile the stream
//!   actually used, instead of the static `maxR`;
//! * **heat-aware cache admission + heat-seeded placement** — workers run
//!   [`CoverageCache`] with a heat threshold (one-shot slots are first
//!   out, hot slots resist eviction) and [`Placement::replicated`] seeds
//!   replicas from the profile's per-fragment heat.
//!
//! **Workload.** Hot queries Zipf-sample a small pool of keywords
//! concentrated in one fragment (the replication sweep's city-center
//! pattern); three query radii mix so ~90% of the weight sits at or below
//! `R/2`, which is what makes the observed split actionable. Between hot
//! queries a tail of one-shot queries over rarely-used keywords pollutes
//! the cache — the classic scan-pollution pattern a plain LRU cannot
//! survive on a tight budget.
//!
//! **Metrics.** Goodput is the modeled distributed makespan q/s in the
//! replication sweep's methodology (deterministic work counters at the
//! probe-calibrated unit cost; best of [`REPS`] passes), with threaded
//! wall-clock alongside. The work unit here is *settled nodes* — the
//! Theorem 5 Dijkstra term, zero on a cache hit. (The replication sweep
//! adds coverage sizes; that is right when nothing is cached, but it
//! would bill a cache hit for the search it skipped — the merge of an
//! already-materialized coverage bitset is word-parallel and an order
//! cheaper than settling its nodes.) Weighted cut comes from
//! [`PartitionMetrics::compute_weighted`] under the probe profile's
//! [diffused node heat] at the refinement pass's hop count; the cache hit
//! rate is the lifetime worker-counter delta over the measured pass; U is
//! the Theorem 6 unbalance factor (max/min machine work) over the best
//! pass.
//!
//! [diffused node heat]: disks_partition::LayoutProfile::node_heat_diffused
//!
//! [`HeatSnapshot`]: disks_cluster::HeatSnapshot
//! [`LayoutProfile`]: disks_partition::LayoutProfile
//! [`refine_with_profile`]: disks_partition::MultilevelPartitioner::refine_with_profile
//! [`PartitionMetrics::compute_weighted`]: disks_partition::PartitionMetrics::compute_weighted
//! [`observed_split`]: disks_core::observed_split
//! [`CoverageCache`]: disks_cluster::CoverageCache
//! [`Placement::replicated`]: disks_cluster::Placement

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, HeatSnapshot, NetworkModel};
use disks_core::{build_all_indexes, observed_split, DFunction, IndexConfig, NpdIndex, SgkQuery};
use disks_partition::{
    LayoutProfile, MultilevelPartitioner, PartitionMetrics, Partitioner, Partitioning,
    HEAT_DIFFUSION_HOPS,
};
use disks_roadnet::zipf::Zipf;
use disks_roadnet::KeywordId;

use crate::datasets::Dataset;
use crate::params::Params;
use crate::report::Table;

/// Query radius ceiling in average edge lengths (the indexes' `maxR`).
const R_FACTOR: u64 = 20;

/// Hot-pool size: keywords concentrated in the hot fragment, Zipf-ranked.
/// Small enough that the hot slot set fits the cache budget — the contest
/// is pollution, not capacity.
const HOT_POOL: usize = 4;

/// Cold one-shot queries interleaved per hot query (scan pollution).
const COLD_PER_HOT: usize = 2;

/// Cache budget in entries (coverage bitset + book-keeping overhead per
/// entry): holds both hosted fragments' hot slot sets with a little
/// headroom, but far fewer than the cold pollution arriving between two
/// recurrences of the tail hot slots.
const BUDGET_ENTRIES: usize = 12;

/// Heat-admission threshold for the workload arm (the `DISKS_CACHE_HEAT`
/// workload default): a slot must be looked up this often before it may
/// displace residents.
const CACHE_HEAT: u32 = 3;

/// Batched-dispatch window (identical across arms).
const BATCH_WINDOW: usize = 8;

/// Measured passes per arm; the best pass wins (see the replication sweep
/// for why work counters + best-of de-noise a contended runner).
const REPS: usize = 3;

/// One layout arm's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutArm {
    /// `"blind"` (raw-cut partitioning, uniform placement, plain LRU) or
    /// `"workload"` (profile-refined partitioning, heat-seeded placement,
    /// heat-aware admission).
    pub layout: String,
    /// Modeled-makespan queries per second (probe-calibrated work units).
    pub goodput: f64,
    /// Threaded wall-clock q/s on the same pass (host-bound).
    pub wall_qps: f64,
    /// Query-weighted edge cut of the arm's partitioning under the probe
    /// profile's node heat.
    pub weighted_cut: u64,
    /// Raw edge cut of the arm's partitioning.
    pub cut_edges: usize,
    /// Worker coverage-cache hit rate over the measured pass.
    pub cache_hit_rate: f64,
    /// Cache evictions over the measured pass.
    pub evictions: u64,
    /// Theorem 6 unbalance factor U over the best pass (max/min machine
    /// work in deterministic counters).
    pub unbalance: f64,
}

/// Machine-readable summary of the layout contest.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutSummary {
    pub dataset: String,
    /// Queries per measured pass.
    pub queries: usize,
    /// Machines (held equal across arms).
    pub machines: usize,
    /// The fragment the hot pool concentrates on (blind partitioning).
    pub hot_fragment: u32,
    /// The indexes' static `maxR` (= the static bi-level split).
    pub static_max_r: u64,
    /// The profile's 0.9-quantile bi-level split ([`observed_split`]).
    ///
    /// [`observed_split`]: disks_core::observed_split
    pub observed_split_r: u64,
    pub arms: Vec<LayoutArm>,
}

impl LayoutSummary {
    /// The named arm, if measured.
    pub fn arm(&self, layout: &str) -> Option<&LayoutArm> {
        self.arms.iter().find(|a| a.layout == layout)
    }

    /// Workload-over-blind goodput ratio, if both arms ran.
    pub fn speedup(&self) -> Option<f64> {
        let blind = self.arm("blind")?.goodput;
        let wl = self.arm("workload")?.goodput;
        (blind > 0.0).then(|| wl / blind)
    }

    /// Hand-formatted JSON (the repo carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"machines\": {},\n", self.machines));
        s.push_str(&format!("  \"hot_fragment\": {},\n", self.hot_fragment));
        s.push_str(&format!("  \"static_max_r\": {},\n", self.static_max_r));
        s.push_str(&format!("  \"observed_split_r\": {},\n", self.observed_split_r));
        s.push_str("  \"arms\": [\n");
        for (i, a) in self.arms.iter().enumerate() {
            let sep = if i + 1 == self.arms.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"layout\": \"{}\", \"goodput\": {:.1}, \"wall_qps\": {:.1}, \
                 \"weighted_cut\": {}, \"cut_edges\": {}, \"cache_hit_rate\": {:.4}, \
                 \"evictions\": {}, \"unbalance\": {:.3}}}{sep}\n",
                a.layout,
                a.goodput,
                a.wall_qps,
                a.weighted_cut,
                a.cut_edges,
                a.cache_hit_rate,
                a.evictions,
                a.unbalance
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The layout contest's stream: Zipf-sampled hot-pool queries over one
/// fragment's concentrated keywords, interleaved with [`COLD_PER_HOT`]
/// one-shot queries. Hot queries run at exactly `R/2` (frequent keywords,
/// many coverage sources — the expensive, recurring, cache-worthy work).
/// One-shots draw mid-frequency keywords (objects in most fragments, so
/// their coverages clear the cache's tiny-entry bypass everywhere) with a
/// *fresh uniformly-random radius in `[R/4, R/2)`* each time — the
/// `(term, radius)` slot never recurs, so caching it is pure pollution:
/// exactly the scan traffic a plain LRU lets flush the hot set. The whole
/// stream sits at or below `R/2`, so the 0.9-quantile bi-level split
/// lands there — the static split covers radii this workload never uses.
/// Returns the stream, the hot fragment, and the hot pool.
fn layout_stream(
    ds: &Dataset,
    partitioning: &Partitioning,
    n: usize,
) -> (Vec<SgkQuery>, u32, Vec<u32>) {
    let net = &ds.net;
    let k = partitioning.num_fragments();
    let freqs = net.keyword_frequencies();

    // Home fragment of every occurring keyword (by occurrence count).
    let mut per_kw_home: Vec<(usize, usize, usize)> = Vec::new(); // (kw, home, freq)
    for (kw, &freq) in freqs.iter().enumerate() {
        if freq == 0 {
            continue;
        }
        let mut per_frag = vec![0usize; k];
        for &node in net.nodes_with_keyword(KeywordId(kw as u32)) {
            per_frag[partitioning.fragment_of(node).index()] += 1;
        }
        let home = per_frag.iter().enumerate().max_by_key(|&(_, &c)| c).expect("k >= 1").0;
        per_kw_home.push((kw, home, freq));
    }
    assert!(!per_kw_home.is_empty(), "no keywords at all — degenerate dataset");

    // Hot fragment = the one with the largest frequency mass of homed
    // keywords; its most frequent keywords form the pool.
    let mut mass = vec![0usize; k];
    for &(_, home, freq) in &per_kw_home {
        mass[home] += freq;
    }
    let hot = mass.iter().enumerate().max_by_key(|&(_, &m)| m).expect("k >= 1").0;
    let mut pool: Vec<usize> =
        per_kw_home.iter().filter(|&&(_, home, _)| home == hot).map(|&(kw, _, _)| kw).collect();
    pool.sort_unstable_by_key(|&kw| std::cmp::Reverse(freqs[kw]));
    pool.truncate(HOT_POOL);

    // One-shot band: the most frequent non-pool keywords — spread widely
    // enough that their coverages are admitted (not bypassed) on every
    // worker, which is what makes them pollute.
    let mut cold: Vec<usize> =
        per_kw_home.iter().map(|&(kw, _, _)| kw).filter(|kw| !pool.contains(kw)).collect();
    cold.sort_unstable_by_key(|&kw| (std::cmp::Reverse(freqs[kw]), kw));
    cold.truncate(40);
    if cold.is_empty() {
        cold = pool.clone(); // degenerate vocabulary; keep the stream total
    }

    let e = net.avg_edge_weight();
    let quarter = R_FACTOR * e / 4;
    let half = R_FACTOR * e / 2;

    // A flat-ish Zipf: every pool slot recurs on an interval that outruns
    // a plain LRU under the pollution, while still ranking the pool.
    let zipf = Zipf::new(pool.len(), 0.5);
    let mut rng = StdRng::seed_from_u64(0x1A70);
    let mut cold_at = 0usize;
    let stream = (0..n)
        .map(|i| {
            if i % (COLD_PER_HOT + 1) == 0 {
                // Hot: frequent keyword, fixed R/2 — one slot per pool
                // keyword, recurring often enough to earn heat.
                SgkQuery::new(vec![KeywordId(pool[zipf.sample(&mut rng)] as u32)], half)
            } else {
                let kw = cold[cold_at % cold.len()];
                cold_at += 1;
                // Fresh radius every time: the slot never recurs.
                SgkQuery::new(vec![KeywordId(kw as u32)], rng.gen_range(quarter..half))
            }
        })
        .collect();
    (stream, hot as u32, pool.iter().map(|&kw| kw as u32).collect())
}

struct Arm<'a> {
    layout: &'static str,
    partitioning: &'a Partitioning,
    indexes: Vec<NpdIndex>,
    cache_heat: u32,
    placement_heat: Option<Vec<u64>>,
}

fn run_arm(
    ds: &Dataset,
    arm: Arm<'_>,
    fs: &[DFunction],
    node_heat: &[u64],
    cache_budget: usize,
    micros_per_unit: f64,
) -> LayoutArm {
    let k = arm.partitioning.num_fragments();
    let m = PartitionMetrics::compute_weighted(&ds.net, arm.partitioning, node_heat);
    let cluster = Cluster::build(
        &ds.net,
        arm.partitioning,
        arm.indexes,
        ClusterConfig {
            machines: Some(k),
            network: NetworkModel::instant(),
            deadline: Duration::from_secs(5),
            coverage_cache_bytes: cache_budget,
            cache_heat: arm.cache_heat,
            batch_window: BATCH_WINDOW,
            replicas: 1,
            placement_heat: arm.placement_heat,
            ..ClusterConfig::default()
        },
    );
    // Warmup pass (allocator, lazy engine state, cache steady state), then
    // best-of-REPS.
    let (warm, _) = cluster.run_stream(fs);
    assert!(warm.iter().all(|r| r.is_ok()), "{}: warmup must answer everything", arm.layout);
    let mut best = LayoutArm {
        layout: arm.layout.to_string(),
        goodput: 0.0,
        wall_qps: 0.0,
        weighted_cut: m.weighted_cut,
        cut_edges: m.cut_edges,
        cache_hit_rate: 0.0,
        evictions: 0,
        unbalance: 1.0,
    };
    for _ in 0..REPS {
        let cc_before = cluster.cache_counters();
        let (items, elapsed) = cluster.run_stream(fs);
        let cc_after = cluster.cache_counters();
        assert!(items.iter().all(|r| r.is_ok()), "{}: every query must answer", arm.layout);
        let mut busy = vec![0u64; k];
        for item in &items {
            let o = item.as_ref().expect("asserted ok above");
            for (mach, mc) in o.stats.per_machine.iter().enumerate() {
                busy[mach] += mc.settled;
            }
        }
        let makespan_work = busy.iter().copied().max().unwrap_or(1).max(1);
        let min_work = busy.iter().copied().filter(|&w| w > 0).min().unwrap_or(1);
        let makespan_us = (makespan_work as f64 * micros_per_unit).max(1.0);
        let goodput = items.len() as f64 / (makespan_us * 1e-6);
        if goodput > best.goodput {
            let hits = cc_after.hits - cc_before.hits;
            let misses = cc_after.misses - cc_before.misses;
            best.goodput = goodput;
            best.wall_qps = items.len() as f64 / elapsed.as_secs_f64().max(1e-9);
            best.cache_hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
            best.evictions = cc_after.evictions - cc_before.evictions;
            best.unbalance = makespan_work as f64 / min_work as f64;
        }
    }
    cluster.shutdown();
    best
}

/// The layout contest: blind layout (raw-cut partitioning, uniform
/// placement, plain LRU) vs workload-aware layout (profile-refined
/// partitioning, heat-seeded placement, heat-aware admission), same
/// stream, same machine count, same cache budget.
pub fn layout(ds: &Dataset, params: &Params) -> (Table, LayoutSummary) {
    let k = params.num_fragments;
    let blind = MultilevelPartitioner::default().partition(&ds.net, k);
    let n = (params.queries_per_point * 60).max(120);
    let (stream, hot, _pool) = layout_stream(ds, &blind, n);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();
    let max_r = R_FACTOR * ds.net.avg_edge_weight();
    let blind_indexes = build_all_indexes(&ds.net, &blind, &IndexConfig::with_max_r(max_r));

    // Probe pass on the blind, uncached, unreplicated cluster: calibrates
    // the work-unit cost and charges the coordinator's slot-heat ledger.
    let probe = Cluster::build(
        &ds.net,
        &blind,
        blind_indexes.clone(),
        ClusterConfig {
            machines: Some(k),
            network: NetworkModel::instant(),
            deadline: Duration::from_secs(5),
            coverage_cache_bytes: 0,
            cache_heat: 0,
            batch_window: BATCH_WINDOW,
            ..ClusterConfig::default()
        },
    );
    let (items, _) = probe.run_stream(&fs);
    let mut probe_micros = 0u64;
    let mut probe_work = 0u64;
    for item in &items {
        let o = item.as_ref().expect("probe stream must answer everything");
        for mc in &o.stats.per_machine {
            probe_work += mc.settled;
            probe_micros += mc.compute.as_micros() as u64;
        }
    }
    // Export the slot-heat ledger through the snapshot codec — the same
    // bytes a deployment would ship to its offline layout planner.
    let snapshot_bytes = probe.heat_snapshot().encode_bytes();
    probe.shutdown();
    let snapshot = HeatSnapshot::decode_bytes(&snapshot_bytes).expect("own codec round-trips");
    let profile: LayoutProfile = snapshot.to_profile();
    let micros_per_unit = probe_micros as f64 / (probe_work as f64).max(1.0);
    let node_heat = profile.node_heat_diffused(&ds.net, HEAT_DIFFUSION_HOPS);

    // The workload arm's layout: boundary refinement under query weights,
    // indexes rebuilt for the refined fragments, placement seeded from the
    // profile's per-fragment heat.
    let refined = MultilevelPartitioner::default().refine_with_profile(&ds.net, &blind, &profile);
    let refined_indexes = build_all_indexes(&ds.net, &refined, &IndexConfig::with_max_r(max_r));
    let mut placement_heat = profile.fragment_heat(&ds.net, &refined);
    for h in &mut placement_heat {
        *h = (*h).max(1); // placement shares divide by copies; avoid zeros
    }

    // One cache budget for both arms: the hot slot set fits, the hot set
    // plus a round of cold pollution does not.
    let max_frag_nodes =
        blind.fragment_ids().map(|f| blind.nodes(f).len()).max().unwrap_or(1).max(1);
    let entry_bytes = disks_core::bitset::BitSet::new(max_frag_nodes).memory_bytes() + 64;
    let cache_budget = BUDGET_ENTRIES * entry_bytes;

    let observed_r = observed_split(&profile, max_r);

    let arms = vec![
        run_arm(
            ds,
            Arm {
                layout: "blind",
                partitioning: &blind,
                indexes: blind_indexes,
                cache_heat: 0,
                placement_heat: None,
            },
            &fs,
            &node_heat,
            cache_budget,
            micros_per_unit,
        ),
        run_arm(
            ds,
            Arm {
                layout: "workload",
                partitioning: &refined,
                indexes: refined_indexes,
                cache_heat: CACHE_HEAT,
                placement_heat: Some(placement_heat),
            },
            &fs,
            &node_heat,
            cache_budget,
            micros_per_unit,
        ),
    ];

    let mut t = Table::new(
        format!(
            "Layout: clustered-Zipf + one-shot tail on fragment {hot}, {n} queries, \
             {k} machines, split {max_r} -> {observed_r}, {}",
            ds.id.name()
        ),
        vec![
            "layout".into(),
            "goodput".into(),
            "speedup".into(),
            "wcut".into(),
            "cut".into(),
            "hit%".into(),
            "evict".into(),
            "U".into(),
        ],
    );
    let baseline = arms[0].goodput;
    for a in &arms {
        t.push(vec![
            a.layout.clone(),
            format!("{:.0} q/s", a.goodput),
            format!("{:.2}x", a.goodput / baseline.max(1e-9)),
            a.weighted_cut.to_string(),
            a.cut_edges.to_string(),
            format!("{:.0}%", 100.0 * a.cache_hit_rate),
            a.evictions.to_string(),
            format!("{:.2}", a.unbalance),
        ]);
    }
    let summary = LayoutSummary {
        dataset: ds.id.name().to_string(),
        queries: n,
        machines: k,
        hot_fragment: hot,
        static_max_r: max_r,
        observed_split_r: observed_r,
        arms,
    };
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};

    #[test]
    fn layout_contest_produces_both_arms() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let params =
            Params { num_fragments: 4, queries_per_point: 2, num_keywords: 3, ..Params::default() };
        let (t, summary) = layout(&ds, &params);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(summary.arms.len(), 2);
        let blind = summary.arm("blind").expect("blind arm");
        let wl = summary.arm("workload").expect("workload arm");
        for a in [blind, wl] {
            assert!(a.goodput > 0.0);
            assert!(a.wall_qps > 0.0);
            assert!((0.0..=1.0).contains(&a.cache_hit_rate));
            assert!(a.unbalance >= 1.0);
        }
        // The weighted refinement is monotone by construction, so this
        // direction is exact at any scale; strictness and the >= 1.25x
        // goodput headline are pinned on the bench-scale artifact.
        assert!(
            wl.weighted_cut <= blind.weighted_cut,
            "refinement must not worsen the weighted cut: {} -> {}",
            blind.weighted_cut,
            wl.weighted_cut
        );
        // The observed split obeys its clamp: within (0, static maxR].
        assert!(summary.observed_split_r >= 1);
        assert!(summary.observed_split_r <= summary.static_max_r);
        // The radii mix puts 90% of the weight at or below R/2, so the
        // 0.9-quantile split genuinely shrinks the primary.
        assert!(
            summary.observed_split_r <= summary.static_max_r / 2 + 1,
            "split {} did not shrink from {}",
            summary.observed_split_r,
            summary.static_max_r
        );

        let json = summary.to_json();
        assert!(json.contains("\"observed_split_r\""));
        assert!(json.contains("\"weighted_cut\""));
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
