//! Replication sweep — hot-fragment replication vs goodput and the
//! Theorem 6 unbalance factor U on a clustered-Zipf skewed workload
//! (`results/BENCH_replication.json`).
//!
//! The paper pins one fragment per machine, so a spatially clustered
//! workload (Zipf-sampled keywords that all live in one fragment — the
//! city-center pattern the generator's keyword clustering produces)
//! bottlenecks on that fragment's host while the other machines idle:
//! exactly what the Theorem 6 unbalance factor measures. The sweep holds
//! the machine count fixed and adds `r ∈ {0, 1, 2}` replicas of every
//! fragment's engine ([`ClusterConfig::replicas`]); least-loaded routing
//! then rotates consecutive dispatch windows of the hot fragment across
//! its `r + 1` hosts, which chew on the stream concurrently.
//!
//! **Workload.** Keywords are scored by how concentrated their object
//! occurrences are in a single fragment; the fragment with the largest
//! pool of concentrated keywords becomes the *hot* fragment, and queries
//! Zipf-sample 1–2 keywords from its pool. A probe run on the unreplicated
//! cluster measures true per-fragment compute, which both seeds the
//! replica placement ([`ClusterConfig::placement_heat`]) and is reported
//! as `hot_share`.
//!
//! **Metrics.** Goodput = queries per second of the *modeled distributed
//! makespan*, per the crate's measurement methodology ("the response time
//! is determined by the slowest task" — see the [`experiments`]
//! preamble): the slowest machine's attributed work over the pass, in the
//! deterministic Theorem 5 counters (settled nodes + coverage nodes,
//! credited to the replica that served each response), converted to time
//! by the per-unit cost calibrated on the uncontended probe run. Work
//! counters rather than per-task timers because the worker threads
//! time-slice on however many cores the runner has — under contention a
//! timer charges a machine for time spent descheduled, which would
//! penalize exactly the concurrency replication creates. The threaded
//! wall-clock q/s is reported alongside but measures the host, not the
//! cluster: on a single-core runner spreading work across machines cannot
//! shorten the threaded wall even though it shortens every real
//! deployment's. Best of [`REPS`] passes; the coverage cache is disabled
//! so evaluation cost, not memoization, carries the skew. U = the
//! Theorem 6 unbalance factor over the best pass, max/min machine work
//! in the same deterministic counters (the timer-based
//! [`Cluster::unbalance_factor`] reads the same ratio cluster-lifetime,
//! which the overload experiment reports).
//!
//! [`experiments`]: crate::experiments
//!
//! [`ClusterConfig::replicas`]: disks_cluster::ClusterConfig::replicas
//! [`ClusterConfig::placement_heat`]: disks_cluster::ClusterConfig::placement_heat
//! [`Cluster::unbalance_factor`]: disks_cluster::Cluster::unbalance_factor

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, NetworkModel};
use disks_core::{build_all_indexes, DFunction, IndexConfig, NpdIndex, SgkQuery};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::zipf::Zipf;
use disks_roadnet::KeywordId;

use crate::datasets::Dataset;
use crate::params::Params;
use crate::report::Table;

/// Replica counts swept (extra engine copies per fragment).
const REPLICA_COUNTS: [usize; 3] = [0, 1, 2];

/// Query radius in average edge lengths: large enough that the hot
/// fragment's coverage Dijkstras dominate coordinator-side dispatch and
/// merge costs — replication can only relieve worker compute.
const R_FACTOR: u64 = 20;

/// Batched-dispatch window (identical across replica counts).
const BATCH_WINDOW: usize = 16;

/// Measured passes per replica count; the stream outcome is deterministic,
/// so repetition only de-noises the wall-clock — the fastest pass wins.
const REPS: usize = 3;

/// Minimum fraction of a keyword's occurrences inside its home fragment
/// for it to join the clustered pool (relaxed automatically when the
/// partitioning cuts every keyword's neighborhood).
const CONCENTRATION_FLOOR: f64 = 0.6;

/// One replica-count measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationPoint {
    /// Extra engine copies per fragment (0 = the paper's single owner).
    pub replicas: usize,
    /// Queries per second of the modeled distributed makespan — the
    /// slowest machine's attributed compute over the best pass.
    pub goodput: f64,
    /// Queries per second of threaded wall-clock on the same pass
    /// (host-bound: reflects the runner's cores, not the cluster).
    pub wall_qps: f64,
    /// Theorem 6 unbalance factor U over the best pass: max/min machine
    /// work in the same deterministic counters as `goodput` (the cluster's
    /// timer-based [`unbalance_factor`] reads the same ratio but inherits
    /// scheduler noise on a contended runner).
    ///
    /// [`unbalance_factor`]: disks_cluster::Cluster::unbalance_factor
    pub unbalance: f64,
    /// Narrowed retries over the point's lifetime (0 on a quiet machine).
    pub retries: u64,
    /// Retries moved to a different replica (0 without faults).
    pub reroutes: u64,
    /// Coordinator→worker frames over the measured pass.
    pub frames: u64,
}

/// Machine-readable summary of the replication sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationSummary {
    pub dataset: String,
    /// Queries per measured pass.
    pub queries: usize,
    /// Machines (held equal across every point).
    pub machines: usize,
    /// The fragment the clustered workload concentrates on.
    pub hot_fragment: u32,
    /// Fraction of probe-run compute spent on the hot fragment.
    pub hot_share: f64,
    pub points: Vec<ReplicationPoint>,
}

impl ReplicationSummary {
    /// Goodput of the `replicas == r` point, if measured.
    pub fn goodput_at(&self, r: usize) -> Option<f64> {
        self.points.iter().find(|p| p.replicas == r).map(|p| p.goodput)
    }

    /// Hand-formatted JSON (the repo carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"machines\": {},\n", self.machines));
        s.push_str(&format!("  \"hot_fragment\": {},\n", self.hot_fragment));
        s.push_str(&format!("  \"hot_share\": {:.4},\n", self.hot_share));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"replicas\": {}, \"goodput\": {:.1}, \"wall_qps\": {:.1}, \
                 \"unbalance\": {:.3}, \"retries\": {}, \"reroutes\": {}, \
                 \"frames\": {}}}{sep}\n",
                p.replicas, p.goodput, p.wall_qps, p.unbalance, p.retries, p.reroutes, p.frames
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The clustered-Zipf stream: keywords whose occurrences concentrate in
/// one fragment, ranked by frequency and Zipf-sampled — every query's
/// heavy coverage work lands on the same (hot) fragment.
fn clustered_stream(ds: &Dataset, partitioning: &Partitioning, n: usize) -> (Vec<SgkQuery>, u32) {
    let net = &ds.net;
    let k = partitioning.num_fragments();
    let freqs = net.keyword_frequencies();
    // Home fragment and concentration of every occurring keyword.
    let mut homed: Vec<(usize, f64, usize)> = Vec::new(); // (home, conc, kw)
    for (kw, &freq) in freqs.iter().enumerate() {
        if freq == 0 {
            continue;
        }
        let mut per_frag = vec![0usize; k];
        for &node in net.nodes_with_keyword(KeywordId(kw as u32)) {
            per_frag[partitioning.fragment_of(node).index()] += 1;
        }
        let (home, &count) = per_frag.iter().enumerate().max_by_key(|&(_, &c)| c).expect("k >= 1");
        homed.push((home, count as f64 / freq as f64, kw));
    }
    // The fragment with the largest concentrated pool becomes the hot one;
    // relax the floor if the partitioning cut every keyword's neighborhood.
    let mut floor = CONCENTRATION_FLOOR;
    let (hot, mut pool) = loop {
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); k];
        for &(home, conc, kw) in &homed {
            if conc >= floor {
                pools[home].push(kw);
            }
        }
        let (hot, pool) =
            pools.into_iter().enumerate().max_by_key(|(_, p)| p.len()).expect("k >= 1");
        if !pool.is_empty() || floor <= 0.0 {
            break (hot, pool);
        }
        floor -= 0.2;
    };
    assert!(!pool.is_empty(), "no keywords at all — degenerate dataset");
    pool.sort_unstable_by_key(|&kw| std::cmp::Reverse(freqs[kw]));
    pool.truncate(10);

    let zipf = Zipf::new(pool.len(), 1.0);
    let r = R_FACTOR * net.avg_edge_weight();
    let mut rng = StdRng::seed_from_u64(0x5CA1);
    let stream = (0..n)
        .map(|_| {
            let num_kw = (1 + rng.gen_range(0..2)).min(pool.len());
            let kws: Vec<KeywordId> =
                (0..num_kw).map(|_| KeywordId(pool[zipf.sample(&mut rng)] as u32)).collect();
            SgkQuery::new(kws, r)
        })
        .collect();
    (stream, hot as u32)
}

fn build(
    ds: &Dataset,
    partitioning: &Partitioning,
    indexes: Vec<NpdIndex>,
    machines: usize,
    replicas: usize,
    heat: Option<Vec<u64>>,
) -> Cluster {
    Cluster::build(
        &ds.net,
        partitioning,
        indexes,
        ClusterConfig {
            machines: Some(machines),
            network: NetworkModel::instant(),
            // A generous stall deadline: the hot machine legitimately goes
            // quiet while it chews, and spurious retries would double-count
            // work across replica counts.
            deadline: Duration::from_secs(5),
            coverage_cache_bytes: 0,
            batch_window: BATCH_WINDOW,
            replicas,
            placement_heat: heat,
            ..ClusterConfig::default()
        },
    )
}

/// Replication sweep: clustered-Zipf skew, machines held equal, replicas
/// 0/1/2, goodput and the lifetime unbalance factor U per point.
pub fn replication(ds: &Dataset, params: &Params) -> (Table, ReplicationSummary) {
    let k = params.num_fragments;
    let partitioning = MultilevelPartitioner::default().partition(&ds.net, k);
    let n = (params.queries_per_point * 60).max(60);
    let (stream, hot) = clustered_stream(ds, &partitioning, n);
    let fs: Vec<DFunction> = stream.iter().map(|q| q.to_dfunction()).collect();
    let indexes = build_all_indexes(
        &ds.net,
        &partitioning,
        &IndexConfig::with_max_r(R_FACTOR * ds.net.avg_edge_weight()),
    );

    // Probe: the unreplicated cluster (machine m hosts exactly fragment m)
    // measures true per-fragment compute — the heat that seeds replica
    // placement and the skew evidence (`hot_share`) the sweep reports.
    let probe = build(ds, &partitioning, indexes.clone(), k, 0, None);
    let (items, _) = probe.run_stream(&fs);
    let mut heat = vec![0u64; k];
    let mut probe_micros = 0u64;
    let mut probe_work = 0u64;
    for item in &items {
        let o = item.as_ref().expect("probe stream must answer everything");
        for (m, mc) in o.stats.per_machine.iter().enumerate() {
            let work = mc.settled + mc.coverage_nodes;
            heat[m] += work;
            probe_work += work;
            probe_micros += mc.compute.as_micros() as u64;
        }
    }
    probe.shutdown();
    let total_heat: u64 = heat.iter().sum();
    let hot_share = heat[hot as usize] as f64 / (total_heat as f64).max(1.0);
    for h in &mut heat {
        *h = (*h).max(1); // placement shares divide by copies; avoid zeros
    }
    // Probe-calibrated cost of one work unit (settled or coverage node):
    // the probe's hot machine chews nearly alone, so its timers are close
    // to contention-free.
    let micros_per_unit = probe_micros as f64 / (probe_work as f64).max(1.0);

    let mut t = Table::new(
        format!(
            "Replication: clustered-Zipf skew on fragment {hot} ({:.0}% of compute), \
             {n} queries, {k} machines, {}",
            100.0 * hot_share,
            ds.id.name()
        ),
        vec![
            "replicas".into(),
            "goodput".into(),
            "speedup".into(),
            "wall".into(),
            "U".into(),
            "retries".into(),
            "frames".into(),
        ],
    );
    let mut summary = ReplicationSummary {
        dataset: ds.id.name().to_string(),
        queries: n,
        machines: k,
        hot_fragment: hot,
        hot_share,
        points: Vec::new(),
    };

    for &replicas in &REPLICA_COUNTS {
        let cluster = build(ds, &partitioning, indexes.clone(), k, replicas, Some(heat.clone()));
        // Warmup pass (allocator, lazy engine state), then best-of-REPS.
        let (warm, _) = cluster.run_stream(&fs);
        assert!(warm.iter().all(|r| r.is_ok()), "replication warmup must answer everything");
        let mut goodput = 0.0f64;
        let mut wall_qps = 0.0f64;
        let mut frames = 0u64;
        let mut unbalance = 1.0f64;
        for _ in 0..REPS {
            let (f_before, _) = cluster.link_message_totals();
            let (items, elapsed) = cluster.run_stream(&fs);
            let (f_after, _) = cluster.link_message_totals();
            assert!(items.iter().all(|r| r.is_ok()), "r={replicas}: every query must answer");
            // Modeled distributed makespan: the slowest machine's work in
            // deterministic Theorem 5 counters, credited to the replica
            // that served each response, at the probe-calibrated unit cost.
            let mut busy = vec![0u64; k];
            for item in &items {
                let o = item.as_ref().expect("asserted ok above");
                for (m, mc) in o.stats.per_machine.iter().enumerate() {
                    busy[m] += mc.settled + mc.coverage_nodes;
                }
            }
            let makespan_work = busy.iter().copied().max().unwrap_or(1).max(1);
            let min_work = busy.iter().copied().filter(|&w| w > 0).min().unwrap_or(1);
            let makespan_us = (makespan_work as f64 * micros_per_unit).max(1.0);
            let pass = items.len() as f64 / (makespan_us * 1e-6);
            if pass > goodput {
                goodput = pass;
                wall_qps = items.len() as f64 / elapsed.as_secs_f64().max(1e-9);
                frames = f_after - f_before;
                unbalance = makespan_work as f64 / min_work as f64;
            }
        }
        let rc = cluster.recovery_counters();
        cluster.shutdown();

        let baseline = summary.goodput_at(0).unwrap_or(goodput);
        t.push(vec![
            replicas.to_string(),
            format!("{goodput:.0} q/s"),
            format!("{:.2}x", goodput / baseline.max(1e-9)),
            format!("{wall_qps:.0} q/s"),
            format!("{unbalance:.2}"),
            rc.retries.to_string(),
            frames.to_string(),
        ]);
        summary.points.push(ReplicationPoint {
            replicas,
            goodput,
            wall_qps,
            unbalance,
            retries: rc.retries,
            reroutes: rc.reroutes,
            frames,
        });
    }
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};

    #[test]
    fn replication_sweep_spreads_the_hot_fragment() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let params =
            Params { num_fragments: 4, queries_per_point: 2, num_keywords: 3, ..Params::default() };
        let (t, summary) = replication(&ds, &params);
        assert_eq!(t.rows.len(), REPLICA_COUNTS.len());
        assert_eq!(summary.points.len(), REPLICA_COUNTS.len());
        assert!((summary.hot_fragment as usize) < params.num_fragments);
        // The constructed workload is genuinely skewed: the hot fragment
        // carries clearly more than a uniform share of the probe work.
        // (Work units — settled + coverage nodes — are flatter across
        // fragments than timers: every fragment explores its subgraph even
        // when few objects match, so the margin is modest at k=4.)
        assert!(
            summary.hot_share * params.num_fragments as f64 > 1.1,
            "hot share {:.2} not skewed for k={}",
            summary.hot_share,
            params.num_fragments
        );
        for (p, &r) in summary.points.iter().zip(&REPLICA_COUNTS) {
            assert_eq!(p.replicas, r);
            assert!(p.goodput > 0.0);
            assert!(p.wall_qps > 0.0);
            assert!(p.unbalance >= 1.0);
            assert_eq!(p.reroutes, 0, "fault-free sweep must not reroute");
            assert!(p.frames > 0);
        }
        // Replication relieves the skew bottleneck: both the
        // modeled-makespan goodput and the work-based unbalance factor are
        // deterministic counters (immune to the timer contention of the
        // parallel unit suite), so their single-owner → two-replica
        // direction is exact. (The per-step strictness and the ≥1.5x
        // goodput headline are pinned on the bench-scale artifact.)
        let g0 = summary.points[0].goodput;
        let g2 = summary.points[2].goodput;
        assert!(g2 > g0, "goodput must improve with replication: {g0:.0} -> {g2:.0}");
        let u0 = summary.points[0].unbalance;
        let u2 = summary.points[2].unbalance;
        assert!(u2 < u0, "U must drop with replication: {u0:.2} -> {u2:.2}");

        let json = summary.to_json();
        assert!(json.contains("\"hot_share\""));
        assert!(json.contains("\"wall_qps\""));
        assert!(json.contains("\"unbalance\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
