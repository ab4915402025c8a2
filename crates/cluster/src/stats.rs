//! Per-query distributed statistics: communication and load balance
//! (Thm. 6). Theorem 5's cost model is measured on the engine's
//! `QueryCost`, where it is tested, not aggregated here.

use std::time::Duration;

use crate::message::WireCost;
use crate::transport::NetworkModel;

/// Cost incurred by one machine for one query (summed over the fragments it
/// hosts): what the slowest task, the unbalance factor and the modeled
/// response time are computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineCost {
    /// Fragments this machine evaluated for the query.
    pub fragments: Vec<u32>,
    /// Compute time (sum of task times on this machine).
    pub compute: Duration,
    /// Nodes settled by this machine's searches.
    pub settled: u64,
    /// Bytes this machine sent back to the coordinator.
    pub response_bytes: u64,
    /// Coverage slots served from the intra-batch shared result map
    /// (0 outside batched dispatch; see `WireCost::batch_shared`).
    pub batch_shared: u64,
}

impl MachineCost {
    pub(crate) fn absorb(&mut self, fragment: u32, cost: &WireCost, bytes: u64) {
        self.fragments.push(fragment);
        self.compute += Duration::from_micros(cost.elapsed_micros);
        self.settled += cost.settled;
        self.response_bytes += bytes;
        self.batch_shared += cost.batch_shared;
    }
}

/// Statistics for one distributed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// End-to-end wall-clock observed by the coordinator.
    pub wall_time: Duration,
    /// Per-machine costs (only machines that hosted ≥1 fragment).
    pub per_machine: Vec<MachineCost>,
    /// The slowest machine's compute time — the paper's response-time
    /// determinant ("the response time is determined by the slowest task").
    pub slowest_task: Duration,
    /// Theorem 6 unbalance factor `U = max cost / min cost` over busy
    /// machines (1.0 = perfect balance).
    pub unbalance_factor: f64,
    /// Bytes coordinator → workers (task assignment).
    pub coordinator_to_worker_bytes: u64,
    /// Bytes workers → coordinator (results).
    pub worker_to_coordinator_bytes: u64,
    /// Bytes exchanged between workers. Always 0 for the NPD-index runtime —
    /// no worker↔worker links exist (Theorem 3); the BSP baseline reports
    /// nonzero values here for contrast.
    pub inter_worker_bytes: u64,
    /// Communication rounds (coordinator dispatch + gather = 1).
    pub rounds: u32,
    /// Modeled response time over the paper's 100 Mb switch
    /// ([`NetworkModel::switch_100mbps`]): dispatch latency + slowest
    /// compute + slowest result transfer.
    pub modeled_response_time: Duration,
    /// Total result nodes.
    pub results: usize,
    /// Narrowed re-dispatches sent for fragments that failed transiently or
    /// never answered (0 on the fault-free fast path).
    pub retries: u32,
    /// Gather deadline expirations observed while serving this query.
    pub timeouts: u32,
    /// Dead workers detected and respawned while serving this query.
    pub respawned_workers: u32,
    /// Fragments that never answered within the retry budget; non-empty
    /// only when `ClusterConfig::allow_partial` accepted a degraded result.
    pub degraded_fragments: Vec<u32>,
    /// Responses discarded because their `(query_id, fragment)` was already
    /// recorded (duplicate frames; retried tasks are idempotent).
    pub duplicate_responses: u64,
    /// Response frames that failed to decode and were discarded.
    pub corrupt_frames: u64,
    /// Well-formed responses outside the active query window (stale answers
    /// from an earlier, already-resolved query), discarded.
    pub out_of_window_responses: u64,
    /// Worker coverage-cache hits across the tasks serving this query.
    pub cache_hits: u64,
    /// Worker coverage-cache misses across the tasks serving this query.
    pub cache_misses: u64,
    /// Worker coverage-cache evictions triggered while serving this query.
    pub cache_evictions: u64,
    /// Coverages refused at cache insert because their content was below
    /// the per-entry bookkeeping overhead (see `CacheCounters::bypassed`).
    pub cache_bypassed: u64,
}

/// Cumulative recovery events over a cluster's lifetime (all queries,
/// including pipelined batches) — the coordinator's fault ledger, exposed
/// via `Cluster::recovery_counters`. With [`OverloadCounters`]' initial
/// dispatches it closes the coordinator→worker frame ledger:
/// `c2w == dispatch_frames + retries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Narrowed re-dispatches sent for stalled or transiently failed tasks.
    pub retries: u64,
    /// Gather deadline expirations (silence longer than the configured
    /// deadline).
    pub timeouts: u64,
    /// Dead worker threads detected and respawned.
    pub respawned_workers: u64,
    /// Responses dropped because their `(query_id, fragment)` already
    /// answered.
    pub duplicate_responses: u64,
    /// Response frames that failed to decode.
    pub corrupt_frames: u64,
    /// Well-formed responses outside the active gather window (stale
    /// answers to abandoned queries).
    pub out_of_window_responses: u64,
}

/// The coordinator's initial-dispatch count, exposed via
/// `Cluster::overload_counters`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadCounters {
    /// Initial-dispatch request frames sent (excludes retries, which are
    /// ledgered in [`RecoveryCounters::retries`]). Together the two
    /// partition every coordinator→worker frame, so they reconcile exactly
    /// against `Cluster::link_message_totals`.
    pub dispatch_frames: u64,
    /// Queries the coordinator refused for load: always 0, since it admits
    /// every valid query. Kept only because the benchmark
    /// (`benchmark/src/sut.rs`) reads `overload_counters().shed`, until that
    /// pinned surface moves (ROADMAP 4(b)).
    pub shed: u64,
}

impl QueryStats {
    /// Compute the derived fields from per-machine costs.
    pub(crate) fn finalize(mut self, request_bytes: u64) -> QueryStats {
        let network = NetworkModel::switch_100mbps();
        let busy: Vec<&MachineCost> =
            self.per_machine.iter().filter(|m| !m.fragments.is_empty()).collect();
        self.slowest_task = busy.iter().map(|m| m.compute).max().unwrap_or(Duration::ZERO);
        let max = busy.iter().map(|m| m.compute.as_nanos()).max().unwrap_or(0);
        let min = busy.iter().map(|m| m.compute.as_nanos()).min().unwrap_or(0);
        self.unbalance_factor = if min == 0 { 1.0 } else { max as f64 / min as f64 };
        let slowest_response = busy
            .iter()
            .map(|m| network.transfer_time(m.response_bytes))
            .max()
            .unwrap_or(Duration::ZERO);
        self.modeled_response_time =
            network.transfer_time(request_bytes) + self.slowest_task + slowest_response;
        self
    }

    /// Aggregate settled nodes across machines.
    pub fn total_settled(&self) -> u64 {
        self.per_machine.iter().map(|m| m.settled).sum()
    }
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            wall_time: Duration::ZERO,
            per_machine: Vec::new(),
            slowest_task: Duration::ZERO,
            unbalance_factor: 1.0,
            coordinator_to_worker_bytes: 0,
            worker_to_coordinator_bytes: 0,
            inter_worker_bytes: 0,
            rounds: 1,
            modeled_response_time: Duration::ZERO,
            results: 0,
            retries: 0,
            timeouts: 0,
            respawned_workers: 0,
            degraded_fragments: Vec::new(),
            duplicate_responses: 0,
            corrupt_frames: 0,
            out_of_window_responses: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_bypassed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_computes_unbalance_and_slowest() {
        let mut stats = QueryStats::default();
        let mut m1 = MachineCost::default();
        m1.absorb(0, &WireCost { elapsed_micros: 100, ..Default::default() }, 50);
        let mut m2 = MachineCost::default();
        m2.absorb(1, &WireCost { elapsed_micros: 400, ..Default::default() }, 10);
        stats.per_machine = vec![m1, m2];
        let out = stats.finalize(32);
        assert_eq!(out.slowest_task, Duration::from_micros(400));
        assert!((out.unbalance_factor - 4.0).abs() < 1e-9);
        // Request out, slowest task, largest response back.
        let net = NetworkModel::switch_100mbps();
        let modeled = net.transfer_time(32) + Duration::from_micros(400) + net.transfer_time(50);
        assert_eq!(out.modeled_response_time, modeled);
    }

    #[test]
    fn idle_machines_excluded_from_unbalance() {
        let mut stats = QueryStats::default();
        let mut m1 = MachineCost::default();
        m1.absorb(0, &WireCost { elapsed_micros: 100, ..Default::default() }, 8);
        stats.per_machine = vec![m1, MachineCost::default()];
        let out = stats.finalize(0);
        assert!((out.unbalance_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modeled_time_includes_network() {
        let mut stats = QueryStats::default();
        let mut m1 = MachineCost::default();
        m1.absorb(0, &WireCost { elapsed_micros: 0, ..Default::default() }, 12_500_000);
        stats.per_machine = vec![m1];
        let out = stats.finalize(0);
        // 12.5 MB at 12.5 MB/s ≈ 1 s dominated by the response transfer.
        assert!(out.modeled_response_time >= Duration::from_secs(1));
    }
}
