//! Which machine serves which fragment: least-loaded replica routing with
//! the health filter, the one routed send loop, retry re-routing, and the
//! health plane (hedge deadline, suspicion refresh, probation probes).

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use disks_partition::FragmentId;

use super::gather::GatherReport;
use super::Cluster;
use crate::health::{HealthDelta, HedgeMode, HEDGE_P99_MULTIPLE};
use crate::message::{encode_frame, Request, WireCost};
use crate::transport::epoch_micros;

/// What one routed send put on the wire.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Sent {
    /// Dead workers respawned on the way.
    pub(super) respawns: u32,
    /// Size of the largest single frame (links are parallel, so this — not
    /// the sum — is what the modeled dispatch latency charges).
    pub(super) largest_frame: u64,
}

impl Sent {
    pub(super) fn absorb(&mut self, other: Sent) {
        self.respawns += other.respawns;
        self.largest_frame = self.largest_frame.max(other.largest_frame);
    }
}

/// Nearest-rank p99 of a sample ring (`None` when it is empty): the value a
/// full sort would hold at index `(len − 1) · 99 / 100`, found by selection.
fn p99(ring: &VecDeque<u64>) -> Option<u64> {
    let mut v: Vec<u64> = ring.iter().copied().collect();
    let rank = v.len().checked_sub(1)? * 99 / 100;
    Some(*v.select_nth_unstable(rank).1)
}

impl Cluster {
    /// Whether the health plane is live: with both knobs off the board is
    /// never fed, refreshed, or consulted, keeping the default dispatch
    /// path bit-identical to the pre-health cluster.
    pub(super) fn health_active(&self) -> bool {
        self.config.quarantine || self.config.hedge != HedgeMode::Off
    }

    /// Deadline offset after which an outstanding slot is hedged, or `None`
    /// when hedging is off or the placement has no replicas to hedge onto:
    /// [`HEDGE_P99_MULTIPLE`] × the p99 of the evaluation-latency ring,
    /// floored at `hedge_ms` — the floor also covers the cold start before
    /// any p99 exists. The signal is *evaluation* time (worker-reported
    /// compute), never end-to-end service time: a stalled wire inflates
    /// service latency, and a deadline fed its own recovered tails would
    /// run away past the stall it exists to beat.
    pub(super) fn hedge_after(&self) -> Option<Duration> {
        if self.config.hedge == HedgeMode::Off || !self.placement.is_replicated() {
            return None;
        }
        let p99 = p99(&self.eval_lat.borrow()).map(Duration::from_micros);
        let adaptive = p99.map_or(Duration::ZERO, |p| p * HEDGE_P99_MULTIPLE);
        Some(adaptive.max(Duration::from_millis(self.config.hedge_ms)))
    }

    /// One pass of the health plane, piggybacked on gather wakes: fold the
    /// pump-exported arrival stamps into the board, re-grade every machine
    /// (folding quarantine/reinstatement transitions into the lifetime
    /// counters), and probe quarantined machines whose jittered backoff
    /// expired. No-op unless hedging or quarantine is enabled.
    pub(super) fn health_tick(&self, respawned: &mut u32) {
        if !self.health_active() {
            return;
        }
        let now = epoch_micros();
        let delta = {
            let mut board = self.health.borrow_mut();
            {
                let workers = self.workers.borrow();
                for (m, w) in workers.iter().enumerate() {
                    if let Some(us) = w.link.last_arrival_micros() {
                        board.observe_arrival(m, us);
                    }
                }
            }
            board.refresh(now)
        };
        if delta != HealthDelta::default() {
            let mut c = self.recovery.get();
            c.quarantines += delta.quarantines;
            c.reinstatements += delta.reinstatements;
            self.recovery.set(c);
        }
        if !self.config.quarantine {
            return;
        }
        let due = self.health.borrow().due_probes(now);
        for m in due {
            // The probe ordinal doubles as the frame nonce and the jitter
            // seed, so a replayed run probes on an identical schedule.
            let mut c = self.recovery.get();
            let nonce = c.probe_frames;
            c.probe_frames += 1;
            self.recovery.set(c);
            let frame = encode_frame(&Request::Probe { nonce });
            self.send_to_worker(m, &frame, respawned);
            self.health.borrow_mut().note_probe_sent(m, epoch_micros(), nonce);
        }
    }

    /// Choose the serving replica of every fragment for the next dispatch
    /// of a replicated placement. Fragments in id order each go to their
    /// hosting replica with the least cumulative routed cost (ties toward
    /// the smaller machine id), which is then charged the fragment's
    /// heat-weighted share of `cost` — a hot fragment's share dominates its
    /// host's ledger, so consecutive dispatches rotate it across its
    /// replicas.
    fn route_fragments(&self, cost: u64) {
        let k = self.placement.num_fragments();
        let total_weight = self.route_weight.iter().sum::<u64>().max(1);
        let mut route = self.route.borrow_mut();
        let mut load = self.route_load.borrow_mut();
        for f in 0..k {
            let fid = FragmentId(f as u32);
            let least_loaded = |cands: &[usize]| {
                cands
                    .iter()
                    .copied()
                    .min_by_key(|&m| (load[m], m))
                    .expect("every fragment has at least its primary")
            };
            // Under quarantine the candidate set is softly filtered:
            // quarantined replicas are skipped while any healthy host
            // remains, and a fragment whose every host is quarantined
            // degrades to the least-suspect one instead of stalling.
            let m = if self.config.quarantine {
                let board = self.health.borrow();
                let (cands, degraded) =
                    self.placement.routable_replicas(fid, &|m| board.is_quarantined(m));
                if degraded {
                    board
                        .least_suspect(&cands, epoch_micros())
                        .expect("every fragment has at least its primary")
                } else {
                    least_loaded(&cands)
                }
            } else {
                least_loaded(self.placement.replicas_of(fid))
            };
            route[f] = m;
            let share = (cost as u128 * self.route_weight[f] as u128 / total_weight as u128) as u64;
            load[m] += share.max(1);
        }
    }

    /// Every fragment grouped by its currently routed machine, in
    /// first-seen machine order — the replicated dispatch shape: one
    /// request per machine listing exactly the fragments it serves this
    /// gather (a broadcast with empty fragment lists would make every
    /// replica answer and flood the coordinator with duplicates).
    fn routed_groups(&self) -> Vec<(usize, Vec<u32>)> {
        let route = self.route.borrow();
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut slot = vec![usize::MAX; self.placement.num_machines()];
        for (f, &m) in route.iter().enumerate() {
            if slot[m] == usize::MAX {
                slot[m] = groups.len();
                groups.push((m, Vec::new()));
            }
            groups[slot[m]].1.push(f as u32);
        }
        groups
    }

    /// The one initial-dispatch send loop. A single-owner placement
    /// broadcasts: every busy machine gets `encode([])` and evaluates
    /// all the fragments it hosts. A replicated placement is routed, one
    /// routing decision of `window_cost` per call: each machine gets only
    /// its routed fragments (exactly one replica answers each task), so
    /// consecutive windows of a hot fragment rotate across its replicas —
    /// and since every window of a group is sent before its gather, the
    /// replicas chew on a skewed stream *concurrently*. Counts the frames
    /// as initial dispatch and folds respawns into the lifetime counters.
    pub(super) fn send_routed(
        &self,
        window_cost: u64,
        encode: &mut dyn FnMut(Vec<u32>) -> Bytes,
    ) -> Sent {
        let targets: Vec<(usize, Vec<u32>)> = if self.placement.is_replicated() {
            self.route_fragments(window_cost);
            self.routed_groups()
        } else {
            self.placement.busy_machines().map(|m| (m, Vec::new())).collect()
        };
        let mut sent = Sent::default();
        for (m, frags) in targets {
            let frame = encode(frags);
            sent.largest_frame = sent.largest_frame.max(frame.len() as u64);
            self.send_to_worker(m, &frame, &mut sent.respawns);
            self.gauge.note_dispatch_frames(1);
        }
        self.note_respawns(sent.respawns);
        sent
    }

    /// Group retried fragments by target machine, moving each to a
    /// *different* replica than the one that just stalled or failed —
    /// preferring live machines, then least routed load, then the smaller
    /// id — so a retry completes against a surviving replica immediately
    /// while the dead machine's respawn proceeds on its own schedule. A
    /// fragment with no alternative host stays where it is (exactly the
    /// single-owner behavior).
    pub(super) fn reroute(
        &self,
        fragments: &[u32],
        report: &mut GatherReport,
    ) -> Vec<(usize, Vec<u32>)> {
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut slot = vec![usize::MAX; self.placement.num_machines()];
        for &f in fragments {
            let cur = self.route.borrow()[f as usize];
            // Rank (not filter) quarantined machines behind healthy ones:
            // a retry prefers a live un-quarantined replica but still
            // degrades to a quarantined one over a dead one.
            let alt = {
                let board = self.health.borrow();
                self.placement
                    .replicas_of(FragmentId(f))
                    .iter()
                    .copied()
                    .filter(|&m| m != cur)
                    .min_by_key(|&m| {
                        (
                            self.worker_is_dead(m),
                            self.config.quarantine && board.is_quarantined(m),
                            self.route_load.borrow()[m],
                            m,
                        )
                    })
            };
            let target = match alt {
                Some(m) => {
                    self.route.borrow_mut()[f as usize] = m;
                    report.reroutes += 1;
                    m
                }
                None => cur,
            };
            if slot[target] == usize::MAX {
                slot[target] = groups.len();
                groups.push((target, Vec::new()));
            }
            groups[slot[target]].1.push(f);
        }
        groups
    }

    /// The machine that served a response, from the wire-reported replica
    /// id — validated against the placement (an out-of-range or
    /// non-hosting claim falls back to the fragment's primary, so a
    /// corrupt frame cannot misattribute cost). Identical to the primary
    /// on single-owner placements.
    pub(super) fn serving_machine(&self, fragment: u32, cost: &WireCost) -> usize {
        let f = FragmentId(fragment);
        let m = cost.replica as usize;
        if m < self.placement.num_machines() && self.placement.replicas_of(f).contains(&m) {
            m
        } else {
            self.placement.machine_of(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::splitmix64;

    #[test]
    fn p99_selects_what_a_sort_would_read() {
        for len in [0usize, 1, 99, 100, 4096] {
            for seed in 0..4u64 {
                // Few distinct values, so ties straddle the rank.
                let ring: VecDeque<u64> = (0..len as u64)
                    .map(|i| splitmix64(seed << 32 | i) % if seed % 2 == 0 { 50 } else { 1 << 40 })
                    .collect();
                let mut sorted: Vec<u64> = ring.iter().copied().collect();
                sorted.sort_unstable();
                let expected = sorted.get(len.saturating_sub(1) * 99 / 100).copied();
                assert_eq!(p99(&ring), expected, "len={len} seed={seed}");
            }
        }
    }
}
