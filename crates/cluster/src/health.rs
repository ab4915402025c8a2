//! Graded, per-machine failure detection (DESIGN.md §6j).
//!
//! The paper's Theorem 6 load-balance argument assumes every machine answers
//! at its expected service rate; the cluster's original failure signal was
//! binary (`worker_is_dead` = link down or thread dead), so a merely *slow*
//! machine stalled every gather until the silence deadline even when warm
//! replicas could answer. This module replaces that bit with a phi-accrual
//! style suspicion score per machine, graded into three states:
//!
//! * **Healthy** — suspicion below `suspect_threshold`; routed normally.
//! * **Suspect** — suspicion in `[suspect, quarantine)`; still routable but
//!   deprioritized as a hedge target and by `least_suspect` ordering.
//! * **Quarantined** — suspicion crossed `quarantine_threshold`; softly
//!   removed from least-loaded replica selection and probed
//!   under jittered backoff until `probation_successes` consecutive probe
//!   acks reinstate it.
//!
//! The score is fed by *proof-of-life arrivals* (TCP keepalives exported by
//! the ingress pump, plus every decoded response frame on either transport)
//! and by per-frame service times. Suspicion is the silence since the last
//! arrival **or dispatch** (idle silence is not evidence of failure — no
//! traffic is expected from an idle worker), scaled by an EWMA of observed
//! inter-arrival times floored at the keepalive interval, plus a bounded
//! slowness penalty for machines whose service-time EWMA is far above the
//! cluster median. Silence strictly grows the score (monotone in time, see
//! the proptests); regular arrivals reset it toward zero.
//!
//! Everything here is parameterized on a `u64` microsecond clock rather than
//! `Instant` so the scoring function is pure and property-testable.

use std::time::Duration;

use crate::overload::{backoff_delay, splitmix64};

/// Hedge activation mode (`DISKS_HEDGE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HedgeMode {
    /// No speculative re-dispatch (bit-identical to the pre-health cluster).
    #[default]
    Off,
    /// Hedge past [`HEDGE_P99_MULTIPLE`] × the observed evaluation p99,
    /// floored at `ClusterConfig::hedge_ms` (the floor also covers the cold
    /// start before a p99 exists).
    Adaptive,
}

/// Adaptive hedge deadline = this multiple of the p99 of the cluster's
/// evaluation-latency ring.
pub const HEDGE_P99_MULTIPLE: u32 = 4;

/// Graded machine health (replaces the binary `worker_is_dead`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    #[default]
    Healthy,
    Suspect,
    Quarantined,
}

/// Tuning for the suspicion score and quarantine probation.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Expected proof-of-life cadence; floors the inter-arrival scale so a
    /// burst of back-to-back frames cannot make the detector hypersensitive.
    /// Wired to `HeartbeatConfig::interval` by the cluster.
    pub expected_interval: Duration,
    /// Suspicion at which a machine turns Suspect.
    pub suspect_threshold: f64,
    /// Suspicion at which a machine is quarantined (roughly "silent for this
    /// many expected intervals").
    pub quarantine_threshold: f64,
    /// Service-time EWMA beyond `slow_factor ×` the cluster median starts
    /// accruing the (bounded) slowness penalty.
    pub slow_factor: f64,
    /// Consecutive probe acks required to reinstate a quarantined machine.
    pub probation_successes: u32,
    /// Base delay between probes to a quarantined machine (jittered,
    /// exponential — same shape as retry backoff).
    pub probe_backoff: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            expected_interval: Duration::from_millis(100),
            suspect_threshold: 4.0,
            quarantine_threshold: 8.0,
            slow_factor: 4.0,
            probation_successes: 2,
            probe_backoff: Duration::from_millis(50),
        }
    }
}

/// EWMA smoothing factor for inter-arrival and service-time tracking.
const EWMA_ALPHA: f64 = 0.2;

#[derive(Debug, Clone, Default)]
struct Tracker {
    /// Epoch micros of the last proof of life (or dispatch — see
    /// `observe_dispatch`); `None` until the machine shows any activity.
    silence_from: Option<u64>,
    /// Epoch micros of the last *arrival* used for interval estimation.
    last_arrival: Option<u64>,
    /// EWMA of inter-arrival micros (0 = no samples yet).
    mean_interval: f64,
    /// EWMA of squared deviation of inter-arrival micros.
    var_interval: f64,
    /// EWMA of per-frame service micros (0 = no samples yet).
    service_ewma: f64,
    /// Whether outbound traffic (dispatch or probe) is awaiting an answer.
    /// Only the *first* unanswered send restarts the silence clock — later
    /// sends to a still-silent machine must not reset it, or a machine
    /// receiving steady dispatches while answering nothing would never
    /// accrue suspicion.
    expecting: bool,
    state: HealthState,
    /// Consecutive probe acks while quarantined.
    probe_streak: u32,
    /// Probes sent during the current quarantine (drives backoff).
    probe_attempts: u32,
    /// Epoch micros before which no probe should be sent.
    next_probe: u64,
}

/// Net state transitions produced by one [`HealthBoard::refresh`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthDelta {
    pub quarantines: u64,
    pub reinstatements: u64,
}

/// Per-machine [`Tracker`]s plus the cluster-wide refresh/probe logic.
#[derive(Debug, Clone)]
pub struct HealthBoard {
    trackers: Vec<Tracker>,
    cfg: HealthConfig,
}

impl HealthBoard {
    pub fn new(machines: usize, cfg: HealthConfig) -> Self {
        HealthBoard { trackers: vec![Tracker::default(); machines], cfg }
    }

    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Record a proof-of-life arrival (keepalive or decoded frame) at
    /// `now_us`. Replayed or out-of-order timestamps are ignored so polling
    /// the same pump-exported timestamp twice cannot corrupt the EWMA.
    pub fn observe_arrival(&mut self, m: usize, now_us: u64) {
        let t = &mut self.trackers[m];
        if let Some(last) = t.last_arrival {
            if now_us <= last {
                return;
            }
            let x = (now_us - last) as f64;
            if t.mean_interval == 0.0 {
                t.mean_interval = x;
            } else {
                let d = x - t.mean_interval;
                t.mean_interval += EWMA_ALPHA * d;
                t.var_interval = (1.0 - EWMA_ALPHA) * t.var_interval + EWMA_ALPHA * d * d;
            }
        }
        t.last_arrival = Some(now_us);
        t.silence_from = Some(t.silence_from.map_or(now_us, |s| s.max(now_us)));
        t.expecting = false;
    }

    /// Start the silence clock at dispatch time *without* feeding the
    /// interval EWMA: silence only counts while an answer (or keepalive) is
    /// actually expected, so an idle cluster never accrues suspicion. Only
    /// the first dispatch since the last arrival starts the clock —
    /// re-dispatching to a silent machine is not proof of its life.
    pub fn observe_dispatch(&mut self, m: usize, now_us: u64) {
        let t = &mut self.trackers[m];
        if !t.expecting {
            t.expecting = true;
            t.silence_from = Some(t.silence_from.map_or(now_us, |s| s.max(now_us)));
        }
    }

    /// Fold one per-frame service time into the machine's slowness EWMA.
    pub fn observe_service(&mut self, m: usize, micros: u64) {
        let t = &mut self.trackers[m];
        let x = micros as f64;
        if t.service_ewma == 0.0 {
            t.service_ewma = x;
        } else {
            t.service_ewma += EWMA_ALPHA * (x - t.service_ewma);
        }
    }

    /// Median service-time EWMA over machines with at least one sample.
    fn median_service(&self) -> Option<f64> {
        let mut v: Vec<f64> =
            self.trackers.iter().map(|t| t.service_ewma).filter(|&s| s > 0.0).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        Some(v[v.len() / 2])
    }

    /// Phi-accrual-style suspicion score for machine `m` at `now_us`.
    ///
    /// `silence / scale + slowness`, where `scale` is the inter-arrival EWMA
    /// plus two standard deviations, floored at the expected keepalive
    /// interval; `slowness` is bounded by `suspect_threshold` so a slow (but
    /// alive) machine can be deprioritized yet never quarantined on service
    /// times alone. Monotone non-decreasing in `now_us` by construction.
    pub fn suspicion(&self, m: usize, now_us: u64) -> f64 {
        let t = &self.trackers[m];
        let Some(from) = t.silence_from else { return 0.0 };
        let silence = now_us.saturating_sub(from) as f64;
        let floor = self.cfg.expected_interval.as_micros().max(1) as f64;
        let scale = (t.mean_interval + 2.0 * t.var_interval.sqrt()).max(floor);
        let mut phi = silence / scale;
        if t.service_ewma > 0.0 {
            if let Some(median) = self.median_service() {
                let allowed = self.cfg.slow_factor * median;
                if t.service_ewma > allowed && allowed > 0.0 {
                    phi += (t.service_ewma / allowed).min(self.cfg.suspect_threshold);
                }
            }
        }
        phi
    }

    pub fn state(&self, m: usize) -> HealthState {
        self.trackers[m].state
    }

    pub fn is_quarantined(&self, m: usize) -> bool {
        self.trackers[m].state == HealthState::Quarantined
    }

    /// The candidate with the lowest `(suspicion, id)` — the degraded-mode
    /// choice when a fragment has no un-quarantined host.
    pub fn least_suspect(&self, candidates: &[usize], now_us: u64) -> Option<usize> {
        candidates.iter().copied().min_by(|&a, &b| {
            self.suspicion(a, now_us).total_cmp(&self.suspicion(b, now_us)).then(a.cmp(&b))
        })
    }

    /// Re-grade every machine at `now_us`, returning the number of
    /// quarantine entries and probation reinstatements this pass produced.
    pub fn refresh(&mut self, now_us: u64) -> HealthDelta {
        let mut delta = HealthDelta::default();
        for m in 0..self.trackers.len() {
            let phi = self.suspicion(m, now_us);
            let cfg_probation = self.cfg.probation_successes;
            let (suspect, quarantine) = (self.cfg.suspect_threshold, self.cfg.quarantine_threshold);
            let t = &mut self.trackers[m];
            match t.state {
                HealthState::Quarantined => {
                    if t.probe_streak >= cfg_probation && phi < suspect {
                        t.state = HealthState::Healthy;
                        t.probe_streak = 0;
                        t.probe_attempts = 0;
                        delta.reinstatements += 1;
                    }
                }
                _ => {
                    if phi >= quarantine {
                        t.state = HealthState::Quarantined;
                        t.probe_streak = 0;
                        t.probe_attempts = 0;
                        t.next_probe = now_us;
                        delta.quarantines += 1;
                    } else if phi >= suspect {
                        t.state = HealthState::Suspect;
                    } else {
                        t.state = HealthState::Healthy;
                    }
                }
            }
        }
        delta
    }

    /// Quarantined machines whose next probe is due at `now_us`.
    pub fn due_probes(&self, now_us: u64) -> Vec<usize> {
        (0..self.trackers.len())
            .filter(|&m| {
                self.trackers[m].state == HealthState::Quarantined
                    && self.trackers[m].next_probe <= now_us
            })
            .collect()
    }

    /// Record a probe send and schedule the next one under jittered
    /// exponential backoff (`seed` keeps the jitter deterministic).
    pub fn note_probe_sent(&mut self, m: usize, now_us: u64, seed: u64) {
        let backoff = self.cfg.probe_backoff;
        let t = &mut self.trackers[m];
        let delay = backoff_delay(backoff, t.probe_attempts, splitmix64(seed ^ (m as u64)));
        t.probe_attempts = t.probe_attempts.saturating_add(1);
        t.next_probe = now_us + delay.as_micros() as u64;
        // The probe is outbound traffic expecting an answer: if nothing is
        // already awaited, the ack window is measured from the probe.
        if !t.expecting {
            t.expecting = true;
            t.silence_from = Some(t.silence_from.map_or(now_us, |s| s.max(now_us)));
        }
    }

    /// A probe ack arrived: proof of life plus one probation success.
    pub fn note_probe_ack(&mut self, m: usize, now_us: u64) {
        self.observe_arrival(m, now_us);
        let t = &mut self.trackers[m];
        if t.state == HealthState::Quarantined {
            t.probe_streak = t.probe_streak.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> HealthBoard {
        HealthBoard::new(3, HealthConfig::default())
    }

    const MS: u64 = 1_000;

    #[test]
    fn idle_machines_never_accrue_suspicion() {
        let b = board();
        assert_eq!(b.suspicion(0, 10_000 * MS), 0.0);
        assert_eq!(b.state(0), HealthState::Healthy);
    }

    #[test]
    fn silence_after_dispatch_grows_to_quarantine() {
        let mut b = board();
        b.observe_dispatch(0, 0);
        assert!(b.suspicion(0, 100 * MS) < b.cfg.quarantine_threshold);
        let d = b.refresh(2_000 * MS);
        assert_eq!(b.state(0), HealthState::Quarantined);
        assert_eq!(d, HealthDelta { quarantines: 1, reinstatements: 0 });
        // Machines 1 and 2 never saw traffic: still healthy.
        assert_eq!(b.state(1), HealthState::Healthy);
    }

    #[test]
    fn regular_arrivals_keep_machine_healthy() {
        let mut b = board();
        for i in 0..50 {
            b.observe_arrival(0, i * 100 * MS);
        }
        assert!(b.suspicion(0, 50 * 100 * MS) < b.cfg.suspect_threshold);
        b.refresh(50 * 100 * MS);
        assert_eq!(b.state(0), HealthState::Healthy);
    }

    #[test]
    fn probation_reinstates_after_consecutive_acks() {
        let mut b = board();
        b.observe_dispatch(0, 0);
        b.refresh(5_000 * MS);
        assert!(b.is_quarantined(0));
        assert_eq!(b.due_probes(5_000 * MS), vec![0]);
        b.note_probe_sent(0, 5_000 * MS, 42);
        assert!(b.due_probes(5_000 * MS).is_empty(), "backoff spaces probes");
        b.note_probe_ack(0, 5_010 * MS);
        b.refresh(5_010 * MS);
        assert!(b.is_quarantined(0), "one ack is not probation");
        b.note_probe_sent(0, 5_100 * MS, 42);
        b.note_probe_ack(0, 5_110 * MS);
        let d = b.refresh(5_110 * MS);
        assert_eq!(b.state(0), HealthState::Healthy);
        assert_eq!(d, HealthDelta { quarantines: 0, reinstatements: 1 });
    }

    #[test]
    fn slowness_suspects_but_never_quarantines_alone() {
        let mut b = board();
        // Keep all machines' silence clocks fresh, but machine 2's service
        // times 100× the others'.
        for m in 0..3 {
            b.observe_arrival(m, 0);
            b.observe_arrival(m, 100 * MS);
        }
        for _ in 0..32 {
            b.observe_service(0, 100);
            b.observe_service(1, 100);
            b.observe_service(2, 10_000);
        }
        b.refresh(100 * MS);
        assert_eq!(b.state(0), HealthState::Healthy);
        assert_eq!(b.state(2), HealthState::Suspect);
        assert!(b.suspicion(2, 100 * MS) < b.cfg.quarantine_threshold);
    }

    #[test]
    fn least_suspect_prefers_fresh_machines() {
        let mut b = board();
        b.observe_arrival(0, 0);
        b.observe_arrival(1, 900 * MS);
        assert_eq!(b.least_suspect(&[0, 1], 1_000 * MS), Some(1));
        assert_eq!(b.least_suspect(&[], 0), None);
    }

    #[test]
    fn replayed_pump_timestamp_is_idempotent() {
        let mut b = board();
        b.observe_arrival(0, 100 * MS);
        b.observe_arrival(0, 200 * MS);
        let before = b.suspicion(0, 300 * MS);
        b.observe_arrival(0, 200 * MS); // pump poll sees the same stamp again
        assert_eq!(b.suspicion(0, 300 * MS), before);
    }
}
