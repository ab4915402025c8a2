//! Overload control: one pressure gauge shared by cost-model admission,
//! bounded-queue backpressure, and brownout degradation.
//!
//! The coordinator is the single choke point of the share-nothing design
//! (every query fans out from it; Theorem 3 forbids any other path), which
//! makes it the one place overload can be controlled *before* work is
//! scheduled. The Theorem 5 cost model supplies the currency: each admitted
//! plan carries an estimated cost ([`disks_core::CostParams`]), the gauge
//! tracks how much estimated cost is queued or in flight per worker, and
//! all three control mechanisms read the same dial:
//!
//! 1. **Admission** — a query whose cost cannot fit the per-worker budget
//!    ([`ClusterConfig::cost_limit`]) is shed with a typed
//!    [`disks_core::QueryError::Overloaded`] carrying a `retry_after` that
//!    grows with the measured pressure. Shedding happens before any frame
//!    is encoded, so a shed query costs zero wire bytes.
//! 2. **Backpressure** — batched dispatch flushes its window early (a
//!    *queue pause*) rather than queueing more cost than the budget allows,
//!    and the bounded request channels fail fast (`try_send`) so a
//!    saturated worker queue is observed, counted, and waited out instead
//!    of silently absorbing unbounded frames.
//! 3. **Brownout** — above [`ClusterConfig::brownout`] of the budget the
//!    cluster degrades before it sheds: results may go partial
//!    (`allow_partial` semantics) and cache-cold queries are turned away
//!    while cached-slot queries keep flowing.
//!
//! Everything is deterministic: the gauge is plain coordinator-side state
//! (no clocks, no randomness), so a given stream against a given config
//! always sheds, pauses, and browns out identically.
//!
//! [`ClusterConfig::cost_limit`]: crate::ClusterConfig::cost_limit
//! [`ClusterConfig::brownout`]: crate::ClusterConfig::brownout

use std::cell::Cell;
use std::time::Duration;

/// Cumulative overload-control decisions over a cluster's lifetime,
/// exposed via `Cluster::overload_counters`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadCounters {
    /// Queries that passed cost admission (includes browned-out queries).
    pub admitted: u64,
    /// Queries shed with [`disks_core::QueryError::Overloaded`] before any
    /// dispatch.
    pub shed: u64,
    /// Queries served degraded (effective `allow_partial`) because the
    /// gauge was above the brownout threshold at dispatch time.
    pub browned_out: u64,
    /// Times batched dispatch flushed a window early because queueing the
    /// next query would exceed the per-worker cost budget.
    pub queue_pauses: u64,
    /// Times a worker's bounded request queue reported full on `try_send`
    /// and the coordinator had to wait for capacity.
    pub queue_full_events: u64,
    /// Initial-dispatch request frames sent (excludes retries, which are
    /// ledgered in `RecoveryCounters::retries`, and pre-warm frames, in
    /// `RecoveryCounters::prewarm_frames`). Together the three partition
    /// every coordinator→worker frame, so they reconcile exactly against
    /// `Cluster::link_message_totals`.
    pub dispatch_frames: u64,
    /// Histogram of `retry_after` values handed to shed queries, in log2
    /// millisecond buckets: `[<1ms, <2ms, <4ms, …, ≥64ms]`.
    pub retry_after_hist: [u64; 8],
}

/// The retry hint handed to a shed query: monotone (non-decreasing) in the
/// measured pressure, so the deeper the backlog a client hit, the longer it
/// is told to stay away. Pressure is the queued-cost : budget ratio — `1.0`
/// means the budget is exactly full; values above `1.0` occur when the
/// shed query itself would have overflowed an already-full budget.
pub fn retry_after(pressure: f64) -> Duration {
    const BASE: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_secs(1);
    let p = pressure.clamp(0.0, 1e6);
    let hinted = BASE.mul_f64(1.0 + 4.0 * p);
    hinted.min(CAP).max(BASE)
}

/// The shared dial: per-worker in-flight estimated cost versus the
/// configured budget. Every query fans out to every busy machine, so one
/// scalar *is* the per-worker bound — each worker's queue holds exactly the
/// frames of the queries charged here.
///
/// Coordinator-side single-threaded state (`Cell`), mutated at admission,
/// dispatch, and gather completion.
pub struct PressureGauge {
    /// Estimated-cost budget per worker; `0` disables overload control.
    cost_limit: u64,
    /// Fraction of the budget at which brownout degradation begins;
    /// `f64::INFINITY` disables brownout.
    brownout: f64,
    /// Estimated cost admitted and not yet gathered.
    in_flight: Cell<u64>,
    counters: Cell<OverloadCounters>,
}

impl PressureGauge {
    pub fn new(cost_limit: u64, brownout: f64) -> Self {
        PressureGauge {
            cost_limit,
            brownout,
            in_flight: Cell::new(0),
            counters: Cell::new(OverloadCounters::default()),
        }
    }

    /// Whether cost-model admission is active (`cost_limit > 0`).
    pub fn enabled(&self) -> bool {
        self.cost_limit > 0
    }

    /// The configured per-worker cost budget (0 = unlimited).
    pub fn cost_limit(&self) -> u64 {
        self.cost_limit
    }

    /// Measured pressure with `extra` cost hypothetically queued on top of
    /// the current in-flight cost: `(in_flight + extra) / cost_limit`.
    pub fn pressure_with(&self, extra: u64) -> f64 {
        if self.cost_limit == 0 {
            return 0.0;
        }
        (self.in_flight.get().saturating_add(extra)) as f64 / self.cost_limit as f64
    }

    /// Current measured pressure (0.0 when overload control is disabled).
    pub fn pressure(&self) -> f64 {
        self.pressure_with(0)
    }

    /// Whether the brownout ladder is active at the given extra queued cost.
    pub fn brownout_at(&self, extra: u64) -> bool {
        self.enabled() && self.brownout.is_finite() && self.pressure_with(extra) >= self.brownout
    }

    /// Record a shed decision and compute its retry hint from the pressure
    /// the query observed (backlog it would have joined, plus itself).
    pub fn shed(&self, extra: u64, cost: u64) -> Duration {
        let hint = retry_after(self.pressure_with(extra.saturating_add(cost)));
        let mut c = self.counters.get();
        c.shed += 1;
        let ms = hint.as_millis() as u64;
        let bucket = (64 - u64::leading_zeros(ms.max(1)) - 1).min(7) as usize;
        c.retry_after_hist[bucket] += 1;
        self.counters.set(c);
        hint
    }

    /// Charge admitted cost to the in-flight gauge (dispatch time).
    pub fn charge(&self, cost: u64) {
        self.in_flight.set(self.in_flight.get().saturating_add(cost));
    }

    /// Release cost when its group's gather completes.
    pub fn release(&self, cost: u64) {
        self.in_flight.set(self.in_flight.get().saturating_sub(cost));
    }

    pub fn note_admitted(&self) {
        self.bump(|c| c.admitted += 1);
    }

    pub fn note_browned_out(&self) {
        self.bump(|c| c.browned_out += 1);
    }

    pub fn note_queue_pause(&self) {
        self.bump(|c| c.queue_pauses += 1);
    }

    pub fn note_queue_full(&self) {
        self.bump(|c| c.queue_full_events += 1);
    }

    pub fn note_dispatch_frames(&self, n: u64) {
        self.bump(|c| c.dispatch_frames += n);
    }

    pub fn counters(&self) -> OverloadCounters {
        self.counters.get()
    }

    fn bump(&self, f: impl FnOnce(&mut OverloadCounters)) {
        let mut c = self.counters.get();
        f(&mut c);
        self.counters.set(c);
    }
}

/// SplitMix64 — the standard 64-bit mixer; deterministic jitter source for
/// retry backoff (no RNG state to carry, no wall-clock seeding).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter for the `retry_index`-th
/// narrowed re-dispatch (1-based): `base · 2^(retry_index−1)` capped at
/// `16·base`, plus a seeded jitter in `[0, base/2]` so simultaneous
/// retries against one struggling worker de-synchronize — replayably.
pub(crate) fn backoff_delay(base: Duration, retry_index: u32, seed: u64) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exp = retry_index.saturating_sub(1).min(4);
    let scaled = base.saturating_mul(1u32 << exp);
    let jitter_us = splitmix64(seed) % (base.as_micros() as u64 / 2 + 1);
    scaled + Duration::from_micros(jitter_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_monotone_and_bounded() {
        let mut last = Duration::ZERO;
        for i in 0..=4000 {
            let p = i as f64 / 100.0;
            let d = retry_after(p);
            assert!(d >= last, "retry_after not monotone at pressure {p}");
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_secs(1));
            last = d;
        }
    }

    #[test]
    fn gauge_tracks_in_flight_and_pressure() {
        let g = PressureGauge::new(100, 0.75);
        assert!(g.enabled());
        assert_eq!(g.pressure(), 0.0);
        g.charge(50);
        assert!((g.pressure() - 0.5).abs() < 1e-9);
        assert!(!g.brownout_at(0));
        assert!(g.brownout_at(30), "50 + 30 = 80 ≥ 75% of 100");
        g.release(50);
        assert_eq!(g.pressure(), 0.0);
        // Release never underflows.
        g.release(1000);
        assert_eq!(g.pressure(), 0.0);
    }

    #[test]
    fn disabled_gauge_never_pressures_or_browns_out() {
        let g = PressureGauge::new(0, 0.5);
        g.charge(u64::MAX);
        assert_eq!(g.pressure(), 0.0);
        assert!(!g.brownout_at(u64::MAX));
        assert!(!g.enabled());
    }

    #[test]
    fn shed_counts_and_fills_the_histogram() {
        let g = PressureGauge::new(10, f64::INFINITY);
        // Deep backlog → long hint in a high bucket; empty backlog → short.
        let short = g.shed(0, 5);
        g.charge(10);
        let long = g.shed(2000, 5);
        assert!(long > short, "hint must grow with measured pressure");
        let c = g.counters();
        assert_eq!(c.shed, 2);
        assert_eq!(c.retry_after_hist.iter().sum::<u64>(), 2);
        assert!(c.retry_after_hist[7] >= 1, "deep-backlog shed lands in the top bucket");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let base = Duration::from_millis(2);
        let a = backoff_delay(base, 1, 42);
        let b = backoff_delay(base, 1, 42);
        assert_eq!(a, b, "same seed → same delay");
        // Exponential growth up to the cap, jitter bounded by base/2.
        for i in 1..=8u32 {
            let d = backoff_delay(base, i, 7);
            let exp = base * (1 << i.saturating_sub(1).min(4));
            assert!(d >= exp && d <= exp + base / 2 + Duration::from_micros(1), "retry {i}: {d:?}");
        }
        // Different seeds de-synchronize.
        let spread: std::collections::HashSet<Duration> =
            (0..32).map(|s| backoff_delay(base, 1, s)).collect();
        assert!(spread.len() > 8, "jitter must actually vary: {} distinct", spread.len());
        assert_eq!(backoff_delay(Duration::ZERO, 3, 9), Duration::ZERO, "disabled → immediate");
    }
}
