//! The gather state machine: collect one response per `(slot, fragment)`,
//! dedup, retry stalled or failed fragments with narrowed re-dispatches to
//! their owners under backoff, and classify what arrives late. A gather
//! starts after every window of its group has been dispatched, so all of its
//! slots are outstanding from the first frame.

use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use disks_core::QueryError;
use disks_partition::FragmentId;

use super::Cluster;
use crate::cache::CacheCounters;
use crate::message::{decode_gather_items, encode_frame, BatchAnswer, Request};

/// How long the straggler drain waits for a frame the wire ledger says was
/// sent but that has not yet been consumed (crossing the TCP pumps takes
/// microseconds; a frame that misses this is lost and gets forgiven).
const STRAGGLER_GRACE: Duration = Duration::from_millis(25);

/// Base delay of the narrowed-retry backoff (and of a respawned remote
/// worker's accept poll).
pub(super) const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// SplitMix64 — the standard 64-bit mixer; deterministic jitter source for
/// retry backoff (no RNG state to carry, no wall-clock seeding).
pub(super) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter for the `retry_index`-th
/// narrowed re-dispatch (1-based): `RETRY_BACKOFF · 2^(retry_index−1)`
/// capped at `16 · RETRY_BACKOFF`, plus a seeded jitter in
/// `[0, RETRY_BACKOFF / 2]` so simultaneous retries against one struggling
/// worker de-synchronize — replayably.
pub(super) fn backoff_delay(retry_index: u32, seed: u64) -> Duration {
    let exp = retry_index.saturating_sub(1).min(4);
    let scaled = RETRY_BACKOFF * (1u32 << exp);
    let jitter_us = splitmix64(seed) % (RETRY_BACKOFF.as_micros() as u64 / 2 + 1);
    scaled + Duration::from_micros(jitter_us)
}

/// What a gather tells its sink about one query slot.
pub(super) enum GatherEvent {
    /// A first-seen in-window answer, `Results` or `Ranked`, from a
    /// fragment, and the bytes it is charged.
    Payload(u32, BatchAnswer, u64),
    /// The slot's last outstanding fragment has answered or been given up
    /// on under `allow_partial`; every payload it will ever get has been
    /// delivered. Sent once per slot of a gather that returns `Ok`.
    Complete,
}

/// A gather's sink: events keyed by query slot.
pub(super) type Sink<'a> = dyn FnMut(usize, GatherEvent) + 'a;

/// Bookkeeping for one gather: recovery events observed plus the
/// `(slot, fragment)` pairs given up on under `allow_partial`.
#[derive(Debug, Default)]
pub(super) struct GatherReport {
    pub(super) retries: u32,
    pub(super) timeouts: u32,
    pub(super) respawned_workers: u32,
    pub(super) duplicate_responses: u64,
    pub(super) corrupt_frames: u64,
    pub(super) out_of_window_responses: u64,
    pub(super) degraded: Vec<(usize, u32)>,
    /// Worker coverage-cache activity summed over this gather's responses.
    pub(super) cache: CacheCounters,
    /// Narrowed re-dispatches per query slot — keeps retry attribution
    /// per-query exact even when the original dispatch was batched.
    pub(super) retries_by_slot: Vec<u32>,
}

/// Bookkeeping of one [`Cluster::gather`]: which `(slot, fragment)` pairs
/// answered and per-pair retry budgets. Every targeted pair is outstanding
/// from construction — a group's windows are all dispatched before its
/// gather starts — and every pruned pair is complete.
struct GatherState {
    n: usize,
    k: usize,
    allow_partial: bool,
    responded: Vec<Vec<bool>>,
    attempts: Vec<Vec<u32>>,
    report: GatherReport,
    /// Outstanding responses over all slots.
    missing: usize,
    missing_by_slot: Vec<usize>,
    /// Narrowed retries waiting out their backoff: (due, slot, fragments).
    pending_retries: Vec<(Instant, usize, Vec<u32>)>,
    stall_deadline: Instant,
}

impl GatherState {
    /// Slot `i` outstanding on the fragments `targeted[i]` names, and
    /// answered on the rest: a pruned pair was sent nothing and expects
    /// nothing.
    fn new(cluster: &Cluster, targeted: &[Vec<bool>]) -> GatherState {
        let (n, k) = (targeted.len(), cluster.placement.num_fragments());
        let responded: Vec<Vec<bool>> =
            targeted.iter().map(|t| t.iter().map(|&target| !target).collect()).collect();
        let missing_by_slot: Vec<usize> =
            targeted.iter().map(|t| t.iter().filter(|&&target| target).count()).collect();
        GatherState {
            n,
            k,
            allow_partial: cluster.config.allow_partial,
            responded,
            attempts: vec![vec![1u32; k]; n],
            report: GatherReport { retries_by_slot: vec![0; n], ..GatherReport::default() },
            missing: missing_by_slot.iter().sum(),
            missing_by_slot,
            pending_retries: Vec::new(),
            // The deadline measures *silence*, not total time: any
            // in-window frame resets it, so a long streak of slow-but-live
            // responses is never mistaken for a stall.
            stall_deadline: Instant::now() + cluster.config.deadline,
        }
    }

    /// The slot of a gather item ([`decode_gather_items`]) for query `qid`
    /// on `fragment`, or `None` when it lies outside this gather's window of
    /// queries `base+1 ..= base+n`.
    fn slot_of(&self, base: u64, qid: u64, fragment: u32) -> Option<usize> {
        let in_window = qid > base && qid <= base + self.n as u64 && (fragment as usize) < self.k;
        in_window.then(|| (qid - base - 1) as usize)
    }

    /// Record one answered `(slot, fragment)` pair — with its payload, or
    /// `None` for a fragment given up on — and hand the sink what follows:
    /// the payload, then [`GatherEvent::Complete`] if it was the slot's last
    /// outstanding pair.
    fn note_answered(&mut self, slot: usize, payload: Option<GatherEvent>, sink: &mut Sink) {
        self.missing -= 1;
        self.missing_by_slot[slot] -= 1;
        if let Some(payload) = payload {
            sink(slot, payload);
        }
        if self.missing_by_slot[slot] == 0 {
            sink(slot, GatherEvent::Complete);
        }
    }

    /// Queue a narrowed retry of query `base + 1 + slot` behind its
    /// exponential backoff. The jitter seed mixes query id, slot, fragment,
    /// and retry ordinal, so a replayed run backs off identically while
    /// concurrent retries spread out.
    fn schedule_retry(&mut self, base: u64, slot: usize, frags: Vec<u32>, retry_index: u32) {
        let seed = base
            .wrapping_add((slot as u64) << 20)
            .wrapping_add((retry_index as u64) << 40)
            .wrapping_add(frags.first().copied().unwrap_or(0) as u64);
        let delay = backoff_delay(retry_index, splitmix64(seed));
        self.pending_retries.push((Instant::now() + delay, slot, frags));
    }
}

impl Cluster {
    /// Re-dispatch narrowed requests for the given fragments of one query
    /// slot, one request per owning machine (respawned first if it died).
    fn redispatch(
        &self,
        slot: usize,
        fragments: &[u32],
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        report: &mut GatherReport,
    ) {
        for (m, frags) in self.placement.machines_hosting(fragments) {
            let frame = encode_frame(&make_request(slot, frags));
            self.send_to_worker(m, &frame, &mut report.respawned_workers);
            report.retries += 1;
            report.retries_by_slot[slot] += 1;
        }
    }

    /// Flush scheduled retries whose backoff has elapsed, skipping
    /// fragments that answered while the retry waited.
    fn gather_flush_retries(
        &self,
        gs: &mut GatherState,
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
    ) {
        if gs.pending_retries.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < gs.pending_retries.len() {
            if gs.pending_retries[i].0 <= now {
                let (_, slot, frags) = gs.pending_retries.swap_remove(i);
                let frags: Vec<u32> =
                    frags.into_iter().filter(|&f| !gs.responded[slot][f as usize]).collect();
                if !frags.is_empty() {
                    self.redispatch(slot, &frags, make_request, &mut gs.report);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Pull one already-queued response frame, charging the consumption
    /// ledger the straggler drain reconciles against `from_workers`.
    fn try_recv_response(&self) -> Result<Bytes, TryRecvError> {
        let frame = self.responses.try_recv()?;
        self.consumed_responses.set(self.consumed_responses.get() + 1);
        Ok(frame)
    }

    /// Blocking variant of [`Cluster::try_recv_response`].
    fn recv_response_timeout(&self, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
        let frame = self.responses.recv_timeout(timeout)?;
        self.consumed_responses.set(self.consumed_responses.get() + 1);
        Ok(frame)
    }

    /// Process one response frame against the gather state: window and
    /// duplicate filtering, retry scheduling for retryable failures, and
    /// delivery to the sink. Returns only fatal (non-retryable,
    /// non-degradable) errors.
    fn gather_process_frame(
        &self,
        base: u64,
        gs: &mut GatherState,
        frame: Bytes,
        sink: &mut Sink,
    ) -> Result<(), QueryError> {
        let Ok(items) = decode_gather_items(frame) else {
            gs.report.corrupt_frames += 1;
            return Ok(());
        };
        // A batch frame arrives expanded into one positional answer per
        // member query; each flows through the window/dedup/retry machinery
        // on its own, charged the bytes its standalone frame would have cost
        // (`decode_gather_items`), so per-query byte attribution is the same
        // whether a query rode a window or ran alone.
        for (qid, fragment, answer, bytes) in items {
            let Some(slot) = gs.slot_of(base, qid, fragment) else {
                gs.report.out_of_window_responses += 1;
                continue;
            };
            let f = fragment as usize;
            if gs.responded[slot][f] {
                gs.report.duplicate_responses += 1;
                continue;
            }
            gs.stall_deadline = Instant::now() + self.config.deadline;
            match answer {
                BatchAnswer::Failed(error) => {
                    if !error.is_retryable() {
                        return Err(error);
                    }
                    if gs.attempts[slot][f] < self.config.max_attempts {
                        gs.attempts[slot][f] += 1;
                        let retry_index = gs.attempts[slot][f] - 1;
                        gs.schedule_retry(base, slot, vec![fragment], retry_index);
                    } else if gs.allow_partial {
                        gs.responded[slot][f] = true;
                        gs.report.degraded.push((slot, fragment));
                        gs.note_answered(slot, None, sink);
                    } else {
                        return Err(error);
                    }
                }
                payload => {
                    gs.responded[slot][f] = true;
                    if let BatchAnswer::Results { cost, .. } | BatchAnswer::Ranked { cost, .. } =
                        &payload
                    {
                        gs.report.cache.absorb(&cost.cache_counters());
                        // Credit the observed compute to the fragment's
                        // owner — the lifetime signal behind the reported
                        // unbalance factor U.
                        let m = self.placement.machine_of(FragmentId(fragment));
                        self.compute_micros.borrow_mut()[m] += cost.elapsed_micros;
                    }
                    gs.note_answered(
                        slot,
                        Some(GatherEvent::Payload(fragment, payload, bytes)),
                        sink,
                    );
                }
            }
        }
        Ok(())
    }

    /// Attribute one straggler frame drained after a completed gather:
    /// in-window answers are duplicates (every needed response has already
    /// been consumed), everything else is out-of-window.
    fn classify_straggler(&self, frame: Bytes, base: u64, gs: &mut GatherState) {
        let Ok(items) = decode_gather_items(frame) else {
            gs.report.corrupt_frames += 1;
            return;
        };
        for (qid, fragment, ..) in items {
            if gs.slot_of(base, qid, fragment).is_some() {
                gs.report.duplicate_responses += 1;
            } else {
                gs.report.out_of_window_responses += 1;
            }
        }
    }

    /// The shared deadline-aware gather: collect one response per targeted
    /// fragment for each of the `n = targeted.len()` queries
    /// `base+1 ..= base+n` (`targeted[i][f]`: query `i` was sent to fragment
    /// `f`), retrying stalled or transiently failed fragments with narrowed
    /// re-dispatches. A pruned pair is never waited for, retried or
    /// degraded; a query with no target completes before any frame.
    ///
    /// Retries are spaced by [`backoff_delay`]: instead of re-dispatching
    /// immediately, each narrowed retry is scheduled
    /// `RETRY_BACKOFF · 2^(retry−1)` (plus deterministic jitter) in the
    /// future, so a struggling worker is not hammered by synchronized retry
    /// bursts.
    ///
    /// `sink` receives each slot's [`GatherEvent`]s: its first-seen
    /// in-window payloads, then `Complete` — on the give-up paths of
    /// `allow_partial` as on the ordinary one, so a gather that returns `Ok`
    /// has completed every slot. The report is folded into the lifetime
    /// counters on success and failure alike.
    pub(super) fn gather(
        &self,
        base: u64,
        targeted: &[Vec<bool>],
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        sink: &mut Sink,
    ) -> Result<GatherReport, QueryError> {
        let gs = &mut GatherState::new(self, targeted);
        let (n, k) = (gs.n, gs.k);
        for slot in (0..n).filter(|&slot| gs.missing_by_slot[slot] == 0) {
            sink(slot, GatherEvent::Complete);
        }
        let outcome = loop {
            if gs.missing == 0 {
                // Drain stragglers (duplicated frames, late answers landing
                // just after the last needed response) so duplicate
                // accounting does not depend on how the final frames
                // interleaved in the channel. Draining only already-queued
                // frames is not enough: under the TCP transport a frame the
                // worker-side sender has already counted may still be
                // crossing the socket pumps when the gather completes, so
                // the drain reconciles against the wire ledger — while
                // `from_workers` says sent frames remain unconsumed, wait
                // briefly for them, and forgive whatever never shows up
                // (dropped on the wire, torn mid-frame, stranded in a dead
                // worker's egress queue) so no later drain waits on it
                // again.
                loop {
                    while let Ok(frame) = self.try_recv_response() {
                        self.classify_straggler(frame, base, gs);
                    }
                    let outstanding = self.from_workers.messages().saturating_sub(
                        self.consumed_responses.get() + self.forgiven_responses.get(),
                    );
                    if outstanding == 0 {
                        break;
                    }
                    match self.recv_response_timeout(STRAGGLER_GRACE) {
                        Ok(frame) => self.classify_straggler(frame, base, gs),
                        Err(_) => {
                            self.forgiven_responses
                                .set(self.forgiven_responses.get() + outstanding);
                            break;
                        }
                    }
                }
                break Ok(());
            }
            self.gather_flush_retries(gs, make_request);
            // Fast path: drain already-queued frames without the
            // park/unpark round-trip `recv_timeout` pays even when a frame
            // is ready (a futex round-trip per frame once two or more
            // workers outpace the coordinator).
            let received = match self.try_recv_response() {
                Ok(frame) => Ok(frame),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    // Wake at whichever comes first: the stall deadline or
                    // the next scheduled retry.
                    let wake = gs
                        .pending_retries
                        .iter()
                        .map(|&(due, _, _)| due)
                        .fold(gs.stall_deadline, Instant::min);
                    let timeout = wake.saturating_duration_since(Instant::now());
                    self.recv_response_timeout(timeout)
                }
            };
            match received {
                Ok(frame) => {
                    if let Err(e) = self.gather_process_frame(base, gs, frame, sink) {
                        break Err(e);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() < gs.stall_deadline {
                        // Woke early to flush a scheduled retry (handled at
                        // the top of the loop), not a stall.
                        continue;
                    }
                    gs.report.timeouts += 1;
                    let mut exhausted: Vec<u32> = Vec::new();
                    let mut retry_by_slot: Vec<Vec<u32>> = vec![Vec::new(); n];
                    for (slot, retries) in retry_by_slot.iter_mut().enumerate() {
                        for f in 0..k {
                            if gs.responded[slot][f] {
                                continue;
                            }
                            if gs.attempts[slot][f] < self.config.max_attempts {
                                gs.attempts[slot][f] += 1;
                                retries.push(f as u32);
                            } else {
                                exhausted.push(f as u32);
                                if gs.allow_partial {
                                    gs.responded[slot][f] = true;
                                    gs.report.degraded.push((slot, f as u32));
                                    gs.note_answered(slot, None, sink);
                                }
                            }
                        }
                    }
                    if !exhausted.is_empty() && !gs.allow_partial {
                        exhausted.sort_unstable();
                        exhausted.dedup();
                        break Err(QueryError::WorkerTimeout {
                            fragments: exhausted,
                            attempts: self.config.max_attempts,
                        });
                    }
                    for (slot, frags) in retry_by_slot.into_iter().enumerate() {
                        if !frags.is_empty() {
                            let retry_index = gs.attempts[slot][frags[0] as usize] - 1;
                            gs.schedule_retry(base, slot, frags, retry_index);
                        }
                    }
                    gs.stall_deadline = Instant::now() + self.config.deadline;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("cluster retains a response sender half")
                }
            }
        };
        self.note_recovery(&gs.report);
        outcome.map(|()| std::mem::take(&mut gs.report))
    }

    /// Fold one gather's recovery events into the lifetime counters.
    fn note_recovery(&self, report: &GatherReport) {
        let mut c = self.recovery.get();
        c.retries += report.retries as u64;
        c.timeouts += report.timeouts as u64;
        c.respawned_workers += report.respawned_workers as u64;
        c.duplicate_responses += report.duplicate_responses;
        c.corrupt_frames += report.corrupt_frames;
        c.out_of_window_responses += report.out_of_window_responses;
        self.recovery.set(c);
        let mut cache = self.cache.get();
        cache.absorb(&report.cache);
        self.cache.set(cache);
    }

    pub(super) fn note_respawns(&self, respawned: u32) {
        if respawned > 0 {
            let mut c = self.recovery.get();
            c.respawned_workers += respawned as u64;
            self.recovery.set(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        assert_eq!(backoff_delay(1, 42), backoff_delay(1, 42), "same seed → same delay");
        // Exponential growth up to the cap, jitter bounded by base/2.
        for i in 1..=8u32 {
            let d = backoff_delay(i, 7);
            let exp = RETRY_BACKOFF * (1 << i.saturating_sub(1).min(4));
            assert!(d >= exp && d <= exp + RETRY_BACKOFF / 2, "retry {i}: {d:?}");
        }
        // Different seeds de-synchronize.
        let spread: std::collections::HashSet<Duration> =
            (0..32).map(|s| backoff_delay(1, s)).collect();
        assert!(spread.len() > 8, "jitter must actually vary: {} distinct", spread.len());
    }
}
