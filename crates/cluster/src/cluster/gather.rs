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
use crate::message::{decode_frame, decode_gather_items, encode_frame, Request, Response};
use crate::overload::{backoff_delay, splitmix64};

/// How long the straggler drain waits for a frame the wire ledger says was
/// sent but that has not yet been consumed (crossing the TCP pumps takes
/// microseconds; a frame that misses this is lost and gets forgiven).
const STRAGGLER_GRACE: Duration = Duration::from_millis(25);

/// What a gather tells its sink about one query slot.
pub(super) enum GatherEvent {
    /// A first-seen in-window `Results` / `TopKResults` payload and the
    /// bytes its standalone frame would have cost.
    Payload(Response, u64),
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
/// answered, per-pair retry budgets, and per-slot completion timing. Every
/// slot is outstanding from construction — a group's windows are all
/// dispatched before its gather starts.
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
    /// When the gather began, i.e. when the group's dispatch completed —
    /// the start of every slot's service-latency clock.
    dispatched_at: Instant,
    /// Service latencies (dispatch → last fragment response, µs) of
    /// completed slots.
    latencies: Vec<u64>,
}

impl GatherState {
    /// All `n` slots outstanding on every fragment, their service-latency
    /// clocks started.
    fn new(cluster: &Cluster, n: usize, allow_partial: bool) -> GatherState {
        let k = cluster.placement.num_fragments();
        let now = Instant::now();
        GatherState {
            n,
            k,
            allow_partial,
            responded: vec![vec![false; k]; n],
            attempts: vec![vec![1u32; k]; n],
            report: GatherReport { retries_by_slot: vec![0; n], ..GatherReport::default() },
            missing: n * k,
            missing_by_slot: vec![k; n],
            pending_retries: Vec::new(),
            // The deadline measures *silence*, not total time: any
            // in-window frame resets it, so a long streak of slow-but-live
            // responses is never mistaken for a stall.
            stall_deadline: now + cluster.config.deadline,
            dispatched_at: now,
            latencies: Vec::new(),
        }
    }

    /// Record one answered `(slot, fragment)` pair — with its payload, or
    /// `None` for a fragment given up on — and hand the sink what follows:
    /// the payload, then [`GatherEvent::Complete`] if it was the slot's last
    /// outstanding pair, whose service-latency sample closes here too.
    fn note_answered(&mut self, slot: usize, payload: Option<(Response, u64)>, sink: &mut Sink) {
        self.missing -= 1;
        self.missing_by_slot[slot] -= 1;
        let complete = self.missing_by_slot[slot] == 0;
        if complete {
            self.latencies.push(self.dispatched_at.elapsed().as_micros() as u64);
        }
        if let Some((response, bytes)) = payload {
            sink(slot, GatherEvent::Payload(response, bytes));
        }
        if complete {
            sink(slot, GatherEvent::Complete);
        }
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

    /// Queue a narrowed retry behind its exponential backoff (immediate
    /// when [`ClusterConfig::retry_backoff`] is zero). The jitter seed mixes
    /// query id, slot, fragment, and retry ordinal, so a replayed run backs
    /// off identically while concurrent retries spread out.
    #[allow(clippy::too_many_arguments)] // private gather helper
    fn schedule_retry(
        &self,
        base: u64,
        slot: usize,
        frags: Vec<u32>,
        retry_index: u32,
        pending: &mut Vec<(Instant, usize, Vec<u32>)>,
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        report: &mut GatherReport,
    ) {
        if self.config.retry_backoff.is_zero() {
            self.redispatch(slot, &frags, make_request, report);
            return;
        }
        let seed = base
            .wrapping_add((slot as u64) << 20)
            .wrapping_add((retry_index as u64) << 40)
            .wrapping_add(frags.first().copied().unwrap_or(0) as u64);
        let delay = backoff_delay(self.config.retry_backoff, retry_index, splitmix64(seed));
        pending.push((Instant::now() + delay, slot, frags));
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
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        sink: &mut Sink,
    ) -> Result<(), QueryError> {
        let items = match decode_gather_items(frame) {
            Ok(items) => items,
            Err(_) => {
                gs.report.corrupt_frames += 1;
                return Ok(());
            }
        };
        // A batch frame arrives expanded into one positional answer per
        // member query; each flows through the same window/dedup/retry
        // machinery as a standalone frame, charged the bytes its standalone
        // result frame would have cost (`decode_gather_items`), so per-query
        // byte attribution is comparable across batched and unbatched runs.
        for (response, bytes) in items {
            let (qid, fragment) = match &response {
                Response::Results { query_id, fragment, .. }
                | Response::TopKResults { query_id, fragment, .. }
                | Response::Failed { query_id, fragment, .. } => (*query_id, *fragment),
                Response::BatchResults { .. } => unreachable!("expanded by the decoder"),
            };
            if qid <= base || qid > base + gs.n as u64 || fragment as usize >= gs.k {
                gs.report.out_of_window_responses += 1;
                continue;
            }
            let slot = (qid - base - 1) as usize;
            let f = fragment as usize;
            if gs.responded[slot][f] {
                gs.report.duplicate_responses += 1;
                continue;
            }
            gs.stall_deadline = Instant::now() + self.config.deadline;
            match response {
                Response::Failed { error, .. } => {
                    if !error.is_retryable() {
                        return Err(error);
                    }
                    if gs.attempts[slot][f] < self.config.max_attempts {
                        gs.attempts[slot][f] += 1;
                        let retry_index = gs.attempts[slot][f] - 1;
                        self.schedule_retry(
                            base,
                            slot,
                            vec![fragment],
                            retry_index,
                            &mut gs.pending_retries,
                            make_request,
                            &mut gs.report,
                        );
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
                    if let Response::Results { cost, .. } | Response::TopKResults { cost, .. } =
                        &payload
                    {
                        gs.report.cache.absorb(&cost.cache_counters());
                        // Credit the observed compute to the fragment's
                        // owner — the lifetime signal behind the reported
                        // unbalance factor U.
                        let m = self.placement.machine_of(FragmentId(fragment));
                        self.compute_micros.borrow_mut()[m] += cost.elapsed_micros;
                    }
                    gs.note_answered(slot, Some((payload, bytes)), sink);
                }
            }
        }
        Ok(())
    }

    /// Attribute one straggler frame drained after a completed gather:
    /// in-window answers are duplicates (every needed response has already
    /// been consumed), everything else is out-of-window.
    fn classify_straggler(&self, frame: Bytes, base: u64, gs: &mut GatherState) {
        let (n, k) = (gs.n, gs.k);
        let mut in_window = |qid: u64, fragment: u32| {
            if qid > base && qid <= base + n as u64 && (fragment as usize) < k {
                gs.report.duplicate_responses += 1;
            } else {
                gs.report.out_of_window_responses += 1;
            }
        };
        match decode_frame::<Response>(frame) {
            Err(_) => gs.report.corrupt_frames += 1,
            Ok(Response::BatchResults { base: b, fragment, answers }) => {
                for i in 0..answers.len() {
                    in_window(b + 1 + i as u64, fragment);
                }
            }
            Ok(Response::Results { query_id, fragment, .. })
            | Ok(Response::TopKResults { query_id, fragment, .. })
            | Ok(Response::Failed { query_id, fragment, .. }) => in_window(query_id, fragment),
        }
    }

    /// The shared deadline-aware gather: collect one response per fragment
    /// for each of the `n` queries `base+1 ..= base+n`, retrying stalled or
    /// transiently failed fragments with narrowed re-dispatches.
    ///
    /// `allow_partial` is passed per gather (rather than read from the
    /// config) because brownout degrades a group to partial semantics even
    /// when the cluster default is strict.
    ///
    /// Retries are spaced by [`ClusterConfig::retry_backoff`]: instead of
    /// re-dispatching immediately, each narrowed retry is scheduled
    /// `base · 2^(retry−1)` (plus deterministic jitter) in the future, so a
    /// struggling worker is not hammered by synchronized retry bursts.
    ///
    /// `sink` receives each slot's [`GatherEvent`]s: its first-seen
    /// in-window payloads, then `Complete` — on the give-up paths of
    /// `allow_partial` as on the ordinary one, so a gather that returns `Ok`
    /// has completed every slot. The report is folded into the lifetime
    /// counters on success and failure alike.
    pub(super) fn gather(
        &self,
        base: u64,
        n: usize,
        allow_partial: bool,
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        sink: &mut Sink,
    ) -> Result<GatherReport, QueryError> {
        let gs = &mut GatherState::new(self, n, allow_partial);
        let k = gs.k;
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
                    if let Err(e) = self.gather_process_frame(base, gs, frame, make_request, sink) {
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
                            self.schedule_retry(
                                base,
                                slot,
                                frags,
                                retry_index,
                                &mut gs.pending_retries,
                                make_request,
                                &mut gs.report,
                            );
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
        self.note_service_latencies(&gs.latencies);
        outcome.map(|()| std::mem::take(&mut gs.report))
    }

    /// Append a gather's completed-query service latencies to the ring
    /// [`Cluster::take_service_latencies`] drains.
    fn note_service_latencies(&self, lats: &[u64]) {
        let mut ring = self.service_lat.borrow_mut();
        for &service in lats {
            if ring.len() == 4096 {
                ring.pop_front();
            }
            ring.push_back(service);
        }
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
