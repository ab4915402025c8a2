//! The gather state machine: collect one response per `(slot, fragment)`,
//! dedup, retry stalled or failed fragments with narrowed re-dispatches
//! under backoff, hedge stragglers onto other replicas, and classify what
//! arrives late. A gather starts after every window of its group has been
//! dispatched, so all of its slots are outstanding from the first frame.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use disks_core::QueryError;
use disks_partition::FragmentId;

use super::Cluster;
use crate::cache::CacheCounters;
use crate::message::{decode_frame, decode_gather_items, encode_frame, Request, Response};
use crate::overload::{backoff_delay, splitmix64};
use crate::transport::epoch_micros;

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
    /// Narrowed retries moved to a *different* replica of their fragment
    /// (replicated placements only; counted in `retries` too).
    pub(super) reroutes: u32,
    /// Speculative hedge frames sent for slots outstanding past the hedge
    /// deadline (`DISKS_HEDGE`; never counted in `retries` — attempts are
    /// untouched, the original dispatch stays outstanding).
    pub(super) hedges: u32,
    /// Hedged fragments whose first answer came from the hedge target.
    pub(super) hedge_wins: u32,
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
    /// `(service, evaluation)` latency pairs of completed slots, in µs.
    /// Service is dispatch → last fragment response; evaluation is the
    /// worker-reported time of the slot's slowest fragment.
    latencies: Vec<(u64, u64)>,
    /// Per-slot maximum worker-reported evaluation time (µs) among the
    /// fragments answered so far.
    eval_micros: Vec<u64>,
    /// Deadline offset after which an outstanding slot is hedged (`None` =
    /// hedging off or no replicas to hedge onto).
    hedge_after: Option<Duration>,
    /// Per-slot hedge deadline; cleared once the slot hedges (at most one
    /// hedge per slot) or is disarmed.
    hedge_at: Vec<Option<Instant>>,
    /// `(slot, fragment)` → machine the hedge was sent to, for win
    /// attribution when the first answer lands.
    hedge_targets: HashMap<(usize, u32), usize>,
}

impl GatherState {
    /// All `n` slots outstanding on every fragment, their service-latency
    /// clocks started and (when hedging is armed) their hedge deadlines set.
    fn new(cluster: &Cluster, n: usize, allow_partial: bool) -> GatherState {
        let k = cluster.placement.num_fragments();
        let now = Instant::now();
        let hedge_after = cluster.hedge_after();
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
            eval_micros: vec![0; n],
            hedge_after,
            hedge_at: vec![hedge_after.map(|d| now + d); n],
            hedge_targets: HashMap::new(),
        }
    }

    /// Earliest pending hedge deadline among slots still missing answers
    /// (`None` when hedging is off or nothing is armed).
    fn next_hedge_due(&self) -> Option<Instant> {
        (0..self.n).filter(|&s| self.missing_by_slot[s] > 0).filter_map(|s| self.hedge_at[s]).min()
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
            let service = self.dispatched_at.elapsed().as_micros() as u64;
            self.latencies.push((service, self.eval_micros[slot]));
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
    /// slot, one request per hosting machine. On replicated placements the
    /// retried fragments are first moved to a different live replica.
    fn redispatch(
        &self,
        slot: usize,
        fragments: &[u32],
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
        report: &mut GatherReport,
    ) {
        let groups = if self.placement.is_replicated() {
            self.reroute(fragments, report)
        } else {
            self.placement.machines_hosting(fragments)
        };
        for (m, frags) in groups {
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

    /// Fire overdue hedges: every slot past its hedge deadline with
    /// answers still missing gets its missing fragments speculatively
    /// re-dispatched — narrowed, through the same `make_request` shape a
    /// retry uses — to an alternate live, un-quarantined replica. At most
    /// one hedge per slot; the original dispatch stays outstanding, the
    /// retry budget (`attempts`) is untouched, and whichever answer lands
    /// first wins — the loser is deduped by the `(slot, fragment)`
    /// responded table or the straggler drain's duplicate accounting.
    fn gather_flush_hedges(
        &self,
        gs: &mut GatherState,
        make_request: &dyn Fn(usize, Vec<u32>) -> Request,
    ) {
        if gs.hedge_after.is_none() {
            return;
        }
        let now = Instant::now();
        for slot in 0..gs.n {
            let Some(due) = gs.hedge_at[slot] else { continue };
            if due > now {
                continue;
            }
            gs.hedge_at[slot] = None;
            if gs.missing_by_slot[slot] == 0 {
                continue;
            }
            let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
            for f in 0..gs.k {
                if gs.responded[slot][f] {
                    continue;
                }
                let cur = self.route.borrow()[f];
                let target = {
                    let board = self.health.borrow();
                    self.placement
                        .replicas_of(FragmentId(f as u32))
                        .iter()
                        .copied()
                        .filter(|&m| {
                            m != cur && !self.worker_is_dead(m) && !board.is_quarantined(m)
                        })
                        .min_by_key(|&m| (self.route_load.borrow()[m], m))
                };
                // No alternate live host: the slot falls back to the
                // ordinary stall-retry path.
                let Some(m) = target else { continue };
                gs.hedge_targets.insert((slot, f as u32), m);
                match groups.iter_mut().find(|(g, _)| *g == m) {
                    Some((_, frags)) => frags.push(f as u32),
                    None => groups.push((m, vec![f as u32])),
                }
            }
            for (m, frags) in groups {
                let frame = encode_frame(&make_request(slot, frags));
                self.send_to_worker(m, &frame, &mut gs.report.respawned_workers);
                gs.report.hedges += 1;
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
        // Health-plane traffic: a probe ack is proof of life plus one
        // probation success, never counted against any query window.
        if let [(Response::ProbeAck { machine, .. }, _)] = items.as_slice() {
            let m = *machine as usize;
            if m < self.placement.num_machines() {
                self.health.borrow_mut().note_probe_ack(m, epoch_micros());
            }
            return Ok(());
        }
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
                Response::ProbeAck { .. } => unreachable!("intercepted above"),
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
                        // Once a fragment enters the retry path its hedge
                        // race is void: a later answer from the old hedge
                        // target is ordinary recovery, not a win.
                        gs.hedge_targets.remove(&(slot, fragment));
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
                        // Track the slot's slowest evaluation *before*
                        // note_answered closes its latency sample.
                        gs.eval_micros[slot] = gs.eval_micros[slot].max(cost.elapsed_micros);
                        // Credit the observed compute to the replica that
                        // actually served the task — the lifetime signal
                        // behind the reported unbalance factor U.
                        let m = self.serving_machine(fragment, cost);
                        self.compute_micros.borrow_mut()[m] += cost.elapsed_micros;
                        if self.health_active() {
                            let mut board = self.health.borrow_mut();
                            board.observe_arrival(m, epoch_micros());
                            board.observe_service(m, cost.elapsed_micros);
                        }
                        // First answer settles a hedged fragment's race —
                        // a win iff it came from the hedge target.
                        if gs.hedge_targets.remove(&(slot, fragment)) == Some(m) {
                            gs.report.hedge_wins += 1;
                        }
                    }
                    gs.note_answered(slot, Some((payload, bytes)), sink);
                }
            }
        }
        Ok(())
    }

    /// Attribute one straggler frame drained after a completed gather:
    /// in-window answers are duplicates (every needed response has already
    /// been consumed), everything else is out-of-window. Probe acks are
    /// health-plane traffic and fold into the board without touching either
    /// ledger counter.
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
            Ok(Response::ProbeAck { machine, .. }) => {
                let m = machine as usize;
                if m < self.placement.num_machines() {
                    self.health.borrow_mut().note_probe_ack(m, epoch_micros());
                }
            }
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
            self.health_tick(&mut gs.report.respawned_workers);
            self.gather_flush_hedges(gs, make_request);
            // Fast path: drain already-queued frames without the
            // park/unpark round-trip `recv_timeout` pays even when a frame
            // is ready (a futex round-trip per frame once two or more
            // workers outpace the coordinator).
            let received = match self.try_recv_response() {
                Ok(frame) => Ok(frame),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    // Wake at whichever comes first: the stall deadline,
                    // the next scheduled retry, or the next hedge deadline.
                    let wake = gs
                        .pending_retries
                        .iter()
                        .map(|&(due, _, _)| due)
                        .chain(gs.next_hedge_due())
                        .min()
                        .map_or(gs.stall_deadline, |due| due.min(gs.stall_deadline));
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
                            // Retried fragments void their hedge race (see
                            // the NACK retry path above).
                            for &f in &frags {
                                gs.hedge_targets.remove(&(slot, f));
                            }
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

    /// Append a gather's completed-query latencies to the cluster's sample
    /// rings: service time for [`Cluster::take_service_latencies`],
    /// evaluation time for the hedge deadline.
    fn note_service_latencies(&self, lats: &[(u64, u64)]) {
        let mut ring = self.service_lat.borrow_mut();
        let mut evals = self.eval_lat.borrow_mut();
        for &(service, eval) in lats {
            if ring.len() == 4096 {
                ring.pop_front();
            }
            ring.push_back(service);
            if evals.len() == 4096 {
                evals.pop_front();
            }
            evals.push_back(eval);
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
        c.reroutes += report.reroutes as u64;
        c.hedges += report.hedges as u64;
        c.hedge_wins += report.hedge_wins as u64;
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
