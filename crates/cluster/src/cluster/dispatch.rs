//! The one request path: the overload ladder sorts a stream into admission
//! groups, a group is charged, cut into windows, sent, gathered and
//! released, and each member's [`QueryStats`] is read off its group. A
//! single query is a stream of one — a group of one, a window of one.
//!
//! There is one windowing rule: a group is cut into
//! [`ClusterConfig::batch_window`]-sized chunks in stream order and every
//! chunk is dispatched before any response is gathered. A chunk of one
//! ships as `Evaluate`, a larger one as one merged `Batch` per machine.
//! Every fragment has one owner, so a window is one frame, encoded once and
//! sent to every busy machine.
//!
//! [`ClusterConfig::batch_window`]: super::ClusterConfig::batch_window

use std::time::{Duration, Instant};

use bytes::Bytes;
use disks_core::{QueryError, QueryPlan, SuperPlan};

use super::gather::{GatherReport, Sink};
use super::Cluster;
use crate::cache::CacheCounters;
use crate::message::{encode_frame, Request};
use crate::stats::{MachineCost, QueryStats};

/// What one initial dispatch put on the wire.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Sent {
    /// Dead workers respawned on the way.
    respawns: u32,
    /// Size of the largest single frame (links are parallel, so this — not
    /// the sum — is what the modeled dispatch latency charges).
    largest_frame: u64,
}

/// What the overload ladder decided for one query of a stream.
#[derive(Debug)]
pub(super) enum Disposition {
    /// Queued in the current admission group; rewritten to `Ran` at flush.
    Pending,
    /// Rejected by validity admission before any grouping.
    Invalid(QueryError),
    /// Shed by cost admission with this `retry_after` (milliseconds).
    Shed(u64),
    /// Dispatched as slot `pos` of admission group `group`.
    Ran { group: usize, pos: usize },
}

/// One flushed admission group: its gather report (slot indices are
/// positions within the group) plus group-level outcome data.
pub(super) struct GroupRun {
    /// Estimated cost per member, in group slot order.
    costs: Vec<u64>,
    report: GatherReport,
    /// Fatal gather error — every member query inherits it.
    pub(super) error: Option<QueryError>,
    /// The group's initial dispatch, all windows together.
    sent: Sent,
    /// Offset from stream start when the group's gather completed; member
    /// queries report it as `wall_time`, making queueing delay visible.
    elapsed: Duration,
    /// Whether the group ran browned-out (partial-result semantics).
    browned: bool,
}

/// Result of [`Cluster::run_stream_core`]: per-query dispositions plus the
/// flushed groups they reference.
pub(super) struct StreamRun {
    pub(super) disposition: Vec<Disposition>,
    pub(super) groups: Vec<GroupRun>,
}

/// Dispatch and gather one group's slots given its first query id and
/// whether partial results are acceptable.
type Exchange<'a> = dyn FnMut(u64, bool) -> (Result<GatherReport, QueryError>, Sent) + 'a;

impl Cluster {
    /// Steps 2–3 of the overload ladder for one priced plan arriving on top
    /// of `queued` not-yet-dispatched cost: `Some(retry_after_millis)` when
    /// the query must be shed — its cost alone exceeds the budget, or
    /// brownout is active and it is cache-cold.
    pub(super) fn shed(&self, plan: &QueryPlan, cost: u64, queued: u64) -> Option<u64> {
        if !self.gauge.enabled() {
            return None;
        }
        if cost > self.gauge.cost_limit()
            || (self.gauge.brownout_at(queued) && self.slot_heat.borrow().has_cold(plan))
        {
            let retry = self.gauge.shed(queued, cost);
            return Some((retry.as_millis() as u64).max(1));
        }
        None
    }

    /// The admission-grouped dispatch/gather core every plan query goes
    /// through ([`Cluster::run_stream`], and through it [`Cluster::run`] and
    /// [`Cluster::run_batched`]). Walks the stream in order, applying the
    /// overload ladder per query:
    ///
    /// 1. invalid (failed [`Cluster::admit`]) → typed error, no dispatch;
    /// 2. estimated cost alone over the budget → shed, no dispatch;
    /// 3. brownout active and the query cache-cold → shed, no dispatch;
    /// 4. cost does not fit the budget on top of the queued group → the
    ///    group is flushed first (a *queue pause*: dispatch + gather, which
    ///    bounds every worker's in-flight cost), then the query queues;
    /// 5. otherwise the query joins the current group.
    ///
    /// A group that flushes at ≥ the brownout fraction of the budget runs
    /// with partial-result semantics (degrade before shedding) — so a lone
    /// query costing at least that fraction runs browned, where a
    /// synchronous ladder measuring only the (empty) in-flight gauge never
    /// would. With overload control disabled (`cost_limit = 0`) the whole
    /// stream is one group and the ladder is inert — exactly the
    /// pre-overload behavior.
    ///
    /// `on_event` receives each query's gather events ([`Sink`]) keyed by
    /// its *original stream index*.
    pub(super) fn run_stream_core(
        &self,
        plans: Vec<Result<QueryPlan, QueryError>>,
        start: Instant,
        on_event: &mut Sink,
    ) -> StreamRun {
        let mut disposition: Vec<Disposition> = Vec::with_capacity(plans.len());
        let mut groups: Vec<GroupRun> = Vec::new();
        let mut pending: Vec<(usize, QueryPlan, u64)> = Vec::new();
        let mut pending_cost: u64 = 0;
        for (i, plan) in plans.into_iter().enumerate() {
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    disposition.push(Disposition::Invalid(e));
                    continue;
                }
            };
            let cost = plan.estimated_cost(&self.cost_params);
            if let Some(retry_after) = self.shed(&plan, cost, pending_cost) {
                disposition.push(Disposition::Shed(retry_after));
                continue;
            }
            if self.gauge.enabled()
                && pending_cost.saturating_add(cost) > self.gauge.cost_limit()
                && !pending.is_empty()
            {
                self.gauge.note_queue_pause();
                self.flush_group(&mut pending, &mut disposition, &mut groups, start, on_event);
                pending_cost = 0;
            }
            self.gauge.note_admitted();
            self.slot_heat.borrow_mut().charge(plan.slots());
            disposition.push(Disposition::Pending);
            pending_cost = pending_cost.saturating_add(cost);
            pending.push((i, plan, cost));
        }
        self.flush_group(&mut pending, &mut disposition, &mut groups, start, on_event);
        StreamRun { disposition, groups }
    }

    /// Dispatch and gather the queued admission group.
    fn flush_group(
        &self,
        pending: &mut Vec<(usize, QueryPlan, u64)>,
        disposition: &mut [Disposition],
        groups: &mut Vec<GroupRun>,
        start: Instant,
        on_event: &mut Sink,
    ) {
        if pending.is_empty() {
            return;
        }
        let mut members: Vec<usize> = Vec::with_capacity(pending.len());
        let mut plans: Vec<QueryPlan> = Vec::with_capacity(pending.len());
        let mut costs: Vec<u64> = Vec::with_capacity(pending.len());
        for (pos, (i, plan, cost)) in pending.drain(..).enumerate() {
            disposition[i] = Disposition::Ran { group: groups.len(), pos };
            members.push(i);
            plans.push(plan);
            costs.push(cost);
        }
        let group = self.run_group(&costs, start, &mut |base, allow_partial| {
            // Retries always narrow to single-query `Evaluate` frames for
            // only the failed queries, however the window was batched.
            let make_request = |slot: usize, frags: Vec<u32>| Request::Evaluate {
                query_id: base + 1 + slot as u64,
                plan: plans[slot].clone(),
                fragments: frags,
            };
            let mut on_slot_event = |slot: usize, event| on_event(members[slot], event);
            let sent = self.dispatch_plans(base, &plans);
            let gathered =
                self.gather(base, plans.len(), allow_partial, &make_request, &mut on_slot_event);
            (gathered, sent)
        });
        groups.push(group);
    }

    /// The one place a group of admitted work — member `i` priced
    /// `costs[i]` — is numbered, charged against the gauge, exchanged with
    /// the workers and released (on success and failure alike). A group
    /// flushing at ≥ the brownout fraction of the budget runs with
    /// partial-result semantics.
    pub(super) fn run_group(
        &self,
        costs: &[u64],
        start: Instant,
        exchange: &mut Exchange<'_>,
    ) -> GroupRun {
        let n = costs.len();
        let group_cost = costs.iter().fold(0u64, |a, &c| a.saturating_add(c));
        let browned = self.gauge.brownout_at(group_cost);
        if browned {
            for _ in 0..n {
                self.gauge.note_browned_out();
            }
        }
        let base = self.query_counter.get();
        self.query_counter.set(base + n as u64);
        self.gauge.charge(group_cost);
        let (gathered, sent) = exchange(base, self.config.allow_partial || browned);
        self.gauge.release(group_cost);
        let (report, error) = match gathered {
            Ok(r) => (r, None),
            Err(e) => {
                (GatherReport { retries_by_slot: vec![0; n], ..GatherReport::default() }, Some(e))
            }
        };
        GroupRun { costs: costs.to_vec(), report, error, sent, elapsed: start.elapsed(), browned }
    }

    /// The one [`QueryStats`] constructor: the stats of member `pos` of a
    /// flushed group, given what its own responses carried.
    ///
    /// Shared-by-construction fields are group-level values: `wall_time` is
    /// the group's completion offset from stream start, `timeouts`,
    /// `respawned_workers` and the discarded-frame counters are the
    /// group's, and `coordinator_to_worker_bytes` is `c2w_each`, the
    /// caller's even split of the dispatch bytes (a super-plan frame has no
    /// exact per-query split). The modeled response time charges that same
    /// split as the request transfer — except for a group of one, which is
    /// charged its largest single frame: the links are parallel, so a lone
    /// query waits for one frame, not for the sum over machines.
    pub(super) fn query_stats(
        &self,
        g: &GroupRun,
        pos: usize,
        per_machine: Vec<MachineCost>,
        cache: CacheCounters,
        results: usize,
        c2w_each: u64,
    ) -> QueryStats {
        let mut degraded: Vec<u32> =
            g.report.degraded.iter().filter(|&&(s, _)| s == pos).map(|&(_, f)| f).collect();
        degraded.sort_unstable();
        degraded.dedup();
        let request_bytes = if g.costs.len() == 1 { g.sent.largest_frame } else { c2w_each };
        QueryStats {
            wall_time: g.elapsed,
            coordinator_to_worker_bytes: c2w_each,
            worker_to_coordinator_bytes: per_machine.iter().map(|m| m.response_bytes).sum(),
            per_machine,
            inter_worker_bytes: 0, // no worker↔worker links exist (Theorem 3)
            // Each narrowed re-dispatch is an extra coordinator round.
            rounds: 1 + g.report.retries_by_slot[pos],
            results,
            retries: g.report.retries_by_slot[pos],
            timeouts: g.report.timeouts,
            respawned_workers: g.sent.respawns + g.report.respawned_workers,
            degraded_fragments: degraded,
            duplicate_responses: g.report.duplicate_responses,
            corrupt_frames: g.report.corrupt_frames,
            out_of_window_responses: g.report.out_of_window_responses,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bypassed: cache.bypassed,
            estimated_cost: g.costs[pos],
            browned_out: g.browned,
            ..QueryStats::default()
        }
        .finalize(&self.config.network, request_bytes)
    }

    /// Dispatch of one admission group: every `batch_window`-sized chunk
    /// ships as its own window before any response is gathered, so workers
    /// process their queues concurrently.
    fn dispatch_plans(&self, base: u64, plans: &[QueryPlan]) -> Sent {
        let window = self.config.batch_window;
        let mut sent = Sent::default();
        for (w, chunk) in plans.chunks(window).enumerate() {
            let one = self.dispatch_window(base + (w * window) as u64, chunk);
            sent.respawns += one.respawns;
            sent.largest_frame = sent.largest_frame.max(one.largest_frame);
        }
        sent
    }

    /// Dispatch one window of admitted plans for queries
    /// `window_base+1 ..= window_base+chunk.len()`: a lone plan ships as a
    /// plain `Evaluate`, ≥2 plans merge into one [`SuperPlan`] shipped as a
    /// single `Batch` frame per machine.
    fn dispatch_window(&self, window_base: u64, chunk: &[QueryPlan]) -> Sent {
        // An empty fragment list: each machine evaluates all it hosts.
        let request = if chunk.len() >= 2 {
            Request::Batch { base: window_base, plan: SuperPlan::merge(chunk), fragments: vec![] }
        } else {
            Request::Evaluate {
                query_id: window_base + 1,
                plan: chunk[0].clone(),
                fragments: vec![],
            }
        };
        self.broadcast(&encode_frame(&request))
    }

    /// The one initial-dispatch send loop: every busy machine gets `frame`.
    /// Counts the frames as initial dispatch and folds respawns into the
    /// lifetime counters.
    pub(super) fn broadcast(&self, frame: &Bytes) -> Sent {
        let mut sent = Sent::default();
        for m in self.placement.busy_machines() {
            sent.largest_frame = frame.len() as u64;
            self.send_to_worker(m, frame, &mut sent.respawns);
            self.gauge.note_dispatch_frames(1);
        }
        self.note_respawns(sent.respawns);
        sent
    }
}
