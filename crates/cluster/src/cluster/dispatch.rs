//! The one request path: a stream's admitted queries are one group, the
//! group is cut into windows, sent and gathered, and each member's
//! [`QueryStats`] is read off it. A single query is a stream of one — a
//! group of one, a window of one.
//!
//! There is one windowing rule, with no knob: a group is cut into
//! [`BATCH_WINDOW`]-sized chunks in stream order and every chunk is
//! dispatched before any response is gathered. A chunk of one ships as
//! `Evaluate`, a larger one as one merged `Batch` per machine. Every
//! fragment has one owner, so a window is one frame, encoded once and sent
//! to every machine hosting a fragment the window targets: a plan targets
//! the fragments where none of its conjuncts is seedless
//! ([`disks_core::SeedFloors`]).

use std::time::{Duration, Instant};

use bytes::Bytes;
use disks_core::{QueryError, QueryPlan, SuperPlan, Targets};
use disks_partition::FragmentId;

use super::gather::{GatherReport, Sink};
use super::Cluster;
use crate::cache::CacheCounters;
use crate::message::{encode_frame, Request};
use crate::stats::{MachineCost, QueryStats};

/// Most queries one window merges into a [`SuperPlan`]. Swept at 1, 4, 16
/// and 64 on the benchmark (DESIGN §6d).
const BATCH_WINDOW: usize = 16;

/// What one initial dispatch put on the wire.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Sent {
    /// Dead workers respawned on the way.
    respawns: u32,
    /// Size of the largest single frame (links are parallel, so this — not
    /// the sum — is what the modeled dispatch latency charges).
    largest_frame: u64,
}

/// A dispatched and gathered group: its gather report (slot indices are
/// positions within the group) plus group-level outcome data.
pub(super) struct GroupRun {
    /// How many queries the group holds.
    members: usize,
    report: GatherReport,
    /// Fatal gather error — every member query inherits it.
    pub(super) error: Option<QueryError>,
    /// The group's initial dispatch, all windows together.
    sent: Sent,
    /// Offset from stream start when the group's gather completed; member
    /// queries report it as `wall_time`, making queueing delay visible.
    elapsed: Duration,
}

/// Dispatch and gather one group's slots given its first query id.
type Exchange<'a> = dyn FnMut(u64) -> (Result<GatherReport, QueryError>, Sent) + 'a;

impl Cluster {
    /// The dispatch/gather core every plan query goes through
    /// ([`Cluster::run_stream`], and through it [`Cluster::run`]): the
    /// admitted `plans` of a stream, in order, are one group, cut into
    /// windows and gathered. `on_event` receives each query's gather events
    /// ([`Sink`]) keyed by its position in `plans`.
    pub(super) fn run_plans(
        &self,
        plans: &[QueryPlan],
        start: Instant,
        on_event: &mut Sink,
    ) -> GroupRun {
        let targeted: Vec<Vec<bool>> = plans.iter().map(|plan| self.targeted(plan)).collect();
        self.run_group(plans.len(), start, &mut |base| {
            // Retries always narrow to single-query `Evaluate` frames for
            // only the failed queries, however the window was batched.
            let make_request = |slot: usize, frags: Vec<u32>| Request::Evaluate {
                query_id: base + 1 + slot as u64,
                plan: plans[slot].clone(),
                fragments: frags,
            };
            let sent = self.dispatch_plans(base, plans, &targeted);
            (self.gather(base, &targeted, &make_request, on_event), sent)
        })
    }

    /// The fragments `plan` targets, `targeted[f]`: those whose seed floors
    /// leave no conjunct seedless — every one when the coordinator holds no
    /// floors. Another fragment would answer ∅ before fetching anything.
    fn targeted(&self, plan: &QueryPlan) -> Vec<bool> {
        let k = self.placement.num_fragments();
        match &self.floors {
            Some(floors) => (0..k).map(|f| floors.can_answer(plan, FragmentId(f as u32))).collect(),
            None => vec![true; k],
        }
    }

    /// The one place a group of `members` queries is numbered and exchanged
    /// with the workers.
    pub(super) fn run_group(
        &self,
        members: usize,
        start: Instant,
        exchange: &mut Exchange<'_>,
    ) -> GroupRun {
        let base = self.query_counter.get();
        self.query_counter.set(base + members as u64);
        let (gathered, sent) = exchange(base);
        let (report, error) = match gathered {
            Ok(r) => (r, None),
            Err(e) => (
                GatherReport { retries_by_slot: vec![0; members], ..GatherReport::default() },
                Some(e),
            ),
        };
        GroupRun { members, report, error, sent, elapsed: start.elapsed() }
    }

    /// The one [`QueryStats`] constructor: the stats of member `pos` of a
    /// gathered group, given what its own responses carried.
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
        let request_bytes = if g.members == 1 { g.sent.largest_frame } else { c2w_each };
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
            ..QueryStats::default()
        }
        .finalize(request_bytes)
    }

    /// Dispatch of one group: every [`BATCH_WINDOW`]-sized chunk ships as
    /// its own window before any response is gathered, so workers process
    /// their queues concurrently. `targeted[i]` is plan `i`'s targets.
    fn dispatch_plans(&self, base: u64, plans: &[QueryPlan], targeted: &[Vec<bool>]) -> Sent {
        let windows = plans.chunks(BATCH_WINDOW).zip(targeted.chunks(BATCH_WINDOW));
        let mut sent = Sent::default();
        for (w, (chunk, targeted)) in windows.enumerate() {
            let window_base = base + (w * BATCH_WINDOW) as u64;
            let one = self.dispatch(self.window_frames(window_base, chunk, targeted));
            sent.respawns += one.respawns;
            sent.largest_frame = sent.largest_frame.max(one.largest_frame);
        }
        sent
    }

    /// The frames of one window of admitted plans for queries
    /// `window_base+1 ..= window_base+chunk.len()`, each with the machine it
    /// goes to. ≥2 plans merge into one [`SuperPlan`], each program naming
    /// its targets, shipped as one `Batch` frame to every machine hosting a
    /// target of any of them. A lone plan ships as an `Evaluate` to every
    /// machine hosting one of its targets, narrowed to those fragments
    /// unless it hosts nothing else. A machine that hosts no target gets
    /// nothing, and a window with no target no frame at all.
    fn window_frames(
        &self,
        window_base: u64,
        chunk: &[QueryPlan],
        targeted: &[Vec<bool>],
    ) -> Vec<(usize, Bytes)> {
        let hosted = |m: usize| self.placement.fragments_of(m).iter().map(|f| f.index());
        if chunk.len() >= 2 {
            let machines: Vec<usize> = (self.placement.busy_machines())
                .filter(|&m| hosted(m).any(|f| targeted.iter().any(|t| t[f])))
                .collect();
            if machines.is_empty() {
                return Vec::new();
            }
            let plan =
                SuperPlan::merge_targeted(chunk, targeted.iter().map(|t| Targets::of_mask(t)));
            let frame =
                encode_frame(&Request::Batch { base: window_base, plan, fragments: vec![] });
            return machines.into_iter().map(|m| (m, frame.clone())).collect();
        }
        let targeted = &targeted[0];
        let request = |fragments: Vec<u32>| Request::Evaluate {
            query_id: window_base + 1,
            plan: chunk[0].clone(),
            fragments,
        };
        // An empty fragment list: the machine evaluates all it hosts.
        let mut every: Option<Bytes> = None;
        let mut frames = Vec::new();
        for m in self.placement.busy_machines() {
            let hits = hosted(m).filter(|&f| targeted[f]).count();
            if hits == 0 {
                continue;
            }
            let frame = if hits == hosted(m).len() {
                every.get_or_insert_with(|| encode_frame(&request(Vec::new()))).clone()
            } else {
                encode_frame(&request(
                    hosted(m).filter(|&f| targeted[f]).map(|f| f as u32).collect(),
                ))
            };
            frames.push((m, frame));
        }
        frames
    }

    /// Broadcast `frame` to every busy machine ([`Cluster::dispatch`]).
    pub(super) fn broadcast(&self, frame: &Bytes) -> Sent {
        self.dispatch(self.placement.busy_machines().map(|m| (m, frame.clone())))
    }

    /// The one initial-dispatch send loop: each machine gets its frame.
    /// Counts the frames as initial dispatch and folds respawns into the
    /// lifetime counters.
    fn dispatch(&self, frames: impl IntoIterator<Item = (usize, Bytes)>) -> Sent {
        let mut sent = Sent::default();
        for (m, frame) in frames {
            sent.largest_frame = sent.largest_frame.max(frame.len() as u64);
            self.send_to_worker(m, &frame, &mut sent.respawns);
            self.dispatch_frames.set(self.dispatch_frames.get() + 1);
        }
        self.note_respawns(sent.respawns);
        sent
    }
}
