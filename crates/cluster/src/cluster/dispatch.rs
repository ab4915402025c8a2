//! The one request path: a stream's admitted queries are one group, the
//! group is cut into windows, sent and gathered, and each member's
//! [`QueryStats`] is read off it. A single query is a stream of one — a
//! group of one, a window of one — and a top-k is a single query whose
//! plan is ranked.
//!
//! There is one windowing rule, with no knob: a group is cut into
//! [`BATCH_WINDOW`]-sized chunks in stream order and every chunk is
//! dispatched before any response is gathered. There is one plan frame too:
//! a chunk, of one plan or of sixteen, merges into one `Batch`, and a
//! narrowed retry is a `Batch` of one. Every fragment has one owner, so a
//! window is one frame, encoded once and sent to every machine hosting a
//! fragment the window targets: a plan targets the fragments where none of
//! its conjuncts is seedless ([`disks_core::SeedFloors`]).

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

/// The narrowed retry of query `base + 1`: a batch of one that targets just
/// `fragments`, in the ascending order its encoding requires.
fn retry_request(base: u64, plan: &QueryPlan, mut fragments: Vec<u32>) -> Request {
    fragments.sort_unstable();
    let plan = SuperPlan::merge_targeted(std::slice::from_ref(plan), [Targets::Only(fragments)]);
    Request::Batch { base, plan, fragments: vec![] }
}

/// What one initial dispatch put on the wire.
#[derive(Debug, Default, Clone, Copy)]
struct Sent {
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

impl Cluster {
    /// The dispatch/gather core every query goes through
    /// ([`Cluster::run_stream`], and through it [`Cluster::run`], and
    /// [`Cluster::run_topk`]): the admitted `plans` of a stream, in order,
    /// are one group, numbered here, cut into windows and gathered.
    /// `on_event` receives each query's gather events ([`Sink`]) keyed by
    /// its position in `plans`.
    pub(super) fn run_plans(
        &self,
        plans: &[QueryPlan],
        start: Instant,
        on_event: &mut Sink,
    ) -> GroupRun {
        let members = plans.len();
        let base = self.query_counter.get();
        self.query_counter.set(base + members as u64);
        let targeted: Vec<Vec<bool>> = plans.iter().map(|plan| self.targeted(plan)).collect();
        // Retries narrow to a batch of one per failed query, however the
        // window was batched.
        let make_request =
            |slot: usize, frags: Vec<u32>| retry_request(base + slot as u64, &plans[slot], frags);
        let sent = self.dispatch_plans(base, plans, &targeted);
        let (report, error) = match self.gather(base, &targeted, &make_request, on_event) {
            Ok(r) => (r, None),
            Err(e) => (
                GatherReport { retries_by_slot: vec![0; members], ..GatherReport::default() },
                Some(e),
            ),
        };
        GroupRun { members, report, error, sent, elapsed: start.elapsed() }
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
    /// goes to: the plans merge into one [`SuperPlan`], each program naming
    /// its targets, shipped as one `Batch` frame to every machine hosting a
    /// target of any of them. A machine that hosts no target gets nothing,
    /// and a window with no target no frame at all.
    fn window_frames(
        &self,
        window_base: u64,
        chunk: &[QueryPlan],
        targeted: &[Vec<bool>],
    ) -> Vec<(usize, Bytes)> {
        let hosts_target = |m: usize| {
            self.placement.fragments_of(m).iter().any(|f| targeted.iter().any(|t| t[f.index()]))
        };
        let machines: Vec<usize> =
            self.placement.busy_machines().filter(|&m| hosts_target(m)).collect();
        if machines.is_empty() {
            return Vec::new();
        }
        let plan = SuperPlan::merge_targeted(chunk, targeted.iter().map(|t| Targets::of_mask(t)));
        let frame = encode_frame(&Request::Batch { base: window_base, plan, fragments: vec![] });
        machines.into_iter().map(|m| (m, frame.clone())).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::decode_frame;
    use crate::ClusterConfig;
    use disks_core::{build_all_indexes, DFunction, IndexConfig, Term};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::KeywordId;

    /// Every window, of one plan or of sixteen, is one `Batch` frame sent to
    /// exactly the machines hosting a target, each program naming its
    /// plan's targets; a retry is a batch of one on the retried fragments.
    #[test]
    fn every_plan_frame_is_a_batch_naming_its_targets() {
        let net = GridNetworkConfig::tiny(76).generate();
        let p = MultilevelPartitioner::default().partition(&net, 4);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let config = ClusterConfig { machines: Some(2), ..ClusterConfig::default() };
        let cluster = Cluster::build(&net, &p, indexes, config);
        let e = net.avg_edge_weight();
        let freqs = net.keyword_frequencies();
        let plans: Vec<QueryPlan> = (0..freqs.len())
            .filter(|&kw| freqs[kw] > 0)
            .flat_map(|kw| {
                [e, 2 * e].map(|r| DFunction::single(Term::Keyword(KeywordId(kw as u32)), r))
            })
            .map(|f| QueryPlan::lower(&f))
            .take(16)
            .collect();
        assert_eq!(plans.len(), 16);
        let targeted: Vec<Vec<bool>> = plans.iter().map(|plan| cluster.targeted(plan)).collect();
        assert!(
            targeted.iter().any(|t| t.contains(&false)),
            "some plan must leave a fragment out, or targets are not tested"
        );
        for n in [1, 2, 16] {
            let frames = cluster.window_frames(40, &plans[..n], &targeted[..n]);
            let hosts_target = |m: usize| {
                let hosted = cluster.placement.fragments_of(m);
                hosted.iter().any(|f| targeted[..n].iter().any(|t| t[f.index()]))
            };
            let machines: Vec<usize> = frames.iter().map(|&(m, _)| m).collect();
            let expected: Vec<usize> =
                cluster.placement.busy_machines().filter(|&m| hosts_target(m)).collect();
            assert_eq!(machines, expected, "window of {n}");
            for (_, frame) in frames {
                match decode_frame::<Request>(frame).unwrap() {
                    Request::Batch { base: 40, plan, fragments } => {
                        assert!(fragments.is_empty());
                        assert_eq!(plan.split(), plans[..n]);
                        let want = targeted[..n].iter().map(|t| Targets::of_mask(t));
                        assert!(plan.targets().cloned().eq(want), "window of {n}");
                    }
                    other => panic!("window of {n} sent {other:?}"),
                }
            }
        }
        let retry = encode_frame(&retry_request(41, &plans[3], vec![3, 0, 2]));
        match decode_frame::<Request>(retry).unwrap() {
            Request::Batch { base: 41, plan, fragments } => {
                assert!(fragments.is_empty());
                assert_eq!(plan.split(), [plans[3].clone()]);
                assert!(plan.targets().eq([&Targets::Only(vec![0, 2, 3])]));
            }
            other => panic!("a retry sent {other:?}"),
        }
        cluster.shutdown();
    }
}
