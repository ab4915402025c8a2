//! Worker machines.
//!
//! A worker is an OS thread that owns the [`FragmentEngine`]s of the
//! fragments assigned to it — and nothing else. Its only I/O is the request
//! channel from the coordinator and the counted response link back. Tasks
//! for the fragments a machine hosts are processed sequentially, one CPU per
//! machine: the paper's machines evaluate their fragment's task in a single
//! process, and the response is the slowest task (Theorem 5). Besides its
//! coverage cache a worker keeps nothing between requests: every frame
//! carries the full specs of the slots it needs, so a respawned worker
//! answers its first frame like any other.
//!
//! Engine evaluation runs under `catch_unwind`, so a panicking task becomes
//! a typed [`Response::Failed`] on the wire instead of a dead thread; a
//! thread that does die (simulated crash) is detected and respawned by the
//! coordinator.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use disks_core::bitset::BitSet;
use disks_core::dfunc::{DTerm, Term};
use disks_core::{
    BiLevelIndex, CoverageStore, FragmentEngine, NodeRuns, QueryCost, QueryError, QueryPlan,
    Targets,
};

use crate::cache::CoverageCache;
use crate::message::{decode_frame, encode_frame, BatchAnswer, Request, Response, WireCost};
use crate::transport::LinkSender;

/// Injected lifecycle faults for one worker spawn (testing substrate; both
/// default to `None` in production spawns and in respawns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Exit the thread (simulated machine crash) upon receiving the nth
    /// request, before answering it. Every decoded request except
    /// `Shutdown` counts — `Evaluate`, `TopK` and `Batch` alike, initial
    /// dispatches and narrowed retries alike.
    pub kill_on_request: Option<u64>,
    /// Panic while evaluating the first fragment task the nth request
    /// evaluates, counted as for `kill_on_request`.
    pub panic_on_request: Option<u64>,
}

/// Render a caught panic payload for the typed wire error.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The engine a worker hosts for one fragment: a plain bounded/unbounded
/// [`FragmentEngine`], or a §5.5 [`BiLevelIndex`] pair that routes by the
/// query radius.
#[allow(clippy::large_enum_variant)] // one engine per fragment lives for the
                                     // worker's lifetime; boxing would only add indirection on the hot path
pub enum WorkerEngine {
    Single(FragmentEngine),
    BiLevel(BiLevelIndex),
}

impl WorkerEngine {
    /// The fragment this engine serves.
    pub fn fragment(&self) -> disks_partition::FragmentId {
        match self {
            WorkerEngine::Single(e) => e.fragment(),
            WorkerEngine::BiLevel(b) => b.fragment(),
        }
    }

    /// Evaluate a normalized plan against a coverage store — in the worker
    /// loop, one request's shared slots layered over the LRU (§5.5 bi-level
    /// pairs route to the level admitting the plan's max radius first —
    /// both levels are exact for any radius they admit, so cache entries
    /// are shared across levels).
    pub fn evaluate_plan_with_store(
        &mut self,
        plan: &QueryPlan,
        store: &mut dyn CoverageStore,
    ) -> Result<(NodeRuns, QueryCost), QueryError> {
        match self {
            WorkerEngine::Single(e) => e.evaluate_plan_with_cache(plan, store),
            WorkerEngine::BiLevel(b) => b.evaluate_plan_with_cache(plan, store),
        }
    }

    /// Local top-k on the hosted fragment.
    pub fn topk_local(
        &mut self,
        q: &disks_core::TopKQuery,
    ) -> Result<(Vec<disks_core::Ranked>, QueryCost), QueryError> {
        match self {
            WorkerEngine::Single(e) => e.topk_local(q),
            WorkerEngine::BiLevel(b) => b.topk_local(q),
        }
    }
}

/// One fragment's view of the worker's [`CoverageCache`] for the duration
/// of one request, with a shared result map layered over it: the first plan
/// of the request to reference a slot resolves it through the LRU (counted
/// as a hit or miss); every later reference is served from the shared map
/// and counted in `WireCost::batch_shared` instead, so the LRU ledger stays
/// exact and the slot's Dijkstra runs at most once per request per
/// fragment. A plan's slots are distinct, so a request of one plan shares
/// nothing.
struct BatchStore<'a> {
    fragment: u32,
    cache: &'a mut CoverageCache,
    resolved: HashMap<(Term, u64), Arc<BitSet>>,
    shared: u64,
}

impl CoverageStore for BatchStore<'_> {
    fn lookup(&mut self, slot: &DTerm) -> Option<Arc<BitSet>> {
        if let Some(cov) = self.resolved.get(&(slot.term, slot.radius)) {
            self.shared += 1;
            return Some(Arc::clone(cov));
        }
        let hit = self.cache.get(self.fragment, slot.term, slot.radius)?;
        self.resolved.insert((slot.term, slot.radius), Arc::clone(&hit));
        Some(hit)
    }
    fn store(&mut self, slot: &DTerm, coverage: &Arc<BitSet>) {
        self.resolved.insert((slot.term, slot.radius), Arc::clone(coverage));
        self.cache.insert(self.fragment, slot.term, slot.radius, Arc::clone(coverage));
    }
}

/// Run one task under `catch_unwind`, so a panic (injected by `panic_now`,
/// or genuine) becomes a typed [`QueryError::WorkerPanic`] instead of a dead
/// thread.
fn guarded<T>(
    panic_now: bool,
    task: impl FnOnce() -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        if panic_now {
            panic!("injected evaluation fault");
        }
        task()
    }))
    .unwrap_or_else(|payload| Err(QueryError::WorkerPanic(panic_message(payload))))
}

/// One plan on one hosted engine — the only way from a decoded frame to an
/// answer. On success the wire cost carries the cache activity the task
/// caused: the difference in the LRU's running counters and in the slots
/// served from the shared map.
fn evaluate_task(
    engine: &mut WorkerEngine,
    plan: &QueryPlan,
    store: &mut BatchStore,
    panic_now: bool,
) -> Result<(NodeRuns, WireCost), QueryError> {
    let (cache_before, shared_before) = (store.cache.counters(), store.shared);
    let (nodes, cost) = guarded(panic_now, || engine.evaluate_plan_with_store(plan, store))?;
    let delta = store.cache.counters().since(&cache_before);
    let mut wire = WireCost::from(&cost);
    wire.cache_hits = delta.hits;
    wire.cache_misses = delta.misses;
    wire.cache_evictions = delta.evictions;
    wire.cache_bypassed = delta.bypassed;
    wire.batch_shared = store.shared - shared_before;
    Ok((nodes, wire))
}

/// Run the worker loop until a `Shutdown` request, channel closure, or an
/// injected crash. Every request is answered statelessly from the hosted
/// engines — the coverage cache is a transparent accelerator, so
/// re-dispatched (retried) tasks remain idempotent by construction; a
/// respawned worker gets a fresh (cold) cache because the cache lives and
/// dies with the thread.
pub fn worker_loop(
    mut engines: Vec<WorkerEngine>,
    requests: Receiver<Bytes>,
    responses: LinkSender,
    faults: WorkerFaults,
    cache_budget: usize,
) {
    let mut cache = CoverageCache::new(cache_budget);
    let mut request_count: u64 = 0;
    while let Ok(frame) = requests.recv() {
        let request = match decode_frame::<Request>(frame) {
            Ok(r) => r,
            Err(_) => continue, // malformed frame: drop, as a server would
        };
        if !matches!(request, Request::Shutdown) {
            request_count += 1;
            if faults.kill_on_request == Some(request_count) {
                return; // simulated machine crash: no response, thread gone
            }
        }
        let inject_panic = faults.panic_on_request == Some(request_count);
        let sent = match request {
            Request::Shutdown => break,
            Request::TopK { query_id, query, fragments } => {
                let mut inject_panic = inject_panic;
                hosted(&mut engines, &fragments).all(|engine| {
                    let fragment = engine.fragment().0;
                    let panic_now = std::mem::take(&mut inject_panic);
                    let task = guarded(panic_now, || engine.topk_local(&query));
                    responses.send(encode_frame(&match task {
                        Ok((ranked, cost)) => Response::TopKResults {
                            query_id,
                            fragment,
                            ranked,
                            cost: WireCost::from(&cost),
                        },
                        Err(error) => Response::Failed { query_id, fragment, error },
                    }))
                })
            }
            // A single query is a batch of one that targets every fragment
            // its request selects, answered in the frames its own request
            // kind names.
            Request::Evaluate { query_id, plan, fragments } => answer(
                &mut engines,
                &fragments,
                &[(plan, Targets::Every)],
                inject_panic,
                &mut cache,
                &responses,
                |fragment, mut answers| match answers.pop().expect("one plan, one answer") {
                    BatchAnswer::Results { nodes, cost } => {
                        Response::Results { query_id, fragment, nodes, cost }
                    }
                    BatchAnswer::Failed(error) => Response::Failed { query_id, fragment, error },
                    BatchAnswer::Skipped => unreachable!("a lone plan targets every fragment"),
                },
            ),
            Request::Batch { base, plan, fragments } => answer(
                &mut engines,
                &fragments,
                &plan.split().into_iter().zip(plan.targets().cloned()).collect::<Vec<_>>(),
                inject_panic,
                &mut cache,
                &responses,
                |fragment, answers| Response::BatchResults { base, fragment, answers },
            ),
        };
        if !sent {
            return; // coordinator gone
        }
    }
}

/// Evaluate `plans` on every hosted fragment the request selects, sharing
/// slots across them through a per-fragment [`BatchStore`], and send each
/// fragment's answers (in plan order) as the frame `reply` makes of them.
/// A plan is evaluated only on its targets, and answers
/// [`BatchAnswer::Skipped`] elsewhere; a fragment no plan targets gets no
/// frame. An injected panic fails the first task evaluated only. Returns
/// `false` when the coordinator is gone.
fn answer(
    engines: &mut [WorkerEngine],
    fragments: &[u32],
    plans: &[(QueryPlan, Targets)],
    mut inject_panic: bool,
    cache: &mut CoverageCache,
    responses: &LinkSender,
    reply: impl Fn(u32, Vec<BatchAnswer>) -> Response,
) -> bool {
    hosted(engines, fragments).all(|engine| {
        let fragment = engine.fragment().0;
        if !plans.iter().any(|(_, targets)| targets.contains(fragment)) {
            return true;
        }
        let mut store =
            BatchStore { fragment, cache: &mut *cache, resolved: HashMap::new(), shared: 0 };
        let answers = plans
            .iter()
            .map(|(plan, targets)| {
                if !targets.contains(fragment) {
                    return BatchAnswer::Skipped;
                }
                let panic_now = std::mem::take(&mut inject_panic);
                match evaluate_task(engine, plan, &mut store, panic_now) {
                    Ok((nodes, cost)) => BatchAnswer::Results { nodes, cost },
                    Err(e) => BatchAnswer::Failed(e),
                }
            })
            .collect();
        responses.send(encode_frame(&reply(fragment, answers)))
    })
}

/// Iterate the hosted engines selected by a request's fragment filter
/// (empty = all).
fn hosted<'a>(
    engines: &'a mut [WorkerEngine],
    fragments: &'a [u32],
) -> impl Iterator<Item = &'a mut WorkerEngine> {
    engines.iter_mut().filter(move |e| fragments.is_empty() || fragments.contains(&e.fragment().0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireCost;
    use crate::transport::counted_link;
    use crossbeam::channel::unbounded;
    use disks_core::{build_all_indexes, DFunction, IndexConfig, SetOp, Term};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::KeywordId;

    #[test]
    fn worker_answers_and_shuts_down() {
        let net = GridNetworkConfig::tiny(60).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let engines: Vec<WorkerEngine> = indexes
            .iter()
            .map(|i| WorkerEngine::Single(FragmentEngine::new(&net, &p, i).unwrap()))
            .collect();

        let (req_tx, req_rx) = unbounded();
        let (resp_tx, resp_rx, counters) = counted_link();
        let handle = std::thread::spawn(move || {
            worker_loop(engines, req_rx, resp_tx, WorkerFaults::default(), 1 << 20)
        });

        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        let f = DFunction::single(Term::Keyword(top), 3 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        req_tx
            .send(encode_frame(&Request::Evaluate { query_id: 1, plan, fragments: vec![] }))
            .unwrap();

        // Two fragments hosted → two responses.
        let mut fragments = Vec::new();
        for _ in 0..2 {
            let frame = resp_rx.recv().unwrap();
            match decode_frame::<Response>(frame).unwrap() {
                Response::Results { query_id, fragment, cost, .. } => {
                    assert_eq!(query_id, 1);
                    assert_ne!(cost, WireCost::default());
                    fragments.push(fragment);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        fragments.sort_unstable();
        assert_eq!(fragments, vec![0, 1]);
        assert!(counters.bytes() > 0);

        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
    }

    /// Radius validation now happens at coordinator admission; the worker's
    /// last-line debug assert turns an out-of-contract plan into a typed
    /// `WorkerPanic` on the wire instead of a dead thread.
    #[test]
    #[cfg(debug_assertions)]
    fn out_of_contract_radius_becomes_typed_worker_panic() {
        let net = GridNetworkConfig::tiny(61).generate();
        let p = MultilevelPartitioner::default().partition(&net, 1);
        let cfg = IndexConfig::with_max_r(net.avg_edge_weight());
        let indexes = build_all_indexes(&net, &p, &cfg);
        let engines: Vec<WorkerEngine> = indexes
            .iter()
            .map(|i| WorkerEngine::Single(FragmentEngine::new(&net, &p, i).unwrap()))
            .collect();
        let (req_tx, req_rx) = unbounded();
        let (resp_tx, resp_rx, _) = counted_link();
        let handle = std::thread::spawn(move || {
            worker_loop(engines, req_rx, resp_tx, WorkerFaults::default(), 0)
        });
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 1_000_000_000);
        let plan = QueryPlan::lower(&f);
        req_tx
            .send(encode_frame(&Request::Evaluate { query_id: 2, plan, fragments: vec![] }))
            .unwrap();
        match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
            Response::Failed { query_id, error: QueryError::WorkerPanic(msg), .. } => {
                assert_eq!(query_id, 2);
                assert!(msg.contains("maxR"), "debug guard names the violated bound: {msg}");
            }
            other => panic!("expected WorkerPanic failure, got {other:?}"),
        }
        drop(req_tx); // channel closure also terminates the worker
        handle.join().unwrap();
    }

    /// Repeated plans hit the coverage cache: the second response reports
    /// hits, zero settled nodes, and the identical result set. An `Evaluate`
    /// is a batch of one, and a plan's slots are distinct, so neither
    /// response reports a slot shared within its request.
    #[test]
    fn repeated_plan_served_from_cache() {
        let net = GridNetworkConfig::tiny(66).generate();
        let p = MultilevelPartitioner::default().partition(&net, 1);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let engines: Vec<WorkerEngine> = indexes
            .iter()
            .map(|i| WorkerEngine::Single(FragmentEngine::new(&net, &p, i).unwrap()))
            .collect();
        let (req_tx, req_rx) = unbounded();
        let (resp_tx, resp_rx, _) = counted_link();
        let handle = std::thread::spawn(move || {
            worker_loop(engines, req_rx, resp_tx, WorkerFaults::default(), 1 << 20)
        });
        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        // Radii wide enough that both coverages clear the cache's
        // small-content bypass threshold (content ≥ `ENTRY_OVERHEAD`).
        let e = net.avg_edge_weight();
        let plan = QueryPlan::lower(&DFunction::single(Term::Keyword(top), 3 * e).then(
            SetOp::Union,
            Term::Keyword(top),
            4 * e,
        ));
        assert_eq!(plan.num_slots(), 2);
        for qid in 1..=2u64 {
            let req = Request::Evaluate { query_id: qid, plan: plan.clone(), fragments: vec![] };
            req_tx.send(encode_frame(&req)).unwrap();
        }
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
                Response::Results { query_id, nodes, cost, .. } => {
                    outcomes.push((query_id, nodes, cost))
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        outcomes.sort_by_key(|(qid, _, _)| *qid);
        let (_, cold_nodes, cold) = &outcomes[0];
        let (_, warm_nodes, warm) = &outcomes[1];
        assert_eq!(cold_nodes, warm_nodes, "cache hit never changes the answer");
        assert_eq!((cold.cache_hits, cold.cache_misses, cold.batch_shared), (0, 2, 0));
        assert_eq!((warm.cache_hits, warm.cache_misses, warm.batch_shared), (2, 0, 0));
        assert!(cold.settled > 0);
        assert_eq!(warm.settled, 0, "hit skips the coverage Dijkstra");
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_frames_are_dropped() {
        let net = GridNetworkConfig::tiny(62).generate();
        let p = MultilevelPartitioner::default().partition(&net, 1);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let engines: Vec<WorkerEngine> = indexes
            .iter()
            .map(|i| WorkerEngine::Single(FragmentEngine::new(&net, &p, i).unwrap()))
            .collect();
        let (req_tx, req_rx) = unbounded();
        let (resp_tx, resp_rx, _) = counted_link();
        let handle = std::thread::spawn(move || {
            worker_loop(engines, req_rx, resp_tx, WorkerFaults::default(), 1 << 20)
        });
        req_tx.send(Bytes::from_static(&[0xde, 0xad])).unwrap();
        // Worker survives; a valid shutdown still works.
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        assert!(resp_rx.try_recv().is_err(), "no response to garbage");
    }

    fn spawn_worker(
        seed: u64,
        faults: WorkerFaults,
    ) -> (
        crossbeam::channel::Sender<Bytes>,
        crossbeam::channel::Receiver<Bytes>,
        std::thread::JoinHandle<()>,
        disks_roadnet::RoadNetwork,
    ) {
        let net = GridNetworkConfig::tiny(seed).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let engines: Vec<WorkerEngine> = indexes
            .iter()
            .map(|i| WorkerEngine::Single(FragmentEngine::new(&net, &p, i).unwrap()))
            .collect();
        let (req_tx, req_rx) = unbounded();
        let (resp_tx, resp_rx, _) = counted_link();
        let handle =
            std::thread::spawn(move || worker_loop(engines, req_rx, resp_tx, faults, 1 << 20));
        (req_tx, resp_rx, handle, net)
    }

    fn top_kw(net: &disks_roadnet::RoadNetwork) -> KeywordId {
        let freqs = net.keyword_frequencies();
        KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32)
    }

    #[test]
    fn injected_panic_becomes_typed_failed_response() {
        let faults = WorkerFaults { kill_on_request: None, panic_on_request: Some(1) };
        let (req_tx, resp_rx, handle, net) = spawn_worker(63, faults);
        let f = DFunction::single(Term::Keyword(top_kw(&net)), 3 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        let request = Request::Evaluate { query_id: 1, plan: plan.clone(), fragments: vec![] };
        req_tx.send(encode_frame(&request)).unwrap();
        // First fragment panics (typed Failed), second still answers: the
        // thread survived the panic.
        let mut failed = 0;
        let mut ok = 0;
        for _ in 0..2 {
            match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
                Response::Failed { error: QueryError::WorkerPanic(msg), .. } => {
                    assert!(msg.contains("injected"));
                    failed += 1;
                }
                Response::Results { .. } => ok += 1,
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!((failed, ok), (1, 1));
        // The fault was one-shot: a retry of the same request succeeds.
        let retry = Request::Evaluate { query_id: 2, plan, fragments: vec![] };
        req_tx.send(encode_frame(&retry)).unwrap();
        for _ in 0..2 {
            match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
                Response::Results { query_id, .. } => assert_eq!(query_id, 2),
                other => panic!("retry must succeed, got {other:?}"),
            }
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn batch_request_shares_slots_and_isolates_failures() {
        use disks_core::SuperPlan;
        // A one-shot panic hits fragment 0's first query only; the rest of
        // the batch — including the same query on fragment 1 — still answers.
        let faults = WorkerFaults { kill_on_request: None, panic_on_request: Some(1) };
        let (req_tx, resp_rx, handle, net) = spawn_worker(67, faults);
        let kw = top_kw(&net);
        let r = 2 * net.avg_edge_weight();
        let shared = QueryPlan::lower(&DFunction::single(Term::Keyword(kw), r));
        let other = QueryPlan::lower(&DFunction::single(Term::Keyword(kw), 2 * r));
        let plans = vec![shared.clone(), other, shared];
        let req = Request::Batch { base: 10, plan: SuperPlan::merge(&plans), fragments: vec![] };
        req_tx.send(encode_frame(&req)).unwrap();

        let mut frames = Vec::new();
        for _ in 0..2 {
            match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
                Response::BatchResults { base, fragment, answers } => {
                    assert_eq!(base, 10);
                    assert_eq!(answers.len(), 3, "one answer per batched query");
                    frames.push((fragment, answers));
                }
                found => panic!("unexpected response: {found:?}"),
            }
        }
        frames.sort_by_key(|(fragment, _)| *fragment);
        let (_, f0) = &frames[0];
        let (_, f1) = &frames[1];
        assert!(
            matches!(&f0[0], BatchAnswer::Failed(QueryError::WorkerPanic(_))),
            "injected fault fails exactly the first query of the first fragment"
        );
        for answer in f0[1..].iter().chain(f1.iter()) {
            assert!(matches!(answer, BatchAnswer::Results { .. }));
        }
        // On the untouched fragment, queries 0 and 2 ran the same plan: the
        // first resolves the slot (LRU miss), the repeat is batch-shared —
        // identical nodes, no second Dijkstra, LRU ledger untouched.
        match (&f1[0], &f1[2]) {
            (
                BatchAnswer::Results { nodes: n0, cost: c0 },
                BatchAnswer::Results { nodes: n2, cost: c2 },
            ) => {
                assert_eq!(n0, n2, "slot sharing never changes the answer");
                assert_eq!((c0.cache_misses, c0.batch_shared), (1, 0));
                assert_eq!((c2.cache_hits, c2.cache_misses, c2.batch_shared), (0, 0, 1));
                assert!(c0.settled > 0);
                assert_eq!(c2.settled, 0, "shared slot skips the Dijkstra");
            }
            other => panic!("expected results, got {other:?}"),
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
    }

    /// A batch program is evaluated on its targets only: fragment 1, the
    /// only target, answers every program, skipping the one that targets
    /// nothing; fragment 0, no program's target, sends no frame — nor does
    /// either for a batch that targets nothing.
    #[test]
    fn a_batch_answers_only_on_its_targets() {
        use disks_core::SuperPlan;
        let (req_tx, resp_rx, handle, net) = spawn_worker(68, WorkerFaults::default());
        let plan = QueryPlan::lower(&DFunction::single(
            Term::Keyword(top_kw(&net)),
            2 * net.avg_edge_weight(),
        ));
        let plans = vec![plan.clone(), plan.clone(), plan];
        let targets = [Targets::Only(vec![1]), Targets::Only(vec![]), Targets::Only(vec![1, 3])];
        let merged = SuperPlan::merge_targeted(&plans, targets);
        req_tx
            .send(encode_frame(&Request::Batch { base: 5, plan: merged, fragments: vec![] }))
            .unwrap();
        let none = [Targets::Only(vec![]), Targets::Only(vec![]), Targets::Only(vec![])];
        let merged = SuperPlan::merge_targeted(&plans, none);
        req_tx
            .send(encode_frame(&Request::Batch { base: 8, plan: merged, fragments: vec![] }))
            .unwrap();
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        match decode_frame::<Response>(resp_rx.try_recv().unwrap()).unwrap() {
            Response::BatchResults { base: 5, fragment: 1, answers } => {
                assert!(matches!(answers[0], BatchAnswer::Results { .. }));
                assert_eq!(answers[1], BatchAnswer::Skipped);
                assert!(matches!(answers[2], BatchAnswer::Results { .. }));
            }
            other => panic!("expected fragment 1's answers, got {other:?}"),
        }
        assert!(resp_rx.try_recv().is_err(), "no frame for an untargeted fragment");
    }

    #[test]
    fn kill_fault_terminates_thread_without_response() {
        let faults = WorkerFaults { kill_on_request: Some(1), panic_on_request: None };
        let (req_tx, resp_rx, handle, net) = spawn_worker(64, faults);
        let f = DFunction::single(Term::Keyword(top_kw(&net)), net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        req_tx
            .send(encode_frame(&Request::Evaluate { query_id: 1, plan, fragments: vec![] }))
            .unwrap();
        handle.join().unwrap(); // thread exits on the killed request
        assert!(resp_rx.try_recv().is_err(), "crashed worker must not respond");
    }

    #[test]
    fn fragment_filter_narrows_evaluation() {
        let (req_tx, resp_rx, handle, net) = spawn_worker(65, WorkerFaults::default());
        let f = DFunction::single(Term::Keyword(top_kw(&net)), 2 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        req_tx
            .send(encode_frame(&Request::Evaluate { query_id: 1, plan, fragments: vec![1] }))
            .unwrap();
        match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
            Response::Results { fragment, .. } => assert_eq!(fragment, 1),
            other => panic!("unexpected response: {other:?}"),
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        assert!(resp_rx.try_recv().is_err(), "only the narrowed fragment answers");
    }
}
