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
//! Its one request is a [`Request::Batch`], answered in one
//! [`Response::BatchResults`] frame a targeted fragment. Every program,
//! ranked (top-k) or not, is evaluated one way, through the frame's slot
//! table and the coverage cache: a plan's answer is its nodes, a ranked
//! plan's its fragment's top-k. Any other frame but `Shutdown` is dropped
//! unanswered, a pinned `Evaluate` included.
//!
//! Engine evaluation runs under `catch_unwind`, so a panicking task becomes
//! a typed [`BatchAnswer::Failed`] on the wire instead of a dead thread; a
//! thread that does die (simulated crash) is detected and respawned by the
//! coordinator.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use disks_core::bitset::BitSet;
use disks_core::dfunc::DTerm;
use disks_core::{
    Answer, BiLevelIndex, CoverageStore, FragmentEngine, QueryError, QueryPlan, SuperPlan,
};

use crate::cache::CoverageCache;
use crate::message::{decode_frame, encode_frame, BatchAnswer, Request, Response, WireCost};
use crate::transport::LinkSender;

/// Injected lifecycle faults for one worker spawn (testing substrate; both
/// default to `None` in production spawns and in respawns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Exit the thread (simulated machine crash) upon receiving the nth
    /// request, before answering it. Every decoded `Batch` counts, initial
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
}

/// One fragment's view of the worker's [`CoverageCache`] for the duration
/// of one request, with what it resolved by the request's (deduplicated)
/// slot indexes layered over it: the first program to reference a slot
/// resolves it through the LRU (counted as a hit or miss); every later
/// reference is served from `resolved` and counted in
/// `WireCost::batch_shared` instead, so the LRU ledger stays exact and the
/// slot's Dijkstra runs at most once per request per fragment.
struct BatchStore<'a> {
    fragment: u32,
    cache: &'a mut CoverageCache,
    resolved: Vec<Option<Arc<BitSet>>>,
    shared: u64,
}

impl CoverageStore for BatchStore<'_> {
    fn lookup(&mut self, slot: u32, term: &DTerm) -> Option<Arc<BitSet>> {
        if let Some(cov) = &self.resolved[slot as usize] {
            self.shared += 1;
            return Some(Arc::clone(cov));
        }
        let hit = self.cache.get(self.fragment, term.term, term.radius)?;
        self.resolved[slot as usize] = Some(Arc::clone(&hit));
        Some(hit)
    }
    fn store(&mut self, slot: u32, term: &DTerm, coverage: &Arc<BitSet>) {
        self.resolved[slot as usize] = Some(Arc::clone(coverage));
        self.cache.insert(self.fragment, term.term, term.radius, Arc::clone(coverage));
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

/// One program of a decoded frame on one hosted engine, evaluated in place
/// over the frame's slot table, the request's shared slots layered over the
/// LRU — the only way from a frame to an answer: a plan's nodes, or a ranked
/// program's local top-k. (A §5.5 bi-level pair routes to the level
/// admitting the plan's max radius; both are exact for any radius they
/// admit, so cache entries are shared across levels.) The wire cost of
/// either carries the cache activity the task caused: the difference in the
/// LRU's running counters and in the slots served from the request's table.
fn evaluate_task(
    engine: &mut WorkerEngine,
    plan: &QueryPlan,
    store: &mut BatchStore,
    panic_now: bool,
) -> BatchAnswer {
    let (cache_before, shared_before) = (store.cache.counters(), store.shared);
    let evaluate = || match engine {
        WorkerEngine::Single(e) => e.evaluate_plan_with_cache(plan, store),
        WorkerEngine::BiLevel(b) => b.evaluate_plan_with_cache(plan, store),
    };
    let (answer, cost) = match guarded(panic_now, evaluate) {
        Ok(answer) => answer,
        Err(e) => return BatchAnswer::Failed(e),
    };
    let delta = store.cache.counters().since(&cache_before);
    let mut wire = WireCost::from(&cost);
    wire.cache_hits = delta.hits;
    wire.cache_misses = delta.misses;
    wire.cache_evictions = delta.evictions;
    wire.cache_bypassed = delta.bypassed;
    wire.batch_shared = store.shared - shared_before;
    match answer {
        Answer::Nodes(nodes) => BatchAnswer::Results { nodes, cost: wire },
        Answer::Ranked(ranked) => BatchAnswer::Ranked { ranked, cost: wire },
    }
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
        let (base, plan, fragments) = match decode_frame::<Request>(frame) {
            Ok(Request::Batch { base, plan, fragments }) => (base, plan, fragments),
            Ok(Request::Shutdown) => break,
            // A malformed frame, or an `Evaluate` no coordinator sends:
            // drop it, as a server would.
            _ => continue,
        };
        request_count += 1;
        if faults.kill_on_request == Some(request_count) {
            return; // simulated machine crash: no response, thread gone
        }
        let inject_panic = faults.panic_on_request == Some(request_count);
        if !answer(&mut engines, &fragments, base, &plan, inject_panic, &mut cache, &responses) {
            return; // coordinator gone
        }
    }
}

/// Evaluate `plan`'s programs, queries `base+1 ..`, on every hosted fragment
/// the request's `fragments` list selects (all when it is empty), sharing
/// slots across them through a per-fragment [`BatchStore`], and send each
/// fragment's answers (in program order) as one
/// [`Response::BatchResults`] frame. A program is evaluated only on its
/// targets, and answers [`BatchAnswer::Skipped`] elsewhere; a fragment no
/// program targets gets no frame. An injected panic fails the first task
/// evaluated only. Returns `false` when the coordinator is gone.
fn answer(
    engines: &mut [WorkerEngine],
    fragments: &[u32],
    base: u64,
    plan: &SuperPlan,
    mut inject_panic: bool,
    cache: &mut CoverageCache,
    responses: &LinkSender,
) -> bool {
    let plans = plan.programs();
    let selected =
        |e: &&mut WorkerEngine| fragments.is_empty() || fragments.contains(&e.fragment().0);
    engines.iter_mut().filter(selected).all(|engine| {
        let fragment = engine.fragment().0;
        if !plans.iter().any(|(_, targets)| targets.contains(fragment)) {
            return true;
        }
        let resolved = vec![None; plan.num_slots()];
        let mut store = BatchStore { fragment, cache: &mut *cache, resolved, shared: 0 };
        let answers = plans
            .iter()
            .map(|(plan, targets)| {
                if !targets.contains(fragment) {
                    return BatchAnswer::Skipped;
                }
                let panic_now = std::mem::take(&mut inject_panic);
                evaluate_task(engine, plan, &mut store, panic_now)
            })
            .collect();
        responses.send(encode_frame(&Response::BatchResults { base, fragment, answers }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireCost;
    use crate::transport::counted_link;
    use crossbeam::channel::unbounded;
    use disks_core::{build_all_indexes, DFunction, IndexConfig, SetOp, SuperPlan, Targets, Term};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::KeywordId;

    /// Query `query_id` as the coordinator sends it: a batch of one that
    /// evaluates `plan` on `targets`.
    fn batch_of_one(query_id: u64, plan: QueryPlan, targets: Targets) -> Request {
        let plan = SuperPlan::merge_targeted(&[plan], [targets]);
        Request::Batch { base: query_id - 1, plan, fragments: vec![] }
    }

    /// The reply to a batch of one: its query id, fragment and one answer.
    fn lone_answer(frame: Bytes) -> (u64, u32, BatchAnswer) {
        match decode_frame::<Response>(frame).unwrap() {
            Response::BatchResults { base, fragment, mut answers } => {
                assert_eq!(answers.len(), 1, "one program, one answer");
                (base + 1, fragment, answers.pop().unwrap())
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

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
        req_tx.send(encode_frame(&batch_of_one(1, plan, Targets::Every))).unwrap();

        // Two fragments hosted → two responses.
        let mut fragments = Vec::new();
        for _ in 0..2 {
            match lone_answer(resp_rx.recv().unwrap()) {
                (query_id, fragment, BatchAnswer::Results { cost, .. }) => {
                    assert_eq!(query_id, 1);
                    assert_ne!(cost, WireCost::default());
                    fragments.push(fragment);
                }
                other => panic!("unexpected answer: {other:?}"),
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
        req_tx.send(encode_frame(&batch_of_one(2, plan, Targets::Every))).unwrap();
        match lone_answer(resp_rx.recv().unwrap()) {
            (query_id, _, BatchAnswer::Failed(QueryError::WorkerPanic(msg))) => {
                assert_eq!(query_id, 2);
                assert!(msg.contains("maxR"), "debug guard names the violated bound: {msg}");
            }
            other => panic!("expected WorkerPanic failure, got {other:?}"),
        }
        drop(req_tx); // channel closure also terminates the worker
        handle.join().unwrap();
    }

    /// Repeated plans hit the coverage cache: the second response reports
    /// hits, zero settled nodes, and the identical result set. Each request
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
            let req = batch_of_one(qid, plan.clone(), Targets::Every);
            req_tx.send(encode_frame(&req)).unwrap();
        }
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            match lone_answer(resp_rx.recv().unwrap()) {
                (query_id, _, BatchAnswer::Results { nodes, cost }) => {
                    outcomes.push((query_id, nodes, cost))
                }
                other => panic!("unexpected answer: {other:?}"),
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
        req_tx.send(encode_frame(&batch_of_one(1, plan.clone(), Targets::Every))).unwrap();
        // First fragment panics (typed Failed), second still answers: the
        // thread survived the panic.
        let mut failed = 0;
        let mut ok = 0;
        for _ in 0..2 {
            match lone_answer(resp_rx.recv().unwrap()) {
                (_, _, BatchAnswer::Failed(QueryError::WorkerPanic(msg))) => {
                    assert!(msg.contains("injected"));
                    failed += 1;
                }
                (_, _, BatchAnswer::Results { .. }) => ok += 1,
                other => panic!("unexpected answer: {other:?}"),
            }
        }
        assert_eq!((failed, ok), (1, 1));
        // The fault was one-shot: a retry of the same request succeeds.
        req_tx.send(encode_frame(&batch_of_one(2, plan, Targets::Every))).unwrap();
        for _ in 0..2 {
            match lone_answer(resp_rx.recv().unwrap()) {
                (query_id, _, BatchAnswer::Results { .. }) => assert_eq!(query_id, 2),
                other => panic!("retry must succeed, got {other:?}"),
            }
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn batch_request_shares_slots_and_isolates_failures() {
        use disks_core::{ScoreCombine, SgkQuery, SuperPlan, TopKQuery};
        // A one-shot panic hits fragment 0's first query only; the rest of
        // the batch — including the same query on fragment 1 — still answers.
        let faults = WorkerFaults { kill_on_request: None, panic_on_request: Some(1) };
        let (req_tx, resp_rx, handle, net) = spawn_worker(67, faults);
        let kw = top_kw(&net);
        let r = 2 * net.avg_edge_weight();
        let shared = QueryPlan::lower(&DFunction::single(Term::Keyword(kw), r));
        let other = QueryPlan::lower(&DFunction::single(Term::Keyword(kw), 2 * r));
        // An SGKQ and the top-k over its keyword slots: the ranked program
        // resolves both through the batch's table.
        let freqs = net.keyword_frequencies();
        let second = (0..freqs.len() as u32).map(KeywordId).filter(|&k| k != kw);
        let second = second.max_by_key(|k| freqs[k.index()]).unwrap();
        let sgkq = QueryPlan::lower(&SgkQuery::new(vec![kw, second], 2 * r).to_dfunction());
        let topk = TopKQuery::new(vec![kw, second], 5, 2 * r, ScoreCombine::Sum);
        let plans = vec![shared.clone(), other, shared, sgkq, QueryPlan::topk(&topk).unwrap()];
        let req = Request::Batch { base: 10, plan: SuperPlan::merge(&plans), fragments: vec![] };
        req_tx.send(encode_frame(&req)).unwrap();

        let mut frames = Vec::new();
        for _ in 0..2 {
            match decode_frame::<Response>(resp_rx.recv().unwrap()).unwrap() {
                Response::BatchResults { base, fragment, answers } => {
                    assert_eq!(base, 10);
                    assert_eq!(answers.len(), 5, "one answer per batched query");
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
        for answer in f0[1..4].iter().chain(&f1[..4]) {
            assert!(matches!(answer, BatchAnswer::Results { .. }));
        }
        // The ranked program found both its slots in the batch's table, on
        // either fragment, and ranked only nodes the SGKQ answers.
        for answers in [f0, f1] {
            let (BatchAnswer::Results { nodes, .. }, BatchAnswer::Ranked { ranked, cost }) =
                (&answers[3], &answers[4])
            else {
                panic!("expected the SGKQ's nodes and the top-k's ranking, got {answers:?}");
            };
            assert!(!ranked.is_empty());
            assert!(ranked.iter().all(|(_, node)| nodes.to_vec().contains(node)));
            assert_eq!((cost.cache_hits, cost.cache_misses, cost.batch_shared), (0, 0, 2));
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
        req_tx.send(encode_frame(&batch_of_one(1, plan, Targets::Every))).unwrap();
        handle.join().unwrap(); // thread exits on the killed request
        assert!(resp_rx.try_recv().is_err(), "crashed worker must not respond");
    }

    #[test]
    fn a_lone_program_answers_only_on_its_targets() {
        let (req_tx, resp_rx, handle, net) = spawn_worker(65, WorkerFaults::default());
        let f = DFunction::single(Term::Keyword(top_kw(&net)), 2 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        req_tx.send(encode_frame(&batch_of_one(1, plan, Targets::Only(vec![1])))).unwrap();
        match lone_answer(resp_rx.recv().unwrap()) {
            (_, fragment, BatchAnswer::Results { .. }) => assert_eq!(fragment, 1),
            other => panic!("unexpected answer: {other:?}"),
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        assert!(resp_rx.try_recv().is_err(), "only the narrowed fragment answers");
    }

    /// A non-empty `fragments` list on the frame narrows a batch whose
    /// programs target every fragment to the hosted fragments it lists; a
    /// listed fragment the worker does not host adds nothing.
    #[test]
    fn the_frames_fragment_list_selects_the_hosted_fragments_that_answer() {
        let (req_tx, resp_rx, handle, net) = spawn_worker(70, WorkerFaults::default());
        let f = DFunction::single(Term::Keyword(top_kw(&net)), 2 * net.avg_edge_weight());
        let plan = SuperPlan::merge(&[QueryPlan::lower(&f), QueryPlan::lower(&f)]);
        for (base, fragments) in [(0, vec![1]), (2, vec![0, 7]), (4, vec![7])] {
            let req = Request::Batch { base, plan: plan.clone(), fragments };
            req_tx.send(encode_frame(&req)).unwrap();
        }
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        let mut answered = Vec::new();
        while let Ok(frame) = resp_rx.try_recv() {
            match decode_frame::<Response>(frame).unwrap() {
                Response::BatchResults { base, fragment, answers } => {
                    assert!(answers.iter().all(|a| matches!(a, BatchAnswer::Results { .. })));
                    answered.push((base, fragment));
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!(answered, vec![(0, 1), (2, 0)], "only listed hosted fragments answer");
    }

    /// No coordinator sends an `Evaluate`, so a worker drops it unanswered,
    /// as it drops a malformed frame, and answers the `Batch` behind it.
    #[test]
    fn an_evaluate_gets_no_answer() {
        let (req_tx, resp_rx, handle, net) = spawn_worker(69, WorkerFaults::default());
        let f = DFunction::single(Term::Keyword(top_kw(&net)), 2 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&f);
        let evaluate = Request::Evaluate { query_id: 7, plan: plan.clone(), fragments: vec![1] };
        req_tx.send(encode_frame(&evaluate)).unwrap();
        req_tx.send(encode_frame(&batch_of_one(8, plan, Targets::Only(vec![1])))).unwrap();
        req_tx.send(encode_frame(&Request::Shutdown)).unwrap();
        handle.join().unwrap();
        assert!(matches!(
            lone_answer(resp_rx.try_recv().unwrap()),
            (8, 1, BatchAnswer::Results { .. })
        ));
        assert!(resp_rx.try_recv().is_err(), "the Evaluate got no answer");
    }
}
