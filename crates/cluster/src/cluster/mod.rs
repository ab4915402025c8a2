//! The coordinator and cluster lifecycle.
//!
//! `Cluster::build` partitions responsibility: each worker thread receives
//! the [`disks_core::FragmentEngine`]s of its assigned fragments (built from
//! the global network **once**, here — after that the global network is no
//! longer consulted by any worker), plus a request channel and a counted
//! response link. A stream is cut into windows of 16, all dispatched before
//! any is gathered: a window, of one query or of sixteen, fans out as one
//! `Batch` frame per machine hosting a fragment some query of it targets
//! and gathers one `BatchResults` frame per targeted fragment; the final
//! result is the union of per-fragment results (Lemma 1). A query targets
//! the fragments where none of its conjuncts is seedless: a keyword has a
//! seed where a node bears it or its keyword-portal list is within the
//! radius, a location in its own fragment and where its DL entry is within
//! the radius. The others would answer ∅. A top-k is the plan of its
//! keywords' conjunction at the horizon, ranked (`QueryPlan::topk`): it
//! targets, rides and retries as any plan does, and each target answers
//! with its local top-k.
//!
//! The `impl Cluster` is split by responsibility: `config` (the knob
//! table), `supervise` (build / spawn / respawn / shutdown), `gather` (the
//! response state machine) and `dispatch` (group → windows → frames →
//! stats). This file keeps the struct, admission and the public entry
//! points — all of which end in the one path through `dispatch`.
//!
//! # Failure model
//!
//! The gather loop never blocks indefinitely: it tracks which `(query_id,
//! fragment)` pairs have answered, treats prolonged silence as a stalled
//! task, and re-dispatches a *narrowed* `Batch` of one, its program
//! targeting only the missing fragments, to their owners. Fragment tasks
//! are stateless and idempotent, so retries and duplicate deliveries are
//! safe — duplicates are deduplicated by `(query_id, fragment)` and Lemma
//! 1's union is unchanged. A worker whose
//! thread died (send failure or finished join handle) is respawned from a
//! retained rebuild spec. After `max_attempts` dispatches a still-missing
//! fragment either fails the query with a typed
//! [`QueryError::WorkerTimeout`] or, under
//! [`ClusterConfig::allow_partial`], degrades the result and lists the
//! fragment in [`QueryStats::degraded_fragments`].
//!
//! A `(query_id, fragment)` pair the coordinator pruned — the fragment has
//! no seed for one of the query's conjuncts ([`disks_core::SeedFloors`]) —
//! is complete from the start: nothing was sent for it, so it is never
//! waited for, retried or listed as degraded.

mod assemble;
mod config;
mod dispatch;
mod gather;
mod supervise;

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Receiver;
use disks_core::{
    merge_topk, DFunction, DlScope, NodeRuns, QClassQuery, QueryError, QueryPlan,
    RangeKeywordQuery, Ranked, SeedFloors, SgkQuery, TopKQuery,
};
use disks_partition::FragmentId;
use disks_roadnet::NodeId;

pub use self::assemble::AnswerGather;
pub use self::config::{ClusterConfig, ConfigError};
pub use self::supervise::RemoteWorkerCommand;

use self::gather::GatherEvent;
use self::supervise::{RespawnSpec, WorkerHandle};
use crate::cache::CacheCounters;
use crate::message::BatchAnswer;
use crate::scheduler::Placement;
use crate::stats::{MachineCost, OverloadCounters, QueryStats, RecoveryCounters};
use crate::transport::{LinkCounters, LinkSender};

/// Result + statistics of one distributed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Union of per-fragment results, strictly ascending by node id. When
    /// [`QueryStats::degraded_fragments`] is non-empty this is the union of
    /// the fragments that *did* answer.
    pub results: Vec<NodeId>,
    pub stats: QueryStats,
}

/// A running share-nothing cluster.
pub struct Cluster {
    workers: RefCell<Vec<WorkerHandle>>,
    responses: Receiver<Bytes>,
    /// A retained sender half so the response channel never disconnects
    /// even if every worker is dead, and so respawned workers can be handed
    /// a fresh counted link.
    resp_tx: LinkSender,
    from_workers: Arc<LinkCounters>,
    /// Lifetime count of frames consumed off `responses`, matched against
    /// `from_workers.messages()` by the straggler drain that ends `gather`,
    /// so duplicate/late-frame attribution does not depend on how the
    /// transport's pump threads happen to be scheduled.
    consumed_responses: Cell<u64>,
    /// Frames the wire ledger says were sent but that the straggler drain
    /// gave up waiting for (dropped on the wire, torn mid-frame, stranded
    /// in a dead worker's egress queue) — forgiven so no later drain waits
    /// on them again.
    forgiven_responses: Cell<u64>,
    placement: Placement,
    /// Lifetime worker-reported evaluation time per machine (µs), credited
    /// to each answered fragment's owner — the observed compute behind
    /// [`Cluster::unbalance_factor`].
    compute_micros: RefCell<Vec<u64>>,
    /// DL scope of the indexes, for query-location validation.
    dl_scope: DlScope,
    /// The indexes' seed floors: a plan targets the fragments that can
    /// answer it. `None` (bi-level and remote clusters, whose indexes the
    /// coordinator does not hold): every fragment is a target.
    floors: Option<SeedFloors>,
    /// Global object bitmap: the coordinator validates RKQ locations before
    /// dispatch (workers cannot — they are share-nothing; see
    /// `FragmentEngine::coverage`).
    is_object: Vec<bool>,
    /// Scratch bitmap over V that dense answers are assembled through, each
    /// as its last fragment answers (`run_stream`); zero between queries.
    answer_gather: RefCell<AnswerGather>,
    /// Largest radius the cluster admits: the indexes' `maxR` for a bounded
    /// single-level deployment, [`disks_roadnet::INF`] for unbounded or §5.5 bi-level
    /// deployments (whose secondary serves any radius).
    admission_max_r: u64,
    /// Lifetime initial-dispatch frames: the first term of the frame ledger.
    dispatch_frames: Cell<u64>,
    query_counter: Cell<u64>,
    respawn: RespawnSpec,
    recovery: Cell<RecoveryCounters>,
    /// Cumulative coverage-cache counters over the cluster's lifetime.
    cache: Cell<CacheCounters>,
    /// The construction parameters, normalised once at build
    /// (`ClusterConfig::normalised`): respawn recreates workers like for
    /// like from it, and every later decision reads it instead of a copy.
    config: ClusterConfig,
}

impl Cluster {
    /// Number of worker machines.
    pub fn num_machines(&self) -> usize {
        self.workers.borrow().len()
    }

    /// The fragment → machine placement in effect.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Theorem 6's unbalance factor `U` over the cluster lifetime: the
    /// maximum / minimum worker-reported evaluation time across busy
    /// machines, each answer credited to its fragment's owner.
    /// `1.0` while any busy machine has yet to report work (the convention
    /// [`QueryStats::unbalance_factor`] follows per query).
    pub fn unbalance_factor(&self) -> f64 {
        let compute = self.compute_micros.borrow();
        let busy: Vec<u64> = self.placement.busy_machines().map(|m| compute[m]).collect();
        let max = busy.iter().copied().max().unwrap_or(0);
        let min = busy.iter().copied().min().unwrap_or(0);
        if min == 0 {
            1.0
        } else {
            max as f64 / min as f64
        }
    }

    /// Cumulative recovery events observed over the cluster's lifetime
    /// (all queries, including pipelined batches).
    pub fn recovery_counters(&self) -> RecoveryCounters {
        self.recovery.get()
    }

    /// Cumulative worker coverage-cache counters over the cluster's
    /// lifetime (all queries, including pipelined batches), as reported on
    /// the response frames.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.get()
    }

    /// Lifetime initial-dispatch frames (and a `shed` that is always 0).
    pub fn overload_counters(&self) -> OverloadCounters {
        OverloadCounters { dispatch_frames: self.dispatch_frames.get(), shed: 0 }
    }

    /// Lifetime bytes sent over the coordinator→worker and
    /// worker→coordinator links. A delta of `(0, 0)` around a rejected
    /// query proves no worker ever saw it.
    pub fn link_totals(&self) -> (u64, u64) {
        let c2w = self.workers.borrow().iter().map(|w| w.link.counters().bytes()).sum();
        (c2w, self.from_workers.bytes())
    }

    /// Admit a query plan (coordinator-side admission): every invalid query
    /// is rejected here, *before* any dispatch, with the same typed
    /// [`QueryError`] a centralized engine raises. Workers therefore assume
    /// admitted plans and only carry `debug_assert` guards.
    fn admit(&self, plan: &QueryPlan) -> Result<(), QueryError> {
        let r = plan.max_radius();
        if r > self.admission_max_r {
            return Err(QueryError::RadiusExceedsMaxR { r, max_r: self.admission_max_r });
        }
        for l in plan.locations() {
            if l.index() >= self.is_object.len() {
                return Err(QueryError::UnindexedQueryLocation(l));
            }
            if self.dl_scope == DlScope::ObjectsOnly && !self.is_object[l.index()] {
                return Err(QueryError::UnindexedQueryLocation(l));
            }
        }
        Ok(())
    }

    /// Lifetime frames (not bytes) sent over the coordinator→worker and
    /// worker→coordinator links — the round-trip economy of batching shows
    /// up here as frames-per-query < 1.
    pub fn link_message_totals(&self) -> (u64, u64) {
        let c2w = self.workers.borrow().iter().map(|w| w.link.counters().messages()).sum();
        (c2w, self.from_workers.messages())
    }

    /// Run a D-function distributedly: lower it to a [`QueryPlan`], admit
    /// it, dispatch to busy machines, gather one response per fragment,
    /// union the results (Lemma 1). A single query is a stream of one: this
    /// is [`Cluster::run_stream`] on a one-element slice.
    pub fn run(&self, f: &DFunction) -> Result<QueryOutcome, QueryError> {
        let (mut outcomes, _) = self.run_stream(std::slice::from_ref(f));
        outcomes.pop().expect("one outcome per query")
    }

    /// Run a stream of D-functions through the batched dispatch path,
    /// returning a **per-query** `Result`: each query ends in exactly one of
    /// full results, typed-partial results (degraded fragments listed in
    /// its stats), or a typed error. An invalid query is refused at
    /// admission, before any dispatch, without failing the rest.
    ///
    /// All admitted queries are dispatched before any response is gathered,
    /// so worker machines process their queues concurrently — the
    /// throughput mode the paper's introduction motivates ("it will improve
    /// query throughput"). Windows of up to 16 admitted plans merge into
    /// per-worker super-plans. Each query's [`QueryOutcome`] carries its own
    /// exact per-machine wire costs, cache counters, and retry count
    /// (attribution is per query slot even inside a shared batch frame);
    /// see `query_stats` for the fields that are group-level by
    /// construction — notably `wall_time`, the group's completion offset
    /// from stream start.
    ///
    /// A query's answer is assembled when its last fragment answers, while
    /// the workers evaluate the windows behind it; what is left after the
    /// last frame is the statistics.
    pub fn run_stream(
        &self,
        fs: &[DFunction],
    ) -> (Vec<Result<QueryOutcome, QueryError>>, Duration) {
        let start = Instant::now();
        // Each query is refused, or slot `pos` of the one group.
        let mut plans: Vec<QueryPlan> = Vec::with_capacity(fs.len());
        let slots: Vec<Result<usize, QueryError>> = fs
            .iter()
            .map(|f| {
                let p = QueryPlan::lower(f);
                self.admit(&p).map(|()| {
                    plans.push(p);
                    plans.len() - 1
                })
            })
            .collect();
        let n = plans.len();
        let (c2w_before, _) = self.link_totals();
        let mut gather = self.answer_gather.borrow_mut();
        debug_assert!(gather.is_clear());
        // Each query's fragment answers as they arrive (disjoint), then its
        // assembled answer.
        let mut lists: Vec<Vec<NodeRuns>> = vec![Vec::new(); n];
        let mut answers: Vec<Option<Vec<NodeId>>> = vec![None; n];
        let mut per_machine: Vec<Vec<MachineCost>> =
            vec![vec![MachineCost::default(); self.num_machines()]; n];
        let mut cache_by_slot: Vec<CacheCounters> = vec![CacheCounters::default(); n];
        let mut on_event = |i: usize, event: GatherEvent| match event {
            GatherEvent::Payload(fragment, BatchAnswer::Results { nodes, cost }, bytes) => {
                let m = self.placement.machine_of(FragmentId(fragment));
                per_machine[i][m].absorb(fragment, &cost, bytes);
                cache_by_slot[i].absorb(&cost.cache_counters());
                if !nodes.is_empty() {
                    lists[i].push(nodes);
                }
            }
            GatherEvent::Payload(..) => {}
            GatherEvent::Complete => {
                answers[i] = Some(gather.assemble(&std::mem::take(&mut lists[i])));
            }
        };
        let group = (n > 0).then(|| self.run_plans(&plans, start, &mut on_event));
        debug_assert!(gather.is_clear());
        let elapsed = start.elapsed();
        let (c2w_after, _) = self.link_totals();
        let c2w_each = (c2w_after - c2w_before).checked_div(n as u64).unwrap_or(0);

        let out = slots
            .into_iter()
            .map(|slot| {
                let pos = slot?;
                let g = group.as_ref().expect("an admitted query ran");
                if let Some(e) = &g.error {
                    return Err(e.clone());
                }
                let nodes = answers[pos].take().expect("a gather that ends Ok closed every slot");
                let stats = self.query_stats(
                    g,
                    pos,
                    std::mem::take(&mut per_machine[pos]),
                    cache_by_slot[pos],
                    nodes.len(),
                    c2w_each,
                );
                Ok(QueryOutcome { results: nodes, stats })
            })
            .collect();
        (out, elapsed)
    }

    /// Run a top-k group keyword query distributedly: the plan of its
    /// keywords' conjunction at the horizon, ranked ([`QueryPlan::topk`]),
    /// is admitted and run like any plan, each fragment it targets ships its
    /// local top-k, and the coordinator merges them (exact within the
    /// horizon). A fragment where a keyword is seedless within the horizon
    /// ranks nothing, so it is not asked.
    pub fn run_topk(&self, q: &TopKQuery) -> Result<(Vec<Ranked>, QueryStats), QueryError> {
        let plan = QueryPlan::topk(q)?;
        self.admit(&plan)?;
        let start = Instant::now();
        let (c2w_before, _) = self.link_totals();
        let mut per_machine: Vec<MachineCost> = vec![MachineCost::default(); self.num_machines()];
        let mut cache = CacheCounters::default();
        let mut lists: Vec<Vec<Ranked>> = Vec::new();
        let mut on_event = |_: usize, event: GatherEvent| {
            if let GatherEvent::Payload(fragment, BatchAnswer::Ranked { ranked, cost }, bytes) =
                event
            {
                let m = self.placement.machine_of(FragmentId(fragment));
                per_machine[m].absorb(fragment, &cost, bytes);
                cache.absorb(&cost.cache_counters());
                lists.push(ranked);
            }
        };
        let group = self.run_plans(std::slice::from_ref(&plan), start, &mut on_event);
        if let Some(e) = group.error {
            return Err(e);
        }
        let merged = merge_topk(lists, q.k);
        let c2w = self.link_totals().0 - c2w_before;
        let stats = self.query_stats(&group, 0, per_machine, cache, merged.len(), c2w);
        Ok((merged, stats))
    }

    /// Run an SGKQ (Definition 2).
    pub fn run_sgkq(&self, q: &SgkQuery) -> Result<QueryOutcome, QueryError> {
        let f = q.to_dfunction_checked().ok_or(QueryError::EmptyQuery)?;
        self.run(&f)
    }

    /// Run an RKQ (Definition 3).
    pub fn run_rkq(&self, q: &RangeKeywordQuery) -> Result<QueryOutcome, QueryError> {
        self.run(&q.to_dfunction())
    }

    /// Run a Q-class query (Definition 8).
    pub fn run_qclass(&self, q: &QClassQuery) -> Result<QueryOutcome, QueryError> {
        self.run(&q.to_dfunction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use disks_core::{build_all_indexes, CentralizedCoverage, IndexConfig, SetOp, Term};
    use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::{KeywordId, RoadNetwork};

    fn setup(seed: u64, k: usize, cfg: &IndexConfig) -> (RoadNetwork, Partitioning, Cluster) {
        let net = GridNetworkConfig::tiny(seed).generate();
        let p = MultilevelPartitioner::default().partition(&net, k);
        let indexes = build_all_indexes(&net, &p, cfg);
        let cluster = Cluster::build(&net, &p, indexes, ClusterConfig::default());
        (net, p, cluster)
    }

    fn top_keywords(net: &RoadNetwork, n: usize) -> Vec<KeywordId> {
        let freqs = net.keyword_frequencies();
        let mut ranked: Vec<usize> = (0..freqs.len()).filter(|&k| freqs[k] > 0).collect();
        ranked.sort_unstable_by_key(|&k| std::cmp::Reverse(freqs[k]));
        ranked.into_iter().take(n).map(|k| KeywordId(k as u32)).collect()
    }

    #[test]
    fn distributed_sgkq_matches_centralized_with_zero_inter_worker_bytes() {
        let (net, _, cluster) = setup(70, 3, &IndexConfig::unbounded());
        let kws = top_keywords(&net, 2);
        let q = SgkQuery::new(kws, 4 * net.avg_edge_weight());
        let outcome = cluster.run_sgkq(&q).unwrap();
        let mut central = CentralizedCoverage::new(&net);
        assert_eq!(outcome.results, central.sgkq(&q).unwrap());
        assert_eq!(outcome.stats.inter_worker_bytes, 0);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.retries, 0);
        assert_eq!(outcome.stats.respawned_workers, 0);
        assert!(outcome.stats.degraded_fragments.is_empty());
        assert!(outcome.stats.coordinator_to_worker_bytes > 0);
        assert!(outcome.stats.worker_to_coordinator_bytes > 0);
        cluster.shutdown();
    }

    #[test]
    fn an_empty_answer_weighs_seventy_bytes_a_fragment() {
        let k = 3;
        let (net, _, cluster) = setup(75, k, &IndexConfig::unbounded());
        // R(kw, r) − R(kw, r) is ∅ on every fragment.
        let kw = top_keywords(&net, 1)[0];
        let f = DFunction::single(Term::Keyword(kw), 2 * net.avg_edge_weight()).then(
            SetOp::Subtract,
            Term::Keyword(kw),
            2 * net.avg_edge_weight(),
        );
        let (_, w2c_before) = cluster.link_totals();
        let outcome = cluster.run(&f).unwrap();
        assert!(outcome.results.is_empty());
        // Each answer is charged its standalone `Results` frame: tag 1 +
        // query id 8 + fragment 4 + id count 1 + cost 56.
        assert_eq!(outcome.stats.worker_to_coordinator_bytes, k as u64 * 70);
        // The link carries one `BatchResults` frame a fragment: tag 1 + base
        // 8 + fragment 4 + answer count 4 + answer tag 1 + id count 1 +
        // cost 56.
        assert_eq!(cluster.link_totals().1 - w2c_before, k as u64 * 75);
        cluster.shutdown();
    }

    #[test]
    fn rkq_and_qclass_match_centralized() {
        let (net, _, cluster) = setup(71, 4, &IndexConfig::unbounded());
        let mut central = CentralizedCoverage::new(&net);
        let obj = net.node_ids().find(|&n| net.is_object(n)).unwrap();
        let kw = net.keywords(obj)[0];
        let rkq = RangeKeywordQuery::new(obj, vec![kw], 6 * net.avg_edge_weight());
        assert_eq!(cluster.run_rkq(&rkq).unwrap().results, central.rkq(&rkq).unwrap());

        let kws = top_keywords(&net, 3);
        let f = DFunction::single(Term::Keyword(kws[0]), 4 * net.avg_edge_weight())
            .then(SetOp::Subtract, Term::Keyword(kws[1]), 2 * net.avg_edge_weight())
            .then(SetOp::Union, Term::Keyword(kws[2]), net.avg_edge_weight());
        let q = QClassQuery::new(f);
        assert_eq!(cluster.run_qclass(&q).unwrap().results, central.qclass(&q).unwrap());
        cluster.shutdown();
    }

    #[test]
    fn fewer_machines_than_fragments_still_correct() {
        let net = GridNetworkConfig::tiny(72).generate();
        let p = MultilevelPartitioner::default().partition(&net, 6);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(
            &net,
            &p,
            indexes,
            ClusterConfig { machines: Some(2), ..ClusterConfig::default() },
        );
        assert_eq!(cluster.num_machines(), 2);
        let kws = top_keywords(&net, 2);
        // Wide enough that both keywords seed every fragment: the query
        // targets all six, so each machine answers for all it hosts.
        let q = SgkQuery::new(kws, 30 * net.avg_edge_weight());
        let plan = QueryPlan::lower(&q.to_dfunction());
        for index in &build_all_indexes(&net, &p, &IndexConfig::unbounded()) {
            let engine = disks_core::FragmentEngine::new(&net, &p, index).unwrap();
            assert!(plan.can_answer(|s| engine.seed_count(s.term, s.radius) > 0));
        }
        let outcome = cluster.run_sgkq(&q).unwrap();
        let mut central = CentralizedCoverage::new(&net);
        assert_eq!(outcome.results, central.sgkq(&q).unwrap());
        // Each busy machine hosts 3 fragments.
        let busy: Vec<_> =
            outcome.stats.per_machine.iter().filter(|m| !m.fragments.is_empty()).collect();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].fragments.len(), 3);
        cluster.shutdown();
    }

    #[test]
    fn unindexed_rkq_location_rejected_by_coordinator() {
        let (net, _, cluster) = setup(73, 2, &IndexConfig::unbounded());
        // A junction node is not DL-indexed under ObjectsOnly scope.
        let junction = net.node_ids().find(|&n| !net.is_object(n)).unwrap();
        let rkq = RangeKeywordQuery::new(junction, vec![KeywordId(0)], 10);
        assert!(matches!(cluster.run_rkq(&rkq), Err(QueryError::UnindexedQueryLocation(_))));
        // With AllNodes scope the same query is served.
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let cfg = IndexConfig::unbounded().with_scope(DlScope::AllNodes);
        let indexes = build_all_indexes(&net, &p, &cfg);
        let cluster2 = Cluster::build(&net, &p, indexes, ClusterConfig::default());
        let mut central = CentralizedCoverage::new(&net);
        // Use a keyword that exists so intersection may be non-trivial.
        let kw = top_keywords(&net, 1)[0];
        let rkq2 = RangeKeywordQuery::new(junction, vec![kw], 8 * net.avg_edge_weight());
        assert_eq!(cluster2.run_rkq(&rkq2).unwrap().results, central.rkq(&rkq2).unwrap());
        cluster2.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn radius_over_max_r_rejected_at_admission_without_dispatch() {
        let net = GridNetworkConfig::tiny(74).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let max_r = 2 * net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(max_r);
        let indexes = build_all_indexes(&net, &p, &cfg);
        let cluster = Cluster::build(&net, &p, indexes, ClusterConfig::default());
        let r = 100 * net.avg_edge_weight();
        let q = SgkQuery::new(vec![KeywordId(0)], r);
        let (c2w_before, w2c_before) = cluster.link_totals();
        // The coordinator rejects at admission with the same typed error a
        // worker used to raise — including the index's real maxR.
        match cluster.run_sgkq(&q) {
            Err(QueryError::RadiusExceedsMaxR { r: got_r, max_r: got_max }) => {
                assert_eq!(got_r, r);
                assert_eq!(got_max, max_r);
            }
            other => panic!("expected RadiusExceedsMaxR, got {other:?}"),
        }
        // The dispatch counters prove no worker ever saw the query.
        assert_eq!(cluster.link_totals(), (c2w_before, w2c_before));
        // An admitted radius at the boundary still runs.
        let ok = SgkQuery::new(vec![KeywordId(0)], max_r);
        cluster.run_sgkq(&ok).expect("boundary radius admitted");
        assert!(cluster.link_totals().0 > c2w_before);
        cluster.shutdown();
    }

    #[test]
    fn empty_plan_rejected_at_admission_without_dispatch() {
        let (_, _, cluster) = setup(83, 2, &IndexConfig::unbounded());
        let (c2w_before, _) = cluster.link_totals();
        let q = SgkQuery { keywords: vec![], radius: 5 };
        assert!(matches!(cluster.run_sgkq(&q), Err(QueryError::EmptyQuery)));
        assert_eq!(cluster.link_totals().0, c2w_before, "no frame dispatched");
        cluster.shutdown();
    }

    #[test]
    fn repeated_queries_hit_the_coverage_cache() {
        // Explicit budget: the default honours DISKS_COVERAGE_CACHE, which
        // the cache-disabled CI lane sets to 0.
        let net = GridNetworkConfig::tiny(84).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(
            &net,
            &p,
            indexes,
            ClusterConfig { coverage_cache_bytes: 64 << 20, ..ClusterConfig::default() },
        );
        let kws = top_keywords(&net, 2);
        let q = SgkQuery::new(kws, 4 * net.avg_edge_weight());
        let cold = cluster.run_sgkq(&q).unwrap();
        assert_eq!(cold.stats.cache_hits, 0, "cold cache");
        assert!(cold.stats.cache_misses > 0);
        // This net yields both cacheable coverages and ones small enough for
        // the content bypass, so the test covers their interplay.
        assert!(cold.stats.cache_bypassed > 0, "expected some bypass-small coverages");
        assert!(cold.stats.cache_bypassed < cold.stats.cache_misses, "and some cacheable ones");
        let warm = cluster.run_sgkq(&q).unwrap();
        assert_eq!(warm.results, cold.results);
        // Bypassed slots miss (and bypass) again; every cached slot hits.
        assert_eq!(warm.stats.cache_misses, cold.stats.cache_bypassed, "only bypassed slots miss");
        assert_eq!(warm.stats.cache_hits, cold.stats.cache_misses - cold.stats.cache_bypassed);
        assert_eq!(warm.stats.cache_bypassed, cold.stats.cache_bypassed);
        // Warm hits skip their per-slot Dijkstras; only bypassed slots settle.
        assert!(warm.stats.total_settled() < cold.stats.total_settled());
        let lifetime = cluster.cache_counters();
        assert_eq!(lifetime.hits, warm.stats.cache_hits);
        assert_eq!(lifetime.misses, cold.stats.cache_misses + warm.stats.cache_misses);
        assert_eq!(lifetime.bypassed, cold.stats.cache_bypassed + warm.stats.cache_bypassed);
        cluster.shutdown();
    }

    #[test]
    fn disabled_cache_answers_identically_with_zero_cache_traffic() {
        let net = GridNetworkConfig::tiny(85).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(
            &net,
            &p,
            indexes,
            ClusterConfig { coverage_cache_bytes: 0, ..ClusterConfig::default() },
        );
        let kws = top_keywords(&net, 2);
        let q = SgkQuery::new(kws, 4 * net.avg_edge_weight());
        let first = cluster.run_sgkq(&q).unwrap();
        let second = cluster.run_sgkq(&q).unwrap();
        assert_eq!(first.results, second.results);
        assert_eq!(cluster.cache_counters(), crate::cache::CacheCounters::default());
        assert_eq!(second.stats.cache_hits, 0);
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.inter_worker_bytes, 0);
        cluster.shutdown();
    }

    #[test]
    fn stats_report_load_balance() {
        let (net, _, cluster) = setup(75, 4, &IndexConfig::unbounded());
        let kws = top_keywords(&net, 2);
        let q = SgkQuery::new(kws, 5 * net.avg_edge_weight());
        let outcome = cluster.run_sgkq(&q).unwrap();
        assert!(outcome.stats.unbalance_factor >= 1.0);
        assert_eq!(outcome.stats.per_machine.len(), 4);
        assert!(outcome.stats.modeled_response_time >= outcome.stats.slowest_task);
        assert_eq!(outcome.stats.results, outcome.results.len());
        cluster.shutdown();
    }

    #[test]
    fn pipelined_batch_matches_sequential_runs() {
        let (net, _, cluster) = setup(78, 3, &IndexConfig::unbounded());
        let kws = top_keywords(&net, 3);
        let e = net.avg_edge_weight();
        let fs: Vec<DFunction> = (1..=6)
            .map(|i| SgkQuery::new(vec![kws[i % kws.len()]], (i as u64) * e).to_dfunction())
            .collect();
        let (batch, elapsed) = cluster.run_stream(&fs);
        assert_eq!(batch.len(), fs.len());
        assert!(elapsed > std::time::Duration::ZERO);
        for (f, outcome) in fs.iter().zip(batch) {
            let outcome = outcome.unwrap();
            let solo = cluster.run(f).unwrap();
            assert_eq!(solo.results, outcome.results, "query {f}");
        }
        // Fault-free batches record no recovery events.
        assert_eq!(cluster.recovery_counters(), RecoveryCounters::default());
        cluster.shutdown();
    }

    /// An SGKQ or a top-k of no keyword is refused before anything is
    /// sent; a top-k of none has no plan.
    #[test]
    fn empty_queries_are_refused_before_dispatch() {
        let (_, _, cluster) = setup(76, 2, &IndexConfig::unbounded());
        let before = cluster.link_totals();
        let q = SgkQuery { keywords: vec![], radius: 5 };
        assert!(matches!(cluster.run_sgkq(&q), Err(QueryError::EmptyQuery)));
        let q = TopKQuery::new(vec![], 5, 10, disks_core::ScoreCombine::Max);
        assert_eq!(QueryPlan::topk(&q), Err(QueryError::EmptyQuery));
        assert_eq!(cluster.run_topk(&q).map(|(ranked, _)| ranked), Err(QueryError::EmptyQuery));
        assert_eq!(cluster.link_totals(), before, "no byte for a refused query");
        cluster.shutdown();
    }

    #[test]
    fn distributed_topk_matches_centralized() {
        use disks_core::{centralized_topk, ScoreCombine};
        let (net, _, cluster) = setup(80, 4, &IndexConfig::unbounded());
        let kws = top_keywords(&net, 2);
        let e = net.avg_edge_weight();
        for combine in [ScoreCombine::Max, ScoreCombine::Sum] {
            for k in [1usize, 5, 25, 10_000] {
                let q = TopKQuery::new(kws.clone(), k, 8 * e, combine);
                let (ranked, stats) = cluster.run_topk(&q).unwrap();
                let expect = centralized_topk(&net, &q).unwrap();
                assert_eq!(ranked, expect, "combine={combine:?} k={k}");
                assert_eq!(stats.inter_worker_bytes, 0);
            }
        }
        cluster.shutdown();
    }

    /// A top-k's keyword slots ride the workers' coverage cache as any
    /// plan's do: the same top-k again is served from it, ranked the same.
    /// The horizon gives coverages of more than 16 nodes, which the cache
    /// keeps.
    #[test]
    fn a_repeated_topk_hits_the_coverage_cache() {
        let net = GridNetworkConfig::tiny(87).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let config = ClusterConfig { coverage_cache_bytes: 1 << 20, ..ClusterConfig::default() };
        let cluster = Cluster::build(&net, &p, indexes, config);
        let e = net.avg_edge_weight();
        let q = TopKQuery::new(top_keywords(&net, 2), 10, 8 * e, disks_core::ScoreCombine::Sum);
        let (cold, cold_stats) = cluster.run_topk(&q).unwrap();
        let (warm, warm_stats) = cluster.run_topk(&q).unwrap();
        assert_eq!(cold, disks_core::centralized_topk(&net, &q).unwrap());
        assert_eq!(warm, cold);
        assert_eq!((cold_stats.cache_hits, warm_stats.cache_misses), (0, 0));
        assert!(cold_stats.cache_misses > 0 && warm_stats.cache_hits > 0, "{warm_stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn topk_horizon_above_max_r_rejected() {
        let net = GridNetworkConfig::tiny(81).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let cfg = IndexConfig::with_max_r(net.avg_edge_weight());
        let indexes = build_all_indexes(&net, &p, &cfg);
        let cluster = Cluster::build(&net, &p, indexes, ClusterConfig::default());
        let q = disks_core::TopKQuery::new(
            vec![KeywordId(0)],
            5,
            100 * net.avg_edge_weight(),
            disks_core::ScoreCombine::Max,
        );
        assert!(cluster.run_topk(&q).is_err());
        // A bi-level cluster serves the same query.
        let bilevel = Cluster::build_bilevel(&net, &p, &cfg, ClusterConfig::default());
        let (ranked, _) = bilevel.run_topk(&q).unwrap();
        let expect = disks_core::centralized_topk(&net, &q).unwrap();
        assert_eq!(ranked, expect);
        bilevel.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn bilevel_cluster_serves_radii_beyond_max_r() {
        let net = GridNetworkConfig::tiny(79).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let e = net.avg_edge_weight();
        let cfg = IndexConfig::with_max_r(3 * e);
        let cluster = Cluster::build_bilevel(&net, &p, &cfg, ClusterConfig::default());
        let mut central = CentralizedCoverage::new(&net);
        let kw = top_keywords(&net, 1)[0];
        // Small radius → primary; large radius → secondary; both exact.
        for r in [e, 2 * e, 10 * e, 30 * e] {
            let q = SgkQuery::new(vec![kw], r);
            let outcome = cluster.run_sgkq(&q).expect("bilevel query");
            assert_eq!(outcome.results, central.sgkq(&q).unwrap(), "r={r}");
        }
        cluster.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let (net, _, cluster) = setup(77, 2, &IndexConfig::unbounded());
        let kws = top_keywords(&net, 1);
        let _ = cluster.run_sgkq(&SgkQuery::new(kws, net.avg_edge_weight())).unwrap();
        drop(cluster); // must not hang or leak threads
    }

    #[test]
    fn shutdown_after_explicit_worker_death_does_not_hang() {
        // Kill machine 0 on its first request; shutdown must still join
        // cleanly even though one thread is already gone.
        let net = GridNetworkConfig::tiny(82).generate();
        let p = MultilevelPartitioner::default().partition(&net, 2);
        let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
        let cluster = Cluster::build(
            &net,
            &p,
            indexes,
            ClusterConfig {
                faults: Some(FaultPlan::new(1).kill_worker(0, 1)),
                deadline: Duration::from_millis(200),
                ..ClusterConfig::default()
            },
        );
        let kws = top_keywords(&net, 1);
        // The killed worker is detected and respawned on retry; the query
        // still completes.
        let outcome = cluster.run_sgkq(&SgkQuery::new(kws, net.avg_edge_weight())).unwrap();
        assert!(outcome.stats.respawned_workers >= 1);
        cluster.shutdown();
    }
}
