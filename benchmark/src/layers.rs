//! The per-layer pass (`--trace`): counts from the cluster's public
//! accessors under load, the open loop, and an outside-in replay of a fixed
//! sample of requests through each layer's public functions, timed from
//! here with no edits inside the program.
//!
//! The replay does on the calling thread what the coordinator and the two
//! workers do for one `run_stream` call: lower, merge, encode, decode,
//! look up the cache, search, combine, translate, encode the response and
//! decode it. The blocking steps of a request are the coordinator's calls
//! plus the slower machine's calls; what the real call takes beyond that
//! (dispatch, channel hop, queue wait, union and sort) is the residual.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use crate::json::Value;
use crate::loadgen::{percentile, LoadGen, OpenPhase};
use crate::record::Metric;
use crate::rng::SplitMix64;
use crate::sut::{
    self, BatchAnswer, BitSet, CoverageCache, FragmentEngine, FragmentId, NodeId, Query, QueryPlan,
    Request, Response, SuperPlan, Term, WireCost,
};
use crate::workload::Workload;
use crate::{host, round, Options, System};

/// Requests replayed through the layers: 512 queries, or 64 tiles.
fn sample_requests(workload: Workload) -> usize {
    match workload {
        Workload::RkqTile => 64,
        _ => 512,
    }
}
/// The replay's caches are warmed until full or for this many requests.
const REPLAY_WARM_UP: usize = 2000;
/// Sample queries the centralized reference answers.
const BASELINE_QUERIES: usize = 128;
/// Shares of `--seconds` the counts round and each open-loop rate get.
const COUNTS_SHARE: f64 = 0.3;
const OPEN_LOOP_SHARE: f64 = 0.2;
/// Salt of the replay's own stream: its warm-up and sample are the same
/// for a seed however many queries the timed phases got through, so the
/// replay's counts repeat exactly.
const REPLAY_SALT: u64 = 0x5A3B;
const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Spans kept in memory and written out when the run ends, with the time
/// and the calls of each span name summed on the way.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, (f64, u64)>,
    request: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), totals: BTreeMap::new(), request: 0 }
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) -> f64 {
        let span = &mut self.spans[id as usize];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Time one call into a layer; returns its result and microseconds.
    fn call<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        let us = self.close(id);
        let total = self.totals.entry(name).or_default();
        total.0 += us;
        total.1 += 1;
        (out, us)
    }

    fn total_us(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Seconds one recorded span costs, measured on this host.
    fn cost_per_span_s() -> f64 {
        const PROBES: usize = 100_000;
        let mut probe = Tracer::new();
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.call("probe", NO_PARENT, || ());
        }
        start.elapsed().as_secs_f64() / PROBES as f64
    }

    fn to_json(&self, workload: Workload, seed: u64) -> Value {
        Value::obj([
            ("schema", Value::str("disks-benchmark-trace/1")),
            ("workload", Value::str(workload.name())),
            ("seed", Value::Num(seed as f64)),
            (
                "fields",
                Value::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request"].map(Value::str).into(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let parent = if s.parent == NO_PARENT {
                                Value::Null
                            } else {
                                Value::Num(s.parent as f64)
                            };
                            Value::Arr(vec![
                                Value::str(s.name),
                                Value::Num(s.start_ns as f64),
                                Value::Num(s.end_ns as f64),
                                parent,
                                Value::Num(s.request as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The worker-side state the replay owns: an engine per fragment and one
/// cache per machine with the cluster's budget.
struct Replica {
    engines: Vec<FragmentEngine>,
    caches: Vec<CoverageCache>,
    fragments_by_machine: Vec<Vec<u32>>,
}

/// What the blocking steps of the sample added up to.
#[derive(Default)]
struct Path {
    /// Coordinator calls plus the slower machine's calls, summed over requests.
    blocking_us: f64,
    /// The slower machine's search time, summed over requests.
    coverage_blocking_us: f64,
    settled: u64,
    pushed: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl Replica {
    /// Replay one request; returns the sorted union of the answers per query.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        request: &[Query],
        path: &mut Path,
    ) -> Vec<Vec<NodeId>> {
        let root = tracer.open("request", NO_PARENT);
        let mut coordinator_us = 0.0;

        let (plans, us) = tracer.call("core.plan.lower", root, || {
            request.iter().map(QueryPlan::lower).collect::<Vec<_>>()
        });
        coordinator_us += us;
        // A window of one ships a plain `Evaluate`, as the cluster does.
        let message = if plans.len() >= 2 {
            let (merged, us) = tracer.call("core.plan.merge", root, || SuperPlan::merge(&plans));
            coordinator_us += us;
            Request::Batch { base: 0, plan: merged, fragments: vec![] }
        } else {
            Request::Evaluate { query_id: 1, plan: plans[0].clone(), fragments: vec![] }
        };
        let (frame, us) =
            tracer.call("cluster.message.request_encode", root, || sut::encode_frame(&message));
        coordinator_us += us;
        path.request_bytes += frame.len() as u64;

        let mut answers: Vec<Vec<NodeId>> = vec![Vec::new(); request.len()];
        let mut slower_machine_us: f64 = 0.0;
        let mut slower_coverage_us: f64 = 0.0;
        for m in 0..self.caches.len() {
            let mut machine_us = 0.0;
            let mut coverage_us = 0.0;
            let (decoded, us) = tracer.call("cluster.message.request_decode", root, || {
                sut::decode_frame::<Request>(frame.clone())
            });
            machine_us += us;
            let (queries, batched) = match decoded.expect("a frame just encoded decodes") {
                Request::Batch { plan, .. } => {
                    let (split, us) = tracer.call("core.plan.split", root, || plan.split());
                    machine_us += us;
                    (split, true)
                }
                Request::Evaluate { plan, .. } => (vec![plan], false),
                other => unreachable!("the replay never encodes {other:?}"),
            };
            for fi in 0..self.fragments_by_machine[m].len() {
                let fragment = self.fragments_by_machine[m][fi];
                let engine = &mut self.engines[fragment as usize];
                let cache = &mut self.caches[m];
                // The batch-shared map of the worker: a slot is resolved
                // once per fragment per frame.
                let mut resolved: HashMap<(Term, u64), Arc<BitSet>> = HashMap::new();
                let mut fragment_answers = Vec::with_capacity(queries.len());
                for plan in &queries {
                    let mut coverages: Vec<Arc<BitSet>> = Vec::with_capacity(plan.num_slots());
                    for slot in plan.slots() {
                        if let Some(shared) = resolved.get(&(slot.term, slot.radius)) {
                            coverages.push(Arc::clone(shared));
                            continue;
                        }
                        let (hit, us) = tracer.call("cluster.cache.get", root, || {
                            cache.get(fragment, slot.term, slot.radius)
                        });
                        machine_us += us;
                        let coverage = match hit {
                            Some(coverage) => coverage,
                            None => {
                                let (found, us) = tracer.call("core.engine.coverage", root, || {
                                    engine.coverage(slot.term, slot.radius)
                                });
                                machine_us += us;
                                coverage_us += us;
                                let (coverage, cost) = found.expect("an admitted slot evaluates");
                                path.settled += cost.settled as u64;
                                path.pushed += cost.pushed as u64;
                                let ((), us) = tracer.call("cluster.cache.insert", root, || {
                                    cache.insert(
                                        fragment,
                                        slot.term,
                                        slot.radius,
                                        Arc::clone(&coverage),
                                    )
                                });
                                machine_us += us;
                                coverage
                            }
                        };
                        if batched {
                            resolved.insert((slot.term, slot.radius), Arc::clone(&coverage));
                        }
                        coverages.push(coverage);
                    }
                    // One operand is read directly; more run the program.
                    let combined;
                    let result: &BitSet = match plan.single_slot() {
                        Some(slot) => &coverages[slot as usize],
                        None => {
                            let (set, us) =
                                tracer.call("core.plan.combine", root, || plan.combine(&coverages));
                            machine_us += us;
                            combined = set;
                            &combined
                        }
                    };
                    let (nodes, us) =
                        tracer.call("core.engine.to_global", root, || engine.to_global(result));
                    machine_us += us;
                    fragment_answers.push(nodes);
                }
                let response = if batched {
                    Response::BatchResults {
                        base: 0,
                        fragment,
                        answers: fragment_answers
                            .into_iter()
                            .map(|nodes| BatchAnswer::Results { nodes, cost: WireCost::default() })
                            .collect(),
                    }
                } else {
                    let nodes = fragment_answers.pop().expect("one plan, one answer");
                    Response::Results { query_id: 1, fragment, nodes, cost: WireCost::default() }
                };
                let (reply, us) = tracer
                    .call("cluster.message.response_encode", root, || sut::encode_frame(&response));
                machine_us += us;
                path.response_bytes += reply.len() as u64;

                let (decoded, us) = tracer.call("cluster.message.response_decode", root, || {
                    sut::decode_frame::<Response>(reply)
                });
                coordinator_us += us;
                match decoded.expect("a frame just encoded decodes") {
                    Response::Results { nodes, .. } => answers[0].extend(nodes),
                    Response::BatchResults { answers: batch, .. } => {
                        for (i, answer) in batch.into_iter().enumerate() {
                            if let BatchAnswer::Results { nodes, .. } = answer {
                                answers[i].extend(nodes);
                            }
                        }
                    }
                    other => unreachable!("the replay never encodes {other:?}"),
                }
            }
            slower_machine_us = slower_machine_us.max(machine_us);
            slower_coverage_us = slower_coverage_us.max(coverage_us);
        }
        tracer.close(root);
        path.blocking_us += coordinator_us + slower_machine_us;
        path.coverage_blocking_us += slower_coverage_us;
        for nodes in &mut answers {
            nodes.sort_unstable();
        }
        answers
    }

    fn caches_full(&self) -> bool {
        // Within one of the largest entries of the budget: the next insert evicts.
        self.caches.iter().all(|c| c.resident_bytes() + sut::CACHE_BYTES / 64 >= sut::CACHE_BYTES)
    }
}

fn open_metrics(prefix: &str, phase: &OpenPhase, hi: bool, out: &mut Vec<Metric>) {
    let mut m = |name: &str, unit: &str, value: f64| {
        out.push(Metric::new(&format!("loadgen.{prefix}.{name}"), unit, value))
    };
    m("p50_us", "us", percentile(&phase.latencies_us, 0.5));
    m("p99_us", "us", percentile(&phase.latencies_us, 0.99));
    // Lateness and backlog only say something near capacity.
    if hi {
        m("lateness_p99_us", "us", percentile(&phase.lateness_us, 0.99));
        m("backlog_growth", "ratio", phase.backlog_growth());
    }
}

pub fn measure(
    system: &System,
    gen: &mut LoadGen,
    arrivals: &mut SplitMix64,
    opts: &Options,
) -> Result<Vec<Metric>, String> {
    let workload = gen.workload;
    let per_request = workload.queries_per_request();
    let mut out = Vec::new();
    let mut m = |name: &str, unit: &str, value: f64| out.push(Metric::new(name, unit, value));

    // Set-up, stage by stage, from the run's one set-up.
    let (edge_cut, portals) = sut::partition_shape(&system.net, &system.partitioning);
    m("roadnet.generator.generate_s", "s", system.stages[0]);
    m("partition.multilevel.partition_s", "s", system.stages[1]);
    m("partition.multilevel.edge_cut", "count", edge_cut as f64);
    m("partition.multilevel.portals", "count", portals as f64);
    m("core.index.build_s", "s", system.stages[2]);
    m("core.index.bytes", "bytes", system.index_shape.0 as f64);
    m("core.index.dl_pairs", "count", system.index_shape.1 as f64);
    m("core.index.shortcuts", "count", system.index_shape.2 as f64);
    m("cluster.cluster.build_s", "s", system.stages[3]);

    // The cluster consumed its indexes; the replay's engines need their own.
    let indexes = sut::build_indexes(&system.net, &system.partitioning);
    let scratch = opts.out.join(format!("persist-{}", workload.name()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let started = Instant::now();
    for (i, index) in indexes.iter().enumerate() {
        let file = scratch.join(format!("fragment-{i}.npd"));
        sut::save_index(index, &file).map_err(|e| format!("{}: {e}", file.display()))?;
        sut::load_index(&file, FragmentId(i as u32))
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    m("core.index.persist_roundtrip_s", "s", started.elapsed().as_secs_f64());
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let started = Instant::now();
    let engines: Vec<FragmentEngine> = indexes
        .iter()
        .map(|index| FragmentEngine::new(&system.net, &system.partitioning, index))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("engine: {e}"))?;
    m("core.engine.new_s", "s", started.elapsed().as_secs_f64());
    m(
        "core.engine.memory_bytes",
        "bytes",
        engines.iter().map(FragmentEngine::memory_bytes).sum::<usize>() as f64,
    );
    drop(indexes);

    // Counts under load, from the public accessors, over one long round.
    let mut discarded = 0;
    let (loaded, single) = round(gen, opts.seconds * COUNTS_SHARE, &mut discarded);
    let queries = loaded.queries as f64;
    let c = &loaded.counters;
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    m("cluster.cache.hit_ratio", "ratio", c.cache_hits as f64 / lookups);
    m("cluster.cache.evictions_per_query", "count", c.cache_evictions as f64 / queries);
    m("cluster.cache.bypassed_per_query", "count", c.cache_bypassed as f64 / queries);
    m("cluster.worker.compute_us_per_query", "us", loaded.compute_us / queries);
    m(
        "cluster.worker.busy_share",
        "ratio",
        loaded.compute_us / 1e6 / (loaded.busy_s * sut::MACHINES as f64),
    );
    m("cluster.worker.batch_shared_per_query", "count", loaded.batch_shared as f64 / queries);
    m("cluster.cluster.frames_per_query", "count", (c.c2w_frames + c.w2c_frames) as f64 / queries);
    m("cluster.cluster.c2w_bytes_per_query", "bytes", c.c2w_bytes as f64 / queries);
    m("cluster.cluster.w2c_bytes_per_query", "bytes", c.w2c_bytes as f64 / queries);
    m("process.parallelism", "ratio", loaded.cpu_s / loaded.elapsed_s);
    let response_p50_us = percentile(&single.latencies_us, 0.5);

    // The open loop at the two fixed rates: the queueing view of the same
    // service time.
    let (lo, hi) = workload.open_rates();
    let open_s = opts.seconds * OPEN_LOOP_SHARE;
    let requests = gen.stream.take((lo * open_s).ceil() as usize);
    let open_lo = gen.open_loop(requests, lo, arrivals, false);
    let requests = gen.stream.take((hi * open_s).ceil() as usize);
    let open_hi = gen.open_loop(requests, hi, arrivals, false);

    // The replay. Its caches start cold, the cluster's are warm: bring
    // them to the same state before the sample.
    let mut replica = Replica {
        engines,
        caches: (0..sut::MACHINES).map(|_| CoverageCache::new(sut::CACHE_BYTES)).collect(),
        fragments_by_machine: sut::fragments_by_machine(&system.cluster),
    };
    let mut stream = gen.stream.fork(REPLAY_SALT);
    for _ in 0..REPLAY_WARM_UP {
        if replica.caches_full() {
            break;
        }
        replica.replay(&mut Tracer::new(), &stream.next_request(), &mut Path::default());
    }
    let mut tracer = Tracer::new();

    let sample = stream.take(sample_requests(workload));
    let sample_queries = (sample.len() * per_request) as f64;
    let mut path = Path::default();
    // The real calls first and on their own: interleaved, the replay's
    // searches would push the workers' data out of the processor's caches.
    // Only digests are kept: holding 512 answers of 60 KB would make every
    // later answer land in fresh memory and slow the calls being timed.
    let replay_started = Instant::now();
    let mut served: Vec<Vec<Result<u64, String>>> = Vec::with_capacity(sample.len());
    for (i, request) in sample.iter().enumerate() {
        tracer.request = i as u32;
        let (outcomes, _) = tracer
            .call("cluster.cluster.service", NO_PARENT, || sut::submit(&system.cluster, request));
        let digests = outcomes.iter().map(|o| match o {
            Ok(o) => Ok(sut::digest(&o.results)),
            Err(e) => Err(e.to_string()),
        });
        served.push(digests.collect());
    }
    for (i, (request, outcomes)) in sample.iter().zip(served).enumerate() {
        tracer.request = i as u32;
        let replayed = replica.replay(&mut tracer, request, &mut path);
        for ((q, outcome), nodes) in request.iter().zip(outcomes).zip(replayed) {
            gen.tally.attempted += 1;
            match outcome {
                Ok(digest) if digest == sut::digest(&nodes) => {}
                Ok(_) => gen
                    .tally
                    .fail(|| format!("{q}: the replay's answer differs from the cluster's")),
                Err(e) => gen.tally.fail(|| format!("{q}: {e}")),
            }
        }
    }
    let replay_s = replay_started.elapsed().as_secs_f64();
    let requests = sample.len() as f64;
    let per_request_us = |name: &str| tracer.total_us(name) / requests;

    // Merging sixteen at a time, and splitting again at the worker, is what
    // the loaded phase does on every workload; a request of one query has
    // neither on its own path.
    let plans: Vec<QueryPlan> = sample.iter().flatten().map(QueryPlan::lower).collect();
    let mut merged_slots = 0;
    let mut windows = Tracer::new();
    for window in plans.chunks(16) {
        let (merged, _) = windows.call("core.plan.merge", NO_PARENT, || SuperPlan::merge(window));
        merged_slots += merged.num_slots();
        windows.call("core.plan.split", NO_PARENT, || merged.split());
    }
    let per_window_us = |name: &str| windows.total_us(name) / windows.calls(name) as f64;

    m("core.plan.lower_us", "us", per_request_us("core.plan.lower"));
    m("core.plan.merge_us", "us", per_window_us("core.plan.merge"));
    m("core.plan.split_us", "us", per_window_us("core.plan.split"));
    m("core.plan.slots_per_query", "count", merged_slots as f64 / sample_queries);
    m("core.plan.combine_us", "us", per_request_us("core.plan.combine"));
    let coverage_calls = tracer.calls("core.engine.coverage") as f64;
    m("core.engine.coverage_us", "us", path.coverage_blocking_us / requests);
    m("core.engine.coverage_cpu_us", "us", per_request_us("core.engine.coverage"));
    m("core.engine.coverage_calls", "count", coverage_calls / requests);
    m("core.engine.settled_per_query", "count", path.settled as f64 / sample_queries);
    m("core.engine.pushed_per_query", "count", path.pushed as f64 / sample_queries);
    m(
        "core.engine.ns_per_settled",
        "ns",
        tracer.total_us("core.engine.coverage") * 1e3 / path.settled.max(1) as f64,
    );
    m("core.engine.to_global_us", "us", per_request_us("core.engine.to_global"));
    m("cluster.cache.get_us", "us", per_request_us("cluster.cache.get"));
    m("cluster.cache.insert_us", "us", per_request_us("cluster.cache.insert"));
    m("cluster.message.request_encode_us", "us", per_request_us("cluster.message.request_encode"));
    m("cluster.message.request_decode_us", "us", per_request_us("cluster.message.request_decode"));
    m("cluster.message.request_bytes", "bytes", path.request_bytes as f64 / requests);
    m(
        "cluster.message.response_encode_us",
        "us",
        per_request_us("cluster.message.response_encode"),
    );
    m(
        "cluster.message.response_decode_us",
        "us",
        per_request_us("cluster.message.response_decode"),
    );
    m("cluster.message.response_bytes", "bytes", path.response_bytes as f64 / requests);
    let service_us = per_request_us("cluster.cluster.service");
    m("cluster.cluster.service_us", "us", service_us);
    m("cluster.cluster.residual_us", "us", service_us - path.blocking_us / requests);
    m("cluster.cluster.layer_sum_share", "ratio", path.blocking_us / requests / service_us);

    // The reference line: the paper's one-fragment curve.
    let mut baseline_us = Vec::new();
    for q in sample.iter().flatten().take(BASELINE_QUERIES) {
        match gen.oracle.answer(q) {
            Ok((_, took)) => baseline_us.push(took.as_secs_f64() * 1e6),
            Err(e) => gen.tally.fail(|| format!("{q}: oracle error {e}")),
        }
    }
    let baseline_us = baseline_us.iter().sum::<f64>() / baseline_us.len().max(1) as f64;
    m("baseline.centralized.query_us", "us", baseline_us);
    m("baseline.centralized.speedup", "ratio", baseline_us * per_request as f64 / response_p50_us);

    let end = sut::Counters::read(&system.cluster);
    m("cluster.cluster.unbalance", "ratio", sut::unbalance(&system.cluster));
    m("cluster.cluster.retries", "count", end.retries as f64);
    m("cluster.cluster.timeouts", "count", end.timeouts as f64);
    m("cluster.cluster.respawns", "count", end.respawns as f64);
    m("cluster.cluster.shed", "count", end.shed as f64);
    m("process.peak_rss_mb", "MB", host::peak_rss_mb());
    m(
        "process.trace.overhead_share",
        "ratio",
        tracer.spans.len() as f64 * Tracer::cost_per_span_s() / replay_s,
    );
    m("loadgen.rounds_discarded", "count", discarded as f64);
    m("loadgen.failed_share", "ratio", gen.tally.failed_share());
    open_metrics("open_lo", &open_lo, false, &mut out);
    open_metrics("open_hi", &open_hi, true, &mut out);

    let file = opts.out.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&file, tracer.to_json(workload, opts.seed).compact())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}: {} spans in {}", workload.name(), tracer.spans.len(), file.display());
    Ok(out)
}
