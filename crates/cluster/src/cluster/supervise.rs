//! Worker lifecycle: building the cluster, spawning machines (threads or
//! remote processes), detecting and respawning dead ones, and teardown.

use std::cell::{Cell, RefCell};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Receiver;
use disks_core::{DlScope, FragmentEngine, NpdIndex, SeedFloors};
use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::{RoadNetwork, INF};

use super::gather::{backoff_delay, splitmix64};
use super::{AnswerGather, Cluster, ClusterConfig};
use crate::cache::CacheCounters;
use crate::framing;
use crate::message::{encode_frame, Request};
use crate::scheduler::Placement;
use crate::stats::RecoveryCounters;
use crate::transport::{
    counted_link, loopback_pair, tcp_worker_endpoint, ChannelLink, FaultInjector, FaultPlan, Link,
    LinkCounters, LinkDirection, LinkSender, TcpLink, TransportFaults, TransportKind, QUEUE_FRAMES,
};
use crate::worker::{worker_loop, WorkerEngine, WorkerFaults};

/// How a worker peer is hosted: an in-process thread (channel and loopback
/// TCP transports) or a separate OS process (remote clusters).
enum WorkerPeer {
    Thread(Option<JoinHandle<()>>),
    Process(Option<Child>),
}

impl WorkerPeer {
    /// Whether the peer has terminated (finished thread / exited process).
    fn is_dead(&mut self) -> bool {
        match self {
            WorkerPeer::Thread(join) => join.as_ref().is_none_or(|j| j.is_finished()),
            WorkerPeer::Process(child) => match child.as_mut() {
                None => true,
                Some(c) => c.try_wait().map(|s| s.is_some()).unwrap_or(true),
            },
        }
    }

    /// Join the thread / reap the process, giving a live process `grace` to
    /// exit on its own before it is killed. Safe to call twice (the handle
    /// is taken).
    fn reap(&mut self, grace: Duration) {
        match self {
            WorkerPeer::Thread(join) => {
                if let Some(join) = join.take() {
                    let _ = join.join();
                }
            }
            WorkerPeer::Process(child) => {
                let Some(mut c) = child.take() else { return };
                let deadline = Instant::now() + grace;
                while matches!(c.try_wait(), Ok(None)) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

/// Command line relaunched whenever a remote worker must be (re)spawned —
/// the process analogue of `RespawnSpec`'s engine rebuild. The program must
/// rebuild its machine's engines deterministically and connect back to the
/// coordinator's listener (see `src/bin/disks-worker.rs`).
#[derive(Debug, Clone)]
pub struct RemoteWorkerCommand {
    /// Worker executable path.
    pub program: PathBuf,
    /// Arguments identifying the machine and its workload.
    pub args: Vec<String>,
}

impl RemoteWorkerCommand {
    fn spawn(&self) -> io::Result<Child> {
        std::process::Command::new(&self.program).args(&self.args).spawn()
    }
}

/// The fault injectors of one machine's links. The Arcs' fired-ordinal
/// state survives respawn, so one-shot nth-frame faults fire exactly once
/// across reconnects.
#[derive(Clone, Default)]
struct LinkFaults {
    to_worker: Option<Arc<FaultInjector>>,
    from_worker: Option<Arc<FaultInjector>>,
    /// Pump-level TCP faults (mid-frame cut, stalled socket).
    c2w_pump: Option<Arc<TransportFaults>>,
    w2c_pump: Option<Arc<TransportFaults>>,
}

impl LinkFaults {
    fn of(plan: &FaultPlan, m: usize) -> LinkFaults {
        LinkFaults {
            to_worker: plan.injector_for(m, LinkDirection::CoordinatorToWorker),
            from_worker: plan.injector_for(m, LinkDirection::WorkerToCoordinator),
            c2w_pump: plan.transport_faults_for(m, LinkDirection::CoordinatorToWorker),
            w2c_pump: plan.transport_faults_for(m, LinkDirection::WorkerToCoordinator),
        }
    }
}

pub(super) struct WorkerHandle {
    /// The coordinator end of the worker's request link — [`ChannelLink`]
    /// or [`TcpLink`] behind the same seam, carrying this direction's
    /// counters and fault injector.
    pub(super) link: Box<dyn Link>,
    faults: LinkFaults,
    peer: WorkerPeer,
}

/// Everything needed to rebuild a dead worker's engines: the global network
/// and partitioning (cheap relative to the engines) plus the engine source.
pub(super) struct RespawnSpec {
    net: RoadNetwork,
    partitioning: Partitioning,
    source: EngineSource,
}

enum EngineSource {
    /// Retained per-fragment NPD-indexes (`Cluster::build`).
    Indexes(Vec<NpdIndex>),
    /// §5.5 bi-level deployment: rebuilt from the primary index config.
    BiLevel(disks_core::IndexConfig),
    /// Remote workers: engines live in other processes; respawn relaunches
    /// the machine's command and re-accepts on the retained listener.
    Remote { listener: TcpListener, commands: Vec<RemoteWorkerCommand> },
}

impl RespawnSpec {
    fn build_engine(&self, f: FragmentId) -> WorkerEngine {
        match &self.source {
            EngineSource::Indexes(v) => WorkerEngine::Single(
                FragmentEngine::new(&self.net, &self.partitioning, &v[f.index()])
                    .expect("engine rebuild"),
            ),
            EngineSource::BiLevel(cfg) => WorkerEngine::BiLevel(
                disks_core::BiLevelIndex::build(&self.net, &self.partitioning, f, cfg)
                    .expect("bilevel rebuild"),
            ),
            EngineSource::Remote { .. } => {
                unreachable!("remote workers rebuild their own engines")
            }
        }
    }
}

/// Spawn one in-process worker over the configured transport, returning the
/// coordinator's [`Link`] end and the worker thread's join handle. The
/// worker loop itself is transport-agnostic — it always drains a frame
/// `Receiver` and answers through a counted [`LinkSender`]; under TCP those
/// ends are the socket pumps of [`tcp_worker_endpoint`].
fn spawn_local_worker(
    m: usize,
    engines: Vec<WorkerEngine>,
    config: &ClusterConfig,
    counters: Arc<LinkCounters>,
    faults: LinkFaults,
    worker_faults: WorkerFaults,
    resp_tx: &LinkSender,
) -> (Box<dyn Link>, JoinHandle<()>) {
    let cache_budget = config.coverage_cache_bytes;
    let spawn_thread = move |requests: Receiver<Bytes>, responses: LinkSender| {
        std::thread::Builder::new()
            .name(format!("disks-worker-{m}"))
            .spawn(move || worker_loop(engines, requests, responses, worker_faults, cache_budget))
            .expect("spawn worker")
    };
    match config.transport {
        TransportKind::Channel => {
            let (req_tx, req_rx) = crossbeam::channel::bounded(QUEUE_FRAMES);
            let responses = resp_tx.with_faults(faults.from_worker);
            let join = spawn_thread(req_rx, responses);
            (Box::new(ChannelLink::new(req_tx, counters, faults.to_worker)), join)
        }
        TransportKind::Tcp => {
            let (coordinator_side, worker_side) = loopback_pair().expect("loopback socket pair");
            let endpoint = tcp_worker_endpoint(worker_side, m, config.heartbeat, faults.w2c_pump)
                .expect("worker tcp endpoint");
            // The worker's sender shares the cluster-wide w2c counters and
            // fault injector, so the wire ledger and fault ordinals stay
            // identical to channel mode; the coordinator's ingress pump
            // must not count again (received = None).
            let responses = LinkSender::over(endpoint.egress, Arc::clone(resp_tx.counters()))
                .with_faults(faults.from_worker);
            let join = spawn_thread(endpoint.requests, responses);
            let link = TcpLink::spawn(
                coordinator_side,
                m,
                counters,
                faults.to_worker,
                faults.c2w_pump,
                resp_tx.raw(),
                None,
                config.heartbeat,
            )
            .expect("coordinator tcp link");
            (Box::new(link), join)
        }
    }
}

/// The coordinator end of a remote worker's socket. Remote workers cannot
/// share the coordinator's counters, so the ingress pump counts w2c frames
/// on receipt instead; fault injectors cannot reach them at all.
fn remote_link(
    stream: TcpStream,
    m: usize,
    counters: Arc<LinkCounters>,
    resp_tx: &LinkSender,
    from_workers: &Arc<LinkCounters>,
    config: &ClusterConfig,
) -> io::Result<Box<dyn Link>> {
    let received = Some(Arc::clone(from_workers));
    let link =
        TcpLink::spawn(stream, m, counters, None, None, resp_tx.raw(), received, config.heartbeat)?;
    Ok(Box::new(link))
}

/// What the coordinator decides before dispatch with, read off the indexes
/// when it holds them.
struct Admission {
    dl_scope: DlScope,
    /// Largest admissible radius.
    max_r: u64,
    /// The seed floors of the indexes; `None` when the coordinator holds no
    /// index, and then every fragment is a target.
    floors: Option<SeedFloors>,
}

/// The shared worker→coordinator response channel, as [`counted_link`]
/// returns it: sender, receiver, and the counters both ends share.
type ResponseLink = (LinkSender, Receiver<Bytes>, Arc<LinkCounters>);

impl Cluster {
    /// Build engines from `indexes` and spawn the worker machines. The
    /// indexes are retained as the rebuild spec for worker respawn.
    ///
    /// # Panics
    /// Panics if `indexes` does not contain exactly one index per fragment
    /// of `partitioning`, in fragment order (as produced by
    /// [`disks_core::build_all_indexes`]).
    pub fn build(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        indexes: Vec<NpdIndex>,
        config: ClusterConfig,
    ) -> Cluster {
        let k = partitioning.num_fragments();
        assert_eq!(indexes.len(), k, "one index per fragment required");
        for (i, idx) in indexes.iter().enumerate() {
            assert_eq!(idx.fragment().index(), i, "indexes must be in fragment order");
        }
        let dl_scope = indexes.first().map(|i| i.dl_scope()).unwrap_or(DlScope::ObjectsOnly);
        let admission_max_r = indexes.first().map(|i| i.max_r()).unwrap_or(INF);
        let floors = SeedFloors::new(net, partitioning, &indexes);
        let spec = RespawnSpec {
            net: net.clone(),
            partitioning: partitioning.clone(),
            source: EngineSource::Indexes(indexes),
        };
        let admission = Admission { dl_scope, max_r: admission_max_r, floors: Some(floors) };
        Self::build_from_spec(spec, admission, config)
    }

    /// Build a §5.5 **bi-level** cluster: every machine holds a bounded
    /// primary index (`config_primary.max_r`, which must be finite) plus an
    /// unbounded secondary, and routes each query by its largest radius —
    /// so queries with `r > maxR` are served instead of rejected.
    pub fn build_bilevel(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        config_primary: &disks_core::IndexConfig,
        config: ClusterConfig,
    ) -> Cluster {
        let spec = RespawnSpec {
            net: net.clone(),
            partitioning: partitioning.clone(),
            source: EngineSource::BiLevel(*config_primary),
        };
        // The secondary level is unbounded, so no radius is inadmissible;
        // the coordinator holds no index, so every fragment is a target.
        let admission = Admission { dl_scope: config_primary.dl_scope, max_r: INF, floors: None };
        Self::build_from_spec(spec, admission, config)
    }

    fn build_from_spec(spec: RespawnSpec, admission: Admission, config: ClusterConfig) -> Cluster {
        let (config, plan) = config.normalised();
        let k = spec.partitioning.num_fragments();
        let machines = config.machines.unwrap_or(k).max(1);
        let placement = Placement::round_robin(k, machines);

        let (resp_tx, resp_rx, from_workers) = counted_link();
        let mut workers = Vec::with_capacity(machines);
        for m in 0..machines {
            let engines: Vec<WorkerEngine> =
                placement.fragments_of(m).iter().map(|&f| spec.build_engine(f)).collect();
            let faults = plan.as_ref().map(|p| LinkFaults::of(p, m)).unwrap_or_default();
            let worker_faults = WorkerFaults {
                kill_on_request: plan.as_ref().and_then(|p| p.kill_request_for(m)),
                panic_on_request: plan.as_ref().and_then(|p| p.panic_request_for(m)),
            };
            let (link, join) = spawn_local_worker(
                m,
                engines,
                &config,
                Arc::new(LinkCounters::default()),
                faults.clone(),
                worker_faults,
                &resp_tx,
            );
            workers.push(WorkerHandle { link, faults, peer: WorkerPeer::Thread(Some(join)) });
        }
        let responses = (resp_tx, resp_rx, from_workers);
        Self::assemble(workers, responses, placement, admission, spec, config)
    }

    /// Build a cluster whose workers are separate OS processes connected
    /// over real TCP: spawn each [`RemoteWorkerCommand`], accept the
    /// connections on `listener` in arrival order (each worker's hello
    /// frame names its machine, so startup order is irrelevant), and run
    /// the same coordinator against the sockets. Command `m` must rebuild
    /// machine `m`'s engines deterministically under the same partitioning
    /// and connect back to the listener's address.
    ///
    /// `index_config` supplies the admission metadata (`max_r`, DL scope)
    /// the in-process builders read off the indexes themselves.
    ///
    /// # Panics
    /// Panics if `config.faults` is set — fault injectors live in-process
    /// and cannot reach remote workers.
    pub fn build_remote(
        net: &RoadNetwork,
        partitioning: &Partitioning,
        index_config: &disks_core::IndexConfig,
        config: ClusterConfig,
        listener: TcpListener,
        commands: Vec<RemoteWorkerCommand>,
    ) -> io::Result<Cluster> {
        let (config, plan) = config.normalised();
        assert!(plan.is_none(), "fault plans require in-process workers");
        let k = partitioning.num_fragments();
        let machines = commands.len().max(1);
        // Remote workers rebuild their own engines from seeds under this
        // same placement (`workload::machine_engines`).
        let placement = Placement::round_robin(k, machines);
        let (resp_tx, resp_rx, from_workers) = counted_link();

        // Launch every worker first, then accept whoever arrives.
        let mut children: Vec<Option<Child>> = Vec::with_capacity(machines);
        for c in &commands {
            children.push(Some(c.spawn()?));
        }
        let mut streams: Vec<Option<TcpStream>> = (0..machines).map(|_| None).collect();
        for _ in 0..machines {
            let (mut s, _) = listener.accept()?;
            let id = framing::read_hello(&mut s, Duration::from_secs(30))? as usize;
            if id >= machines || streams[id].is_some() {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected worker hello"));
            }
            streams[id] = Some(s);
        }
        let mut workers = Vec::with_capacity(machines);
        for (m, stream) in streams.into_iter().enumerate() {
            let counters = Arc::new(LinkCounters::default());
            let stream = stream.expect("accepted above");
            workers.push(WorkerHandle {
                link: remote_link(stream, m, counters, &resp_tx, &from_workers, &config)?,
                faults: LinkFaults::default(),
                peer: WorkerPeer::Process(children[m].take()),
            });
        }

        let spec = RespawnSpec {
            net: net.clone(),
            partitioning: partitioning.clone(),
            source: EngineSource::Remote { listener, commands },
        };
        // The indexes live in the worker processes: every fragment is a
        // target.
        let admission =
            Admission { dl_scope: index_config.dl_scope, max_r: index_config.max_r, floors: None };
        Ok(Self::assemble(
            workers,
            (resp_tx, resp_rx, from_workers),
            placement,
            admission,
            spec,
            config,
        ))
    }

    /// The one place a [`Cluster`] value is put together, shared by the
    /// in-process and remote builders. `config` is already normalised.
    fn assemble(
        workers: Vec<WorkerHandle>,
        (resp_tx, responses, from_workers): ResponseLink,
        placement: Placement,
        admission: Admission,
        spec: RespawnSpec,
        config: ClusterConfig,
    ) -> Cluster {
        let machines = workers.len();
        Cluster {
            workers: RefCell::new(workers),
            responses,
            resp_tx,
            from_workers,
            consumed_responses: Cell::new(0),
            forgiven_responses: Cell::new(0),
            compute_micros: RefCell::new(vec![0; machines]),
            placement,
            dl_scope: admission.dl_scope,
            floors: admission.floors,
            is_object: spec.net.node_ids().map(|n| spec.net.is_object(n)).collect(),
            answer_gather: RefCell::new(AnswerGather::new(spec.net.num_nodes())),
            admission_max_r: admission.max_r,
            dispatch_frames: Cell::new(0),
            query_counter: Cell::new(0),
            respawn: spec,
            recovery: Cell::new(RecoveryCounters::default()),
            cache: Cell::new(CacheCounters::default()),
            config,
        }
    }

    /// Whether machine `m` is gone: its peer terminated (finished thread,
    /// exited process) or its link supervisor declared the connection down
    /// (EOF, reset, framing loss, heartbeat miss).
    fn worker_is_dead(&self, m: usize) -> bool {
        let mut workers = self.workers.borrow_mut();
        let w = &mut workers[m];
        w.peer.is_dead() || w.link.is_down()
    }

    /// Tear down and relaunch machine `m` with freshly rebuilt engines (or
    /// a freshly respawned process for remote clusters). Respawned workers
    /// keep their fault-injector Arcs — ordinal state persists across the
    /// link rebuild — but never inherit one-shot kill/panic faults.
    ///
    /// The replacement starts with a cold coverage cache, like any new
    /// worker: the cache lived inside the dead one, and each cold slot
    /// costs the one search the first query that needs it runs.
    fn respawn_worker(&self, m: usize) {
        let mut workers = self.workers.borrow_mut();
        let w = &mut workers[m];
        // Closing first guarantees a TCP worker thread sees EOF and exits,
        // so the join below cannot hang on a half-dead peer.
        w.link.close();
        w.peer.reap(Duration::ZERO);
        let counters = Arc::clone(w.link.counters());
        if let EngineSource::Remote { listener, commands } = &self.respawn.source {
            let (link, child) = self
                .accept_remote_worker(listener, &commands[m], m, counters)
                .expect("respawn remote worker");
            w.link = link;
            w.peer = WorkerPeer::Process(Some(child));
        } else {
            let engines: Vec<WorkerEngine> = self
                .placement
                .fragments_of(m)
                .iter()
                .map(|&f| self.respawn.build_engine(f))
                .collect();
            let (link, join) = spawn_local_worker(
                m,
                engines,
                &self.config,
                counters,
                w.faults.clone(),
                WorkerFaults::default(),
                &self.resp_tx,
            );
            w.link = link;
            w.peer = WorkerPeer::Thread(Some(join));
        }
    }

    /// Accept the connection of a freshly respawned remote worker on the
    /// retained listener, polling with the same deterministic-jitter
    /// backoff narrowed retries use, and verify its hello names machine
    /// `m` (a stale stream from an earlier incarnation is dropped).
    fn accept_remote_worker(
        &self,
        listener: &TcpListener,
        command: &RemoteWorkerCommand,
        m: usize,
        counters: Arc<LinkCounters>,
    ) -> io::Result<(Box<dyn Link>, Child)> {
        let child = command.spawn()?;
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut attempt = 1u32;
        let stream = loop {
            match listener.accept() {
                Ok((mut s, _)) => {
                    s.set_nonblocking(false)?;
                    let id = framing::read_hello(&mut s, Duration::from_secs(10))?;
                    if id as usize == m {
                        break s;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "respawned worker never connected",
                        ));
                    }
                    let seed = splitmix64(0x00AC_CE97 ^ ((m as u64) << 32) ^ attempt as u64);
                    std::thread::sleep(backoff_delay(attempt.min(5), seed));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        listener.set_nonblocking(false)?;
        let link =
            remote_link(stream, m, counters, &self.resp_tx, &self.from_workers, &self.config)?;
        Ok((link, child))
    }

    /// Deliver one request frame to machine `m`, respawning it first if its
    /// peer is dead or its link is down, and routing through the link's
    /// fault injector.
    pub(super) fn send_to_worker(&self, m: usize, frame: &Bytes, respawned: &mut u32) {
        if self.worker_is_dead(m) {
            self.respawn_worker(m);
            *respawned += 1;
        }
        let undelivered = {
            let workers = self.workers.borrow();
            workers[m].link.deliver(frame)
        };
        for f in undelivered {
            // The worker died between the liveness check and the send:
            // respawn once and re-deliver raw (the delivery attempt already
            // counted the frame's bytes).
            self.respawn_worker(m);
            *respawned += 1;
            let workers = self.workers.borrow();
            let _ = workers[m].link.send_raw(f);
        }
    }

    /// Shared teardown: signal every worker, then join threads / reap
    /// processes. Safe to call twice (join handles and children are taken).
    fn shutdown_inner(&mut self) {
        let frame = encode_frame(&Request::Shutdown);
        let mut workers = self.workers.borrow_mut();
        for w in workers.iter() {
            let _ = w.link.send_raw(frame.clone());
        }
        for w in workers.iter_mut() {
            // Give a process a moment to exit on the shutdown frame, then
            // force it.
            w.peer.reap(Duration::from_secs(5));
            w.link.close();
        }
    }

    /// Shut down all workers and join their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
