//! Coordinator-based share-nothing distributed runtime.
//!
//! The paper evaluates on a 16-machine cluster behind a 100 Mb switch. This
//! crate is the substitution documented in `DESIGN.md` §4: an in-process
//! cluster where every *machine* is an OS thread owning exactly its
//! fragment's [`disks_core::FragmentEngine`] (fragment + NPD-index — nothing
//! else), and every link is a byte-accounted channel carrying the same
//! hand-encoded wire messages a socket would.
//!
//! What the simulation preserves from the paper's setting:
//!
//! * **Share-nothing semantics** — a worker thread receives only its
//!   engine; there are no channels between workers at all, so the paper's
//!   headline property (zero inter-worker communication, Theorem 3) holds
//!   *by construction* and is reported in every [`QueryStats`].
//! * **Coordinator costs** — task-assignment and result-return messages are
//!   encoded to real bytes and counted per link, and the paper's 100 Mb
//!   switch ([`NetworkModel::switch_100mbps`]) converts bytes to modeled
//!   wire time.
//! * **Load balance** — per-machine task costs and the Theorem 6 unbalance
//!   factor `U` are measured per query and over the cluster lifetime
//!   ([`Cluster::unbalance_factor`]).
//! * **Task scheduling** — when there are fewer machines than fragments the
//!   §5.2 strategy applies: an unassigned task goes to an idle machine. Every
//!   fragment has exactly one owner ([`Placement`]), which answers every
//!   evaluation of it, retries included.
//!
//! Beyond the paper's fault-free setting, the runtime is fault-tolerant:
//! a deterministic [`FaultPlan`] can drop, delay, duplicate, or corrupt
//! frames on any link and kill or panic workers; the coordinator recovers
//! via deadlines, narrowed retries, and worker respawn (see
//! `DESIGN.md` §"Failure model & recovery"). Fragment tasks are stateless
//! and idempotent, so retries and duplicates never violate the Lemma 1
//! union-correctness or Theorem 3 zero-inter-worker-bytes guarantees.
//!
//! The query path is layered (`DESIGN.md` §6c): the coordinator lowers each
//! query to a normalized [`disks_core::QueryPlan`] and *admits* it (radius,
//! emptiness, location checks) before any dispatch; workers execute plans
//! slot-by-slot through a byte-bounded per-worker [`CoverageCache`], whose
//! hit/miss/eviction counters ride back on every response frame.
//!
//! Streams always batch across queries; there is no knob. A window of up to
//! 16 admitted plans merges into one [`disks_core::SuperPlan`] per worker per
//! round — the union of slots across the batch, deduplicated — so each
//! distinct coverage is computed once per batch and each worker sends one
//! multi-answer frame back. A window of one is a batch of one, and so is
//! every narrowed retry: `Batch`/`BatchResults` is the only plan frame the
//! coordinator and workers send. Answers are byte-identical to asking each
//! query alone, attribution stays per-query exact, and faults inside a
//! batch narrow to per-query retries (see `DESIGN.md` §"Batched
//! dispatch").
//!
//! The coordinator admits every valid query: it sheds nothing, as the
//! paper's does not. Narrowed retries back off exponentially with
//! deterministic seeded jitter, and a respawned worker starts with a cold
//! coverage cache like any new one.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cluster;
pub mod framing;
pub mod message;
pub mod scheduler;
pub mod stats;
pub mod transport;
pub mod worker;

pub use cache::{CacheCounters, CoverageCache};
pub use cluster::{
    AnswerGather, Cluster, ClusterConfig, ConfigError, QueryOutcome, RemoteWorkerCommand,
};
pub use framing::{FrameAssembler, StreamEvent};
pub use message::{BatchAnswer, Request, Response, WireCost};
pub use scheduler::Placement;
pub use stats::{MachineCost, OverloadCounters, QueryStats, RecoveryCounters};
pub use transport::{
    tcp_worker_endpoint, FaultAction, FaultPlan, HeartbeatConfig, HeartbeatConfigError,
    LinkCounters, LinkDirection, LinkFault, LinkSender, NetworkModel, TcpWorkerEndpoint,
    TransportKind,
};
pub use worker::WorkerFaults;
