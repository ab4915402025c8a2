//! Network links with exact byte accounting and deterministic fault
//! injection, behind a transport seam.
//!
//! Every coordinator↔worker link implements the [`Link`] trait: deliver an
//! encoded frame through the link's fault injector and byte/frame counters.
//! Two implementations exist — [`ChannelLink`] (the original in-process
//! crossbeam pair) and [`TcpLink`] (a real `std::net::TcpStream` with
//! length-prefixed framing, keepalives, and read-timeout supervision; see
//! [`crate::framing`]). [`TransportKind`] (env `DISKS_TRANSPORT`) selects
//! between them. There are deliberately **no** worker↔worker links anywhere
//! in this crate — the type system enforces the paper's
//! zero-inter-worker-communication property, and [`QueryStats`] reports it
//! as a measured 0 rather than an assumption.
//!
//! A [`FaultPlan`] attached via [`crate::ClusterConfig`] turns the links
//! into a lossy wire: frames can be dropped, delayed, duplicated, or
//! corrupted per link, and a worker can be killed (thread exit) or made to
//! panic on its nth request. Because injection happens at the [`Link`] seam
//! (before any socket), the same plan replays identically on both
//! transports. Two further faults exist only below the seam, on the TCP
//! pumps: a mid-frame connection cut and a stalled socket that trips the
//! peer's read timeout ([`FaultPlan::cut_link_mid_frame`],
//! [`FaultPlan::stall_link`]). All faults are keyed on deterministic
//! per-link frame counters plus a seed, so every failure scenario replays
//! identically — the test substrate the recovery machinery is verified
//! against.
//!
//! [`QueryStats`]: crate::stats::QueryStats

use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, SendError, Sender};

use crate::framing::{self, FrameAssembler, StreamEvent};

/// Capacity, in frames, of each coordinator→worker request queue. A full
/// queue blocks the coordinator's send until the worker drains a frame.
pub(crate) const QUEUE_FRAMES: usize = 1024;

/// Latency/bandwidth model converting message bytes into modeled wire time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl NetworkModel {
    /// The paper's setup: a 100 Mb TP-LINK switch (~12.5 MB/s) with typical
    /// LAN latency.
    pub fn switch_100mbps() -> Self {
        NetworkModel { latency: Duration::from_micros(200), bandwidth_bytes_per_sec: 12_500_000 }
    }

    /// Modeled time to move `bytes` over the link (latency + serialization).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec as f64;
        self.latency + Duration::from_secs_f64(secs)
    }
}

/// Byte/message counters for one direction of a link.
#[derive(Debug, Default)]
pub struct LinkCounters {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl LinkCounters {
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    fn record(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The frame is lost on the wire (bytes counted, never delivered).
    DropFrame,
    /// The frame is delivered twice.
    DuplicateFrame,
    /// The frame's leading byte is flipped, guaranteeing a decode failure
    /// at the receiver (the flip sets the high bit of the message tag).
    CorruptFrame,
    /// Delivery is delayed by the given number of milliseconds.
    DelayFrameMillis(u64),
    /// The worker thread exits (simulated machine crash) upon receiving
    /// its nth request, before answering any of its fragments.
    KillWorker,
    /// The worker panics while evaluating its nth request's first fragment
    /// task (exercises the `catch_unwind` supervisor).
    PanicWorker,
    /// TCP-only: the connection is severed while the nth payload frame of
    /// this direction is mid-write — the length prefix and half the payload
    /// reach the wire, then the socket hard-closes. The peer sees a torn
    /// frame followed by EOF.
    CutLinkMidFrame,
    /// TCP-only: the sending pump goes silent (no payloads, no keepalives)
    /// for the given milliseconds before writing the nth payload frame,
    /// driving the peer's read timeout.
    StallLinkMillis(u64),
}

/// Which direction of a coordinator↔worker link a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    CoordinatorToWorker,
    WorkerToCoordinator,
}

/// A fault pinned to the nth frame (1-based) of one link direction of one
/// machine. For [`FaultAction::KillWorker`] / [`FaultAction::PanicWorker`],
/// `nth` counts the worker's received *requests* rather than frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFault {
    pub machine: usize,
    pub direction: LinkDirection,
    pub nth: u64,
    pub action: FaultAction,
}

/// A deterministic, seeded schedule of link and worker faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<LinkFault>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Attach an arbitrary fault.
    pub fn with_fault(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Drop the nth frame on one direction of machine `m`'s link.
    pub fn drop_frame(self, m: usize, direction: LinkDirection, nth: u64) -> Self {
        self.with_fault(LinkFault { machine: m, direction, nth, action: FaultAction::DropFrame })
    }

    /// Deliver the nth frame on one direction of machine `m`'s link twice.
    pub fn duplicate_frame(self, m: usize, direction: LinkDirection, nth: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction,
            nth,
            action: FaultAction::DuplicateFrame,
        })
    }

    /// Corrupt the nth frame on one direction of machine `m`'s link.
    pub fn corrupt_frame(self, m: usize, direction: LinkDirection, nth: u64) -> Self {
        self.with_fault(LinkFault { machine: m, direction, nth, action: FaultAction::CorruptFrame })
    }

    /// Delay the nth frame on one direction of machine `m`'s link.
    pub fn delay_frame(self, m: usize, direction: LinkDirection, nth: u64, millis: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction,
            nth,
            action: FaultAction::DelayFrameMillis(millis),
        })
    }

    /// Kill worker `m`'s thread on its nth received request, before it
    /// answers. Every decoded request but `Shutdown` counts: `Evaluate`,
    /// `TopK` and `Batch`, initial dispatches and narrowed retries alike
    /// (the thread that dies is the original spawn; respawns carry no
    /// kill). Frames dropped or corrupted on the way never reach the count.
    pub fn kill_worker(self, m: usize, nth_request: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction: LinkDirection::CoordinatorToWorker,
            nth: nth_request,
            action: FaultAction::KillWorker,
        })
    }

    /// Panic inside worker `m`'s evaluation of the first fragment task of
    /// its nth received request, counted as for [`FaultPlan::kill_worker`].
    pub fn panic_worker(self, m: usize, nth_request: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction: LinkDirection::CoordinatorToWorker,
            nth: nth_request,
            action: FaultAction::PanicWorker,
        })
    }

    /// Sever machine `m`'s TCP connection mid-write of the nth payload
    /// frame in `direction`. No effect on the channel transport.
    pub fn cut_link_mid_frame(self, m: usize, direction: LinkDirection, nth: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction,
            nth,
            action: FaultAction::CutLinkMidFrame,
        })
    }

    /// Stall machine `m`'s TCP sending pump (no payloads, no keepalives)
    /// for `millis` before the nth payload frame in `direction`, so the
    /// peer's read timeout fires. No effect on the channel transport.
    pub fn stall_link(self, m: usize, direction: LinkDirection, nth: u64, millis: u64) -> Self {
        self.with_fault(LinkFault {
            machine: m,
            direction,
            nth,
            action: FaultAction::StallLinkMillis(millis),
        })
    }

    /// The request ordinal on which worker `m` should crash, if any.
    pub fn kill_request_for(&self, m: usize) -> Option<u64> {
        self.faults
            .iter()
            .find(|f| f.machine == m && f.action == FaultAction::KillWorker)
            .map(|f| f.nth)
    }

    /// The request ordinal on which worker `m` should panic, if any.
    pub fn panic_request_for(&self, m: usize) -> Option<u64> {
        self.faults
            .iter()
            .find(|f| f.machine == m && f.action == FaultAction::PanicWorker)
            .map(|f| f.nth)
    }

    /// Materialize the runtime injector for one direction of machine `m`'s
    /// link, or `None` when no frame fault targets it (fault-free links pay
    /// zero overhead).
    pub fn injector_for(&self, m: usize, direction: LinkDirection) -> Option<Arc<FaultInjector>> {
        let faults: Vec<(u64, FaultAction)> = self
            .faults
            .iter()
            .filter(|f| {
                f.machine == m
                    && f.direction == direction
                    && !matches!(
                        f.action,
                        FaultAction::KillWorker
                            | FaultAction::PanicWorker
                            | FaultAction::CutLinkMidFrame
                            | FaultAction::StallLinkMillis(_)
                    )
            })
            .map(|f| (f.nth, f.action))
            .collect();
        if faults.is_empty() {
            return None;
        }
        Some(Arc::new(FaultInjector {
            counter: AtomicU64::new(0),
            faults,
            seed: self.seed ^ ((m as u64) << 1) ^ (direction as u64),
        }))
    }

    /// Materialize the pump-level fault schedule for one direction of
    /// machine `m`'s TCP link, or `None` when no transport fault targets
    /// it. These act *below* the [`Link`] seam (on the socket pumps), so
    /// [`injector_for`](FaultPlan::injector_for) excludes them.
    pub fn transport_faults_for(
        &self,
        m: usize,
        direction: LinkDirection,
    ) -> Option<Arc<TransportFaults>> {
        let faults: Vec<(u64, FaultAction)> = self
            .faults
            .iter()
            .filter(|f| {
                f.machine == m
                    && f.direction == direction
                    && matches!(
                        f.action,
                        FaultAction::CutLinkMidFrame | FaultAction::StallLinkMillis(_)
                    )
            })
            .map(|f| (f.nth, f.action))
            .collect();
        if faults.is_empty() {
            return None;
        }
        Some(Arc::new(TransportFaults { counter: AtomicU64::new(0), faults }))
    }
}

/// Pump-level fault schedule for one direction of one TCP link. The
/// ordinal counter lives in the `Arc` the cluster holds across reconnects,
/// so an nth-payload fault fires exactly once even after the link is
/// rebuilt (a respawned connection does not replay it).
#[derive(Debug)]
pub struct TransportFaults {
    counter: AtomicU64,
    faults: Vec<(u64, FaultAction)>,
}

impl TransportFaults {
    /// The fault scheduled for the next payload write, if any (keepalives
    /// do not advance the ordinal).
    pub fn next(&self) -> Option<FaultAction> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.faults.iter().find(|(nth, _)| *nth == n).map(|(_, a)| *a)
    }
}

/// What a fault injector decided to do with one frame.
#[derive(Debug)]
pub enum FrameFate {
    /// Deliver these frames (normally one; two when duplicated; a corrupted
    /// or delayed frame also lands here).
    Deliver(Vec<Bytes>),
    /// The frame was lost on the wire; its byte length for accounting.
    Dropped(u64),
}

/// Per-link runtime fault state: a frame counter plus the faults scheduled
/// for this link, applied deterministically.
#[derive(Debug)]
pub struct FaultInjector {
    counter: AtomicU64,
    faults: Vec<(u64, FaultAction)>,
    seed: u64,
}

impl FaultInjector {
    /// Admit one outgoing frame, applying the first fault scheduled for its
    /// ordinal (1-based), if any.
    pub fn admit(&self, frame: Bytes) -> FrameFate {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        let action = self.faults.iter().find(|(nth, _)| *nth == n).map(|(_, a)| *a);
        match action {
            None => FrameFate::Deliver(vec![frame]),
            Some(FaultAction::DropFrame) => FrameFate::Dropped(frame.len() as u64),
            Some(FaultAction::DuplicateFrame) => FrameFate::Deliver(vec![frame.clone(), frame]),
            Some(FaultAction::CorruptFrame) => {
                let mut corrupted = BytesMut::from(&frame[..]);
                if !corrupted.is_empty() {
                    // Setting the tag's high bit guarantees the receiver sees
                    // an invalid message tag rather than a silently altered
                    // payload; the seed varies the low bits.
                    corrupted[0] ^= 0x80 | (self.seed.wrapping_add(n) as u8 & 0x7f) | 0x01;
                }
                FrameFate::Deliver(vec![corrupted.freeze()])
            }
            Some(FaultAction::DelayFrameMillis(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                FrameFate::Deliver(vec![frame])
            }
            // Worker lifecycle faults are enacted inside the worker loop
            // and transport faults inside the TCP pumps, never at the link
            // layer ([`FaultPlan::injector_for`] filters both out; this arm
            // is unreachable but total).
            Some(FaultAction::KillWorker)
            | Some(FaultAction::PanicWorker)
            | Some(FaultAction::CutLinkMidFrame)
            | Some(FaultAction::StallLinkMillis(_)) => FrameFate::Deliver(vec![frame]),
        }
    }
}

/// The sending half of a counted link, optionally routed through a fault
/// injector.
#[derive(Debug, Clone)]
pub struct LinkSender {
    tx: Sender<Bytes>,
    counters: Arc<LinkCounters>,
    faults: Option<Arc<FaultInjector>>,
}

impl LinkSender {
    /// Send a frame, counting its bytes. Returns false if the peer is gone.
    /// Injected faults may drop, duplicate, corrupt, or delay the frame;
    /// dropped frames still count as sent (the wire consumed them).
    pub fn send(&self, frame: Bytes) -> bool {
        deliver_via(&self.tx, &self.counters, &self.faults, &frame).is_empty()
    }

    pub fn counters(&self) -> &Arc<LinkCounters> {
        &self.counters
    }

    /// A copy of this sender routed through `faults` (per-machine injection
    /// on the shared worker→coordinator channel).
    pub fn with_faults(&self, faults: Option<Arc<FaultInjector>>) -> LinkSender {
        LinkSender { tx: self.tx.clone(), counters: Arc::clone(&self.counters), faults }
    }

    /// Wrap an arbitrary channel sender in a counted link sender — the TCP
    /// worker endpoint's egress, counted exactly like the in-process shared
    /// response channel so the wire ledger is transport-independent.
    pub fn over(tx: Sender<Bytes>, counters: Arc<LinkCounters>) -> LinkSender {
        LinkSender { tx, counters, faults: None }
    }

    /// The raw, uncounted channel sender (TCP ingress pumps forward frames
    /// that were already counted on the sending side).
    pub(crate) fn raw(&self) -> Sender<Bytes> {
        self.tx.clone()
    }
}

/// Create a counted link; returns the sender, the raw receiver, and the
/// shared counters.
pub fn counted_link() -> (LinkSender, Receiver<Bytes>, Arc<LinkCounters>) {
    let (tx, rx) = unbounded();
    let counters = Arc::new(LinkCounters::default());
    (LinkSender { tx, counters: Arc::clone(&counters), faults: None }, rx, counters)
}

/// Which wire implementation carries coordinator↔worker frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (the original simulated wire).
    #[default]
    Channel,
    /// Loopback `std::net::TcpStream` sockets with length-prefixed framing.
    Tcp,
}

/// A rejected [`HeartbeatConfig`]: zero durations or a read timeout that
/// does not exceed the keepalive interval (a reader whose silence budget is
/// at or below the sender's idle cadence flaps healthy links on scheduling
/// jitter alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatConfigError {
    ZeroInterval,
    ZeroReadTimeout,
    ReadTimeoutNotAboveInterval { interval: Duration, read_timeout: Duration },
}

impl std::fmt::Display for HeartbeatConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeartbeatConfigError::ZeroInterval => {
                write!(f, "DISKS_HEARTBEAT_MS must be at least 1")
            }
            HeartbeatConfigError::ZeroReadTimeout => {
                write!(f, "DISKS_TCP_READ_TIMEOUT_MS must be at least 1")
            }
            HeartbeatConfigError::ReadTimeoutNotAboveInterval { interval, read_timeout } => write!(
                f,
                "read timeout {}ms must exceed the keepalive interval {}ms \
                 (an at-or-below budget flaps healthy idle links)",
                read_timeout.as_millis(),
                interval.as_millis()
            ),
        }
    }
}

impl std::error::Error for HeartbeatConfigError {}

/// Liveness parameters of a TCP link: how often an idle sending pump emits
/// a keepalive, and how long a silent peer may stay silent before the
/// reading pump declares the link stalled. The read timeout must exceed the
/// interval (with margin for scheduling jitter) or healthy idle links flap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Keepalive emission period of an idle sender (`DISKS_HEARTBEAT_MS`,
    /// default 100).
    pub interval: Duration,
    /// Read-side silence budget (`DISKS_TCP_READ_TIMEOUT_MS`, default
    /// 1000).
    pub read_timeout: Duration,
}

impl HeartbeatConfig {
    /// Validate an interval/read-timeout pair with a typed error instead of
    /// letting a nonsensical combination silently flap links at runtime.
    pub fn checked(
        interval: Duration,
        read_timeout: Duration,
    ) -> Result<HeartbeatConfig, HeartbeatConfigError> {
        if interval.is_zero() {
            return Err(HeartbeatConfigError::ZeroInterval);
        }
        if read_timeout.is_zero() {
            return Err(HeartbeatConfigError::ZeroReadTimeout);
        }
        if read_timeout <= interval {
            return Err(HeartbeatConfigError::ReadTimeoutNotAboveInterval {
                interval,
                read_timeout,
            });
        }
        Ok(HeartbeatConfig { interval, read_timeout })
    }
}

impl Default for HeartbeatConfig {
    /// The shipped timing: a keepalive every 100 ms, a 1 s read timeout.
    fn default() -> HeartbeatConfig {
        HeartbeatConfig {
            interval: Duration::from_millis(100),
            read_timeout: Duration::from_secs(1),
        }
    }
}

/// One coordinator→worker link: frames go through the fault injector and
/// byte/frame counters here, identically on every transport, which is what
/// lets the whole chaos suite run unchanged over channels and sockets.
///
/// The two send entry points encode the ledger's exact counting rules:
/// dispatch/retry traffic is faulted *and* counted ([`Link::deliver`]), and
/// shutdown — like the raw re-delivery of a frame already counted — is
/// neither ([`Link::send_raw`]).
pub trait Link: Send {
    /// Deliver one frame through faults and counters, blocking while the
    /// peer's bounded queue is full. Frames the peer never accepted (it
    /// vanished mid-send) are returned so the caller can respawn it and
    /// re-deliver them raw — their bytes are already counted.
    fn deliver(&self, frame: &Bytes) -> Vec<Bytes>;

    /// Hand a frame to the peer without counting or faults.
    fn send_raw(&self, frame: Bytes) -> bool;

    /// This direction's byte/frame ledger.
    fn counters(&self) -> &Arc<LinkCounters>;

    /// Whether the transport has observed the link broken or stalled (EOF,
    /// reset, heartbeat miss). Channel links never report down — thread
    /// liveness covers them.
    fn is_down(&self) -> bool;

    /// Tear the link down (idempotent): nothing more is sent, and the peer
    /// sees the end of the stream. What the peer had already sent is still
    /// received — a dead worker's last answers — until it closes its end or
    /// its link goes silent past the read timeout.
    fn close(&self);
}

/// Shared delivery logic of every link direction (coordinator→worker
/// [`Link`]s and the worker→coordinator [`LinkSender`]): apply the
/// injector, count every admitted frame, queue it, and surface frames the
/// peer never accepted.
fn deliver_via(
    tx: &Sender<Bytes>,
    counters: &LinkCounters,
    faults: &Option<Arc<FaultInjector>>,
    frame: &Bytes,
) -> Vec<Bytes> {
    let frames = match faults {
        None => vec![frame.clone()],
        Some(inj) => match inj.admit(frame.clone()) {
            FrameFate::Deliver(frames) => frames,
            FrameFate::Dropped(len) => {
                // The wire consumed the dropped frame: counted, not queued.
                counters.record(len);
                return Vec::new();
            }
        },
    };
    // Count every copy before the first enqueue: the receiver may act on
    // the first copy the instant it lands, and the straggler drain
    // reconciles its consumption against these counters — a copy enqueued
    // before its sibling is counted could slip past the drain.
    for f in &frames {
        counters.record(f.len() as u64);
    }
    let mut undelivered = Vec::new();
    for f in frames {
        if let Err(SendError(f)) = tx.send(f) {
            undelivered.push(f);
        }
    }
    undelivered
}

/// The original in-process transport: a bounded crossbeam channel whose
/// receiver the worker thread owns.
pub struct ChannelLink {
    tx: Sender<Bytes>,
    counters: Arc<LinkCounters>,
    faults: Option<Arc<FaultInjector>>,
}

impl ChannelLink {
    /// Build the coordinator half over an existing bounded sender.
    pub fn new(
        tx: Sender<Bytes>,
        counters: Arc<LinkCounters>,
        faults: Option<Arc<FaultInjector>>,
    ) -> ChannelLink {
        ChannelLink { tx, counters, faults }
    }
}

impl Link for ChannelLink {
    fn deliver(&self, frame: &Bytes) -> Vec<Bytes> {
        deliver_via(&self.tx, &self.counters, &self.faults, frame)
    }

    fn send_raw(&self, frame: Bytes) -> bool {
        self.tx.send(frame).is_ok()
    }

    fn counters(&self) -> &Arc<LinkCounters> {
        &self.counters
    }

    fn is_down(&self) -> bool {
        false
    }

    fn close(&self) {}
}

/// The socket transport's sending pump: drains the link's bounded queue
/// onto the wire as length-framed payloads, emitting keepalives while
/// idle and enacting pump-level transport faults. Exits (closing the
/// socket) on write failure or when the queue disconnects.
fn egress_pump(
    mut wire: TcpStream,
    rx: Receiver<Bytes>,
    heartbeat: Duration,
    faults: Option<Arc<TransportFaults>>,
    down: Arc<AtomicBool>,
) {
    loop {
        match rx.recv_timeout(heartbeat) {
            Ok(frame) => match faults.as_ref().and_then(|t| t.next()) {
                Some(FaultAction::CutLinkMidFrame) => {
                    let _ = framing::write_partial_frame(&mut wire, &frame);
                    down.store(true, Ordering::Release);
                    let _ = wire.shutdown(Shutdown::Both);
                    return;
                }
                Some(FaultAction::StallLinkMillis(ms)) => {
                    // Sleeping here silences keepalives too — exactly the
                    // stall the peer's read timeout exists to catch.
                    thread::sleep(Duration::from_millis(ms));
                    if framing::write_frame(&mut wire, &frame).is_err() {
                        down.store(true, Ordering::Release);
                        let _ = wire.shutdown(Shutdown::Both);
                        return;
                    }
                }
                _ => {
                    if framing::write_frame(&mut wire, &frame).is_err() {
                        down.store(true, Ordering::Release);
                        let _ = wire.shutdown(Shutdown::Both);
                        return;
                    }
                }
            },
            Err(RecvTimeoutError::Timeout) => {
                if framing::write_keepalive(&mut wire).is_err() {
                    down.store(true, Ordering::Release);
                    let _ = wire.shutdown(Shutdown::Both);
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Orderly teardown: the link owner dropped the queue.
                let _ = wire.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// The socket transport's reading pump: reassembles the framed stream and
/// forwards payload frames into `out`. Exits — marking the link down and
/// closing the socket — on EOF, reset, read timeout (heartbeat miss), or a
/// framing error (torn or over-length frame). When it is `out`'s consumer
/// that is gone, not the link, it closes the reading half only: the sending
/// half belongs to the egress pump, which first writes out what that
/// consumer had queued — a crashed worker's last answers — and then closes
/// the socket itself.
fn ingress_pump(
    mut wire: TcpStream,
    out: Sender<Bytes>,
    received: Option<Arc<LinkCounters>>,
    down: Arc<AtomicBool>,
) {
    let mut asm = FrameAssembler::new();
    let mut buf = [0u8; 16 * 1024];
    'link: loop {
        match wire.read(&mut buf) {
            Ok(0) => break 'link,
            Ok(n) => {
                asm.extend(&buf[..n]);
                loop {
                    match asm.next_event() {
                        Ok(Some(StreamEvent::Frame(f))) => {
                            if let Some(c) = &received {
                                c.record(f.len() as u64);
                            }
                            if out.send(f).is_err() {
                                down.store(true, Ordering::Release);
                                let _ = wire.shutdown(Shutdown::Read);
                                return;
                            }
                        }
                        // A keepalive exists to keep the read timeout from
                        // firing; the read that delivered it already has.
                        Ok(Some(StreamEvent::Keepalive)) => {}
                        Ok(None) => break,
                        Err(_) => break 'link,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break 'link,
        }
    }
    down.store(true, Ordering::Release);
    let _ = wire.shutdown(Shutdown::Both);
}

/// A coordinator→worker link over a real TCP stream. Delivery semantics
/// (faults, counters, the bounded queue) are identical to
/// [`ChannelLink`] — the socket machinery lives in two pump threads below
/// the seam. Incoming response frames are forwarded into the cluster's
/// shared response channel; `received` counters apply only when the sender
/// could not count them itself (remote worker processes).
pub struct TcpLink {
    tx: Sender<Bytes>,
    counters: Arc<LinkCounters>,
    faults: Option<Arc<FaultInjector>>,
    down: Arc<AtomicBool>,
    stream: TcpStream,
}

impl TcpLink {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        stream: TcpStream,
        machine: usize,
        counters: Arc<LinkCounters>,
        faults: Option<Arc<FaultInjector>>,
        transport_faults: Option<Arc<TransportFaults>>,
        responses: Sender<Bytes>,
        received: Option<Arc<LinkCounters>>,
        heartbeat: HeartbeatConfig,
    ) -> std::io::Result<TcpLink> {
        stream.set_nodelay(true)?;
        let (tx, rx) = bounded(QUEUE_FRAMES);
        let down = Arc::new(AtomicBool::new(false));
        let writer = stream.try_clone()?;
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(heartbeat.read_timeout))?;
        let tx_down = Arc::clone(&down);
        thread::Builder::new()
            .name(format!("disks-link-tx-{machine}"))
            .spawn(move || egress_pump(writer, rx, heartbeat.interval, transport_faults, tx_down))
            .expect("spawn link egress pump");
        let rx_down = Arc::clone(&down);
        thread::Builder::new()
            .name(format!("disks-link-rx-{machine}"))
            .spawn(move || ingress_pump(reader, responses, received, rx_down))
            .expect("spawn link ingress pump");
        Ok(TcpLink { tx, counters, faults, down, stream })
    }
}

impl Link for TcpLink {
    fn deliver(&self, frame: &Bytes) -> Vec<Bytes> {
        deliver_via(&self.tx, &self.counters, &self.faults, frame)
    }

    fn send_raw(&self, frame: Bytes) -> bool {
        self.tx.send(frame).is_ok()
    }

    fn counters(&self) -> &Arc<LinkCounters> {
        &self.counters
    }

    fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    fn close(&self) {
        self.down.store(true, Ordering::Release);
        // The sending half only: the ingress pump reads on to the peer's end
        // of the stream (a dead worker's egress pump flushes, then closes).
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// The worker's half of a TCP link: a request receiver that feeds the
/// unchanged `worker_loop`, and an egress sender its counted
/// [`LinkSender`] wraps (via [`LinkSender::over`]). Its own pump pair
/// mirrors the coordinator side — keepalives while idle, read-timeout
/// supervision, socket closed on any failure — so a dead coordinator (or a
/// cut link) tears the worker down promptly instead of leaving it hung.
pub struct TcpWorkerEndpoint {
    pub requests: Receiver<Bytes>,
    pub egress: Sender<Bytes>,
}

/// Stand up the worker-side pumps over a connected stream.
pub fn tcp_worker_endpoint(
    stream: TcpStream,
    machine: usize,
    heartbeat: HeartbeatConfig,
    transport_faults: Option<Arc<TransportFaults>>,
) -> std::io::Result<TcpWorkerEndpoint> {
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(heartbeat.read_timeout))?;
    let writer = stream;
    let (req_tx, req_rx) = unbounded();
    let (resp_tx, resp_rx) = unbounded();
    let down = Arc::new(AtomicBool::new(false));
    let rx_down = Arc::clone(&down);
    thread::Builder::new()
        .name(format!("disks-peer-rx-{machine}"))
        .spawn(move || ingress_pump(reader, req_tx, None, rx_down))
        .expect("spawn worker ingress pump");
    thread::Builder::new()
        .name(format!("disks-peer-tx-{machine}"))
        .spawn(move || egress_pump(writer, resp_rx, heartbeat.interval, transport_faults, down))
        .expect("spawn worker egress pump");
    Ok(TcpWorkerEndpoint { requests: req_rx, egress: resp_tx })
}

/// A connected loopback socket pair: (coordinator side, worker side). The
/// in-process TCP transport runs every link over one of these.
pub fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let worker_side = TcpStream::connect(addr)?;
    let (coordinator_side, _) = listener.accept()?;
    Ok((coordinator_side, worker_side))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that dies with answers still queued behind a slow socket
    /// loses none of them: its ingress pump finds the request receiver gone
    /// on the next frame, and must leave the sending half to the egress
    /// pump. (Closing both halves there cut off every answer not yet
    /// written — seen as stall retries of windows answered before a kill.)
    /// The egress pump's stall keeps the answers queued for as long as the
    /// ingress pump needs; what crosses afterwards does not depend on it.
    #[test]
    fn answers_queued_when_the_worker_died_still_cross_the_socket() {
        use crate::framing::{write_frame, FrameAssembler, StreamEvent};
        use std::io::Read;

        let (mut coordinator_side, worker_side) = loopback_pair().unwrap();
        let stall = FaultPlan::new(1)
            .stall_link(0, LinkDirection::WorkerToCoordinator, 1, 200)
            .transport_faults_for(0, LinkDirection::WorkerToCoordinator);
        let TcpWorkerEndpoint { requests, egress } =
            tcp_worker_endpoint(worker_side, 0, HeartbeatConfig::default(), stall).unwrap();
        let answers = [Bytes::from_static(b"answer 1"), Bytes::from_static(b"answer 2")];
        for answer in &answers {
            egress.send(answer.clone()).unwrap();
        }
        // The worker thread is gone, and a request arrives for it.
        drop((requests, egress));
        write_frame(&mut coordinator_side, b"request").unwrap();

        coordinator_side.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut asm, mut buf, mut got) = (FrameAssembler::new(), [0u8; 256], Vec::new());
        loop {
            let n = coordinator_side.read(&mut buf).expect("the answers, then an orderly close");
            if n == 0 {
                break;
            }
            asm.extend(&buf[..n]);
            while let Some(event) = asm.next_event().unwrap() {
                if let StreamEvent::Frame(f) = event {
                    got.push(f);
                }
            }
        }
        assert_eq!(got, answers);
    }

    #[test]
    fn counters_track_bytes_and_messages() {
        let (tx, rx, counters) = counted_link();
        assert!(tx.send(Bytes::from_static(b"hello")));
        assert!(tx.send(Bytes::from_static(b"world!!")));
        assert_eq!(counters.bytes(), 12);
        assert_eq!(counters.messages(), 2);
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"world!!"));
    }

    #[test]
    fn send_to_dropped_receiver_reports_failure_but_counts() {
        let (tx, rx, counters) = counted_link();
        drop(rx);
        assert!(!tx.send(Bytes::from_static(b"x")));
        assert_eq!(counters.bytes(), 1);
    }

    #[test]
    fn network_model_transfer_time() {
        let m = NetworkModel { latency: Duration::from_millis(1), bandwidth_bytes_per_sec: 1000 };
        assert_eq!(m.transfer_time(0), Duration::from_millis(1));
        assert_eq!(m.transfer_time(1000), Duration::from_millis(1) + Duration::from_secs(1));
    }

    #[test]
    fn fault_plan_drops_duplicates_and_corrupts_deterministically() {
        let plan = FaultPlan::new(42)
            .drop_frame(0, LinkDirection::WorkerToCoordinator, 1)
            .duplicate_frame(0, LinkDirection::WorkerToCoordinator, 2)
            .corrupt_frame(0, LinkDirection::WorkerToCoordinator, 3);
        let inj = plan.injector_for(0, LinkDirection::WorkerToCoordinator).unwrap();
        let frame = Bytes::from_static(b"\x00abc");
        match inj.admit(frame.clone()) {
            FrameFate::Dropped(4) => {}
            other => panic!("expected drop, got {other:?}"),
        }
        match inj.admit(frame.clone()) {
            FrameFate::Deliver(v) => assert_eq!(v.len(), 2),
            other => panic!("expected duplicate, got {other:?}"),
        }
        match inj.admit(frame.clone()) {
            FrameFate::Deliver(v) => {
                assert_eq!(v.len(), 1);
                assert_ne!(v[0], frame);
                assert!(v[0][0] & 0x80 != 0, "corruption must poison the tag byte");
            }
            other => panic!("expected corrupted delivery, got {other:?}"),
        }
        // Fourth frame onward is untouched.
        match inj.admit(frame.clone()) {
            FrameFate::Deliver(v) => assert_eq!(v, vec![frame]),
            other => panic!("expected clean delivery, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_scopes_injectors_per_link() {
        let plan = FaultPlan::new(7)
            .drop_frame(1, LinkDirection::CoordinatorToWorker, 1)
            .kill_worker(2, 3)
            .panic_worker(0, 1);
        assert!(plan.injector_for(0, LinkDirection::CoordinatorToWorker).is_none());
        assert!(plan.injector_for(1, LinkDirection::WorkerToCoordinator).is_none());
        assert!(plan.injector_for(1, LinkDirection::CoordinatorToWorker).is_some());
        // Worker lifecycle faults never become link injectors.
        assert!(plan.injector_for(2, LinkDirection::CoordinatorToWorker).is_none());
        assert_eq!(plan.kill_request_for(2), Some(3));
        assert_eq!(plan.kill_request_for(0), None);
        assert_eq!(plan.panic_request_for(0), Some(1));
    }

    #[test]
    fn faulty_sender_counts_dropped_bytes_as_sent() {
        let plan = FaultPlan::new(1).drop_frame(0, LinkDirection::WorkerToCoordinator, 1);
        let (tx, rx, counters) = counted_link();
        let tx = tx.with_faults(plan.injector_for(0, LinkDirection::WorkerToCoordinator));
        assert!(tx.send(Bytes::from_static(b"lost")));
        assert!(tx.send(Bytes::from_static(b"kept")));
        assert_eq!(counters.bytes(), 8, "dropped frames still consumed the wire");
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"kept"));
        assert!(rx.try_recv().is_err(), "dropped frame never delivered");
    }

    #[test]
    fn paper_switch_is_12_5_mbytes() {
        let m = NetworkModel::switch_100mbps();
        // 12.5 MB should take ~1 second plus latency.
        let t = m.transfer_time(12_500_000);
        assert!(t >= Duration::from_secs(1));
        assert!(t < Duration::from_millis(1100));
    }
}
