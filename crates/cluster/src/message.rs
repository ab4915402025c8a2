//! Wire protocol between the coordinator and the workers.
//!
//! Messages are encoded with the hand-written binary codec so the byte
//! counts reported in the communication experiments are exactly what a TCP
//! implementation would put on the wire (minus transport framing).
//!
//! A plan's evaluation is asked for two ways — [`Request::Evaluate`] for one
//! query, [`Request::Batch`] for a merged window — and either names every
//! coverage slot by its full `(term, radius)` spec, so a frame means the same
//! to a worker whatever it has or has not seen before. Either also says which
//! fragments to evaluate on: an `Evaluate`'s `fragments` list (empty: all the
//! worker hosts), and each `Batch` program's [`disks_core::Targets`]. A batch
//! answers a program on a fragment it does not target with the one-byte
//! [`BatchAnswer::Skipped`], and a fragment no program targets with no frame.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use disks_core::{NodeRuns, QueryCost, QueryError, QueryPlan, Ranked, SuperPlan, TopKQuery};
use disks_roadnet::codec::{decode_len, Decode, Encode};
use disks_roadnet::DecodeError;

use crate::cache::CacheCounters;
use crate::framing::MAX_FRAME_LEN;

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Evaluate a normalized query plan on hosted fragments. An empty
    /// `fragments` list means every fragment the worker hosts; a non-empty
    /// list narrows the task to just those fragments (retry re-dispatch
    /// after a fault). The plan was admitted by the coordinator, so workers
    /// assume its radii and locations are valid.
    Evaluate { query_id: u64, plan: QueryPlan, fragments: Vec<u32> },
    /// Evaluate a top-k group keyword query on hosted fragments (same
    /// narrowing rule as `Evaluate`).
    TopK { query_id: u64, query: TopKQuery, fragments: Vec<u32> },
    /// Evaluate a merged batch of query plans on hosted fragments in one
    /// round. Query `i` of the batch (0-based) has id `base + 1 + i` and is
    /// evaluated on its program's targets; the worker answers with one
    /// [`Response::BatchResults`] frame per hosted fragment some program
    /// targets, answers in batch order. Same fragment-narrowing rule as
    /// `Evaluate`.
    Batch { base: u64, plan: SuperPlan, fragments: Vec<u32> },
    /// Terminate the worker loop.
    Shutdown,
}

/// What the coordinator reads of a task's cost: the [`QueryCost`] fields
/// it aggregates plus the worker's coverage-cache activity for the task,
/// seven fixed-width `u64` fields, 56 bytes on the wire. Theorem 5's α, β
/// and coverage counts stay on the engine's [`QueryCost`], where they are
/// measured and tested; no coordinator decision reads them. The coordinator
/// credits the cost to the fragment's owner, so it names no machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCost {
    /// Nodes the task's searches settled (`QueryStats::total_settled`).
    pub settled: u64,
    /// The task's compute time: a machine's share of the slowest task and
    /// of the unbalance factor U.
    pub elapsed_micros: u64,
    /// Coverage-cache hits while serving this task.
    pub cache_hits: u64,
    /// Coverage-cache misses while serving this task.
    pub cache_misses: u64,
    /// Coverage-cache evictions triggered while serving this task.
    pub cache_evictions: u64,
    /// Coverage slots served from the batch-shared result map (computed or
    /// fetched once by an earlier query of the same batch). Always 0 on the
    /// single-query path; not counted as LRU hits so the cache ledger stays
    /// exact.
    pub batch_shared: u64,
    /// Coverages whose payload was below the cache's per-entry bookkeeping
    /// overhead and therefore skipped insertion (counted as misses too —
    /// they were computed; this field just explains why they never became
    /// hits).
    pub cache_bypassed: u64,
}

impl WireCost {
    /// The worker's coverage-cache activity for the task.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.cache_hits,
            misses: self.cache_misses,
            evictions: self.cache_evictions,
            bypassed: self.cache_bypassed,
        }
    }
}

impl From<&QueryCost> for WireCost {
    fn from(c: &QueryCost) -> Self {
        WireCost {
            settled: c.settled as u64,
            elapsed_micros: c.elapsed.as_micros() as u64,
            ..WireCost::default()
        }
    }
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Results for one fragment hosted by the worker: global node ids as
    /// `FragmentEngine::to_global` reads them off the local bitset — the
    /// form the wire layout (`encode_runs`) writes and the coordinator's
    /// gather unions, never expanded in between.
    Results { query_id: u64, fragment: u32, nodes: NodeRuns, cost: WireCost },
    /// Locally ranked top-k results for one fragment.
    TopKResults { query_id: u64, fragment: u32, ranked: Vec<Ranked>, cost: WireCost },
    /// The query failed on this worker, with the typed error encoded on the
    /// wire — the coordinator can classify it (retryable vs. permanent)
    /// without sniffing display strings.
    Failed { query_id: u64, fragment: u32, error: QueryError },
    /// One fragment's answers for a whole [`Request::Batch`], in batch
    /// order: `answers[i]` answers query `base + 1 + i`. Each answer carries
    /// its own per-query [`WireCost`] so coordinator-side attribution stays
    /// per-query exact under batching.
    BatchResults { base: u64, fragment: u32, answers: Vec<BatchAnswer> },
}

/// Tag byte of a [`Response::BatchResults`] frame.
const BATCH_RESULTS_TAG: u8 = 3;

/// One query's outcome inside a [`Response::BatchResults`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchAnswer {
    /// The query's local result on this fragment (as in
    /// [`Response::Results`]).
    Results { nodes: NodeRuns, cost: WireCost },
    /// The query failed on this fragment; the rest of the batch is
    /// unaffected (the coordinator re-dispatches just this query).
    Failed(QueryError),
    /// The query does not target this fragment ([`disks_core::Targets`]):
    /// the coordinator pruned the pair and expects no answer. One tag byte.
    Skipped,
}

impl Encode for BatchAnswer {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            BatchAnswer::Results { nodes, cost } => {
                0u8.encode(buf);
                encode_runs(nodes, buf);
                cost.encode(buf);
            }
            BatchAnswer::Failed(error) => {
                1u8.encode(buf);
                error.encode(buf);
            }
            BatchAnswer::Skipped => 2u8.encode(buf),
        }
    }
}
impl BatchAnswer {
    /// Decode one answer and report what its standalone
    /// [`Response::Results`] frame would have weighed
    /// ([`results_frame_len`] of the id bytes just read; 0 for a failure or
    /// a skipped query, which are charged nothing).
    fn decode_measured(buf: &mut impl Buf) -> Result<(Self, u64), DecodeError> {
        match u8::decode(buf)? {
            0 => {
                let before = buf.remaining();
                let nodes = decode_runs(buf)?;
                let id_bytes = (before - buf.remaining()) as u64;
                let cost = WireCost::decode(buf)?;
                Ok((BatchAnswer::Results { nodes, cost }, results_frame_len(id_bytes)))
            }
            1 => Ok((BatchAnswer::Failed(QueryError::decode(buf)?), 0)),
            2 => Ok((BatchAnswer::Skipped, 0)),
            tag => Err(DecodeError::BadTag { context: "BatchAnswer", tag }),
        }
    }
}

/// Decode the answer list of a [`Response::BatchResults`] frame, handing
/// each answer and its byte charge (see [`BatchAnswer::decode_measured`]) to
/// `keep` and collecting what it keeps — the one reader behind both
/// [`Response::decode`] and [`decode_gather_items`].
fn decode_answers<T>(
    buf: &mut impl Buf,
    mut keep: impl FnMut(BatchAnswer, u64) -> Option<T>,
) -> Result<Vec<T>, DecodeError> {
    let len = decode_len(buf, "BatchResults.answers")?;
    let mut out = Vec::with_capacity(len.min(buf.remaining() / size_of::<T>()));
    for _ in 0..len {
        let (answer, bytes) = BatchAnswer::decode_measured(buf)?;
        out.extend(keep(answer, bytes));
    }
    Ok(out)
}

/// Encoded size of a [`WireCost`]: seven fixed-width `u64` fields, 56
/// bytes. Fixed width keeps frame byte ledgers independent of the
/// (nondeterministic) timing values.
pub(crate) const WIRE_COST_LEN: u64 = 7 * 8;

/// Exact encoded size of a [`Response::Results`] frame whose id list
/// encodes ([`encode_runs`]) to `id_bytes`: tag + query id + fragment + ids +
/// cost, `13 + id_bytes + 56`.
///
/// Used to apportion a batch frame's bytes to its member queries — each
/// answer is charged what its standalone result frame would have cost, so
/// per-query byte accounting is the same whether a query rode a window or
/// ran alone (the batch frame itself is smaller than the sum; the saving is
/// visible in the link totals).
pub(crate) fn results_frame_len(id_bytes: u64) -> u64 {
    1 + 8 + 4 + id_bytes + WIRE_COST_LEN
}

/// Most ids one answer may expand to: what the raw 4-byte layout could carry
/// in the largest legal frame. [`NodeRuns`] cannot hold more, so no encoder
/// can be handed an over-long answer; the decoder checks the claimed count
/// against it before anything else.
pub const MAX_ANSWER_IDS: usize = NodeRuns::MAX_IDS;
const _: () = assert!(MAX_ANSWER_IDS == MAX_FRAME_LEN / 4);

/// Runs [`decode_runs`] reserves before it has read one, whatever the input
/// claims (2 KiB; a fragment's answer on the benchmark's dataset is ~200
/// runs, a larger one grows as its runs are validated). The count bounds the
/// runs only from above — ten ids a run is typical — and reserving for it
/// was measured at twice the decode time of this.
const ANSWER_RESERVE_RUNS: usize = 256;

/// Longest varint the answer layout uses: gap and run length are below 2³³
/// (a 32-bit gap shifted by the flag bit), which is 5 × 7 bits.
const VARINT_MAX_BYTES: usize = 5;

/// Write `v` as a little-endian base-128 varint at the front of `out`;
/// returns the bytes written (at most [`VARINT_MAX_BYTES`] for `v < 2³⁵`).
fn write_varint(mut v: u64, out: &mut [u8]) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Read a little-endian base-128 varint of at most [`VARINT_MAX_BYTES`]
/// bytes (so the value is below 2³⁵ and no later sum can overflow `u64`)
/// off the front of `unread`.
fn get_varint(unread: &mut &[u8]) -> Result<u64, DecodeError> {
    // Most gaps and lengths are below 128: one byte, no loop.
    if let [b @ 0..0x80, rest @ ..] = *unread {
        *unread = rest;
        return Ok(u64::from(*b));
    }
    let mut v = 0u64;
    for (i, &b) in unread.iter().take(VARINT_MAX_BYTES).enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            *unread = &unread[i + 1..];
            return Ok(v);
        }
    }
    Err(if unread.len() < VARINT_MAX_BYTES {
        DecodeError::UnexpectedEof { needed: unread.len() + 1, remaining: unread.len() }
    } else {
        DecodeError::LengthOutOfRange { context: "answer varint longer than 5 bytes", len: v }
    })
}

/// Write an answer — the one wire form of the [`NodeRuns`] in
/// [`Response::Results`] and [`BatchAnswer::Results`]:
///
/// ```text
/// answer := varint(count) run*
/// run    := varint(gap << 1 | has_len) [varint(len - 2)]   (has_len ⇔ len ≥ 2)
/// ```
///
/// A run is `len` consecutive ids starting `gap` above the smallest id not
/// yet ruled out (0 at first, the previous run's last id + 1 afterwards),
/// so an isolated id costs a delta-varint, a run of any length O(1) bytes,
/// an empty answer one byte. `count` is the number of ids, not runs. The
/// bytes depend only on the ids: a `NodeRuns` holds maximal runs, so after
/// the first run a gap is never 0.
fn encode_runs(nodes: &NodeRuns, buf: &mut impl BufMut) {
    // Varints are assembled here and appended a chunk at a time: the
    // buffer's per-call bookkeeping is paid per ~50 runs, not per byte.
    let mut chunk = [0u8; 256];
    let mut n = write_varint(nodes.len() as u64, &mut chunk);
    let mut next = 0u64;
    for &(start, len) in nodes.runs() {
        if n + 2 * VARINT_MAX_BYTES > chunk.len() {
            buf.put_slice(&chunk[..n]);
            n = 0;
        }
        let (start, len) = (u64::from(start), u64::from(len));
        let gap = start - next;
        if len == 1 {
            n += write_varint(gap << 1, &mut chunk[n..]);
        } else {
            n += write_varint(gap << 1 | 1, &mut chunk[n..]);
            n += write_varint(len - 2, &mut chunk[n..]);
        }
        next = start + len;
    }
    buf.put_slice(&chunk[..n]);
}

/// Read an answer written by [`encode_runs`] — and nothing else: each id set
/// has one encoding, so a run that touches the one before it (a gap of 0
/// after the first run) is refused like any other malformed input.
/// Everything is validated before memory is committed to it: the count
/// against [`MAX_ANSWER_IDS`], each run against the ids the count still
/// allows and against `u32::MAX`; a run costs at least a byte, so the
/// up-front reservation is bounded by the input that remains (and by
/// [`ANSWER_RESERVE_RUNS`]), whatever count it claims.
fn decode_runs(buf: &mut impl Buf) -> Result<NodeRuns, DecodeError> {
    // Parse off the unread slice (`chunk` is all of it in this workspace's
    // `bytes`) and advance once: a varint is 1–5 bytes, too small to pay the
    // buffer's per-read bookkeeping for each.
    let mut unread = buf.chunk();
    let before = unread.len();
    let count = get_varint(&mut unread)?;
    if count > MAX_ANSWER_IDS as u64 {
        return Err(DecodeError::LengthOutOfRange { context: "answer id count", len: count });
    }
    let reserve = (count as usize).min(unread.len()).min(ANSWER_RESERVE_RUNS);
    let mut out = NodeRuns::with_capacity(reserve);
    let mut left = count;
    let mut next = 0u64;
    while left > 0 {
        let head = get_varint(&mut unread)?;
        let gap = head >> 1;
        let len = if head & 1 == 1 { get_varint(&mut unread)? + 2 } else { 1 };
        let start = next + gap;
        let end = start + len;
        if end > 1 << 32 {
            return Err(DecodeError::LengthOutOfRange {
                context: "answer run past u32::MAX",
                len: end,
            });
        }
        if len > left {
            return Err(DecodeError::LengthOutOfRange {
                context: "answer run past the declared count",
                len,
            });
        }
        if gap == 0 && next > 0 {
            return Err(DecodeError::LengthOutOfRange {
                context: "answer run touching the run before it",
                len: start,
            });
        }
        out.push_run(start as u32, len as u32);
        left -= len;
        next = end;
    }
    let read = before - unread.len();
    buf.advance(read);
    Ok(out)
}

impl Encode for WireCost {
    fn encode(&self, buf: &mut impl BufMut) {
        self.settled.encode(buf);
        self.elapsed_micros.encode(buf);
        self.cache_hits.encode(buf);
        self.cache_misses.encode(buf);
        self.cache_evictions.encode(buf);
        self.batch_shared.encode(buf);
        self.cache_bypassed.encode(buf);
    }
}
impl Decode for WireCost {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(WireCost {
            settled: u64::decode(buf)?,
            elapsed_micros: u64::decode(buf)?,
            cache_hits: u64::decode(buf)?,
            cache_misses: u64::decode(buf)?,
            cache_evictions: u64::decode(buf)?,
            batch_shared: u64::decode(buf)?,
            cache_bypassed: u64::decode(buf)?,
        })
    }
}

impl Encode for Request {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Request::Evaluate { query_id, plan, fragments } => {
                0u8.encode(buf);
                query_id.encode(buf);
                plan.encode(buf);
                fragments.encode(buf);
            }
            Request::Shutdown => 1u8.encode(buf),
            Request::TopK { query_id, query, fragments } => {
                2u8.encode(buf);
                query_id.encode(buf);
                query.encode(buf);
                fragments.encode(buf);
            }
            Request::Batch { base, plan, fragments } => {
                3u8.encode(buf);
                base.encode(buf);
                plan.encode(buf);
                fragments.encode(buf);
            }
        }
    }
}
impl Decode for Request {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Request::Evaluate {
                query_id: u64::decode(buf)?,
                plan: QueryPlan::decode(buf)?,
                fragments: Vec::decode(buf)?,
            }),
            1 => Ok(Request::Shutdown),
            2 => Ok(Request::TopK {
                query_id: u64::decode(buf)?,
                query: TopKQuery::decode(buf)?,
                fragments: Vec::decode(buf)?,
            }),
            3 => Ok(Request::Batch {
                base: u64::decode(buf)?,
                plan: SuperPlan::decode(buf)?,
                fragments: Vec::decode(buf)?,
            }),
            // 4, 5 and 6 are retired (an earlier build's respawn Prewarm,
            // reference-elided batch and liveness probe), not reused: such a
            // frame is a typed error, never a misparse.
            tag => Err(DecodeError::BadTag { context: "Request", tag }),
        }
    }
}

impl Encode for Response {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Response::Results { query_id, fragment, nodes, cost } => {
                0u8.encode(buf);
                query_id.encode(buf);
                fragment.encode(buf);
                encode_runs(nodes, buf);
                cost.encode(buf);
            }
            Response::Failed { query_id, fragment, error } => {
                1u8.encode(buf);
                query_id.encode(buf);
                fragment.encode(buf);
                error.encode(buf);
            }
            Response::TopKResults { query_id, fragment, ranked, cost } => {
                2u8.encode(buf);
                query_id.encode(buf);
                fragment.encode(buf);
                ranked.encode(buf);
                cost.encode(buf);
            }
            Response::BatchResults { base, fragment, answers } => {
                BATCH_RESULTS_TAG.encode(buf);
                base.encode(buf);
                fragment.encode(buf);
                answers.encode(buf);
            }
        }
    }
}
impl Decode for Response {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Response::Results {
                query_id: u64::decode(buf)?,
                fragment: u32::decode(buf)?,
                nodes: decode_runs(buf)?,
                cost: WireCost::decode(buf)?,
            }),
            1 => Ok(Response::Failed {
                query_id: u64::decode(buf)?,
                fragment: u32::decode(buf)?,
                error: QueryError::decode(buf)?,
            }),
            2 => Ok(Response::TopKResults {
                query_id: u64::decode(buf)?,
                fragment: u32::decode(buf)?,
                ranked: Vec::decode(buf)?,
                cost: WireCost::decode(buf)?,
            }),
            BATCH_RESULTS_TAG => Ok(Response::BatchResults {
                base: u64::decode(buf)?,
                fragment: u32::decode(buf)?,
                answers: decode_answers(buf, |answer, _| Some(answer))?,
            }),
            // 4 is retired (an earlier build's probe acknowledgement), not
            // reused.
            tag => Err(DecodeError::BadTag { context: "Response", tag }),
        }
    }
}

/// Encode a message to a frame.
pub fn encode_frame<T: Encode>(msg: &T) -> Bytes {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    buf.freeze()
}

/// Decode a message from a frame, requiring full consumption.
pub fn decode_frame<T: Decode>(mut bytes: Bytes) -> Result<T, DecodeError> {
    let msg = T::decode(&mut bytes)?;
    expect_consumed(&bytes)?;
    Ok(msg)
}

fn expect_consumed(bytes: &Bytes) -> Result<(), DecodeError> {
    if bytes.has_remaining() {
        return Err(DecodeError::LengthOutOfRange {
            context: "trailing bytes after frame",
            len: bytes.remaining() as u64,
        });
    }
    Ok(())
}

/// Decode a worker's frame into the responses the gather handles one at a
/// time, each with the worker→coordinator bytes charged to it. A batch
/// frame expands into one standalone response per member query the frame's
/// fragment answers (`answers[i]` answers query `base + 1 + i`; a
/// [`BatchAnswer::Skipped`] yields nothing), charged what its own result
/// frame would have weighed — measured while its ids are read, not by
/// walking them again; any other frame is one item charged the frame's
/// length.
pub(crate) fn decode_gather_items(mut frame: Bytes) -> Result<Vec<(Response, u64)>, DecodeError> {
    if frame.first() != Some(&BATCH_RESULTS_TAG) {
        let frame_bytes = frame.len() as u64;
        return Ok(vec![(decode_frame(frame)?, frame_bytes)]);
    }
    frame.advance(1);
    let base = u64::decode(&mut frame)?;
    let fragment = u32::decode(&mut frame)?;
    let mut query_id = base;
    let items = decode_answers(&mut frame, |answer, bytes| {
        // A corrupt base that wraps lands outside every window and is
        // dropped there; it must not overflow here.
        query_id = query_id.wrapping_add(1);
        let response = match answer {
            BatchAnswer::Results { nodes, cost } => {
                Response::Results { query_id, fragment, nodes, cost }
            }
            BatchAnswer::Failed(error) => Response::Failed { query_id, fragment, error },
            BatchAnswer::Skipped => return None,
        };
        Some((response, bytes))
    })?;
    expect_consumed(&frame)?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_core::{DFunction, Term};
    use disks_roadnet::{KeywordId, NodeId};

    #[test]
    fn request_round_trip() {
        let plan = QueryPlan::lower(&DFunction::single(Term::Keyword(KeywordId(3)), 42));
        let req = Request::Evaluate { query_id: 7, plan: plan.clone(), fragments: vec![] };
        let frame = encode_frame(&req);
        assert_eq!(decode_frame::<Request>(frame).unwrap(), req);
        // Narrowed retry dispatch round-trips its fragment filter.
        let narrowed = Request::Evaluate { query_id: 8, plan, fragments: vec![2, 5] };
        let frame = encode_frame(&narrowed);
        assert_eq!(decode_frame::<Request>(frame).unwrap(), narrowed);
        let frame = encode_frame(&Request::Shutdown);
        assert_eq!(decode_frame::<Request>(frame).unwrap(), Request::Shutdown);
    }

    #[test]
    fn deduplicated_plan_shrinks_the_request_frame() {
        // R(a,5) ∩ R(b,5) ∩ R(a,5): the plan ships two slots, not three
        // coverage terms — normalization pays on the wire too.
        use disks_core::SetOp;
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 5)
            .then(SetOp::Intersect, Term::Keyword(KeywordId(1)), 5)
            .then(SetOp::Intersect, Term::Keyword(KeywordId(0)), 5);
        let dedup = QueryPlan::lower(&f);
        let no_dup = QueryPlan::lower(&DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
            SetOp::Intersect,
            Term::Keyword(KeywordId(1)),
            5,
        ));
        let dedup_len =
            encode_frame(&Request::Evaluate { query_id: 1, plan: dedup, fragments: vec![] }).len();
        let two_len =
            encode_frame(&Request::Evaluate { query_id: 1, plan: no_dup, fragments: vec![] }).len();
        // Same two slots, one extra (op, index) program entry.
        assert_eq!(dedup_len, two_len + 5);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::Results {
            query_id: 9,
            fragment: 2,
            nodes: vec![NodeId(1), NodeId(5)].into(),
            cost: WireCost {
                settled: 1,
                elapsed_micros: 2,
                cache_hits: 3,
                cache_misses: 4,
                cache_evictions: 5,
                batch_shared: 6,
                cache_bypassed: 7,
            },
        };
        let frame = encode_frame(&resp);
        assert_eq!(decode_frame::<Response>(frame).unwrap(), resp);
        let fail = Response::Failed {
            query_id: 9,
            fragment: 1,
            error: QueryError::RadiusExceedsMaxR { r: 100, max_r: 40 },
        };
        let frame = encode_frame(&fail);
        assert_eq!(decode_frame::<Response>(frame).unwrap(), fail);
    }

    #[test]
    fn topk_round_trip() {
        use disks_core::{ScoreCombine, TopKQuery};
        let req = Request::TopK {
            query_id: 4,
            query: TopKQuery::new(vec![KeywordId(1)], 5, 40, ScoreCombine::Max),
            fragments: vec![1],
        };
        let frame = encode_frame(&req);
        assert_eq!(decode_frame::<Request>(frame).unwrap(), req);
        let resp = Response::TopKResults {
            query_id: 4,
            fragment: 1,
            ranked: vec![(3, NodeId(7)), (9, NodeId(2))],
            cost: WireCost::default(),
        };
        let frame = encode_frame(&resp);
        assert_eq!(decode_frame::<Response>(frame).unwrap(), resp);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let frame = encode_frame(&Request::Shutdown);
        let mut extended = BytesMut::from(&frame[..]);
        extended.put_u8(0xff);
        assert!(decode_frame::<Request>(extended.freeze()).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(250);
        assert!(decode_frame::<Request>(buf.freeze()).is_err());
        let mut buf = BytesMut::new();
        buf.put_u8(250);
        assert!(decode_frame::<Response>(buf.freeze()).is_err());
        // A retired tag stays unassigned, whatever follows it.
        for tag in [4, 5, 6] {
            assert_eq!(
                decode_frame::<Request>(Bytes::from(vec![tag, 0, 0, 0, 0, 0, 0, 0, 0])),
                Err(DecodeError::BadTag { context: "Request", tag })
            );
        }
        assert_eq!(
            decode_frame::<Response>(Bytes::from_static(&[4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])),
            Err(DecodeError::BadTag { context: "Response", tag: 4 })
        );
    }

    /// A batch answer is a result (tag 0), a failure (tag 1) or a skipped
    /// query (tag 2, the whole answer); any other tag is refused.
    #[test]
    fn batch_answer_tags() {
        let empty = BatchAnswer::Results { nodes: NodeRuns::default(), cost: WireCost::default() };
        assert_eq!(encode_frame(&empty)[0], 0);
        assert_eq!(encode_frame(&BatchAnswer::Failed(QueryError::EmptyQuery))[0], 1);
        assert_eq!(&encode_frame(&BatchAnswer::Skipped)[..], [2]);
        let frame = |answer: u8| {
            let mut buf = BytesMut::new();
            buf.put_u8(BATCH_RESULTS_TAG);
            buf.put_u64_le(7);
            buf.put_u32_le(0);
            buf.put_u32_le(1);
            buf.put_u8(answer);
            buf.freeze()
        };
        let skipped =
            Response::BatchResults { base: 7, fragment: 0, answers: vec![BatchAnswer::Skipped] };
        assert_eq!(decode_frame::<Response>(frame(2)), Ok(skipped));
        for tag in [3, 250] {
            let refused = DecodeError::BadTag { context: "BatchAnswer", tag };
            assert_eq!(decode_frame::<Response>(frame(tag)), Err(refused.clone()));
            assert_eq!(decode_gather_items(frame(tag)), Err(refused));
        }
    }

    /// A skipped answer yields no gather item: the coordinator pruned the
    /// pair and expects nothing; its neighbours keep their query ids.
    #[test]
    fn a_skipped_answer_is_no_gather_item() {
        let results =
            BatchAnswer::Results { nodes: vec![NodeId(4)].into(), cost: WireCost::default() };
        let batch = Response::BatchResults {
            base: 10,
            fragment: 2,
            answers: vec![
                BatchAnswer::Skipped,
                results,
                BatchAnswer::Skipped,
                BatchAnswer::Skipped,
            ],
        };
        let frame = encode_frame(&batch);
        assert_eq!(decode_frame::<Response>(frame.clone()), Ok(batch));
        let items = decode_gather_items(frame).unwrap();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], (Response::Results { query_id: 12, fragment: 2, .. }, _)));
        // Every query skipped: a frame of no items (which no worker sends).
        let none =
            Response::BatchResults { base: 0, fragment: 1, answers: vec![BatchAnswer::Skipped; 3] };
        assert_eq!(encode_frame(&none).len(), 1 + 8 + 4 + 4 + 3);
        assert_eq!(decode_gather_items(encode_frame(&none)), Ok(vec![]));
    }

    #[test]
    fn adjacent_runs_rejected() {
        // {0, 1, 2} is one run — count 3, gap 0 with a length, 3 − 2 — and
        // that is its only encoding.
        assert_eq!(id_bytes(&[NodeId(0), NodeId(1), NodeId(2)]), [3, 1, 1]);
        assert_eq!(decode_id_bytes(&[3, 1, 1]).unwrap(), [NodeId(0), NodeId(1), NodeId(2)]);
        // The same ids as three one-id runs, or as 0..=1 then 2: the later
        // runs' gap of 0 makes them touch the run before, which no encoder
        // writes. Refused, so no two byte strings decode to one answer.
        for (bytes, at) in [(&[3, 0, 0, 0][..], 1), (&[3, 1, 0, 0], 2)] {
            assert_eq!(
                decode_id_bytes(bytes),
                Err(DecodeError::LengthOutOfRange {
                    context: "answer run touching the run before it",
                    len: at,
                })
            );
        }
        // A first run at id 0 has gap 0 and is fine; so is any later gap ≥ 1.
        assert_eq!(decode_id_bytes(&[2, 0, 2]).unwrap(), [NodeId(0), NodeId(2)]);
    }

    #[test]
    fn batch_round_trip() {
        use disks_core::SetOp;
        let plans: Vec<QueryPlan> = [
            DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
                SetOp::Intersect,
                Term::Keyword(KeywordId(1)),
                5,
            ),
            DFunction::single(Term::Keyword(KeywordId(1)), 5),
        ]
        .iter()
        .map(QueryPlan::lower)
        .collect();
        let req =
            Request::Batch { base: 100, plan: SuperPlan::merge(&plans), fragments: vec![0, 3] };
        let frame = encode_frame(&req);
        assert_eq!(decode_frame::<Request>(frame).unwrap(), req);

        let resp = Response::BatchResults {
            base: 100,
            fragment: 3,
            answers: vec![
                BatchAnswer::Results {
                    nodes: vec![NodeId(2), NodeId(9)].into(),
                    cost: WireCost { batch_shared: 1, ..Default::default() },
                },
                BatchAnswer::Failed(QueryError::RadiusExceedsMaxR { r: 9, max_r: 4 }),
            ],
        };
        let frame = encode_frame(&resp);
        assert_eq!(decode_frame::<Response>(frame).unwrap(), resp);
    }

    #[test]
    fn batched_slot_sharing_shrinks_the_request_bytes() {
        // Eight queries over the same two slots: one super-plan frame is far
        // smaller than eight per-query Evaluate frames.
        use disks_core::SetOp;
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
            SetOp::Intersect,
            Term::Keyword(KeywordId(1)),
            5,
        );
        let plans = vec![QueryPlan::lower(&f); 8];
        let batched = encode_frame(&Request::Batch {
            base: 0,
            plan: SuperPlan::merge(&plans),
            fragments: vec![],
        })
        .len();
        let single: usize = plans
            .iter()
            .map(|p| {
                encode_frame(&Request::Evaluate { query_id: 1, plan: p.clone(), fragments: vec![] })
                    .len()
            })
            .sum();
        assert!(batched < single / 2, "batched {batched} vs unbatched {single}");
    }

    /// The id-list bytes of `nodes` alone.
    fn id_bytes(nodes: &[NodeId]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_runs(&nodes.to_vec().into(), &mut buf);
        buf.to_vec()
    }

    #[test]
    fn results_frame_len_matches_encoded_size() {
        let lists: [Vec<u32>; 5] = [
            vec![],
            vec![7],
            (0..1000).collect(),
            (0..1000).map(|i| i * 3).collect(),
            vec![5, 6, 7, 300, 70_000, 70_001, u32::MAX],
        ];
        for ids in lists {
            let nodes: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
            let results = |query_id| Response::Results {
                query_id,
                fragment: 3,
                nodes: nodes.clone().into(),
                cost: WireCost::default(),
            };
            let standalone = encode_frame(&results(42)).len() as u64;
            assert_eq!(standalone, results_frame_len(id_bytes(&nodes).len() as u64));
            // The same answer inside a batch frame is charged exactly that,
            // by the decoder that read it.
            let batch = Response::BatchResults {
                base: 41,
                fragment: 3,
                answers: vec![
                    BatchAnswer::Failed(QueryError::EmptyQuery),
                    BatchAnswer::Results { nodes: nodes.clone().into(), cost: WireCost::default() },
                ],
            };
            let items = decode_gather_items(encode_frame(&batch)).unwrap();
            assert!(matches!(items[0], (Response::Failed { query_id: 42, fragment: 3, .. }, 0)));
            assert_eq!(items[1], (results(43), standalone));
        }
    }

    #[test]
    fn answer_layout_byte_by_byte() {
        // count, then runs of (gap << 1 | has_len) [len - 2].
        assert_eq!(id_bytes(&[]), [0]);
        assert_eq!(id_bytes(&[NodeId(0)]), [1, 0]);
        assert_eq!(id_bytes(&[NodeId(5)]), [1, 10]);
        // 5..=7 is one run: gap 5, length 3 → (5 << 1 | 1), 3 - 2.
        assert_eq!(id_bytes(&[NodeId(5), NodeId(6), NodeId(7)]), [3, 11, 1]);
        // 9 follows 7 with one id (8) skipped: gap 1, no length.
        assert_eq!(id_bytes(&[NodeId(5), NodeId(6), NodeId(7), NodeId(9)]), [4, 11, 1, 2]);
        // A gap of 64 needs a second varint byte: 128 = 0x80 0x01.
        assert_eq!(id_bytes(&[NodeId(0), NodeId(65)]), [2, 0, 0x80, 0x01]);
        // The largest id: gap 2³² − 1 shifted by the flag is 5 bytes.
        assert_eq!(id_bytes(&[NodeId(u32::MAX)]), [1, 0xfe, 0xff, 0xff, 0xff, 0x1f]);
        // Every node of a 2²⁰-node network costs what three ids do.
        let all: Vec<NodeId> = (0..1 << 20).map(NodeId).collect();
        assert_eq!(id_bytes(&all), [0x80, 0x80, 0x40, 1, 0xfe, 0xff, 0x3f]);
        // An ∅ batch answer: tag, count 0, the 56-byte cost.
        let empty = BatchAnswer::Results { nodes: NodeRuns::default(), cost: WireCost::default() };
        assert_eq!(encode_frame(&empty).len(), 1 + 1 + 56);
    }

    #[test]
    fn result_frame_size_follows_runs_not_ids() {
        let frame_len = |ids: Vec<u32>| {
            encode_frame(&Response::Results {
                query_id: 1,
                fragment: 0,
                nodes: ids.into_iter().map(NodeId).collect(),
                cost: WireCost::default(),
            })
            .len()
        };
        let one = frame_len(vec![1]);
        // 1 000 consecutive ids are one run: a 2-byte count and a 2-byte
        // length where the lone id had a 1-byte count and none.
        assert_eq!(frame_len((1..=1000).collect()) - one, 3);
        // 1 000 ids with no two consecutive degrade to a delta-varint: one
        // byte an id here (gaps < 64), never the 4 of the raw layout.
        assert_eq!(frame_len((0..1000).map(|i| 1 + 2 * i).collect()) - one, 1 + 999);
        // An empty answer is one byte.
        assert_eq!(one - frame_len(vec![]), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn encoding_a_list_that_does_not_ascend_fails_loudly() {
        id_bytes(&[NodeId(4), NodeId(9), NodeId(9)]);
    }

    fn decode_id_bytes(bytes: &[u8]) -> Result<Vec<NodeId>, DecodeError> {
        let mut buf = Bytes::from(bytes);
        let runs = decode_runs(&mut buf)?;
        expect_consumed(&buf)?;
        Ok(runs.to_vec())
    }

    #[test]
    fn answer_decoder_rejects_what_it_cannot_trust() {
        let out_of_range = |r: Result<Vec<NodeId>, DecodeError>| match r {
            Err(DecodeError::LengthOutOfRange { context, .. }) => context,
            other => panic!("expected a typed length error, got {other:?}"),
        };
        // A count above MAX_ANSWER_IDS (2²⁴ here) fails on the count alone.
        assert_eq!(MAX_ANSWER_IDS, 1 << 24);
        assert_eq!(out_of_range(decode_id_bytes(&[0x81, 0x80, 0x80, 0x08])), "answer id count");
        assert_eq!(
            out_of_range(decode_id_bytes(&[0xff, 0xff, 0xff, 0xff, 0x7f])),
            "answer id count"
        );
        // The bound itself is legal — and reserves nothing near 64 MiB
        // before a run backs the claim: this input ends after the count.
        assert!(matches!(
            decode_id_bytes(&[0x80, 0x80, 0x80, 0x08]),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        // A run longer than the ids the count still allows.
        assert_eq!(out_of_range(decode_id_bytes(&[3, 1, 2])), "answer run past the declared count");
        assert_eq!(
            out_of_range(decode_id_bytes(&[2, 0, 1, 0])),
            "answer run past the declared count"
        );
        // A 2³²-id run in a 12-byte answer: past u32::MAX and past any count.
        assert_eq!(
            out_of_range(decode_id_bytes(&[
                0x80, 0x80, 0x80, 0x08, 1, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0, 0
            ])),
            "answer run past the declared count"
        );
        // Runs that would carry an id past u32::MAX.
        assert_eq!(
            out_of_range(decode_id_bytes(&[2, 0xfe, 0xff, 0xff, 0xff, 0x1f, 0])),
            "answer run past u32::MAX"
        );
        assert_eq!(
            out_of_range(decode_id_bytes(&[2, 0xff, 0xff, 0xff, 0xff, 0x1f, 0])),
            "answer run past u32::MAX"
        );
        // A varint that does not end within 5 bytes.
        assert_eq!(
            out_of_range(decode_id_bytes(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0])),
            "answer varint longer than 5 bytes"
        );
        // Bytes after the last declared id are trailing garbage.
        assert_eq!(out_of_range(decode_id_bytes(&[1, 0, 0])), "trailing bytes after frame");
        // A list that does not ascend has no encoding: a gap counts up from
        // the previous run's end, so any accepted input decodes strictly
        // ascending (and a zero gap there is refused: `adjacent_runs_rejected`).
    }

    #[test]
    fn corrupt_batch_frame_cannot_buy_a_large_allocation() {
        // Tag, base, fragment — then an answer count of u32::MAX with no
        // bytes behind it (17 bytes in all). `Vec<BatchAnswer>` once reserved
        // 2²⁰ × 176 B for this; now the count fails against what remains.
        let mut buf = BytesMut::new();
        buf.put_u8(BATCH_RESULTS_TAG);
        buf.put_u64_le(7);
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        let frame = buf.freeze();
        let expected =
            DecodeError::LengthOutOfRange { context: "BatchResults.answers", len: 0xffff_ffff };
        assert_eq!(decode_frame::<Response>(frame.clone()), Err(expected.clone()));
        assert_eq!(decode_gather_items(frame), Err(expected));
    }
}
