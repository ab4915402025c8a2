//! Property tests for the answer plane: the run-length layout of the
//! `NodeRuns` in `Response::Results` / `BatchAnswer::Results` round-trips
//! every strictly ascending id set — ids and bytes both: a set has one
//! encoding — and rejects everything else typed, without panicking and
//! without committing memory to a claim it has not validated; a batch
//! frame's one-byte skipped answers sit anywhere among its answers; and the
//! coordinator's gather returns the sorted union of its fragments' answers
//! on both sides of its density rule, leaving its scratch bitmap zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;

use disks_cluster::message::{decode_frame, encode_frame, MAX_ANSWER_IDS};
use disks_cluster::{AnswerGather, BatchAnswer, Response, WireCost};
use disks_core::{NodeRuns, QueryError};
use disks_roadnet::{DecodeError, NodeId};

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// cell was last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request so a test can
/// show a hostile frame never bought memory proportional to its claim.
struct Watching;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LARGEST_ALLOC.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only writes a thread-local cell
// and never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// The largest allocation `f` makes on this thread.
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|l| l.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(Cell::get))
}

fn nodes(ids: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
    ids.into_iter().map(NodeId).collect()
}

fn results(nodes: Vec<NodeId>) -> Response {
    Response::Results {
        query_id: 9,
        fragment: 2,
        nodes: nodes.into(),
        cost: WireCost { settled: 7, ..WireCost::default() },
    }
}

fn batch(lists: Vec<Vec<NodeId>>) -> Response {
    let mut answers: Vec<BatchAnswer> = lists
        .into_iter()
        .map(|nodes| BatchAnswer::Results { nodes: nodes.into(), cost: WireCost::default() })
        .collect();
    answers.insert(answers.len() / 2, BatchAnswer::Failed(QueryError::EmptyQuery));
    answers.insert(answers.len() / 3, BatchAnswer::Skipped);
    Response::BatchResults { base: 40, fragment: 1, answers }
}

/// The answers a decoded frame carries, in order.
fn answers_of(response: Response) -> Vec<NodeRuns> {
    match response {
        Response::Results { nodes, .. } => vec![nodes],
        Response::BatchResults { answers, .. } => answers
            .into_iter()
            .filter_map(|a| match a {
                BatchAnswer::Results { nodes, .. } => Some(nodes),
                BatchAnswer::Failed(_) | BatchAnswer::Skipped => None,
            })
            .collect(),
        _ => vec![],
    }
}

/// Runs ascend with at least one absent id between neighbours, none is
/// empty or reaches past `u32::MAX`, and the id count is their sum.
fn canonical(answer: &NodeRuns) -> bool {
    let runs = answer.runs();
    runs.iter().all(|&(start, len)| len >= 1 && u64::from(start) + u64::from(len) <= 1 << 32)
        && runs.windows(2).all(|w| u64::from(w[1].0) > u64::from(w[0].0) + u64::from(w[0].1))
        && runs.iter().map(|r| r.1 as usize).sum::<usize>() == answer.len()
}

/// Strictly ascending id sets mixing runs of consecutive ids with isolated
/// ones, near both ends of the id space and in between.
fn arb_ids() -> impl Strategy<Value = Vec<NodeId>> {
    let start = prop_oneof![0u32..300, any::<u32>(), (u32::MAX - 300)..=u32::MAX];
    proptest::collection::vec((start, 0u32..40), 0..24).prop_map(|runs| {
        let set: BTreeSet<u32> = runs
            .into_iter()
            .flat_map(|(start, len)| (0..=len).filter_map(move |i| start.checked_add(i)))
            .collect();
        nodes(set)
    })
}

#[test]
fn named_id_sets_round_trip() {
    let sets: Vec<Vec<NodeId>> = vec![
        vec![],
        nodes([0]),
        nodes([u32::MAX]),
        nodes([0, u32::MAX]),
        // One run covering a whole network.
        nodes(0..1 << 16),
        // No two ids consecutive, then every second pair consecutive.
        nodes((0..5000).map(|i| i * 2)),
        nodes((0..5000).map(|i| i * 2 - i % 2)),
        nodes((u32::MAX - 70)..=u32::MAX),
    ];
    for set in &sets {
        let frame = encode_frame(&results(set.clone()));
        assert_eq!(decode_frame::<Response>(frame).unwrap(), results(set.clone()));
    }
    let frame = encode_frame(&batch(sets.clone()));
    assert_eq!(decode_frame::<Response>(frame).unwrap(), batch(sets));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any strictly ascending id set survives both frames that carry
    /// answers — as the same ids, and re-encoding to the same bytes — and
    /// the bytes are a function of the answer alone.
    #[test]
    fn ascending_id_sets_round_trip(lists in proptest::collection::vec(arb_ids(), 1..5)) {
        for list in &lists {
            let message = results(list.clone());
            let frame = encode_frame(&message);
            prop_assert_eq!(&frame, &encode_frame(&message));
            let decoded = decode_frame::<Response>(frame.clone()).unwrap();
            prop_assert_eq!(&encode_frame(&decoded), &frame);
            prop_assert_eq!(&decoded, &message);
            let ids: Vec<NodeId> = answers_of(decoded).remove(0).into_iter().collect();
            prop_assert_eq!(&ids, list);
        }
        let message = batch(lists.clone());
        let frame = encode_frame(&message);
        let decoded = decode_frame::<Response>(frame.clone()).unwrap();
        prop_assert_eq!(&encode_frame(&decoded), &frame);
        prop_assert_eq!(&decoded, &message);
        for (answer, list) in answers_of(decoded).into_iter().zip(&lists) {
            prop_assert!(canonical(&answer));
            prop_assert_eq!(answer.len(), list.len());
            prop_assert_eq!(&answer.into_iter().collect::<Vec<_>>(), list);
        }
    }

    /// Skipped answers anywhere among a batch frame's answers round-trip at
    /// one byte each and leave the other answers as they were.
    #[test]
    fn skipped_answers_round_trip_at_one_byte(
        lists in proptest::collection::vec(arb_ids(), 0..4),
        skipped in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let mut answers: Vec<BatchAnswer> = lists
            .iter()
            .map(|nodes| BatchAnswer::Results { nodes: nodes.clone().into(), cost: WireCost::default() })
            .collect();
        let plain = encode_frame(&Response::BatchResults { base: 3, fragment: 0, answers: answers.clone() });
        for (i, &skip) in skipped.iter().enumerate() {
            if skip {
                answers.insert(i.min(answers.len()), BatchAnswer::Skipped);
            }
        }
        let extra = answers.len() - lists.len();
        let message = Response::BatchResults { base: 3, fragment: 0, answers };
        let frame = encode_frame(&message);
        prop_assert_eq!(frame.len(), plain.len() + extra);
        let decoded = decode_frame::<Response>(frame).unwrap();
        prop_assert_eq!(&decoded, &message);
        let ids: Vec<Vec<NodeId>> =
            answers_of(decoded).into_iter().map(|a| a.into_iter().collect()).collect();
        prop_assert_eq!(ids, lists);
    }

    /// No strict prefix of a valid frame decodes: a cut anywhere — inside a
    /// varint, between runs, inside the cost — is a typed error.
    #[test]
    fn every_strict_prefix_of_a_valid_frame_fails(lists in proptest::collection::vec(arb_ids(), 1..4)) {
        for frame in [encode_frame(&results(lists[0].clone())), encode_frame(&batch(lists))] {
            for cut in 0..frame.len() {
                prop_assert!(
                    decode_frame::<Response>(frame.slice(0..cut)).is_err(),
                    "prefix of {} of {} bytes decoded", cut, frame.len()
                );
            }
        }
    }

    /// Arbitrary bytes — bare, or behind a `Results` / `BatchResults` header
    /// so the answer decoder is what they reach — never panic and never buy
    /// an allocation larger than the input could back (a run costs at least
    /// a byte and holds 8); whatever decodes is canonical, within the
    /// answer-size bound, and re-encodes to the very bytes it came from: the
    /// decoder accepts what the encoder writes and nothing else.
    #[test]
    fn arbitrary_bytes_never_panic(
        header in 0u8..3,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = match header {
            0 => vec![],
            1 => [&[0u8][..], &9u64.to_le_bytes(), &2u32.to_le_bytes()].concat(),
            _ => [&[3u8][..], &40u64.to_le_bytes(), &1u32.to_le_bytes(), &1u32.to_le_bytes(), &[0]]
                .concat(),
        };
        bytes.extend(&body);
        let frame = Bytes::from(bytes);
        let (decoded, largest) = largest_alloc_during(|| decode_frame::<Response>(frame.clone()));
        prop_assert!(largest <= 8 * frame.len(), "{} bytes bought {}", frame.len(), largest);
        let Ok(response) = decoded else { return Ok(()) };
        if matches!(response, Response::Results { .. } | Response::BatchResults { .. }) {
            prop_assert_eq!(&encode_frame(&response), &frame);
        }
        for answer in answers_of(response) {
            prop_assert!(canonical(&answer));
            prop_assert!(answer.len() <= MAX_ANSWER_IDS);
        }
    }

    /// k disjoint ascending lists, each through a frame and back, come out
    /// of the gather as the sort of their concatenation below, at and above
    /// the density rule, and the scratch bitmap is zero again afterwards —
    /// also when a list names an id the bitmap has no bit for.
    #[test]
    fn gather_equals_sorted_concatenation(
        universe in 1usize..3000,
        k in 1usize..6,
        // Ids are dealt to the lists in blocks of this many: 1 leaves a list
        // few runs longer than an id, 200 gives it runs across several words.
        block in prop_oneof![Just(1usize), 2usize..200],
        // Answer size relative to the rule's threshold: −2..=+2 around it,
        // or anywhere up to the whole universe.
        around in prop_oneof![(0usize..5).prop_map(Some), Just(None)],
        picks in proptest::collection::vec(any::<u32>(), 3000),
        deal in proptest::collection::vec(any::<u8>(), 3000),
        stray in prop_oneof![Just(None), (0u32..200).prop_map(Some)],
    ) {
        let mut gather = AnswerGather::new(universe);
        let threshold = universe.div_ceil(64);
        let size = match around {
            Some(d) => (threshold + d).saturating_sub(2).min(universe),
            None => picks[0] as usize % (universe + 1),
        };
        // A partial Fisher–Yates draw of `size` distinct ids, each dealt to
        // one of the k lists.
        let mut ids: Vec<u32> = (0..universe as u32).collect();
        for (i, &pick) in picks.iter().enumerate().take(size) {
            ids.swap(i, i + pick as usize % (universe - i));
        }
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut chosen = ids[..size].to_vec();
        chosen.sort_unstable();
        for (i, id) in chosen.into_iter().enumerate() {
            lists[deal[i / block] as usize % k].push(NodeId(id));
        }
        // An id at or past |V|: inside the bitmap's last word or beyond it.
        if let Some(beyond) = stray {
            lists[k - 1].push(NodeId(universe as u32 + beyond));
        }
        let total: usize = lists.iter().map(Vec::len).sum();
        prop_assert_eq!(gather.is_dense(total), total >= threshold);
        let expected: BTreeSet<NodeId> = lists.iter().flatten().copied().collect();
        prop_assert_eq!(expected.len(), total);
        let expected: Vec<NodeId> = expected.into_iter().collect();
        let answers = answers_of(decode_frame(encode_frame(&batch(lists))).unwrap());
        prop_assert_eq!(answers.len(), k);
        // Twice through the same scratch: the first call must leave it clean.
        for _ in 0..2 {
            prop_assert_eq!(&gather.assemble(&answers), &expected);
            prop_assert!(gather.is_clear());
        }
    }
}

/// A hostile answer of a few bytes: declaring more ids than any frame may
/// carry, or a run of 2³² ids, is refused before memory is committed to the
/// claim; a count at the bound itself reserves for the runs the bytes behind
/// it could hold — 8 bytes a remaining input byte — not 64 MiB.
#[test]
fn tiny_frames_with_huge_claims_are_rejected_before_allocating() {
    let results_header = [&[0u8][..], &9u64.to_le_bytes(), &2u32.to_le_bytes()].concat();
    let varint = |mut v: u64| {
        let mut out = Vec::new();
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        out
    };
    let bound = MAX_ANSWER_IDS as u64;
    let claims: [(&str, Vec<u8>); 4] = [
        ("count above the bound", varint(bound + 1)),
        ("count of 2^32", varint(1 << 32)),
        // count = the bound, then one run: gap 0, has_len, len 2^32.
        ("run of 2^32 ids", [varint(bound), varint(1), varint((1u64 << 32) - 2)].concat()),
        // A legal count with nothing behind it.
        ("count at the bound, truncated", varint(bound)),
    ];
    for (what, answer) in claims {
        assert!(answer.len() <= 16, "{what}: {} bytes", answer.len());
        let frame = Bytes::from([&results_header[..], &answer].concat());
        let frame_len = frame.len();
        let (decoded, largest) = largest_alloc_during(|| decode_frame::<Response>(frame));
        assert!(
            matches!(
                decoded,
                Err(DecodeError::LengthOutOfRange { .. } | DecodeError::UnexpectedEof { .. })
            ),
            "{what}: {decoded:?}"
        );
        assert!(largest <= 8 * frame_len, "{what}: {frame_len} bytes bought {largest}");
    }
}
