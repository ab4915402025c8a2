//! Property tests for the stream framing layer: whatever re-chunking the
//! kernel applies to a TCP byte stream — one byte at a time, giant
//! coalesced reads, anything between — the [`FrameAssembler`] must yield
//! exactly the frames the writer framed, in order, without ever panicking;
//! and a corrupt length prefix must fail typed *before* any allocation. A
//! `Batch` request whose programs name their target fragments crosses the
//! framing intact, and arbitrary bytes where its target lists are read
//! decode typed or not at all.

use proptest::prelude::*;

use disks_cluster::framing::{write_frame, write_keepalive, FrameAssembler, StreamEvent};
use disks_cluster::message::{decode_frame, encode_frame};
use disks_cluster::Request;
use disks_core::{DFunction, QueryPlan, SetOp, SuperPlan, Targets, Term};
use disks_roadnet::{DecodeError, KeywordId};

/// A `Batch` of one keyword-pair plan a target set: `(true, _)` is every
/// fragment, `(false, mask)` the fragments whose bit is set (none for 0).
fn batch(base: u64, targets: &[(bool, u16)]) -> Request {
    let plans: Vec<QueryPlan> = (0..targets.len() as u32)
        .map(|i| {
            let f = DFunction::single(Term::Keyword(KeywordId(i % 3)), 5).then(
                SetOp::Intersect,
                Term::Keyword(KeywordId(i)),
                7,
            );
            QueryPlan::lower(&f)
        })
        .collect();
    let targets = targets.iter().map(|&(every, mask)| {
        if every {
            Targets::Every
        } else {
            Targets::Only((0..16).filter(|f| mask >> f & 1 == 1).collect())
        }
    });
    Request::Batch { base, plan: SuperPlan::merge_targeted(&plans, targets), fragments: vec![] }
}

/// A frame payload mix spanning the real protocol's range: empty-adjacent
/// tiny frames through multi-KiB responses.
fn arb_frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..600), 0..12)
}

/// Split points for re-chunking a byte stream: a sorted subset of
/// positions, derived from arbitrary raw indices so shrinking stays
/// meaningful.
fn chunk_stream(bytes: &[u8], raw_cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> =
        raw_cuts.iter().map(|&c| if bytes.is_empty() { 0 } else { c % bytes.len() }).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut chunks = Vec::new();
    let mut start = 0;
    for &c in &cuts {
        if c > start {
            chunks.push(bytes[start..c].to_vec());
            start = c;
        }
    }
    chunks.push(bytes[start..].to_vec());
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frames interleaved with keepalives, delivered at arbitrary byte
    /// boundaries, reassemble to exactly the written sequence.
    #[test]
    fn reassembly_is_exact_under_arbitrary_chunking(
        frames in arb_frames(),
        keepalive_mask in proptest::collection::vec(any::<bool>(), 0..12),
        raw_cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if keepalive_mask.get(i).copied().unwrap_or(false) {
                write_keepalive(&mut bytes).unwrap();
                expected.push(StreamEvent::Keepalive);
            }
            write_frame(&mut bytes, f).unwrap();
            expected.push(StreamEvent::Frame(bytes::Bytes::from(f.clone())));
        }

        let mut asm = FrameAssembler::new();
        let mut events = Vec::new();
        for chunk in chunk_stream(&bytes, &raw_cuts) {
            asm.extend(&chunk);
            while let Some(e) = asm.next_event().unwrap() {
                events.push(e);
            }
        }
        prop_assert_eq!(events, expected);
        prop_assert_eq!(asm.pending(), 0, "no bytes may be left behind");
    }

    /// `Batch` frames with any mix of targets, framed with keepalives
    /// between and delivered at arbitrary byte boundaries, decode to the
    /// requests written, targets and all.
    #[test]
    fn targeted_batches_cross_the_framing_intact(
        windows in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), any::<u16>()), 1..17),
            1..6,
        ),
        raw_cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let requests: Vec<Request> =
            windows.iter().enumerate().map(|(w, t)| batch(16 * w as u64, t)).collect();
        let mut bytes = Vec::new();
        for request in &requests {
            write_keepalive(&mut bytes).unwrap();
            write_frame(&mut bytes, &encode_frame(request)).unwrap();
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for chunk in chunk_stream(&bytes, &raw_cuts) {
            asm.extend(&chunk);
            while let Some(e) = asm.next_event().unwrap() {
                if let StreamEvent::Frame(frame) = e {
                    decoded.push(decode_frame::<Request>(frame).unwrap());
                }
            }
        }
        prop_assert_eq!(decoded, requests);
    }

    /// Arbitrary bytes in place of a `Batch` frame's first target list —
    /// behind a valid header, slot table and program — never panic: they
    /// decode to a request that re-encodes to them, or fail typed.
    #[test]
    fn arbitrary_target_bytes_never_panic(
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let valid = encode_frame(&batch(0, &[(true, 0)]));
        // The header, the slots and the one program, less its target byte
        // and the request's (empty) fragment list.
        let head = &valid[..valid.len() - 1 - 4];
        let frame: Vec<u8> = head.iter().chain(&tail).copied().collect();
        if let Ok(request) = decode_frame::<Request>(frame.clone().into()) {
            prop_assert_eq!(&encode_frame(&request)[..], &frame[..]);
        }
    }

    /// A length prefix past the frame bound fails with the typed
    /// [`DecodeError::LengthOutOfRange`] carrying the claimed length —
    /// never a panic, never an allocation sized by attacker-chosen bytes.
    /// Valid frames decoded *before* the corruption are unaffected.
    #[test]
    fn corrupt_length_prefix_is_typed_error_not_allocation(
        frames in arb_frames(),
        excess in 1u64..u64::from(u32::MAX) - (64 << 20),
        raw_cuts in proptest::collection::vec(any::<usize>(), 0..20),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let bad_len = (64u64 << 20) + excess; // strictly past MAX_FRAME_LEN
        bytes.extend_from_slice(&(bad_len as u32).to_be_bytes());

        let mut asm = FrameAssembler::new();
        let mut decoded = 0usize;
        let mut error = None;
        for chunk in chunk_stream(&bytes, &raw_cuts) {
            asm.extend(&chunk);
            loop {
                match asm.next_event() {
                    Ok(Some(StreamEvent::Frame(_))) => decoded += 1,
                    Ok(Some(StreamEvent::Keepalive)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            if error.is_some() {
                break;
            }
        }
        prop_assert_eq!(decoded, frames.len(), "every good frame decodes before the corruption");
        match error {
            Some(DecodeError::LengthOutOfRange { len, .. }) => {
                prop_assert_eq!(len, bad_len, "the typed error names the claimed length");
            }
            other => return Err(TestCaseError::fail(format!(
                "expected typed over-length error, got {other:?}"
            ))),
        }
    }
}
