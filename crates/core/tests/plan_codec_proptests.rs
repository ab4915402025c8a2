//! Properties of the two plan codecs the wire carries ([`QueryPlan`] in
//! `Evaluate`, [`SuperPlan`] in `Batch`):
//!
//! 1. encode → decode is the identity and consumes the frame fully, and a
//!    decoded super-plan splits back into the plans it was merged from,
//!    each program with the targets it was merged with;
//! 2. arbitrary bytes, and valid encodings with one bit flipped, never make
//!    a decoder panic, and whatever does decode upholds the invariants the
//!    workers rely on — at least one slot (and one program), every program
//!    index inside the slot table — and re-encodes to the bytes consumed.

use std::sync::Arc;

use bytes::{Buf, BytesMut};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_core::bitset::BitSet;
use disks_core::{DFunction, QueryPlan, SetOp, SuperPlan, Targets, Term};
use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::{KeywordId, NodeId};

/// Seeded random plans over a tiny `(term, radius)` space so slots are
/// shared both within and across queries.
fn random_plans(seed: u64, n: usize) -> Vec<QueryPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let term = |rng: &mut StdRng| match rng.gen_range(0..4) {
        0 => Term::Node(NodeId(rng.gen_range(0..6))),
        _ => Term::Keyword(KeywordId(rng.gen_range(0..6))),
    };
    (0..n)
        .map(|_| {
            let mut f = DFunction::single(term(&mut rng), 1 + rng.gen_range(0..4) as u64);
            for _ in 0..rng.gen_range(0..4) {
                let op = match rng.gen_range(0..3) {
                    0 => SetOp::Union,
                    1 => SetOp::Intersect,
                    _ => SetOp::Subtract,
                };
                f = f.then(op, term(&mut rng), 1 + rng.gen_range(0..4) as u64);
            }
            QueryPlan::lower(&f)
        })
        .collect()
}

/// Seeded random targets, one a plan: every fragment, none, or an
/// ascending subset of fragment ids up to 70 000 (gaps of one to three
/// varint bytes).
fn random_targets(seed: u64, n: usize) -> Vec<Targets> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A6E);
    (0..n)
        .map(|_| match rng.gen_range(0..4) {
            0 => Targets::Every,
            1 => Targets::Only(Vec::new()),
            _ => {
                let mut fragments: Vec<u32> =
                    (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..70_000)).collect();
                fragments.sort_unstable();
                fragments.dedup();
                Targets::Only(fragments)
            }
        })
        .collect()
}

fn encoded(msg: &impl Encode) -> Vec<u8> {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    buf.to_vec()
}

/// Panics if any program index of `plan` is outside its slot table.
fn run_program(plan: &QueryPlan) {
    assert!(plan.num_slots() >= 1 && plan.num_operands() >= 1);
    let empty = Arc::new(BitSet::new(8));
    let coverages = vec![empty; plan.num_slots()];
    let _ = plan.combine(&coverages);
}

/// Decode both plan kinds from `bytes`; neither may panic, and a plan that
/// decodes must be usable and canonical.
fn decode_and_check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut rest = bytes;
    if let Ok(plan) = QueryPlan::decode(&mut rest) {
        run_program(&plan);
        prop_assert_eq!(&encoded(&plan)[..], &bytes[..bytes.len() - rest.remaining()]);
    }
    let mut rest = bytes;
    if let Ok(sp) = SuperPlan::decode(&mut rest) {
        prop_assert!(sp.num_slots() >= 1 && sp.num_queries() >= 1);
        prop_assert_eq!(sp.targets().count(), sp.num_queries());
        let plans = sp.split();
        prop_assert_eq!(plans.len(), sp.num_queries());
        plans.iter().for_each(run_program);
        prop_assert_eq!(&encoded(&sp)[..], &bytes[..bytes.len() - rest.remaining()]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plans_round_trip(seed in 0u64..10_000, n in 1usize..6) {
        let plans = random_plans(seed, n);
        for plan in &plans {
            let bytes = encoded(plan);
            let mut rest = &bytes[..];
            prop_assert_eq!(&QueryPlan::decode(&mut rest).unwrap(), plan);
            prop_assert!(!rest.has_remaining());
        }
        let targets = random_targets(seed, n);
        for sp in [SuperPlan::merge(&plans), SuperPlan::merge_targeted(&plans, targets.clone())] {
            let bytes = encoded(&sp);
            let mut rest = &bytes[..];
            let decoded = SuperPlan::decode(&mut rest).unwrap();
            prop_assert!(!rest.has_remaining());
            prop_assert_eq!(&decoded, &sp);
            prop_assert_eq!(decoded.split(), plans.clone());
        }
        let sp = SuperPlan::merge_targeted(&plans, targets.clone());
        prop_assert_eq!(sp.targets().cloned().collect::<Vec<_>>(), targets);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..192)) {
        decode_and_check(&bytes)?;
    }

    /// Arbitrary bytes almost never get past the first length prefix; one
    /// flipped bit in a valid frame reaches the index and tag checks.
    #[test]
    fn a_flipped_bit_never_panics(
        seed in 0u64..10_000, n in 1usize..6, at in any::<usize>(), bit in 0u8..8
    ) {
        let plans = random_plans(seed, n);
        let targeted = SuperPlan::merge_targeted(&plans, random_targets(seed, n));
        for mut bytes in [encoded(&plans[0]), encoded(&SuperPlan::merge(&plans)), encoded(&targeted)] {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            decode_and_check(&bytes)?;
        }
    }
}
