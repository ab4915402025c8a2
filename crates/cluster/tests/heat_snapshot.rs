//! Property tests for the [`HeatSnapshot`] codec (DESIGN.md §6i): encode →
//! decode is the identity for arbitrary ledgers, and corrupt, truncated or
//! arbitrary input decodes to a typed error, never a panic.

use disks_cluster::HeatSnapshot;
use disks_core::Term;
use disks_roadnet::{KeywordId, NodeId};
use proptest::prelude::*;

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..10_000).prop_map(|k| Term::Keyword(KeywordId(k))),
        (0u32..10_000).prop_map(|n| Term::Node(NodeId(n))),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = HeatSnapshot> {
    collection::vec((arb_term(), any::<u64>(), any::<u64>()), 0..64)
        .prop_map(|entries| HeatSnapshot { entries })
}

proptest! {
    /// The codec round-trips every ledger exactly, including empty ones,
    /// duplicate slots, and extreme radius/count values.
    #[test]
    fn encode_decode_round_trips(snap in arb_snapshot()) {
        let bytes = snap.encode_bytes();
        let back = HeatSnapshot::decode_bytes(&bytes).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// Any strict prefix of a valid encoding fails with a typed error —
    /// no panic, no silently truncated snapshot.
    #[test]
    fn truncated_input_is_a_typed_error(snap in arb_snapshot(), cut in 0usize..256) {
        let bytes = snap.encode_bytes();
        let cut = cut % bytes.len();
        prop_assert!(HeatSnapshot::decode_bytes(&bytes[..cut]).is_err());
    }

    /// Arbitrary bytes, with and without a valid header in front, never
    /// panic, and a snapshot that does decode holds no more entries than
    /// its input had room for and re-encodes to that input.
    #[test]
    fn arbitrary_bytes_never_panic(
        tail in collection::vec(any::<u8>(), 0..256),
        valid_header in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if valid_header {
            bytes.extend_from_slice(&HeatSnapshot::default().encode_bytes()[..4]);
        }
        bytes.extend_from_slice(&tail);
        if let Ok(snap) = HeatSnapshot::decode_bytes(&bytes) {
            prop_assert!(snap.entries.len() * 21 <= bytes.len());
            prop_assert_eq!(&snap.encode_bytes()[..], &bytes[..]);
        }
    }

    /// The profile projection conserves total dispatch weight: every
    /// entry's count lands in the radius distribution exactly once.
    /// (Counts are bounded so the profile's saturating accumulators never
    /// clip — conservation is exact below the saturation point.)
    #[test]
    fn profile_conserves_radius_weight(
        entries in collection::vec((arb_term(), any::<u64>(), 0u64..(1 << 40)), 0..64)
    ) {
        let snap = HeatSnapshot { entries };
        let profile = snap.to_profile();
        let total: u128 = snap.entries.iter().map(|&(_, _, c)| c as u128).sum();
        let projected: u128 =
            profile.radius_distribution().iter().map(|&(_, c)| c as u128).sum();
        prop_assert_eq!(projected, total);
    }
}
