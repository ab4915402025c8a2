//! The serialized slot-heat ledger (DESIGN.md §6i).
//!
//! [`HeatSnapshot`] is the portable form of the coordinator's slot-heat
//! ledger: `(term, radius) → dispatch count`, in the deterministic slot-key
//! order the prewarm ranking uses. It is the single interchange format
//! between the online cluster and the offline layout pipeline — the bench
//! profile, offline re-layout (query-weighted refinement, observed-radius
//! split), and heat-seeded placement all consume the same bytes, so every
//! layer agrees on what "hot" means.
//!
//! Like the wire protocol, the codec is hand-written over the
//! [`disks_roadnet::codec`] traits (serde-free): a one-word magic/version
//! header, a `u32` entry count, then fixed-width `(term, radius, count)`
//! triples. Corrupt input decodes to a typed [`DecodeError`], never a
//! panic.

use bytes::{Buf, Bytes, BytesMut};

use disks_core::Term;
use disks_partition::LayoutProfile;
use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::{DecodeError, KeywordId, NodeId};

/// Magic + version word opening every encoded snapshot ("DHS" + v1).
const HEADER: u32 = 0x4448_5301;

/// Encoded size of one `(term, radius, count)` entry: a tagged `u32` term
/// and two `u64`s. A declared count the remaining input cannot hold is
/// rejected before anything is allocated for it.
const ENTRY_BYTES: usize = 5 + 8 + 8;

/// A point-in-time export of the slot-heat ledger: one `(term, radius,
/// count)` triple per slot, hottest first (count descending, ties broken
/// by the deterministic slot key — the same total order the coordinator's
/// prewarm ranking uses).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatSnapshot {
    pub entries: Vec<(Term, u64, u64)>,
}

impl HeatSnapshot {
    /// Total recorded dispatch weight across all slots.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, _, c)| c).sum()
    }

    /// Serialize to the snapshot wire format.
    pub fn encode_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.entries.len() * 24);
        HEADER.encode(&mut buf);
        (self.entries.len() as u32).encode(&mut buf);
        for &(term, radius, count) in &self.entries {
            term.encode(&mut buf);
            radius.encode(&mut buf);
            count.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Deserialize from the snapshot wire format. Trailing bytes after the
    /// declared entries are rejected — a snapshot is a whole artifact, not
    /// a stream element.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut buf = bytes;
        let header = u32::decode(&mut buf)?;
        if header != HEADER {
            return Err(DecodeError::BadHeader { expected: HEADER, found: header });
        }
        let n = u32::decode(&mut buf)? as usize;
        if n > buf.remaining() / ENTRY_BYTES {
            return Err(DecodeError::LengthOutOfRange {
                context: "HeatSnapshot entries",
                len: n as u64,
            });
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let term = Term::decode(&mut buf)?;
            let radius = u64::decode(&mut buf)?;
            let count = u64::decode(&mut buf)?;
            entries.push((term, radius, count));
        }
        if buf.has_remaining() {
            return Err(DecodeError::LengthOutOfRange {
                context: "HeatSnapshot trailing bytes",
                len: buf.remaining() as u64,
            });
        }
        Ok(HeatSnapshot { entries })
    }

    /// Project the ledger into a [`LayoutProfile`]: keyword slots feed the
    /// keyword heat, node slots (RKQ-style location terms) feed the
    /// location heat, and every slot's radius feeds the radius
    /// distribution — all weighted by dispatch count.
    pub fn to_profile(&self) -> LayoutProfile {
        let mut profile = LayoutProfile::new();
        for &(term, radius, count) in &self.entries {
            match term {
                Term::Keyword(kw) => profile.record_keyword(KeywordId(kw.0), count),
                Term::Node(n) => profile.record_location(NodeId(n.0), count),
            }
            profile.record_radius(radius, count);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(k: u32) -> Term {
        Term::Keyword(KeywordId(k))
    }

    #[test]
    fn round_trips_and_rejects_corruption() {
        let snap = HeatSnapshot {
            entries: vec![(kw(3), 40, 17), (Term::Node(NodeId(9)), 200, 5), (kw(1), 40, 2)],
        };
        let bytes = snap.encode_bytes();
        assert_eq!(HeatSnapshot::decode_bytes(&bytes).unwrap(), snap);
        assert_eq!(snap.total(), 24);
        // Truncation → the declared entries no longer fit: a typed error,
        // not a panic; inside the header it is a typed EOF.
        assert_eq!(
            HeatSnapshot::decode_bytes(&bytes[..bytes.len() - 3]),
            Err(DecodeError::LengthOutOfRange { context: "HeatSnapshot entries", len: 3 })
        );
        assert!(matches!(
            HeatSnapshot::decode_bytes(&bytes[..6]),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        // Wrong magic word.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(HeatSnapshot::decode_bytes(&bad), Err(DecodeError::BadHeader { .. })));
        // Trailing garbage after the declared entries.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(matches!(
            HeatSnapshot::decode_bytes(&long),
            Err(DecodeError::LengthOutOfRange { .. })
        ));
        // A count the input cannot hold is refused before it is allocated
        // for: eight bytes must not reserve room for 2²⁴ entries.
        let mut huge = bytes[..4].to_vec();
        huge.extend_from_slice(&(1u32 << 24).to_le_bytes());
        assert_eq!(
            HeatSnapshot::decode_bytes(&huge),
            Err(DecodeError::LengthOutOfRange { context: "HeatSnapshot entries", len: 1 << 24 })
        );
    }

    #[test]
    fn profile_projection_splits_terms_and_sums_radii() {
        let snap = HeatSnapshot {
            entries: vec![(kw(2), 40, 9), (kw(2), 80, 1), (Term::Node(NodeId(4)), 80, 3)],
        };
        let p = snap.to_profile();
        assert_eq!(p.keyword_ranks(), vec![(2, 10)]);
        assert_eq!(p.radius_distribution(), vec![(40, 9), (80, 4)]);
        assert_eq!(p.radius_quantile(0.5), Some(40));
        assert_eq!(p.total_queries(), 13);
    }
}
