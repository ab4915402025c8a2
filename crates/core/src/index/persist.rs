//! Binary persistence for NPD-indexes.
//!
//! In the paper's deployment each machine stores "an SC file and a DL file"
//! per fragment; storage cost (EXP 1 / Figs. 7–8) is measured on these
//! files. We persist both components (plus the §3.7 keyword aggregation) in
//! one binary blob per fragment and report its size as the storage cost.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use disks_partition::FragmentId;
use disks_roadnet::codec::{decode_header, decode_len, encode_header, encode_len, Decode, Encode};
use disks_roadnet::{DecodeError, KeywordId, NodeId};

use super::{DlScope, NpdIndex};
use crate::error::IndexError;

/// Magic header for the binary index format ("DSKI" + version 1).
pub const INDEX_MAGIC: u32 = 0x4453_4B11;

impl Encode for DlScope {
    fn encode(&self, buf: &mut impl BufMut) {
        let tag: u8 = match self {
            DlScope::ObjectsOnly => 0,
            DlScope::AllNodes => 1,
        };
        tag.encode(buf);
    }
}
impl Decode for DlScope {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(DlScope::ObjectsOnly),
            1 => Ok(DlScope::AllNodes),
            tag => Err(DecodeError::BadTag { context: "DlScope", tag }),
        }
    }
}

/// Decode a table of `key → pairs` entries. [`to_binary`] writes a table in
/// strictly ascending key order, so any other order — a repeated key
/// included — is corrupt, not a second spelling of the same index. So is a
/// `(portal, distance)` list that does not ascend by `(distance, portal)`
/// as every builder sorts it (Rule 2 condition 3): the engine cuts these
/// lists at a radius by binary search, and would silently lose the seeds
/// of a list out of order.
fn decode_table<K: Decode + Copy + Ord + std::hash::Hash>(
    buf: &mut impl Buf,
    context: &'static str,
) -> Result<HashMap<K, Vec<(NodeId, u64)>>, DecodeError> {
    let len = decode_len(buf, context)?;
    // An entry is at least a key and a length prefix.
    let mut table = HashMap::with_capacity(len.min(buf.remaining() / 8));
    let mut last = None;
    for _ in 0..len {
        let key = K::decode(buf)?;
        if last.is_some_and(|last| last >= key) {
            return Err(DecodeError::LengthOutOfRange { context, len: len as u64 });
        }
        last = Some(key);
        let list = Vec::<(NodeId, u64)>::decode(buf)?;
        if let Some(at) = list.windows(2).position(|w| (w[0].1, w[0].0) >= (w[1].1, w[1].0)) {
            return Err(DecodeError::LengthOutOfRange {
                context: "dl list out of order",
                len: at as u64 + 1,
            });
        }
        table.insert(key, list);
    }
    Ok(table)
}

/// Encode an index to bytes.
pub fn to_binary(index: &NpdIndex) -> Bytes {
    let mut buf = BytesMut::new();
    encode_header(INDEX_MAGIC, &mut buf);
    index.fragment.0.encode(&mut buf);
    index.max_r.encode(&mut buf);
    index.dl_scope.encode(&mut buf);
    encode_len(index.sc.len(), &mut buf);
    for &(a, b, d) in &index.sc {
        a.encode(&mut buf);
        b.encode(&mut buf);
        d.encode(&mut buf);
    }
    // Deterministic order for reproducible files.
    let mut entries: Vec<(&NodeId, &Vec<(NodeId, u64)>)> = index.dl_entries.iter().collect();
    entries.sort_unstable_by_key(|(n, _)| n.0);
    encode_len(entries.len(), &mut buf);
    for (n, list) in entries {
        n.encode(&mut buf);
        list.encode(&mut buf);
    }
    let mut kws: Vec<(&KeywordId, &Vec<(NodeId, u64)>)> = index.keyword_portals.iter().collect();
    kws.sort_unstable_by_key(|(k, _)| k.0);
    encode_len(kws.len(), &mut buf);
    for (k, list) in kws {
        k.encode(&mut buf);
        list.encode(&mut buf);
    }
    buf.freeze()
}

/// Decode an index from bytes: exactly one index, in the one form
/// [`to_binary`] writes, with nothing after it.
pub fn from_binary(mut bytes: Bytes) -> Result<NpdIndex, IndexError> {
    decode_header(&mut bytes, INDEX_MAGIC)?;
    let fragment = FragmentId(u32::decode(&mut bytes)?);
    let max_r = u64::decode(&mut bytes)?;
    let dl_scope = DlScope::decode(&mut bytes)?;
    let sc_len = decode_len(&mut bytes, "sc")?;
    let mut sc = Vec::with_capacity(sc_len.min(bytes.remaining() / 16));
    for _ in 0..sc_len {
        sc.push((
            NodeId::decode(&mut bytes)?,
            NodeId::decode(&mut bytes)?,
            u64::decode(&mut bytes)?,
        ));
    }
    let dl_entries = decode_table(&mut bytes, "dl entries")?;
    let keyword_portals = decode_table(&mut bytes, "keyword portals")?;
    if bytes.has_remaining() {
        return Err(DecodeError::LengthOutOfRange {
            context: "bytes after the index",
            len: bytes.remaining() as u64,
        }
        .into());
    }
    Ok(NpdIndex {
        fragment,
        max_r,
        dl_scope,
        sc,
        dl_entries,
        keyword_portals,
        build_time: std::time::Duration::ZERO,
        build_settled: 0,
    })
}

/// Size of the persisted form in bytes (the EXP 1 storage-cost measure).
pub fn encoded_size(index: &NpdIndex) -> usize {
    to_binary(index).len()
}

/// Save an index file.
pub fn save_index(index: &NpdIndex, path: impl AsRef<Path>) -> Result<(), IndexError> {
    let bytes = to_binary(index);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&bytes)?;
    Ok(())
}

/// Load an index file, checking it belongs to `expected` fragment.
pub fn load_index(path: impl AsRef<Path>, expected: FragmentId) -> Result<NpdIndex, IndexError> {
    let data = std::fs::read(path)?;
    let index = from_binary(Bytes::from(data))?;
    if index.fragment != expected {
        return Err(IndexError::FragmentMismatch { expected: expected.0, found: index.fragment.0 });
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_index, IndexConfig};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use proptest::prelude::*;

    fn sample_index() -> NpdIndex {
        let net = GridNetworkConfig::tiny(8).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        build_index(&net, &p, FragmentId(1), &IndexConfig::unbounded())
    }

    #[test]
    fn binary_round_trip() {
        let idx = sample_index();
        let back = from_binary(to_binary(&idx)).unwrap();
        assert_eq!(back.fragment, idx.fragment);
        assert_eq!(back.max_r, idx.max_r);
        assert_eq!(back.sc, idx.sc);
        assert_eq!(back.dl_entries, idx.dl_entries);
        assert_eq!(back.keyword_portals, idx.keyword_portals);
    }

    #[test]
    fn encoding_is_deterministic() {
        let idx = sample_index();
        assert_eq!(to_binary(&idx), to_binary(&idx));
    }

    #[test]
    fn truncated_input_rejected() {
        let idx = sample_index();
        let raw = to_binary(&idx);
        let cut = raw.slice(0..raw.len() - 3);
        assert!(from_binary(cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let idx = sample_index();
        let mut raw = to_binary(&idx).to_vec();
        raw[1] ^= 0x55;
        assert!(from_binary(Bytes::from(raw)).is_err());
    }

    #[test]
    fn file_round_trip_and_fragment_check() {
        let idx = sample_index();
        let dir = std::env::temp_dir().join(format!("disks-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frag1.npd");
        save_index(&idx, &path).unwrap();
        let back = load_index(&path, FragmentId(1)).unwrap();
        assert_eq!(back.distances_recorded(), idx.distances_recorded());
        assert!(matches!(
            load_index(&path, FragmentId(0)),
            Err(IndexError::FragmentMismatch { expected: 0, found: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file is one index in the encoder's form and nothing else: bytes
    /// after it, or a DL table whose keys repeat or descend, are corruption,
    /// not something to load around.
    #[test]
    fn load_index_rejects_trailing_bytes_and_keys_out_of_order() {
        let dir = std::env::temp_dir().join(format!("disks-idx-strict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frag1.npd");
        let rejected = |blob: &[u8], what: &str| {
            std::fs::write(&path, blob).unwrap();
            let got = load_index(&path, FragmentId(1));
            assert!(
                matches!(got, Err(IndexError::Decode(DecodeError::LengthOutOfRange { .. }))),
                "{what}: {:?}",
                got.map(|i| i.distances_recorded())
            );
        };

        let mut appended = to_binary(&sample_index()).to_vec();
        appended.extend_from_slice(&[0; 7]);
        rejected(&appended, "7 bytes after the index");

        // The second was found by the bit-flip proptest below (a flipped
        // key bit, 8 → 10): it decoded, and re-encoded sorted, to other bytes.
        for (keys, what) in [([3, 3], "a repeated DL key"), ([10, 9], "descending DL keys")] {
            let mut blob = BytesMut::new();
            encode_header(INDEX_MAGIC, &mut blob);
            (1u32, u64::MAX).encode(&mut blob);
            DlScope::AllNodes.encode(&mut blob);
            encode_len(0, &mut blob); // sc
            encode_len(keys.len(), &mut blob); // dl entries
            for key in keys {
                NodeId(key).encode(&mut blob);
                vec![(NodeId(4), 9u64)].encode(&mut blob);
            }
            encode_len(0, &mut blob); // keyword portals
            rejected(&blob, what);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two entries of one list swapped: every key and length still reads
    /// well, but a cut of the list at a radius between the two distances
    /// would drop a seed. Refused for both tables.
    #[test]
    fn from_binary_rejects_a_dl_list_out_of_order() {
        fn swap_first_ascent<K>(table: &mut HashMap<K, Vec<(NodeId, u64)>>) {
            let list = table
                .values_mut()
                .find(|list| list.windows(2).any(|w| w[0].1 < w[1].1))
                .expect("a list with two distances");
            let at = list.windows(2).position(|w| w[0].1 < w[1].1).unwrap();
            list.swap(at, at + 1);
        }
        let swapped = |swap: fn(&mut NpdIndex)| {
            let mut index = sample_index();
            swap(&mut index);
            from_binary(to_binary(&index)).map(|i| i.distances_recorded())
        };
        for (what, swap) in [
            ("node table", (|i| swap_first_ascent(&mut i.dl_entries)) as fn(&mut NpdIndex)),
            ("keyword table", |i| swap_first_ascent(&mut i.keyword_portals)),
        ] {
            let got = swapped(swap);
            assert!(
                matches!(
                    got,
                    Err(IndexError::Decode(DecodeError::LengthOutOfRange {
                        context: "dl list out of order",
                        ..
                    }))
                ),
                "{what}: {got:?}"
            );
        }
    }

    #[test]
    fn encoded_size_matches_blob() {
        let idx = sample_index();
        assert_eq!(encoded_size(&idx), to_binary(&idx).len());
        assert!(encoded_size(&idx) > 0);
    }

    /// What decodes is the encoder's own form: it re-encodes to the input,
    /// every byte of it.
    fn decodes_only_to_its_own_encoding(raw: Vec<u8>) -> Result<(), TestCaseError> {
        if let Ok(index) = from_binary(Bytes::from(raw.clone())) {
            prop_assert!(to_binary(&index)[..] == raw[..], "decoded, but re-encodes differently");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes — half of them zero, so that length prefixes are
        /// often small enough to pass — never panic the decoder, bare or
        /// behind a valid header. (Every reservation is bounded by the bytes
        /// in hand, so none can exhaust memory either.)
        #[test]
        fn arbitrary_bytes_never_panic(
            body in collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..256)
        ) {
            let mut raw = BytesMut::new();
            encode_header(INDEX_MAGIC, &mut raw);
            raw.extend_from_slice(&body);
            decodes_only_to_its_own_encoding(raw.to_vec())?;
            decodes_only_to_its_own_encoding(body)?;
        }

        /// One flipped bit anywhere in a valid file, and any number of bytes
        /// appended to it, either fail to decode or change nothing the
        /// encoder would not write back.
        #[test]
        fn bit_flips_and_trailing_bytes_of_a_valid_blob(
            at in any::<usize>(),
            bit in 0u8..8,
            tail in collection::vec(any::<u8>(), 1..9),
        ) {
            let valid = to_binary(&sample_index()).to_vec();
            let mut flipped = valid.clone();
            flipped[at % valid.len()] ^= 1 << bit;
            decodes_only_to_its_own_encoding(flipped)?;
            let mut longer = valid;
            longer.extend_from_slice(&tail);
            decodes_only_to_its_own_encoding(longer)?;
        }
    }
}
