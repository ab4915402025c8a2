//! Minimal hand-written binary codec over [`bytes`].
//!
//! Used for index persistence and for the cluster wire protocol. A
//! hand-written codec (rather than a serde backend) keeps the byte accounting
//! in the distributed experiments exact and auditable: every encoded byte is
//! visible in this file.
//!
//! All integers are little-endian fixed width. Collections are length-prefixed
//! with `u32`. Strings are UTF-8 with a `u32` byte-length prefix.

use bytes::{Buf, BufMut};

use crate::error::DecodeError;

/// Extension helpers for encoding.
pub trait Encode {
    fn encode(&self, buf: &mut impl BufMut);
}

/// Extension helpers for decoding. Decoding never panics on malformed input;
/// it returns [`DecodeError`].
pub trait Decode: Sized {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError>;
}

#[inline]
fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::UnexpectedEof { needed: n, remaining: buf.remaining() })
    } else {
        Ok(())
    }
}

impl Encode for u8 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 1)?;
        Ok(buf.get_u8())
    }
}

impl Encode for u16 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16_le(*self);
    }
}
impl Decode for u16 {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 2)?;
        Ok(buf.get_u16_le())
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(*self);
    }
}
impl Decode for u32 {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 4)?;
        Ok(buf.get_u32_le())
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(*self);
    }
}
impl Decode for u64 {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 8)?;
        Ok(buf.get_u64_le())
    }
}

impl Encode for f32 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_f32_le(*self);
    }
}
impl Decode for f32 {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 4)?;
        Ok(buf.get_f32_le())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { context: "bool", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut impl BufMut) {
        encode_len(self.len(), buf);
        for item in self {
            item.encode(buf);
        }
    }
}
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.as_slice().encode(buf);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let len = decode_len(buf, "Vec")?;
        // Reserve no more memory than there are bytes in hand: a corrupt
        // prefix must not turn a short frame into a large allocation.
        let mut out = Vec::with_capacity(len.min(buf.remaining() / size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut impl BufMut) {
        encode_len(self.len(), buf);
        buf.put_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let len = decode_len(buf, "String")?;
        need(buf, len)?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(DecodeError::BadTag { context: "Option", tag }),
        }
    }
}

/// Encode a collection length as `u32`.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX`; the system never produces collections
/// that large (node ids themselves are `u32`).
pub fn encode_len(len: usize, buf: &mut impl BufMut) {
    let len32 = u32::try_from(len).expect("collection length exceeds u32::MAX");
    buf.put_u32_le(len32);
}

/// Decode a `u32` collection length. Every element of every collection in
/// these formats encodes to at least one byte, so a count above the bytes
/// that remain is corrupt: it fails here, before the caller allocates for it.
pub fn decode_len(buf: &mut impl Buf, context: &'static str) -> Result<usize, DecodeError> {
    let len = u32::decode(buf)? as usize;
    if len > buf.remaining() {
        return Err(DecodeError::LengthOutOfRange { context, len: len as u64 });
    }
    Ok(len)
}

/// Encode a magic+version header.
pub fn encode_header(magic: u32, buf: &mut impl BufMut) {
    buf.put_u32_le(magic);
}

/// Check a magic+version header.
pub fn decode_header(buf: &mut impl Buf, expected: u32) -> Result<(), DecodeError> {
    let found = u32::decode(buf)?;
    if found != expected {
        return Err(DecodeError::BadHeader { expected, found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = BytesMut::new();
        value.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = T::decode(&mut bytes).expect("decode");
        assert_eq!(decoded, value);
        assert_eq!(bytes.remaining(), 0, "decoder must consume exactly what was encoded");
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xbeefu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(3.25f32);
    }

    #[test]
    fn composite_round_trips() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip("hello keywords".to_string());
        round_trip(String::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![(1u32, 2u64), (3, 4)]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut buf = BytesMut::new();
        vec![1u32, 2, 3].encode(&mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut slice = full.slice(0..cut);
            let res = Vec::<u32>::decode(&mut slice);
            assert!(res.is_err(), "prefix of length {cut} must fail to decode");
        }
    }

    #[test]
    fn length_prefix_beyond_the_input_is_rejected_before_allocating() {
        // A `Vec<u32>` cut after its second element: the prefix still says 3.
        let mut buf = BytesMut::new();
        vec![1u32, 2, 3].encode(&mut buf);
        let mut cut = buf.freeze().slice(0..4 + 8);
        assert!(matches!(Vec::<u32>::decode(&mut cut), Err(DecodeError::UnexpectedEof { .. })));
        // A count no input of this size can hold fails on the prefix alone,
        // whatever the element type would have cost in memory.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_slice(&[0; 5]);
        let mut bytes = buf.freeze();
        assert_eq!(
            Vec::<(u64, u64)>::decode(&mut bytes),
            Err(DecodeError::LengthOutOfRange { context: "Vec", len: u64::from(u32::MAX) })
        );
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        let mut bytes = buf.freeze();
        assert!(matches!(bool::decode(&mut bytes), Err(DecodeError::BadTag { .. })));
    }

    #[test]
    fn bad_option_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        let mut bytes = buf.freeze();
        assert!(matches!(Option::<u32>::decode(&mut bytes), Err(DecodeError::BadTag { .. })));
    }

    #[test]
    fn header_mismatch_rejected() {
        let mut buf = BytesMut::new();
        encode_header(0x1111_2222, &mut buf);
        let mut bytes = buf.freeze();
        assert!(matches!(
            decode_header(&mut bytes, 0x3333_4444),
            Err(DecodeError::BadHeader { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        encode_len(2, &mut buf);
        buf.put_slice(&[0xff, 0xfe]);
        let mut bytes = buf.freeze();
        assert_eq!(String::decode(&mut bytes), Err(DecodeError::BadUtf8));
    }
}
