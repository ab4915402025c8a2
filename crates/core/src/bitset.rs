//! Fixed-capacity bitset used for per-fragment coverage sets.
//!
//! Coverages are dense subsets of a fragment's (local) node ids; the
//! D-function operators ∪, ∩, − become word-wise `|`, `&`, `& !` — the
//! trivial "second step" of the paper's two-step framework.
//!
//! The word loops live in [`kernels`] so the combine stage of both the
//! single-query and the batched dispatch paths share one implementation,
//! and so they can be tested directly against per-bit references.

/// Word-level kernels over raw `u64` slices — the hot loops of the combine
/// stage, unrolled four words at a time. All kernels require equal-length
/// slices; the in-place ∩ and − kernels report whether any bit survives so
/// callers can short-circuit dead operator chains without a second pass.
pub mod kernels {
    /// `dst |= src`, word-wise.
    pub fn or_into(dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "word slice length mismatch");
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (dw, sw) in (&mut d).zip(&mut s) {
            dw[0] |= sw[0];
            dw[1] |= sw[1];
            dw[2] |= sw[2];
            dw[3] |= sw[3];
        }
        for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a |= b;
        }
    }

    /// `dst &= src`, word-wise. Returns `true` if any bit survives.
    pub fn and_into(dst: &mut [u64], src: &[u64]) -> bool {
        assert_eq!(dst.len(), src.len(), "word slice length mismatch");
        let mut live = 0u64;
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (dw, sw) in (&mut d).zip(&mut s) {
            dw[0] &= sw[0];
            dw[1] &= sw[1];
            dw[2] &= sw[2];
            dw[3] &= sw[3];
            live |= dw[0] | dw[1] | dw[2] | dw[3];
        }
        for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a &= b;
            live |= *a;
        }
        live != 0
    }

    /// `dst &= !src` (subtraction), word-wise. Returns `true` if any bit
    /// survives.
    pub fn andnot_into(dst: &mut [u64], src: &[u64]) -> bool {
        assert_eq!(dst.len(), src.len(), "word slice length mismatch");
        let mut live = 0u64;
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (dw, sw) in (&mut d).zip(&mut s) {
            dw[0] &= !sw[0];
            dw[1] &= !sw[1];
            dw[2] &= !sw[2];
            dw[3] &= !sw[3];
            live |= dw[0] | dw[1] | dw[2] | dw[3];
        }
        for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a &= !b;
            live |= *a;
        }
        live != 0
    }

    /// Whether `a ∩ b` is non-empty, short-circuiting on the first
    /// intersecting chunk.
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        assert_eq!(a.len(), b.len(), "word slice length mismatch");
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for (aw, bw) in (&mut ac).zip(&mut bc) {
            if (aw[0] & bw[0]) | (aw[1] & bw[1]) | (aw[2] & bw[2]) | (aw[3] & bw[3]) != 0 {
                return true;
            }
        }
        ac.remainder().iter().zip(bc.remainder()).any(|(&x, &y)| x & y != 0)
    }

    /// Number of set bits.
    pub fn popcount(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set, short-circuiting.
    pub fn any(a: &[u64]) -> bool {
        a.iter().any(|&w| w != 0)
    }
}

/// A fixed-capacity bitset over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Capacity (number of addressable elements).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// The backing words, element `i` at bit `i % 64` of word `i / 64`; bits
    /// at or past `capacity()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Resident bytes of the backing storage (used for cache accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * 8
    }

    /// Insert `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        kernels::popcount(&self.words)
    }

    pub fn is_empty(&self) -> bool {
        !kernels::any(&self.words)
    }

    /// Overwrite `self` with `other`'s elements, reusing the backing words.
    /// Panics on capacity mismatch.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// In-place union. Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        kernels::or_into(&mut self.words, &other.words);
    }

    /// In-place intersection. Returns `true` if any element survives.
    /// Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        kernels::and_into(&mut self.words, &other.words)
    }

    /// In-place subtraction (`self − other`). Returns `true` if any element
    /// survives. Panics on capacity mismatch.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        kernels::andnot_into(&mut self.words, &other.words)
    }

    /// Whether `self ∩ other` is non-empty, without materializing the
    /// intersection. Panics on capacity mismatch.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        kernels::intersects(&self.words, &other.words)
    }

    /// Iterate set elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn set_operations_match_semantics() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        for i in [1, 3, 5, 7] {
            a.insert(i);
        }
        for i in [3, 4, 5, 6] {
            b.insert(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 6, 7]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 5]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 7]);
        d.copy_from(&b);
        assert_eq!(d, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacities_panic() {
        let mut a = BitSet::new(4);
        let b = BitSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn empty_capacity_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn intersects_matches_materialized_intersection() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        a.insert(3);
        a.insert(150);
        b.insert(150);
        assert!(a.intersects(&b));
        let mut c = BitSet::new(200);
        c.insert(151);
        assert!(!a.intersects(&c));
        assert!(!BitSet::new(200).intersects(&a));
    }
}

/// The kernels verified against naive per-bit references over random word
/// slices — empty, full, and unaligned-tail lengths included (lengths that
/// are not multiples of the 4-word unroll exercise the remainder loops).
#[cfg(test)]
mod kernel_proptests {
    use super::kernels;
    use proptest::prelude::*;

    /// Deterministic word patterns from a seed: mixes empty, full, and
    /// pseudo-random words so boundary patterns appear often.
    fn words_from_seed(mut seed: u64, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| {
                // splitmix64 step
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                match z % 4 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => z,
                }
            })
            .collect()
    }

    fn bit(words: &[u64], i: usize) -> bool {
        words[i / 64] & (1u64 << (i % 64)) != 0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Lengths 0..=9 cover the empty slice, sub-unroll slices, exact
        // multiples of the 4-word unroll, and unaligned tails.
        #[test]
        fn kernels_match_per_bit_references(seed in 0u64..10_000, len in 0usize..10) {
            let a = words_from_seed(seed, len);
            let b = words_from_seed(seed ^ 0xDEAD_BEEF, len);

            let mut or = a.clone();
            kernels::or_into(&mut or, &b);
            let mut and = a.clone();
            let and_live = kernels::and_into(&mut and, &b);
            let mut sub = a.clone();
            let sub_live = kernels::andnot_into(&mut sub, &b);

            for i in 0..len * 64 {
                prop_assert_eq!(bit(&or, i), bit(&a, i) | bit(&b, i));
                prop_assert_eq!(bit(&and, i), bit(&a, i) & bit(&b, i));
                prop_assert_eq!(bit(&sub, i), bit(&a, i) & !bit(&b, i));
            }
            prop_assert_eq!(and_live, (0..len * 64).any(|i| bit(&and, i)));
            prop_assert_eq!(sub_live, (0..len * 64).any(|i| bit(&sub, i)));
            prop_assert_eq!(
                kernels::intersects(&a, &b),
                (0..len * 64).any(|i| bit(&a, i) && bit(&b, i))
            );
            prop_assert_eq!(kernels::popcount(&a), (0..len * 64).filter(|&i| bit(&a, i)).count());
            prop_assert_eq!(kernels::any(&a), (0..len * 64).any(|i| bit(&a, i)));
        }

        #[test]
        fn kernels_handle_empty_and_full_slices(len in 0usize..10) {
            let zeros = vec![0u64; len];
            let ones = vec![u64::MAX; len];

            let mut dst = zeros.clone();
            kernels::or_into(&mut dst, &ones);
            prop_assert_eq!(&dst, &ones);
            let live = kernels::and_into(&mut dst, &zeros);
            prop_assert_eq!(&dst, &zeros);
            prop_assert!(!live);
            let mut full = ones.clone();
            let live = kernels::andnot_into(&mut full, &zeros);
            prop_assert_eq!(&full, &ones);
            prop_assert_eq!(live, len > 0);
            prop_assert_eq!(kernels::intersects(&ones, &zeros), false);
            prop_assert_eq!(kernels::intersects(&ones, &ones), len > 0);
            prop_assert_eq!(kernels::popcount(&ones), len * 64);
            prop_assert_eq!(kernels::any(&zeros), false);
        }
    }
}
