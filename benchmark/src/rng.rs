//! The benchmark's own random sources and fingerprints.
//!
//! Workload inputs must not change when a library changes, so nothing here
//! comes from `rand`, `roadnet::zipf` or `crates/bench`: SplitMix64, a
//! table-driven Zipf sampler, an exponential sampler and FNV-1a are all
//! defined in this file and pinned by the fingerprints in `pins.json`.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent generator for a named sub-stream of the same seed.
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut g = SplitMix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        SplitMix64(g.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential variate with the given rate (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Zipf over ranks `0..n` with `P(rank k) ∝ 1 / (k + 1)^s`, sampled by
/// binary search in the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over 64-bit words (one multiply per word: cheap enough to digest
/// a 15 k-node answer without disturbing the measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn zipf_is_monotone_and_in_range() {
        let z = Zipf::new(64, 1.0);
        let mut g = SplitMix64::new(7);
        let mut counts = [0u32; 64];
        for _ in 0..100_000 {
            counts[z.sample(&mut g)] += 1;
        }
        assert!(counts[0] > counts[7] && counts[7] > counts[63]);
    }

    #[test]
    fn exponential_has_the_stated_mean() {
        let mut g = SplitMix64::new(3);
        let mean = (0..200_000).map(|_| g.exponential(4.0)).sum::<f64>() / 200_000.0;
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
    }
}
