//! The benchmark's own input generator: SplitMix64.
//!
//! Inputs are derived from the workload seed with a generator that lives
//! in the benchmark, not in the program under test, so a change to the
//! program's RNG can never change what the benchmark feeds it.

/// SplitMix64 (Steele, Lea & Flood, 2014): one 64-bit word of state,
/// full period, and good enough statistics to draw workload inputs.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator for stream `stream` of the workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A per-request seed: request `index` of the run seeded with `seed`.
pub fn request_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed, 0x5EED_0000 + index as u64).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut rng = SplitMix64::new(3, 0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(5) < 5);
        }
    }
}
