//! A small deterministic PRNG for reproducible experiment workloads.
//!
//! Experiments in the paper use a "random permutation between the GSes" as
//! the traffic matrix. Reproducibility across runs and platforms matters
//! more than statistical sophistication here, so we ship a self-contained
//! splitmix64/xoshiro256** implementation rather than depending on a
//! particular `rand` backend remaining stable. Tests and examples draw
//! from it too: the workspace has no other source of randomness.

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        DetRng { s }
    }

    /// The raw xoshiro256** state words, for checkpointing. Restoring a
    /// generator with [`DetRng::from_state`] continues the stream exactly
    /// where this one left off.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a previously captured [`DetRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`. Uses Lemire's multiply-shift with rejection
    /// to avoid modulo bias. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected sample in the biased zone: draw again.
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`: how the seeded property tests draw a
    /// case.
    pub fn next_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Exponentially distributed draw with the given mean, via the
    /// inverse CDF. Used for MTTF/MTTR fault sampling. Panics if
    /// `mean` is not positive.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        // 1 - next_f64() lies in (0, 1], so the log is finite.
        -(1.0 - self.next_f64()).ln() * mean
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A random derangement-style permutation pairing of `0..n`: returns
    /// `perm` where `perm[i] != i` for all `i` (the paper's "random
    /// permutation between the GSes" traffic matrix, with self-pairs
    /// excluded). Panics if `n < 2`.
    pub fn permutation_pairs(&mut self, n: usize) -> Vec<usize> {
        assert!(n >= 2, "need at least two endpoints to pair");
        // Repeated shuffle until no fixed point. Expected ~e tries.
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            self.shuffle(&mut perm);
            if perm.iter().enumerate().all(|(i, &p)| i != p) {
                return perm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut a = DetRng::new(42);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = DetRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_below_covers_all_values() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_pairs_has_no_fixed_points() {
        let mut r = DetRng::new(5);
        for n in [2usize, 3, 10, 100] {
            let p = r.permutation_pairs(n);
            assert_eq!(p.len(), n);
            for (i, &pi) in p.iter().enumerate() {
                assert_ne!(i, pi, "fixed point at {i} for n={n}");
            }
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn next_exp_is_positive_with_the_right_mean() {
        let mut r = DetRng::new(77);
        let n = 100_000;
        let mean = 3.5;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_exp(mean);
            assert!(x >= 0.0 && x.is_finite());
            sum += x;
        }
        let measured = sum / n as f64;
        assert!((measured - mean).abs() < 0.05, "mean {measured}, want {mean}");
    }

    #[test]
    #[should_panic]
    fn next_exp_rejects_nonpositive_mean() {
        DetRng::new(1).next_exp(0.0);
    }

    #[test]
    fn mean_of_next_f64_is_near_half() {
        let mut r = DetRng::new(123);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
