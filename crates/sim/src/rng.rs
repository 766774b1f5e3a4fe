//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-for-bit reproducible from a single seed, so we
//! implement a small, well-known generator (xoshiro256++ seeded through
//! SplitMix64) instead of relying on platform entropy. Workload crates that
//! want the richer `rand` API layer it on top; everything inside the
//! simulator core uses [`SimRng`] directly.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use inpg_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose entire state is derived from `seed` via
    /// the SplitMix64 expansion, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        SimRng { state }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in the inclusive range
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns `true` with probability `numer / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn chance(&mut self, numer: u64, denom: u64) -> bool {
        self.next_below(denom) < numer
    }

    /// Forks a statistically independent child generator; used to hand
    /// each simulated thread its own stream without sharing state.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            let v = rng.next_range(10, 12);
            assert!((10..=12).contains(&v));
            lo_seen |= v == 10;
            hi_seen |= v == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(!rng.chance(0, 10));
        assert!(rng.chance(10, 10));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = SimRng::seed_from_u64(9);
        let mut child = parent.fork();
        // The child's next output should not generally equal the parent's.
        let equal = (0..16).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert!(equal < 4);
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }
}
