//! A small serializable RNG for resumable searches.
//!
//! `rand 0.8`'s `StdRng` deliberately hides its internal state, so a
//! search that must checkpoint mid-run and later resume *bit-identically*
//! cannot use it. This module provides xoshiro256** (Blackman & Vigna,
//! the same generator family `rand_xoshiro` ships) with the raw
//! `[u64; 4]` state exposed: the hybrid annealer snapshots
//! [`SearchRng::state`] into its checkpoint and restores it with
//! [`SearchRng::from_state`], continuing the exact random sequence the
//! interrupted run would have produced.
//!
//! The sampling helpers are inherent methods rather than `rand` trait
//! impls on purpose: the checkpointed byte stream must not depend on
//! which `rand` version (or distribution algorithm) happens to be linked.

/// One SplitMix64 draw (Steele, Lea & Flood): advances `state` by the
/// golden-ratio increment and returns its mixed value. The workspace's
/// one copy: it seeds [`SearchRng`], draws the chaos storage's faults and
/// serve's retry-backoff jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** with an extractable/restorable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRng {
    s: [u64; 4],
}

impl SearchRng {
    /// Seeds the generator from a single `u64` via SplitMix64 expansion
    /// (the construction recommended by the xoshiro authors; it cannot
    /// produce the degenerate all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        SearchRng {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// The raw generator state, suitable for serialization.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Restores a generator from a serialized state. The all-zero state is
    /// a fixed point of xoshiro; it is mapped to `seed_from_u64(0)` so a
    /// corrupted checkpoint cannot produce a constant stream.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            SearchRng::seed_from_u64(0)
        } else {
            SearchRng { s }
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `range` (half-open). Empty ranges yield `start`.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        let span = range.end.saturating_sub(range.start).max(1) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_published_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut state), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SearchRng::seed_from_u64(7);
        let mut b = SearchRng::seed_from_u64(7);
        let mut c = SearchRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn state_round_trip_resumes_the_exact_sequence() {
        let mut rng = SearchRng::seed_from_u64(42);
        for _ in 0..100 {
            rng.next_u64();
        }
        let saved = rng.state();
        let tail: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut resumed = SearchRng::from_state(saved);
        let resumed_tail: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn all_zero_state_is_not_a_fixed_point() {
        let mut rng = SearchRng::from_state([0; 4]);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert!(a != 0 || b != 0, "degenerate state must be remapped");
    }

    #[test]
    fn sampling_helpers_stay_in_bounds() {
        let mut rng = SearchRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = rng.gen_range(3..10);
            assert!((3..10).contains(&i));
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        // Mean of gen_f64 over many draws should be near 0.5.
        let mean: f64 = (0..4096).map(|_| rng.gen_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
