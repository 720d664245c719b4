//! Deterministic pseudo-random number generation.
//!
//! The simulator deliberately avoids external RNG crates so that a given
//! seed reproduces the exact same trace, schedule, and therefore the exact
//! same experiment tables on every platform. The generator is
//! xoshiro256\*\* (public-domain algorithm by Blackman & Vigna) seeded via
//! SplitMix64, the standard pairing.

/// The SplitMix64 increment (the golden ratio in 64-bit fixed point).
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advances `x` by the golden-ratio increment and
/// returns its finalised mix. Stateless, so a pure hash of its input —
/// the seeded fault plans derive every decision from it.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`: the keying hash of the fault plans and
/// the digest of snapshot fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A small, fast, deterministic PRNG (xoshiro256\*\*).
///
/// Not cryptographically secure; intended only for workload synthesis and
/// the genetic algorithm's stochastic operators.
///
/// # Examples
///
/// ```
/// use mitts_sim::rng::Rng;
/// let mut a = Rng::seeded(42);
/// let mut b = Rng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including zero) produces a well-mixed state because the
    /// raw seed is expanded through SplitMix64 first.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            let z = splitmix64(sm);
            sm = sm.wrapping_add(SPLITMIX64_GAMMA);
            z
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// Returns the next 64 uniformly distributed bits.
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

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method for unbiased sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 high-quality bits, standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples a geometric-like burst length: `1 + Geometric(1/mean)`,
    /// clamped to at least 1. Used by workload generators for burst and
    /// idle period lengths.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).ln()).floor() as u64;
        1 + g
    }

    /// Forks an independent generator, leaving `self` advanced.
    ///
    /// The fork is seeded from this generator's stream, so forked streams
    /// are decorrelated but still fully determined by the original seed.
    pub fn fork(&mut self) -> Rng {
        Rng::seeded(self.next_u64())
    }

    /// Encodes the generator's exact position in its stream (checkpoint
    /// support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        for &w in &self.s {
            enc.u64(w);
        }
    }

    /// Restores a position previously written by [`Rng::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        for w in &mut self.s {
            *w = dec.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_helpers_match_the_reference_vectors() {
        // SplitMix64 seeded with 0, and FNV-1a's published test vectors.
        assert_eq!(Rng::seeded(0).s, [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ]);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seeded(1);
        let mut b = Rng::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seeded(3);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_is_inclusive_and_covers_endpoints() {
        let mut r = Rng::seeded(4);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi, "endpoints should both be reachable");
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = Rng::seeded(5);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn unit_f64_mean_is_about_half() {
        let mut r = Rng::seeded(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.unit_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn geometric_mean_tracks_parameter() {
        let mut r = Rng::seeded(8);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.geometric(8.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "geometric mean {mean} should be near 8");
    }

    #[test]
    fn geometric_degenerates_to_one() {
        let mut r = Rng::seeded(9);
        for _ in 0..100 {
            assert_eq!(r.geometric(0.5), 1);
        }
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let mut parent = Rng::seeded(10);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seeded(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }
}
