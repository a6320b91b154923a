//! A small deterministic pseudo-random number generator.
//!
//! The workspace builds offline, so it cannot depend on the `rand` crate;
//! everything that needs seeded randomness — graph generation, fault
//! injection — uses [`DetRng`] instead. The generator is splitmix64
//! (Steele et al., "Fast splittable pseudorandom number generators"), which
//! passes BigCrush for this output width, is platform-independent, and is
//! trivially reproducible from a `u64` seed — the property the simulator's
//! bit-for-bit determinism tests rely on.

use std::fmt;

/// A seeded, deterministic splitmix64 generator.
///
/// The same seed always produces the same stream on every platform.
///
/// # Examples
///
/// ```
/// use batmem_types::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl fmt::Debug for DetRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetRng").finish_non_exhaustive()
    }
}

impl DetRng {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    ///
    /// Uses 128-bit arithmetic so the modulo bias is negligible for any
    /// bound the simulator uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below requires a nonzero bound");
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        (wide % u128::from(bound)) as u64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform value in `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "DetRng::range_inclusive requires lo <= hi");
        let span = u128::from(hi - lo) + 1;
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        lo + (wide % span) as u64
    }

    /// Bernoulli draw: `true` with probability `percent / 100`.
    pub fn chance_percent(&mut self, percent: u8) -> bool {
        match percent {
            0 => false,
            p if p >= 100 => true,
            p => self.below(100) < u64::from(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(8);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_draws_in_range() {
        let mut rng = DetRng::new(5);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
            let r = rng.range(3, 9);
            assert!((3..9).contains(&r));
            let ri = rng.range_inclusive(3, 9);
            assert!((3..=9).contains(&ri));
        }
    }

    #[test]
    fn chance_percent_extremes() {
        let mut rng = DetRng::new(11);
        for _ in 0..100 {
            assert!(!rng.chance_percent(0));
            assert!(rng.chance_percent(100));
        }
        // 50% lands strictly between the extremes over a long run.
        let hits = (0..1000).filter(|_| rng.chance_percent(50)).count();
        assert!((300..700).contains(&hits), "hits = {hits}");
    }
}
