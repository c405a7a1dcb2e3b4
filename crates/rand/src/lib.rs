//! An offline, in-workspace stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the tiny slice of the `rand` 0.9 API the workload
//! generators use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`RngExt`]'s `random` / `random_range`. The generator is the
//! workspace's one SplitMix64 (`pulse_sim::SplitMix64`) — deterministic,
//! seedable, and statistically sound for workload draws — wrapped here
//! behind the `rand` API surface so every experiment stays
//! bit-reproducible without an external dependency and without a second
//! PRNG implementation to keep in lockstep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generator types, mirroring `rand::rngs`.
pub mod rngs {
    use pulse_sim::SplitMix64;

    /// The standard deterministic generator (the workspace's SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) inner: SplitMix64,
    }

    impl StdRng {
        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng {
            inner: pulse_sim::SplitMix64::new(seed),
        }
    }
}

/// Types drawable uniformly from a generator via [`RngExt::random`].
pub trait Standard: Sized {
    /// Draws one value.
    fn draw(rng: &mut rngs::StdRng) -> Self;
}

impl Standard for u64 {
    fn draw(rng: &mut rngs::StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn draw(rng: &mut rngs::StdRng) -> f64 {
        rng.inner.next_f64()
    }
}

/// Ranges drawable via [`RngExt::random_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value inside the range.
    fn sample(self, rng: &mut rngs::StdRng) -> Self::Output;
}

/// Uniform draw in `[0, bound)` via the workspace generator.
fn below(rng: &mut rngs::StdRng, bound: u64) -> u64 {
    assert!(bound > 0, "empty range");
    rng.inner.next_below(bound)
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut rngs::StdRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + below(rng, self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<u64> {
    type Output = u64;
    fn sample(self, rng: &mut rngs::StdRng) -> u64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        let span = end - start;
        if span == u64::MAX {
            return rng.next_u64();
        }
        start + below(rng, span + 1)
    }
}

/// The drawing interface, mirroring `rand::Rng`'s `random*` methods.
pub trait RngExt {
    /// Draws a value of type `T` uniformly.
    fn random<T: Standard>(&mut self) -> T;
    /// Draws a value uniformly from `range`.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output;
}

impl RngExt for rngs::StdRng {
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::StdRng;

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.random_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.random_range(5u64..=5);
            assert_eq!(y, 5);
        }
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
