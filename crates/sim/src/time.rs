//! Simulated time.
//!
//! The simulator tracks time in integer **picoseconds** so that sub-nanosecond
//! component latencies from the paper (e.g. the 5.1 ns scheduler dispatch of
//! Fig. 10) are represented exactly and event ordering stays deterministic.
//! A `u64` of picoseconds covers roughly 213 days of simulated time, far more
//! than any experiment here needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a span; the
/// arithmetic operators treat it as a plain quantity, mirroring how hardware
/// latency budgets are summed in the paper.
///
/// # Examples
///
/// ```
/// use pulse_sim::SimTime;
///
/// let net_stack = SimTime::from_nanos_f64(426.3);
/// let scheduler = SimTime::from_nanos_f64(5.1);
/// let total = net_stack + scheduler;
/// assert!((total.as_nanos_f64() - 431.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from fractional nanoseconds (rounded to picoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Creates a time from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from fractional seconds (rounded to picoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s} s");
        SimTime((s * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (fractional).
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in microseconds (fractional).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at [`SimTime::ZERO`].
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The later of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// The time needed to move `bytes` through a pipe of `bits_per_sec`.
    ///
    /// This is the serialization-delay helper used for links and DRAM
    /// channels. Rounds up to the next picosecond so back-to-back transfers
    /// never overlap.
    pub fn serialization(bytes: u64, bits_per_sec: u64) -> SimTime {
        if bits_per_sec == 0 {
            return SimTime::MAX;
        }
        let bits = (bytes as u128) * 8;
        let ps = (bits * 1_000_000_000_000u128).div_ceil(bits_per_sec as u128);
        SimTime(ps.min(u64::MAX as u128) as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps < 1_000_000 {
            write!(f, "{:.1}ns", self.as_nanos_f64())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_nanos(7).as_picos(), 7_000);
        assert_eq!(SimTime::from_micros(3).as_picos(), 3_000_000);
        assert_eq!(SimTime::from_millis(2).as_picos(), 2_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_picos(), 1_000_000_000_000);
        assert_eq!(SimTime::from_nanos_f64(5.1).as_picos(), 5_100);
        assert_eq!(SimTime::from_secs_f64(0.5).as_picos(), 500_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a + b).as_picos(), 140_000);
        assert_eq!((a - b).as_picos(), 60_000);
        assert_eq!((a * 3).as_picos(), 300_000);
        assert_eq!((a / 4).as_picos(), 25_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn serialization_delay_100gbps() {
        // 8 KiB over a 100 Gbps link: 8192 * 8 / 100e9 s = 655.36 ns.
        let t = SimTime::serialization(8192, 100_000_000_000);
        assert!((t.as_nanos_f64() - 655.36).abs() < 0.01, "{t}");
        // Zero-rate pipe never completes.
        assert_eq!(SimTime::serialization(1, 0), SimTime::MAX);
        // Rounds up: one byte at 1 Tbps is 8 ps exactly.
        assert_eq!(SimTime::serialization(1, 1_000_000_000_000).as_picos(), 8);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_nanos(426).to_string(), "426.0ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.00us");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.00ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::ZERO.to_string(), "0ns");
    }

    #[test]
    fn sum_of_components_matches_fig10_budget() {
        let parts = [426.3, 5.1, 47.0, 22.0, 110.0, 10.0];
        let total: SimTime = parts.iter().map(|&ns| SimTime::from_nanos_f64(ns)).sum();
        assert!((total.as_nanos_f64() - 620.4).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }
}
