//! Measurement collection: latency histograms, counters, and summaries.
//!
//! Latency distributions in the evaluation span four orders of magnitude
//! (sub-microsecond accelerator hops to near-millisecond swap-cache
//! traversals), so the histogram uses logarithmic buckets with bounded
//! relative error, in the spirit of HDR histograms.

use crate::time::SimTime;
use std::fmt;

/// Number of linear sub-buckets per power of two (~1.5% relative error).
const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6;

/// A log-bucketed histogram of `SimTime` samples.
///
/// # Examples
///
/// ```
/// use pulse_sim::{LatencyHistogram, SimTime};
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100u64 {
///     h.record(SimTime::from_micros(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((45.0..=55.0).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min: Option<SimTime>,
    max: Option<SimTime>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(ps: u64) -> usize {
        if ps < SUB_BUCKETS as u64 {
            return ps as usize;
        }
        let msb = 63 - ps.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((ps >> shift) as usize) & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let exp = (index / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << exp;
        let step = 1u64 << (exp - SUB_BITS);
        // Midpoint of the bucket keeps percentile error centered.
        base + sub * step + step / 2
    }

    /// Records one sample.
    pub fn record(&mut self, t: SimTime) {
        let ps = t.as_picos();
        let idx = Self::bucket_index(ps);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.min = Some(self.min.map_or(t, |m| m.min(t)));
        self.max = Some(self.max.map_or(t, |m| m.max(t)));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of all samples (exact, not bucketed).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_picos((self.sum_ps / self.count as u128) as u64)
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> SimTime {
        self.min.unwrap_or(SimTime::ZERO)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimTime {
        self.max.unwrap_or(SimTime::ZERO)
    }

    /// The value at or below which `p` percent of samples fall.
    ///
    /// `p` is clamped to `[0, 100]`. Returns [`SimTime::ZERO`] when empty.
    pub fn percentile(&self, p: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = quantile_rank(self.count, p);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = Self::bucket_value(idx);
                let v = v
                    .max(self.min.map_or(0, SimTime::as_picos))
                    .min(self.max.map_or(u64::MAX, SimTime::as_picos));
                return SimTime::from_picos(v);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The 99th percentile — the tail every SLO headline and every
    /// degraded-window report quotes. One definition here (over
    /// [`quantile_rank`]) serves [`LatencySummary`] and the
    /// degraded-window paths alike.
    pub fn p99(&self) -> SimTime {
        self.percentile(99.0)
    }

    /// Condensed summary (count/mean/p50/p95/p99/min/max).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.p99(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// The 1-based rank of the `p`-th percentile among `count` ordered
/// samples — the one quantile rule every percentile in the workspace
/// follows (nearest-rank, ceiling convention). `p` is clamped to
/// `[0, 100]`; the rank is clamped to `[1, count]`, so a one-sample
/// population answers that sample for every `p` and `count == 0` is the
/// caller's empty case to handle (rank 0 would index nothing).
pub fn quantile_rank(count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    rank.min(count)
}

/// A condensed latency summary, convenient for table rows. The default is
/// the summary of an empty histogram (every statistic zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimTime,
    /// Median.
    pub p50: SimTime,
    /// 95th percentile (the mid-tail the load sweeps ladder on).
    pub p95: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Minimum.
    pub min: SimTime,
    /// Maximum.
    pub max: SimTime,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} min={} max={}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.min, self.max
        )
    }
}

/// Running mean/variance over `f64` observations (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use pulse_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 when fewer than two samples).
    pub fn population_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

/// Counts an event rate over simulated time (ops, bytes, packets...).
#[derive(Debug, Clone, Copy, Default)]
pub struct RateCounter {
    total: u64,
}

impl RateCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` occurrences.
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Total occurrences so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Occurrences per simulated second over `elapsed`.
    pub fn per_second(&self, elapsed: SimTime) -> f64 {
        let s = elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total as f64 / s
        }
    }

    /// Interprets the counter as bytes and reports gigabits per second.
    pub fn gbps(&self, elapsed: SimTime) -> f64 {
        self.per_second(elapsed) * 8.0 / 1e9
    }

    /// Interprets the counter as bytes and reports gigabytes per second.
    pub fn gigabytes_per_second(&self, elapsed: SimTime) -> f64 {
        self.per_second(elapsed) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_picos(3));
        h.record(SimTime::from_picos(3));
        h.record(SimTime::from_picos(7));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min().as_picos(), 3);
        assert_eq!(h.max().as_picos(), 7);
        assert_eq!(h.percentile(50.0).as_picos(), 3);
        assert_eq!(h.percentile(100.0).as_picos(), 7);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let v = SimTime::from_micros(123);
        h.record(v);
        let got = h.percentile(50.0).as_picos() as f64;
        let want = v.as_picos() as f64;
        assert!((got - want).abs() / want < 0.02, "{got} vs {want}");
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimTime::from_nanos(i));
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        let p50_ns = p50.as_nanos_f64();
        assert!((4800.0..=5200.0).contains(&p50_ns), "p50={p50_ns}");
        let p99_ns = p99.as_nanos_f64();
        assert!((9700.0..=10_000.0).contains(&p99_ns), "p99={p99_ns}");
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_nanos(100));
        h.record(SimTime::from_nanos(300));
        assert_eq!(h.mean(), SimTime::from_nanos(200));
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimTime::from_nanos(10));
        b.record(SimTime::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimTime::from_nanos(10));
        assert_eq!(a.max(), SimTime::from_micros(10));
    }

    /// Compares a histogram against another for every summary statistic
    /// the evaluation reports.
    fn assert_same_summary(got: &LatencyHistogram, want: &LatencyHistogram, ctx: &str) {
        assert_eq!(got.count(), want.count(), "{ctx}: count");
        assert_eq!(got.mean(), want.mean(), "{ctx}: mean");
        assert_eq!(got.min(), want.min(), "{ctx}: min");
        assert_eq!(got.max(), want.max(), "{ctx}: max");
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(got.percentile(p), want.percentile(p), "{ctx}: p{p}");
        }
        assert_eq!(got.summary(), want.summary(), "{ctx}: summary");
    }

    /// Merging histograms must be indistinguishable from recording every
    /// sample into a single histogram — count, mean, min/max, and all
    /// three reported percentiles — across partitions of a sample stream
    /// spanning the full bucket range (sub-bucket picoseconds up to
    /// milliseconds).
    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = crate::rng::SplitMix64::new(0xC0FFEE);
        let samples: Vec<SimTime> = (0..4_000)
            .map(|_| {
                // Log-uniform over ~8 orders of magnitude: 1 ps .. 100 ms.
                let exp = rng.next_u64() % 38; // 2^0 .. 2^37 ns-scale picos
                SimTime::from_picos((1u64 << exp) + rng.next_u64() % (1 + (1u64 << exp)))
            })
            .collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // Several split points, including lopsided ones.
        for split in [0, 1, samples.len() / 3, samples.len() - 1, samples.len()] {
            let (left, right) = samples.split_at(split);
            let mut a = LatencyHistogram::new();
            let mut b = LatencyHistogram::new();
            for &s in left {
                a.record(s);
            }
            for &s in right {
                b.record(s);
            }
            a.merge(&b);
            assert_same_summary(&a, &whole, &format!("split at {split}"));
        }
    }

    #[test]
    fn merge_empty_cases() {
        let mut samples = LatencyHistogram::new();
        for us in [3u64, 14, 159, 2_653] {
            samples.record(SimTime::from_micros(us));
        }
        // empty ⊕ nonempty: adopts the samples wholesale.
        let mut empty_left = LatencyHistogram::new();
        empty_left.merge(&samples);
        assert_same_summary(&empty_left, &samples, "empty ⊕ nonempty");
        // nonempty ⊕ empty: a no-op.
        let mut right = samples.clone();
        right.merge(&LatencyHistogram::new());
        assert_same_summary(&right, &samples, "nonempty ⊕ empty");
        // empty ⊕ empty: still empty and still safe to query.
        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.mean(), SimTime::ZERO);
        assert_eq!(both.percentile(99.0), SimTime::ZERO);
        assert_eq!(both.min(), SimTime::ZERO);
        assert_eq!(both.max(), SimTime::ZERO);
    }

    /// The shared quantile rule at its edges: an empty population ranks
    /// nothing (callers return zero), and a one-sample population answers
    /// that sample for every percentile.
    #[test]
    fn quantile_rank_edges() {
        assert_eq!(quantile_rank(0, 50.0), 0);
        assert_eq!(quantile_rank(0, 99.0), 0);
        for p in [0.0, 0.1, 50.0, 99.0, 100.0, 250.0, -3.0] {
            assert_eq!(quantile_rank(1, p), 1, "p={p}");
        }
        assert_eq!(quantile_rank(100, 99.0), 99);
        assert_eq!(quantile_rank(100, 100.0), 100);
        assert_eq!(quantile_rank(100, 0.0), 1);
        // One-sample histogram: every percentile is the sample.
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_micros(7));
        assert_eq!(h.p99(), SimTime::from_micros(7));
        assert_eq!(h.percentile(0.0), SimTime::from_micros(7));
        assert_eq!(h.percentile(100.0), SimTime::from_micros(7));
        // Empty histogram: the quantile helper's rank-0 case maps to ZERO.
        assert_eq!(LatencyHistogram::new().p99(), SimTime::ZERO);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(99.0), SimTime::ZERO);
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn rate_counter_reports_rates() {
        let mut c = RateCounter::new();
        c.add(25_000_000_000); // 25 GB in one simulated second
        let t = SimTime::from_secs(1);
        assert!((c.gigabytes_per_second(t) - 25.0).abs() < 1e-9);
        assert!((c.gbps(t) - 200.0).abs() < 1e-9);
        assert_eq!(c.per_second(SimTime::ZERO), 0.0);
    }

    #[test]
    fn summary_display_is_nonempty() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_nanos(5));
        assert!(!h.summary().to_string().is_empty());
    }
}
