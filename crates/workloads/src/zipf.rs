//! Key-distribution choosers: YCSB's scrambled Zipfian and uniform.
//!
//! The evaluation drives WebService and WiredTiger with "YCSB ... with Zipf
//! distribution [58]" and repeats the appendix experiments with uniform
//! keys. The Zipfian generator is the Gray et al. construction YCSB uses
//! (θ = 0.99), wrapped in an FNV scramble so popular keys scatter over the
//! keyspace instead of clustering at 0.

use rand::rngs::StdRng;
use rand::RngExt;

/// A source of keys in `[0, n)`.
pub trait KeyChooser: std::fmt::Debug {
    /// Draws the next key.
    fn next_key(&mut self, rng: &mut StdRng) -> u64;
    /// The keyspace size.
    fn keyspace(&self) -> u64;
}

/// Uniform keys over `[0, n)`.
#[derive(Debug, Clone)]
pub struct UniformChooser {
    n: u64,
}

impl UniformChooser {
    /// Creates a chooser over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty keyspace");
        UniformChooser { n }
    }
}

impl KeyChooser for UniformChooser {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        rng.random_range(0..self.n)
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// YCSB's default skew parameter.
pub const YCSB_ZIPFIAN_THETA: f64 = 0.99;

/// Zipfian keys over `[0, n)` (Gray et al.), optionally scrambled.
#[derive(Debug, Clone)]
pub struct ZipfianChooser {
    n: u64,
    /// `1 + 0.5^θ`: a scaled draw below it (and not below 1) is rank 1.
    rank1_bound: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

impl ZipfianChooser {
    /// Creates the YCSB scrambled Zipfian over `[0, n)` with θ = 0.99.
    pub fn scrambled(n: u64) -> Self {
        Self::with_theta(n, YCSB_ZIPFIAN_THETA, true)
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ ∉ (0, 1).
    pub fn with_theta(n: u64, theta: f64, scramble: bool) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianChooser {
            n,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
            scramble,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    fn raw_next(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

impl KeyChooser for ZipfianChooser {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        let raw = self.raw_next(rng.random::<f64>());
        if self.scramble {
            crate::fnv_scramble(raw) % self.n
        } else {
            raw
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Which distribution an experiment uses (the paper sweeps both; the
/// cache-sensitivity curves additionally sweep the skew itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// YCSB scrambled Zipfian, θ = 0.99.
    Zipfian,
    /// Uniform.
    Uniform,
    /// Scrambled Zipfian at a caller-chosen skew, θ = `milli`/1000 —
    /// fixed-point so the enum stays `Eq`/`Copy`. `ZipfianTheta { milli:
    /// 990 }` is [`Distribution::Zipfian`]; small values approach
    /// uniform. Must satisfy `milli < 1000`.
    ZipfianTheta {
        /// θ in thousandths, in `[0, 1000)`.
        milli: u16,
    },
}

impl Distribution {
    /// Instantiates a chooser over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Distribution::ZipfianTheta`] skew is out of range
    /// (θ must be below 1).
    pub fn chooser(self, n: u64) -> Box<dyn KeyChooser> {
        match self {
            Distribution::Zipfian => Box::new(ZipfianChooser::scrambled(n)),
            Distribution::Uniform => Box::new(UniformChooser::new(n)),
            Distribution::ZipfianTheta { milli } => {
                Box::new(ZipfianChooser::with_theta(n, milli as f64 / 1000.0, true))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = UniformChooser::new(10);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[c.next_key(&mut rng) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&x| (9_000..11_000).contains(&x)),
            "{counts:?}"
        );
    }

    #[test]
    fn unscrambled_zipfian_is_head_heavy() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = ZipfianChooser::with_theta(1000, 0.99, false);
        let mut head = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if c.next_key(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 over 1000 keys, the top-10 should absorb a large
        // fraction (~40%+) of accesses.
        let frac = head as f64 / total as f64;
        assert!(frac > 0.35, "head fraction {frac}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = ZipfianChooser::scrambled(1000);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[c.next_key(&mut rng) as usize] += 1;
        }
        // Still skewed: the most popular key dominates...
        let max = *counts.iter().max().unwrap();
        assert!(max > 5_000, "max count {max}");
        // ...but the hottest keys are not all in the low ids.
        let hot_positions: Vec<usize> = {
            let mut idx: Vec<usize> = (0..1000).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
            idx.into_iter().take(5).collect()
        };
        assert!(
            hot_positions.iter().any(|&p| p > 100),
            "hot keys scattered: {hot_positions:?}"
        );
    }

    #[test]
    fn keys_always_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for dist in [Distribution::Zipfian, Distribution::Uniform] {
            let mut c = dist.chooser(37);
            for _ in 0..10_000 {
                assert!(c.next_key(&mut rng) < 37);
            }
            assert_eq!(c.keyspace(), 37);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = ZipfianChooser::scrambled(500);
            (0..50).map(|_| c.next_key(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// θ→0 must approach the uniform distribution: over `k` buckets, a
    /// chi-square-ish statistic `Σ (obs - exp)² / exp` stays under a bound
    /// a genuinely skewed draw would blow through — multi-seed, so no
    /// particular seed is load-bearing. The cache-sensitivity curves lean
    /// on this end of the θ axis to show where caching stops helping.
    #[test]
    fn near_zero_theta_approaches_uniform() {
        let buckets = 20usize;
        let total = 60_000u64;
        let exp = total as f64 / buckets as f64;
        let mut seeds = pulse_sim::SplitMix64::new(0xCAFE);
        for _ in 0..6 {
            let seed = seeds.next_u64();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = ZipfianChooser::with_theta(1000, 0.05, false);
            let mut counts = vec![0u64; buckets];
            for _ in 0..total {
                counts[(c.next_key(&mut rng) * buckets as u64 / 1000) as usize] += 1;
            }
            let chi2: f64 = counts
                .iter()
                .map(|&o| {
                    let d = o as f64 - exp;
                    d * d / exp
                })
                .sum();
            // df = 19; the 99.9th percentile of χ²(19) is ~43.8. θ=0.05
            // retains a whiff of skew, so allow generous headroom — a
            // θ=0.99 draw scores in the tens of thousands here.
            assert!(chi2 < 400.0, "seed {seed:#x}: chi2 {chi2}");
        }
        // The same machinery through the Distribution enum.
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Distribution::ZipfianTheta { milli: 50 }.chooser(257);
        for _ in 0..1_000 {
            assert!(c.next_key(&mut rng) < 257);
        }
    }

    /// Rising θ concentrates mass: the unscrambled top-10 share must grow
    /// strictly along a θ ladder and exceed 60% by θ = 0.999 — multi-seed
    /// deterministic. The skewed end is what gives the front-end cache its
    /// hits.
    #[test]
    fn high_theta_concentrates_mass() {
        let mut seeds = pulse_sim::SplitMix64::new(0xBEEF);
        for _ in 0..4 {
            let seed = seeds.next_u64();
            let head_frac = |theta: f64| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut c = ZipfianChooser::with_theta(1000, theta, false);
                let total = 40_000;
                (0..total).filter(|_| c.next_key(&mut rng) < 10).count() as f64 / total as f64
            };
            let low = head_frac(0.2);
            let mid = head_frac(0.6);
            let high = head_frac(0.99);
            let extreme = head_frac(0.999);
            assert!(
                low < mid && mid < high && high < extreme,
                "seed {seed:#x}: head mass must grow with theta: \
                 {low} {mid} {high} {extreme}"
            );
            assert!(low < 0.10, "seed {seed:#x}: near-uniform head {low}");
            assert!(extreme > 0.40, "seed {seed:#x}: extreme head {extreme}");
        }
    }

    #[test]
    fn theta_ladder_is_deterministic_per_seed() {
        let draw = |milli: u16, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = Distribution::ZipfianTheta { milli }.chooser(500);
            (0..64).map(|_| c.next_key(&mut rng)).collect::<Vec<_>>()
        };
        for milli in [50, 500, 990] {
            assert_eq!(draw(milli, 7), draw(milli, 7), "milli {milli}");
        }
        assert_eq!(
            draw(990, 7),
            {
                let mut rng = StdRng::seed_from_u64(7);
                let mut c = Distribution::Zipfian.chooser(500);
                (0..64).map(|_| c.next_key(&mut rng)).collect::<Vec<_>>()
            },
            "milli=990 is the YCSB default"
        );
    }

    /// Zipfian skew holds across many seed cases (SplitMix64 case loop):
    /// the unscrambled head mass and the scrambled hottest-key mass both
    /// stay inside tolerance bands, so no particular seed is load-bearing
    /// for the skew the evaluation assumes.
    #[test]
    fn zipfian_skew_holds_across_seed_cases() {
        let mut seeds = pulse_sim::SplitMix64::new(0x21F0);
        for _ in 0..8 {
            let seed = seeds.next_u64();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = ZipfianChooser::with_theta(1000, 0.99, false);
            let total = 40_000;
            let head = (0..total).filter(|_| c.next_key(&mut rng) < 10).count() as f64;
            let frac = head / total as f64;
            // Theoretical top-10 mass at theta=0.99 over 1000 keys ~ 0.44.
            assert!(
                (0.35..0.55).contains(&frac),
                "seed {seed:#x}: head fraction {frac}"
            );
        }
    }
}
