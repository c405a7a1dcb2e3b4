//! Knee search: the highest achieved goodput that meets the p99 SLO,
//! found by bisection over the offered rate instead of by ladder rungs.

use pulse::OpenLoopReport;
use pulse_bench::{SweepPoint, SweepReport};

/// One probed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, kilo-requests per simulated second.
    pub offered_kops: f64,
    /// Whether the rate met the SLO rule.
    pub passed: bool,
    /// Achieved goodput, kilo-requests per simulated second.
    pub goodput_kops: f64,
}

impl Probe {
    /// Judges one open-loop run by the rule of
    /// `SweepReport::max_load_under_p99`: p99 at or under `slo_p99_us`
    /// and goodput within `GOODPUT_TOLERANCE` of what the realized
    /// arrivals allowed. The rule is applied by that very method, on a
    /// one-point curve, so the two can never drift apart.
    pub fn judge(rep: &OpenLoopReport, slo_p99_us: f64) -> Probe {
        let point = SweepPoint::from_open_loop(rep);
        let goodput_kops = point.goodput_kops;
        let curve = SweepReport {
            label: "knee-probe".into(),
            points: vec![point],
        };
        Probe {
            offered_kops: rep.offered_per_sec / 1e3,
            passed: curve.max_load_under_p99(slo_p99_us).is_some(),
            goodput_kops,
        }
    }
}

/// The outcome of a knee search.
#[derive(Debug, Clone)]
pub struct Knee {
    /// Highest achieved goodput among the passing probes, kops; 0 when no
    /// probed rate passed.
    pub sustained_kops: f64,
    /// Every probe, in the order run.
    pub probes: Vec<Probe>,
}

/// Doublings (or halvings) tried while bracketing before giving up.
const MAX_BRACKET_STEPS: usize = 8;

/// Bisects the offered rate for the highest one that passes, assuming
/// pass/fail is monotone in the rate. Starts from `start_kops`, widens the
/// bracket by doubling (or halving) until it holds a passing and a failing
/// rate, then halves it until its width is at most `rel_tol` of its
/// passing end. Reports the highest achieved goodput among passing probes.
///
/// # Errors
///
/// The first error `probe` returns.
pub fn bisect<E>(
    start_kops: f64,
    rel_tol: f64,
    mut probe: impl FnMut(f64) -> Result<Probe, E>,
) -> Result<Knee, E> {
    assert!(
        start_kops > 0.0 && rel_tol > 0.0,
        "positive start and tolerance"
    );
    let mut probes = Vec::new();
    let mut run = |kops: f64, probes: &mut Vec<Probe>| -> Result<bool, E> {
        let p = probe(kops)?;
        probes.push(p);
        Ok(p.passed)
    };
    let (mut lo, mut hi) = if run(start_kops, &mut probes)? {
        let mut lo = start_kops;
        let mut hi = start_kops * 2.0;
        let mut steps = 0;
        while run(hi, &mut probes)? {
            steps += 1;
            if steps == MAX_BRACKET_STEPS {
                return Ok(knee(probes));
            }
            lo = hi;
            hi *= 2.0;
        }
        (lo, hi)
    } else {
        let mut hi = start_kops;
        let mut lo = start_kops / 2.0;
        let mut steps = 0;
        while !run(lo, &mut probes)? {
            steps += 1;
            if steps == MAX_BRACKET_STEPS {
                return Ok(knee(probes));
            }
            hi = lo;
            lo /= 2.0;
        }
        (lo, hi)
    };
    while hi - lo > rel_tol * lo {
        let mid = 0.5 * (lo + hi);
        if run(mid, &mut probes)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(knee(probes))
}

fn knee(probes: Vec<Probe>) -> Knee {
    let sustained_kops = probes
        .iter()
        .filter(|p| p.passed)
        .map(|p| p.goodput_kops)
        .fold(0.0, f64::max);
    Knee {
        sustained_kops,
        probes,
    }
}
