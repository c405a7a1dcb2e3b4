//! The knee search: bisection to 2% on synthetic pass/fail thresholds, and
//! on the real `ws-read` rack, where it must find the knee between the
//! latency sweep's ladder rungs rather than at one.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the `ws-read` case simulates about 140k requests).

use perfbench::knee::{bisect, Probe};
use perfbench::run::pulse_knee;
use perfbench::workload::{Workload, DEFAULT_SEED};
use std::convert::Infallible;

/// A system that sustains exactly `threshold` kops: goodput tracks the
/// offered rate up to it, and every rate above it fails the SLO.
fn threshold(threshold: f64) -> impl FnMut(f64) -> Result<Probe, Infallible> {
    move |kops| {
        Ok(Probe {
            offered_kops: kops,
            passed: kops <= threshold,
            goodput_kops: kops.min(threshold),
        })
    }
}

#[test]
fn bisection_lands_within_tolerance_below_a_monotone_threshold() {
    for t in [37.0, 250.0, 999.0, 1234.5] {
        let knee = bisect(100.0, 0.02, threshold(t)).unwrap();
        assert!(
            knee.sustained_kops <= t && knee.sustained_kops >= t / 1.02,
            "threshold {t}: found {}",
            knee.sustained_kops
        );
        // Every passing probe is at or under the threshold, every failing
        // one above it: the search never misreads a probe.
        assert!(knee
            .probes
            .iter()
            .all(|p| p.passed == (p.offered_kops <= t)));
    }
}

#[test]
fn bisection_brackets_downward_when_the_start_rate_fails() {
    let knee = bisect(1000.0, 0.02, threshold(140.0)).unwrap();
    assert!((140.0 / 1.02..=140.0).contains(&knee.sustained_kops));
    assert!(!knee.probes[0].passed, "the start rate was above the knee");
}

#[test]
fn nothing_sustained_reports_zero_after_bounded_probing() {
    let knee = bisect(100.0, 0.02, threshold(0.0)).unwrap();
    assert_eq!(knee.sustained_kops, 0.0);
    assert!(knee.probes.len() <= 9, "{} probes", knee.probes.len());
}

/// A two-rung step: the sweep ladder's 800 and 1600 kops rungs straddle a
/// knee at 1000. The ladder can only answer the lower rung; bisection
/// finds the step itself.
#[test]
fn bisection_resolves_a_step_between_two_ladder_rungs() {
    let ladder = [100.0, 400.0, 800.0, 1_600.0, 3_200.0];
    let mut probe = threshold(1000.0);
    let ladder_best = ladder
        .iter()
        .map(|&k| probe(k).unwrap())
        .filter(|p| p.passed)
        .map(|p| p.goodput_kops)
        .fold(0.0, f64::max);
    assert_eq!(ladder_best, 800.0);
    let knee = bisect(600.0, 0.02, threshold(1000.0)).unwrap();
    assert!(
        (980.0..=1000.0).contains(&knee.sustained_kops),
        "bisection found {}",
        knee.sustained_kops
    );
}

/// The headline rack: the ladder reports 784 kops (its 800 rung), but the
/// SLO holds to about 1000 kops of achieved goodput.
#[test]
fn ws_read_knee_is_near_1000_kops_not_the_784_rung() {
    let knee = pulse_knee(Workload::WsRead, DEFAULT_SEED).unwrap();
    assert!(
        (950.0..=1100.0).contains(&knee.sustained_kops),
        "ws-read knee {} kops",
        knee.sustained_kops
    );
    assert!(knee.sustained_kops > 784.0 * 1.1);
    // Bisected to 2%: the tightest passing/failing pair is that close.
    let lowest_fail = knee
        .probes
        .iter()
        .filter(|p| !p.passed)
        .map(|p| p.offered_kops)
        .fold(f64::INFINITY, f64::min);
    let highest_pass = knee
        .probes
        .iter()
        .filter(|p| p.passed)
        .map(|p| p.offered_kops)
        .fold(0.0, f64::max);
    assert!(lowest_fail > highest_pass && lowest_fail <= highest_pass * 1.02);
}
