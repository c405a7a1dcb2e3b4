//! The parallel sweep harness's determinism contract, asserted end to
//! end: for any worker count, `sweep_par_with` must produce a `BENCH_sweep.json`
//! document byte-identical to the serial `sweep()` ladder's. Every
//! (curve, rung) pair is a closed deterministic world — its own cluster,
//! its own SplitMix64 arrival stream — so parallelism may only change
//! wall-clock, never a single emitted byte.

use pulse::workloads::Distribution;
use pulse::{PulseBuilder, YcsbWorkload};
use pulse_bench::{sweep, sweep_json, sweep_par_with, AppKind, CurveSpec, Deployment, Stream};

const LOADS: [f64; 3] = [50.0, 200.0, 800.0];
const SEED: u64 = 0xC0FFEE;
const REQUESTS: usize = 120;

/// The two curves under test: pulse over the read-only WebService stream
/// and over the YCSB-A mix, on one 2-node, 2-CPU rack.
fn curves() -> [(&'static str, Deployment); 2] {
    let at = |stream| Deployment {
        rack: PulseBuilder::new().cpus(2),
        nodes: 2,
        stream,
        requests: REQUESTS,
    };
    [
        (
            "par-pulse",
            at(Stream::App(
                AppKind::WebService(YcsbWorkload::C),
                Distribution::Zipfian,
            )),
        ),
        ("par-ycsb-a", at(Stream::Ycsb(YcsbWorkload::A))),
    ]
}

fn specs() -> Vec<CurveSpec> {
    curves()
        .into_iter()
        .map(|(label, at)| CurveSpec::new(label, &LOADS, SEED, at.factory()))
        .collect()
}

/// The serial reference: the exact ladder `sweep()` would run for the same
/// two curves, serialized with the same `sweep_json`.
fn serial_reference() -> String {
    let curves: Vec<_> = curves()
        .into_iter()
        .map(|(label, at)| sweep(label, &LOADS, SEED, at.factory()).expect("serial curve"))
        .collect();
    sweep_json(&curves)
}

#[test]
fn parallel_sweep_json_is_byte_identical_to_serial() {
    let serial = serial_reference();
    for workers in [1usize, 2, 4] {
        let par = sweep_par_with(&specs(), workers, |_| {}).expect("parallel sweep");
        let par_json = sweep_json(&par.curves);
        assert_eq!(
            par_json, serial,
            "workers={workers}: parallel sweep JSON diverged from the serial run"
        );
        assert_eq!(par.workers, workers);
    }
}

#[test]
fn parallel_sweep_reports_timings_per_rung() {
    let par = sweep_par_with(&specs(), 2, |_| {}).expect("parallel sweep");
    assert_eq!(par.timings.len(), 2);
    for (timing, spec_label) in par.timings.iter().zip(["par-pulse", "par-ycsb-a"]) {
        assert_eq!(timing.label, spec_label);
        assert_eq!(timing.rung_wall_ms.len(), LOADS.len());
        assert!(timing.sim_ops > 0, "{spec_label}: no simulated ops counted");
        assert!(timing.wall_ms > 0.0);
        assert!(timing.build_ms > 0.0 && timing.simulate_ms > 0.0);
        assert_eq!(timing.wall_ms, timing.build_ms + timing.simulate_ms);
        assert!(timing.sim_ops_per_sec() > 0.0);
    }
    assert!(par.total_wall_ms > 0.0);
}
