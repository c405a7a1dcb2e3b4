//! The metric table: every metric's name, unit, direction, time base, and
//! (for end-to-end metrics) regression bound. `BENCHMARK.json` and the
//! result line are both generated from it.

use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulator's own wall-clock: noisy, machine-dependent.
    Host,
    /// The modelled rack's simulated time (or a count over it):
    /// deterministic, repeats exactly for a seed.
    Sim,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Time base.
    pub clock: Clock,
    /// End-to-end metrics carry the share of the parent's median by which
    /// they may worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 6] = [
    e2e("sim_ops_per_s", "ops/s", Higher, Host, 0.25),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, Host, 0.2),
    e2e("p50_us", "us", Lower, Sim, 0.1),
    e2e("p99_us", "us", Lower, Sim, 0.15),
    e2e("sustained_kops", "kops", Higher, Sim, 0.15),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 42] = [
    layer("ds.build_s", "s", Lower, Host),
    layer("workloads.mint_us_per_req", "us", Lower, Host),
    layer("core.events_per_req", "count", Lower, Sim),
    layer("core.ns_per_event", "ns", Lower, Host),
    layer("core.latency_samples", "count", Higher, Sim),
    layer("sim.queue_ns", "ns", Lower, Host),
    layer("isa.ns_per_iter", "ns", Lower, Host),
    layer("net.fabric_send_ns", "ns", Lower, Host),
    layer("frontend.cache_probe_ns", "ns", Lower, Host),
    layer("baselines.ns_per_req", "ns", Lower, Host),
    layer("accel.iters_per_req", "count", Lower, Sim),
    layer("accel.memory_util", "fraction", Lower, Sim),
    layer("accel.logic_util", "fraction", Lower, Sim),
    layer("frontend.dispatch_util", "fraction", Lower, Sim),
    layer("frontend.cache_hit_rate", "fraction", Higher, Sim),
    layer("mutation.retries_per_req", "count", Lower, Sim),
    layer("mutation.update_goodput_kops", "kops", Higher, Sim),
    layer("net.crossings_per_req", "count", Lower, Sim),
    layer("net.bytes_per_req", "B", Lower, Sim),
    layer("mem.bytes_per_req", "B", Lower, Sim),
    layer("net.link_utilization", "fraction", Lower, Sim),
    layer("net.queue_depth", "count", Lower, Sim),
    layer("core.queued_mean_us", "us", Lower, Sim),
    layer("core.queued_p99_us", "us", Lower, Sim),
    layer("frontend.dispatch_mean_us", "us", Lower, Sim),
    layer("frontend.dispatch_p99_us", "us", Lower, Sim),
    layer("net.wire_mean_us", "us", Lower, Sim),
    layer("net.wire_p99_us", "us", Lower, Sim),
    layer("accel.accel_mean_us", "us", Lower, Sim),
    layer("accel.accel_p99_us", "us", Lower, Sim),
    layer("mem.mem_mean_us", "us", Lower, Sim),
    layer("mem.mem_p99_us", "us", Lower, Sim),
    layer("frontend.cache_hit_mean_us", "us", Lower, Sim),
    layer("frontend.cache_hit_p99_us", "us", Lower, Sim),
    layer("mutation.retry_mean_us", "us", Lower, Sim),
    layer("mutation.retry_p99_us", "us", Lower, Sim),
    layer("trace.overhead", "fraction", Lower, Host),
    layer("trace.spans_per_req", "count", Lower, Sim),
    layer("trace.export_s", "s", Lower, Host),
    layer("baselines.rpc_p50_us", "us", Lower, Sim),
    layer("baselines.rpc_p99_us", "us", Lower, Sim),
    layer("baselines.rpc_sustained_kops", "kops", Higher, Sim),
];

/// How long one run measures, seconds (the `run_seconds` the manifest
/// records).
pub const RUN_SECONDS: u64 = 15;

/// The command that runs one benchmark invocation from the repository
/// root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn better(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// What one run measured: metric values by name plus the correctness
/// verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Requests whose outcome the run checked.
    pub attempted: u64,
    /// Checked requests that faulted or disagreed with the oracle.
    pub failed: u64,
    /// Every problem found (empty when the run is correct).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a problem: the run is then incorrect.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line over `table`: every metric of the table, each with
    /// its unit. A metric missing from the run or not finite is a
    /// problem, reported instead of a made-up value.
    pub fn result_line(&mut self, table: &[Metric]) -> String {
        let mut fields = Vec::new();
        for m in table {
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => fields.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )),
                other => self
                    .problems
                    .push(format!("metric {} was not measured ({other:?})", m.name)),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// Human-readable lines: one per metric of `table`, with unit and time
    /// base.
    pub fn table(&self, table: &[Metric]) -> String {
        let mut out = String::new();
        for m in table {
            let clock = match m.clock {
                Host => "host",
                Sim => "sim",
            };
            match self.values.get(m.name) {
                Some(v) => {
                    let _ = writeln!(out, "  {:<32} {:>16.4} {:<8} ({clock})", m.name, v, m.unit);
                }
                None => {
                    let _ = writeln!(out, "  {:<32} {:>16} {:<8} ({clock})", m.name, "-", m.unit);
                }
            }
        }
        out
    }
}
