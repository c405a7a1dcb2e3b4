//! The repository benchmark's command line.
//!
//! ```sh
//! # one run, as the benchmark contract invokes it (last stdout line: JSON)
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ws-read --seed 42 --seconds 10 --trace 0
//! # every workload, untraced and traced, with every metric printed
//! cargo run --release --manifest-path perfbench/Cargo.toml
//! # regenerate BENCHMARK.json from the metric table
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```

use perfbench::metrics::{manifest, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS};
use perfbench::run::{traced, untraced};
use perfbench::spans::Spans;
use perfbench::workload::{Workload, DEFAULT_SEED};
use std::process::ExitCode;

/// Where span dumps land: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    write_manifest: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traces: vec![false, true],
        write_manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?} (one of {}, or all)",
                        names.join(", ")
                    )
                })?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--write-manifest" => args.write_manifest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One run: measures, prints the metric table and the result line, and
/// writes the run's spans. Returns whether the run was correct.
fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, pulse::Error> {
    let run_id = format!("{}-seed{seed}-trace{}", w.name(), u8::from(trace));
    let mut spans = Spans::new(run_id.clone());
    let mut outcome: Outcome = if trace {
        traced(w, seed, seconds, &mut spans)?
    } else {
        untraced(w, seed, seconds, &mut spans)?
    };
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = outcome.result_line(table);
    println!(
        "{run_id}: {} of {} checked requests failed",
        outcome.failed, outcome.attempted
    );
    print!("{}", outcome.table(table));
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/{run_id}.json"), spans.to_json()))
    {
        eprintln!("could not write the span dump: {e}");
    }
    println!("{line}");
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = args.write_manifest {
        return match std::fs::write(&path, manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut all_correct = true;
    for &w in &args.workloads {
        for &trace in &args.traces {
            match run_one(w, args.seed, args.seconds, trace) {
                Ok(correct) => all_correct &= correct,
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
