//! `BENCHMARK.json` at the repository root is generated from the metric
//! table; this keeps the two from drifting apart.

use perfbench::metrics::{manifest, END_TO_END, PER_LAYER};

#[test]
fn committed_manifest_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- \
         --write-manifest BENCHMARK.json"
    );
}

#[test]
fn metric_names_are_unique_and_end_to_end_bounds_are_legal() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate metric names");
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
