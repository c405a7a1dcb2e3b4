//! Table 3: per-workload compute/memory ratio and iteration count.

use pulse::PulseBuilder;
use pulse_bench::{
    banner, AppKind, Deployment, Stream, DEFAULT_GRANULARITY, FIGURE_WIREDTIGER_KEYS,
};
use pulse_dispatch::DispatchEngine;
use pulse_ds::{BtrdbTree, HashMapDs, WiredTigerTree};
use pulse_workloads::{Distribution, YcsbWorkload};

fn measured_iterations(kind: AppKind) -> f64 {
    let (mut runtime, reqs) = Deployment {
        rack: PulseBuilder::new().granularity(DEFAULT_GRANULARITY),
        nodes: 1,
        stream: Stream::App(kind, Distribution::Zipfian),
        requests: 200,
    }
    .pulse();
    let mut total = 0u64;
    for r in &reqs {
        total += runtime.execute_functional(r).unwrap().response.iterations;
    }
    total as f64 / reqs.len() as f64
}

fn main() {
    banner(
        "Table 3",
        "workload characteristics: t_c/t_d and #iterations",
    );
    let engine = DispatchEngine::default();
    let rows = [
        (
            "WebService (hash)",
            HashMapDs::find_spec(),
            0.06,
            "48",
            AppKind::WebService(YcsbWorkload::C),
        ),
        (
            "WiredTiger (B+Tree)",
            WiredTigerTree::locate_spec(),
            0.63,
            "25",
            AppKind::WiredTiger {
                keys: FIGURE_WIREDTIGER_KEYS,
            },
        ),
        (
            "BTrDB 1s",
            BtrdbTree::aggregate_spec(),
            0.71,
            "38",
            AppKind::Btrdb(1),
        ),
        (
            "BTrDB 8s",
            BtrdbTree::aggregate_spec(),
            0.71,
            "227",
            AppKind::Btrdb(8),
        ),
    ];
    println!(
        "{:<20} | {:>10} {:>10} | {:>10} {:>10}",
        "workload", "tc/td", "(paper)", "iters", "(paper)"
    );
    for (name, spec, paper_ratio, paper_iters, kind) in rows {
        let c = engine.prepare(&spec).unwrap();
        let iters = measured_iterations(kind);
        println!(
            "{:<20} | {:>10.2} {:>10.2} | {:>10.1} {:>10}",
            name,
            c.analysis.ratio(),
            paper_ratio,
            iters,
            paper_iters
        );
    }
    println!("\n(tc/td is the static longest-path estimate the dispatch engine");
    println!(" gates offloads on; iterations measured over 200 requests)");
}
