//! Appendix Fig. 5: random vs partitioned allocation for distributed trees.

use pulse::{ClusterReport, Placement, PulseBuilder};
use pulse_bench::{banner, kops, us, FIGURE_WIREDTIGER_KEYS};
use pulse_ds::TreePlacement;
use pulse_workloads::{Application, BtrdbConfig, WiredTigerConfig};

fn run(app: &str, partitioned: bool) -> ClusterReport {
    let nodes = 2;
    let (placement, tree) = if partitioned {
        (Placement::Striped, TreePlacement::Partitioned { nodes })
    } else {
        (Placement::Random { seed: 77 }, TreePlacement::Policy)
    };
    let rack = PulseBuilder::new()
        .nodes(nodes)
        .placement(placement)
        .granularity(4096)
        .window(16);
    let (mut runtime, mut app): (_, Box<dyn Application>) = if app == "WiredTiger-d" {
        let (runtime, app) = rack
            .app(WiredTigerConfig {
                keys: FIGURE_WIREDTIGER_KEYS,
                placement: tree,
                ..Default::default()
            })
            .unwrap();
        (runtime, Box::new(app))
    } else {
        let (runtime, app) = rack
            .app(BtrdbConfig {
                duration_secs: 900,
                window_secs: 2,
                placement: tree,
                ..Default::default()
            })
            .unwrap();
        (runtime, Box::new(app))
    };
    for _ in 0..250 {
        runtime.submit(app.next_request()).unwrap();
    }
    runtime.drain()
}

fn main() {
    banner(
        "Appendix Fig. 5",
        "allocation policy: random vs key-partitioned trees",
    );
    println!(
        "{:<14} {:<12} | {:>10} {:>10} {:>10}",
        "workload", "policy", "lat(us)", "tput K/s", "crossings"
    );
    for app in ["WiredTiger-d", "BTrDB-d"] {
        let rand = run(app, false);
        let part = run(app, true);
        for (label, rep) in [("random", &rand), ("partitioned", &part)] {
            println!(
                "{:<14} {:<12} | {:>10} {:>10} {:>10}",
                app,
                label,
                us(rep.latency.mean),
                kops(rep.throughput),
                rep.crossings
            );
        }
        println!(
            "{:<14} random/partitioned latency = {:.1}x (paper: 3.7-10.8x)\n",
            "",
            rand.latency.mean.as_nanos_f64() / part.latency.mean.as_nanos_f64()
        );
    }
}
