//! Fig. 2(b): % of requests crossing memory-node boundaries per allocation
//! granularity, and Fig. 2(c): the CDF of crossings per request.

use pulse_bench::banner;
use pulse_ds::{BuildCtx, TreePlacement};
use pulse_isa::Interpreter;
use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
use pulse_workloads::{
    execute_functional, Application, Btrdb, BtrdbConfig, WiredTiger, WiredTigerConfig,
    FUNCTIONAL_ITERS,
};

fn crossings(app: &str, granularity: u64) -> Vec<u64> {
    let mut mem = ClusterMemory::new(4);
    let mut alloc = ClusterAllocator::new(Placement::Striped, granularity);
    let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
    let mut out = Vec::new();
    let mut interp = Interpreter::new();
    if app == "WiredTiger" {
        let mut a = WiredTiger::build(
            &mut ctx,
            WiredTigerConfig {
                keys: 60_000,
                placement: TreePlacement::Policy,
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..300 {
            let r = a.next_request();
            out.push(
                execute_functional(&mut interp, &mut mem, &r, FUNCTIONAL_ITERS)
                    .unwrap()
                    .response
                    .node_crossings,
            );
        }
    } else {
        let mut a = Btrdb::build(
            &mut ctx,
            BtrdbConfig {
                duration_secs: 900,
                window_secs: 2,
                placement: TreePlacement::Policy,
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..300 {
            let r = a.next_request();
            out.push(
                execute_functional(&mut interp, &mut mem, &r, FUNCTIONAL_ITERS)
                    .unwrap()
                    .response
                    .node_crossings,
            );
        }
    }
    out
}

fn main() {
    banner(
        "Fig. 2(b)/(c)",
        "distributed traversals vs allocation granularity (4 memory nodes)",
    );
    // Scaled granularities; paper used 1 GB / 2 MB / 4 KB against ~32 GB
    // working sets, we use ~25 MB working sets.
    let grans: [(&str, u64); 3] = [
        ("1GB~1MB", 1 << 20),
        ("2MB~64KB", 64 << 10),
        ("4KB", 4 << 10),
    ];
    println!("Fig. 2(b): % requests with >=1 crossing (paper: WT >97%, BTrDB >75% even at 1GB)");
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "app", "granularity", ">=1 cross", "avg crossings"
    );
    let mut cdfs = Vec::new();
    for app in ["WiredTiger", "BTrDB"] {
        for (label, g) in grans {
            let xs = crossings(app, g);
            let frac = xs.iter().filter(|&&c| c > 0).count() as f64 / xs.len() as f64;
            let avg = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
            println!("{app:<12} {label:>10} {:>11.1}% {avg:>13.1}", frac * 100.0);
            cdfs.push((format!("{app}-{label}"), xs));
        }
    }
    println!("\nFig. 2(c): CDF of node crossings per request");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "series", "p25", "p50", "p75", "p90", "max"
    );
    for (label, mut xs) in cdfs {
        xs.sort_unstable();
        let q = |p: f64| xs[((xs.len() - 1) as f64 * p) as usize];
        println!(
            "{label:<22} {:>6} {:>6} {:>6} {:>6} {:>6}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            xs[xs.len() - 1]
        );
    }
    println!("\npaper shape: finer granularity => more crossings; WiredTiger's");
    println!("random keys cross more than BTrDB's time-ordered data.");
}
