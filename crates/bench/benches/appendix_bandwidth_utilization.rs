//! Appendix C.1: network and memory bandwidth utilization per system.

use pulse::{PulseBuilder, RunMetrics};
use pulse_bench::{
    banner, paper_baselines, AppKind, Deployment, Side, Stream, DEFAULT_GRANULARITY,
    FIGURE_WIREDTIGER_KEYS,
};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner(
        "Appendix C.1",
        "network & memory bandwidth utilization (1-4 nodes)",
    );
    println!(
        "{:<20} {:>5} {:<12} | {:>10} {:>12}",
        "workload", "nodes", "system", "net Gbps", "mem util"
    );
    let wiredtiger = AppKind::WiredTiger {
        keys: FIGURE_WIREDTIGER_KEYS,
    };
    for kind in [AppKind::WebService(YcsbWorkload::C), wiredtiger] {
        for nodes in [1usize, 2, 4] {
            let at = Deployment {
                rack: PulseBuilder::new()
                    .granularity(DEFAULT_GRANULARITY)
                    .window(48),
                nodes,
                stream: Stream::App(kind, Distribution::Zipfian),
                requests: 300,
            };
            // Network Gbps and per-node DRAM use normalized to 25 GB/s.
            let row = |workload: &str, count: &str, label: &str, rep: RunMetrics| {
                let span = rep.makespan.as_secs_f64().max(1e-12);
                let net = rep.net_bytes as f64 * 8.0 / span / 1e9;
                let memn = rep.mem_bytes as f64 / span / nodes as f64 / 25e9;
                println!("{workload:<20} {count:>5} {label:<12} | {net:>10.2} {memn:>11.2}");
            };
            let (_, pulse) = at.execute(Side::Pulse);
            row(&kind.label(), &nodes.to_string(), "PULSE", pulse);
            for baseline in paper_baselines() {
                if baseline.label() == "Cache+RPC" {
                    continue;
                }
                let (label, rep) = at.execute(Side::Baseline(baseline));
                row("", "", label, rep);
            }
        }
        println!();
    }
    println!("paper shape: offloading systems drive high memory-node DRAM");
    println!("traffic at modest network use; the cache-based system moves");
    println!("little useful data (swap-bound). Mem util normalized to 25 GB/s.");
}
