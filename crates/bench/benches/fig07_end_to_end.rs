//! Fig. 7: application latency & throughput for 1-4 memory nodes across the
//! five compared systems.

use pulse::PulseBuilder;
use pulse_bench::{
    banner, kops, paper_baselines, us, AppKind, Deployment, Side, Stream, DEFAULT_GRANULARITY,
    FIGURE_WIREDTIGER_KEYS,
};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner(
        "Fig. 7",
        "end-to-end latency & throughput, 5 systems x 8 workloads x 1-4 nodes",
    );
    let cells = [
        AppKind::WebService(YcsbWorkload::A),
        AppKind::WebService(YcsbWorkload::B),
        AppKind::WebService(YcsbWorkload::C),
        AppKind::WiredTiger {
            keys: FIGURE_WIREDTIGER_KEYS,
        },
        AppKind::Btrdb(1),
        AppKind::Btrdb(2),
        AppKind::Btrdb(4),
        AppKind::Btrdb(8),
    ];
    let requests = 200;
    println!(
        "{:<22} {:>5} | {:>10} {:>10} | {:>10} {:>10}",
        "workload", "nodes", "lat(us)", "tput(K/s)", "system", "vs pulse"
    );
    for kind in cells {
        for nodes in 1..=4usize {
            // Latency at light load (8 in flight), throughput at heavy load
            // (128), as the paper's closed-loop clients measure them.
            let at = |window| Deployment {
                rack: PulseBuilder::new()
                    .granularity(DEFAULT_GRANULARITY)
                    .window(window),
                nodes,
                stream: Stream::App(kind, Distribution::Zipfian),
                requests,
            };
            let (light, heavy) = (at(8), at(128));
            let (_, pulse) = light.execute(Side::Pulse);
            let (_, pulse_peak) = heavy.execute(Side::Pulse);
            println!(
                "{:<22} {:>5} | {:>10} {:>10} | {:>10} {:>10}",
                kind.label(),
                nodes,
                us(pulse.latency.mean),
                kops(pulse_peak.throughput),
                "PULSE",
                "1.00x"
            );
            for baseline in paper_baselines() {
                // Cache+RPC only exists for single-node WebService (§6.1).
                if baseline.label() == "Cache+RPC"
                    && !(matches!(kind, AppKind::WebService(_)) && nodes == 1)
                {
                    continue;
                }
                let (label, rep) = light.execute(Side::Baseline(baseline.clone()));
                let (_, peak) = heavy.execute(Side::Baseline(baseline));
                let ratio = rep.latency.mean.as_nanos_f64() / pulse.latency.mean.as_nanos_f64();
                println!(
                    "{:<22} {:>5} | {:>10} {:>10} | {:>10} {:>9.2}x",
                    "",
                    "",
                    us(rep.latency.mean),
                    kops(peak.throughput),
                    label,
                    ratio
                );
            }
        }
        println!();
    }
    println!("paper shape: cache-based 9-34x slower than pulse; RPC 1-1.4x");
    println!("faster single-node; pulse wins distributed; throughput grows");
    println!("with node count (WebService partitioned by key).");
}
