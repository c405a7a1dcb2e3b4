//! Fig. 7: application latency & throughput for 1-4 memory nodes across the
//! five compared systems.

use pulse::{PulseBuilder, PulseMode};
use pulse_bench::{
    banner, kops, paper_baselines, us, AppKind, Deployment, Stream, DEFAULT_GRANULARITY,
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
            let at = |mode, window| Deployment {
                rack: PulseBuilder::new()
                    .granularity(DEFAULT_GRANULARITY)
                    .window(window)
                    .mode(mode),
                nodes,
                stream: Stream::App(kind, Distribution::Zipfian),
                requests,
            };
            let (_, pulse) = at(PulseMode::Pulse, 8).execute();
            let (_, pulse_peak) = at(PulseMode::Pulse, 128).execute();
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
                let (label, rep) = at(baseline, 8).execute();
                let (_, peak) = at(baseline, 128).execute();
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
