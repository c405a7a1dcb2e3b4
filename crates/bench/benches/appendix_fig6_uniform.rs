//! Appendix Fig. 6: application performance under the uniform distribution.

use pulse::{PulseBuilder, PulseMode};
use pulse_bench::{
    banner, kops, paper_baselines, us, AppKind, Deployment, Stream, DEFAULT_GRANULARITY,
    FIGURE_WIREDTIGER_KEYS,
};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner(
        "Appendix Fig. 6",
        "uniform-distribution latency & throughput",
    );
    println!(
        "{:<22} {:>5} | {:>10} {:>10} | {:<12}",
        "workload", "nodes", "lat(us)", "tput K/s", "system"
    );
    for kind in [
        AppKind::WebService(YcsbWorkload::A),
        AppKind::WebService(YcsbWorkload::B),
        AppKind::WebService(YcsbWorkload::C),
        AppKind::WiredTiger {
            keys: FIGURE_WIREDTIGER_KEYS,
        },
    ] {
        for nodes in [1usize, 4] {
            // Latency at light load (8 in flight), throughput at heavy load
            // (128), as in Fig. 7.
            let at = |mode, window| Deployment {
                rack: PulseBuilder::new()
                    .granularity(DEFAULT_GRANULARITY)
                    .window(window)
                    .mode(mode),
                nodes,
                stream: Stream::App(kind, Distribution::Uniform),
                requests: 200,
            };
            let (_, pulse) = at(PulseMode::Pulse, 8).execute();
            let (_, pulse_peak) = at(PulseMode::Pulse, 128).execute();
            println!(
                "{:<22} {:>5} | {:>10} {:>10} | {:<12}",
                kind.label(),
                nodes,
                us(pulse.latency.mean),
                kops(pulse_peak.throughput),
                "PULSE"
            );
            for baseline in paper_baselines() {
                if baseline.label() == "Cache+RPC"
                    && !(matches!(kind, AppKind::WebService(_)) && nodes == 1)
                {
                    continue;
                }
                let (label, rep) = at(baseline, 8).execute();
                let (_, peak) = at(baseline, 128).execute();
                println!(
                    "{:<22} {:>5} | {:>10} {:>10} | {:<12}",
                    "",
                    "",
                    us(rep.latency.mean),
                    kops(peak.throughput),
                    label
                );
            }
        }
        println!();
    }
    println!("paper shape: same ordering as Zipfian but uniformly higher");
    println!("latency (caching is ineffective); pulse comparable to RPC on");
    println!("one node and ahead distributed.");
}
