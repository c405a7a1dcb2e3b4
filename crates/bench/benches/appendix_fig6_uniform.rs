//! Appendix Fig. 6: application performance under the uniform distribution.

use pulse::PulseBuilder;
use pulse_bench::{
    banner, kops, paper_baselines, us, AppKind, Deployment, Side, Stream, DEFAULT_GRANULARITY,
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
            let at = |window| Deployment {
                rack: PulseBuilder::new()
                    .granularity(DEFAULT_GRANULARITY)
                    .window(window),
                nodes,
                stream: Stream::App(kind, Distribution::Uniform),
                requests: 200,
            };
            let (light, heavy) = (at(8), at(128));
            let (_, pulse) = light.execute(Side::Pulse);
            let (_, pulse_peak) = heavy.execute(Side::Pulse);
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
                let (label, rep) = light.execute(Side::Baseline(baseline.clone()));
                let (_, peak) = heavy.execute(Side::Baseline(baseline));
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
