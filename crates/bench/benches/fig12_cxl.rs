//! Fig. 12: slowdown on (simulated) CXL memory with and without pulse.

use pulse::PulseBuilder;
use pulse_bench::{banner, AppKind, Deployment, Stream, FIGURE_WIREDTIGER_KEYS};
use pulse_core::{cxl_study, CxlConfig};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner("Fig. 12", "CXL slowdown vs local DRAM, w/ and w/o pulse");
    // Caches scaled as in §7: the working set dwarfs the 2 GB cache
    // (~6% ratio), and the L3 is a rounding error against GB-scale data.
    let cfg = CxlConfig {
        l3_bytes: 256 << 10,
        dram_cache_bytes: 1 << 20,
        ..CxlConfig::default()
    };
    println!(
        "{:<18} {:>6} | {:>12} {:>12} {:>12}",
        "workload", "nodes", "w/o pulse", "w/ pulse", "improvement"
    );
    for kind in [
        AppKind::WebService(YcsbWorkload::C),
        AppKind::WiredTiger {
            keys: FIGURE_WIREDTIGER_KEYS,
        },
        AppKind::Btrdb(1),
        AppKind::Btrdb(2),
        AppKind::Btrdb(4),
        AppKind::Btrdb(8),
    ] {
        for nodes in [1usize, 4] {
            let (mut runtime, reqs) = Deployment {
                rack: PulseBuilder::new().granularity(64 << 10),
                nodes,
                stream: Stream::App(kind, Distribution::Zipfian),
                requests: 200,
            }
            .pulse();
            let s = cxl_study(runtime.memory_mut(), &reqs, nodes, cfg);
            println!(
                "{:<18} {:>6} | {:>11.2}x {:>11.2}x {:>11.2}x",
                kind.label(),
                nodes,
                s.without_pulse,
                s.with_pulse,
                s.improvement()
            );
        }
    }
    println!("\npaper shape: pulse cuts CXL's slowdown by 3-5x (four nodes)");
    println!("and 4.2-5.2x (single node).");
}
