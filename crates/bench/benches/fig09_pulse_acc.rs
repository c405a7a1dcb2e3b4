//! Fig. 9: pulse vs pulse-acc (return-to-CPU crossings), single &
//! distributed.

use pulse::{Engine, PulseBuilder, PulseMode, RunMetrics};
use pulse_bench::{
    banner, kops, us, AppKind, Deployment, Side, Stream, DEFAULT_GRANULARITY,
    FIGURE_WIREDTIGER_KEYS,
};
use pulse_ds::TreePlacement;
use pulse_workloads::{Application, BtrdbConfig, Distribution, WiredTigerConfig, YcsbWorkload};

fn run(kind: AppKind, nodes: usize, mode: PulseMode) -> RunMetrics {
    let rack = PulseBuilder::new().nodes(nodes).mode(mode).window(16);
    // The trees use *striped* placement (Policy) over 64 KiB extents so
    // traversals genuinely cross nodes.
    let striped = rack.clone().granularity(64 << 10);
    let (mut runtime, mut app): (_, Box<dyn Application>) = match kind {
        AppKind::WiredTiger { keys } => {
            let (runtime, app) = striped
                .app(WiredTigerConfig {
                    keys,
                    placement: TreePlacement::Policy,
                    ..Default::default()
                })
                .unwrap();
            (runtime, Box::new(app))
        }
        AppKind::Btrdb(w) => {
            let (runtime, app) = striped
                .app(BtrdbConfig {
                    duration_secs: 900,
                    window_secs: w,
                    placement: TreePlacement::Policy,
                    ..Default::default()
                })
                .unwrap();
            (runtime, Box::new(app))
        }
        AppKind::WebService(_) => {
            let at = Deployment {
                rack: rack.granularity(DEFAULT_GRANULARITY),
                nodes,
                stream: Stream::App(kind, Distribution::Zipfian),
                requests: 200,
            };
            return at.execute(Side::Pulse).1;
        }
    };
    let reqs: Vec<_> = (0..200).map(|_| app.next_request()).collect();
    runtime.execute(&reqs).unwrap()
}

fn main() {
    banner(
        "Fig. 9",
        "impact of in-network distributed traversals (pulse vs pulse-acc)",
    );
    println!(
        "{:<18} {:>8} | {:>10} {:>10} {:>9} | {:>10} {:>10}",
        "workload", "setting", "pulse(us)", "acc(us)", "acc/pulse", "pulse K/s", "acc K/s"
    );
    for kind in [
        AppKind::WebService(YcsbWorkload::C),
        AppKind::WiredTiger {
            keys: FIGURE_WIREDTIGER_KEYS,
        },
        AppKind::Btrdb(1),
    ] {
        for (label, nodes) in [("single", 1usize), ("distrib", 4)] {
            let p = run(kind, nodes, PulseMode::Pulse);
            let a = run(kind, nodes, PulseMode::PulseAcc);
            println!(
                "{:<18} {:>8} | {:>10} {:>10} {:>8.2}x | {:>10} {:>10}",
                kind.label(),
                label,
                us(p.latency.mean),
                us(a.latency.mean),
                a.latency.mean.as_nanos_f64() / p.latency.mean.as_nanos_f64(),
                kops(p.throughput),
                kops(a.throughput),
            );
        }
    }
    println!();
    println!("paper shape: identical on one node; pulse-acc 1.02-1.15x higher");
    println!("latency distributed; throughput unchanged (bandwidth-bound).");
}
