//! Fig. 8: energy per operation across systems.

use pulse::{PulseBuilder, PulseMode};
use pulse_bench::{
    banner, paper_baselines, AppKind, Deployment, Stream, DEFAULT_GRANULARITY,
    FIGURE_WIREDTIGER_KEYS,
};
use pulse_energy::{energy_per_op, SystemKind};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner("Fig. 8", "energy per operation (mJ) at saturating load");
    println!(
        "{:<18} | {:>9} {:>9} {:>9} {:>9} {:>11}",
        "workload", "RPC", "RPC-ARM", "Cache+RPC", "PULSE", "PULSE-ASIC"
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
        let at = |mode| Deployment {
            rack: PulseBuilder::new()
                .granularity(DEFAULT_GRANULARITY)
                .window(128)
                .mode(mode),
            nodes: 1,
            stream: Stream::App(kind, Distribution::Zipfian),
            requests: 250,
        };
        let (_, pulse) = at(PulseMode::Pulse).execute();
        let base = paper_baselines().map(|b| at(b).execute().1);
        let (m, n) = (3, 4);
        let mj = |j: f64| j * 1e3;
        // §6.1 methodology: compare at "a request rate that ensured memory
        // bandwidth was saturated for both" — i.e. the same delivered ops/s
        // for the saturating systems; RPC-ARM and Cache+RPC are charged at
        // their own (possibly lower) achievable rates, which is exactly how
        // the wimpy cores end up costing more per op.
        let common = pulse.throughput.min(base[1].throughput);
        let e_rpc = energy_per_op(SystemKind::Rpc, common);
        let e_arm = energy_per_op(SystemKind::RpcArm, base[2].throughput.min(common));
        let e_aifm = energy_per_op(SystemKind::CacheRpc, base[3].throughput.min(common));
        let e_pulse = energy_per_op(
            SystemKind::Pulse {
                logic: m,
                memory: n,
            },
            common,
        );
        let e_asic = energy_per_op(
            SystemKind::PulseAsic {
                logic: m,
                memory: n,
            },
            common,
        );
        println!(
            "{:<18} | {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.4}",
            kind.label(),
            mj(e_rpc),
            mj(e_arm),
            mj(e_aifm),
            mj(e_pulse),
            mj(e_asic)
        );
        let save = e_rpc / e_pulse;
        let asic_save = e_pulse / e_asic;
        println!(
            "{:<18} | pulse saves {save:.1}x vs RPC (paper 4.5-5x); ASIC a further {asic_save:.1}x (paper 6.3-7x)",
            ""
        );
    }
    println!("\n(absolute mJ differ from the paper's testbed; ratios are the");
    println!(" calibrated quantity — see pulse-energy's tests)");
}
