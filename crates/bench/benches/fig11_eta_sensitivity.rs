//! Fig. 11: performance-per-watt vs the accelerator's eta = m/n.

use pulse_accel::{run_closed_loop, AccelConfig, Accelerator, PipelineOrg};
use pulse_bench::banner;
use pulse_dispatch::{compile, samples};
use pulse_energy::perf_per_watt;
use pulse_isa::{IterState, MemBus};
use pulse_mem::{ClusterAllocator, ClusterMemory, Perms, Placement, RangeTable};
use pulse_net::{IterPacket, IterStatus, RequestId};
use std::sync::Arc;

fn main() {
    banner(
        "Fig. 11",
        "sensitivity to eta (1 logic pipe, vary memory pipes)",
    );
    // WebService's hash lookup: tc/td ~ 1/16, so perf/W keeps improving as
    // eta = 1/n approaches the workload ratio.
    let mut mem = ClusterMemory::new(1);
    let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
    let addrs: Vec<u64> = (0..64)
        .map(|_| alloc.alloc(&mut mem, 24).unwrap())
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_word(a, i as u64, 8).unwrap();
        mem.write_word(a + 16, addrs.get(i + 1).copied().unwrap_or(0), 8)
            .unwrap();
    }
    let head = addrs[0];
    let prog = Arc::new(compile(&samples::hash_find_spec()).unwrap());
    let ranges: Vec<_> = mem
        .node_ranges(0)
        .iter()
        .map(|&(s, e)| (s, e, Perms::RW))
        .collect();

    println!(
        "{:>6} {:>6} | {:>10} {:>12} {:>12}",
        "eta", "n", "Mops/s", "perf/W", "normalized"
    );
    let mut base: Option<f64> = None;
    for n in [1usize, 2, 4, 8, 16] {
        let mut accel = Accelerator::new(
            AccelConfig {
                org: PipelineOrg::Disaggregated {
                    logic: 1,
                    memory: n,
                },
                ..AccelConfig::default()
            },
            0,
            RangeTable::build(64, &ranges).unwrap(),
        );
        let report = run_closed_loop(
            &mut accel,
            &mut mem,
            |i| {
                let mut state = IterState::new(&prog, head);
                state.set_scratch_u64(0, 63);
                IterPacket {
                    id: RequestId { cpu: 0, seq: i },
                    code: prog.clone(),
                    state,
                    status: IterStatus::InFlight,
                    piggyback_bytes: 0,
                    touched: Vec::new(),
                }
            },
            400,
            2 * n + 2,
        );
        let ppw = perf_per_watt(1, n, report.throughput);
        let b = *base.get_or_insert(ppw);
        println!(
            "{:>6.3} {:>6} | {:>10.2} {:>12.0} {:>11.2}x",
            1.0 / n as f64,
            n,
            report.throughput / 1e6,
            ppw,
            ppw / b
        );
    }
    println!("\npaper shape: decreasing eta from 1 to 1/4 improves perf/W by");
    println!("~1.9x; gains continue toward the workload's tc/td (~1/16).");
}
