//! Appendix C.2: memory pipelines needed to saturate the node's DRAM
//! bandwidth, with and without the vendor interconnect IP.

use pulse_accel::{run_closed_loop, AccelConfig, AccelTiming, Accelerator, PipelineOrg};
use pulse_bench::banner;
use pulse_dispatch::{compile, samples};
use pulse_isa::{IterState, MemBus};
use pulse_mem::{ClusterAllocator, ClusterMemory, Perms, Placement, RangeTable};
use pulse_net::{IterPacket, IterStatus, RequestId};
use std::sync::Arc;

fn main() {
    banner(
        "Appendix C.2",
        "memory pipelines vs DRAM bandwidth saturation",
    );
    // Low-eta linked-list walk with a 256 B window maximizes per-fetch
    // bytes (the experiment's intent: stress memory, not logic).
    let mut mem = ClusterMemory::new(1);
    let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 20);
    let addrs: Vec<u64> = (0..256)
        .map(|_| alloc.alloc(&mut mem, 256).unwrap())
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_word(a, i as u64, 8).unwrap();
        mem.write_word(a + 16, addrs.get(i + 1).copied().unwrap_or(0), 8)
            .unwrap();
    }
    let head = addrs[0];
    let spec = {
        // Widen the list-find window to a full 256 B burst.
        let mut s = samples::list_find_spec();
        s.body.insert(
            0,
            pulse_dispatch::Stmt::SetScratch {
                off: 8,
                width: pulse_isa::Width::B8,
                value: pulse_dispatch::Expr::field_u64(248),
            },
        );
        s
    };
    let prog = Arc::new(compile(&spec).unwrap());
    let ranges: Vec<_> = mem
        .node_ranges(0)
        .iter()
        .map(|&(s, e)| (s, e, Perms::RW))
        .collect();

    for (label, timing) in [
        ("with interconnect IP (25 GB/s)", AccelTiming::default()),
        (
            "w/o interconnect IP (34 GB/s)",
            AccelTiming::without_interconnect_ip(),
        ),
    ] {
        println!("\n{label}");
        println!("{:>6} | {:>10} {:>10}", "n", "GB/s", "mem util");
        for n in [1usize, 2, 3, 4] {
            let mut accel = Accelerator::new(
                AccelConfig {
                    org: PipelineOrg::Disaggregated {
                        logic: 1,
                        memory: n,
                    },
                    timing,
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
                    state.set_scratch_u64(0, 255);
                    IterPacket {
                        id: RequestId { cpu: 0, seq: i },
                        code: prog.clone(),
                        state,
                        status: IterStatus::InFlight,
                        piggyback_bytes: 0,
                        touched: Vec::new(),
                    }
                },
                200,
                2 * n + 2,
            );
            println!(
                "{n:>6} | {:>10.2} {:>10.2}",
                report.dram_bytes_per_sec / 1e9,
                report.memory_utilization
            );
        }
    }
    println!("\npaper: 2 pipelines saturate 25 GB/s; without the vendor");
    println!("interconnect IP the node peaks at 34 GB/s. Our Fig. 4-faithful");
    println!("model keeps a pipe busy for the full t_d, so bandwidth scales");
    println!("with n until the burst rate bound (documented deviation).");
}
