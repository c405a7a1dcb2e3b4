//! Table 4: coupled (multi-core) vs pulse's disaggregated pipelines —
//! area (fitted model) and performance (simulated) per organization.

use pulse_accel::{estimate, run_closed_loop, AccelConfig, Accelerator, PipelineOrg};
use pulse_bench::banner;
use pulse_dispatch::{compile, samples};
use pulse_isa::{IterState, MemBus};
use pulse_mem::{ClusterAllocator, ClusterMemory, Perms, Placement, RangeTable};
use pulse_net::{IterPacket, IterStatus, RequestId};
use std::sync::Arc;

fn chain(len: u64) -> (ClusterMemory, u64) {
    let mut mem = ClusterMemory::new(1);
    let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
    let addrs: Vec<u64> = (0..len)
        .map(|_| alloc.alloc(&mut mem, 24).unwrap())
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_word(a, i as u64, 8).unwrap();
        mem.write_word(a + 8, i as u64, 8).unwrap();
        mem.write_word(a + 16, addrs.get(i + 1).copied().unwrap_or(0), 8)
            .unwrap();
    }
    (mem, addrs[0])
}

fn perf(org: PipelineOrg) -> (f64, f64) {
    let (mut mem, head) = chain(64);
    let prog = Arc::new(compile(&samples::hash_find_spec()).unwrap());
    let ranges: Vec<_> = mem
        .node_ranges(0)
        .iter()
        .map(|&(s, e)| (s, e, Perms::RW))
        .collect();
    let mut accel = Accelerator::new(
        AccelConfig {
            org,
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
            state.set_scratch_u64(0, 48); // WebService-like 48-hop lookup
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
        16,
    );
    (report.throughput / 1e6, report.latency.mean.as_micros_f64())
}

fn main() {
    banner("Table 4", "coupled vs disaggregated pipeline organizations");
    // (label, org, paper LUT%, paper BRAM%, paper Mops, paper lat us)
    let coupled: [(usize, f64, f64, f64, f64); 4] = [
        (1, 7.37, 7.29, 0.41, 33.25),
        (2, 10.23, 9.37, 0.63, 33.73),
        (3, 14.33, 15.92, 0.87, 34.66),
        (4, 18.55, 17.09, 1.20, 35.11),
    ];
    println!("org      (m,n) | LUT% (paper) | BRAM% (paper) | Mops  (paper) | lat us (paper)");
    for (k, plut, pbram, pm, pl) in coupled {
        let org = PipelineOrg::Coupled { cores: k };
        let a = estimate(org);
        let (tput, lat) = perf(org);
        println!(
            "coupled  ({k},{k}) | {:5.2} ({plut:5.2}) | {:5.2} ({pbram:5.2}) | {tput:5.2} ({pm:5.2}) | {lat:6.2} ({pl:5.2})",
            a.lut_pct, a.bram_pct
        );
    }
    type Row = ((usize, usize), f64, f64, f64, f64);
    let pulse: [Row; 8] = [
        ((1, 1), 5.88, 8.17, 0.51, 37.57),
        ((1, 2), 7.44, 9.14, 0.73, 36.74),
        ((1, 3), 8.32, 11.19, 1.01, 38.46),
        ((1, 4), 9.19, 12.92, 1.24, 38.37),
        ((2, 4), 15.07, 15.61, 1.19, 40.37),
        ((3, 4), 19.20, 17.47, 1.17, 44.02),
        ((4, 1), 18.67, 14.17, 0.37, 42.16),
        ((4, 4), 23.21, 19.92, 1.14, 41.47),
    ];
    for ((m, n), plut, pbram, pm, pl) in pulse {
        let org = PipelineOrg::Disaggregated {
            logic: m,
            memory: n,
        };
        let a = estimate(org);
        let (tput, lat) = perf(org);
        println!(
            "pulse    ({m},{n}) | {:5.2} ({plut:5.2}) | {:5.2} ({pbram:5.2}) | {tput:5.2} ({pm:5.2}) | {lat:6.2} ({pl:5.2})",
            a.lut_pct, a.bram_pct
        );
    }
    let p14 = estimate(PipelineOrg::Disaggregated {
        logic: 1,
        memory: 4,
    });
    let c4 = estimate(PipelineOrg::Coupled { cores: 4 });
    println!(
        "\nPareto point (1,4): combined area saving vs 4 coupled cores = {:.0}% (paper: 38%)",
        (1.0 - p14.combined() / c4.combined()) * 100.0
    );
    println!("shape: throughput grows with n and saturates; pulse matches the");
    println!("coupled design's throughput with ~1 logic pipe at less area,");
    println!("paying a small scheduling-latency premium.");
}
