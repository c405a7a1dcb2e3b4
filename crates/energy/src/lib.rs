//! # pulse-energy
//!
//! Power and energy accounting for the compared systems (§6.1, Fig. 8 and
//! Fig. 11). The paper measures Xilinx XRT rails for pulse, Intel RAPL for
//! the CPU systems, cycle counts + Micron's DDR4 calculator for the ARM
//! SmartNIC, and conservatively scales the FPGA accelerator to an ASIC
//! using Kuon–Rose factors. This crate reproduces those *models*: component
//! power constants composed per system, integrated over measured
//! utilization and throughput.
//!
//! Calibration targets (the paper's observed ratios, asserted in tests):
//! pulse consumes 4.5–5× less energy per operation than RPC at saturation;
//! an ASIC realization conservatively saves a further 6.3–7×; RPC-ARM can
//! exceed RPC's per-op energy due to its lengthened executions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use pulse_sim::SimTime;

/// Power draw decomposition of one system deployment, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Compute element (cores / pipelines / scheduler).
    pub compute_w: f64,
    /// DRAM devices.
    pub dram_w: f64,
    /// Fixed infrastructure (uncore, NIC/PHY, vendor IP blocks).
    pub fixed_w: f64,
}

impl PowerBreakdown {
    /// Total watts.
    pub fn total(&self) -> f64 {
        self.compute_w + self.dram_w + self.fixed_w
    }
}

/// Xeon per-core active power (W).
pub const XEON_CORE_W: f64 = 13.5;
/// Xeon uncore/package floor (W).
pub const XEON_UNCORE_W: f64 = 35.0;
/// DRAM power per memory node (W).
pub const DRAM_W: f64 = 15.0;
/// Bluefield-2 SoC power, all 8 ARM cores active (W).
pub const ARM_SOC_W: f64 = 19.0;
/// Bluefield-2 on-board DRAM (W).
pub const ARM_DRAM_W: f64 = 5.0;
/// pulse FPGA: static shell + clocking (W).
pub const FPGA_STATIC_W: f64 = 10.0;
/// pulse FPGA: 100 Gbps network stack + PHY IP (W).
pub const FPGA_NET_W: f64 = 1.5;
/// pulse FPGA: per logic pipeline (W).
pub const FPGA_LOGIC_PIPE_W: f64 = 2.8;
/// pulse FPGA: per memory pipeline incl. controller share (W).
pub const FPGA_MEM_PIPE_W: f64 = 4.6;
/// FPGA→ASIC dynamic+static power scaling (Kuon–Rose, conservative).
pub const ASIC_SCALE: f64 = 14.0;
/// Per-core dependent-pointer-chase bandwidth on a Xeon (bytes/s): a
/// ~216 B window every ~90 ns.
pub const XEON_CHASE_BYTES_PER_SEC: f64 = 2.4e9;

/// The systems Fig. 8 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// pulse on the FPGA prototype with `m` logic / `n` memory pipelines.
    Pulse {
        /// Logic pipelines.
        logic: usize,
        /// Memory pipelines.
        memory: usize,
    },
    /// Estimated ASIC realization (accelerator scaled, DRAM/IP unscaled).
    PulseAsic {
        /// Logic pipelines.
        logic: usize,
        /// Memory pipelines.
        memory: usize,
    },
    /// RPC on Xeon cores (count = minimum to saturate the 25 GB/s node).
    Rpc,
    /// RPC on the Bluefield-2's ARM cores.
    RpcArm,
    /// AIFM-style Cache+RPC (same server power as RPC plus client cache
    /// maintenance, folded into fixed).
    CacheRpc,
}

/// Cores needed to saturate `bytes_per_sec` of dependent pointer chasing —
/// the paper's "minimum number of CPU cores needed to saturate the
/// bandwidth" methodology.
pub fn xeon_cores_to_saturate(bytes_per_sec: f64) -> usize {
    (bytes_per_sec / XEON_CHASE_BYTES_PER_SEC).ceil() as usize
}

/// Power of one memory node under `kind` (Fig. 8's per-node deployment).
pub fn node_power(kind: SystemKind) -> PowerBreakdown {
    match kind {
        SystemKind::Pulse { logic, memory } => PowerBreakdown {
            compute_w: FPGA_STATIC_W
                + FPGA_LOGIC_PIPE_W * logic as f64
                + FPGA_MEM_PIPE_W * memory as f64,
            dram_w: 2.0,
            fixed_w: FPGA_NET_W,
        },
        SystemKind::PulseAsic { logic, memory } => {
            let fpga = node_power(SystemKind::Pulse { logic, memory });
            PowerBreakdown {
                // Only the accelerator proper scales; DRAM and third-party
                // IP (network/PHY) stay at FPGA-measured power (§6.1).
                compute_w: fpga.compute_w / ASIC_SCALE,
                ..fpga
            }
        }
        SystemKind::Rpc | SystemKind::CacheRpc => {
            let cores = xeon_cores_to_saturate(25e9);
            PowerBreakdown {
                compute_w: XEON_CORE_W * cores as f64,
                dram_w: DRAM_W,
                fixed_w: XEON_UNCORE_W,
            }
        }
        SystemKind::RpcArm => PowerBreakdown {
            compute_w: ARM_SOC_W,
            dram_w: ARM_DRAM_W,
            fixed_w: 3.0, // NIC data path
        },
    }
}

/// Energy per operation in joules given measured throughput (ops/s).
pub fn energy_per_op(kind: SystemKind, throughput_ops_per_sec: f64) -> f64 {
    if throughput_ops_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    node_power(kind).total() / throughput_ops_per_sec
}

/// Integrated energy over a run: power × busy time.
pub fn energy_joules(kind: SystemKind, duration: SimTime) -> f64 {
    node_power(kind).total() * duration.as_secs_f64()
}

/// Performance-per-watt for the Fig. 11 η sweep: throughput divided by the
/// pulse node's power at the given pipeline provisioning.
pub fn perf_per_watt(logic: usize, memory: usize, throughput_ops_per_sec: f64) -> f64 {
    throughput_ops_per_sec / node_power(SystemKind::Pulse { logic, memory }).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PULSE: SystemKind = SystemKind::Pulse {
        logic: 3,
        memory: 4,
    };
    const ASIC: SystemKind = SystemKind::PulseAsic {
        logic: 3,
        memory: 4,
    };

    #[test]
    fn rpc_core_count_matches_methodology() {
        // 25 GB/s of dependent chasing at ~2.4 GB/s per core => 11 cores.
        let cores = xeon_cores_to_saturate(25e9);
        assert!((10..=11).contains(&cores), "{cores}");
    }

    #[test]
    fn pulse_vs_rpc_energy_ratio_in_band() {
        // At bandwidth saturation both systems complete the same ops/s, so
        // the per-op energy ratio equals the power ratio.
        let r = node_power(SystemKind::Rpc).total() / node_power(PULSE).total();
        assert!((4.0..5.5).contains(&r), "pulse saves {r}x (paper: 4.5-5x)");
    }

    #[test]
    fn asic_scaling_in_band() {
        let r = node_power(PULSE).total() / node_power(ASIC).total();
        assert!(
            (6.0..7.4).contains(&r),
            "ASIC saves a further {r}x (paper: 6.3-7x)"
        );
        // The accelerator-core scaling itself is the Kuon-Rose factor.
        let fpga = node_power(PULSE).compute_w;
        let asic = node_power(ASIC).compute_w;
        assert!((13.0..15.0).contains(&(fpga / asic)));
    }

    #[test]
    fn arm_exceeds_rpc_energy_when_slow_enough() {
        // §6.1: RPC-ARM's longer executions can cost more energy per op
        // than Xeon RPC. With ~8x lower throughput (the WebService case)
        // the ARM node loses despite drawing ~7x less power.
        let rpc_tput = 1.0e6;
        let arm_tput = rpc_tput / 8.0;
        let e_rpc = energy_per_op(SystemKind::Rpc, rpc_tput);
        let e_arm = energy_per_op(SystemKind::RpcArm, arm_tput);
        assert!(e_arm > e_rpc, "arm {e_arm} vs rpc {e_rpc}");
        // But at mildly lower throughput the ARM wins — the crossover the
        // paper observes between applications.
        let e_arm_fast = energy_per_op(SystemKind::RpcArm, rpc_tput / 3.0);
        assert!(e_arm_fast < e_rpc);
    }

    #[test]
    fn perf_per_watt_peaks_when_eta_matches_workload() {
        // Fig. 11's mechanism, in miniature: throughput saturates at the
        // memory-pipe count while power keeps growing with logic pipes.
        let tput = |_m: usize, n: usize| (n as f64) * 5.0e6; // memory-bound
        let high_eta = perf_per_watt(4, 4, tput(4, 4));
        let low_eta = perf_per_watt(1, 4, tput(1, 4));
        assert!(
            low_eta > high_eta * 1.15,
            "shedding idle logic pipes improves perf/W: {low_eta} vs {high_eta}"
        );
    }

    #[test]
    fn energy_integrates_over_time() {
        let e = energy_joules(SystemKind::Rpc, SimTime::from_secs(2));
        let p = node_power(SystemKind::Rpc).total();
        assert!((e - 2.0 * p).abs() < 1e-9);
        assert_eq!(energy_per_op(PULSE, 0.0), f64::INFINITY);
    }

    #[test]
    fn breakdown_totals() {
        let b = node_power(PULSE);
        assert!((b.total() - (b.compute_w + b.dram_w + b.fixed_w)).abs() < 1e-12);
        assert!(b.compute_w > 0.0 && b.dram_w > 0.0 && b.fixed_w > 0.0);
    }
}
