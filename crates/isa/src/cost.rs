//! The cost model: every latency, rate and instruction time the rack
//! charges for executing a traversal, each defined once.
//!
//! §4.1: "pulse exploits the known execution time of its accelerators in
//! terms of time per compute instruction, `t_i`, to determine
//! `t_c = t_i · N`, where `N` is the number of instructions per iteration."
//!
//! [`AccelTiming`] holds the accelerator's Fig. 10 components; the
//! dispatch engine's offload gate and the accelerator it gates both price
//! from it. [`CostModel::xeon`] and [`CostModel::arm_cortex_a72`] are the
//! CPU cores the baselines run traversals on.

use crate::interp::IterTrace;
use pulse_sim::SimTime;

/// Per-access timing of a CPU core walking a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Time per compute instruction (`t_i`).
    pub insn_time: SimTime,
    /// The core's local DRAM access latency: one dependent pointer-chase
    /// step.
    pub dram_latency: SimTime,
}

impl CostModel {
    /// A server-class x86 core (Xeon Gold 6240, 2.6 GHz). The paper observes
    /// RPC latency benefits from "9× higher CPU clock rates" than the
    /// 250 MHz FPGA, i.e. ≈0.44 ns per traversal instruction once
    /// superscalar issue is folded in.
    pub const fn xeon() -> CostModel {
        CostModel {
            insn_time: SimTime::from_picos(444),
            dram_latency: SimTime::from_nanos(90),
        }
    }

    /// A wimpy SmartNIC core (Bluefield-2 Cortex-A72): lower clock and
    /// narrower issue, ≈3.5× slower per instruction than the Xeon on this
    /// pointer-chasing profile, and a slower memory path.
    pub const fn arm_cortex_a72() -> CostModel {
        CostModel {
            insn_time: SimTime::from_picos(1_550),
            dram_latency: SimTime::from_nanos(150),
        }
    }

    /// Memory-pipeline round trips an executed iteration consumed *beyond*
    /// the coalesced window fetch: explicit `LOAD`s, `STORE`s, and both
    /// legs of every `CAS` (the interpreter books a CAS as one load plus
    /// one store). Execution engines multiply this by their per-trip memory
    /// cost — it is how the write path's extra DRAM occupancy is charged.
    pub fn extra_memory_trips(trace: &IterTrace) -> u64 {
        trace.extra_loads as u64 + trace.stores as u64
    }
}

/// Per-component timing of one pulse accelerator (Fig. 10), plus the
/// memory node's DRAM channel its memory pipelines and DMA engine share.
#[derive(Debug, Clone, Copy)]
pub struct AccelTiming {
    /// 100 Gbps network stack processing per packet, each direction
    /// (Fig. 10: 426.3 ns).
    pub net_stack: SimTime,
    /// Scheduler dispatch decision (Fig. 10: 5.1 ns).
    pub scheduler: SimTime,
    /// TCAM translation + protection (Fig. 10: 47 ns).
    pub tcam: SimTime,
    /// On-chip interconnect (Fig. 10: 22 ns).
    pub interconnect: SimTime,
    /// Memory controller + DRAM array access (Fig. 10: 110 ns).
    pub dram_access: SimTime,
    /// DRAM channel bandwidth per memory node, bytes/second (§6: capped
    /// at 25 GB/s, the FPGA's peak through the vendor interconnect IP).
    pub dram_bytes_per_sec: u64,
    /// Logic pipeline time per instruction (250 MHz, one instruction per
    /// cycle ⇒ 4 ns; §4.2 implementation).
    pub insn_time: SimTime,
}

impl Default for AccelTiming {
    fn default() -> Self {
        AccelTiming {
            net_stack: SimTime::from_nanos_f64(426.3),
            scheduler: SimTime::from_nanos_f64(5.1),
            tcam: SimTime::from_nanos(47),
            interconnect: SimTime::from_nanos(22),
            dram_access: SimTime::from_nanos(110),
            dram_bytes_per_sec: 25_000_000_000,
            insn_time: SimTime::from_nanos(4),
        }
    }
}

impl AccelTiming {
    /// The "w/o interconnect IP" variant of Appendix C.2: direct per-pipe
    /// channel wiring raises peak bandwidth to 34 GB/s.
    pub fn without_interconnect_ip() -> AccelTiming {
        AccelTiming {
            dram_bytes_per_sec: 34_000_000_000,
            interconnect: SimTime::from_nanos(8),
            ..AccelTiming::default()
        }
    }

    /// `t_d` — memory-pipeline occupancy and latency for one window fetch.
    pub fn fetch_time(&self, bytes: u32) -> SimTime {
        self.tcam
            + self.interconnect
            + self.dram_access
            + SimTime::serialization(bytes as u64, self.dram_bytes_per_sec * 8)
    }

    /// Compute time for `insns` executed instructions (`t_i · N`).
    pub fn logic_time(&self, insns: u32) -> SimTime {
        self.insn_time * insns as u64
    }

    /// Memory-pipeline occupancy added by one extra same-node hop of
    /// `window_bytes` fused into an open membus transaction (ISA v2 hop
    /// batching): `dram_access /` [`FUSED_HOP_DRAM_DIV`] plus the
    /// serialization of that hop's window.
    pub fn fused_hop_increment(&self, window_bytes: u32) -> SimTime {
        self.dram_access / FUSED_HOP_DRAM_DIV
            + SimTime::serialization(window_bytes as u64, self.dram_bytes_per_sec * 8)
    }
}

/// Divisor applied to the DRAM array-access time for each *extra* hop of a
/// same-node fused membus transaction (ISA v2 hop batching). The first hop
/// of a fused burst pays the full `t_d` (TCAM + interconnect + array +
/// serialization); follow-on hops ride the already-open channel — no TCAM
/// or interconnect crossing — and pay a fraction of the array access for
/// the extra column activation plus their own serialization.
pub const FUSED_HOP_DRAM_DIV: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ops::Operand;

    fn program_of_len(n: usize) -> crate::Program {
        let mut b = ProgramBuilder::new("t", 8, 8);
        for _ in 0..n - 1 {
            b.mov(crate::ops::Reg::new(0), Operand::Imm(1));
        }
        b.ret(Operand::Imm(0));
        b.finish().unwrap()
    }

    #[test]
    fn static_cost_scales_with_length() {
        let t = AccelTiming::default();
        let bound = |n| t.logic_time(program_of_len(n).longest_path());
        assert_eq!(bound(3), SimTime::from_nanos(12));
        assert_eq!(bound(10), SimTime::from_nanos(40));
    }

    #[test]
    fn engines_are_ordered_by_speed() {
        let accel = AccelTiming::default().insn_time;
        let (xeon, arm) = (CostModel::xeon(), CostModel::arm_cortex_a72());
        assert!(xeon.insn_time < arm.insn_time, "xeon faster than arm");
        assert!(xeon.dram_latency < arm.dram_latency, "xeon memory faster");
        assert!(
            arm.insn_time < accel,
            "arm faster per-insn than 250MHz pipeline"
        );
        // The paper's "9x higher CPU clock rates" claim.
        let ratio = accel.as_picos() as f64 / xeon.insn_time.as_picos() as f64;
        assert!((8.0..10.0).contains(&ratio), "xeon/accel ratio {ratio}");
    }

    #[test]
    fn fetch_time_composition() {
        let t = AccelTiming::default();
        // 47 + 22 + 110 + 10.24 (256 B @ 25 GB/s)
        assert!((t.fetch_time(256).as_nanos_f64() - 189.24).abs() < 0.05);
        // Smaller windows fetch faster but keep the fixed path.
        assert!(t.fetch_time(8) > SimTime::from_nanos(179));
        assert!(t.fetch_time(8) < t.fetch_time(256));
    }

    #[test]
    fn logic_time_is_4ns_per_insn() {
        let t = AccelTiming::default();
        assert_eq!(t.logic_time(3), SimTime::from_nanos(12));
    }

    #[test]
    fn no_interconnect_variant_is_faster() {
        let a = AccelTiming::default();
        let b = AccelTiming::without_interconnect_ip();
        assert!(b.fetch_time(256) < a.fetch_time(256));
        assert!(b.dram_bytes_per_sec > a.dram_bytes_per_sec);
    }

    #[test]
    fn fused_hop_costs_less_than_full_fetch() {
        // A fused extra hop must be strictly cheaper than a fresh t_d for
        // the same window — otherwise batching would never pay.
        let t = AccelTiming::default();
        let inc = t.fused_hop_increment(64);
        assert!(inc < t.fetch_time(64), "{inc:?} vs {:?}", t.fetch_time(64));
        assert!(inc > SimTime::ZERO);
        // Serialization still scales with the window.
        assert!(t.fused_hop_increment(256) > inc);
    }
}
