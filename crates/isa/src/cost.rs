//! Instruction-timing cost model.
//!
//! §4.1: "pulse exploits the known execution time of its accelerators in
//! terms of time per compute instruction, `t_i`, to determine
//! `t_c = t_i · N`, where `N` is the number of instructions per iteration."
//!
//! Because the ISA only has forward jumps, every instruction executes at
//! most once per iteration and the program length is a sound static bound
//! for `N`. The Xeon and ARM CPU baselines price their traversal
//! instructions with [`CostModel::xeon`] and [`CostModel::arm_cortex_a72`].

use crate::interp::IterTrace;
use crate::program::Program;
use pulse_sim::SimTime;

/// Per-instruction timing for an execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Time per compute instruction (`t_i`).
    pub insn_time: SimTime,
}

impl CostModel {
    /// The PULSE accelerator's logic pipeline: 250 MHz, one instruction per
    /// cycle ⇒ 4 ns per instruction (§4.2 implementation).
    pub const fn pulse_accelerator() -> CostModel {
        CostModel {
            insn_time: SimTime::from_nanos(4),
        }
    }

    /// A server-class x86 core (Xeon Gold 6240, 2.6 GHz). The paper observes
    /// RPC latency benefits from "9× higher CPU clock rates" than the
    /// 250 MHz FPGA, i.e. ≈0.44 ns per traversal instruction once
    /// superscalar issue is folded in.
    pub const fn xeon() -> CostModel {
        CostModel {
            insn_time: SimTime::from_picos(444),
        }
    }

    /// A wimpy SmartNIC core (Bluefield-2 Cortex-A72): lower clock and
    /// narrower issue, ≈3.5× slower per instruction than the Xeon on this
    /// pointer-chasing profile.
    pub const fn arm_cortex_a72() -> CostModel {
        CostModel {
            insn_time: SimTime::from_picos(1_550),
        }
    }

    /// Static worst-case compute time for one iteration: `t_c = t_i · N`
    /// with `N` = the longest acyclic path through the program — exact for
    /// this ISA because jumps are forward-only (§4.1).
    pub fn static_iteration_cost(&self, program: &Program) -> SimTime {
        self.insn_time * program.longest_path() as u64
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

/// Divisor applied to the DRAM array-access time for each *extra* hop of a
/// same-node fused membus transaction (ISA v2 hop batching). The first hop
/// of a fused burst pays the full `t_d` (TCAM + interconnect + array +
/// serialization); follow-on hops ride the already-open channel — no TCAM
/// or interconnect crossing — and pay a fraction of the array access for
/// the extra column activation plus their own serialization.
pub const FUSED_HOP_DRAM_DIV: u64 = 4;

/// Memory-pipeline occupancy added by one extra same-node hop fused into an
/// open membus transaction (ISA v2 hop batching): `dram_access /`
/// [`FUSED_HOP_DRAM_DIV`] plus the serialization of that hop's window.
pub fn fused_hop_increment(
    dram_access: SimTime,
    window_bytes: u32,
    dram_bits_per_sec: u64,
) -> SimTime {
    dram_access / FUSED_HOP_DRAM_DIV
        + SimTime::serialization(window_bytes as u64, dram_bits_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ops::Operand;

    fn program_of_len(n: usize) -> Program {
        let mut b = ProgramBuilder::new("t", 8, 8);
        for _ in 0..n - 1 {
            b.mov(crate::ops::Reg::new(0), Operand::Imm(1));
        }
        b.ret(Operand::Imm(0));
        b.finish().unwrap()
    }

    #[test]
    fn static_cost_scales_with_length() {
        let m = CostModel::pulse_accelerator();
        assert_eq!(
            m.static_iteration_cost(&program_of_len(3)),
            SimTime::from_nanos(12)
        );
        assert_eq!(
            m.static_iteration_cost(&program_of_len(10)),
            SimTime::from_nanos(40)
        );
    }

    #[test]
    fn engines_are_ordered_by_speed() {
        let accel = CostModel::pulse_accelerator().insn_time;
        let xeon = CostModel::xeon().insn_time;
        let arm = CostModel::arm_cortex_a72().insn_time;
        assert!(xeon < arm, "xeon faster than arm");
        assert!(arm < accel, "arm faster per-insn than 250MHz pipeline");
        // The paper's "9x higher CPU clock rates" claim.
        let ratio = accel.as_picos() as f64 / xeon.as_picos() as f64;
        assert!((8.0..10.0).contains(&ratio), "xeon/accel ratio {ratio}");
    }

    #[test]
    fn fused_hop_costs_less_than_full_fetch() {
        // A fused extra hop must be strictly cheaper than a fresh t_d for
        // the same window — otherwise batching would never pay.
        let dram = SimTime::from_nanos(110);
        let bits = 25_000_000_000u64 * 8;
        let inc = fused_hop_increment(dram, 64, bits);
        let full = SimTime::from_nanos(47) // tcam
            + SimTime::from_nanos(22) // interconnect
            + dram
            + SimTime::serialization(64, bits);
        assert!(inc < full, "{inc:?} vs {full:?}");
        assert!(inc > SimTime::ZERO);
        // Serialization still scales with the window.
        assert!(fused_hop_increment(dram, 256, bits) > inc);
    }
}
