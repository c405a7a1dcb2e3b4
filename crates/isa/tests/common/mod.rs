//! The SplitMix64 instruction generator shared by the ISA property tests.
//!
//! Operands and places are always in bounds for a [`WINDOW`]-byte node
//! window and a [`SCRATCH`]-byte scratchpad, so every generated program
//! passes the validator's static access checks.

use pulse_isa::{AluOp, Cond, Instruction, Operand, Place, Reg, Width};
use pulse_sim::SplitMix64;

/// Node-window length of every generated program.
pub const WINDOW: u32 = 64;
/// Scratchpad length of every generated program.
pub const SCRATCH: u16 = 64;

pub fn width(rng: &mut SplitMix64) -> Width {
    [Width::B1, Width::B2, Width::B4, Width::B8][rng.next_below(4) as usize]
}

/// Any operand kind, at any width.
pub fn operand(rng: &mut SplitMix64) -> Operand {
    match rng.next_below(5) {
        0 => Operand::Imm(rng.next_u64() as i64),
        1 => Operand::Reg(Reg::new(rng.next_below(16) as u8)),
        2 => Operand::CurPtr,
        3 => {
            let w = width(rng);
            let off = rng.next_below(SCRATCH as u64) as u32;
            Operand::Sp {
                off: off.min(SCRATCH as u32 - w.bytes()) as u16,
                width: w,
            }
        }
        _ => {
            let w = width(rng);
            let off = rng.next_below(WINDOW as u64) as u32;
            Operand::Node {
                off: off.min(WINDOW - w.bytes()) as u16,
                width: w,
            }
        }
    }
}

/// A register or a scratchpad slot of any width.
pub fn place(rng: &mut SplitMix64) -> Place {
    if rng.chance(0.5) {
        Place::Reg(Reg::new(rng.next_below(16) as u8))
    } else {
        let w = width(rng);
        let off = rng.next_below(SCRATCH as u64) as u32;
        Place::Sp {
            off: off.min(SCRATCH as u32 - w.bytes()) as u16,
            width: w,
        }
    }
}

pub fn alu(rng: &mut SplitMix64) -> AluOp {
    [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::And,
        AluOp::Or,
    ][rng.next_below(6) as usize]
}

pub fn cond(rng: &mut SplitMix64) -> Cond {
    [
        Cond::Eq,
        Cond::Ne,
        Cond::LtU,
        Cond::LeU,
        Cond::GtU,
        Cond::GeU,
        Cond::LtS,
        Cond::LeS,
        Cond::GtS,
        Cond::GeS,
    ][rng.next_below(10) as usize]
}

/// A non-terminal, non-jump instruction that touches no memory (only a
/// zero `DIV` can fault). Includes the ISA-v2 speculation ops so the
/// encode/decode and length properties cover them.
pub fn body_insn(rng: &mut SplitMix64) -> Instruction {
    match rng.next_below(5) {
        0 => Instruction::Alu {
            op: alu(rng),
            dst: place(rng),
            a: operand(rng),
            b: operand(rng),
        },
        1 => Instruction::Not {
            dst: place(rng),
            a: operand(rng),
        },
        2 => Instruction::SpecHint { ptr: operand(rng) },
        3 => Instruction::NoSpec,
        _ => Instruction::Move {
            dst: place(rng),
            src: operand(rng),
        },
    }
}
