//! The SplitMix64 instruction generator shared by the ISA property tests.
//!
//! Operands and places are always in bounds for the [`Shape`] they are
//! drawn for, so every generated program passes the validator's static
//! access checks.

use pulse_isa::{AluOp, Cond, Instruction, Operand, Place, Reg, Width};
use pulse_sim::SplitMix64;

/// What a generated program's operands may reach.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Node-window length in bytes.
    pub window: u32,
    /// Scratchpad length in bytes.
    pub scratch: u16,
    /// Whether every scratchpad and node operand is 8 bytes wide, as in
    /// every workload's programs.
    pub wide: bool,
}

const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

/// An access width that fits in `room` bytes, if any does: always
/// [`Width::B8`] for a wide shape, else any of the fitting widths.
pub fn width_within(rng: &mut SplitMix64, room: u32, wide: bool) -> Option<Width> {
    if wide {
        return (room >= 8).then_some(Width::B8);
    }
    let fitting = WIDTHS.iter().filter(|w| w.bytes() <= room).count();
    (fitting > 0).then(|| WIDTHS[rng.next_below(fitting as u64) as usize])
}

/// An offset for an access of `width` in a `room`-byte buffer.
fn offset(rng: &mut SplitMix64, room: u32, width: Width) -> u16 {
    let off = rng.next_below(room as u64) as u32;
    off.min(room - width.bytes()) as u16
}

fn reg(rng: &mut SplitMix64) -> Reg {
    Reg::new(rng.next_below(16) as u8)
}

/// Any operand kind the shape has room for; a scratchpad or node operand
/// with no room left becomes a register.
pub fn operand(rng: &mut SplitMix64, shape: &Shape) -> Operand {
    match rng.next_below(5) {
        0 => Operand::Imm(rng.next_u64() as i64),
        1 => Operand::Reg(reg(rng)),
        2 => Operand::CurPtr,
        3 => match width_within(rng, shape.scratch as u32, shape.wide) {
            Some(width) => Operand::Sp {
                off: offset(rng, shape.scratch as u32, width),
                width,
            },
            None => Operand::Reg(reg(rng)),
        },
        _ => match width_within(rng, shape.window, shape.wide) {
            Some(width) => Operand::Node {
                off: offset(rng, shape.window, width),
                width,
            },
            None => Operand::Reg(reg(rng)),
        },
    }
}

/// A register or a scratchpad slot the shape has room for.
pub fn place(rng: &mut SplitMix64, shape: &Shape) -> Place {
    if rng.chance(0.5) {
        return Place::Reg(reg(rng));
    }
    match width_within(rng, shape.scratch as u32, shape.wide) {
        Some(width) => Place::Sp {
            off: offset(rng, shape.scratch as u32, width),
            width,
        },
        None => Place::Reg(reg(rng)),
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

const CONDS: [Cond; 10] = [
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
];

pub fn cond(rng: &mut SplitMix64) -> Cond {
    CONDS[rng.next_below(10) as usize]
}

/// A non-terminal, non-jump instruction that touches no memory (only a
/// zero `DIV` can fault). Includes the ISA-v2 speculation ops so the
/// encode/decode and length properties cover them.
pub fn body_insn(rng: &mut SplitMix64, shape: &Shape) -> Instruction {
    match rng.next_below(5) {
        0 => Instruction::Alu {
            op: alu(rng),
            dst: place(rng, shape),
            a: operand(rng, shape),
            b: operand(rng, shape),
        },
        1 => Instruction::Not {
            dst: place(rng, shape),
            a: operand(rng, shape),
        },
        2 => Instruction::SpecHint {
            ptr: operand(rng, shape),
        },
        3 => Instruction::NoSpec,
        _ => Instruction::Move {
            dst: place(rng, shape),
            src: operand(rng, shape),
        },
    }
}
