//! The interpreter's decoded op form.
//!
//! [`Program::new`](crate::Program::new) lowers its validated instruction
//! stream into these ops once, and [`Interpreter`](crate::Interpreter) runs
//! only them. Decoding resolves everything the public [`Instruction`] leaves
//! to run time: the width of every scratchpad and node operand (8-byte
//! accesses get their own variants, read and written as `[u8; 8]`), the
//! sign extension of memory displacements, and immediates' bit patterns.
//! The ops are private to the crate; the builder, encoder, validator and
//! cost model all keep working on [`Instruction`].

use crate::ops::{AluOp, Cond, Operand, Place, Width};
use crate::program::Instruction;

/// A decoded value source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Imm(u64),
    Reg(u8),
    CurPtr,
    /// An 8-byte scratchpad word at this offset.
    Sp8(u16),
    /// An 8-byte node-window word at this offset.
    Node8(u16),
    /// A 1-, 2- or 4-byte scratchpad read, zero-extended.
    Sp(u16, Width),
    /// A 1-, 2- or 4-byte node-window read, zero-extended.
    Node(u16, Width),
}

/// A decoded value destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    Reg(u8),
    /// An 8-byte scratchpad word at this offset.
    Sp8(u16),
    /// A truncating 1-, 2- or 4-byte scratchpad store.
    Sp(u16, Width),
}

/// One decoded instruction. Memory displacements are pre-extended to the
/// `u64` the address arithmetic adds; jump targets are op indices, which
/// equal instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Alu {
        op: AluOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    Not {
        dst: Dst,
        a: Src,
    },
    Move {
        dst: Dst,
        src: Src,
    },
    Load {
        dst: Dst,
        base: Src,
        off: u64,
        width: Width,
    },
    Store {
        base: Src,
        off: u64,
        src: Src,
        width: Width,
    },
    Cas {
        dst: Dst,
        base: Src,
        off: u64,
        expect: Src,
        src: Src,
        width: Width,
    },
    SpecHint {
        ptr: Src,
    },
    NoSpec,
    CmpJump {
        cond: Cond,
        a: Src,
        b: Src,
        target: u32,
    },
    Jump {
        target: u32,
    },
    NextIter {
        next: Src,
    },
    Return {
        code: Src,
    },
}

fn src(op: Operand) -> Src {
    match op {
        Operand::Imm(v) => Src::Imm(v as u64),
        Operand::Reg(r) => Src::Reg(r.index()),
        Operand::CurPtr => Src::CurPtr,
        Operand::Sp {
            off,
            width: Width::B8,
        } => Src::Sp8(off),
        Operand::Node {
            off,
            width: Width::B8,
        } => Src::Node8(off),
        Operand::Sp { off, width } => Src::Sp(off, width),
        Operand::Node { off, width } => Src::Node(off, width),
    }
}

fn dst(place: Place) -> Dst {
    match place {
        Place::Reg(r) => Dst::Reg(r.index()),
        Place::Sp {
            off,
            width: Width::B8,
        } => Dst::Sp8(off),
        Place::Sp { off, width } => Dst::Sp(off, width),
    }
}

/// Decodes a validated instruction stream, one op per instruction.
pub(crate) fn decode(insns: &[Instruction]) -> Box<[Op]> {
    insns
        .iter()
        .map(|&insn| match insn {
            Instruction::Alu { op, dst: d, a, b } => Op::Alu {
                op,
                dst: dst(d),
                a: src(a),
                b: src(b),
            },
            Instruction::Not { dst: d, a } => Op::Not {
                dst: dst(d),
                a: src(a),
            },
            Instruction::Move { dst: d, src: s } => Op::Move {
                dst: dst(d),
                src: src(s),
            },
            Instruction::Load {
                dst: d,
                base,
                off,
                width,
            } => Op::Load {
                dst: dst(d),
                base: src(base),
                off: off as i64 as u64,
                width,
            },
            Instruction::Store {
                base,
                off,
                src: s,
                width,
            } => Op::Store {
                base: src(base),
                off: off as i64 as u64,
                src: src(s),
                width,
            },
            Instruction::Cas {
                dst: d,
                base,
                off,
                expect,
                src: s,
                width,
            } => Op::Cas {
                dst: dst(d),
                base: src(base),
                off: off as i64 as u64,
                expect: src(expect),
                src: src(s),
                width,
            },
            Instruction::SpecHint { ptr } => Op::SpecHint { ptr: src(ptr) },
            Instruction::NoSpec => Op::NoSpec,
            Instruction::CmpJump { cond, a, b, target } => Op::CmpJump {
                cond,
                a: src(a),
                b: src(b),
                target,
            },
            Instruction::Jump { target } => Op::Jump { target },
            Instruction::NextIter { next } => Op::NextIter { next: src(next) },
            Instruction::Return { code } => Op::Return { code: src(code) },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Reg;

    #[test]
    fn eight_byte_operands_get_their_own_variants() {
        assert_eq!(src(Operand::sp_u64(8)), Src::Sp8(8));
        assert_eq!(src(Operand::node_u64(16)), Src::Node8(16));
        assert_eq!(dst(Place::sp_u64(24)), Dst::Sp8(24));
        let narrow = Operand::Node {
            off: 3,
            width: Width::B2,
        };
        assert_eq!(src(narrow), Src::Node(3, Width::B2));
        assert_eq!(src(Operand::Imm(-1)), Src::Imm(u64::MAX));
        assert_eq!(dst(Place::Reg(Reg::new(7))), Dst::Reg(7));
    }
}
