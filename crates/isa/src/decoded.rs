//! The interpreter's decoded op form and the byte frame it runs on.
//!
//! Every iteration runs on one byte frame owned by the
//! [`Interpreter`](crate::Interpreter). The frame holds, at fixed offsets,
//! the 16 registers, `cur_ptr`, the scratchpad, the fetched node window and
//! the program's immediates, so every operand of every instruction is a
//! place in the frame. [`Program::new`](crate::Program::new) lowers its
//! validated instruction stream into these ops once. Decoding resolves each
//! operand to a [`Slot`]: a frame offset tagged with its access width.
//!
//! An instruction whose frame operands are all 8 bytes wide (every
//! workload's are) gets an op of its own per ALU operation and per
//! compare-jump condition, and reads and writes each operand as one `[u8; 8]`
//! at the slot's offset. Narrower operands get their own `…N` ops, which
//! mask a read to its width and merge a write into the bytes around it.
//! Memory ops, hints and terminals read through the mask whatever their
//! width; they run at most once or twice an iteration. The ops are private
//! to the crate; the builder, encoder, validator and cost model all keep
//! working on [`Instruction`].

use crate::ops::{AluOp, Cond, Operand, Place, Width, NUM_REGS};
use crate::program::{Instruction, MAX_LOAD_BYTES, MAX_PROGRAM_LEN, MAX_SCRATCHPAD_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame offset of register `r0`; `rN` is the 8 bytes at `REGS + 8 N`.
pub(crate) const REGS: u16 = 0;
/// Frame offset of `cur_ptr`.
pub(crate) const CUR_PTR: u16 = REGS + 8 * NUM_REGS as u16;
/// Frame offset of the scratchpad.
pub(crate) const SCRATCH: u16 = CUR_PTR + 8;
/// Frame offset of the fetched node window.
pub(crate) const NODE: u16 = SCRATCH + MAX_SCRATCHPAD_BYTES;
/// Frame offset of the program's immediates, one 8-byte word each.
pub(crate) const IMMS: u16 = NODE + MAX_LOAD_BYTES as u16;
/// The most distinct immediates a valid program can name: three operands
/// (a `CAS`'s base, expected and new value) per instruction.
const MAX_IMMS: usize = 3 * MAX_PROGRAM_LEN;
/// Masks a slot to its frame offset. Every offset is below `MASK + 1`, so
/// an 8-byte access at `off & MASK` is always inside a frame of
/// [`FRAME_LEN`] bytes.
pub(crate) const MASK: u16 = (1 << 13) - 1;
/// Frame length: every offset plus room for an 8-byte access at the last.
pub(crate) const FRAME_LEN: usize = MASK as usize + 8;
const _: () = assert!(IMMS as usize + 8 * MAX_IMMS <= MASK as usize + 1);

/// An operand's place in the frame: the offset in the low 13 bits, the
/// access width's code ([`Width::to_code`]) in the top two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(u16);

impl Slot {
    const fn new(off: u16, width: Width) -> Slot {
        Slot(off | (width.to_code() as u16) << 14)
    }

    /// A register's slot.
    pub(crate) const fn reg(r: u8) -> Slot {
        Slot::new(REGS + 8 * r as u16, Width::B8)
    }

    /// `cur_ptr`'s slot.
    pub(crate) const CUR_PTR: Slot = Slot::new(CUR_PTR, Width::B8);

    /// The `i`-th immediate's slot.
    pub(crate) const fn imm(i: usize) -> Slot {
        Slot::new(IMMS + 8 * i as u16, Width::B8)
    }

    /// The frame offset.
    #[inline(always)]
    pub(crate) const fn at(self) -> usize {
        (self.0 & MASK) as usize
    }

    /// The bits of an 8-byte word at [`Slot::at`] that the access covers.
    #[inline(always)]
    pub(crate) const fn mask(self) -> u64 {
        u64::MAX >> (64 - (8 << (self.0 >> 14)))
    }

    const fn is_wide(self) -> bool {
        self.0 >> 14 == Width::B8.to_code() as u16
    }
}

/// A binary op's destination and operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bin {
    pub(crate) d: Slot,
    pub(crate) a: Slot,
    pub(crate) b: Slot,
}

/// A unary op's destination and operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Un {
    pub(crate) d: Slot,
    pub(crate) a: Slot,
}

/// A compare-jump's comparands and target op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cmp {
    pub(crate) a: Slot,
    pub(crate) b: Slot,
    pub(crate) t: u16,
}

/// One decoded instruction; jump targets are op indices, which equal
/// instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    // Every operand 8 bytes wide.
    Add(Bin),
    Sub(Bin),
    Mul(Bin),
    Div(Bin),
    And(Bin),
    Or(Bin),
    Not(Un),
    Move(Un),
    JumpEq(Cmp),
    JumpNe(Cmp),
    JumpLtU(Cmp),
    JumpLeU(Cmp),
    JumpGtU(Cmp),
    JumpGeU(Cmp),
    JumpLtS(Cmp),
    JumpLeS(Cmp),
    JumpGtS(Cmp),
    JumpGeS(Cmp),
    // Some operand narrower than 8 bytes.
    AluN(AluOp, Bin),
    NotN(Un),
    MoveN(Un),
    CmpJumpN(Cond, Cmp),
    // Any width.
    Load {
        d: Slot,
        base: Slot,
        off: i32,
        width: Width,
    },
    Store {
        base: Slot,
        off: i32,
        src: Slot,
        width: Width,
    },
    Cas {
        d: Slot,
        base: Slot,
        off: i32,
        expect: Slot,
        src: Slot,
        width: Width,
    },
    SpecHint(Slot),
    NoSpec,
    Jump(u16),
    NextIter(Slot),
    Return(Slot),
}

/// Distinguishes one decoding's immediates from every other's, so an
/// interpreter reloads them only when the program it runs changes.
static NEXT_CODE_ID: AtomicU64 = AtomicU64::new(1);

/// A program's ops and what its frame needs besides the iteration's state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Code {
    /// Shared only by clones of this decoding; 0 only before decoding.
    pub(crate) id: u64,
    pub(crate) ops: Box<[Op]>,
    /// The distinct immediates, in slot order.
    pub(crate) imms: Box<[u64]>,
    /// Bit `N` set iff the program names `rN`.
    pub(crate) regs: u16,
}

impl PartialEq for Code {
    fn eq(&self, other: &Code) -> bool {
        self.ops == other.ops && self.imms == other.imms && self.regs == other.regs
    }
}

impl Eq for Code {}

/// Gathers a program's immediates and registers while its operands are
/// resolved to slots.
#[derive(Default)]
struct Decoder {
    imms: Vec<u64>,
    regs: u16,
}

impl Decoder {
    fn src(&mut self, op: Operand) -> Slot {
        match op {
            Operand::Imm(v) => {
                let v = v as u64;
                let i = match self.imms.iter().position(|&x| x == v) {
                    Some(i) => i,
                    None => {
                        self.imms.push(v);
                        self.imms.len() - 1
                    }
                };
                Slot::imm(i)
            }
            Operand::Reg(r) => {
                self.regs |= 1 << r.index();
                Slot::reg(r.index())
            }
            Operand::CurPtr => Slot::CUR_PTR,
            Operand::Sp { off, width } => Slot::new(SCRATCH + off, width),
            Operand::Node { off, width } => Slot::new(NODE + off, width),
        }
    }

    fn dst(&mut self, place: Place) -> Slot {
        match place {
            Place::Reg(r) => self.src(Operand::Reg(r)),
            Place::Sp { off, width } => self.src(Operand::Sp { off, width }),
        }
    }
}

fn wide(slots: &[Slot]) -> bool {
    slots.iter().all(|s| s.is_wide())
}

fn alu(op: AluOp, bin: Bin) -> Op {
    if !wide(&[bin.d, bin.a, bin.b]) {
        return Op::AluN(op, bin);
    }
    match op {
        AluOp::Add => Op::Add(bin),
        AluOp::Sub => Op::Sub(bin),
        AluOp::Mul => Op::Mul(bin),
        AluOp::Div => Op::Div(bin),
        AluOp::And => Op::And(bin),
        AluOp::Or => Op::Or(bin),
    }
}

fn unary(wide_op: fn(Un) -> Op, narrow_op: fn(Un) -> Op, un: Un) -> Op {
    if wide(&[un.d, un.a]) {
        wide_op(un)
    } else {
        narrow_op(un)
    }
}

fn cmp_jump(cond: Cond, cmp: Cmp) -> Op {
    if !wide(&[cmp.a, cmp.b]) {
        return Op::CmpJumpN(cond, cmp);
    }
    match cond {
        Cond::Eq => Op::JumpEq(cmp),
        Cond::Ne => Op::JumpNe(cmp),
        Cond::LtU => Op::JumpLtU(cmp),
        Cond::LeU => Op::JumpLeU(cmp),
        Cond::GtU => Op::JumpGtU(cmp),
        Cond::GeU => Op::JumpGeU(cmp),
        Cond::LtS => Op::JumpLtS(cmp),
        Cond::LeS => Op::JumpLeS(cmp),
        Cond::GtS => Op::JumpGtS(cmp),
        Cond::GeS => Op::JumpGeS(cmp),
    }
}

/// Decodes a validated instruction stream, one op per instruction.
pub(crate) fn decode(insns: &[Instruction]) -> Code {
    let mut dec = Decoder::default();
    let ops = insns
        .iter()
        .map(|&insn| match insn {
            Instruction::Alu { op, dst, a, b } => {
                let (d, a, b) = (dec.dst(dst), dec.src(a), dec.src(b));
                alu(op, Bin { d, a, b })
            }
            Instruction::Not { dst, a } => {
                let (d, a) = (dec.dst(dst), dec.src(a));
                unary(Op::Not, Op::NotN, Un { d, a })
            }
            Instruction::Move { dst, src } => {
                let (d, a) = (dec.dst(dst), dec.src(src));
                unary(Op::Move, Op::MoveN, Un { d, a })
            }
            Instruction::Load {
                dst,
                base,
                off,
                width,
            } => Op::Load {
                d: dec.dst(dst),
                base: dec.src(base),
                off,
                width,
            },
            Instruction::Store {
                base,
                off,
                src,
                width,
            } => Op::Store {
                base: dec.src(base),
                off,
                src: dec.src(src),
                width,
            },
            Instruction::Cas {
                dst,
                base,
                off,
                expect,
                src,
                width,
            } => Op::Cas {
                d: dec.dst(dst),
                base: dec.src(base),
                off,
                expect: dec.src(expect),
                src: dec.src(src),
                width,
            },
            Instruction::SpecHint { ptr } => Op::SpecHint(dec.src(ptr)),
            Instruction::NoSpec => Op::NoSpec,
            // Validation bounds jump targets by the program length.
            Instruction::CmpJump { cond, a, b, target } => {
                let (a, b, t) = (dec.src(a), dec.src(b), target as u16);
                cmp_jump(cond, Cmp { a, b, t })
            }
            Instruction::Jump { target } => Op::Jump(target as u16),
            Instruction::NextIter { next } => Op::NextIter(dec.src(next)),
            Instruction::Return { code } => Op::Return(dec.src(code)),
        })
        .collect();
    Code {
        id: NEXT_CODE_ID.fetch_add(1, Ordering::Relaxed),
        ops,
        imms: dec.imms.into_boxed_slice(),
        regs: dec.regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Reg;

    #[test]
    fn operands_resolve_to_frame_offsets() {
        let mut dec = Decoder::default();
        let sp = dec.src(Operand::sp_u64(8));
        assert_eq!((sp.at(), sp.mask()), (SCRATCH as usize + 8, u64::MAX));
        let node = dec.src(Operand::Node {
            off: 3,
            width: Width::B2,
        });
        assert_eq!((node.at(), node.mask()), (NODE as usize + 3, 0xFFFF));
        assert!(!node.is_wide());
        assert_eq!(dec.dst(Place::Reg(Reg::new(7))).at(), 56);
        assert_eq!(dec.src(Operand::CurPtr).at(), CUR_PTR as usize);
        // Equal immediates share a slot; the bit pattern is kept.
        let imm = dec.src(Operand::Imm(-1));
        assert_eq!(dec.src(Operand::Imm(-1)), imm);
        assert_eq!(dec.src(Operand::Imm(5)).at(), IMMS as usize + 8);
        assert_eq!(dec.imms, [u64::MAX, 5]);
        assert_eq!(dec.regs, 1 << 7);
    }

    #[test]
    fn wide_instructions_get_an_op_per_operation_and_condition() {
        let (a, b) = (Operand::node_u64(0), Operand::Imm(3));
        let insns = [
            Instruction::Alu {
                op: AluOp::Sub,
                dst: Place::sp_u64(0),
                a,
                b,
            },
            Instruction::CmpJump {
                cond: Cond::GeS,
                a,
                b,
                target: 3,
            },
            Instruction::CmpJump {
                cond: Cond::GeS,
                a: Operand::Node {
                    off: 0,
                    width: Width::B4,
                },
                b,
                target: 3,
            },
            Instruction::Return { code: a },
        ];
        let code = decode(&insns);
        assert!(matches!(code.ops[0], Op::Sub(_)));
        assert!(matches!(code.ops[1], Op::JumpGeS(Cmp { t: 3, .. })));
        assert!(matches!(
            code.ops[2],
            Op::CmpJumpN(Cond::GeS, Cmp { t: 3, .. })
        ));
        assert_ne!(decode(&insns).id, code.id);
    }
}
