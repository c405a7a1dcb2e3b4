//! Binary wire encoding for programs.
//!
//! Offloaded requests carry the compiled iterator code in the packet payload
//! (§4.1 "encapsulates the ISA instructions (code) along with the initial
//! value of `cur_ptr` and `scratch_pad`"), so programs need a compact,
//! versioned byte format. The cluster simulation exchanges structured
//! packets, but their *sizes* — which drive link serialization time — come
//! from this encoding, and the decode path is exercised by the network
//! stack's parse step.

use crate::ops::{AluOp, Cond, Operand, Place, Reg, Width};
use crate::program::{Instruction, NodeWindow, Program, ProgramError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Format version byte; bump on layout changes.
const VERSION: u8 = 1;

// Instruction opcodes.
const OP_ALU: u8 = 0x01;
const OP_NOT: u8 = 0x02;
const OP_MOVE: u8 = 0x03;
const OP_LOAD: u8 = 0x04;
const OP_STORE: u8 = 0x05;
const OP_CMPJUMP: u8 = 0x06;
const OP_JUMP: u8 = 0x07;
const OP_NEXT_ITER: u8 = 0x08;
const OP_RETURN: u8 = 0x09;
const OP_CAS: u8 = 0x0A;
const OP_SPEC_HINT: u8 = 0x0B;
const OP_NO_SPEC: u8 = 0x0C;

// Operand tags.
const T_IMM: u8 = 0;
const T_REG: u8 = 1;
const T_CURPTR: u8 = 2;
const T_SP: u8 = 3;
const T_NODE: u8 = 4;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-structure.
    Truncated,
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown operand tag, register index, width code, ALU op or condition.
    BadField(&'static str, u8),
    /// The decoded program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "byte stream ended mid-structure"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            DecodeError::BadField(what, b) => write!(f, "invalid {what} value {b:#04x}"),
            DecodeError::Invalid(e) => write!(f, "decoded program invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ProgramError> for DecodeError {
    fn from(e: ProgramError) -> Self {
        DecodeError::Invalid(e)
    }
}

fn put_operand(buf: &mut BytesMut, op: Operand) {
    match op {
        Operand::Imm(v) => {
            buf.put_u8(T_IMM);
            buf.put_i64_le(v);
        }
        Operand::Reg(r) => {
            buf.put_u8(T_REG);
            buf.put_u8(r.index());
        }
        Operand::CurPtr => buf.put_u8(T_CURPTR),
        Operand::Sp { off, width } => {
            buf.put_u8(T_SP);
            buf.put_u16_le(off);
            buf.put_u8(width.to_code());
        }
        Operand::Node { off, width } => {
            buf.put_u8(T_NODE);
            buf.put_u16_le(off);
            buf.put_u8(width.to_code());
        }
    }
}

fn put_place(buf: &mut BytesMut, p: Place) {
    match p {
        Place::Reg(r) => {
            buf.put_u8(T_REG);
            buf.put_u8(r.index());
        }
        Place::Sp { off, width } => {
            buf.put_u8(T_SP);
            buf.put_u16_le(off);
            buf.put_u8(width.to_code());
        }
    }
}

// Header: version u8 + window off i32 + window len u32 + scratch u16 + count u16.
const HEADER_BYTES: usize = 13;

fn operand_wire_len(op: Operand) -> usize {
    match op {
        Operand::Imm(_) => 1 + 8,
        Operand::Reg(_) => 1 + 1,
        Operand::CurPtr => 1,
        Operand::Sp { .. } | Operand::Node { .. } => 1 + 2 + 1,
    }
}

fn place_wire_len(p: Place) -> usize {
    match p {
        Place::Reg(_) => 1 + 1,
        Place::Sp { .. } => 1 + 2 + 1,
    }
}

/// Wire size of a program holding `insns`, computed arithmetically — the
/// mirror image of [`encode_program`]'s layout, byte for byte, without
/// encoding anything. `Program::new` caches this so packet sizing on the
/// simulator's hot path never re-encodes a program just to measure it.
pub(crate) fn wire_len_of(insns: &[Instruction]) -> usize {
    let mut n = HEADER_BYTES;
    for insn in insns {
        n += match *insn {
            Instruction::Alu { dst, a, b, .. } => {
                1 + 1 + place_wire_len(dst) + operand_wire_len(a) + operand_wire_len(b)
            }
            Instruction::Not { dst, a } => 1 + place_wire_len(dst) + operand_wire_len(a),
            Instruction::Move { dst, src } => 1 + place_wire_len(dst) + operand_wire_len(src),
            Instruction::Load { dst, base, .. } => {
                1 + place_wire_len(dst) + operand_wire_len(base) + 4 + 1
            }
            Instruction::Store { base, src, .. } => {
                1 + operand_wire_len(base) + 4 + operand_wire_len(src) + 1
            }
            Instruction::Cas {
                dst,
                base,
                expect,
                src,
                ..
            } => {
                1 + place_wire_len(dst)
                    + operand_wire_len(base)
                    + 4
                    + operand_wire_len(expect)
                    + operand_wire_len(src)
                    + 1
            }
            Instruction::SpecHint { ptr } => 1 + operand_wire_len(ptr),
            Instruction::NoSpec => 1,
            Instruction::CmpJump { a, b, .. } => {
                1 + 1 + operand_wire_len(a) + operand_wire_len(b) + 4
            }
            Instruction::Jump { .. } => 1 + 4,
            Instruction::NextIter { next } => 1 + operand_wire_len(next),
            Instruction::Return { code } => 1 + operand_wire_len(code),
        };
    }
    n
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_i32_le())
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    fn width(&mut self) -> Result<Width, DecodeError> {
        let c = self.u8()?;
        Width::from_code(c).ok_or(DecodeError::BadField("width", c))
    }

    fn reg(&mut self) -> Result<Reg, DecodeError> {
        let n = self.u8()?;
        Reg::from_raw(n).ok_or(DecodeError::BadField("register", n))
    }

    fn operand(&mut self) -> Result<Operand, DecodeError> {
        let tag = self.u8()?;
        Ok(match tag {
            T_IMM => Operand::Imm(self.i64()?),
            T_REG => Operand::Reg(self.reg()?),
            T_CURPTR => Operand::CurPtr,
            T_SP => Operand::Sp {
                off: self.u16()?,
                width: self.width()?,
            },
            T_NODE => Operand::Node {
                off: self.u16()?,
                width: self.width()?,
            },
            other => return Err(DecodeError::BadField("operand tag", other)),
        })
    }

    fn place(&mut self) -> Result<Place, DecodeError> {
        let tag = self.u8()?;
        Ok(match tag {
            T_REG => Place::Reg(self.reg()?),
            T_SP => Place::Sp {
                off: self.u16()?,
                width: self.width()?,
            },
            other => return Err(DecodeError::BadField("place tag", other)),
        })
    }
}

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::And => 4,
        AluOp::Or => 5,
    }
}

fn alu_from(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::And,
        5 => AluOp::Or,
        _ => return None,
    })
}

fn cond_code(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::LtU => 2,
        Cond::LeU => 3,
        Cond::GtU => 4,
        Cond::GeU => 5,
        Cond::LtS => 6,
        Cond::LeS => 7,
        Cond::GtS => 8,
        Cond::GeS => 9,
    }
}

fn cond_from(code: u8) -> Option<Cond> {
    Some(match code {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::LtU,
        3 => Cond::LeU,
        4 => Cond::GtU,
        5 => Cond::GeU,
        6 => Cond::LtS,
        7 => Cond::LeS,
        8 => Cond::GtS,
        9 => Cond::GeS,
        _ => return None,
    })
}

/// Encodes a program to its wire bytes.
///
/// # Examples
///
/// ```
/// use pulse_isa::{encode_program, decode_program, Instruction, NodeWindow, Operand, Program};
///
/// let p = Program::new(
///     "t",
///     NodeWindow::from_start(8),
///     vec![Instruction::Return { code: Operand::Imm(0) }],
///     8,
/// )?;
/// let bytes = encode_program(&p);
/// let q = decode_program(&bytes)?;
/// assert_eq!(p.insns(), q.insns());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn encode_program(p: &Program) -> Bytes {
    let mut buf = BytesMut::with_capacity(p.wire_len());
    buf.put_u8(VERSION);
    buf.put_i32_le(p.window().off);
    buf.put_u32_le(p.window().len);
    buf.put_u16_le(p.scratch_len());
    buf.put_u16_le(p.len() as u16);
    for insn in p.insns() {
        match *insn {
            Instruction::Alu { op, dst, a, b } => {
                buf.put_u8(OP_ALU);
                buf.put_u8(alu_code(op));
                put_place(&mut buf, dst);
                put_operand(&mut buf, a);
                put_operand(&mut buf, b);
            }
            Instruction::Not { dst, a } => {
                buf.put_u8(OP_NOT);
                put_place(&mut buf, dst);
                put_operand(&mut buf, a);
            }
            Instruction::Move { dst, src } => {
                buf.put_u8(OP_MOVE);
                put_place(&mut buf, dst);
                put_operand(&mut buf, src);
            }
            Instruction::Load {
                dst,
                base,
                off,
                width,
            } => {
                buf.put_u8(OP_LOAD);
                put_place(&mut buf, dst);
                put_operand(&mut buf, base);
                buf.put_i32_le(off);
                buf.put_u8(width.to_code());
            }
            Instruction::Store {
                base,
                off,
                src,
                width,
            } => {
                buf.put_u8(OP_STORE);
                put_operand(&mut buf, base);
                buf.put_i32_le(off);
                put_operand(&mut buf, src);
                buf.put_u8(width.to_code());
            }
            Instruction::Cas {
                dst,
                base,
                off,
                expect,
                src,
                width,
            } => {
                buf.put_u8(OP_CAS);
                put_place(&mut buf, dst);
                put_operand(&mut buf, base);
                buf.put_i32_le(off);
                put_operand(&mut buf, expect);
                put_operand(&mut buf, src);
                buf.put_u8(width.to_code());
            }
            Instruction::SpecHint { ptr } => {
                buf.put_u8(OP_SPEC_HINT);
                put_operand(&mut buf, ptr);
            }
            Instruction::NoSpec => {
                buf.put_u8(OP_NO_SPEC);
            }
            Instruction::CmpJump { cond, a, b, target } => {
                buf.put_u8(OP_CMPJUMP);
                buf.put_u8(cond_code(cond));
                put_operand(&mut buf, a);
                put_operand(&mut buf, b);
                buf.put_u32_le(target);
            }
            Instruction::Jump { target } => {
                buf.put_u8(OP_JUMP);
                buf.put_u32_le(target);
            }
            Instruction::NextIter { next } => {
                buf.put_u8(OP_NEXT_ITER);
                put_operand(&mut buf, next);
            }
            Instruction::Return { code } => {
                buf.put_u8(OP_RETURN);
                put_operand(&mut buf, code);
            }
        }
    }
    buf.freeze()
}

/// Decodes and validates a program from wire bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, unknown fields, or if the
/// decoded program fails validation (the decoder never yields an unvalidated
/// program — a memory node must not execute malformed code).
pub fn decode_program(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader { buf: bytes };
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let off = r.i32()?;
    let len = r.u32()?;
    let scratch_len = r.u16()?;
    let n = r.u16()? as usize;
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        let opcode = r.u8()?;
        let insn = match opcode {
            OP_ALU => {
                let code = r.u8()?;
                let op = alu_from(code).ok_or(DecodeError::BadField("alu op", code))?;
                Instruction::Alu {
                    op,
                    dst: r.place()?,
                    a: r.operand()?,
                    b: r.operand()?,
                }
            }
            OP_NOT => Instruction::Not {
                dst: r.place()?,
                a: r.operand()?,
            },
            OP_MOVE => Instruction::Move {
                dst: r.place()?,
                src: r.operand()?,
            },
            OP_LOAD => Instruction::Load {
                dst: r.place()?,
                base: r.operand()?,
                off: r.i32()?,
                width: r.width()?,
            },
            OP_STORE => Instruction::Store {
                base: r.operand()?,
                off: r.i32()?,
                src: r.operand()?,
                width: r.width()?,
            },
            OP_CAS => Instruction::Cas {
                dst: r.place()?,
                base: r.operand()?,
                off: r.i32()?,
                expect: r.operand()?,
                src: r.operand()?,
                width: r.width()?,
            },
            OP_CMPJUMP => {
                let code = r.u8()?;
                let cond = cond_from(code).ok_or(DecodeError::BadField("condition", code))?;
                Instruction::CmpJump {
                    cond,
                    a: r.operand()?,
                    b: r.operand()?,
                    target: r.u32()?,
                }
            }
            OP_SPEC_HINT => Instruction::SpecHint { ptr: r.operand()? },
            OP_NO_SPEC => Instruction::NoSpec,
            OP_JUMP => Instruction::Jump { target: r.u32()? },
            OP_NEXT_ITER => Instruction::NextIter { next: r.operand()? },
            OP_RETURN => Instruction::Return { code: r.operand()? },
            other => return Err(DecodeError::BadOpcode(other)),
        };
        insns.push(insn);
    }
    Ok(Program::new(
        "decoded",
        NodeWindow { off, len },
        insns,
        scratch_len,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ops::Reg;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("sample", 48, 32);
        let skip = b.label();
        let out = b.label();
        b.alu(
            AluOp::Add,
            Reg::new(3),
            Operand::node_u64(0),
            Operand::Imm(-5),
        );
        b.not(Reg::new(4), Reg::new(3));
        b.mov(
            Place::Sp {
                off: 4,
                width: Width::B2,
            },
            Operand::Node {
                off: 10,
                width: Width::B1,
            },
        );
        b.load(Reg::new(5), Operand::CurPtr, -8, Width::B4);
        b.store(Reg::new(5), 16, Operand::sp_u64(8), Width::B8);
        b.cas(
            Reg::new(6),
            Operand::CurPtr,
            8,
            Operand::sp_u64(0),
            Reg::new(3),
            Width::B8,
        );
        b.spec_hint(Operand::node_u64(40));
        b.no_spec();
        b.cmp_jump(Cond::LtS, Reg::new(3), Operand::Imm(0), skip);
        b.jump(out);
        b.bind(skip);
        b.next_iter(Operand::node_u64(40));
        b.bind(out);
        b.ret(Reg::new(4));
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything_but_name() {
        let p = sample_program();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(p.insns(), q.insns());
        assert_eq!(p.window(), q.window());
        assert_eq!(p.scratch_len(), q.scratch_len());
    }

    #[test]
    fn arithmetic_len_matches_real_encode() {
        // sample_program() covers every opcode and every operand/place shape
        // (Imm, Reg, CurPtr, Sp, Node); the cached arithmetic length must
        // equal the byte count an actual encoding pass produces.
        let p = sample_program();
        assert_eq!(wire_len_of(p.insns()), encode_program(&p).len());
        assert_eq!(p.wire_len(), encode_program(&p).len());
        // And for the degenerate single-return program (header + 2 bytes).
        let q = Program::new(
            "t",
            NodeWindow::from_start(8),
            vec![Instruction::Return {
                code: Operand::Imm(0),
            }],
            0,
        )
        .unwrap();
        assert_eq!(q.wire_len(), encode_program(&q).len());
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let p = sample_program();
        let bytes = encode_program(&p);
        for cut in 0..bytes.len() {
            let err = decode_program(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_version_rejected() {
        let p = sample_program();
        let mut bytes = encode_program(&p).to_vec();
        bytes[0] = 99;
        assert_eq!(
            decode_program(&bytes).unwrap_err(),
            DecodeError::BadVersion(99)
        );
    }

    #[test]
    fn bad_opcode_rejected() {
        let p = Program::new(
            "t",
            NodeWindow::from_start(8),
            vec![Instruction::Return {
                code: Operand::Imm(0),
            }],
            0,
        )
        .unwrap();
        let mut bytes = encode_program(&p).to_vec();
        // First instruction's opcode byte is at offset 13.
        bytes[13] = 0xEE;
        assert_eq!(
            decode_program(&bytes).unwrap_err(),
            DecodeError::BadOpcode(0xEE)
        );
    }

    #[test]
    fn decoded_programs_are_validated() {
        // Encode a valid program, then corrupt a jump target to go backwards.
        let mut b = ProgramBuilder::new("t", 8, 0);
        let l = b.label();
        b.cmp_jump(Cond::Eq, Operand::Imm(0), Operand::Imm(0), l);
        b.bind(l);
        b.ret(Operand::Imm(0));
        let p = b.finish().unwrap();
        let mut bytes = encode_program(&p).to_vec();
        // CmpJump layout: opcode(1) cond(1) a(tag+i64=9) b(9) target(4).
        let target_off = bytes.len() - 4 /*target*/ - 10 /*return insn*/;
        bytes[target_off..target_off + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = decode_program(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid(_)), "{err:?}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::Truncated,
            DecodeError::BadVersion(2),
            DecodeError::BadOpcode(0xAA),
            DecodeError::BadField("width", 7),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
