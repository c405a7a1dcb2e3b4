//! Differential test of the interpreter against a reference evaluator.
//!
//! `Interpreter` runs the op form every `Program` is decoded into at
//! construction. The reference below instead walks `Program::insns()` one
//! `Instruction` at a time, reading and writing every scratchpad and node
//! operand through a byte-slice copy of its width: the plainest reading of
//! the ISA's semantics. Random programs from the shared SplitMix64
//! generator, extended with `LOAD`/`STORE`/`CAS` over a `VecMem` that
//! pointers sometimes miss, run on both side by side; after every
//! iteration the two must agree on the result (fault and faulting `pc`
//! included), every `IterTrace` field, the whole `IterState` and memory.
//! No workload runs operands narrower than 8 bytes, so this test is what
//! guards those widths.

mod common;

use common::{alu, body_insn, cond, operand, place, width, SCRATCH, WINDOW};
use pulse_isa::{
    AluOp, Fault, Instruction, Interpreter, IterOutcome, IterState, IterTrace, MemBus, NodeWindow,
    Operand, Place, Program, VecMem, Width,
};
use pulse_sim::SplitMix64;

const CASES: usize = 512;
const MAX_ITERS: u32 = 8;
const MEM_BASE: u64 = 0x1000;
const MEM_LEN: usize = 1024;

// ----------------------------------------------------------- reference

fn le(buf: &[u8], off: u16, width: Width) -> u64 {
    let (off, n) = (off as usize, width.bytes() as usize);
    let mut bytes = [0u8; 8];
    bytes[..n].copy_from_slice(&buf[off..off + n]);
    u64::from_le_bytes(bytes)
}

fn get(op: Operand, regs: &[u64; 16], st: &IterState, node: &[u8]) -> u64 {
    match op {
        Operand::Imm(v) => v as u64,
        Operand::Reg(r) => regs[r.index() as usize],
        Operand::CurPtr => st.cur_ptr,
        Operand::Sp { off, width } => le(&st.scratch, off, width),
        Operand::Node { off, width } => le(node, off, width),
    }
}

fn put(place: Place, v: u64, regs: &mut [u64; 16], st: &mut IterState) {
    match place {
        Place::Reg(r) => regs[r.index() as usize] = v,
        Place::Sp { off, width } => {
            let (off, n) = (off as usize, width.bytes() as usize);
            st.scratch[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
        }
    }
}

/// One iteration by walking `prog.insns()`.
fn reference(prog: &Program, st: &mut IterState, mem: &mut VecMem) -> Result<IterTrace, Fault> {
    let window = prog.window();
    let mut node = vec![0u8; window.len as usize];
    mem.read(st.cur_ptr.wrapping_add(window.off as i64 as u64), &mut node)?;
    let mut regs = [0u64; 16];
    let mut trace = IterTrace {
        insns_executed: 0,
        extra_loads: 0,
        stores: 0,
        store_bytes: 0,
        window_bytes: window.len,
        outcome: IterOutcome::Continue,
        spec_next: None,
        spec_inhibit: false,
    };
    let mut pc = 0u32;
    loop {
        trace.insns_executed += 1;
        let g = |op, regs: &[u64; 16], st: &IterState| get(op, regs, st, &node);
        let addr = |base, off: i32, regs: &[u64; 16], st: &IterState| {
            g(base, regs, st).wrapping_add(off as i64 as u64)
        };
        match prog.insns()[pc as usize] {
            Instruction::Alu { op, dst, a, b } => {
                let (a, b) = (g(a, &regs, st), g(b, &regs, st));
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div if b == 0 => return Err(Fault::DivideByZero { pc }),
                    AluOp::Div => a / b,
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                };
                put(dst, v, &mut regs, st);
            }
            Instruction::Not { dst, a } => put(dst, !g(a, &regs, st), &mut regs, st),
            Instruction::Move { dst, src } => put(dst, g(src, &regs, st), &mut regs, st),
            Instruction::Load {
                dst,
                base,
                off,
                width,
            } => {
                let v = mem.read_word(addr(base, off, &regs, st), width.bytes())?;
                put(dst, v, &mut regs, st);
                trace.extra_loads += 1;
            }
            Instruction::Store {
                base,
                off,
                src,
                width,
            } => {
                let a = addr(base, off, &regs, st);
                mem.write_word(a, g(src, &regs, st), width.bytes())?;
                trace.stores += 1;
                trace.store_bytes += width.bytes();
            }
            Instruction::Cas {
                dst,
                base,
                off,
                expect,
                src,
                width,
            } => {
                let a = addr(base, off, &regs, st);
                let (e, n) = (g(expect, &regs, st), g(src, &regs, st));
                let old = mem.cas_word(a, e, n, width.bytes())?;
                put(dst, old, &mut regs, st);
                trace.extra_loads += 1;
                trace.stores += 1;
                trace.store_bytes += width.bytes();
            }
            Instruction::SpecHint { ptr } => trace.spec_next = Some(g(ptr, &regs, st)),
            Instruction::NoSpec => trace.spec_inhibit = true,
            Instruction::CmpJump { cond, a, b, target } => {
                if cond.eval(g(a, &regs, st), g(b, &regs, st)) {
                    pc = target;
                    continue;
                }
            }
            Instruction::Jump { target } => {
                pc = target;
                continue;
            }
            Instruction::NextIter { next } => {
                st.cur_ptr = g(next, &regs, st);
                st.iters_done += 1;
                return Ok(trace);
            }
            Instruction::Return { code } => {
                trace.outcome = IterOutcome::Done {
                    code: g(code, &regs, st),
                };
                st.iters_done += 1;
                return Ok(trace);
            }
        }
        pc += 1;
    }
}

// ----------------------------------------------------------- generator

/// A start address for a window or an access: mostly inside the mapped
/// range, sometimes anywhere (which faults).
fn pointer(rng: &mut SplitMix64) -> u64 {
    if rng.chance(0.8) {
        MEM_BASE + rng.next_below((MEM_LEN - WINDOW as usize) as u64)
    } else {
        rng.next_u64()
    }
}

/// A pointer-valued operand: `cur_ptr`, a node or scratch word (both are
/// seeded with mostly mapped pointers), or any operand at all.
fn pointer_operand(rng: &mut SplitMix64) -> Operand {
    match rng.next_below(4) {
        0 => Operand::CurPtr,
        1 => Operand::node_u64(rng.next_below(WINDOW as u64 / 8) as u16 * 8),
        2 => Operand::sp_u64(rng.next_below(SCRATCH as u64 / 8) as u16 * 8),
        _ => operand(rng),
    }
}

/// A `LOAD`, `STORE` or `CAS` of any width. One `CAS` in three targets a
/// word of the fetched window and expects its fetched value, so swaps both
/// land and miss.
fn memory_insn(rng: &mut SplitMix64) -> Instruction {
    let base = pointer_operand(rng);
    let off = rng.next_below(32) as i32 - 16;
    let width = width(rng);
    match rng.next_below(4) {
        0 => Instruction::Load {
            dst: place(rng),
            base,
            off,
            width,
        },
        1 => Instruction::Store {
            base,
            off,
            src: operand(rng),
            width,
        },
        2 => {
            let off = rng.next_below(WINDOW as u64 / 8) as u16 * 8;
            Instruction::Cas {
                dst: place(rng),
                base: Operand::CurPtr,
                off: off as i32,
                expect: Operand::Node { off, width },
                src: operand(rng),
                width,
            }
        }
        _ => Instruction::Cas {
            dst: place(rng),
            base,
            off,
            expect: operand(rng),
            src: operand(rng),
            width,
        },
    }
}

fn terminal(rng: &mut SplitMix64) -> Instruction {
    if rng.chance(0.75) {
        Instruction::NextIter {
            next: pointer_operand(rng),
        }
    } else {
        Instruction::Return { code: operand(rng) }
    }
}

/// A valid program over the whole ISA: forward jumps to any later
/// instruction, terminals mid-stream and at the end, `DIV` among the ALU
/// ops, and memory instructions.
fn program(rng: &mut SplitMix64) -> Program {
    let n = 2 + rng.next_below(24) as usize;
    let insns: Vec<Instruction> = (0..n)
        .map(|pc| {
            let later =
                |rng: &mut SplitMix64| (pc + 1) as u32 + rng.next_below((n - pc - 1) as u64) as u32;
            match rng.next_below(20) {
                _ if pc == n - 1 => terminal(rng),
                0..=2 => Instruction::CmpJump {
                    cond: cond(rng),
                    a: operand(rng),
                    b: operand(rng),
                    target: later(rng),
                },
                3 => Instruction::Jump { target: later(rng) },
                4 => terminal(rng),
                5 | 6 => Instruction::Alu {
                    op: AluOp::Div,
                    dst: place(rng),
                    a: operand(rng),
                    b: operand(rng),
                },
                7 => Instruction::Alu {
                    op: alu(rng),
                    dst: place(rng),
                    a: operand(rng),
                    b: operand(rng),
                },
                8..=12 => memory_insn(rng),
                _ => body_insn(rng),
            }
        })
        .collect();
    Program::new("diff", NodeWindow::from_start(WINDOW), insns, SCRATCH).expect("valid")
}

/// Memory and a starting state whose words are mostly mapped pointers.
fn world(rng: &mut SplitMix64, prog: &Program) -> (VecMem, IterState) {
    let mut mem = VecMem::new(MEM_BASE, MEM_LEN);
    for off in (0..MEM_LEN as u64).step_by(8) {
        mem.write_word(MEM_BASE + off, pointer(rng), 8)
            .expect("mapped");
    }
    let mut st = IterState::new(prog, pointer(rng));
    for off in (0..SCRATCH as usize).step_by(8) {
        st.set_scratch_u64(off, pointer(rng));
    }
    (mem, st)
}

fn dump(mem: &mut VecMem) -> Vec<u8> {
    let mut bytes = vec![0; mem.len()];
    mem.read(mem.base(), &mut bytes).expect("whole range");
    bytes
}

// ----------------------------------------------------------------- test

/// How often each way an iteration can end came up, so the test fails
/// rather than passes vacuously if the generator drifts.
#[derive(Debug, Default)]
struct Seen {
    next_iter: u32,
    done: u32,
    div_by_zero: u32,
    mem_fault: u32,
    loads: u32,
    stores: u32,
    swaps: u32,
    deep: u32,
}

#[test]
fn interpreter_matches_reference_evaluator() {
    let mut rng = SplitMix64::new(0x150_0007);
    let mut interp = Interpreter::new();
    let mut seen = Seen::default();
    for case in 0..CASES {
        let prog = program(&mut rng);
        let (mut mem, mut st) = world(&mut rng, &prog);
        let (mut ref_mem, mut ref_st) = (mem.clone(), st.clone());
        for iter in 0..MAX_ITERS {
            let before = dump(&mut mem);
            let got = interp.run_iteration(&prog, &mut st, &mut mem);
            let want = reference(&prog, &mut ref_st, &mut ref_mem);
            let at = format!("case {case} iteration {iter}\n{}", prog.disassemble());
            assert_eq!(got, want, "{at}");
            assert_eq!(st, ref_st, "{at}");
            let after = dump(&mut mem);
            assert_eq!(after, dump(&mut ref_mem), "{at}");
            match got {
                Ok(trace) => {
                    seen.loads += trace.extra_loads;
                    seen.stores += trace.stores;
                    seen.swaps += u32::from(trace.stores > 0 && after != before);
                    if trace.outcome != IterOutcome::Continue {
                        seen.done += 1;
                        break;
                    }
                    seen.next_iter += 1;
                    seen.deep += u32::from(iter == 2);
                }
                Err(Fault::DivideByZero { .. }) => {
                    seen.div_by_zero += 1;
                    break;
                }
                Err(Fault::Mem(_)) => {
                    seen.mem_fault += 1;
                    break;
                }
            }
        }
    }
    for (what, n) in [
        ("NEXT_ITER", seen.next_iter),
        ("RETURN", seen.done),
        ("DIV by zero", seen.div_by_zero),
        ("memory fault", seen.mem_fault),
        ("explicit read", seen.loads),
        ("store", seen.stores),
        ("memory-changing write", seen.swaps),
        ("third iteration", seen.deep),
    ] {
        assert!(n >= 20, "only {n} x {what} over {CASES} cases: {seen:?}");
    }
}
