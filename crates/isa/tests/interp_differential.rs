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
//!
//! Programs come in three families: any operand width (no workload runs
//! operands narrower than 8 bytes, so this test is what guards those
//! widths), every operand 8 bytes wide (as in every workload), and long
//! programs with hundreds of distinct immediates, up to
//! [`MAX_PROGRAM_LEN`] instructions. Each draws its own window length
//! (1–256 bytes, often not a multiple of 8) and offset, and its own
//! scratchpad length (0–128 bytes). Every case runs two programs'
//! iterations alternately on one `Interpreter`, so state one program
//! leaves behind in the interpreter would show in the other's results.

mod common;

use common::{alu, body_insn, cond, operand, place, width_within, Shape};
use pulse_isa::{
    AluOp, Fault, Instruction, Interpreter, IterOutcome, IterState, IterTrace, MemBus, NodeWindow,
    Operand, Place, Program, VecMem, Width, MAX_LOAD_BYTES, MAX_PROGRAM_LEN, MAX_SCRATCHPAD_BYTES,
};
use pulse_sim::SplitMix64;
use std::collections::HashSet;

/// Debug builds (the default `cargo test`) run 512 cases; release builds
/// are fast enough for many more.
const CASES: usize = if cfg!(debug_assertions) { 512 } else { 8192 };
const MAX_ITERS: u32 = 8;
const MEM_BASE: u64 = 0x1000;
const MEM_LEN: usize = 1024;
/// Windows start up to this many bytes either side of `cur_ptr`.
const MAX_WINDOW_OFF: i32 = 64;

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

/// A start address whose window and nearby accesses are mapped whatever
/// the window's length and offset.
fn mapped(rng: &mut SplitMix64) -> u64 {
    let room = MAX_WINDOW_OFF as u64;
    let span = MEM_LEN as u64 - 2 * room - MAX_LOAD_BYTES as u64;
    MEM_BASE + room + rng.next_below(span)
}

/// A start address for a window or an access: mostly mapped, sometimes
/// anywhere (which faults).
fn pointer(rng: &mut SplitMix64) -> u64 {
    if rng.chance(0.8) {
        mapped(rng)
    } else {
        rng.next_u64()
    }
}

fn imm(rng: &mut SplitMix64) -> Operand {
    Operand::Imm(rng.next_u64() as i64)
}

/// A mapped address as an immediate base and a displacement, the base
/// drawn from a wide range so that bases seldom repeat.
fn imm_address(rng: &mut SplitMix64) -> (Operand, i32) {
    let off = rng.next_u64() as i32;
    (
        Operand::Imm(mapped(rng).wrapping_sub(off as i64 as u64) as i64),
        off,
    )
}

/// A pointer-valued operand: `cur_ptr`, a node or scratch word (both are
/// seeded with mostly mapped pointers), or any operand at all.
fn pointer_operand(rng: &mut SplitMix64, shape: &Shape) -> Operand {
    match rng.next_below(4) {
        0 => Operand::CurPtr,
        1 if shape.window >= 8 => {
            Operand::node_u64(rng.next_below(shape.window as u64 / 8) as u16 * 8)
        }
        2 if shape.scratch >= 8 => {
            Operand::sp_u64(rng.next_below(shape.scratch as u64 / 8) as u16 * 8)
        }
        _ => operand(rng, shape),
    }
}

/// A `LOAD`, `STORE` or `CAS` the shape allows. One `CAS` in four targets
/// a word of the fetched window and expects its fetched value, so swaps
/// both land and miss.
fn memory_insn(rng: &mut SplitMix64, shape: &Shape, window: NodeWindow) -> Instruction {
    let base = pointer_operand(rng, shape);
    let off = rng.next_below(32) as i32 - 16;
    let width = width_within(rng, 8, shape.wide).expect("every width fits 8 bytes");
    match rng.next_below(4) {
        0 => Instruction::Load {
            dst: place(rng, shape),
            base,
            off,
            width,
        },
        1 => Instruction::Store {
            base,
            off,
            src: operand(rng, shape),
            width,
        },
        2 if window.len >= width.bytes() => {
            let at = rng.next_below((window.len - width.bytes() + 1) as u64) as u16;
            Instruction::Cas {
                dst: place(rng, shape),
                base: Operand::CurPtr,
                off: window.off + at as i32,
                expect: Operand::Node { off: at, width },
                src: operand(rng, shape),
                width,
            }
        }
        _ => Instruction::Cas {
            dst: place(rng, shape),
            base,
            off,
            expect: operand(rng, shape),
            src: operand(rng, shape),
            width,
        },
    }
}

fn terminal(rng: &mut SplitMix64, shape: &Shape) -> Instruction {
    if rng.chance(0.75) {
        Instruction::NextIter {
            next: pointer_operand(rng, shape),
        }
    } else {
        Instruction::Return {
            code: operand(rng, shape),
        }
    }
}

/// A short program over the whole ISA: forward jumps to any later
/// instruction, terminals mid-stream and at the end, `DIV` among the ALU
/// ops, and memory instructions.
fn any_program(rng: &mut SplitMix64, shape: &Shape, window: NodeWindow) -> Vec<Instruction> {
    let n = 2 + rng.next_below(24) as usize;
    (0..n)
        .map(|pc| {
            let later =
                |rng: &mut SplitMix64| (pc + 1) as u32 + rng.next_below((n - pc - 1) as u64) as u32;
            match rng.next_below(20) {
                _ if pc == n - 1 => terminal(rng, shape),
                0..=2 => Instruction::CmpJump {
                    cond: cond(rng),
                    a: operand(rng, shape),
                    b: operand(rng, shape),
                    target: later(rng),
                },
                3 => Instruction::Jump { target: later(rng) },
                4 => terminal(rng, shape),
                5 | 6 => Instruction::Alu {
                    op: AluOp::Div,
                    dst: place(rng, shape),
                    a: operand(rng, shape),
                    b: operand(rng, shape),
                },
                7 => Instruction::Alu {
                    op: alu(rng),
                    dst: place(rng, shape),
                    a: operand(rng, shape),
                    b: operand(rng, shape),
                },
                8..=12 => memory_insn(rng, shape, window),
                _ => body_insn(rng, shape),
            }
        })
        .collect()
}

/// A long program whose operands are mostly distinct immediates, each of
/// which reaches the scratchpad, memory or the control flow. One in four
/// is [`MAX_PROGRAM_LEN`] `CAS`es with three immediates each.
fn imm_program(rng: &mut SplitMix64, shape: &Shape) -> Vec<Instruction> {
    let all_cas = rng.chance(0.25);
    let n = if all_cas || rng.chance(0.25) {
        MAX_PROGRAM_LEN
    } else {
        128 + rng.next_below((MAX_PROGRAM_LEN - 128) as u64) as usize
    };
    (0..n)
        .map(|pc| match if all_cas { 0 } else { rng.next_below(10) } {
            _ if pc == n - 1 => Instruction::NextIter {
                next: Operand::Imm(mapped(rng) as i64),
            },
            0 | 1 => {
                let (base, off) = imm_address(rng);
                Instruction::Cas {
                    dst: place(rng, shape),
                    base,
                    off,
                    expect: imm(rng),
                    src: imm(rng),
                    width: Width::B8,
                }
            }
            2 => {
                let (base, off) = imm_address(rng);
                Instruction::Store {
                    base,
                    off,
                    src: imm(rng),
                    width: Width::B8,
                }
            }
            3 => Instruction::CmpJump {
                cond: cond(rng),
                a: imm(rng),
                b: operand(rng, shape),
                target: (pc + 1) as u32 + rng.next_below((n - pc - 1).min(3) as u64) as u32,
            },
            4 => Instruction::Move {
                dst: place(rng, shape),
                src: imm(rng),
            },
            _ => {
                // Fold the immediate into what the place already holds.
                let dst = place(rng, shape);
                let a = match dst {
                    Place::Reg(r) => Operand::Reg(r),
                    Place::Sp { off, width } => Operand::Sp { off, width },
                };
                let op = [AluOp::Add, AluOp::Sub, AluOp::Or][rng.next_below(3) as usize];
                Instruction::Alu {
                    op,
                    dst,
                    a,
                    b: imm(rng),
                }
            }
        })
        .collect()
}

/// Which generator a program came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    AnyWidth,
    Wide,
    Immediates,
}

/// A program of a random family, window and scratchpad length.
fn program(rng: &mut SplitMix64) -> (Program, Family) {
    let family = match rng.next_below(20) {
        0..=8 => Family::AnyWidth,
        9..=15 => Family::Wide,
        _ => Family::Immediates,
    };
    let len = match rng.next_below(8) {
        0 => MAX_LOAD_BYTES,
        1 | 2 => 1 + rng.next_below(15) as u32,
        _ => 1 + rng.next_below(MAX_LOAD_BYTES as u64) as u32,
    };
    let off = if rng.chance(0.5) {
        0
    } else {
        rng.next_below(2 * MAX_WINDOW_OFF as u64) as i32 - MAX_WINDOW_OFF
    };
    let window = NodeWindow { off, len };
    let scratch = match rng.next_below(8) {
        0 => 0,
        1 => MAX_SCRATCHPAD_BYTES,
        _ => rng.next_below(MAX_SCRATCHPAD_BYTES as u64 + 1) as u16,
    };
    let shape = Shape {
        window: len,
        scratch,
        wide: family == Family::Wide || (family == Family::Immediates && rng.chance(0.5)),
    };
    let insns = match family {
        Family::Immediates => imm_program(rng, &shape),
        _ => any_program(rng, &shape, window),
    };
    let prog = Program::new("diff", window, insns, scratch).expect("valid");
    (prog, family)
}

/// Memory and a starting state whose words are mostly mapped pointers.
fn world(rng: &mut SplitMix64, prog: &Program) -> (VecMem, IterState) {
    let mut mem = VecMem::new(MEM_BASE, MEM_LEN);
    for off in (0..MEM_LEN as u64).step_by(8) {
        mem.write_word(MEM_BASE + off, pointer(rng), 8)
            .expect("mapped");
    }
    let mut st = IterState::new(prog, pointer(rng));
    for chunk in st.scratch.chunks_mut(8) {
        let word = pointer(rng).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    (mem, st)
}

fn dump(mem: &mut VecMem) -> Vec<u8> {
    let mut bytes = vec![0; mem.len()];
    mem.read(mem.base(), &mut bytes).expect("whole range");
    bytes
}

/// The distinct immediates a program names.
fn immediates(prog: &Program) -> usize {
    let mut imms = HashSet::new();
    for insn in prog.insns() {
        let operands: &[Operand] = match insn {
            Instruction::Alu { a, b, .. } | Instruction::CmpJump { a, b, .. } => &[*a, *b],
            Instruction::Not { a: o, .. }
            | Instruction::Move { src: o, .. }
            | Instruction::Load { base: o, .. }
            | Instruction::SpecHint { ptr: o }
            | Instruction::NextIter { next: o }
            | Instruction::Return { code: o } => &[*o],
            Instruction::Store { base, src, .. } => &[*base, *src],
            Instruction::Cas {
                base, expect, src, ..
            } => &[*base, *expect, *src],
            Instruction::NoSpec | Instruction::Jump { .. } => &[],
        };
        imms.extend(operands.iter().filter_map(|o| match o {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }));
    }
    imms.len()
}

/// One program running beside the reference, each on its own copy of the
/// world.
struct Run {
    prog: Program,
    family: Family,
    imms: usize,
    mem: VecMem,
    st: IterState,
    ref_mem: VecMem,
    ref_st: IterState,
    live: bool,
}

fn run(rng: &mut SplitMix64) -> Run {
    let (prog, family) = program(rng);
    let (mem, st) = world(rng, &prog);
    Run {
        imms: immediates(&prog),
        family,
        ref_mem: mem.clone(),
        ref_st: st.clone(),
        mem,
        st,
        prog,
        live: true,
    }
}

// ----------------------------------------------------------------- test

/// How often each way an iteration can end, and each class of program,
/// came up, so the test fails rather than passes vacuously if the
/// generator drifts. Classes count iterations that ran to a terminal.
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
    odd_window: u32,
    offset_window: u32,
    full_window: u32,
    no_scratch: u32,
    odd_scratch: u32,
    full_scratch: u32,
    wide: u32,
    many_imms: u32,
    most_imms: u32,
    longest: u32,
    switches: u32,
}

impl Seen {
    fn class(&mut self, r: &Run) {
        let (window, scratch) = (r.prog.window(), r.prog.scratch_len());
        self.odd_window += u32::from(window.len % 8 != 0);
        self.offset_window += u32::from(window.off != 0);
        self.full_window += u32::from(window.len == MAX_LOAD_BYTES);
        self.no_scratch += u32::from(scratch == 0);
        self.odd_scratch += u32::from(scratch % 8 != 0);
        self.full_scratch += u32::from(scratch == MAX_SCRATCHPAD_BYTES);
        self.wide += u32::from(r.family == Family::Wide);
        self.many_imms += u32::from(r.imms >= 256);
        // 255 three-immediate `CAS`es and a terminal: the most distinct
        // immediates a program can name, bar collisions.
        self.most_imms += u32::from(r.imms >= 3 * MAX_PROGRAM_LEN - 8);
        self.longest += u32::from(r.prog.len() == MAX_PROGRAM_LEN);
    }
}

#[test]
fn interpreter_matches_reference_evaluator() {
    let mut rng = SplitMix64::new(0x150_0007);
    let mut interp = Interpreter::new();
    let mut seen = Seen::default();
    let mut last_len = 0;
    for case in 0..CASES {
        let mut runs = [run(&mut rng), run(&mut rng)];
        for iter in 0..MAX_ITERS {
            for (side, r) in runs.iter_mut().enumerate().filter(|(_, r)| r.live) {
                let before = dump(&mut r.mem);
                let got = interp.run_iteration(&r.prog, &mut r.st, &mut r.mem);
                let want = reference(&r.prog, &mut r.ref_st, &mut r.ref_mem);
                let at = format!(
                    "case {case} program {side} iteration {iter}\n{}",
                    r.prog.disassemble()
                );
                assert_eq!(got, want, "{at}");
                assert_eq!(r.st, r.ref_st, "{at}");
                let after = dump(&mut r.mem);
                assert_eq!(after, dump(&mut r.ref_mem), "{at}");
                seen.switches += u32::from(last_len != r.prog.len());
                last_len = r.prog.len();
                match got {
                    Ok(trace) => {
                        seen.class(r);
                        seen.loads += trace.extra_loads;
                        seen.stores += trace.stores;
                        seen.swaps += u32::from(trace.stores > 0 && after != before);
                        if trace.outcome != IterOutcome::Continue {
                            seen.done += 1;
                            r.live = false;
                            continue;
                        }
                        seen.next_iter += 1;
                        seen.deep += u32::from(iter == 2);
                    }
                    Err(Fault::DivideByZero { .. }) => {
                        seen.div_by_zero += 1;
                        r.live = false;
                    }
                    Err(Fault::Mem(_)) => {
                        seen.mem_fault += 1;
                        r.live = false;
                    }
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
        ("window not a multiple of 8 bytes", seen.odd_window),
        ("window at a nonzero offset", seen.offset_window),
        ("256-byte window", seen.full_window),
        ("empty scratchpad", seen.no_scratch),
        ("scratchpad not a multiple of 8 bytes", seen.odd_scratch),
        ("128-byte scratchpad", seen.full_scratch),
        ("all-8-byte program", seen.wide),
        ("program with 256+ immediates", seen.many_imms),
        ("program with the most immediates", seen.most_imms),
        ("program of MAX_PROGRAM_LEN instructions", seen.longest),
        (
            "switch between programs of different lengths",
            seen.switches,
        ),
    ] {
        assert!(n >= 20, "only {n} x {what} over {CASES} cases: {seen:?}");
    }
}
