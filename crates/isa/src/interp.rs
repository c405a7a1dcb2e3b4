//! Functional interpreter for PULSE programs.
//!
//! The interpreter implements exactly the execution model of §4.2: at the
//! start of each iteration the *memory pipeline* fetches the coalesced node
//! window at `cur_ptr`; then the *logic pipeline* runs the instruction
//! stream against registers, the scratchpad, and the fetched window, ending
//! in `NEXT_ITER` (update `cur_ptr`, repeat) or `RETURN` (yield scratchpad).
//!
//! Timing is *not* modelled here — the accelerator, RPC baselines and CPU
//! fallback all charge their own costs around the same functional core, so
//! the semantics of a traversal are identical on every execution engine.

use crate::decoded::{Dst, Op, Src};
use crate::membus::{MemBus, MemFault};
use crate::ops::{AluOp, Width, NUM_REGS};
use crate::program::Program;
use std::fmt;

/// A runtime execution fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A memory access failed (translation/protection/straddle).
    Mem(MemFault),
    /// `DIV` by zero at instruction `pc`.
    DivideByZero {
        /// The faulting instruction index.
        pc: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(m) => write!(f, "memory fault: {m}"),
            Fault::DivideByZero { pc } => write!(f, "divide by zero at @{pc}"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemFault> for Fault {
    fn from(m: MemFault) -> Fault {
        Fault::Mem(m)
    }
}

/// The mutable per-request state that travels with an iterator offload:
/// exactly the continuation of §5 — `cur_ptr`, the scratchpad, and the
/// iteration count already consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterState {
    /// The current traversal pointer.
    pub cur_ptr: u64,
    /// Developer-managed persistent state (§3).
    pub scratch: Vec<u8>,
    /// Iterations executed so far (across continuations).
    pub iters_done: u32,
}

impl IterState {
    /// Fresh state for a program, with a zeroed scratchpad of the program's
    /// declared size.
    pub fn new(program: &Program, cur_ptr: u64) -> IterState {
        IterState::new_in(program, cur_ptr, Vec::new())
    }

    /// Like [`IterState::new`], but zeroing and reusing `buf`'s allocation
    /// as the scratchpad. Recycling scratch buffers from retired states
    /// keeps a simulator's per-request hot path allocation-free; the
    /// resulting state is indistinguishable from [`IterState::new`]'s.
    pub fn new_in(program: &Program, cur_ptr: u64, mut buf: Vec<u8>) -> IterState {
        buf.clear();
        buf.resize(program.scratch_len() as usize, 0);
        IterState {
            cur_ptr,
            scratch: buf,
            iters_done: 0,
        }
    }

    /// Reads the 8-byte little-endian word at scratchpad offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the scratchpad.
    pub fn scratch_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.scratch[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Writes an 8-byte little-endian word at scratchpad offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the scratchpad.
    pub fn set_scratch_u64(&mut self, off: usize, v: u64) {
        self.scratch[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// How one iteration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterOutcome {
    /// `NEXT_ITER` executed; `cur_ptr` has been updated.
    Continue,
    /// `RETURN` executed with this status code; traversal complete.
    Done {
        /// Value of the `RETURN` operand.
        code: u64,
    },
}

/// Measured facts about one executed iteration, consumed by timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterTrace {
    /// Instructions the logic pipeline executed (incl. the terminal).
    pub insns_executed: u32,
    /// Explicit `LOAD`s beyond the coalesced window (extra memory trips).
    pub extra_loads: u32,
    /// `STORE`s executed (memory-pipeline write trips), the write leg of
    /// every `CAS` included.
    pub stores: u32,
    /// Exact bytes those write trips carried (each store's access width;
    /// a `CAS` counts its width whether or not the swap landed, since the
    /// memory pipeline reserves the write slot either way).
    pub store_bytes: u32,
    /// Bytes fetched by the coalesced window load.
    pub window_bytes: u32,
    /// How the iteration ended.
    pub outcome: IterOutcome,
    /// Predicted next `cur_ptr` from a `SPEC_HINT`, if one executed (ISA
    /// v2). `None` means the engine falls back to its default prediction
    /// rule; the hint never changes architectural state.
    pub spec_next: Option<u64>,
    /// Whether a `NO_SPEC` fence executed, inhibiting speculative issue
    /// after this iteration (ISA v2).
    pub spec_inhibit: bool,
}

/// Result of running a traversal to completion (or to its iteration budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraversalRun {
    /// Iterations executed in *this* run (not counting prior continuations).
    pub iterations: u32,
    /// Total instructions executed across those iterations.
    pub total_insns: u64,
    /// Total explicit loads and stores.
    pub total_extra_loads: u64,
    /// Total stores.
    pub total_stores: u64,
    /// `Some(code)` if `RETURN` was reached; `None` if the iteration budget
    /// expired first (the CPU node may issue a continuation, §3).
    pub return_code: Option<u64>,
}

impl TraversalRun {
    /// Whether the traversal reached `RETURN`.
    pub fn completed(&self) -> bool {
        self.return_code.is_some()
    }
}

/// Executes PULSE programs one iteration at a time.
///
/// The interpreter is engine-agnostic: [`Interpreter::run_iteration`] is used
/// by the accelerator model (which charges pipeline time around it), by the
/// RPC baselines (which charge CPU time), and directly by tests.
#[derive(Debug, Default)]
pub struct Interpreter {
    window_buf: Vec<u8>,
}

impl Interpreter {
    /// Creates an interpreter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a single iteration: window fetch, then logic to a terminal.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Mem`] if the window fetch or an explicit access
    /// faults, or [`Fault::DivideByZero`] on a zero divisor. On fault,
    /// `state` is left as of the fault point (the scratchpad still travels
    /// back for diagnosis, as on the hardware).
    ///
    /// # Panics
    ///
    /// Panics if `state.scratch` is smaller than the program's declared
    /// scratch length (caller bug).
    pub fn run_iteration(
        &mut self,
        program: &Program,
        state: &mut IterState,
        bus: &mut dyn MemBus,
    ) -> Result<IterTrace, Fault> {
        assert!(
            state.scratch.len() >= program.scratch_len() as usize,
            "scratchpad smaller than program requirement"
        );
        let window = program.window();
        let base = state.cur_ptr.wrapping_add(window.off as i64 as u64);
        self.window_buf.resize(window.len as usize, 0);
        bus.read(base, &mut self.window_buf)?;

        let mut f = Frame {
            regs: [0; NUM_REGS as usize],
            cur_ptr: state.cur_ptr,
            sp: &mut state.scratch,
            node: &self.window_buf,
        };
        let mut pc: u32 = 0;
        let mut executed: u32 = 0;
        let mut extra_loads: u32 = 0;
        let mut stores: u32 = 0;
        let mut store_bytes: u32 = 0;
        let mut spec_next: Option<u64> = None;
        let mut spec_inhibit = false;
        let ops = program.ops();

        let outcome = loop {
            executed += 1;
            match ops[pc as usize] {
                Op::Alu { op, dst, a, b } => {
                    let (av, bv) = (f.get(a), f.get(b));
                    let v = match op {
                        AluOp::Add => av.wrapping_add(bv),
                        AluOp::Sub => av.wrapping_sub(bv),
                        AluOp::Mul => av.wrapping_mul(bv),
                        AluOp::Div => {
                            if bv == 0 {
                                return Err(Fault::DivideByZero { pc });
                            }
                            av / bv
                        }
                        AluOp::And => av & bv,
                        AluOp::Or => av | bv,
                    };
                    f.put(dst, v);
                }
                Op::Not { dst, a } => {
                    let v = !f.get(a);
                    f.put(dst, v);
                }
                Op::Move { dst, src } => {
                    let v = f.get(src);
                    f.put(dst, v);
                }
                Op::Load {
                    dst,
                    base,
                    off,
                    width,
                } => {
                    let v = bus.read_word(f.get(base).wrapping_add(off), width.bytes())?;
                    f.put(dst, v);
                    extra_loads += 1;
                }
                Op::Store {
                    base,
                    off,
                    src,
                    width,
                } => {
                    let addr = f.get(base).wrapping_add(off);
                    bus.write_word(addr, f.get(src), width.bytes())?;
                    stores += 1;
                    store_bytes += width.bytes();
                }
                Op::Cas {
                    dst,
                    base,
                    off,
                    expect,
                    src,
                    width,
                } => {
                    let addr = f.get(base).wrapping_add(off);
                    let old = bus.cas_word(addr, f.get(expect), f.get(src), width.bytes())?;
                    f.put(dst, old);
                    // One read trip plus one (conditional) write trip on the
                    // memory pipeline; charged like a load + a store.
                    extra_loads += 1;
                    stores += 1;
                    store_bytes += width.bytes();
                }
                Op::SpecHint { ptr } => spec_next = Some(f.get(ptr)),
                Op::NoSpec => spec_inhibit = true,
                Op::CmpJump { cond, a, b, target } => {
                    if cond.eval(f.get(a), f.get(b)) {
                        pc = target;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    pc = target;
                    continue;
                }
                Op::NextIter { next } => {
                    state.cur_ptr = f.get(next);
                    break IterOutcome::Continue;
                }
                Op::Return { code } => break IterOutcome::Done { code: f.get(code) },
            }
            pc += 1;
            // Validation guarantees the last instruction is terminal, so pc
            // can never run past the end.
            debug_assert!((pc as usize) < ops.len());
        };
        state.iters_done += 1;
        Ok(IterTrace {
            insns_executed: executed,
            extra_loads,
            stores,
            store_bytes,
            window_bytes: window.len,
            outcome,
            spec_next,
            spec_inhibit,
        })
    }

    /// Runs iterations until `RETURN`, a fault, or `max_iters` total
    /// iterations on this `state` (the `execute()` loop of Listing 1).
    ///
    /// # Errors
    ///
    /// Propagates the first [`Fault`]; hitting the iteration budget is *not*
    /// an error (`return_code` is `None` and the state is a valid
    /// continuation).
    pub fn run_traversal(
        &mut self,
        program: &Program,
        state: &mut IterState,
        bus: &mut dyn MemBus,
        max_iters: u32,
    ) -> Result<TraversalRun, Fault> {
        let mut run = TraversalRun {
            iterations: 0,
            total_insns: 0,
            total_extra_loads: 0,
            total_stores: 0,
            return_code: None,
        };
        while state.iters_done < max_iters {
            let trace = self.run_iteration(program, state, bus)?;
            run.iterations += 1;
            run.total_insns += trace.insns_executed as u64;
            run.total_extra_loads += trace.extra_loads as u64;
            run.total_stores += trace.stores as u64;
            if let IterOutcome::Done { code } = trace.outcome {
                run.return_code = Some(code);
                break;
            }
        }
        Ok(run)
    }
}

/// The logic pipeline's view of one iteration: registers, `cur_ptr` as of
/// the window fetch, the scratchpad and the fetched node window.
struct Frame<'a> {
    regs: [u64; NUM_REGS as usize],
    cur_ptr: u64,
    sp: &'a mut [u8],
    node: &'a [u8],
}

impl Frame<'_> {
    #[inline(always)]
    fn get(&self, src: Src) -> u64 {
        match src {
            Src::Imm(v) => v,
            Src::Reg(r) => self.regs[r as usize],
            Src::CurPtr => self.cur_ptr,
            Src::Sp8(off) => u64::from_le_bytes(field(self.sp, off)),
            Src::Node8(off) => u64::from_le_bytes(field(self.node, off)),
            Src::Sp(off, width) => read_narrow(self.sp, off, width),
            Src::Node(off, width) => read_narrow(self.node, off, width),
        }
    }

    #[inline(always)]
    fn put(&mut self, dst: Dst, v: u64) {
        match dst {
            Dst::Reg(r) => self.regs[r as usize] = v,
            Dst::Sp8(off) => *field_mut(self.sp, off) = v.to_le_bytes(),
            Dst::Sp(off, width) => match width {
                Width::B1 => self.sp[off as usize] = v as u8,
                Width::B2 => *field_mut(self.sp, off) = (v as u16).to_le_bytes(),
                Width::B4 => *field_mut(self.sp, off) = (v as u32).to_le_bytes(),
                Width::B8 => *field_mut(self.sp, off) = v.to_le_bytes(),
            },
        }
    }
}

/// The `N` bytes at `off`, as a fixed-size array: a bounds check and a
/// plain load, where a copy of run-time length would call `memcpy`.
#[inline(always)]
fn field<const N: usize>(buf: &[u8], off: u16) -> [u8; N] {
    let off = off as usize;
    buf[off..off + N].try_into().expect("slice of length N")
}

#[inline(always)]
fn field_mut<const N: usize>(buf: &mut [u8], off: u16) -> &mut [u8; N] {
    let off = off as usize;
    (&mut buf[off..off + N])
        .try_into()
        .expect("slice of length N")
}

/// A zero-extended little-endian read of `width` bytes at `off`.
#[inline(always)]
fn read_narrow(buf: &[u8], off: u16, width: Width) -> u64 {
    match width {
        Width::B1 => buf[off as usize] as u64,
        Width::B2 => u16::from_le_bytes(field(buf, off)) as u64,
        Width::B4 => u32::from_le_bytes(field(buf, off)) as u64,
        Width::B8 => u64::from_le_bytes(field(buf, off)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::membus::VecMem;
    use crate::ops::{Cond, Operand, Place, Reg};

    /// Builds a linked list of (key, value, next) nodes in a VecMem and
    /// returns (memory, head address).
    fn build_list(entries: &[(u64, u64)]) -> (VecMem, u64) {
        let base = 0x1000;
        let node_size = 24u64;
        let mut m = VecMem::new(base, entries.len() * node_size as usize + 64);
        for (i, &(k, v)) in entries.iter().enumerate() {
            let addr = base + i as u64 * node_size;
            let next = if i + 1 < entries.len() {
                addr + node_size
            } else {
                0
            };
            m.write_word(addr, k, 8).unwrap();
            m.write_word(addr + 8, v, 8).unwrap();
            m.write_word(addr + 16, next, 8).unwrap();
        }
        (m, base)
    }

    /// The paper's Listing 3: `unordered_map::find` as a PULSE program.
    /// Scratch layout: [0..8) search key, [8..16) result value, code 0=found
    /// 1=absent.
    fn list_find_program() -> Program {
        let mut b = ProgramBuilder::new("list::find", 24, 16);
        let miss = b.label();
        let absent = b.label();
        b.cmp_jump(Cond::Ne, Operand::node_u64(0), Operand::sp_u64(0), miss);
        b.mov(Place::sp_u64(8), Operand::node_u64(8));
        b.ret(Operand::Imm(0));
        b.bind(miss);
        b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), absent);
        b.next_iter(Operand::node_u64(16));
        b.bind(absent);
        b.ret(Operand::Imm(1));
        b.finish().unwrap()
    }

    #[test]
    fn list_find_hits() {
        let (mut m, head) = build_list(&[(10, 100), (20, 200), (30, 300)]);
        let prog = list_find_program();
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 20);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 64)
            .unwrap();
        assert_eq!(run.return_code, Some(0));
        assert_eq!(run.iterations, 2); // node 10, then node 20
        assert_eq!(st.scratch_u64(8), 200);
    }

    #[test]
    fn list_find_misses() {
        let (mut m, head) = build_list(&[(10, 100), (20, 200)]);
        let prog = list_find_program();
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 99);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 64)
            .unwrap();
        assert_eq!(run.return_code, Some(1));
        assert_eq!(run.iterations, 2);
    }

    #[test]
    fn iteration_budget_yields_continuation() {
        // 10-node list, budget of 4: should stop with no return code and a
        // resumable state.
        let entries: Vec<(u64, u64)> = (0..10).map(|i| (i, i * 10)).collect();
        let (mut m, head) = build_list(&entries);
        let prog = list_find_program();
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 9); // last node
        let mut interp = Interpreter::new();
        let run = interp.run_traversal(&prog, &mut st, &mut m, 4).unwrap();
        assert_eq!(run.return_code, None);
        assert_eq!(run.iterations, 4);
        assert_eq!(st.iters_done, 4);
        // Continue from the continuation (fresh budget window).
        let run2 = interp.run_traversal(&prog, &mut st, &mut m, 64).unwrap();
        assert_eq!(run2.return_code, Some(0));
        assert_eq!(st.scratch_u64(8), 90);
        assert_eq!(st.iters_done, 10);
    }

    #[test]
    fn window_fetch_fault_propagates() {
        let mut m = VecMem::new(0x1000, 64);
        let prog = list_find_program();
        let mut st = IterState::new(&prog, 0xdead_0000);
        let err = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 8)
            .unwrap_err();
        assert!(matches!(err, Fault::Mem(MemFault::NotMapped { .. })));
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut b = ProgramBuilder::new("div0", 8, 8);
        b.alu(
            crate::ops::AluOp::Div,
            Reg::new(0),
            Operand::Imm(1),
            Operand::sp_u64(0), // zeroed scratch
        );
        b.ret(Operand::Imm(0));
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 64);
        let mut st = IterState::new(&prog, 0);
        let err = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 8)
            .unwrap_err();
        assert_eq!(err, Fault::DivideByZero { pc: 0 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn alu_semantics() {
        // Compute sp[0] = (5 + 3) * 2 - 1 = 15, sp[8] = 0xF0 & 0x0F | 0x10.
        let mut b = ProgramBuilder::new("alu", 8, 16);
        let r0 = Reg::new(0);
        b.add(r0, Operand::Imm(5), Operand::Imm(3));
        b.alu(crate::ops::AluOp::Mul, r0, r0, Operand::Imm(2));
        b.alu(crate::ops::AluOp::Sub, r0, r0, Operand::Imm(1));
        b.mov(Place::sp_u64(0), r0);
        b.alu(
            crate::ops::AluOp::And,
            Reg::new(1),
            Operand::Imm(0xF0),
            Operand::Imm(0x0F),
        );
        b.alu(
            crate::ops::AluOp::Or,
            Reg::new(1),
            Reg::new(1),
            Operand::Imm(0x10),
        );
        b.mov(Place::sp_u64(8), Reg::new(1));
        b.ret(Operand::Imm(0));
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 64);
        let mut st = IterState::new(&prog, 0);
        Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 1)
            .unwrap();
        assert_eq!(st.scratch_u64(0), 15);
        assert_eq!(st.scratch_u64(8), 0x10);
    }

    #[test]
    fn not_and_widths() {
        let mut b = ProgramBuilder::new("w", 8, 16);
        b.not(Reg::new(0), Operand::Imm(0));
        b.mov(
            Place::Sp {
                off: 0,
                width: Width::B4,
            },
            Reg::new(0),
        ); // truncates to 0xFFFF_FFFF
        b.ret(Operand::Imm(0));
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 8);
        let mut st = IterState::new(&prog, 0);
        Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 1)
            .unwrap();
        assert_eq!(st.scratch_u64(0), 0xFFFF_FFFF);
    }

    #[test]
    fn explicit_load_store_roundtrip_and_counts() {
        let mut b = ProgramBuilder::new("ls", 8, 8);
        let r0 = Reg::new(0);
        b.load(r0, Operand::Imm(0x40), 0, Width::B8);
        b.add(r0, r0, Operand::Imm(1));
        b.store(Operand::Imm(0x48), 0, r0, Width::B8);
        b.ret(r0);
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 128);
        m.write_word(0x40, 41, 8).unwrap();
        let mut st = IterState::new(&prog, 0);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 1)
            .unwrap();
        assert_eq!(run.return_code, Some(42));
        assert_eq!(run.total_extra_loads, 1);
        assert_eq!(run.total_stores, 1);
        assert_eq!(m.read_word(0x48, 8).unwrap(), 42);
    }

    #[test]
    fn cas_swaps_only_on_match_and_reports_old_value() {
        // sp[0] holds the expected value; cas writes 99 on match. Two runs:
        // the first matches (memory 7 -> 99), the second does not (sp stays
        // 7 but memory now holds 99).
        let mk = || {
            let mut b = ProgramBuilder::new("cas", 8, 16);
            b.cas(
                Reg::new(0),
                Operand::Imm(0x40),
                0,
                Operand::sp_u64(0),
                Operand::Imm(99),
                Width::B8,
            );
            b.mov(Place::sp_u64(8), Reg::new(0));
            b.ret(Reg::new(0));
            b.finish().unwrap()
        };
        let prog = mk();
        let mut m = VecMem::new(0, 128);
        m.write_word(0x40, 7, 8).unwrap();
        let mut st = IterState::new(&prog, 0);
        st.set_scratch_u64(0, 7);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 1)
            .unwrap();
        assert_eq!(run.return_code, Some(7), "old value returned");
        assert_eq!(m.read_word(0x40, 8).unwrap(), 99, "matched: swapped");
        // A CAS is one load + one store on the memory pipeline.
        assert_eq!(run.total_extra_loads, 1);
        assert_eq!(run.total_stores, 1);

        let mut st2 = IterState::new(&prog, 0);
        st2.set_scratch_u64(0, 7); // stale expectation
        let run2 = Interpreter::new()
            .run_traversal(&prog, &mut st2, &mut m, 1)
            .unwrap();
        assert_eq!(run2.return_code, Some(99), "old value returned on miss");
        assert_eq!(m.read_word(0x40, 8).unwrap(), 99, "missed: untouched");
    }

    #[test]
    fn cas_to_unmapped_address_faults() {
        let mut b = ProgramBuilder::new("cas-bad", 8, 8);
        b.cas(
            Reg::new(0),
            Operand::Imm(0xDEAD_0000),
            0,
            Operand::Imm(0),
            Operand::Imm(1),
            Width::B8,
        );
        b.ret(Operand::Imm(0));
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 64);
        let mut st = IterState::new(&prog, 0);
        let err = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 1)
            .unwrap_err();
        assert!(matches!(err, Fault::Mem(MemFault::NotMapped { .. })));
    }

    #[test]
    fn registers_do_not_persist_across_iterations() {
        // Iteration 1 sets r0 = 7 then NEXT_ITERs; iteration 2 returns r0,
        // which must be 0 again (registers are iteration-scoped).
        let mut b = ProgramBuilder::new("regs", 8, 8);
        let second = b.label();
        b.cmp_jump(Cond::Eq, Operand::sp_u64(0), Operand::Imm(1), second);
        b.mov(Place::sp_u64(0), Operand::Imm(1));
        b.mov(Reg::new(0), Operand::Imm(7));
        b.next_iter(Operand::CurPtr);
        b.bind(second);
        b.ret(Reg::new(0));
        let prog = b.finish().unwrap();
        let mut m = VecMem::new(0, 64);
        let mut st = IterState::new(&prog, 0);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut m, 4)
            .unwrap();
        assert_eq!(run.return_code, Some(0));
        assert_eq!(run.iterations, 2);
    }

    #[test]
    fn spec_hint_records_prediction_without_state_change() {
        let (mut m, head) = build_list(&[(1, 2), (3, 4)]);
        let mut b = ProgramBuilder::new("hint", 24, 8);
        b.spec_hint(Operand::node_u64(16)); // predict the `next` field
        b.next_iter(Operand::node_u64(16));
        let prog = b.finish().unwrap();
        let mut st = IterState::new(&prog, head);
        let trace = Interpreter::new()
            .run_iteration(&prog, &mut st, &mut m)
            .unwrap();
        assert_eq!(trace.spec_next, Some(st.cur_ptr), "hint matches next ptr");
        assert!(!trace.spec_inhibit);
        assert_eq!(trace.insns_executed, 2);
    }

    #[test]
    fn no_spec_sets_inhibit_flag() {
        let (mut m, head) = build_list(&[(1, 2)]);
        let mut b = ProgramBuilder::new("fence", 24, 8);
        b.no_spec();
        b.ret(Operand::Imm(0));
        let prog = b.finish().unwrap();
        let mut st = IterState::new(&prog, head);
        let trace = Interpreter::new()
            .run_iteration(&prog, &mut st, &mut m)
            .unwrap();
        assert!(trace.spec_inhibit);
        assert_eq!(trace.spec_next, None);
    }

    #[test]
    fn trace_reports_window_bytes_and_insn_count() {
        let prog = list_find_program();
        let (mut m, head) = build_list(&[(1, 2)]);
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 1);
        let trace = Interpreter::new()
            .run_iteration(&prog, &mut st, &mut m)
            .unwrap();
        assert_eq!(trace.window_bytes, 24);
        assert_eq!(trace.insns_executed, 3); // cmp (false), mov, return
        assert_eq!(trace.outcome, IterOutcome::Done { code: 0 });
    }
}
