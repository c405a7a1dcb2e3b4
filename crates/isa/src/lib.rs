//! # pulse-isa
//!
//! The PULSE instruction set architecture (§4.1, Table 2 of the paper): a
//! stripped-down RISC ISA containing only the operations a pointer-traversal
//! iterator needs, designed so the accelerator's logic pipeline stays tiny
//! and every program's compute time is statically boundable.
//!
//! The crate provides:
//!
//! * the instruction set and [`Program`] container, with a validator that
//!   enforces the paper's rules — forward jumps only (no unbounded loops per
//!   iteration, like eBPF), one coalesced ≤256 B load window per iteration,
//!   a bounded scratchpad, and a terminal `NEXT_ITER`/`RETURN` on every path;
//! * a [`ProgramBuilder`] with forward-only labels;
//! * a functional [`Interpreter`] shared by every execution engine
//!   (accelerator, Xeon RPC, ARM RPC, CPU-node fallback) so traversal
//!   *semantics* are engine-independent and only *timing* differs. It runs
//!   every iteration on one byte frame it owns, holding the registers,
//!   `cur_ptr`, the scratchpad, the fetched node window and the program's
//!   immediates; [`Program::new`] decodes each operand to an offset in
//!   that frame once, and each compare-jump condition to an op of its own;
//! * the binary wire [`encoding`](encode_program) requests carry; and
//! * the cost model: the accelerator's Fig. 10 [`AccelTiming`], which
//!   prices both the accelerator and the dispatch engine's
//!   `t_c = t_i · N ≤ η·t_d` offload test, and the CPU cores'
//!   [`CostModel`].
//!
//! # Examples
//!
//! Build and run the paper's Listing 3 (`unordered_map::find`) against a
//! little in-memory linked list:
//!
//! ```
//! use pulse_isa::{
//!     Cond, Interpreter, IterState, MemBus, Operand, Place, ProgramBuilder, VecMem,
//! };
//!
//! // node layout: key u64 | value u64 | next u64
//! let mut mem = VecMem::new(0x1000, 96);
//! mem.write_word(0x1000, 7, 8)?;          // key
//! mem.write_word(0x1008, 700, 8)?;        // value
//! mem.write_word(0x1010, 0, 8)?;          // next = null
//!
//! let mut b = ProgramBuilder::new("find", 24, 16);
//! let miss = b.label();
//! let absent = b.label();
//! b.cmp_jump(Cond::Ne, Operand::node_u64(0), Operand::sp_u64(0), miss);
//! b.mov(Place::sp_u64(8), Operand::node_u64(8)); // value -> scratch
//! b.ret(Operand::Imm(0));
//! b.bind(miss);
//! b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), absent);
//! b.next_iter(Operand::node_u64(16));
//! b.bind(absent);
//! b.ret(Operand::Imm(1));
//! let prog = b.finish()?;
//!
//! let mut st = IterState::new(&prog, 0x1000);
//! st.set_scratch_u64(0, 7); // search key
//! let run = Interpreter::new().run_traversal(&prog, &mut st, &mut mem, 64)?;
//! assert_eq!(run.return_code, Some(0));
//! assert_eq!(st.scratch_u64(8), 700);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod cost;
mod decoded;
mod encode;
mod interp;
mod membus;
mod ops;
mod program;

pub use builder::{Label, ProgramBuilder};
pub use cost::{AccelTiming, CostModel, FUSED_HOP_DRAM_DIV};
pub use encode::{decode_program, encode_program, DecodeError};
pub use interp::{Fault, Interpreter, IterOutcome, IterState, IterTrace, TraversalRun};
pub use membus::{MemBus, MemFault, VecMem};
pub use ops::{AluOp, Cond, Operand, Place, Reg, Width, NUM_REGS};
pub use program::{
    Instruction, NodeWindow, Program, ProgramError, DEFAULT_MAX_ITERS, MAX_LOAD_BYTES,
    MAX_PROGRAM_LEN, MAX_SCRATCHPAD_BYTES,
};
