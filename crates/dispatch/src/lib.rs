//! # pulse-dispatch
//!
//! The pulse dispatch engine (§4.1): the software layer at the CPU node
//! that turns a data-structure developer's iterator into an offloadable
//! PULSE program and decides *where* it runs.
//!
//! Pipeline:
//!
//! 1. **[`IterSpec`]** — the iterator IR. The paper lowers C++ `next()` /
//!    `end()` bodies through LLVM's Sparc backend; this workspace, having no
//!    C++ front-end, has libraries emit the same post-analysis shape
//!    directly (bounded, loop-free per-iteration logic — bounded loops are
//!    unrolled at IR construction).
//! 2. **[`compile`]** — static analysis + code generation: infers the tight
//!    field window around `cur_ptr` and coalesces all node-field reads into
//!    the single ≤256 B per-iteration LOAD, then emits forward-jump-only
//!    PULSE ISA.
//! 3. **[`DispatchEngine`]** — prices the program (`t_c = t_i · N`, `t_d`
//!    from the Fig. 10 memory-pipeline components, both read from
//!    `pulse_isa::AccelTiming`, the timing the accelerator charges) and
//!    applies the offload gate `t_c ≤ η·t_d`; compute-heavy iterators stay
//!    on the CPU node.
//!
//! Applications rarely call this crate directly: a data structure exposes
//! its [`IterSpec`] stages through the `Traversal` trait (`pulse-ds`), and
//! `pulse::Offloaded` runs them through [`DispatchEngine::prepare`] when
//! the runtime is built. The example below is that same call, standalone —
//! the path ablations use to sweep η or inspect the gate.
//!
//! # Examples
//!
//! ```
//! use pulse_dispatch::{samples, DispatchEngine, OffloadDecision};
//!
//! let engine = DispatchEngine::default(); // η = 0.75, paper deployment
//! let hash = engine.prepare(&samples::hash_find_spec())?;
//! let heavy = engine.prepare(&samples::compute_heavy_spec())?;
//! assert_eq!(hash.decision, OffloadDecision::Offload);
//! assert_eq!(heavy.decision, OffloadDecision::RunAtCpu);
//! # Ok::<(), pulse_dispatch::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod engine;
pub mod samples;
mod spec;

pub use compile::{compile, infer_window, CompileError, WindowPlan};
pub use engine::{CompiledIterator, DispatchEngine, OffloadAnalysis, OffloadDecision};
pub use spec::{CondExpr, Expr, IterSpec, Stmt};
