//! # pulse
//!
//! A reproduction of *PULSE: Accelerating Distributed Pointer-Traversals
//! on Disaggregated Memory* (ASPLOS 2025), grown toward a production-shaped
//! runtime. The paper's contract is that a data-structure developer writes
//! a plain iterator and the stack — dispatch engine, programmable switch,
//! near-memory accelerators — does the rest. This crate is that contract's
//! public face.
//!
//! ## The façade
//!
//! * [`PulseBuilder`] wires memory, allocator, placement, and cluster
//!   configuration, and returns a ready [`Runtime`] (plus whatever you
//!   built inside: a structure, or a whole application via [`AppSpec`]).
//! * [`Traversal`] (from `pulse-ds`) is the one trait a data structure
//!   implements: its staged iterator IR plus the CPU-side `init()` plan.
//!   [`Offloaded`] compiles those stages once and mints requests per key.
//! * [`Runtime::submit`] / [`Runtime::poll`] are the request-level
//!   interface: tickets out, completions in, with a bounded in-flight
//!   window for backpressure. [`Runtime::drain`] reproduces the closed-loop
//!   batch reports of the paper's figures bit-for-bit.
//! * [`Runtime::submit_at`] + [`OpenLoopDriver`] are the open-loop entry:
//!   an [`ArrivalProcess`] (Poisson / uniform / trace replay) timestamps
//!   arrivals independent of completions, so latency-vs-offered-load
//!   sweeps measure queueing for real. The rack itself models N CPU
//!   (compute) nodes — [`PulseBuilder::cpus`] — each with its own link,
//!   issue queue, and serial dispatch engine
//!   ([`PulseBuilder::dispatch`] + [`DispatchConfig`]), with requests
//!   spread across them round-robin. A contended dispatch engine
//!   makes CPU-side saturation knees appear honestly in load sweeps.
//! * [`PulseBuilder::mode`] picks the system: pulse, the pulse-acc
//!   ablation, or one of the §6 baselines ([`PulseMode::Swap`] for
//!   Cache-based, [`PulseMode::Rpc`] with an [`RpcFlavor`] for RPC,
//!   RPC-ARM and Cache+RPC). Every mode is built by the same builder,
//!   takes every one of its settings, and runs on the same [`Runtime`],
//!   so a comparison's sides differ in one setter.
//! * [`Error`] is the single workspace-wide error type every fallible call
//!   returns.
//!
//! ```
//! use pulse::{Offloaded, Placement, PulseBuilder};
//! use pulse::dispatch::DispatchEngine;
//! use pulse::ds::HashMapDs;
//!
//! // A rack with two memory nodes, and a hash map built inside it.
//! let (mut runtime, map) = PulseBuilder::new()
//!     .nodes(2)
//!     .placement(Placement::Striped)
//!     .build_with(|ctx| {
//!         let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k, k * k)).collect();
//!         HashMapDs::build(ctx, 16, &pairs)
//!     })?;
//!
//! // Compile its traversal once, then submit keyed lookups.
//! let find = Offloaded::compile(map, &DispatchEngine::default())?;
//! let ticket = runtime.submit(find.request(42)?)?;
//! let done = runtime.poll();
//! assert!(ticket.matches(&done[0]) && done[0].ok);
//! assert_eq!(done[0].final_state.as_ref().unwrap().scratch_u64(8), 42 * 42);
//! # Ok::<(), pulse::Error>(())
//! ```
//!
//! ## Layering
//!
//! The façade sits on re-exported workspace crates, lowest first:
//! [`sim`] (deterministic DES substrate) → [`isa`] (the PULSE ISA) →
//! [`mem`] (disaggregated memory) / [`net`] (switch + links) / [`dispatch`]
//! (compiler + offload gate) → [`ds`] (structure library + [`Traversal`])
//! → [`accel`] (near-memory accelerator) / [`workloads`] (applications) →
//! [`core`] (the rack engine, every system's). Reach into them for
//! ablation-level control; everything request-shaped goes through
//! [`Runtime`]. [`baselines`], [`Engine`], [`BaselineKind`] and
//! [`BaselineEngine`] are a logic-free face kept for perfbench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pulse_accel as accel;
pub use pulse_core as core;
pub use pulse_dispatch as dispatch;
pub use pulse_ds as ds;
pub use pulse_energy as energy;
pub use pulse_frontend as frontend;
pub use pulse_isa as isa;
pub use pulse_mem as mem;
pub use pulse_mutation as mutation;
pub use pulse_net as net;
pub use pulse_sim as sim;
pub use pulse_trace as trace;
pub use pulse_workloads as workloads;

mod api;
pub mod baselines;
mod error;
mod runtime;
mod ycsb;

pub use api::{AppSpec, BaselineEngine, BaselineKind, Engine, Offloaded};
pub use error::Error;
pub use runtime::{
    OpenLoopDriver, OpenLoopReport, PulseBuilder, Runtime, Ticket, DEFAULT_GRANULARITY,
    DEFAULT_WINDOW,
};
pub use ycsb::YcsbDriver;

// The façade's frequently-used vocabulary, re-exported flat so examples
// and downstream code need one `use pulse::...` line per name.
pub use pulse_core::{
    CacheConfig, ClusterConfig, ClusterReport, Completion, DispatchConfig, FaultEvent, FaultKind,
    Phase, PhaseAttribution, PulseCluster, PulseMode, RpcFlavor, RunMetrics, TraceConfig,
};
pub use pulse_ds::{StagePlan, StageStart, Traversal};
pub use pulse_mem::Placement;
pub use pulse_mutation::MutationConfig;
pub use pulse_net::TopologySpec;
pub use pulse_workloads::{
    AppRequest, ArrivalProcess, BtrdbConfig, RequestError, RetryPolicy, WebServiceConfig,
    WiredTigerConfig, YcsbWorkload,
};
