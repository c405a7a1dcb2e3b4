//! # pulse-accel
//!
//! The pulse accelerator (§4.2) — the paper's core hardware contribution —
//! as a deterministic event-driven model:
//!
//! * [`Accelerator`] — the per-memory-node state machine: a fixed-function
//!   network stack, a scheduler, `m` logic pipelines, `n` memory pipelines
//!   (or `k` coupled cores for the Table 4 baseline), and `m + n`
//!   workspaces holding `cur_ptr`/scratchpad/fetched-window per in-flight
//!   iterator. Offloaded programs *really execute* against the node-local
//!   memory view; remote pointers bounce back to the switch as in-flight
//!   packets (§5).
//! * [`AccelTiming`] — the Fig. 10 component latencies (network stack,
//!   scheduler, TCAM, interconnect, DRAM, per-instruction logic), defined
//!   in `pulse-isa` so the dispatch engine's offload gate prices from the
//!   same numbers, and re-exported here.
//! * [`estimate`] — the Table 4 LUT/BRAM area model (fitted; the only
//!   synthesized artifact we substitute).
//! * [`run_closed_loop`] — the single-accelerator harness behind Table 4,
//!   Fig. 10 and Fig. 11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod area;
mod config;
mod harness;

pub use accel::{AccelEvent, AccelOutput, AccelSink, AccelStats, Accelerator, ComponentTimes};
pub use area::{estimate, AreaEstimate};
pub use config::{AccelConfig, AccelTiming, PipelineOrg};
pub use harness::{run_closed_loop, HarnessReport};
