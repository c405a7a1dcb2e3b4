//! # pulse-core
//!
//! The rack-scale pulse simulation engine. The public face of the stack is
//! the umbrella crate's `pulse::Runtime`/`PulseBuilder`; this crate is the
//! engine underneath it.
//!
//! * [`PulseCluster`] — CPU node + programmable switch + one accelerator
//!   per memory node, executing application requests end-to-end: compiled
//!   iterator offloads travel as packets, traversals really execute against
//!   disaggregated memory, remote pointers reroute through the switch (§5),
//!   continuations resume on iteration-budget expiry (§3), and WebService's
//!   objects ride responses via near-memory gather. Execution is
//!   incremental — [`PulseCluster::submit_at`], [`PulseCluster::step`],
//!   [`PulseCluster::take_completions`] — with the closed-loop batch
//!   [`PulseCluster::run`] layered on top, so open-loop runtimes and the
//!   paper's batch benches share one event loop.
//! * [`PulseMode::PulseAcc`] — the Fig. 9 ablation that bounces crossings
//!   through the CPU node instead of the switch.
//! * [`PulseMode::Rpc`] — the RPC baselines on the same engine: the
//!   pulse-acc bounce, with each memory node's [`RpcFlavor`] worker cores
//!   serving traversals in place of its accelerator.
//! * [`PulseMode::Swap`] — the Cache-based (Fastswap) baseline on the same
//!   engine: the CPU node runs each request over a 4 KiB-page LRU, and a
//!   missed page is a plain read its memory node's DMA engine serves,
//!   hop by hop over the rack's fabric ([`SwapStats`] counts its hits and
//!   time split).
//!
//! Every mode is a `pulse::PulseBuilder::mode` setting, built through the
//! same builder and run by the same `pulse::Runtime`.
//! * [`cxl_study`] — the §7/Fig. 12 CXL-interconnect model.
//!
//! # CPU-node dispatch contention
//!
//! Issue software cost at a CPU node has two components:
//!
//! * a flat pass-through *latency* per packet (pipeline depth): 300 ns per
//!   send and 1 µs per re-issue, fixed constants of the rack. It delays
//!   every packet equally and never queues.
//! * [`DispatchConfig`] on [`ClusterConfig::dispatch`] — the contended
//!   part. **`occupancy`** is how long
//!   one dispatch context stays busy per issued packet (request
//!   marshalling, doorbell, issue-queue bookkeeping); **`contexts`** is how
//!   many such contexts the node runs in parallel. Every stage send and
//!   every re-issue (pulse-acc bounce, iteration-budget continuation) books
//!   the engine, so the node saturates at `contexts / occupancy` packets
//!   per second and CPU-side queueing delay accumulates under load — the
//!   saturation knee the extended evaluation attributes the RPC baseline's
//!   collapse to, now reproducible for pulse itself in open-loop sweeps.
//!
//! `DispatchConfig { occupancy: 0, contexts: 1 }` (the default) disables
//! contention entirely and reproduces the PR 2 flat-adder traces
//! bit-for-bit; `tests/runtime_api.rs` guards that equivalence against
//! golden trace numbers.
//!
//! # CPU-node front end and hot-object cache
//!
//! Each CPU node's issue path is its NIC (its up-link on the rack's
//! [`pulse_net::Fabric`], which doubles as the issue queue), its
//! [`CpuDispatch`] engine and its sequence counter, all owned by
//! [`PulseCluster`], for pulse and both baselines alike. [`ClusterConfig::cache`] gives every CPU node
//! one such cache: when enabled, each stage first walks cached,
//! version-valid cells locally at [`CacheConfig::HIT_NS`] per hop and only
//! the remainder is offloaded, resumed from the last cached pointer;
//! accelerators then ship the cells they touched back
//! with the response (priced on the wire) to fill the cache. Hits are
//! version-validated against the rack memory's write epoch, so the
//! seqlock write path ages out stale lines instead of serving wrong
//! values — see the `pulse_frontend::cache` module docs for the exact
//! coherence semantics. Disabled (the default), the rack is bit-identical
//! to the cache-less model, guarded by the same golden-trace tests.
//!
//! # Examples
//!
//! The incremental API the `pulse::Runtime` façade drives (applications
//! normally go through that façade instead):
//!
//! ```
//! use pulse_core::{ClusterConfig, PulseCluster};
//! use pulse_ds::BuildCtx;
//! use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
//! use pulse_sim::SimTime;
//! use pulse_workloads::{Application, WebService, WebServiceConfig};
//!
//! // Build a (small) WebService deployment over two memory nodes...
//! let mut mem = ClusterMemory::new(2);
//! let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
//! let mut app = {
//!     let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
//!     WebService::build(&mut ctx, WebServiceConfig { keys: 500, ..Default::default() })?
//! };
//!
//! // ...submit requests and pump the event loop to completion.
//! let mut cluster = PulseCluster::try_new(ClusterConfig::default(), mem)?;
//! for i in 0..20u64 {
//!     cluster.submit_at(SimTime::from_nanos(10 * i), app.next_request());
//! }
//! let mut done = Vec::new();
//! while cluster.step() {
//!     done.extend(cluster.take_completions());
//! }
//! assert_eq!(done.len(), 20);
//! assert!(done.iter().all(|c| c.ok));
//! let report = cluster.report();
//! assert_eq!(report.completed, 20);
//! assert!(report.latency.mean.as_micros_f64() > 5.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod cxl;
mod rpc;
mod swap;

pub use cluster::{ClusterConfig, ClusterReport, Completion, PulseCluster, PulseMode};
pub use cxl::{cxl_study, CxlConfig, CxlSlowdown};
pub use pulse_accel::AccelConfig;
pub use pulse_frontend::{CacheConfig, CacheStats, CoalesceStats, TraversalCache};
pub use pulse_mem::{FaultEvent, FaultKind};
pub use pulse_sim::{CpuDispatch, DispatchConfig};
pub use pulse_trace::{
    LatencyBreakdown, Phase, PhaseAttribution, RunMetrics, TraceConfig, TraceSink, PHASES,
};
pub use rpc::RpcFlavor;
pub use swap::SwapStats;
