//! # pulse-workloads
//!
//! Workload generation for the evaluation (§6): YCSB operation mixes and
//! key distributions, the three applications (WebService, WiredTiger,
//! BTrDB), the synthetic μPMU telemetry stream, open-loop arrival
//! processes ([`ArrivalProcess`]: Poisson / uniform / trace replay), and a
//! functional request executor with full access tracing.
//!
//! The central abstraction is [`AppRequest`]: a staged dataflow of
//! offloadable traversals, bulk object I/O, and CPU-node work. pulse, the
//! RPC baselines, and the swap-cache baseline all execute the same
//! requests; only placement and timing differ. [`execute_functional`] runs
//! a request against the global memory view, producing ground-truth results
//! plus the per-access trace that the swap-cache baseline and the
//! Fig. 2(b)/(c) crossing analysis replay.
//!
//! # Examples
//!
//! ```
//! use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
//! use pulse_workloads::{
//!     execute_functional, Application, WebService, WebServiceConfig,
//! };
//! use pulse_ds::BuildCtx;
//! use pulse_isa::Interpreter;
//!
//! let mut mem = ClusterMemory::new(4);
//! let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
//! let mut app = {
//!     let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
//!     WebService::build(&mut ctx, WebServiceConfig { keys: 500, ..Default::default() })?
//! };
//! let req = app.next_request();
//! let run = execute_functional(&mut Interpreter::new(), &mut mem, &req, 4096)?;
//! assert!(run.response.iterations > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apps;
mod arrival;
mod exec;
mod request;
mod upmu;
mod ycsb;
mod zipf;

pub use apps::{
    Application, Btrdb, BtrdbConfig, WebService, WebServiceConfig, WiredTiger, WiredTigerConfig,
    WEBSERVICE_CPU_WORK, WT_ENTRY_BYTES, WT_SCAN_CPU_WORK,
};
pub use arrival::ArrivalProcess;
pub use exec::{execute_functional, Access, ExecError, FunctionalRun, FUNCTIONAL_ITERS};
pub use request::{
    AddrSource, AppRequest, AppResponse, ObjectIo, RequestError, RetryPolicy, StartPtr,
    TraversalStage,
};
pub use upmu::{generate as upmu_generate, Channel, SAMPLE_INTERVAL_NS, UPMU_RATE_HZ};
pub use ycsb::{OpKind, YcsbWorkload};
pub use zipf::{Distribution, KeyChooser, UniformChooser, ZipfianChooser, YCSB_ZIPFIAN_THETA};

/// FNV-1a scramble used by the scrambled-Zipfian chooser (re-exported from
/// the data-structure library so bucket hashing and key scrambling share
/// one definition).
pub fn fnv_scramble(x: u64) -> u64 {
    pulse_ds::fnv1a(x)
}
