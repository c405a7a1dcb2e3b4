//! # pulse-baselines
//!
//! The systems pulse is compared against in §6:
//!
//! | system | model |
//! |---|---|
//! | **Cache-based** (Fastswap) | an analytic replay: CPU-node execution over a 4 KiB-page LRU; misses pay fault software + RTT + page wire time through a serialized swap pipe |
//! | **RPC** | traversals run on Xeon worker cores at the owning memory node; node crossings bounce through the CPU node |
//! | **RPC-ARM** | same, on wimpy Cortex-A72 SmartNIC cores |
//! | **Cache+RPC** (AIFM) | an object LRU at the CPU node serves hot objects locally; traversals take the RPC path with TCP-stack overhead |
//!
//! All four run the exact same [`AppRequest`](pulse_workloads::AppRequest)
//! streams as pulse — functionally identical results, different timing.
//! The RPC family runs on the pulse rack's own event engine
//! (`pulse_core::PulseMode::Rpc`), so it pays for the same fabric,
//! dispatch engines, front-end cache, faults, failover and rebuilds as
//! pulse; this crate holds its configuration ([`RpcConfig`]). Only the swap
//! system is a replay ([`run_swap_cache`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod systems;

pub use systems::{run_swap_cache, BaselineReport, RpcConfig, RpcFlavor, SwapConfig};
// The CPU-node mechanisms shared with the pulse rack: the LRU backing the
// page cache, the coherent traversal-cell cache, and the dispatch-engine
// model — so baseline configs stay apples-to-apples with the cluster by
// construction.
pub use pulse_frontend::{CacheConfig, LruSet, TraversalCache};
pub use pulse_sim::{CpuDispatch, DispatchConfig};
