//! # pulse-baselines
//!
//! The systems pulse is compared against in §6:
//!
//! | system | model |
//! |---|---|
//! | **Cache-based** (Fastswap) | the CPU node runs each request over a 4 KiB-page LRU; a miss pays fault software and the swap pipe, then reads the page from its memory node like an object read |
//! | **RPC** | traversals run on Xeon worker cores at the owning memory node; node crossings bounce through the CPU node |
//! | **RPC-ARM** | same, on wimpy Cortex-A72 SmartNIC cores |
//! | **Cache+RPC** (AIFM) | an object LRU at the CPU node serves hot objects locally; traversals take the RPC path with TCP-stack overhead |
//!
//! All four run the exact same `AppRequest` streams as pulse —
//! functionally identical results, different timing — on the pulse
//! rack's own event engine (`pulse_core::PulseMode::Swap` and
//! `pulse_core::PulseMode::Rpc`), so they pay for the same fabric,
//! dispatch engines, faults, failover and tracing as pulse. This crate
//! holds their configurations ([`SwapConfig`], [`RpcConfig`]); the `pulse`
//! façade's `BaselineEngine` builds the rack from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod systems;

pub use systems::{RpcConfig, RpcFlavor, SwapConfig};
// The CPU-node mechanisms the baselines' configs name, shared with the
// pulse rack: the LRU behind the page and object caches, the coherent
// traversal-cell cache, and the dispatch-engine model.
pub use pulse_frontend::{CacheConfig, LruSet, TraversalCache};
pub use pulse_sim::{CpuDispatch, DispatchConfig};
