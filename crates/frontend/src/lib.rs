//! # pulse-frontend
//!
//! The **CPU-node mechanisms** the execution engines share: what a
//! compute node runs on the issue path besides its NIC and dispatch engine
//! (which the rack owns per CPU node).
//!
//! * [`CacheConfig`] / [`TraversalCache`] — a deterministic, coherent LRU
//!   over traversal cells with version-validated hits (see the
//!   [`cache`] module docs for the exact coherence
//!   semantics: every hit re-validates against the rack memory's write
//!   epoch, so locked updates age out stale lines instead of serving
//!   wrong values). Disabled by default — all engines then reproduce
//!   their cache-less traces bit-for-bit. The rack runs it, for pulse
//!   and RPC alike;
//! * [`prefix_walk`] — the fast path: walk cached hops locally at
//!   DRAM-hit cost, then offload the remainder from the last cached
//!   pointer (resume-by-pointer, the continuation the PULSE ISA already
//!   carries);
//! * [`PrefixCoalescer`] — ISA-v2 shared-prefix coalescing: queued
//!   requests whose traversal plans are identical ride one offloaded
//!   packet and fan back out when its response lands (see the
//!   [`coalesce`] module docs for the exact matching and
//!   detachment semantics). Off by default;
//! * [`LruSet`] — the plain LRU set behind the swap baseline's page
//!   cache, AIFM's object cache and the CXL study's cache levels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod coalesce;
mod frontend;
mod lru;

pub use cache::{CacheBus, CacheConfig, CacheStats, TraversalCache};
pub use coalesce::{CoalesceStats, PrefixCoalescer, Role};
pub use frontend::{prefix_walk, WalkOutcome, WALK_HOP_CAP};
pub use lru::LruSet;
