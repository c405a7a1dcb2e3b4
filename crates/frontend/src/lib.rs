//! # pulse-frontend
//!
//! The shared **CPU-node front end**: everything a compute node does on
//! the issue path, factored out of the three execution engines (the pulse
//! rack, the RPC family, and the swap-cache baseline) so they share one
//! implementation.
//!
//! * [`CpuFrontEnd`] — per-CPU-node state: the NIC/issue-queue link, the
//!   serial dispatch engine, the request sequence counter, and the
//!   optional cache;
//! * [`CacheConfig`] / [`TraversalCache`] — a deterministic, coherent LRU
//!   over traversal cells with version-validated hits (see the
//!   [`cache`](crate::cache) module docs for the exact coherence
//!   semantics: every hit re-validates against the rack memory's write
//!   epoch, so locked updates age out stale lines instead of serving
//!   wrong values). Disabled by default — all engines then reproduce
//!   their cache-less traces bit-for-bit;
//! * [`prefix_walk`] — the fast path: walk cached hops locally at
//!   DRAM-hit cost, then offload the remainder from the last cached
//!   pointer (resume-by-pointer, the continuation the PULSE ISA already
//!   carries);
//! * [`PrefixCoalescer`] — ISA-v2 shared-prefix coalescing: queued
//!   requests whose traversal plans are identical ride one offloaded
//!   packet and fan back out when its response lands (see the
//!   [`coalesce`](crate::coalesce) module docs for the exact matching and
//!   detachment semantics). Off by default;
//! * [`replay`] — the FIFO multi-server closed-/open-loop admission
//!   helpers the replay baselines price request streams through.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod coalesce;
mod frontend;
mod lru;
pub mod replay;

pub use cache::{CacheBus, CacheConfig, CacheStats, TraversalCache};
pub use coalesce::{CoalesceStats, PrefixCoalescer, Role};
pub use frontend::{prefix_walk, CpuFrontEnd, WalkOutcome, WALK_HOP_CAP};
pub use lru::LruSet;
