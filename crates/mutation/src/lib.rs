//! # pulse-mutation
//!
//! The write path: what it takes to keep offloaded traversals correct when
//! the data structures underneath them change. PULSE (§3, §6) splits
//! mutation between the CPU nodes and the memory side — in-place updates
//! ride the same offload machinery as lookups, while structural changes
//! (inserts, splits) go through the host build/allocator path — and Tiara
//! (PAPERS.md) argues the write primitives themselves must live in the
//! remote-memory ISA rather than bounce every byte through a CPU node.
//! This crate implements both halves over the `Store`/`Cas` instructions
//! of `pulse-isa`.
//!
//! ## The seqlock protocol
//!
//! Every hash bucket's sentinel node carries a **version word** in its
//! (otherwise unused) value slot — even = quiescent, odd = a writer holds
//! the bucket. The protocol, executed entirely *inside* offloaded
//! programs so no extra round trips are added:
//!
//! * **Readers** ([`verified_find_program`]) record the version `v0` when
//!   they pass the sentinel (fail fast with [`codes::RETRY`] if it is odd)
//!   and, at every exit — hit or miss — re-load the bucket version with an
//!   explicit `LOAD` and compare. A mismatch means an update raced the
//!   walk: the traversal returns [`codes::RETRY`] instead of possibly-torn
//!   data.
//! * **Writers** ([`locked_update_program`]) acquire the bucket with a
//!   single `CAS` (even → odd) at the sentinel, walk the chain under the
//!   lock, `STORE` the new value in place, and release by storing
//!   `v0 + 2`. A writer that finds the bucket locked, or loses the `CAS`,
//!   returns [`codes::RETRY`] without touching data.
//!
//! ## Bounded retries
//!
//! A traversal that returns [`codes::RETRY`] is re-planned and re-issued
//! by the issuing CPU node — `pulse-core` routes it through the node's
//! dispatch engine like any send, bounded by the request's
//! [`RetryPolicy`](pulse_workloads::RetryPolicy) (default
//! [`MutationConfig::max_retries`]). Exhausting the bound fault-completes
//! the request, so a livelocked hot key shows up as *loss* in the report
//! (`RunMetrics::retries`) instead of hanging the rack. Retries are a
//! measured quantity, not a hidden one.
//!
//! ## Structural mutations
//!
//! Inserts cannot be offloaded — they need the allocator. They run
//! host-side through [`wt_host_insert`]: node/value slots come from an
//! [`InsertArena`] pre-carved at build time (the switch's global table and
//! each node's TCAM are snapshotted when the cluster is constructed, so
//! post-build extents would be invisible to the traversal path), and the
//! timed request the rack executes books the CPU node's dispatch engine,
//! the locate traversal, and the entry's wire/DMA write — the same
//! resources a real CPU-side insert would occupy.
//!
//! ## Interaction with the CPU-node front-end cache
//!
//! When the rack runs with a `pulse-frontend` traversal-cell cache, a
//! verified read whose bucket cells are all resident *and* version-valid
//! (every hit is re-validated against the rack memory's per-line write
//! epoch) executes entirely at the CPU node — the seqlock version check
//! then runs against a coherent snapshot, so it can never observe torn
//! data. Every `STORE`/`CAS` a locked update lands bumps the touched
//! lines' write epochs, aging the reader-side lines out: the next cached
//! walk misses, goes remote, and refills with the new value. A cached
//! walk that observes a *locked* bucket (filled mid-update) retries with
//! the cache bypassed once, so it re-observes memory instead of spinning
//! on the same coherent-but-locked snapshot. Writers themselves never
//! execute from cache — the cache bus refuses stores.
//!
//! ## Known model limits
//!
//! The simulation applies host-side inserts when the request stream is
//! *minted* (submission order), not at the simulated instant of their
//! completion; offloaded updates, by contrast, mutate memory at their
//! actual simulated execution time, which is where retries come from. A
//! writer that faults mid-walk leaves its bucket locked — readers then
//! exhaust their retry budgets and fault, which is the honest observable
//! of that failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pipeline;
mod seqlock;

pub use pipeline::{wt_host_insert, InsertArena, InsertOutcome, OVERFLOW_TAG, WT_INSERT_CPU_WORK};
pub use seqlock::{
    codes, locked_update_program, locked_update_stage, retrying_request, sp, verified_find_program,
    verified_read_stage, MutationConfig,
};
