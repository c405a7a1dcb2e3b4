//! # pulse-mem
//!
//! The disaggregated-memory substrate: the rack's byte-addressable memory,
//! carved into node-placed extents, with the two-level address translation
//! of the paper's §5:
//!
//! * [`ClusterMemory`] — ground-truth storage for every extent on every
//!   memory node, offering a *global* [`pulse_isa::MemBus`] view (host-side
//!   builders, swap/RPC baselines) and a *node-local* view
//!   ([`ClusterMemory::local_bus`]) that faults on off-node addresses — the
//!   signal the accelerator converts into a switch reroute;
//! * [`RangeTable`] — the node-local TCAM translation/protection table;
//! * [`GlobalRangeMap`] — the switch's range→node routing table;
//! * [`ClusterAllocator`] — extent-granularity placement with the striping /
//!   random / single-node policies the evaluation sweeps (Fig. 2(b),
//!   Appendix Fig. 5).
//!
//! # Mapped and backed memory
//!
//! Extents are *mapped* memory: [`ClusterMemory::node_bytes`] sums their
//! lengths, and they decide which accesses fault. Host memory backs only
//! what is *written*: bytes live in 256 B blocks, carved the first time a
//! byte in them is written and keyed by absolute address, so a block can
//! hold the ends of two small extents. [`ClusterMemory::backed_bytes`]
//! counts them. A byte never written reads as 0. Each block also carries
//! the write versions of its [`VERSION_GRANULE_BYTES`] granules, the
//! coherence clock [`ClusterMemory::version_of`] reads; a granule never
//! written has version 0. A structure's build therefore costs host memory
//! and time in proportion to the bytes it writes, not to the extents it
//! maps.
//!
//! # Examples
//!
//! ```
//! use pulse_isa::MemBus;
//! use pulse_mem::{ClusterAllocator, ClusterMemory, GlobalRangeMap, Placement};
//!
//! // Four memory nodes, 4 KiB extents striped across them.
//! let mut mem = ClusterMemory::new(4);
//! let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
//!
//! // Allocate a few kilobytes; the global map can then route any address.
//! let addrs: Vec<u64> = (0..4)
//!     .map(|_| alloc.alloc(&mut mem, 4096))
//!     .collect::<Result<_, _>>()?;
//! let switch_table = GlobalRangeMap::new(&mem.all_ranges());
//! for a in addrs {
//!     mem.write_word(a, a, 8)?;
//!     assert_eq!(switch_table.lookup(a), mem.owner_of(a));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_debug_implementations)]

mod alloc;
mod cluster;
mod extent;
mod fault;
mod store;
mod xlate;

pub use alloc::{ClusterAllocator, Placement, VA_BASE};
pub use cluster::{ClusterMemory, LocalBus, MemError, VERSION_GRANULE_BYTES};
pub use extent::{NodeId, Perms};
pub use fault::{degraded_window, FaultEvent, FaultKind};
pub use xlate::{CapacityExceeded, GlobalRangeMap, RangeEntry, RangeTable};
