//! # pulse-ds
//!
//! The paper's data-structure library (§3, Tables 1 & 5): the thirteen
//! C++-library structures ported to pulse's iterator abstraction, plus the
//! B+Tree substrates behind the WiredTiger and BTrDB applications.
//!
//! Every structure follows the same split the paper prescribes:
//!
//! * **build** and structural mutation (inserts, splits) run host-side
//!   (the CPU node) and store each node's bytes into disaggregated memory
//!   with one write, placed by the allocator — at runtime, the `pulse-mutation`
//!   pipeline does this against pre-carved arenas;
//! * **traversals** — lookups, scans, *and* seqlock-verified reads and
//!   in-place updates (`pulse-mutation`'s `STORE`/`CAS` programs) — are
//!   offloaded PULSE ISA, compiled from an
//!   [`IterSpec`](pulse_dispatch::IterSpec) or assembled directly; and
//! * **`init()`** computes the start pointer + scratchpad at the CPU node.
//!
//! Per Table 5, APIs sharing an internal base function share one compiled
//! program: both lists use `std::find`, all three Boost hash containers use
//! the chained-bucket `find`, the four ordered trees use `lower_bound`, and
//! Google's btree uses `internal_locate` ([`catalog`] spells out the map).
//!
//! # Examples
//!
//! ```
//! use pulse_ds::{BuildCtx, HashMapDs};
//! use pulse_dispatch::compile;
//! use pulse_isa::Interpreter;
//! use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
//!
//! let mut mem = ClusterMemory::new(4);
//! let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
//! let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
//! let map = HashMapDs::build(&mut ctx, 16, &[(1, 10), (2, 20)])?;
//!
//! let prog = compile(&HashMapDs::find_spec())?;
//! let mut state = map.init_find(&prog, 2);
//! let run = Interpreter::new().run_traversal(&prog, &mut state, &mut mem, 4096)?;
//! assert_eq!(run.return_code, Some(0)); // found
//! assert_eq!(state.scratch_u64(8), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bptree;
mod bst;
mod btree;
mod catalog;
mod common;
mod hash;
mod list;
mod traversal;

pub use bptree::{
    decode_located_leaf, wt_layout, BtrdbTree, BtrdbWindowScan, TreePlacement, WiredTigerScan,
    WiredTigerTree,
};
pub use bst::{layout as bst_layout, BstKind, SearchTree};
pub use btree::{leaf_layout as btree_leaf_layout, GoogleBTree};
pub use catalog::{catalog, BuildFn, Category, Library, PortedStructure};
pub use common::{fnv1a, init_state, BuildCtx, DsError};
pub use hash::{BimapDs, HashMapDs, HashSetDs, SENTINEL_KEY};
pub use list::{LinkedList, ListKind};
pub use traversal::{StagePlan, StageStart, Traversal};
