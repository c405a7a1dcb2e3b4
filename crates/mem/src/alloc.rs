//! The cluster allocator: extent-granularity placement across memory nodes.
//!
//! §2.1: disaggregated systems "strive for the smallest viable allocation
//! granularity" (1 GB in MIND, 2 MB in LegoOS) because "smaller allocations
//! permit better load balancing and high memory utilization" — at the cost
//! of fragmenting linked structures across nodes (Fig. 2(b)/(c)). The
//! allocation *policy* experiments (Appendix Fig. 5) compare uniform-random
//! placement against application-partitioned placement.

use crate::cluster::ClusterMemory;
use crate::extent::{NodeId, Perms};
use pulse_sim::{IdHash, SplitMix64};
use std::collections::HashMap;

/// Virtual addresses start here; address 0 stays unmapped so it can serve
/// as the null pointer every list/tree terminator relies on.
pub const VA_BASE: u64 = 0x0001_0000_0000;

/// How new extents are placed on memory nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Extents cycle round-robin over the nodes — the granularity-striping
    /// behaviour of Fastswap/LegoOS/MIND-style allocators.
    Striped,
    /// Each extent lands on a uniformly random node (the "Random"/glibc-like
    /// policy of Appendix Fig. 5).
    Random {
        /// RNG seed for deterministic placement.
        seed: u64,
    },
    /// Every extent on one node (single-memory-node configurations).
    Single(NodeId),
}

/// Bump allocator over node-placed extents.
///
/// Allocations never cross extent boundaries, so a data-structure node is
/// always wholly on one memory node — the invariant the distributed
/// traversal logic relies on.
///
/// # Examples
///
/// ```
/// use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
///
/// let mut mem = ClusterMemory::new(4);
/// let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
/// let a = alloc.alloc(&mut mem, 64)?;
/// let b = alloc.alloc(&mut mem, 64)?;
/// assert_ne!(a, b);
/// // Both fit the first 4 KiB extent: same node.
/// assert_eq!(mem.owner_of(a), mem.owner_of(b));
/// # Ok::<(), pulse_mem::MemError>(())
/// ```
#[derive(Debug)]
pub struct ClusterAllocator {
    placement: Placement,
    granularity: u64,
    next_extent_va: u64,
    /// Open extent for policy-driven allocation: (cursor, end).
    open: Option<(u64, u64)>,
    /// Open extent per node for placement-hinted allocation: (cursor,
    /// end). Never iterated, so the hasher's order reaches no output.
    open_on: HashMap<NodeId, (u64, u64), IdHash>,
    next_rr: usize,
    rng: SplitMix64,
}

impl ClusterAllocator {
    /// Creates an allocator placing `granularity`-byte extents.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero or not 8-byte aligned.
    pub fn new(placement: Placement, granularity: u64) -> Self {
        assert!(
            granularity > 0 && granularity.is_multiple_of(8),
            "bad granularity"
        );
        let seed = match placement {
            Placement::Random { seed } => seed,
            _ => 0,
        };
        ClusterAllocator {
            placement,
            granularity,
            next_extent_va: VA_BASE,
            open: None,
            open_on: HashMap::default(),
            next_rr: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The extent granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    fn pick_node(&mut self, mem: &ClusterMemory) -> NodeId {
        match self.placement {
            Placement::Striped => {
                let node = self.next_rr % mem.node_count();
                self.next_rr += 1;
                node
            }
            Placement::Random { .. } => self.rng.next_below(mem.node_count() as u64) as usize,
            Placement::Single(node) => node,
        }
    }

    fn open_extent(
        &mut self,
        mem: &mut ClusterMemory,
        node: NodeId,
        min_len: u64,
    ) -> Result<(u64, u64), crate::cluster::MemError> {
        // Oversized allocations get a dedicated multi-granularity extent
        // (still on a single node).
        let len = min_len.div_ceil(self.granularity) * self.granularity;
        let start = self.next_extent_va;
        self.next_extent_va += len;
        mem.add_extent(start, len, node, Perms::RW)?;
        Ok((start, start + len))
    }

    /// Allocates `size` bytes (8-byte aligned) wherever the policy dictates.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`](crate::MemError) from extent creation (e.g. a
    /// `Single` policy naming a nonexistent node).
    pub fn alloc(
        &mut self,
        mem: &mut ClusterMemory,
        size: u64,
    ) -> Result<u64, crate::cluster::MemError> {
        let size = size.div_ceil(8) * 8;
        let need_new = match self.open {
            Some((cursor, end)) => cursor + size > end,
            None => true,
        };
        if need_new {
            let node = self.pick_node(mem);
            self.open = Some(self.open_extent(mem, node, size)?);
        }
        let (cursor, end) = self.open.expect("just opened");
        let addr = cursor;
        self.open = Some((cursor + size, end));
        Ok(addr)
    }

    /// Allocates `size` bytes guaranteed to live on `node` — the
    /// application-partitioned policy of Appendix Fig. 5 (e.g. "all nodes in
    /// half the subtree on one memory node").
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`](crate::MemError) (e.g. bad node id).
    pub fn alloc_on(
        &mut self,
        mem: &mut ClusterMemory,
        node: NodeId,
        size: u64,
    ) -> Result<u64, crate::cluster::MemError> {
        let size = size.div_ceil(8) * 8;
        if let Some((cursor, end)) = self.open_on.get_mut(&node) {
            if *cursor + size <= *end {
                let addr = *cursor;
                *cursor += size;
                return Ok(addr);
            }
        }
        let (start, end) = self.open_extent(mem, node, size)?;
        self.open_on.insert(node, (start + size, end));
        Ok(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_placement_cycles_nodes() {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 64);
        // 64 B extents, 64 B allocations: every alloc opens a new extent.
        let owners: Vec<NodeId> = (0..8)
            .map(|_| {
                let a = alloc.alloc(&mut mem, 64).unwrap();
                mem.owner_of(a).unwrap()
            })
            .collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn allocations_within_extent_share_node() {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let first = alloc.alloc(&mut mem, 64).unwrap();
        let owner = mem.owner_of(first).unwrap();
        for _ in 0..63 {
            let a = alloc.alloc(&mut mem, 64).unwrap();
            assert_eq!(mem.owner_of(a), Some(owner));
        }
        // 65th 64-byte alloc spills to the next extent/node.
        let spill = alloc.alloc(&mut mem, 64).unwrap();
        assert_ne!(mem.owner_of(spill), Some(owner));
    }

    #[test]
    fn random_placement_is_deterministic_and_spread() {
        let mut mem1 = ClusterMemory::new(4);
        let mut mem2 = ClusterMemory::new(4);
        let mut a1 = ClusterAllocator::new(Placement::Random { seed: 9 }, 64);
        let mut a2 = ClusterAllocator::new(Placement::Random { seed: 9 }, 64);
        let o1: Vec<_> = (0..64)
            .map(|_| {
                let a = a1.alloc(&mut mem1, 64).unwrap();
                mem1.owner_of(a).unwrap()
            })
            .collect();
        let o2: Vec<_> = (0..64)
            .map(|_| {
                let a = a2.alloc(&mut mem2, 64).unwrap();
                mem2.owner_of(a).unwrap()
            })
            .collect();
        assert_eq!(o1, o2, "same seed, same placement");
        let distinct: std::collections::HashSet<_> = o1.iter().collect();
        assert!(distinct.len() > 1, "random placement uses several nodes");
    }

    #[test]
    fn single_placement_stays_put() {
        let mut mem = ClusterMemory::new(3);
        let mut alloc = ClusterAllocator::new(Placement::Single(2), 128);
        for _ in 0..10 {
            let a = alloc.alloc(&mut mem, 100).unwrap();
            assert_eq!(mem.owner_of(a), Some(2));
        }
    }

    #[test]
    fn alloc_on_pins_node_with_per_node_extents() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 256);
        let a = alloc.alloc_on(&mut mem, 0, 64).unwrap();
        let b = alloc.alloc_on(&mut mem, 1, 64).unwrap();
        let c = alloc.alloc_on(&mut mem, 0, 64).unwrap();
        assert_eq!(mem.owner_of(a), Some(0));
        assert_eq!(mem.owner_of(b), Some(1));
        assert_eq!(mem.owner_of(c), Some(0));
        // a and c come from the same node-0 extent.
        assert_eq!(c, a + 64);
    }

    #[test]
    fn oversized_allocation_gets_own_extent() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 64);
        let big = alloc.alloc(&mut mem, 1000).unwrap();
        // Whole kilobyte readable on one node.
        let owner = mem.owner_of(big).unwrap();
        assert_eq!(mem.owner_of(big + 999), Some(owner));
    }

    #[test]
    fn null_address_never_allocated() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let a = alloc.alloc(&mut mem, 8).unwrap();
        assert!(a >= VA_BASE);
        assert_eq!(mem.owner_of(0), None);
    }

    #[test]
    fn single_policy_bad_node_errors() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(5), 64);
        assert!(alloc.alloc(&mut mem, 8).is_err());
    }

    #[test]
    #[should_panic(expected = "bad granularity")]
    fn unaligned_granularity_panics() {
        let _ = ClusterAllocator::new(Placement::Striped, 13);
    }
}
