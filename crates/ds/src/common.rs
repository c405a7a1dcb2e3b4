//! Shared plumbing for structures living in simulated memory.

use pulse_isa::{IterState, MemBus, MemFault, Program};
use pulse_mem::{ClusterAllocator, ClusterMemory, MemError, NodeId};
use std::fmt;

/// Errors raised while building or querying a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsError {
    /// Memory shaping failed (allocator / extent errors).
    Mem(MemError),
    /// A host-side read/write of simulated memory faulted.
    Access(MemFault),
    /// The structure is empty and the operation needs at least one node.
    Empty,
}

impl fmt::Display for DsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsError::Mem(e) => write!(f, "memory error: {e}"),
            DsError::Access(e) => write!(f, "access fault: {e}"),
            DsError::Empty => write!(f, "structure is empty"),
        }
    }
}

impl std::error::Error for DsError {}

impl From<MemError> for DsError {
    fn from(e: MemError) -> Self {
        DsError::Mem(e)
    }
}

impl From<MemFault> for DsError {
    fn from(e: MemFault) -> Self {
        DsError::Access(e)
    }
}

/// The building context: the rack's memory plus the placement-policy
/// allocator, passed to every structure builder.
#[derive(Debug)]
pub struct BuildCtx<'a> {
    /// The rack's memory.
    pub mem: &'a mut ClusterMemory,
    /// The extent allocator (placement policy inside).
    pub alloc: &'a mut ClusterAllocator,
}

impl<'a> BuildCtx<'a> {
    /// Creates a context.
    pub fn new(mem: &'a mut ClusterMemory, alloc: &'a mut ClusterAllocator) -> Self {
        BuildCtx { mem, alloc }
    }

    /// Allocates `size` bytes by policy.
    pub fn alloc(&mut self, size: u64) -> Result<u64, DsError> {
        Ok(self.alloc.alloc(self.mem, size)?)
    }

    /// Allocates `size` bytes pinned to `node`.
    pub fn alloc_on(&mut self, node: usize, size: u64) -> Result<u64, DsError> {
        Ok(self.alloc.alloc_on(self.mem, node, size)?)
    }

    /// Allocates `size` bytes on `node`, or by policy when `node` is
    /// `None`.
    pub fn alloc_placed(&mut self, node: Option<NodeId>, size: u64) -> Result<u64, DsError> {
        match node {
            Some(node) => self.alloc_on(node, size),
            None => self.alloc(size),
        }
    }

    /// Writes a u64 field.
    pub fn put(&mut self, addr: u64, off: i64, v: u64) -> Result<(), DsError> {
        Ok(self.mem.write_word(addr.wrapping_add(off as u64), v, 8)?)
    }

    /// Writes a node put together on the host with one store.
    pub(crate) fn store(&mut self, addr: u64, node: &NodeImage) -> Result<(), DsError> {
        Ok(self.mem.write(addr, node.bytes())?)
    }

    /// Reads a u64 field.
    pub fn get(&mut self, addr: u64, off: i64) -> Result<u64, DsError> {
        Ok(self.mem.read_word(addr.wrapping_add(off as u64), 8)?)
    }
}

/// A node's bytes, put together on the host so a builder stores the node
/// with one write instead of one per field.
///
/// Only the span from offset 0 to the end of the last field set is
/// stored. Every builder sets offset 0, so the store backs exactly the
/// blocks the same fields written one word at a time would back. Fields
/// left unset inside the span are stored as zeros, which is what an
/// unwritten byte reads as.
#[derive(Debug)]
pub(crate) struct NodeImage {
    bytes: [u8; NodeImage::MAX_BYTES],
    len: usize,
}

impl NodeImage {
    /// The largest node an image holds (a B+tree node is 216 B).
    const MAX_BYTES: usize = 256;

    /// An image with no field set.
    pub(crate) fn new() -> Self {
        NodeImage {
            bytes: [0; Self::MAX_BYTES],
            len: 0,
        }
    }

    /// Sets the u64 field at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the field ends past [`NodeImage::MAX_BYTES`].
    pub(crate) fn set(&mut self, off: i32, v: u64) -> &mut Self {
        let at = off as usize;
        self.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        self.len = self.len.max(at + 8);
        self
    }

    /// The bytes from offset 0 to the end of the last field set.
    fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Prepares the traversal's initial [`IterState`] with the scratchpad
/// pre-populated word-by-word — the `init()` step that always runs at the
/// CPU node (§3).
pub fn init_state(program: &Program, cur_ptr: u64, scratch_words: &[(u16, u64)]) -> IterState {
    let mut st = IterState::new(program, cur_ptr);
    for &(off, v) in scratch_words {
        st.set_scratch_u64(off as usize, v);
    }
    st
}

/// FNV-1a — the deterministic hash shared by the hash-table builders and
/// their CPU-side `init()` (bucket selection must agree between build and
/// query time).
pub fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_mem::Placement;

    #[test]
    fn build_ctx_round_trips_fields() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let a = ctx.alloc(64).unwrap();
        ctx.put(a, 8, 1234).unwrap();
        assert_eq!(ctx.get(a, 8).unwrap(), 1234);
        let b = ctx.alloc_on(1, 64).unwrap();
        assert_eq!(ctx.mem.owner_of(b), Some(1));
    }

    #[test]
    fn a_node_image_stores_up_to_its_last_field() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let a = ctx.alloc(64).unwrap();
        let mut node = NodeImage::new();
        node.set(16, 7).set(0, 3);
        assert_eq!(node.bytes().len(), 24);
        ctx.store(a, &node).unwrap();
        assert_eq!(ctx.get(a, 0).unwrap(), 3);
        assert_eq!(ctx.get(a, 8).unwrap(), 0);
        assert_eq!(ctx.get(a, 16).unwrap(), 7);
        assert_eq!(ctx.mem.write_epoch(), 1, "one store per node");
    }

    #[test]
    fn fnv_is_deterministic_and_spread() {
        assert_eq!(fnv1a(42), fnv1a(42));
        let mut buckets = [0u32; 16];
        for k in 0..10_000u64 {
            buckets[(fnv1a(k) % 16) as usize] += 1;
        }
        let min = *buckets.iter().min().unwrap();
        let max = *buckets.iter().max().unwrap();
        assert!(min > 400 && max < 900, "spread {buckets:?}");
    }

    #[test]
    fn error_display() {
        assert!(!DsError::Empty.to_string().is_empty());
        assert!(!DsError::Access(MemFault::NotMapped { addr: 1 })
            .to_string()
            .is_empty());
    }
}
