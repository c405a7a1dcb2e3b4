//! The rack's memory: every extent on every node, with global and
//! node-local access views.

use crate::extent::{Extent, NodeId, Perms};
use crate::store::BlockStore;
use pulse_isa::{MemBus, MemFault};
use std::collections::HashMap;
use std::fmt;

/// Granularity at which [`ClusterMemory`] stamps write versions (bytes).
/// Fine enough that any cache-line size ≥ 8 B validates exactly.
pub const VERSION_GRANULE_BYTES: u64 = 64;

/// Errors raised when shaping the address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The new extent overlaps an existing one.
    Overlap {
        /// Start of the offending new extent.
        start: u64,
    },
    /// The node id is out of range.
    BadNode(NodeId),
    /// Extent length was zero.
    EmptyExtent,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Overlap { start } => {
                write!(f, "extent at {start:#x} overlaps an existing extent")
            }
            MemError::BadNode(n) => write!(f, "memory node {n} does not exist"),
            MemError::EmptyExtent => write!(f, "extent length must be positive"),
        }
    }
}

impl std::error::Error for MemError {}

/// All disaggregated memory in the rack.
///
/// Extents map address ranges onto nodes; bytes are backed only where
/// they are written (see the crate docs), so building a structure costs
/// host memory in proportion to what it writes, not to what it maps.
///
/// `ClusterMemory` is the ground truth: the global [`MemBus`] view is used
/// by host-side structure builders and the swap/RPC baselines, while
/// [`ClusterMemory::local_bus`] provides the restricted per-node view the
/// accelerator executes against (anything off-node faults `NotMapped`,
/// which the accelerator turns into a switch reroute, §5).
///
/// # Examples
///
/// ```
/// use pulse_mem::{ClusterMemory, Perms};
/// use pulse_isa::MemBus;
///
/// let mut mem = ClusterMemory::new(2);
/// mem.add_extent(0x1000, 0x1000, 0, Perms::RW)?;
/// mem.add_extent(0x2000, 0x1000, 1, Perms::RW)?;
/// mem.write_word(0x2008, 42, 8)?;
/// assert_eq!(mem.read_word(0x2008, 8)?, 42);
/// assert_eq!(mem.owner_of(0x2008), Some(1));
///
/// // Node 0 cannot see node 1's bytes.
/// let mut local = mem.local_bus(0);
/// assert!(local.read_word(0x2008, 8).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterMemory {
    /// Extents sorted by start address.
    extents: Vec<Extent>,
    /// log2 of the smallest extent's length, rounded down. Allocators
    /// place extents of one size back to back, so extent `i` usually
    /// starts `i << guess_shift` bytes above the first.
    guess_shift: u32,
    node_count: usize,
    /// Monotone counter bumped by every successful write — the coherence
    /// clock CPU-node caches validate against.
    write_epoch: u64,
    /// Monotone counter bumped by every change to what a [`LocalBus`] can
    /// reach apart from the bytes themselves: extents, permissions, the
    /// replication factor and promoted replicas.
    layout_epoch: u64,
    /// The written bytes of every extent, with the last-write epoch of
    /// each [`VERSION_GRANULE_BYTES`]-aligned granule, keyed by absolute
    /// address.
    store: BlockStore,
    /// Copies kept per extent. 1 (the default) reproduces the single-owner
    /// model bit-for-bit; `r` places each extent on its owner plus the
    /// `r - 1` nodes following it mod `node_count`.
    replication: usize,
    /// Per-node health, toggled by fault injection. Placement ignores it;
    /// routing queries it to fail over.
    node_up: Vec<bool>,
    /// Replicas added after placement (re-replication rebuild targets),
    /// keyed by extent start. Promotion only ever adds nodes — a recovered
    /// primary comes back into an over-replicated set rather than finding
    /// its slot stolen.
    promoted: HashMap<u64, Vec<NodeId>>,
}

impl ClusterMemory {
    /// Creates empty memory spread over `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "need at least one memory node");
        ClusterMemory {
            extents: Vec::new(),
            guess_shift: u64::BITS - 1,
            node_count,
            write_epoch: 0,
            layout_epoch: 0,
            store: BlockStore::default(),
            replication: 1,
            node_up: vec![true; node_count],
            promoted: HashMap::new(),
        }
    }

    /// Sets the number of copies kept per extent (capped at the node
    /// count). Replication 1 is the single-owner model. Call before
    /// building structures so local TCAMs pick up the replicated ranges.
    ///
    /// # Panics
    ///
    /// Panics if `replication == 0`.
    pub fn set_replication(&mut self, replication: usize) {
        assert!(replication >= 1, "replication factor must be at least 1");
        self.replication = replication.min(self.node_count);
        self.layout_epoch += 1;
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Marks `node` crashed or partitioned away: it stops hosting anything
    /// until [`ClusterMemory::recover_node`].
    pub fn fail_node(&mut self, node: NodeId) {
        assert!(node < self.node_count, "no such memory node");
        self.node_up[node] = false;
    }

    /// Brings `node` back with its extents intact.
    pub fn recover_node(&mut self, node: NodeId) {
        assert!(node < self.node_count, "no such memory node");
        self.node_up[node] = true;
    }

    /// Whether `node` is currently serving.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node]
    }

    /// The current write epoch: the number of writes the rack memory has
    /// absorbed so far. A cache line filled at epoch `e` is coherent as
    /// long as [`ClusterMemory::version_of`] over its byte range stays
    /// `<= e` — the seqlock write path (every `STORE`/`CAS` of a locked
    /// update) bumps the touched granules past `e`, aging the line out.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// The current layout epoch: the number of calls so far that could
    /// change which bytes a node's [`LocalBus`] reaches, or how an access
    /// to them ends, without writing any. [`ClusterMemory::add_extent`],
    /// [`ClusterMemory::set_perms`], [`ClusterMemory::set_replication`]
    /// and [`ClusterMemory::promote_replica`] bump it (failing a node does
    /// not: a bus reads a dark node's copy as before). While both it and
    /// [`ClusterMemory::write_epoch`] hold still, every read through a
    /// local bus returns what it returned before.
    pub fn layout_epoch(&self) -> u64 {
        self.layout_epoch
    }

    /// The newest write epoch stamped on any granule intersecting
    /// `[addr, addr + len)` (0 if the range was never written).
    pub fn version_of(&self, addr: u64, len: u64) -> u64 {
        self.store.version_of(addr, len)
    }

    /// Number of memory nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Maps `[start, start+len)` onto `node`.
    ///
    /// # Errors
    ///
    /// Fails on overlap with an existing extent, a bad node id, or zero
    /// length.
    pub fn add_extent(
        &mut self,
        start: u64,
        len: u64,
        node: NodeId,
        perms: Perms,
    ) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::EmptyExtent);
        }
        if node >= self.node_count {
            return Err(MemError::BadNode(node));
        }
        let idx = self.extents.partition_point(|e| e.start < start);
        if idx > 0 && self.extents[idx - 1].end() > start {
            return Err(MemError::Overlap { start });
        }
        if idx < self.extents.len() && self.extents[idx].start < start + len {
            return Err(MemError::Overlap { start });
        }
        self.extents.insert(
            idx,
            Extent {
                start,
                len,
                node,
                perms,
            },
        );
        self.guess_shift = self.guess_shift.min(len.ilog2());
        self.layout_epoch += 1;
        Ok(())
    }

    /// Changes the permissions of the extent containing `addr`.
    ///
    /// Returns `false` if no extent contains `addr`.
    pub fn set_perms(&mut self, addr: u64, perms: Perms) -> bool {
        match self.extent_index(addr) {
            Some(i) => {
                self.extents[i].perms = perms;
                self.layout_epoch += 1;
                true
            }
            None => false,
        }
    }

    /// The index of the extent containing `addr`: first the guess
    /// `guess_shift` makes, then, if that extent does not contain `addr`,
    /// a binary search.
    fn extent_index(&self, addr: u64) -> Option<usize> {
        let first = self.extents.first()?;
        let guess = (addr.wrapping_sub(first.start) >> self.guess_shift) as usize;
        if self.extents.get(guess).is_some_and(|e| e.contains(addr)) {
            return Some(guess);
        }
        let idx = self.extents.partition_point(|e| e.start <= addr);
        if idx == 0 {
            return None;
        }
        let e = &self.extents[idx - 1];
        e.contains(addr).then_some(idx - 1)
    }

    /// The node owning `addr`, if any — the switch's global translation.
    /// Under replication this is the *primary*; the full copy set is
    /// [`ClusterMemory::replicas_of`].
    pub fn owner_of(&self, addr: u64) -> Option<NodeId> {
        self.extent_index(addr).map(|i| self.extents[i].node)
    }

    /// Whether `node` hosts a copy of the extent starting at
    /// `extent_start` with primary `primary` — derived placement plus any
    /// promoted rebuild targets.
    fn hosted(&self, extent_start: u64, primary: NodeId, node: NodeId) -> bool {
        // Derived rule: primary p at replication r hosts copies on
        // {p, p+1, ..., p+r-1} mod node_count. The modular difference of
        // two node ids needs one wrap at most, so a compare stands in for
        // the division; at replication 1 the test reduces to
        // `node == primary` exactly.
        debug_assert!(node < self.node_count && primary < self.node_count);
        let diff = if node >= primary {
            node - primary
        } else {
            node + self.node_count - primary
        };
        if diff < self.replication {
            return true;
        }
        if self.promoted.is_empty() {
            return false;
        }
        self.promoted
            .get(&extent_start)
            .is_some_and(|extra| extra.contains(&node))
    }

    /// Whether `node` hosts a copy of the extent containing `addr`
    /// (derived replica or promoted rebuild target; `false` for unmapped
    /// addresses). At replication 1 this is exactly
    /// `owner_of(addr) == Some(node)`.
    pub fn hosts(&self, addr: u64, node: NodeId) -> bool {
        self.extent_index(addr)
            .is_some_and(|i| self.hosted(self.extents[i].start, self.extents[i].node, node))
    }

    /// The placement-derived replica set for `addr`, primary first (empty
    /// if unmapped). These are the copies whose nodes carry TCAM entries
    /// for the range, so any of them can serve traversals locally.
    pub fn replicas_of(&self, addr: u64) -> Vec<NodeId> {
        let Some(i) = self.extent_index(addr) else {
            return Vec::new();
        };
        let e = &self.extents[i];
        (0..self.replication)
            .map(|k| (e.node + k) % self.node_count)
            .collect()
    }

    /// The full copy set for `addr`: derived replicas plus any promoted
    /// rebuild targets (which serve the DMA path but have no TCAM
    /// entries, so they cannot host traversals).
    pub fn all_replicas_of(&self, addr: u64) -> Vec<NodeId> {
        let Some(i) = self.extent_index(addr) else {
            return Vec::new();
        };
        let start = self.extents[i].start;
        let mut out = self.replicas_of(addr);
        if let Some(extra) = self.promoted.get(&start) {
            for &n in extra {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Adds `node` as a promoted replica of the extent containing `addr`
    /// (the end state of a re-replication stream). A no-op if `node`
    /// already hosts the extent; never removes existing members, so a
    /// crashed primary that later recovers rejoins cleanly.
    ///
    /// Returns `false` if `addr` is unmapped.
    pub fn promote_replica(&mut self, addr: u64, node: NodeId) -> bool {
        assert!(node < self.node_count, "no such memory node");
        let Some(i) = self.extent_index(addr) else {
            return false;
        };
        let (start, primary) = (self.extents[i].start, self.extents[i].node);
        if !self.hosted(start, primary, node) {
            self.promoted.entry(start).or_default().push(node);
            self.layout_epoch += 1;
        }
        true
    }

    /// All `(start, end, node)` ranges — the source for the switch's global
    /// table and each node's local TCAM entries.
    pub fn all_ranges(&self) -> Vec<(u64, u64, NodeId)> {
        self.extents
            .iter()
            .map(|e| (e.start, e.end(), e.node))
            .collect()
    }

    /// `(start, end)` ranges hosted by one node: its own extents plus, at
    /// replication ≥ 2, every range replicated onto it. This feeds the
    /// node's local TCAM, so replicas translate (and therefore serve)
    /// the ranges they carry.
    pub fn node_ranges(&self, node: NodeId) -> Vec<(u64, u64)> {
        self.extents
            .iter()
            .filter(|e| self.hosted(e.start, e.node, node))
            .map(|e| (e.start, e.end()))
            .collect()
    }

    /// Bytes *mapped* on `node`: the length of every extent it owns,
    /// written or not. Host memory follows [`ClusterMemory::backed_bytes`].
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.extents
            .iter()
            .filter(|e| e.node == node)
            .map(|e| e.len)
            .sum()
    }

    /// Bytes *backed* across the rack: every write-allocated block, each
    /// covering 256 aligned bytes of which at least one was written.
    /// Never-written bytes read as 0 without being backed.
    pub fn backed_bytes(&self) -> u64 {
        self.store.backed_bytes()
    }

    /// Starts loading the host memory behind `[addr, addr + len)` into the
    /// host CPU's cache (a `prefetcht0` per line on x86-64, nothing
    /// elsewhere), so a read of those bytes soon after does not stall on
    /// the miss. Only backed bytes are touched, and no access check runs:
    /// any address is accepted, and neither bytes, versions, the write
    /// epoch nor [`ClusterMemory::backed_bytes`] change. The simulator's
    /// results never depend on it; only its own speed does.
    pub fn prefetch(&self, addr: u64, len: u32) {
        self.store.prefetch(addr, len);
    }

    /// Access restricted to one node's extents (faults elsewhere).
    pub fn local_bus(&mut self, node: NodeId) -> LocalBus<'_> {
        LocalBus { mem: self, node }
    }

    fn access(
        &mut self,
        addr: u64,
        len: usize,
        write: bool,
        node_filter: Option<NodeId>,
    ) -> Result<(), MemFault> {
        let i = self
            .extent_index(addr)
            .ok_or(MemFault::NotMapped { addr })?;
        let e = &self.extents[i];
        if let Some(node) = node_filter {
            // A node sees every extent it hosts a copy of — the primary's
            // view at replication 1, widened to replicas beyond that.
            // (Data itself is not duplicated: extents are ground truth and
            // every copy reads the same bytes, so replication is trivially
            // coherent; the cluster layer prices the fan-out.)
            if !self.hosted(e.start, e.node, node) {
                return Err(MemFault::NotMapped { addr });
            }
        }
        // `addr` lies inside the extent, so this cannot overflow where
        // `addr + len` could at the top of the address space.
        if len as u64 > e.end() - addr {
            return Err(MemFault::Split { addr });
        }
        let ok = if write {
            e.perms.can_write()
        } else {
            e.perms.can_read()
        };
        if !ok {
            return Err(MemFault::Protection { addr });
        }
        Ok(())
    }

    fn do_read(&mut self, addr: u64, buf: &mut [u8], node: Option<NodeId>) -> Result<(), MemFault> {
        self.access(addr, buf.len(), false, node)?;
        self.store.read(addr, buf);
        Ok(())
    }

    fn do_write(&mut self, addr: u64, data: &[u8], node: Option<NodeId>) -> Result<(), MemFault> {
        self.access(addr, data.len(), true, node)?;
        // Stamp the coherence clock: every granule this write touches (the
        // one holding `addr`, for an empty write) now carries a version
        // newer than any cache line filled before it.
        self.write_epoch += 1;
        self.store.write(addr, data, self.write_epoch);
        Ok(())
    }
}

impl MemBus for ClusterMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.do_read(addr, buf, None)
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.do_write(addr, data, None)
    }
}

/// A [`MemBus`] view confined to one memory node: addresses owned by other
/// nodes fault with `NotMapped` — the signal the accelerator converts into a
/// reroute through the switch.
#[derive(Debug)]
pub struct LocalBus<'a> {
    mem: &'a mut ClusterMemory,
    node: NodeId,
}

impl MemBus for LocalBus<'_> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.mem.do_read(addr, buf, Some(self.node))
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.mem.do_write(addr, data, Some(self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_mem() -> ClusterMemory {
        let mut m = ClusterMemory::new(2);
        m.add_extent(0x1000, 0x1000, 0, Perms::RW).unwrap();
        m.add_extent(0x2000, 0x1000, 1, Perms::RW).unwrap();
        m
    }

    #[test]
    fn overlap_rejected() {
        let mut m = two_node_mem();
        assert_eq!(
            m.add_extent(0x1800, 0x1000, 0, Perms::RW),
            Err(MemError::Overlap { start: 0x1800 })
        );
        assert_eq!(
            m.add_extent(0x0800, 0x1000, 0, Perms::RW),
            Err(MemError::Overlap { start: 0x0800 })
        );
        // Adjacent is fine.
        assert!(m.add_extent(0x3000, 0x10, 0, Perms::RW).is_ok());
    }

    #[test]
    fn bad_parameters_rejected() {
        let mut m = ClusterMemory::new(1);
        assert_eq!(m.add_extent(0, 0, 0, Perms::RW), Err(MemError::EmptyExtent));
        assert_eq!(m.add_extent(0, 8, 3, Perms::RW), Err(MemError::BadNode(3)));
        assert!(!MemError::EmptyExtent.to_string().is_empty());
    }

    #[test]
    fn ownership_and_ranges() {
        let m = two_node_mem();
        assert_eq!(m.owner_of(0x1000), Some(0));
        assert_eq!(m.owner_of(0x1fff), Some(0));
        assert_eq!(m.owner_of(0x2000), Some(1));
        assert_eq!(m.owner_of(0x3000), None);
        assert_eq!(m.owner_of(0), None);
        assert_eq!(m.all_ranges().len(), 2);
        assert_eq!(m.node_ranges(1), vec![(0x2000, 0x3000)]);
        assert_eq!(m.node_bytes(0), 0x1000);
    }

    #[test]
    fn global_read_write() {
        let mut m = two_node_mem();
        m.write_word(0x1010, 0xabcd, 8).unwrap();
        assert_eq!(m.read_word(0x1010, 8).unwrap(), 0xabcd);
    }

    #[test]
    fn local_bus_hides_remote_extents() {
        let mut m = two_node_mem();
        m.write_word(0x2010, 7, 8).unwrap();
        {
            let mut n1 = m.local_bus(1);
            assert_eq!(n1.read_word(0x2010, 8).unwrap(), 7);
        }
        let mut n0 = m.local_bus(0);
        let err = n0.read_word(0x2010, 8).unwrap_err();
        assert_eq!(err, MemFault::NotMapped { addr: 0x2010 });
    }

    #[test]
    fn split_access_faults() {
        let mut m = two_node_mem();
        // 8-byte read crossing the 0x2000 boundary.
        let err = m.read_word(0x1ffc, 8).unwrap_err();
        assert_eq!(err, MemFault::Split { addr: 0x1ffc });
    }

    #[test]
    fn protection_enforced() {
        let mut m = two_node_mem();
        assert!(m.set_perms(0x1000, Perms::READ));
        let err = m.write_word(0x1000, 1, 8).unwrap_err();
        assert_eq!(err, MemFault::Protection { addr: 0x1000 });
        // Reads still work.
        assert!(m.read_word(0x1000, 8).is_ok());
        // NONE blocks both.
        assert!(m.set_perms(0x1000, Perms::NONE));
        assert!(m.read_word(0x1000, 8).is_err());
        // Unmapped set_perms reports false.
        assert!(!m.set_perms(0x9999_0000, Perms::RW));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = two_node_mem();
        assert_eq!(
            m.read_word(0x5000, 8).unwrap_err(),
            MemFault::NotMapped { addr: 0x5000 }
        );
        assert_eq!(
            m.write_word(0, 1, 8).unwrap_err(),
            MemFault::NotMapped { addr: 0 }
        );
    }

    #[test]
    #[should_panic(expected = "at least one memory node")]
    fn zero_nodes_panics() {
        let _ = ClusterMemory::new(0);
    }

    #[test]
    fn replication_widens_local_views_and_tcam_ranges() {
        let mut m = two_node_mem();
        // Replication 1: the single-owner model.
        assert_eq!(m.replication(), 1);
        assert_eq!(m.replicas_of(0x2000), vec![1]);
        assert_eq!(m.node_ranges(0), vec![(0x1000, 0x2000)]);
        assert!(m.local_bus(0).read_word(0x2010, 8).is_err());

        m.set_replication(2);
        assert_eq!(m.replicas_of(0x2000), vec![1, 0]);
        assert_eq!(m.replicas_of(0x1000), vec![0, 1]);
        // Each node's TCAM view now carries both ranges...
        assert_eq!(m.node_ranges(0), vec![(0x1000, 0x2000), (0x2000, 0x3000)]);
        // ...and the local bus serves replicated extents.
        m.write_word(0x2010, 9, 8).unwrap();
        assert_eq!(m.local_bus(0).read_word(0x2010, 8).unwrap(), 9);
        // The primary is unchanged.
        assert_eq!(m.owner_of(0x2010), Some(1));
    }

    #[test]
    fn replication_factor_caps_at_node_count() {
        let mut m = two_node_mem();
        m.set_replication(5);
        assert_eq!(m.replication(), 2);
        assert_eq!(m.replicas_of(0x1000), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_replication_panics() {
        two_node_mem().set_replication(0);
    }

    #[test]
    fn node_health_follows_fail_and_recover() {
        let mut m = two_node_mem();
        m.set_replication(2);
        assert!(m.node_is_up(1));
        m.fail_node(1);
        assert!(!m.node_is_up(1));
        m.recover_node(1);
        assert!(m.node_is_up(1));
    }

    #[test]
    fn promotion_adds_without_evicting() {
        let mut m = ClusterMemory::new(3);
        m.add_extent(0x1000, 0x1000, 0, Perms::RW).unwrap();
        m.set_replication(2); // derived copies: nodes 0 and 1
        assert!(m.promote_replica(0x1000, 2));
        assert_eq!(m.all_replicas_of(0x1000), vec![0, 1, 2]);
        // Derived set (TCAM-backed traversal hosts) is unchanged.
        assert_eq!(m.replicas_of(0x1000), vec![0, 1]);
        // Promoting an existing host or promoting twice is a no-op.
        assert!(m.promote_replica(0x1000, 1));
        assert!(m.promote_replica(0x1000, 2));
        assert_eq!(m.all_replicas_of(0x1000), vec![0, 1, 2]);
        // The promoted copy serves the node-filtered (DMA) view.
        m.write_word(0x1010, 4, 8).unwrap();
        assert_eq!(m.local_bus(2).read_word(0x1010, 8).unwrap(), 4);
        // Unmapped address: promotion reports failure.
        assert!(!m.promote_replica(0x9999_0000, 2));
    }

    #[test]
    fn replica_sets_are_deterministic_across_builds() {
        // Satellite: same `Placement` + seed ⇒ identical primaries and
        // replica sets across two independent builds; replicas always
        // distinct, in-range nodes. SplitMix64 case loop in lieu of
        // proptest (offline).
        use crate::alloc::ClusterAllocator;
        use crate::Placement;
        use pulse_sim::SplitMix64;

        let mut rng = SplitMix64::new(0x8eed_5eed);
        for case in 0..24 {
            let nodes = 2 + (rng.next_u64() % 5) as usize; // 2..=6
            let replication = 1 + (rng.next_u64() % nodes as u64) as usize;
            let seed = rng.next_u64();
            let build = || {
                let mut m = ClusterMemory::new(nodes);
                m.set_replication(replication);
                let mut a = ClusterAllocator::new(Placement::Random { seed }, 4096);
                let addrs: Vec<u64> = (0..40).map(|_| a.alloc(&mut m, 256).unwrap()).collect();
                (m, addrs)
            };
            let (m1, addrs1) = build();
            let (m2, addrs2) = build();
            assert_eq!(addrs1, addrs2, "case {case}: addresses diverged");
            for &addr in &addrs1 {
                assert_eq!(m1.owner_of(addr), m2.owner_of(addr), "case {case}");
                let (r1, r2) = (m1.replicas_of(addr), m2.replicas_of(addr));
                assert_eq!(r1, r2, "case {case}: replica sets diverged");
                assert_eq!(r1.len(), replication, "case {case}");
                assert_eq!(r1[0], m1.owner_of(addr).unwrap(), "primary first");
                for (i, &n) in r1.iter().enumerate() {
                    assert!(n < nodes, "case {case}: replica out of range");
                    assert!(!r1[..i].contains(&n), "case {case}: duplicate replica");
                }
            }
        }
    }

    #[test]
    fn write_versions_advance_per_touched_granule() {
        let mut m = two_node_mem();
        assert_eq!(m.write_epoch(), 0);
        assert_eq!(m.version_of(0x1000, 64), 0, "never-written range");

        m.write_word(0x1008, 1, 8).unwrap();
        let e1 = m.write_epoch();
        assert!(e1 >= 1);
        assert_eq!(m.version_of(0x1000, 64), e1, "granule stamped");
        assert_eq!(m.version_of(0x1040, 64), 0, "neighbor untouched");

        // A snapshot taken now stays valid until the next overlapping write.
        let snapshot = m.write_epoch();
        m.write_word(0x2000, 2, 8).unwrap();
        assert!(m.version_of(0x1000, 64) <= snapshot, "disjoint write");
        m.write_word(0x1000, 3, 8).unwrap();
        assert!(m.version_of(0x1000, 64) > snapshot, "overlap invalidates");

        // A write spanning two granules stamps both.
        let before = m.write_epoch();
        let buf = [0u8; 16];
        m.write(0x1078, &buf).unwrap();
        assert!(m.version_of(0x1040, 8) > before);
        assert!(m.version_of(0x1080, 8) > before);
        // Failed writes stamp nothing.
        let epoch = m.write_epoch();
        assert!(m.write(0x5000, &buf).is_err());
        assert_eq!(m.write_epoch(), epoch);
    }

    #[test]
    fn layout_epoch_moves_with_what_a_local_bus_reaches() {
        // Runs `change` on `m` and says whether the layout epoch moved.
        fn moves(m: &mut ClusterMemory, change: impl FnOnce(&mut ClusterMemory)) -> bool {
            let before = m.layout_epoch();
            change(m);
            m.layout_epoch() > before
        }
        let mut m = two_node_mem();
        assert!(!moves(&mut m, |m| m.write_word(0x1000, 1, 8).unwrap()));
        assert!(!moves(&mut m, |m| {
            m.fail_node(1);
            m.recover_node(1);
        }));
        assert!(moves(&mut m, |m| m
            .add_extent(0x3000, 0x1000, 0, Perms::RW)
            .unwrap()));
        assert!(!moves(&mut m, |m| assert!(m
            .add_extent(0x3000, 0x1000, 0, Perms::RW)
            .is_err())));
        assert!(moves(&mut m, |m| assert!(m.set_perms(0x1000, Perms::READ))));
        assert!(!moves(&mut m, |m| assert!(
            !m.set_perms(0x9000, Perms::READ)
        )));
        assert!(moves(&mut m, |m| assert!(m.promote_replica(0x2000, 0))));
        // Promoting a node that already hosts the extent changes nothing.
        assert!(!moves(&mut m, |m| assert!(m.promote_replica(0x2000, 0))));
        assert!(!moves(&mut m, |m| assert!(!m.promote_replica(0x9000, 0))));
        assert!(moves(&mut m, |m| m.set_replication(2)));
    }
}
