//! The CPU-node hot-object cache over traversal cells.
//!
//! The paper opens with the observation that CPU-node caches are how
//! disaggregated racks amortize far-memory latency — and then argues the
//! scheme *fails* for pointer traversals, because every hop's address
//! depends on the previous load. This module makes that claim measurable
//! instead of asserted: a deterministic LRU over fixed-size lines of
//! traversal cells, with a **prefix-walk fast path** (cached hops execute
//! locally at DRAM-hit cost; the remainder is offloaded from the last
//! cached pointer — the resume-by-pointer continuation the PULSE ISA
//! already carries) and **version-validated coherence**.
//!
//! # Coherence semantics
//!
//! Every line snapshots its backing bytes at fill time along with the
//! rack memory's [`write epoch`](ClusterMemory::write_epoch). A hit is
//! served **only** after re-validating that no granule under the line has
//! been written since the snapshot ([`ClusterMemory::version_of`]); a
//! stale line is aged out on probe and the hop goes remote. Because the
//! seqlock write path (`pulse-mutation`'s locked updates) lands every
//! `STORE`/`CAS` through the same versioned memory, an update to a bucket
//! ages out all cached lines of that bucket — version-checked hits,
//! invalidation on locked update, zero stale reads by construction. The
//! validation itself is priced at the hit cost, which is *generous* to
//! caching (real hardware would pay coherence traffic); the headline
//! claim — that caching still cannot save deep or write-heavy pointer
//! traversals — only gets stronger for it.
//!
//! # Dead tags
//!
//! Aging a line out (a failed validation) drops its bytes but not its LRU
//! tag: the tag keeps its recency and still counts against capacity until
//! it is evicted as the tail or the line is refilled. A stale line whose
//! refill read fails stays resident (and keeps failing validation).
//!
//! # Layout
//!
//! The cache is one array of slots, each holding a line's tag, recency
//! links, fill version and 64 bytes inline, threaded as the LRU list; one
//! integer-hashed index maps a line to its slot. A hit inside one line is
//! one index lookup.

use pulse_isa::{MemBus, MemFault};
use pulse_mem::ClusterMemory;
use pulse_sim::{IdHash, SimTime};
use std::collections::HashMap;

/// Configuration of the CPU-node traversal-cell cache.
///
/// The default is **disabled** (zero capacity): every engine reproduces
/// its cache-less traces bit-for-bit, which `tests/runtime_api.rs` guards
/// with golden numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total cache capacity in bytes; 0 disables the cache entirely.
    pub capacity_bytes: u64,
}

impl CacheConfig {
    /// Cache-line size in bytes. Traversal cells are cached at this
    /// granularity.
    pub const LINE_BYTES: u64 = 64;

    /// Cost of one locally-walked hop: a DRAM hit plus the (modelled-free)
    /// version validation.
    pub const HIT_NS: SimTime = SimTime::from_nanos(90);

    /// The disabled configuration (same as [`CacheConfig::default`]).
    pub fn disabled() -> CacheConfig {
        CacheConfig::default()
    }

    /// An enabled cache of `capacity_bytes`.
    pub fn sized(capacity_bytes: u64) -> CacheConfig {
        CacheConfig { capacity_bytes }
    }

    /// Whether the cache is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Number of lines the capacity buys (at least one when enabled).
    pub fn lines(&self) -> usize {
        (self.capacity_bytes / Self::LINE_BYTES).max(1) as usize
    }
}

/// Hit/miss/fill counters of one [`TraversalCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dependent hops served locally from coherent lines.
    pub hits: u64,
    /// Walks (or trace probes) that had to go remote.
    pub misses: u64,
    /// Lines aged out by a failed version check.
    pub invalidations: u64,
    /// Lines written into the cache.
    pub fills: u64,
}

impl CacheStats {
    /// Hits over all probes (0.0 before any probe).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Line size as a slice length.
const LINE: usize = CacheConfig::LINE_BYTES as usize;

/// End-of-list marker for the slot links.
const NIL: u32 = u32::MAX;

/// One cache slot: an LRU tag threaded on the recency list and, while
/// `live`, the coherent snapshot of the line it tags.
#[derive(Debug)]
struct Slot {
    /// Line index (`addr / LINE_BYTES`).
    key: u64,
    /// [`ClusterMemory::write_epoch`] at fill time; the line is coherent
    /// while `version_of(line range) <= version`.
    version: u64,
    /// Byte snapshot taken at fill time.
    data: [u8; LINE],
    /// Next more recent slot, or [`NIL`] at the head.
    prev: u32,
    /// Next less recent slot, or [`NIL`] at the tail.
    next: u32,
    /// Whether `data` may be served. A dead slot is a tag without a line:
    /// aged out by a probe or an invalidation, awaiting refill or eviction.
    live: bool,
}

/// A deterministic, coherent LRU over traversal cells (see the module docs
/// for the coherence semantics).
#[derive(Debug)]
pub struct TraversalCache {
    /// Every slot ever allocated, threaded from `head` (most recent) to
    /// `tail` (least recent). Grows on demand up to `capacity`.
    slots: Vec<Slot>,
    /// Line index to slot, for live and dead tags alike.
    index: HashMap<u64, u32, IdHash>,
    head: u32,
    tail: u32,
    capacity: usize,
    /// Slots holding a servable line.
    live: usize,
    stats: CacheStats,
}

impl TraversalCache {
    /// Creates a cache per `cfg`.
    pub fn new(cfg: CacheConfig) -> TraversalCache {
        TraversalCache {
            slots: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            capacity: cfg.lines().min(NIL as usize),
            live: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Hits over all probes.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Records one locally-served dependent hop.
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records one hop (or walk stop) that went remote.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// First and last line index covering `[addr, addr+len)` (one line for
    /// an empty range).
    fn line_span(addr: u64, len: u64) -> (u64, u64) {
        let first = addr / CacheConfig::LINE_BYTES;
        let last = (addr + len.max(1) - 1) / CacheConfig::LINE_BYTES;
        (first, last)
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        let head = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = head;
        if head != NIL {
            self.slots[head as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Tags `key` (absent from the index) as most recent in a dead slot,
    /// evicting the tail tag when the cache is full.
    fn insert(&mut self, key: u64) -> u32 {
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                version: 0,
                data: [0; LINE],
                prev: NIL,
                next: NIL,
                live: false,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let slot = &mut self.slots[victim as usize];
            self.index.remove(&slot.key);
            if slot.live {
                self.live -= 1;
            }
            slot.key = key;
            slot.live = false;
            victim
        };
        self.index.insert(key, i);
        self.push_front(i);
        i
    }

    /// The slot serving line `key` if it is live and still coherent against
    /// `mem`. A stale line is aged out here (counted as an invalidation);
    /// its tag keeps its place in the recency order.
    fn validate(&mut self, key: u64, mem: &ClusterMemory) -> Option<u32> {
        let i = *self.index.get(&key)?;
        let slot = &mut self.slots[i as usize];
        if !slot.live {
            return None;
        }
        if mem.version_of(key * CacheConfig::LINE_BYTES, CacheConfig::LINE_BYTES) > slot.version {
            // The write path aged this line out.
            slot.live = false;
            self.live -= 1;
            self.stats.invalidations += 1;
            return None;
        }
        Some(i)
    }

    /// Whether every line covering `[addr, addr+len)` is resident *and*
    /// version-valid against `mem`. Stale lines discovered here are aged
    /// out (counted as invalidations). Touches recency on success, only
    /// after every line validated; no hit/miss accounting — callers decide
    /// what one probe means.
    pub fn probe_range(&mut self, addr: u64, len: u64, mem: &ClusterMemory) -> bool {
        let (first, last) = Self::line_span(addr, len);
        if first == last {
            return self.validate(first, mem).map(|i| self.touch(i)).is_some();
        }
        // Validate every line (stopping at the first absent or stale one)
        // before refreshing any.
        if !(first..=last).all(|key| self.validate(key, mem).is_some()) {
            return false;
        }
        for key in first..=last {
            let i = self.index[&key];
            self.touch(i);
        }
        true
    }

    /// Serves `buf` from cached snapshots if [`Self::probe_range`] passes.
    /// Returns `false` (leaving `buf` unspecified) when any covering line
    /// is absent or stale.
    pub fn try_read(&mut self, addr: u64, buf: &mut [u8], mem: &ClusterMemory) -> bool {
        let (first, last) = Self::line_span(addr, buf.len() as u64);
        if first == last {
            // One index lookup validates, refreshes and copies.
            let Some(i) = self.validate(first, mem) else {
                return false;
            };
            self.touch(i);
            let off = (addr - first * CacheConfig::LINE_BYTES) as usize;
            buf.copy_from_slice(&self.slots[i as usize].data[off..off + buf.len()]);
            return true;
        }
        if !(first..=last).all(|key| self.validate(key, mem).is_some()) {
            return false;
        }
        let end = addr + buf.len() as u64;
        let mut cursor = addr;
        for key in first..=last {
            let i = self.index[&key];
            self.touch(i);
            let line_start = key * CacheConfig::LINE_BYTES;
            let off = (cursor - line_start) as usize;
            let n = ((line_start + CacheConfig::LINE_BYTES).min(end) - cursor) as usize;
            let dst = (cursor - addr) as usize;
            buf[dst..dst + n].copy_from_slice(&self.slots[i as usize].data[off..off + n]);
            cursor += n as u64;
        }
        true
    }

    /// Snapshots every line covering `[addr, addr+len)` from `mem` at the
    /// current write epoch, LRU-evicting as needed. Lines already resident
    /// and coherent are only recency-refreshed; lines whose backing bytes
    /// cannot be read whole (extent edge, unmapped) are skipped, so a stale
    /// line whose refill fails stays resident. Returns `(new_lines,
    /// new_bytes)` actually installed — the payload a remote fill had to
    /// ship.
    pub fn fill_range(&mut self, addr: u64, len: u64, mem: &mut ClusterMemory) -> (u64, u64) {
        let line_bytes = CacheConfig::LINE_BYTES;
        let epoch = mem.write_epoch();
        let mut new_lines = 0u64;
        let mut new_bytes = 0u64;
        let (first, last) = Self::line_span(addr, len);
        for key in first..=last {
            let line_start = key * line_bytes;
            let tagged = self.index.get(&key).copied();
            if let Some(i) = tagged {
                let slot = &self.slots[i as usize];
                if slot.live {
                    if mem.version_of(line_start, line_bytes) <= slot.version {
                        self.touch(i);
                        continue;
                    }
                    // Stale: refresh below.
                    self.stats.invalidations += 1;
                }
            }
            let mut data = [0u8; LINE];
            if mem.read(line_start, &mut data).is_err() {
                continue;
            }
            let i = match tagged {
                Some(i) => {
                    self.touch(i);
                    i
                }
                None => self.insert(key),
            };
            let slot = &mut self.slots[i as usize];
            if !slot.live {
                slot.live = true;
                self.live += 1;
            }
            slot.version = epoch;
            slot.data = data;
            self.stats.fills += 1;
            new_lines += 1;
            new_bytes += line_bytes;
        }
        (new_lines, new_bytes)
    }

    /// Resident line count: live lines only, not the dead tags.
    pub fn resident_lines(&self) -> usize {
        self.live
    }
}

/// A [`MemBus`] that serves reads exclusively from coherent cached lines
/// and refuses writes — the bus a CPU-node prefix walk executes against.
/// Any access it cannot serve faults, which aborts the speculative
/// iteration and sends the traversal remote from the last committed state.
#[derive(Debug)]
pub struct CacheBus<'a> {
    /// The front-end's cache.
    pub cache: &'a mut TraversalCache,
    /// The rack memory, used **only** for version validation — data always
    /// comes from the snapshots.
    pub mem: &'a ClusterMemory,
}

impl MemBus for CacheBus<'_> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        if self.cache.try_read(addr, buf, self.mem) {
            Ok(())
        } else {
            Err(MemFault::NotMapped { addr })
        }
    }

    fn write(&mut self, addr: u64, _data: &[u8]) -> Result<(), MemFault> {
        // Writes never execute at the CPU node: the cache is not the home
        // of any cell, so stores must take the offloaded path.
        Err(MemFault::Protection { addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_mem::Perms;

    fn mem_with_data() -> ClusterMemory {
        let mut m = ClusterMemory::new(1);
        m.add_extent(0x1000, 0x1000, 0, Perms::RW).unwrap();
        for i in 0..0x200u64 {
            m.write_word(0x1000 + i * 8, i, 8).unwrap();
        }
        m
    }

    #[test]
    fn config_sizes_the_cache() {
        assert!(!CacheConfig::default().enabled());
        assert!(CacheConfig::sized(1 << 20).enabled());
        assert_eq!(CacheConfig::sized(1024).lines(), 16);
        assert_eq!(CacheConfig::sized(1).lines(), 1, "at least one line");
    }

    #[test]
    fn fill_then_read_serves_snapshots() {
        let mut mem = mem_with_data();
        let mut c = TraversalCache::new(CacheConfig::sized(4096));
        assert!(!c.probe_range(0x1000, 24, &mem), "cold cache misses");
        let (lines, bytes) = c.fill_range(0x1000, 24, &mut mem);
        assert_eq!(lines, 1, "24 B fits one 64 B line");
        assert_eq!(bytes, 64);
        let mut buf = [0u8; 8];
        assert!(c.try_read(0x1008, &mut buf, &mem));
        assert_eq!(u64::from_le_bytes(buf), 1);
        // Refilling a coherent line ships nothing new.
        assert_eq!(c.fill_range(0x1000, 24, &mut mem), (0, 0));
    }

    #[test]
    fn version_check_evicts_stale_lines() {
        let mut mem = mem_with_data();
        let mut c = TraversalCache::new(CacheConfig::sized(4096));
        c.fill_range(0x1000, 8, &mut mem);
        assert!(c.probe_range(0x1000, 8, &mem));
        // A write to the cached granule ages the line out: the probe must
        // fail rather than serve the stale snapshot.
        mem.write_word(0x1000, 0xDEAD, 8).unwrap();
        assert!(!c.probe_range(0x1000, 8, &mem), "stale hit would be a bug");
        assert_eq!(c.stats().invalidations, 1);
        // Refill picks up the new value.
        c.fill_range(0x1000, 8, &mut mem);
        let mut buf = [0u8; 8];
        assert!(c.try_read(0x1000, &mut buf, &mem));
        assert_eq!(u64::from_le_bytes(buf), 0xDEAD);
    }

    #[test]
    fn lru_capacity_evicts_data_with_tags() {
        let mut mem = mem_with_data();
        // Two lines of capacity.
        let mut c = TraversalCache::new(CacheConfig::sized(128));
        c.fill_range(0x1000, 8, &mut mem);
        c.fill_range(0x1040, 8, &mut mem);
        c.fill_range(0x1080, 8, &mut mem); // evicts 0x1000's line
        assert_eq!(c.resident_lines(), 2);
        assert!(!c.probe_range(0x1000, 8, &mem));
        assert!(c.probe_range(0x1080, 8, &mem));
    }

    #[test]
    fn cache_bus_serves_reads_and_refuses_writes() {
        let mut mem = mem_with_data();
        let mut c = TraversalCache::new(CacheConfig::sized(4096));
        c.fill_range(0x1000, 64, &mut mem);
        let mut bus = CacheBus {
            cache: &mut c,
            mem: &mem,
        };
        assert_eq!(bus.read_word(0x1010, 8).unwrap(), 2);
        assert!(matches!(
            bus.read_word(0x1F00, 8),
            Err(MemFault::NotMapped { .. })
        ));
        assert!(matches!(
            bus.write_word(0x1010, 9, 8),
            Err(MemFault::Protection { .. })
        ));
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = TraversalCache::new(CacheConfig::sized(4096));
        assert_eq!(c.hit_rate(), 0.0);
        c.note_hit();
        c.note_hit();
        c.note_miss();
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
