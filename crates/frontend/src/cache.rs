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
//! stale line is evicted on probe and the hop goes remote. Because the
//! seqlock write path (`pulse-mutation`'s locked updates) lands every
//! `STORE`/`CAS` through the same versioned memory, an update to a bucket
//! ages out all cached lines of that bucket — version-checked hits,
//! invalidation on locked update, zero stale reads by construction. The
//! validation itself is priced at the hit cost, which is *generous* to
//! caching (real hardware would pay coherence traffic); the headline
//! claim — that caching still cannot save deep or write-heavy pointer
//! traversals — only gets stronger for it.
//!
//! Replay baselines (which pre-execute functionally) instead age lines
//! explicitly via [`TraversalCache::invalidate_range`] when a request's
//! write accesses are served.

use crate::lru::LruSet;
use pulse_isa::{MemBus, MemFault};
use pulse_mem::ClusterMemory;
use pulse_sim::SimTime;
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

#[derive(Debug)]
struct CacheLine {
    /// Byte snapshot taken at fill time.
    data: Vec<u8>,
    /// [`ClusterMemory::write_epoch`] at fill time; the line is coherent
    /// while `version_of(line range) <= version`.
    version: u64,
}

/// Hit/miss/fill counters of one [`TraversalCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dependent hops served locally from coherent lines.
    pub hits: u64,
    /// Walks (or trace probes) that had to go remote.
    pub misses: u64,
    /// Lines evicted because their version check failed (or an explicit
    /// write-invalidation aged them out).
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

/// A deterministic, coherent LRU over traversal cells (see the module docs
/// for the coherence semantics).
#[derive(Debug)]
pub struct TraversalCache {
    lru: LruSet,
    lines: HashMap<u64, CacheLine>,
    stats: CacheStats,
}

impl TraversalCache {
    /// Creates a cache per `cfg`.
    pub fn new(cfg: CacheConfig) -> TraversalCache {
        TraversalCache {
            lru: LruSet::new(cfg.lines()),
            lines: HashMap::new(),
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

    fn line_range(&self, addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        let first = addr / CacheConfig::LINE_BYTES;
        let last = (addr + len.max(1) - 1) / CacheConfig::LINE_BYTES;
        first..=last
    }

    /// Whether every line covering `[addr, addr+len)` is resident *and*
    /// version-valid against `mem`. Stale lines discovered here are
    /// evicted (counted as invalidations). Touches recency on success; no
    /// hit/miss accounting — callers decide what one probe means.
    pub fn probe_range(&mut self, addr: u64, len: u64, mem: &ClusterMemory) -> bool {
        let line_bytes = CacheConfig::LINE_BYTES;
        // Two passes over the same cheap range (validate, then refresh
        // recency) — no per-probe allocation on this hot path.
        let keys = self.line_range(addr, len);
        for k in keys.clone() {
            match self.lines.get(&k) {
                None => return false,
                Some(line) => {
                    if mem.version_of(k * line_bytes, line_bytes) > line.version {
                        // The write path aged this line out.
                        self.lines.remove(&k);
                        self.stats.invalidations += 1;
                        return false;
                    }
                }
            }
        }
        for k in keys {
            self.lru.insert_evicting(k); // refresh recency, never evicts
        }
        true
    }

    /// Serves `buf` from cached snapshots if [`Self::probe_range`] passes.
    /// Returns `false` (leaving `buf` unspecified) when any covering line
    /// is absent or stale.
    pub fn try_read(&mut self, addr: u64, buf: &mut [u8], mem: &ClusterMemory) -> bool {
        if !self.probe_range(addr, buf.len() as u64, mem) {
            return false;
        }
        let line_bytes = CacheConfig::LINE_BYTES;
        let mut cursor = addr;
        let end = addr + buf.len() as u64;
        while cursor < end {
            let key = cursor / line_bytes;
            let line_start = key * line_bytes;
            let off = (cursor - line_start) as usize;
            let n = ((line_start + line_bytes).min(end) - cursor) as usize;
            let data = &self.lines[&key].data;
            let dst = (cursor - addr) as usize;
            buf[dst..dst + n].copy_from_slice(&data[off..off + n]);
            cursor += n as u64;
        }
        true
    }

    /// Snapshots every line covering `[addr, addr+len)` from `mem` at the
    /// current write epoch, LRU-evicting as needed. Lines already resident
    /// and coherent are only recency-refreshed; lines whose backing bytes
    /// cannot be read whole (extent edge, unmapped) are skipped. Returns
    /// `(new_lines, new_bytes)` actually installed — the payload a remote
    /// fill had to ship.
    pub fn fill_range(&mut self, addr: u64, len: u64, mem: &mut ClusterMemory) -> (u64, u64) {
        let line_bytes = CacheConfig::LINE_BYTES;
        let epoch = mem.write_epoch();
        let mut new_lines = 0u64;
        let mut new_bytes = 0u64;
        for key in self.line_range(addr, len) {
            let line_start = key * line_bytes;
            if let Some(line) = self.lines.get(&key) {
                if mem.version_of(line_start, line_bytes) <= line.version {
                    self.lru.insert_evicting(key);
                    continue;
                }
                // Stale: refresh below.
                self.stats.invalidations += 1;
            }
            let mut data = vec![0u8; line_bytes as usize];
            if mem.read(line_start, &mut data).is_err() {
                continue;
            }
            if let Some(victim) = self.lru.insert_evicting(key) {
                self.lines.remove(&victim);
            }
            self.lines.insert(
                key,
                CacheLine {
                    data,
                    version: epoch,
                },
            );
            self.stats.fills += 1;
            new_lines += 1;
            new_bytes += line_bytes;
        }
        (new_lines, new_bytes)
    }

    /// Evicts every line intersecting `[addr, addr+len)` — the explicit
    /// write-invalidation hook the replay baselines drive (the pulse rack
    /// relies on version validation instead).
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        for key in self.line_range(addr, len) {
            if self.lines.remove(&key).is_some() {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Resident line count.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
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
    fn explicit_invalidation_ages_lines_out() {
        let mut mem = mem_with_data();
        let mut c = TraversalCache::new(CacheConfig::sized(4096));
        c.fill_range(0x1000, 64, &mut mem);
        c.invalidate_range(0x1010, 8);
        assert!(!c.probe_range(0x1000, 8, &mem));
        assert_eq!(c.stats().invalidations, 1);
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
