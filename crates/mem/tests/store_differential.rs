//! Differential test of `ClusterMemory`'s block store against the
//! representation it replaced.
//!
//! The reference below is that representation: every extent owns a
//! zero-filled byte vector of its full length, and every write stamps its
//! epoch into a granule → epoch map keyed by absolute 64 B granule. The
//! store under test backs only written 256 B blocks and keeps granule
//! versions inside them. SplitMix64 case loops lay out extents at 8 B
//! aligned starts, some sharing a granule or a block with a neighbour, some
//! with gaps, some straddling a 2 MiB region boundary, then drive both
//! models with reads, writes (empty ones included), word loads, stores and
//! CASes through the global bus and every node's local bus, permission
//! flips, and `version_of` over mapped, unmapped and straddling ranges.
//! After every operation the two must agree on the result or fault, the
//! bytes read, `write_epoch` and the version asked for; at the end of a
//! case, on every byte and every granule around the layout, and the store
//! must back exactly the blocks that successful writes touched. A last
//! test writes one region in full, out of address order.

use pulse_isa::{MemBus, MemFault};
use pulse_mem::{ClusterMemory, NodeId, Perms, VERSION_GRANULE_BYTES};
use pulse_sim::SplitMix64;
use std::collections::{BTreeSet, HashMap};

const CASES: usize = 160;
const OPS: usize = 400;
/// The store's block size: the unit `backed_bytes` counts in.
const BLOCK: u64 = 256;
/// The store's slot-table span; layouts straddle a multiple of it.
const REGION: u64 = 2 << 20;
const G: u64 = VERSION_GRANULE_BYTES;

// ----------------------------------------------------------- reference

struct RefExtent {
    start: u64,
    node: NodeId,
    perms: Perms,
    data: Vec<u8>,
}

impl RefExtent {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }
}

/// Zero-filled extents plus a granule → epoch map.
struct Reference {
    extents: Vec<RefExtent>,
    nodes: usize,
    replication: usize,
    write_epoch: u64,
    granule_versions: HashMap<u64, u64>,
    /// Blocks a successful write touched: what the store must back.
    written_blocks: BTreeSet<u64>,
}

impl Reference {
    fn index(&self, addr: u64) -> Option<usize> {
        let i = self.extents.partition_point(|e| e.start <= addr);
        (i > 0 && addr < self.extents[i - 1].end()).then(|| i - 1)
    }

    fn access(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        node: Option<NodeId>,
    ) -> Result<usize, MemFault> {
        let i = self.index(addr).ok_or(MemFault::NotMapped { addr })?;
        let e = &self.extents[i];
        if let Some(n) = node {
            if (n + self.nodes - e.node) % self.nodes >= self.replication {
                return Err(MemFault::NotMapped { addr });
            }
        }
        if addr + len as u64 > e.end() {
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
        Ok(i)
    }

    fn read(&self, addr: u64, buf: &mut [u8], node: Option<NodeId>) -> Result<(), MemFault> {
        let i = self.access(addr, buf.len(), false, node)?;
        let off = (addr - self.extents[i].start) as usize;
        buf.copy_from_slice(&self.extents[i].data[off..off + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8], node: Option<NodeId>) -> Result<(), MemFault> {
        let i = self.access(addr, data.len(), true, node)?;
        let off = (addr - self.extents[i].start) as usize;
        self.extents[i].data[off..off + data.len()].copy_from_slice(data);
        self.write_epoch += 1;
        let last_byte = addr + data.len().max(1) as u64 - 1;
        for g in addr / G..=last_byte / G {
            self.granule_versions.insert(g, self.write_epoch);
        }
        self.written_blocks.extend(addr / BLOCK..=last_byte / BLOCK);
        Ok(())
    }

    fn read_word(&self, addr: u64, width: u32, node: Option<NodeId>) -> Result<u64, MemFault> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..width as usize], node)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn cas_word(
        &mut self,
        addr: u64,
        expect: u64,
        new: u64,
        width: u32,
        node: Option<NodeId>,
    ) -> Result<u64, MemFault> {
        let mask = if width >= 8 {
            u64::MAX
        } else {
            (1u64 << (width * 8)) - 1
        };
        let old = self.read_word(addr, width, node)?;
        if old == expect & mask {
            self.write(addr, &new.to_le_bytes()[..width as usize], node)?;
        }
        Ok(old)
    }

    fn version_of(&self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (addr / G..=(addr + len - 1) / G)
            .filter_map(|g| self.granule_versions.get(&g).copied())
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------- cases

fn perms(rng: &mut SplitMix64) -> Perms {
    match rng.next_below(8) {
        0 => Perms::READ,
        1 => Perms::NONE,
        2 => Perms::WRITE,
        _ => Perms::RW,
    }
}

/// Lays out 3–12 extents from just below a region boundary: 8 B aligned
/// starts, gaps of 0–120 B or now and then of whole regions, and lengths
/// from 8 B (two extents in one granule) to 8 KiB (across the boundary).
/// Writes land in random order, so regions are created out of address
/// order and not always at consecutive keys.
fn layout(rng: &mut SplitMix64) -> (ClusterMemory, Reference) {
    let nodes = 1 + rng.next_below(3) as usize;
    let replication = 1 + rng.next_below(nodes as u64) as usize;
    let mut mem = ClusterMemory::new(nodes);
    mem.set_replication(replication);
    let mut reference = Reference {
        extents: Vec::new(),
        nodes,
        replication,
        write_epoch: 0,
        granule_versions: HashMap::new(),
        written_blocks: BTreeSet::new(),
    };
    let boundary = REGION * (1 + rng.next_below(3));
    let mut at = boundary - 8 * rng.next_below(700);
    for _ in 0..3 + rng.next_below(10) {
        if rng.chance(0.4) {
            at += 8 * (1 + rng.next_below(15));
        }
        if rng.chance(0.1) {
            at += REGION * (1 + rng.next_below(4));
        }
        let len = 8 * match rng.next_below(3) {
            0 => 1 + rng.next_below(8),
            1 => 1 + rng.next_below(80),
            _ => 1 + rng.next_below(1024),
        };
        let node = rng.next_below(nodes as u64) as usize;
        let p = perms(rng);
        mem.add_extent(at, len, node, p).unwrap();
        reference.extents.push(RefExtent {
            start: at,
            node,
            perms: p,
            data: vec![0; len as usize],
        });
        at += len;
    }
    (mem, reference)
}

/// An address near the layout: inside or just around an extent, or
/// anywhere from a little below the first to a little past the last.
fn address(rng: &mut SplitMix64, reference: &Reference) -> u64 {
    let first = reference.extents[0].start;
    let last = reference.extents.last().unwrap().end();
    if rng.chance(0.75) {
        let e = &reference.extents[rng.next_below(reference.extents.len() as u64) as usize];
        (e.start - 72) + rng.next_below(e.data.len() as u64 + 144)
    } else {
        (first - 300) + rng.next_below(last - first + 600)
    }
}

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Runs `f` on the global bus or on one node's local bus.
fn on_bus<T>(
    mem: &mut ClusterMemory,
    node: Option<NodeId>,
    f: impl FnOnce(&mut dyn MemBus) -> T,
) -> T {
    match node {
        None => f(mem),
        Some(n) => f(&mut mem.local_bus(n)),
    }
}

#[test]
fn block_store_matches_zero_filled_extents_and_a_granule_map() {
    let mut rng = SplitMix64::new(0xb10c_5eed);
    for case in 0..CASES {
        let (mut mem, mut reference) = layout(&mut rng);
        for op in 0..OPS {
            let ctx = format!("case {case} op {op}");
            let node = rng
                .chance(0.5)
                .then(|| rng.next_below(reference.nodes as u64) as usize);
            let addr = address(&mut rng, &reference);
            let width = 1 << rng.next_below(4);
            match rng.next_below(8) {
                0 | 1 => {
                    let len = if rng.chance(0.1) {
                        0
                    } else {
                        rng.next_below(700) as usize
                    };
                    let mut got = vec![0xee; len];
                    let mut want = vec![0xee; len];
                    let r = on_bus(&mut mem, node, |bus| bus.read(addr, &mut got));
                    assert_eq!(r, reference.read(addr, &mut want, node), "{ctx}: read");
                    assert_eq!(got, want, "{ctx}: bytes read at {addr:#x}");
                }
                2 | 3 => {
                    let len = if rng.chance(0.15) {
                        0
                    } else {
                        rng.next_below(700) as usize
                    };
                    let data = random_bytes(&mut rng, len);
                    let r = on_bus(&mut mem, node, |bus| bus.write(addr, &data));
                    assert_eq!(r, reference.write(addr, &data, node), "{ctx}: write");
                }
                4 => {
                    let r = on_bus(&mut mem, node, |bus| bus.read_word(addr, width));
                    assert_eq!(r, reference.read_word(addr, width, node), "{ctx}: word");
                }
                5 => {
                    let (expect, new) = match reference.read_word(addr, width, None) {
                        Ok(old) if rng.chance(0.5) => (old, rng.next_u64()),
                        _ => (rng.next_u64(), rng.next_u64()),
                    };
                    let r = on_bus(&mut mem, node, |bus| bus.cas_word(addr, expect, new, width));
                    let want = reference.cas_word(addr, expect, new, width, node);
                    assert_eq!(r, want, "{ctx}: cas");
                }
                6 => {
                    let p = perms(&mut rng);
                    let hit = reference.index(addr);
                    if let Some(i) = hit {
                        reference.extents[i].perms = p;
                    }
                    assert_eq!(mem.set_perms(addr, p), hit.is_some(), "{ctx}: set_perms");
                }
                _ => {
                    let start = addr - rng.next_below(2 * BLOCK);
                    let len = rng.next_below(1200);
                    assert_eq!(
                        mem.version_of(start, len),
                        reference.version_of(start, len),
                        "{ctx}: version_of({start:#x}, {len})"
                    );
                }
            }
            assert_eq!(mem.write_epoch(), reference.write_epoch, "{ctx}: epoch");
        }

        // Every byte, through readable permissions...
        for e in &mut reference.extents {
            e.perms = Perms::RW;
            assert!(mem.set_perms(e.start, Perms::RW));
        }
        for e in &reference.extents {
            let mut got = vec![0xee; e.data.len()];
            mem.read(e.start, &mut got).unwrap();
            assert_eq!(got, e.data, "case {case}: extent at {:#x}", e.start);
        }
        // ...every granule from a block below each extent to a block past
        // it, singly and in pairs that straddle...
        for e in &reference.extents {
            for g in (e.start / G * G - BLOCK..e.end() + BLOCK).step_by(G as usize) {
                for (a, len) in [(g, G), (g + G / 2, G), (g, 1)] {
                    assert_eq!(
                        mem.version_of(a, len),
                        reference.version_of(a, len),
                        "case {case}: version_of({a:#x}, {len})"
                    );
                }
            }
        }
        // ...and the whole layout at once, across every region in it.
        let first = reference.extents[0].start - BLOCK;
        let last = reference.extents.last().unwrap().end() + BLOCK;
        assert_eq!(
            mem.version_of(first, last - first),
            reference.version_of(first, last - first),
            "case {case}: whole layout"
        );
        assert_eq!(
            mem.backed_bytes(),
            reference.written_blocks.len() as u64 * BLOCK,
            "case {case}: backed blocks"
        );
    }
}

#[test]
fn unwritten_memory_is_mapped_but_not_backed() {
    let mut mem = ClusterMemory::new(2);
    mem.add_extent(REGION - 4096, 8192, 0, Perms::RW).unwrap();
    mem.add_extent(REGION + 4096, 4 << 20, 1, Perms::RW)
        .unwrap();
    assert_eq!(mem.node_bytes(0) + mem.node_bytes(1), 8192 + (4 << 20));
    assert_eq!(mem.backed_bytes(), 0);
    let mut buf = vec![0xee; 8192];
    mem.read(REGION - 4096, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0), "never-written bytes read as 0");
    assert_eq!(mem.version_of(REGION - 4096, 8192), 0);

    // One word across the region boundary backs the two blocks it touches.
    mem.write_word(REGION - 4, u64::MAX, 8).unwrap();
    assert_eq!(mem.backed_bytes(), 2 * BLOCK);
    assert_eq!(mem.read_word(REGION - 8, 8).unwrap(), 0xffff_ffff_0000_0000);
    assert_eq!(mem.version_of(REGION - G, 1), 1);
    assert_eq!(mem.version_of(REGION, 1), 1);
    // An empty write backs and stamps the block holding its address.
    mem.write(REGION + 8192, &[]).unwrap();
    assert_eq!(mem.backed_bytes(), 3 * BLOCK);
    assert_eq!(mem.version_of(REGION + 8192 + G - 1, 1), 2);
    assert_eq!(mem.version_of(REGION + 8192 + G, 1), 0);
}

#[test]
fn a_region_written_in_full_keeps_every_block() {
    // The case loop backs a few hundred blocks a region at most; this
    // carves all of one region's blocks, out of address order, so its
    // block vector grows (and moves) up to the region's full size.
    let blocks = REGION / BLOCK;
    let mut mem = ClusterMemory::new(1);
    mem.add_extent(REGION, REGION, 0, Perms::RW).unwrap();
    let position = |k: u64| k * 5 % blocks;
    let fill = |p: u64| {
        let mut bytes = [(p % 251) as u8; BLOCK as usize];
        bytes[..2].copy_from_slice(&(p as u16).to_le_bytes());
        bytes
    };
    for k in 0..blocks {
        let p = position(k);
        mem.write(REGION + p * BLOCK, &fill(p)).unwrap();
    }
    assert_eq!(mem.backed_bytes(), REGION);
    let mut got = vec![0; REGION as usize];
    mem.read(REGION, &mut got).unwrap();
    for k in 0..blocks {
        let p = position(k);
        let at = (p * BLOCK) as usize;
        assert_eq!(got[at..at + BLOCK as usize], fill(p), "block {p}");
        assert_eq!(
            mem.version_of(REGION + p * BLOCK, BLOCK),
            k + 1,
            "block {p}"
        );
    }
    assert_eq!(mem.version_of(REGION, REGION), blocks);
}
