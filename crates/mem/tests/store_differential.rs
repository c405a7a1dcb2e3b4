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
//! must back exactly the blocks that successful writes touched. Another
//! test aims writes at block edges, where a write stops fitting in one
//! block, and one writes one region in full, out of address order. The
//! last checks that `prefetch` accepts any address and length and leaves
//! everything a read can see as it was.

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
fn writes_at_block_edges_match_the_reference() {
    // A write that fits in its block takes the store's one-block path;
    // one byte more takes the general one. Drive both at every kind of
    // edge: ending exactly at a block's end, crossing into the next block
    // (or region) by one byte, one byte at either end of a block, whole
    // blocks, and empty writes at a block's first and last byte.
    let mut rng = SplitMix64::new(0xed9e);
    let start = REGION - 4 * BLOCK;
    let len = 8 * BLOCK;
    let mut mem = ClusterMemory::new(1);
    mem.add_extent(start, len, 0, Perms::RW).unwrap();
    let mut reference = Reference {
        extents: vec![RefExtent {
            start,
            node: 0,
            perms: Perms::RW,
            data: vec![0; len as usize],
        }],
        nodes: 1,
        replication: 1,
        write_epoch: 0,
        granule_versions: HashMap::new(),
        written_blocks: BTreeSet::new(),
    };
    let mut writes = Vec::new();
    for block in (start..start + len).step_by(BLOCK as usize) {
        let end = block + BLOCK;
        for b in [0, 1, 8, G - 1, G, BLOCK / 2 + 3, BLOCK - 8, BLOCK - 1] {
            writes.push((block + b, BLOCK - b)); // ends at the block's end
            if end < start + len {
                writes.push((block + b, BLOCK - b + 1)); // one byte over
            }
        }
        writes.extend([(block, 1), (end - 1, 1), (block, 0), (end - 1, 0)]);
        writes.push((block, BLOCK));
    }
    // Shuffled, so a block is first carved by either path, and empty
    // writes land on unbacked blocks as well as backed ones.
    for i in (1..writes.len()).rev() {
        writes.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    for (n, &(addr, len)) in writes.iter().enumerate() {
        let data = random_bytes(&mut rng, len as usize);
        let ctx = format!("write {n}: {len} B at {addr:#x}");
        assert_eq!(
            mem.write(addr, &data),
            reference.write(addr, &data, None),
            "{ctx}"
        );
        let block = addr / BLOCK * BLOCK;
        for (a, l) in [(block - BLOCK, 3 * BLOCK), (addr, len), (addr, 1)] {
            assert_eq!(
                mem.version_of(a, l),
                reference.version_of(a, l),
                "{ctx}: version_of({a:#x}, {l})"
            );
        }
        assert_eq!(
            mem.backed_bytes(),
            reference.written_blocks.len() as u64 * BLOCK,
            "{ctx}: backed blocks"
        );
    }
    let mut got = vec![0xee; len as usize];
    mem.read(start, &mut got).unwrap();
    assert_eq!(got, reference.extents[0].data);
    assert_eq!(mem.write_epoch(), reference.write_epoch);
    for g in (start..start + len).step_by(G as usize) {
        assert_eq!(mem.version_of(g, G), reference.version_of(g, G), "{g:#x}");
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

/// What a prefetch of `[addr, addr + len)` must leave as it was: the
/// backed bytes, the write epoch and the version of the range and of each
/// granule in it, and each byte of the range as a one-byte read (its value
/// or its fault). A range running past `u64::MAX` is observed up to it.
fn observe(mem: &mut ClusterMemory, addr: u64, len: u32) -> (Vec<u64>, Vec<Result<u64, MemFault>>) {
    let mut versions = vec![mem.backed_bytes(), mem.write_epoch()];
    versions.push(mem.version_of(addr, u64::from(len)));
    let mut bytes = Vec::new();
    if len > 0 {
        for a in addr..=addr.saturating_add(u64::from(len) - 1) {
            bytes.push(mem.read_word(a, 1));
            if a == addr || a % G == 0 {
                versions.push(mem.version_of(a, 1));
            }
        }
    }
    (versions, bytes)
}

#[test]
fn prefetch_is_total_and_read_only() {
    // `prefetch` accepts any address and length: mapped, unmapped, backed
    // or not, at the very top of the address space, and across block and
    // region edges. It must neither panic (debug builds check overflow)
    // nor change anything a read, `version_of`, `write_epoch` or
    // `backed_bytes` can see. An extent ends at `u64::MAX` with its top
    // block backed, so windows there reach the store's last block.
    let mut rng = SplitMix64::new(0x9f_e7c4);
    let top = u64::MAX - 2 * BLOCK - 7;
    for case in 0..40 {
        let (mut mem, reference) = layout(&mut rng);
        mem.add_extent(top, u64::MAX - top, 0, Perms::RW).unwrap();
        mem.write_word(u64::MAX - 15, u64::MAX, 8).unwrap();
        mem.write_word(top, 1, 8).unwrap();
        for _ in 0..40 {
            let addr = address(&mut rng, &reference);
            let len = rng.next_below(300) as usize;
            let _ = mem.write(addr, &random_bytes(&mut rng, len));
        }
        for e in &reference.extents {
            assert!(mem.set_perms(e.start, Perms::RW));
        }
        for op in 0..150 {
            let len = rng.next_below(257) as u32;
            let edge = |rng: &mut SplitMix64| {
                let a = address(rng, &reference);
                let unit = if rng.chance(0.3) { REGION } else { BLOCK };
                (a / unit + 1) * unit
            };
            let addr = match rng.next_below(8) {
                0 => [0, u64::MAX - 7, u64::MAX, top, u64::MAX - BLOCK][op % 5],
                // Ending exactly at a block or region edge, or one byte past.
                1 => edge(&mut rng) - u64::from(len),
                2 => edge(&mut rng) - u64::from(len) + 1,
                // Anywhere: almost always unmapped.
                3 => rng.next_u64(),
                // Within 256 B of the top.
                4 => u64::MAX - rng.next_below(256),
                _ => address(&mut rng, &reference),
            };
            let before = observe(&mut mem, addr, len);
            mem.prefetch(addr, len);
            assert_eq!(
                observe(&mut mem, addr, len),
                before,
                "case {case} op {op}: prefetch({addr:#x}, {len})"
            );
        }
    }
}
