//! Write-allocated backing for the rack's bytes and write versions.
//!
//! Extents say which addresses are *mapped*; this store holds only what
//! has been *written*. The address space is cut into aligned 2 MiB
//! regions, keyed by absolute address. A region is created by the first
//! write into it, and carves a 256 B block the first time a byte in that
//! block is written. Each block carries the write versions of its
//! [`VERSION_GRANULE_BYTES`]-byte granules beside its bytes. An unbacked
//! byte reads as 0 and an unbacked granule has version 0, so the store
//! reads exactly like zero-filled extents plus a granule → epoch map.
//! Access checks are the caller's: the store backs any address it is
//! handed.

use crate::cluster::VERSION_GRANULE_BYTES;

/// Bytes per backing block.
const BLOCK_BYTES: usize = 256;
/// Bytes per region.
const REGION_BYTES: u64 = 2 << 20;
/// Blocks per region.
const SLOTS: usize = REGION_BYTES as usize / BLOCK_BYTES;
const GRANULE: usize = VERSION_GRANULE_BYTES as usize;

#[derive(Debug)]
struct Block {
    bytes: [u8; BLOCK_BYTES],
    /// Last-write epoch per granule.
    versions: [u64; BLOCK_BYTES / GRANULE],
}

impl Block {
    /// Copies `data` in at block offset `b` and stamps `epoch` on every
    /// granule it touches (the one holding `b`, for empty `data`).
    fn put(&mut self, b: usize, data: &[u8], epoch: u64) {
        self.bytes[b..b + data.len()].copy_from_slice(data);
        self.versions[b / GRANULE..=(b + data.len().max(1) - 1) / GRANULE].fill(epoch);
    }
}

/// One aligned [`REGION_BYTES`] span of the address space.
#[derive(Debug)]
struct Region {
    /// Per block of the span: its index in `blocks` + 1, or 0 while the
    /// block is unbacked.
    slots: [u16; SLOTS],
    /// Carved blocks, in write order, grown by doubling like any `Vec`.
    /// Reserving all [`SLOTS`] blocks up front left most of each
    /// reservation untouched, and a process that built deployment after
    /// deployment saw the allocator lay later allocations over those
    /// pages: its resident set grew with the number of builds.
    blocks: Vec<Block>,
}

impl Region {
    /// The block holding region offset `off`, if carved.
    fn block(&self, off: usize) -> Option<&Block> {
        match self.slots[off / BLOCK_BYTES] {
            0 => None,
            slot => Some(&self.blocks[usize::from(slot) - 1]),
        }
    }

    /// The block holding region offset `off`, carved if it was not.
    fn carve(&mut self, off: usize) -> &mut Block {
        let slot = &mut self.slots[off / BLOCK_BYTES];
        if *slot == 0 {
            self.blocks.push(Block {
                bytes: [0; BLOCK_BYTES],
                versions: [0; BLOCK_BYTES / GRANULE],
            });
            *slot = self.blocks.len() as u16;
        }
        &mut self.blocks[usize::from(*slot) - 1]
    }
}

/// Splits `[addr, addr + len)` into `(address, length)` pieces that do
/// not cross a multiple of `unit`. An empty range is one empty piece.
fn split(addr: u64, len: usize, unit: u64) -> impl Iterator<Item = (u64, usize)> {
    let (mut at, mut left, mut first) = (addr, len, true);
    std::iter::from_fn(move || {
        if left == 0 && !first {
            return None;
        }
        first = false;
        let n = left.min((unit - at % unit) as usize);
        let piece = (at, n);
        at = at.wrapping_add(n as u64);
        left -= n;
        Some(piece)
    })
}

/// `addr`'s region key and offset in that region.
fn locate(addr: u64) -> (u64, usize) {
    (addr / REGION_BYTES, (addr % REGION_BYTES) as usize)
}

/// `addr`'s offset in its block.
fn in_block(addr: u64) -> usize {
    (addr % BLOCK_BYTES as u64) as usize
}

/// Prefetches every host cache line `bytes` touches: a byte every 64 B
/// (a host line) from the first, and the last byte, since a block's bytes
/// need not start on a host line.
fn prefetch_bytes(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    for byte in bytes.iter().step_by(64).chain(bytes.last()) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint: it never faults and reads nothing
        // into the program, and the pointer comes from a live slice.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(byte).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

/// The written bytes of the whole rack, with their write versions.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    /// Region keys (`start address / REGION_BYTES`), sorted. Extents are
    /// placed from one base upwards, so written regions are mostly
    /// consecutive keys, and key `k` usually sits at index `k - keys[0]`.
    keys: Vec<u64>,
    /// The region of each key.
    regions: Vec<Region>,
}

impl BlockStore {
    /// Bytes of blocks carved so far.
    pub(crate) fn backed_bytes(&self) -> u64 {
        let blocks: usize = self.regions.iter().map(|r| r.blocks.len()).sum();
        (blocks * BLOCK_BYTES) as u64
    }

    /// Where region `key` is in `regions`, or where it would go.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let Some(&first) = self.keys.first() else {
            return Err(0);
        };
        let guess = key.wrapping_sub(first) as usize;
        match self.keys.get(guess) {
            Some(&k) if k == key => Ok(guess),
            _ => self.keys.binary_search(&key),
        }
    }

    fn region(&self, key: u64) -> Option<&Region> {
        self.find(key).ok().map(|i| &self.regions[i])
    }

    /// The region with `key`, created if it was not.
    fn region_mut(&mut self, key: u64) -> &mut Region {
        let i = self.find(key).unwrap_or_else(|i| {
            self.keys.insert(i, key);
            let region = Region {
                slots: [0; SLOTS],
                blocks: Vec::new(),
            };
            self.regions.insert(i, region);
            i
        });
        &mut self.regions[i]
    }

    /// The block holding `addr`, if carved.
    fn block_at(&self, addr: u64) -> Option<&Block> {
        let (key, off) = locate(addr);
        self.region(key)?.block(off)
    }

    /// Fills `buf` from `addr` on.
    pub(crate) fn read(&self, addr: u64, buf: &mut [u8]) {
        let b = in_block(addr);
        if buf.len() <= BLOCK_BYTES - b {
            // Most reads (words, cells, cache lines) lie in one block; the
            // loop below costs them measurably more.
            match self.block_at(addr) {
                Some(block) => buf.copy_from_slice(&block.bytes[b..b + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        let mut done = 0;
        for (start, n) in split(addr, buf.len(), REGION_BYTES) {
            let region = self.region(locate(start).0);
            for (at, m) in split(start, n, BLOCK_BYTES as u64) {
                let out = &mut buf[done..done + m];
                match region.and_then(|r| r.block(locate(at).1)) {
                    Some(block) => {
                        let b = in_block(at);
                        out.copy_from_slice(&block.bytes[b..b + m]);
                    }
                    None => out.fill(0),
                }
                done += m;
            }
        }
    }

    /// Asks the host CPU to start loading the backed bytes of
    /// `[addr, addr + len)` into its cache, so a later [`BlockStore::read`]
    /// of them does not stall on the miss. Unbacked bytes are skipped, and
    /// nothing is carved, stamped or read: the store is left as it was.
    /// A range running past `u64::MAX` is cut there.
    pub(crate) fn prefetch(&self, addr: u64, len: u32) {
        let Some(last) = u64::from(len).checked_sub(1) else {
            return;
        };
        let last = addr.saturating_add(last);
        let mut at = addr;
        loop {
            let block_last = at | (BLOCK_BYTES as u64 - 1);
            if let Some(block) = self.block_at(at) {
                let (b, e) = (in_block(at), in_block(block_last.min(last)));
                prefetch_bytes(&block.bytes[b..=e]);
            }
            if block_last >= last {
                return;
            }
            at = block_last + 1;
        }
    }

    /// Writes `data` at `addr` and stamps `epoch` on every granule it
    /// touches. An empty write stamps the granule holding `addr`.
    pub(crate) fn write(&mut self, addr: u64, data: &[u8], epoch: u64) {
        let b = in_block(addr);
        if data.len() <= BLOCK_BYTES - b {
            // Words and whole nodes mostly lie in one block, as in `read`.
            let (key, off) = locate(addr);
            self.region_mut(key).carve(off).put(b, data, epoch);
            return;
        }
        let mut done = 0;
        for (start, n) in split(addr, data.len(), REGION_BYTES) {
            let region = self.region_mut(locate(start).0);
            for (at, m) in split(start, n, BLOCK_BYTES as u64) {
                let block = region.carve(locate(at).1);
                block.put(in_block(at), &data[done..done + m], epoch);
                done += m;
            }
        }
    }

    /// The newest epoch stamped on any granule intersecting
    /// `[addr, addr + len)` (0 if none was written).
    pub(crate) fn version_of(&self, addr: u64, len: u64) -> u64 {
        let b = in_block(addr);
        if len == 0 {
            return 0;
        } else if len <= (BLOCK_BYTES - b) as u64 {
            // A cache line: one block, as in `read`.
            let Some(block) = self.block_at(addr) else {
                return 0;
            };
            let granules = &block.versions[b / GRANULE..=(b + len as usize - 1) / GRANULE];
            return granules.iter().fold(0, |v, &w| v.max(w));
        }
        let mut newest = 0;
        for (start, n) in split(addr, len as usize, REGION_BYTES) {
            let Some(region) = self.region(locate(start).0) else {
                continue;
            };
            for (at, m) in split(start, n, BLOCK_BYTES as u64) {
                if let Some(block) = region.block(locate(at).1) {
                    let b = in_block(at);
                    let granules = &block.versions[b / GRANULE..=(b + m - 1) / GRANULE];
                    newest = granules.iter().fold(newest, |v, &w| v.max(w));
                }
            }
        }
        newest
    }
}
