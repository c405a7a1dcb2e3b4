//! Differential test of the two guessed address lookups against a plain
//! binary search: `RangeTable::translate` (the TCAM, which guesses an
//! entry from a directory built with the table) and `ClusterMemory`'s
//! extent lookup (which guesses from the smallest extent's size), seen
//! through `owner_of`, `set_perms` and the faults of `read`.
//!
//! SplitMix64 cases build random tables of four shapes — uniform entries
//! (back to back or striped with gaps), runs that the TCAM merges,
//! unaligned starts and lengths, and uniform entries with oversized ones
//! among them — and probe each at, just before and just past every entry
//! edge, inside every entry and outside the table. Every result, fault
//! kind and fault address must match the reference, and the TCAM's
//! `lookups` counter must count every call. The loops count the outcomes
//! and fail if one never came up.

use pulse_isa::{MemBus, MemFault};
use pulse_mem::{ClusterMemory, Perms, RangeTable};
use pulse_sim::SplitMix64;

const CASES: u64 = if cfg!(debug_assertions) { 300 } else { 3000 };

const BASE: u64 = 1 << 32;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    Merged,
    Unaligned,
    Oversized,
}

const SHAPES: [Shape; 4] = [
    Shape::Uniform,
    Shape::Merged,
    Shape::Unaligned,
    Shape::Oversized,
];

/// A random table: sorted, disjoint `(start, len, perms)` entries.
fn table(rng: &mut SplitMix64, shape: Shape) -> Vec<(u64, u64, Perms)> {
    let chunk = 1u64 << (3 + rng.next_below(19));
    let mut at = match shape {
        Shape::Unaligned => BASE + rng.next_below(1 << 30),
        _ => BASE + rng.next_below(1 << 10) * chunk,
    };
    // Striped tables leave `stride - 1` chunks free after each entry: one
    // node's share of a rack striped over `stride` nodes.
    let stride = 1 + rng.next_below(8);
    let perms = [Perms::RW, Perms::READ, Perms::WRITE, Perms::NONE];
    let mut run_perms = Perms::RW;
    (0..1 + rng.next_below(48))
        .map(|_| {
            let len = match shape {
                Shape::Uniform | Shape::Merged => chunk,
                Shape::Unaligned => 1 + rng.next_below(3 * chunk),
                Shape::Oversized if rng.next_below(4) == 0 => chunk * (2 + rng.next_below(4)),
                Shape::Oversized => chunk,
            };
            let gap = match shape {
                Shape::Uniform => (stride - 1) * chunk,
                Shape::Merged => 0,
                Shape::Unaligned => rng.next_below(2 * chunk) * u64::from(rng.next_below(3) == 0),
                Shape::Oversized => chunk * rng.next_below(3) * u64::from(rng.next_below(4) == 0),
            };
            // Merged runs share their permissions, so the TCAM folds them
            // into a few long entries.
            if !matches!(shape, Shape::Merged) || rng.next_below(6) == 0 {
                run_perms = perms[rng.next_below(4) as usize];
            }
            let entry = (at, len, run_perms);
            at += len + gap;
            entry
        })
        .collect()
}

/// Addresses at, just before and just past every entry edge, one inside
/// every entry, and a few outside the table.
fn probes(rng: &mut SplitMix64, entries: &[(u64, u64)]) -> Vec<u64> {
    let mut out = vec![0, 1, BASE - 1, u64::MAX];
    for &(start, end) in entries {
        out.extend([start - 1, start, start + 1, end - 1, end, end + 1]);
        out.push(start + rng.next_below(end - start));
    }
    let last = entries.last().map_or(BASE, |e| e.1);
    out.push(last + rng.next_below(1 << 24));
    out
}

/// An access length: a byte, a word, a line, or up to the entry's size.
fn access_len(rng: &mut SplitMix64, scale: u64) -> u32 {
    match rng.next_below(4) {
        0 => 1,
        1 => 8,
        2 => 64,
        _ => 1 + rng.next_below(scale.min(1 << 20)) as u32,
    }
}

/// The TCAM before guessing: the binary search `translate` falls back to.
fn reference_translate(
    entries: &[(u64, u64, Perms)],
    addr: u64,
    len: u32,
    write: bool,
) -> Result<(), MemFault> {
    let idx = entries.partition_point(|e| e.0 <= addr);
    let Some(&(_, end, perms)) = idx.checked_sub(1).map(|i| &entries[i]) else {
        return Err(MemFault::NotMapped { addr });
    };
    if addr >= end {
        return Err(MemFault::NotMapped { addr });
    }
    if addr + u64::from(len) > end {
        return Err(MemFault::Split { addr });
    }
    let ok = if write {
        perms.can_write()
    } else {
        perms.can_read()
    };
    if ok {
        Ok(())
    } else {
        Err(MemFault::Protection { addr })
    }
}

fn kind(r: Result<(), MemFault>) -> usize {
    match r {
        Ok(()) => 0,
        Err(MemFault::NotMapped { .. }) => 1,
        Err(MemFault::Split { .. }) => 2,
        Err(MemFault::Protection { .. }) => 3,
    }
}

#[test]
fn tcam_translate_matches_a_binary_search() {
    let mut rng = SplitMix64::new(0x7ca3_0b5e);
    // Outcomes seen: ok, not mapped, split, protection, per shape.
    let mut seen = [[0u64; 4]; 4];
    for case in 0..CASES {
        let shape = SHAPES[(case % 4) as usize];
        let ranges: Vec<(u64, u64, Perms)> = table(&mut rng, shape)
            .into_iter()
            .map(|(start, len, perms)| (start, start + len, perms))
            .collect();
        let mut tcam = RangeTable::build(64, &ranges).unwrap();
        let entries: Vec<(u64, u64, Perms)> = tcam
            .entries()
            .iter()
            .map(|e| (e.start, e.end, e.perms))
            .collect();
        let edges: Vec<(u64, u64)> = entries.iter().map(|e| (e.0, e.1)).collect();
        let scale = edges.iter().map(|e| e.1 - e.0).max().unwrap_or(1);
        let mut calls = 0;
        for addr in probes(&mut rng, &edges) {
            let len = access_len(&mut rng, scale);
            let write = rng.next_below(2) == 0;
            let got = tcam.translate(addr, len, write);
            calls += 1;
            let want = reference_translate(&entries, addr, len, write);
            assert_eq!(
                got, want,
                "case {case} ({shape:?}): translate({addr:#x}, {len}, {write})"
            );
            seen[case as usize % 4][kind(got)] += 1;
        }
        assert_eq!(tcam.lookups(), calls, "case {case}: lookups");
    }
    for (shape, counts) in seen.iter().enumerate() {
        assert!(
            counts.iter().all(|&n| n > 50),
            "shape {shape}: an outcome went untested (ok, not mapped, split, protection): {counts:?}"
        );
    }
}

#[test]
fn extent_lookup_matches_a_binary_search() {
    let mut rng = SplitMix64::new(0xe8_7e47);
    // Outcomes seen: ok, not mapped, split, protection.
    let mut seen = [0u64; 4];
    let (mut owned, mut perm_changes) = (0u64, 0u64);
    for case in 0..CASES {
        let shape = SHAPES[(case % 4) as usize];
        let nodes = 1 + rng.next_below(4) as usize;
        let mut mem = ClusterMemory::new(nodes);
        // Extents go in in a random order, as more than one allocator may
        // place them.
        let mut extents: Vec<(u64, u64, usize, Perms)> = table(&mut rng, shape)
            .into_iter()
            .map(|(start, len, _)| (start, len, rng.next_below(nodes as u64) as usize, Perms::RW))
            .collect();
        let mut order: Vec<usize> = (0..extents.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for &i in &order {
            let (start, len, node, perms) = extents[i];
            mem.add_extent(start, len, node, perms).unwrap();
        }
        let find = |extents: &[(u64, u64, usize, Perms)], addr: u64| {
            let idx = extents.partition_point(|e| e.0 <= addr);
            idx.checked_sub(1)
                .filter(|&i| addr - extents[i].0 < extents[i].1)
        };
        let edges: Vec<(u64, u64)> = extents.iter().map(|e| (e.0, e.0 + e.1)).collect();
        let scale = extents.iter().map(|e| e.1).max().unwrap_or(1).min(4096);
        for addr in probes(&mut rng, &edges) {
            let want = find(&extents, addr);
            assert_eq!(
                mem.owner_of(addr),
                want.map(|i| extents[i].2),
                "case {case} ({shape:?}): owner_of({addr:#x})"
            );
            owned += u64::from(want.is_some());
            if rng.next_below(4) == 0 {
                let perms =
                    [Perms::RW, Perms::READ, Perms::WRITE, Perms::NONE][rng.next_below(4) as usize];
                assert_eq!(
                    mem.set_perms(addr, perms),
                    want.is_some(),
                    "case {case}: set_perms({addr:#x})"
                );
                if let Some(i) = want {
                    extents[i].3 = perms;
                    perm_changes += 1;
                }
            }
            let len = access_len(&mut rng, scale) as usize;
            let mut buf = vec![0u8; len];
            let got = mem.read(addr, &mut buf);
            let expect = match want {
                None => Err(MemFault::NotMapped { addr }),
                Some(i) => {
                    let (start, elen, _, perms) = extents[i];
                    if len as u64 > start + elen - addr {
                        Err(MemFault::Split { addr })
                    } else if perms.can_read() {
                        Ok(())
                    } else {
                        Err(MemFault::Protection { addr })
                    }
                }
            };
            assert_eq!(
                got, expect,
                "case {case} ({shape:?}): read({addr:#x}, {len})"
            );
            seen[kind(got)] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n > 100) && owned > 1000 && perm_changes > 100,
        "an outcome went untested (ok, not mapped, split, protection): {seen:?}, {owned} owned, {perm_changes} permission changes"
    );
}
