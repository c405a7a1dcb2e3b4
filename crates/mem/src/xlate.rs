//! Range-based address translation — the TCAM model.
//!
//! pulse realizes range translations (simulated in prior work [64]) "using
//! TCAM to reduce on-chip storage usage" (§4.2). A TCAM holds few entries,
//! so the table merges adjacent ranges aggressively and reports when a
//! node's mapping no longer fits — the capacity pressure that motivates the
//! paper's *hierarchical* translation (§5): the switch holds only
//! node-granularity ranges while each node holds only its own.

use crate::extent::{NodeId, Perms};
use pulse_isa::MemFault;
use std::fmt;

/// One TCAM entry: `[start, end)` with permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// First covered address.
    pub start: u64,
    /// One past the last covered address.
    pub end: u64,
    /// Access permissions.
    pub perms: Perms,
}

/// Error when a table exceeds its TCAM capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityExceeded {
    /// Entries required after merging.
    pub required: usize,
    /// Hardware capacity.
    pub capacity: usize,
}

impl fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "translation needs {} entries but the TCAM holds {}",
            self.required, self.capacity
        )
    }
}

impl std::error::Error for CapacityExceeded {}

/// A node-local translation/protection table with bounded entries.
///
/// # Examples
///
/// ```
/// use pulse_mem::{Perms, RangeTable};
///
/// let mut table = RangeTable::build(
///     64,
///     &[(0x1000, 0x2000, Perms::RW), (0x2000, 0x3000, Perms::RW)],
/// )?;
/// // Adjacent same-permission ranges merged into one TCAM entry.
/// assert_eq!(table.entries().len(), 1);
/// assert!(table.translate(0x1abc, 8, false).is_ok());
/// assert!(table.translate(0x3000, 8, false).is_err());
/// # Ok::<(), pulse_mem::CapacityExceeded>(())
/// ```
#[derive(Debug, Clone)]
pub struct RangeTable {
    entries: Vec<RangeEntry>,
    capacity: usize,
    lookups: u64,
}

impl RangeTable {
    /// Builds a table from `(start, end, perms)` triples, merging adjacent
    /// ranges with identical permissions.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityExceeded`] if the merged ranges still exceed
    /// `capacity`.
    pub fn build(
        capacity: usize,
        ranges: &[(u64, u64, Perms)],
    ) -> Result<RangeTable, CapacityExceeded> {
        let mut sorted: Vec<RangeEntry> = ranges
            .iter()
            .filter(|(s, e, _)| e > s)
            .map(|&(start, end, perms)| RangeEntry { start, end, perms })
            .collect();
        sorted.sort_by_key(|e| e.start);
        let mut merged: Vec<RangeEntry> = Vec::new();
        for e in sorted {
            match merged.last_mut() {
                Some(last) if last.end == e.start && last.perms == e.perms => {
                    last.end = e.end;
                }
                _ => merged.push(e),
            }
        }
        if merged.len() > capacity {
            return Err(CapacityExceeded {
                required: merged.len(),
                capacity,
            });
        }
        Ok(RangeTable {
            entries: merged,
            capacity,
            lookups: 0,
        })
    }

    /// The merged entries.
    pub fn entries(&self) -> &[RangeEntry] {
        &self.entries
    }

    /// Hardware capacity this table was built for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups served (utilization accounting).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Translates an access of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// * `NotMapped` — no entry covers `addr` (accelerator → reroute),
    /// * `Split` — the access starts in an entry but runs past it,
    /// * `Protection` — the entry forbids this access kind.
    pub fn translate(&mut self, addr: u64, len: u32, write: bool) -> Result<(), MemFault> {
        self.lookups += 1;
        let idx = self.entries.partition_point(|e| e.start <= addr);
        if idx == 0 {
            return Err(MemFault::NotMapped { addr });
        }
        let e = &self.entries[idx - 1];
        if addr >= e.end {
            return Err(MemFault::NotMapped { addr });
        }
        if addr + len as u64 > e.end {
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
}

/// The switch's global table: VA range → memory node (§5, Fig. 6).
///
/// Unlike the node-local [`RangeTable`], the global map carries no
/// permissions — protection is the node accelerator's job in the
/// hierarchical scheme; the switch only routes.
///
/// # Examples
///
/// ```
/// use pulse_mem::GlobalRangeMap;
///
/// let map = GlobalRangeMap::new(&[(0x0, 0x1000, 0), (0x1000, 0x2000, 1)]);
/// assert_eq!(map.lookup(0x0800), Some(0));
/// assert_eq!(map.lookup(0x1800), Some(1));
/// assert_eq!(map.lookup(0x9999), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalRangeMap {
    /// (start, end, node), sorted by start, adjacent same-node ranges merged.
    ranges: Vec<(u64, u64, NodeId)>,
}

impl GlobalRangeMap {
    /// Builds the map from `(start, end, node)` triples.
    pub fn new(ranges: &[(u64, u64, NodeId)]) -> GlobalRangeMap {
        let mut sorted: Vec<(u64, u64, NodeId)> =
            ranges.iter().copied().filter(|(s, e, _)| e > s).collect();
        sorted.sort_by_key(|&(s, _, _)| s);
        let mut merged: Vec<(u64, u64, NodeId)> = Vec::new();
        for r in sorted {
            match merged.last_mut() {
                Some(last) if last.1 == r.0 && last.2 == r.2 => last.1 = r.1,
                _ => merged.push(r),
            }
        }
        GlobalRangeMap { ranges: merged }
    }

    /// The memory node owning `addr`, if any.
    pub fn lookup(&self, addr: u64) -> Option<NodeId> {
        let idx = self.ranges.partition_point(|&(s, _, _)| s <= addr);
        if idx == 0 {
            return None;
        }
        let (_, end, node) = self.ranges[idx - 1];
        (addr < end).then_some(node)
    }

    /// Number of (merged) routing entries the switch must hold.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the map holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_adjacent_same_perms() {
        let t = RangeTable::build(
            4,
            &[
                (0x3000, 0x4000, Perms::RW),
                (0x1000, 0x2000, Perms::RW),
                (0x2000, 0x3000, Perms::RW),
                (0x5000, 0x6000, Perms::READ),
            ],
        )
        .unwrap();
        assert_eq!(t.entries().len(), 2);
        assert_eq!(
            t.entries()[0],
            RangeEntry {
                start: 0x1000,
                end: 0x4000,
                perms: Perms::RW
            }
        );
    }

    #[test]
    fn does_not_merge_across_perms_or_gaps() {
        let t = RangeTable::build(
            4,
            &[
                (0x1000, 0x2000, Perms::RW),
                (0x2000, 0x3000, Perms::READ),
                (0x4000, 0x5000, Perms::RW),
            ],
        )
        .unwrap();
        assert_eq!(t.entries().len(), 3);
    }

    #[test]
    fn capacity_enforced() {
        let err = RangeTable::build(
            1,
            &[(0x1000, 0x2000, Perms::RW), (0x3000, 0x4000, Perms::RW)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            CapacityExceeded {
                required: 2,
                capacity: 1
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn translate_faults() {
        let mut t = RangeTable::build(4, &[(0x1000, 0x2000, Perms::READ)]).unwrap();
        assert!(t.translate(0x1800, 8, false).is_ok());
        assert_eq!(
            t.translate(0x0800, 8, false),
            Err(MemFault::NotMapped { addr: 0x0800 })
        );
        assert_eq!(
            t.translate(0x2000, 8, false),
            Err(MemFault::NotMapped { addr: 0x2000 })
        );
        assert_eq!(
            t.translate(0x1ffc, 8, false),
            Err(MemFault::Split { addr: 0x1ffc })
        );
        assert_eq!(
            t.translate(0x1800, 8, true),
            Err(MemFault::Protection { addr: 0x1800 })
        );
        assert_eq!(t.lookups(), 5);
    }

    #[test]
    fn empty_ranges_filtered() {
        let t = RangeTable::build(4, &[(0x10, 0x10, Perms::RW)]).unwrap();
        assert!(t.entries().is_empty());
        let g = GlobalRangeMap::new(&[(5, 5, 0)]);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn global_map_merges_per_node() {
        let g = GlobalRangeMap::new(&[(0x0, 0x1000, 0), (0x1000, 0x2000, 0), (0x2000, 0x3000, 1)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.lookup(0x1fff), Some(0));
        assert_eq!(g.lookup(0x2000), Some(1));
        assert_eq!(g.lookup(0x3000), None);
    }
}
