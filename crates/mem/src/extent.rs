//! Extents: the unit of memory placement across memory nodes.
//!
//! Disaggregated allocators place memory in fixed-granularity chunks (1 GB in
//! MIND, 2 MB in LegoOS, down to pages in Fastswap — §2.1). We call one such
//! chunk an *extent*: a contiguous virtual-address range whose bytes live
//! entirely on one memory node.

use std::fmt;

/// Identifies a memory node in the rack (dense, zero-based).
pub type NodeId = usize;

/// Access permissions for an extent (the protection bits the memory
/// pipeline checks, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms(u8);

impl Perms {
    /// Read permission bit.
    pub const READ: Perms = Perms(0b01);
    /// Write permission bit.
    pub const WRITE: Perms = Perms(0b10);
    /// Read + write.
    pub const RW: Perms = Perms(0b11);
    /// No access.
    pub const NONE: Perms = Perms(0);

    /// Whether reads are allowed.
    pub fn can_read(self) -> bool {
        self.0 & Perms::READ.0 != 0
    }

    /// Whether writes are allowed.
    pub fn can_write(self) -> bool {
        self.0 & Perms::WRITE.0 != 0
    }

    /// Union of two permission sets.
    pub fn union(self, other: Perms) -> Perms {
        Perms(self.0 | other.0)
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.can_read() { "r" } else { "-" },
            if self.can_write() { "w" } else { "-" }
        )
    }
}

/// A contiguous VA range `[start, start+len)` mapped on one node. Its
/// bytes live in the rack's block store, which backs only what is
/// written.
#[derive(Debug, Clone)]
pub(crate) struct Extent {
    /// First virtual address.
    pub(crate) start: u64,
    /// Mapped length in bytes.
    pub(crate) len: u64,
    /// Owning memory node.
    pub(crate) node: NodeId,
    /// Permissions.
    pub(crate) perms: Perms,
}

impl Extent {
    /// One past the last address.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether `addr` lies inside this extent.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_bits() {
        assert!(Perms::RW.can_read() && Perms::RW.can_write());
        assert!(Perms::READ.can_read() && !Perms::READ.can_write());
        assert!(!Perms::NONE.can_read() && !Perms::NONE.can_write());
        assert_eq!(Perms::READ.union(Perms::WRITE), Perms::RW);
        assert_eq!(Perms::RW.to_string(), "rw");
        assert_eq!(Perms::READ.to_string(), "r-");
    }

    #[test]
    fn extent_geometry() {
        let e = Extent {
            start: 0x1000,
            len: 0x100,
            node: 2,
            perms: Perms::RW,
        };
        assert_eq!(e.end(), 0x1100);
        assert!(e.contains(0x1000));
        assert!(e.contains(0x10ff));
        assert!(!e.contains(0x1100));
        assert!(!e.contains(0xfff));
        assert_eq!(e.node, 2);
    }
}
