//! The [`Traversal`] trait: the one interface a data structure implements
//! to plug into the pulse stack.
//!
//! The paper's contract (§3) is that a data-structure developer writes a
//! plain iterator — `init()` at the CPU node plus a per-iteration body —
//! and the stack does the rest: the dispatch engine compiles the body, the
//! runtime ships it, and the accelerators execute it. This trait is that
//! contract as a Rust API:
//!
//! * [`Traversal::stages`] exposes the iterator IR ([`IterSpec`]) for each
//!   offloadable stage (most structures have one; staged structures like
//!   the B+Tree scans have descend + scan);
//! * [`Traversal::plan`] is `init()`: given a key, produce each stage's
//!   start pointer and scratchpad seed words.
//!
//! Everything above this trait — compilation, placement, packetization,
//! completion — is generic. Adding a structure to the rack needs a
//! `Traversal` impl and a catalog row; no edits to the dispatch engine or
//! the cluster core.

use crate::common::DsError;
use pulse_dispatch::IterSpec;

/// Where a planned stage starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStart {
    /// A pointer `init()` computes up front (root, bucket sentinel, ...).
    Fixed(u64),
    /// Read from the previous stage's final scratchpad at this byte offset
    /// (e.g. the leaf address a descent stage leaves behind).
    FromPrevScratch(u16),
}

/// One stage of a planned traversal: the CPU-side `init()` output that,
/// combined with the stage's compiled program, forms a request stage.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Start pointer.
    pub start: StageStart,
    /// `(offset, value)` words seeded into the stage's scratchpad.
    pub scratch: Vec<(u16, u64)>,
}

impl StagePlan {
    /// A single-word-seeded stage starting at a fixed pointer — the common
    /// shape (`start = bucket/root, scratch[off] = key`).
    pub fn fixed(start: u64, scratch: Vec<(u16, u64)>) -> StagePlan {
        StagePlan {
            start: StageStart::Fixed(start),
            scratch,
        }
    }

    /// A stage chained off the previous stage's scratchpad.
    pub fn chained(off: u16, scratch: Vec<(u16, u64)>) -> StagePlan {
        StagePlan {
            start: StageStart::FromPrevScratch(off),
            scratch,
        }
    }
}

/// A data structure operation that offloads as staged PULSE iterators —
/// point lookups, parameterized scans
/// ([`WiredTigerScan`](crate::WiredTigerScan),
/// [`BtrdbWindowScan`](crate::BtrdbWindowScan)), and, through
/// `pulse-mutation`'s programs, verified reads and in-place updates.
pub trait Traversal {
    /// Short name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// The iterator IR of each offloadable stage, in execution order.
    /// Stage count is a property of the structure, not of the key:
    /// `plan(key).len() == stages().len()` for every key.
    fn stages(&self) -> Vec<IterSpec>;

    /// The CPU-side `init()` step: start pointer + scratchpad seed for each
    /// stage of a lookup of `key`, appended to a caller-owned buffer.
    ///
    /// `out` is cleared first, so on success it holds exactly this lookup's
    /// stage plans. Reusing one buffer across requests keeps the per-request
    /// issue path allocation-free — the front ends mint millions of plans
    /// per sweep, and this is the only place they would otherwise allocate.
    ///
    /// # Errors
    ///
    /// Structure-level errors (e.g. [`DsError::Empty`] when there is no
    /// node to start from). On error the contents of `out` are unspecified.
    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError>;

    /// Allocating convenience wrapper over [`Traversal::plan_into`].
    ///
    /// # Errors
    ///
    /// Same as [`Traversal::plan_into`].
    fn plan(&self, key: u64) -> Result<Vec<StagePlan>, DsError> {
        let mut out = Vec::new();
        self.plan_into(key, &mut out)?;
        Ok(out)
    }
}

impl<T: Traversal + ?Sized> Traversal for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn stages(&self) -> Vec<IterSpec> {
        (**self).stages()
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        (**self).plan_into(key, out)
    }

    fn plan(&self, key: u64) -> Result<Vec<StagePlan>, DsError> {
        (**self).plan(key)
    }
}

impl<T: Traversal + ?Sized> Traversal for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn stages(&self) -> Vec<IterSpec> {
        (**self).stages()
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        (**self).plan_into(key, out)
    }

    fn plan(&self, key: u64) -> Result<Vec<StagePlan>, DsError> {
        (**self).plan(key)
    }
}
