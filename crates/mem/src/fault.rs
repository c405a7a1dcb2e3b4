//! The fault taxonomy: scheduled infrastructure failures injected into a
//! run. The placement layer owns the vocabulary because placement is what
//! failures break — a crashed node takes its extents with it, and the
//! replica sets [`crate::ClusterMemory`] derives are what routing falls
//! back on.

use crate::extent::NodeId;
use pulse_sim::SimTime;

/// One kind of infrastructure failure (or repair).
///
/// Crashes and partitions both make a memory node unreachable; they differ
/// in what the cluster does about it. A **crash** loses the node's copies
/// for good, so surviving replicas re-replicate the lost extents onto a
/// rebuild target. A **partition** is transient — the data is intact
/// behind a dead link, so traffic fails over but no rebuild starts. A
/// **wedge** hangs only the node's accelerator: traversals route to a
/// replica (or fault), while the plain DMA read/write path keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Memory node loses its contents and stops serving.
    MemCrash(NodeId),
    /// A previously crashed memory node rejoins with its extents intact
    /// (fail-stop-and-restore; a rejoin-empty model would re-replicate in
    /// the other direction).
    MemRecover(NodeId),
    /// The network link to a memory node goes dark; the node itself is
    /// healthy, so nothing is rebuilt.
    LinkPartition(NodeId),
    /// The partitioned link comes back.
    LinkHeal(NodeId),
    /// The node's near-memory accelerator hangs permanently. DMA still
    /// works; traversals must go elsewhere.
    AccelWedge(NodeId),
}

impl FaultKind {
    /// The memory node this fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::MemCrash(n)
            | FaultKind::MemRecover(n)
            | FaultKind::LinkPartition(n)
            | FaultKind::LinkHeal(n)
            | FaultKind::AccelWedge(n) => n,
        }
    }

    /// Whether this fault ends an outage rather than starting one — the
    /// boundary used to close the degraded measurement window.
    pub fn is_repair(&self) -> bool {
        matches!(self, FaultKind::MemRecover(_) | FaultKind::LinkHeal(_))
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What breaks (or heals).
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Convenience constructor.
    pub fn new(at: SimTime, kind: FaultKind) -> Self {
        FaultEvent { at, kind }
    }
}

/// The degraded measurement window a fault schedule opens: first fault to
/// last repair, open-ended (to the end of time) when nothing ever heals.
/// `None` without faults. Completions inside it feed the reports'
/// `degraded_p99`.
pub fn degraded_window(faults: &[FaultEvent]) -> Option<(SimTime, SimTime)> {
    let first = faults.iter().map(|f| f.at).min()?;
    let last_repair = faults
        .iter()
        .filter(|f| f.kind.is_repair())
        .map(|f| f.at)
        .max()
        .unwrap_or(SimTime::from_picos(u64::MAX));
    Some((first, last_repair))
}
