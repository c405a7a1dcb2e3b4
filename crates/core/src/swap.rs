//! The Cache-based baseline on the rack
//! ([`PulseMode::Swap`](crate::PulseMode::Swap)): Fastswap-style paging
//! at the CPU node.
//!
//! When its client picks a request up, the CPU node runs it functionally
//! in one step, as an RPC worker does, so an update's lock, stores and
//! unlock land together. The request then walks its access trace page by
//! page against the node's 4 KiB-page LRU. Each touch first pays the
//! instructions of the iteration that made it on the node's Xeon core
//! ([`CostModel::xeon`]). A hit then costs that core's local DRAM
//! access. A miss pays the kernel's fault software, books the node's
//! swap pipe (reclaim and I/O issue, one page at a time) and sends a
//! `Packet::Read` for the page to its owner. The owner's DMA engine
//! serves it like any object read, the page rides back hop by hop, and the
//! walk resumes from the next touch when it lands. A run of hits is
//! walked at once, so the LRU sees that run's touches when it starts.

use pulse_frontend::LruSet;
use pulse_isa::CostModel;
use pulse_sim::{Grant, SerialResource, SimTime};
use pulse_trace::SpanKind;
use pulse_workloads::Access;

/// Page size of the swap system.
pub(crate) const PAGE_BYTES: u64 = 4096;

/// Kernel fault-handling software cost per major fault.
const FAULT_SOFTWARE: SimTime = SimTime::from_micros(5);

/// Swap-subsystem per-page service (reclaim + I/O issue) — the "could not
/// evict pages fast enough" ceiling of §6.1.
const SWAP_SERVICE: SimTime = SimTime::from_micros(4);

/// One page touch of a walk.
#[derive(Debug, Clone, Copy)]
struct Touch {
    page: u64,
    /// The first byte the access touches in this page: a mapped address,
    /// so the page's read routes to the node that hosts it.
    addr: u64,
    /// Instructions paid before the touch: the issuing iteration's, on the
    /// access's first page only.
    lead: SimTime,
    /// Whether the access is part of a pointer traversal (vs object I/O).
    traversal: bool,
}

/// A swap request's walk over its access trace.
#[derive(Debug)]
pub(crate) struct Walk {
    touches: Vec<Touch>,
    /// The next touch, or the missed one while its page is on its way.
    next: usize,
    /// When the touch at `next` began, its lead included.
    began: SimTime,
    /// When the walk started.
    started: SimTime,
    /// Whether the touch at `next` missed and its fault software is done,
    /// so the node's next step for it is booking the swap pipe.
    faulted: bool,
}

impl Walk {
    /// A walk over `accesses` starting at `at`.
    pub(crate) fn new(accesses: &[Access], at: SimTime) -> Walk {
        let mut touches = Vec::with_capacity(accesses.len());
        for a in accesses {
            let first = a.addr / PAGE_BYTES;
            let last = a.addr.saturating_add(a.len.max(1) as u64 - 1) / PAGE_BYTES;
            let mut lead = CostModel::xeon().insn_time * a.insns as u64;
            for page in first..=last {
                touches.push(Touch {
                    page,
                    addr: a.addr.max(page * PAGE_BYTES),
                    lead,
                    traversal: a.traversal,
                });
                lead = SimTime::ZERO;
            }
        }
        Walk {
            touches,
            next: 0,
            began: at,
            started: at,
            faulted: false,
        }
    }

    /// The address the missed page's read asks for, once the touch at
    /// `next` has faulted; `None` while the walk can go on.
    pub(crate) fn fault(&self) -> Option<u64> {
        self.faulted.then(|| self.touches[self.next].addr)
    }

    /// The missed page's read was lost: the walk faults on it again.
    pub(crate) fn refault(&mut self) {
        self.faulted = true;
    }
}

/// What one step of a walk came to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Walked {
    /// The touch at the walk's cursor missed; its fault software ends at
    /// this time.
    Fault(SimTime),
    /// Every page was touched by this time.
    Done(SimTime),
}

/// What a CPU node's swap system measured, summed over the rack's CPU
/// nodes by [`PulseCluster::swap_stats`](crate::PulseCluster::swap_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwapStats {
    /// Page touches that hit the page cache.
    pub hits: u64,
    /// Page touches that missed and fetched their page.
    pub misses: u64,
    /// Walk time spent on traversal accesses: their instructions, hits and
    /// whole page faults (Fig. 2(a)'s numerator).
    pub traversal_time: SimTime,
    /// Walk time of every completed request: from the walk's start, after
    /// admission, to completion (Fig. 2(a)'s denominator).
    pub walk_time: SimTime,
}

impl SwapStats {
    /// Page-cache hit ratio (0 before any touch).
    pub fn hit_rate(&self) -> f64 {
        let touches = self.hits + self.misses;
        if touches == 0 {
            return 0.0;
        }
        self.hits as f64 / touches as f64
    }

    /// Fraction of walk time spent in pointer traversals (Fig. 2(a)).
    pub fn traversal_fraction(&self) -> f64 {
        if self.walk_time == SimTime::ZERO {
            return 0.0;
        }
        self.traversal_time.as_picos() as f64 / self.walk_time.as_picos() as f64
    }
}

/// One CPU node's swap system: its page cache and its swap pipe.
#[derive(Debug)]
pub(crate) struct SwapCpu {
    pages: LruSet,
    pipe: SerialResource,
    traversal_time: SimTime,
    walk_time: SimTime,
}

impl SwapCpu {
    /// A swap system caching `cache_bytes` of pages (at least one page).
    pub(crate) fn new(cache_bytes: u64) -> SwapCpu {
        SwapCpu {
            pages: LruSet::new((cache_bytes / PAGE_BYTES).max(1) as usize),
            // Fixed service per page, so the rate is never used.
            pipe: SerialResource::new(u64::MAX),
            traversal_time: SimTime::ZERO,
            walk_time: SimTime::ZERO,
        }
    }

    /// Walks `walk` on from `now` to its next miss or its end, reporting
    /// each stretch of time it prices to `span` as the kind and end of a
    /// span.
    pub(crate) fn walk(
        &mut self,
        now: SimTime,
        walk: &mut Walk,
        mut span: impl FnMut(SpanKind, SimTime),
    ) -> Walked {
        let mut t = now;
        while let Some(&touch) = walk.touches.get(walk.next) {
            walk.began = t;
            t += touch.lead;
            if !self.pages.touch(touch.page) {
                t += FAULT_SOFTWARE;
                span(SpanKind::Dispatch, t);
                walk.faulted = true;
                return Walked::Fault(t);
            }
            span(SpanKind::Dispatch, t);
            // A page-cache hit: one local DRAM access.
            t += CostModel::xeon().dram_latency;
            span(SpanKind::CacheHit, t);
            if touch.traversal {
                self.traversal_time += t - walk.began;
            }
            walk.next += 1;
        }
        Walked::Done(t)
    }

    /// Books the swap pipe for `walk`'s faulted page from `now`; the
    /// page's read departs at the grant's end.
    pub(crate) fn book_fill(&mut self, now: SimTime, walk: &mut Walk) -> Grant {
        walk.faulted = false;
        self.pipe.acquire_for(now, SWAP_SERVICE)
    }

    /// The faulted page landed at `now`: the walk moves past it.
    pub(crate) fn landed(&mut self, now: SimTime, walk: &mut Walk) {
        if walk.touches[walk.next].traversal {
            self.traversal_time += now - walk.began;
        }
        walk.next += 1;
    }

    /// `walk` completed at `end`.
    pub(crate) fn finished(&mut self, end: SimTime, walk: &Walk) {
        self.walk_time += end - walk.started;
    }

    /// This node's counters.
    pub(crate) fn stats(&self) -> SwapStats {
        SwapStats {
            hits: self.pages.hits(),
            misses: self.pages.misses(),
            traversal_time: self.traversal_time,
            walk_time: self.walk_time,
        }
    }
}
