//! Per-CPU-node issue-path state, shared by every execution engine.
//!
//! Before this layer existed, the pulse cluster and both replay baselines
//! each hand-rolled their own CPU-side plumbing (link queue, sequence
//! counter, dispatch engine). [`CpuFrontEnd`] bundles that state — plus
//! the optional coherent [`TraversalCache`] — so all three engines share
//! one issue path and any CPU-side mechanism (like the cache) lands in
//! every engine at once.

use crate::cache::{CacheBus, CacheConfig, TraversalCache};
use crate::coalesce::PrefixCoalescer;
use pulse_isa::{Interpreter, IterOutcome, IterState, Program};
use pulse_mem::ClusterMemory;
use pulse_net::{Link, LinkConfig};
use pulse_sim::{CpuDispatch, DispatchConfig, Grant, SimTime};

/// Guard against a cycle living entirely inside the cache: the local walk
/// gives up and goes remote after this many hops (the remote side then
/// applies its own iteration budget).
pub const WALK_HOP_CAP: u32 = 1 << 20;

/// One CPU (compute) node's front end: its NIC/issue-queue [`Link`], its
/// serial dispatch engine, its request sequence counter, and — when
/// enabled — its coherent traversal-cell cache.
#[derive(Debug)]
pub struct CpuFrontEnd {
    link: Link,
    dispatch: CpuDispatch,
    next_seq: u64,
    cache: Option<TraversalCache>,
    coalescer: Option<PrefixCoalescer>,
}

impl CpuFrontEnd {
    /// Wires one CPU node's front end on the rack's default link. A
    /// zero-capacity `cache` config (the default) builds no cache at all —
    /// the front end is then behaviourally identical to the pre-extraction
    /// hand-rolled state.
    pub fn new(dispatch: DispatchConfig, cache: CacheConfig) -> CpuFrontEnd {
        CpuFrontEnd {
            link: Link::new(LinkConfig::default()),
            dispatch: CpuDispatch::new(dispatch),
            next_seq: 0,
            cache: cache.enabled().then(|| TraversalCache::new(cache)),
            coalescer: None,
        }
    }

    /// Attaches an ISA-v2 shared-prefix coalescer (see
    /// [`crate::coalesce`]). Engines call this at construction when
    /// coalescing is enabled; without it the issue path is bit-identical
    /// to the pre-coalescing model.
    pub fn enable_coalescing(&mut self) {
        self.coalescer = Some(PrefixCoalescer::default());
    }

    /// The node's coalescer, when one is attached.
    pub fn coalescer(&self) -> Option<&PrefixCoalescer> {
        self.coalescer.as_ref()
    }

    /// Mutable coalescer access.
    pub fn coalescer_mut(&mut self) -> Option<&mut PrefixCoalescer> {
        self.coalescer.as_mut()
    }

    /// Mints the next request sequence number for this node.
    pub fn mint_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq = seq + 1;
        seq
    }

    /// Ensures the counter is past an externally-chosen `seq` (runtimes
    /// that hand out tickets before admission re-use minted identities).
    pub fn reserve_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Books one op on the node's serial dispatch engine; returns when the
    /// op clears the engine (equal to `now` for an uncontended config).
    pub fn book_dispatch(&mut self, now: SimTime) -> SimTime {
        self.dispatch.book_grant(now).end
    }

    /// Books one op like [`Self::book_dispatch`], returning the full grant
    /// so callers can split queueing delay (`now..start`) from occupancy
    /// (`start..end`) — the tracing layer's Queued/Dispatch attribution.
    pub fn book_dispatch_grant(&mut self, now: SimTime) -> Grant {
        self.dispatch.book_grant(now)
    }

    /// Transmits `bytes` on the node's link; returns the arrival time at
    /// the far end.
    pub fn tx(&mut self, at: SimTime, bytes: u64) -> SimTime {
        self.link.tx(at, bytes)
    }

    /// Receives `bytes` on the node's link; returns delivery time.
    pub fn rx(&mut self, at: SimTime, bytes: u64) -> SimTime {
        self.link.rx(at, bytes)
    }

    /// The node's link (tx/rx byte counters).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The node's dispatch engine (ops booked, utilization).
    pub fn dispatch_engine(&self) -> &CpuDispatch {
        &self.dispatch
    }

    /// The node's cache, when one is configured.
    pub fn cache(&self) -> Option<&TraversalCache> {
        self.cache.as_ref()
    }

    /// Mutable cache access.
    pub fn cache_mut(&mut self) -> Option<&mut TraversalCache> {
        self.cache.as_mut()
    }
}

/// How a cached prefix walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The whole stage completed locally: `RETURN` with `code` after
    /// `hops` cached iterations.
    Done {
        /// The `RETURN` code.
        code: u64,
        /// Iterations walked locally.
        hops: u32,
    },
    /// The walk stopped (first non-resident/stale cell, a store, or the
    /// hop cap); `state` has advanced `hops` iterations and the remainder
    /// must be offloaded from its `cur_ptr` — the standard
    /// resume-by-pointer continuation.
    Stopped {
        /// Iterations walked locally before stopping.
        hops: u32,
    },
}

impl WalkOutcome {
    /// Iterations walked locally.
    pub fn hops(&self) -> u32 {
        match *self {
            WalkOutcome::Done { hops, .. } | WalkOutcome::Stopped { hops } => hops,
        }
    }
}

/// Walks a traversal stage locally while every cell it touches is resident
/// and version-valid in `cache`, advancing `state` in place. Each
/// attempted iteration runs speculatively against a [`CacheBus`]: on any
/// fault (missing line, stale line, a `STORE`/`CAS` — writes always go
/// remote) the attempt is discarded and the walk stops at the last
/// committed state. Counts one cache hit per committed hop and one miss
/// per stop.
pub fn prefix_walk(
    cache: &mut TraversalCache,
    mem: &ClusterMemory,
    program: &Program,
    state: &mut IterState,
) -> WalkOutcome {
    let mut interp = Interpreter::new();
    let mut hops = 0u32;
    // One speculative state per walk, re-synced from the committed state
    // before every attempt after the first. Field by field: the derived
    // `Clone` does not specialise `clone_from`, and `scratch.clone_from`
    // reuses the buffer.
    let mut attempt = state.clone();
    loop {
        if hops >= WALK_HOP_CAP {
            cache.note_miss();
            return WalkOutcome::Stopped { hops };
        }
        if hops > 0 {
            attempt.cur_ptr = state.cur_ptr;
            attempt.iters_done = state.iters_done;
            attempt.scratch.clone_from(&state.scratch);
        }
        let outcome = {
            let mut bus = CacheBus {
                cache: &mut *cache,
                mem,
            };
            interp.run_iteration(program, &mut attempt, &mut bus)
        };
        match outcome {
            Ok(trace) => {
                std::mem::swap(state, &mut attempt);
                hops += 1;
                cache.note_hit();
                if let IterOutcome::Done { code } = trace.outcome {
                    return WalkOutcome::Done { code, hops };
                }
            }
            Err(_) => {
                cache.note_miss();
                return WalkOutcome::Stopped { hops };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_isa::{Cond, MemBus, Operand, Place, ProgramBuilder};
    use pulse_mem::Perms;

    /// Builds a 4-node chain (key, value, next) at 0x1000 and the list-find
    /// program over it.
    fn chain_setup() -> (ClusterMemory, Program, u64) {
        let mut mem = ClusterMemory::new(1);
        mem.add_extent(0x1000, 0x1000, 0, Perms::RW).unwrap();
        let node = 24u64;
        for i in 0..4u64 {
            let a = 0x1000 + i * node;
            mem.write_word(a, i, 8).unwrap();
            mem.write_word(a + 8, i * 10, 8).unwrap();
            let next = if i < 3 { a + node } else { 0 };
            mem.write_word(a + 16, next, 8).unwrap();
        }
        let mut b = ProgramBuilder::new("find", 24, 16);
        let miss = b.label();
        let absent = b.label();
        b.cmp_jump(Cond::Ne, Operand::node_u64(0), Operand::sp_u64(0), miss);
        b.mov(Place::sp_u64(8), Operand::node_u64(8));
        b.ret(Operand::Imm(0));
        b.bind(miss);
        b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), absent);
        b.next_iter(Operand::node_u64(16));
        b.bind(absent);
        b.ret(Operand::Imm(1));
        (mem, b.finish().unwrap(), 0x1000)
    }

    #[test]
    fn cold_walk_stops_immediately() {
        let (mem, prog, head) = chain_setup();
        let mut cache = TraversalCache::new(CacheConfig::sized(4096));
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 2);
        let out = prefix_walk(&mut cache, &mem, &prog, &mut st);
        assert_eq!(out, WalkOutcome::Stopped { hops: 0 });
        assert_eq!(st.cur_ptr, head, "state untouched by the aborted hop");
    }

    #[test]
    fn warm_walk_completes_locally_with_correct_result() {
        let (mut mem, prog, head) = chain_setup();
        let mut cache = TraversalCache::new(CacheConfig::sized(4096));
        cache.fill_range(0x1000, 4 * 24, &mut mem);
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 2);
        let out = prefix_walk(&mut cache, &mem, &prog, &mut st);
        assert_eq!(out, WalkOutcome::Done { code: 0, hops: 3 });
        assert_eq!(st.scratch_u64(8), 20);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn partial_residency_resumes_by_pointer() {
        let (mut mem, prog, head) = chain_setup();
        let mut cache = TraversalCache::new(CacheConfig::sized(4096));
        // Only the first line (nodes 0 and 1, plus node 2's head) resident:
        // a 64 B line covers bytes 0x1000..0x1040 = nodes 0,1 and the first
        // 16 B of node 2, so the walk cannot fetch node 2's full window.
        cache.fill_range(0x1000, 1, &mut mem);
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 3);
        let out = prefix_walk(&mut cache, &mem, &prog, &mut st);
        assert_eq!(out, WalkOutcome::Stopped { hops: 2 });
        assert_eq!(st.cur_ptr, 0x1000 + 2 * 24, "resume pointer at node 2");
        assert_eq!(st.iters_done, 2);
    }

    #[test]
    fn a_write_since_fill_stops_the_walk() {
        let (mut mem, prog, head) = chain_setup();
        let mut cache = TraversalCache::new(CacheConfig::sized(4096));
        cache.fill_range(0x1000, 4 * 24, &mut mem);
        // Concurrent update lands on node 1 — its line must not serve.
        mem.write_word(0x1000 + 24 + 8, 999, 8).unwrap();
        let mut st = IterState::new(&prog, head);
        st.set_scratch_u64(0, 2);
        let out = prefix_walk(&mut cache, &mem, &prog, &mut st);
        assert!(matches!(out, WalkOutcome::Stopped { .. }));
        assert!(cache.stats().invalidations > 0);
    }

    #[test]
    fn front_end_mints_and_reserves_sequences() {
        let mut fe = CpuFrontEnd::new(DispatchConfig::default(), CacheConfig::default());
        assert!(fe.cache().is_none(), "disabled config builds no cache");
        assert_eq!(fe.mint_seq(), 0);
        assert_eq!(fe.mint_seq(), 1);
        fe.reserve_seq(10);
        assert_eq!(fe.mint_seq(), 11);
        // Uncontended dispatch is a free pass-through.
        let t = SimTime::from_nanos(50);
        assert_eq!(fe.book_dispatch(t), t);
        assert!(fe.tx(t, 128) > t);
        assert_eq!(fe.link().tx_bytes(), 128);
    }
}
