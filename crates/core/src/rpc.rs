//! RPC on the rack ([`PulseMode::Rpc`](crate::PulseMode::Rpc)): the
//! `pulse-acc` bounce with a pool of CPU worker cores at every memory node
//! in place of the accelerator.
//!
//! A worker takes an offloaded traversal when its packet lands, or, when
//! every worker is busy, when one frees up (packets wait FIFO). It runs the
//! traversal at that moment with the interpreter over the node's own
//! memory, as one step, until it returns or needs a pointer another node
//! hosts: an update's lock, stores and unlock all land at once, so no
//! other request ever sees its seqlock odd. It prices that service with a
//! per-access CPU model: a dependent DRAM access plus the iteration's
//! instructions per hop, one more DRAM access per hop that stores, and the
//! flavour's per-request software. The fetched bytes cross the node's
//! DRAM pipe. The reply departs when both the worker and the pipe are
//! done; a traversal that needs another node goes back to its CPU, which
//! re-issues it (the "return to the CPU node whenever the traversal
//! accesses a pointer on another memory node" penalty of §5 that pulse's
//! in-network routing removes).
//!
//! Each server keeps a memo of the services it has finished. A service is
//! a pure function of the program, the node, the start state, the
//! iteration budget and the node's view of memory, so one whose inputs
//! match a finished service's, with memory unchanged since, is replayed:
//! its final state, status, work and iteration count are copied, not
//! re-walked. The memo holds only while [`ClusterMemory::write_epoch`] and
//! [`ClusterMemory::layout_epoch`] stay put; a service that stores, or that
//! collects cells for the front-end cache, always runs. Replays change no
//! result and no timing, only the simulator's speed (DESIGN.md, "RPC
//! service replay").

use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::ops::Range;

use pulse_frontend::LruSet;
use pulse_isa::{CostModel, Fault, Interpreter, IterOutcome, IterState, MemFault};
use pulse_mem::{ClusterMemory, NodeId};
use pulse_net::{IterPacket, IterStatus};
use pulse_sim::{IdHash, IdHasher, SerialResource, ServerPool, SimTime};

/// Cached object granularity of Cache+RPC (the 8 KiB application object).
const OBJECT_BYTES: u64 = 8192;

/// Which RPC flavour runs. The flavour fixes the memory-node CPU, its
/// worker count and per-request software time, and the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFlavor {
    /// DPDK RPC on Xeon memory-node CPUs.
    Rpc,
    /// RPC on wimpy ARM SmartNIC cores.
    RpcArm,
    /// AIFM: an object cache at the CPU node in front of a TCP-based RPC.
    CacheRpc {
        /// CPU-node object cache, bytes; 0 runs without one.
        cache_bytes: u64,
    },
}

impl RpcFlavor {
    /// The memory-node core the workers run on.
    fn cpu(self) -> CostModel {
        match self {
            RpcFlavor::RpcArm => CostModel::arm_cortex_a72(),
            _ => CostModel::xeon(),
        }
    }

    /// Worker cores per memory node: on Xeon, the minimum that saturates
    /// 25 GB/s of dependent chasing (≈ 10); on ARM, the Bluefield-2's 8.
    fn workers_per_node(self) -> usize {
        match self {
            RpcFlavor::RpcArm => 8,
            _ => 10,
        }
    }

    /// Per-request server software time (rx parse + handler + tx).
    fn request_software(self) -> SimTime {
        match self {
            RpcFlavor::RpcArm => SimTime::from_micros(3),
            _ => SimTime::from_nanos(850),
        }
    }

    /// Extra latency of the TCP-based stack per direction (Cache+RPC only;
    /// §6.1 attributes AIFM's latency gap to it).
    fn tcp_extra(self) -> SimTime {
        match self {
            RpcFlavor::CacheRpc { .. } => SimTime::from_micros(2),
            _ => SimTime::ZERO,
        }
    }

    /// A CPU node's object cache, for Cache+RPC with a nonzero budget.
    pub(crate) fn object_cache(self) -> Option<ObjectCache> {
        match self {
            RpcFlavor::CacheRpc { cache_bytes } if cache_bytes > 0 => Some(ObjectCache(
                LruSet::new((cache_bytes / OBJECT_BYTES).max(1) as usize),
            )),
            _ => None,
        }
    }
}

/// Cache+RPC's CPU-node object cache: an LRU over 8 KiB objects. A read
/// that hits it never leaves the node; the traversal that found the
/// object still ran remotely, since the index lives in disaggregated
/// memory.
#[derive(Debug)]
pub(crate) struct ObjectCache(LruSet);

impl ObjectCache {
    /// Looks the object at `addr` up, inserting it on a miss.
    pub(crate) fn touch(&mut self, addr: u64) -> bool {
        self.0.touch(addr / OBJECT_BYTES)
    }
}

/// What one service costs a worker: CPU time and DRAM bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    service: SimTime,
    pub(crate) bytes: u64,
}

/// How RPC servers' services ran, summed over the rack's memory nodes by
/// [`PulseCluster::rpc_replays`](crate::PulseCluster::rpc_replays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Services copied from a server's memo.
    pub replayed: u64,
    /// Services the interpreter walked.
    pub walked: u64,
}

/// Most finished services one server's memo holds. Past it, services
/// still run but are not kept; the memo starts empty and grows with use.
const MEMO_CAP: usize = 1 << 13;

/// A finished service: what it started from and what it came to. Its
/// start scratchpad lies in the memo's arena at `scratch`, and its final
/// one right after it.
#[derive(Debug)]
struct Replay {
    code: u64,
    node: NodeId,
    cur_ptr: u64,
    iters_done: u32,
    max_iters: u32,
    scratch: Range<usize>,
    end_ptr: u64,
    end_iters: u32,
    status: IterStatus,
    work: Work,
    iterations: u64,
}

/// The hash a service's inputs are filed under in a memo.
fn inputs_hash(code: u64, node: NodeId, state: &IterState, max_iters: u32) -> u64 {
    let mut h = IdHasher::default();
    h.write_u64(code);
    h.write_usize(node);
    h.write_u64(state.cur_ptr);
    h.write_u64(u64::from(state.iters_done) << 32 | u64::from(max_iters));
    h.write_usize(state.scratch.len());
    let mut words = state.scratch.chunks_exact(8);
    for w in &mut words {
        h.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    for &b in words.remainder() {
        h.write_u64(u64::from(b));
    }
    h.finish()
}

/// The services a server finished while memory stood at `epochs`, filed
/// by [`inputs_hash`]. Two inputs that share a hash share a slot: the
/// later one is walked and not kept.
#[derive(Debug, Default)]
struct Memo {
    /// `(write_epoch, layout_epoch)` when every entry ran.
    epochs: (u64, u64),
    entries: HashMap<u64, Replay, IdHash>,
    /// Every entry's scratchpads, back to back: one allocation, not one
    /// an entry.
    arena: Vec<u8>,
    stats: ReplayStats,
}

impl Memo {
    /// Forgets every entry unless memory still stands at `epochs`.
    fn hold(&mut self, epochs: (u64, u64)) {
        if self.epochs != epochs {
            self.entries.clear();
            self.arena.clear();
            self.epochs = epochs;
        }
    }

    /// Replays the entry filed under `key` onto `pkt` if it started from
    /// exactly `pkt`'s inputs: restores its final state and status, and
    /// returns its work and iteration count.
    fn replay(
        &mut self,
        key: u64,
        node: NodeId,
        pkt: &mut IterPacket,
        max_iters: u32,
    ) -> Option<(Work, u64)> {
        let r = self.entries.get(&key)?;
        let st = &mut pkt.state;
        let len = st.scratch.len();
        let same = r.code == pkt.code.code_id()
            && r.node == node
            && r.cur_ptr == st.cur_ptr
            && r.iters_done == st.iters_done
            && r.max_iters == max_iters
            && self.arena[r.scratch.clone()] == st.scratch[..];
        if !same {
            return None;
        }
        let end = r.scratch.end;
        st.scratch.copy_from_slice(&self.arena[end..end + len]);
        (st.cur_ptr, st.iters_done) = (r.end_ptr, r.end_iters);
        pkt.status = r.status;
        self.stats.replayed += 1;
        Some((r.work, r.iterations))
    }
}

/// One memory node's RPC server: its worker cores, its DRAM pipe, the
/// interpreter the workers run traversals with, the memo of finished
/// services, and the packets waiting for a worker.
#[derive(Debug)]
pub(crate) struct RpcServer {
    flavor: RpcFlavor,
    workers: ServerPool,
    dram: SerialResource,
    interp: Interpreter,
    memo: Memo,
    /// Packets that landed while every worker was busy, in arrival order.
    pub(crate) waiting: VecDeque<IterPacket>,
    /// Traversal iterations served.
    pub(crate) iterations: u64,
}

impl RpcServer {
    /// A server of `flavor` whose DRAM pipe moves `dram_bytes_per_sec`,
    /// the memory node's channel rate.
    pub(crate) fn new(flavor: RpcFlavor, dram_bytes_per_sec: u64) -> RpcServer {
        RpcServer {
            flavor,
            workers: ServerPool::new(flavor.workers_per_node()),
            dram: SerialResource::new(dram_bytes_per_sec * 8),
            interp: Interpreter::new(),
            memo: Memo::default(),
            waiting: VecDeque::new(),
            iterations: 0,
        }
    }

    /// Runs `pkt`'s traversal on node `n` until it returns, needs a
    /// pointer `n` does not host, faults, or spends its `max_iters`
    /// budget, and sets the packet's status accordingly. With `collect`,
    /// every cell the traversal read rides back on the packet to fill the
    /// CPU's front-end cache. Returns the work done, software included.
    ///
    /// A service the memo holds is replayed from it; one that stores or
    /// collects is never kept.
    pub(crate) fn run(
        &mut self,
        n: NodeId,
        pkt: &mut IterPacket,
        mem: &mut ClusterMemory,
        max_iters: u32,
        collect: bool,
    ) -> Work {
        if collect {
            self.memo.stats.walked += 1;
            return self.walk(n, pkt, mem, max_iters, true).0;
        }
        let epochs = (mem.write_epoch(), mem.layout_epoch());
        self.memo.hold(epochs);
        let code = pkt.code.code_id();
        let key = inputs_hash(code, n, &pkt.state, max_iters);
        if let Some((work, iterations)) = self.memo.replay(key, n, pkt, max_iters) {
            self.iterations += iterations;
            return work;
        }
        self.memo.stats.walked += 1;
        if self.memo.entries.len() >= MEMO_CAP || self.memo.entries.contains_key(&key) {
            return self.walk(n, pkt, mem, max_iters, false).0;
        }
        let st = &pkt.state;
        let (cur_ptr, iters_done, iterations) = (st.cur_ptr, st.iters_done, self.iterations);
        let at = self.memo.arena.len();
        self.memo.arena.extend_from_slice(&st.scratch);
        let (work, stored) = self.walk(n, pkt, mem, max_iters, false);
        if stored || mem.write_epoch() != epochs.0 {
            self.memo.arena.truncate(at);
            return work;
        }
        self.memo.arena.extend_from_slice(&pkt.state.scratch);
        let replay = Replay {
            code,
            node: n,
            cur_ptr,
            iters_done,
            max_iters,
            scratch: at..at + pkt.state.scratch.len(),
            end_ptr: pkt.state.cur_ptr,
            end_iters: pkt.state.iters_done,
            status: pkt.status,
            work,
            iterations: self.iterations - iterations,
        };
        self.memo.entries.insert(key, replay);
        work
    }

    /// How this server's services ran so far.
    pub(crate) fn replays(&self) -> ReplayStats {
        self.memo.stats
    }

    /// [`RpcServer::run`]'s walk through the interpreter. Also returns
    /// whether any iteration ran a `STORE` or `CAS`.
    fn walk(
        &mut self,
        n: NodeId,
        pkt: &mut IterPacket,
        mem: &mut ClusterMemory,
        max_iters: u32,
        collect: bool,
    ) -> (Work, bool) {
        let cpu = self.flavor.cpu();
        let mut stored = false;
        let mut work = Work {
            service: self.flavor.request_software(),
            bytes: 0,
        };
        let program = &pkt.code;
        let window = program.window();
        pkt.status = loop {
            let base = pkt.state.cur_ptr.wrapping_add(window.off as i64 as u64);
            // The window fetch is the iteration's first access: when it
            // finds the cell unmapped here, nothing has run and another
            // node hosts the pointer.
            let result = self
                .interp
                .run_iteration(program, &mut pkt.state, &mut mem.local_bus(n));
            if let Err(Fault::Mem(MemFault::NotMapped { addr })) = result {
                if addr == base {
                    break IterStatus::InFlight;
                }
            }
            if collect && !pkt.touched.contains(&(base, window.len)) {
                pkt.touched.push((base, window.len));
            }
            let trace = match result {
                Ok(trace) => trace,
                Err(Fault::Mem(fault)) => break IterStatus::Faulted { fault },
                Err(Fault::DivideByZero { pc }) => {
                    let fault = MemFault::Protection { addr: pc as u64 };
                    break IterStatus::Faulted { fault };
                }
            };
            self.iterations += 1;
            work.service += cpu.dram_latency + cpu.insn_time * trace.insns_executed as u64;
            work.bytes += window.len as u64;
            if trace.stores > 0 {
                stored = true;
                work.service += cpu.dram_latency;
                work.bytes += trace.store_bytes as u64;
            }
            match trace.outcome {
                IterOutcome::Done { code } => break IterStatus::Done { code },
                IterOutcome::Continue if pkt.state.iters_done >= max_iters => {
                    break IterStatus::IterLimit
                }
                IterOutcome::Continue => {}
            }
        };
        (work, stored)
    }

    /// Adds copying a `len`-byte object into the response to `work`, at
    /// the DRAM pipe's rate.
    pub(crate) fn gather(&self, work: &mut Work, len: u32) {
        work.service += SimTime::serialization(len as u64, self.dram.bits_per_sec());
        work.bytes += len as u64;
    }

    /// When the next worker is free.
    pub(crate) fn free_at(&self) -> SimTime {
        self.workers.earliest_free()
    }

    /// Books `work` on the earliest-free worker and the DRAM pipe from
    /// `now`, and returns when the reply leaves: once both are done, plus
    /// the transport's extra latency in both directions.
    pub(crate) fn book(&mut self, now: SimTime, work: Work) -> SimTime {
        let worker = self.workers.acquire(now, work.service);
        let dram = self.dram.acquire(now, work.bytes);
        worker.grant.end.max(dram.end) + self.flavor.tcp_extra() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_isa::{AluOp, Cond, MemBus, Operand, Place, Program, ProgramBuilder, Reg, Width};
    use pulse_mem::Perms;
    use pulse_net::RequestId;
    use std::sync::Arc;

    /// A list node: key | value | next.
    const NODE: u64 = 24;
    /// Node 0's extent, holding list nodes 0..4.
    const EXT0: u64 = 0x1_0000;
    /// Node 1's extent, holding list nodes 4..8.
    const EXT1: u64 = 0x2_0000;

    /// A Xeon RPC server on the default DRAM channel.
    fn rpc_server() -> RpcServer {
        RpcServer::new(
            RpcFlavor::Rpc,
            pulse_isa::AccelTiming::default().dram_bytes_per_sec,
        )
    }

    /// List node `i`'s address.
    fn node(i: u64) -> u64 {
        if i < 4 {
            EXT0 + NODE * i
        } else {
            EXT1 + NODE * (i - 4)
        }
    }

    /// Two memory nodes and an 8-node list across them: node `i` has key
    /// `i` and value `100 + i`.
    fn memory() -> ClusterMemory {
        let mut mem = ClusterMemory::new(2);
        mem.add_extent(EXT0, 0x1000, 0, Perms::RW).unwrap();
        mem.add_extent(EXT1, 0x1000, 1, Perms::RW).unwrap();
        for i in 0..8 {
            let next = if i < 7 { node(i + 1) } else { 0 };
            for (off, v) in [(0, i), (8, 100 + i), (16, next)] {
                mem.write_word(node(i) + off, v, 8).unwrap();
            }
        }
        mem
    }

    /// Finds the key at scratch 0 down the list and leaves its value at
    /// scratch 8: returns 0 on a hit, 1 at the list's end.
    fn find() -> Arc<Program> {
        let mut b = ProgramBuilder::new("find", NODE as u32, 16);
        let (miss, absent) = (b.label(), b.label());
        b.cmp_jump(Cond::Ne, Operand::node_u64(0), Operand::sp_u64(0), miss);
        b.mov(Place::sp_u64(8), Operand::node_u64(8));
        b.ret(Operand::Imm(0));
        b.bind(miss);
        b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), absent);
        b.next_iter(Operand::node_u64(16));
        b.bind(absent);
        b.ret(Operand::Imm(1));
        Arc::new(b.finish().unwrap())
    }

    /// A seqlocked update of the word pair at `cur_ptr`: `CAS` the version
    /// even → odd, store scratch 8 into the value, release with `v + 2`.
    /// Returns 0, or 2 when the version was odd or the `CAS` lost.
    fn bump() -> Arc<Program> {
        let (r0, r1, r2, r3) = (Reg::new(0), Reg::new(1), Reg::new(2), Reg::new(3));
        let mut b = ProgramBuilder::new("bump", 16, 16);
        let busy = b.label();
        b.mov(r0, Operand::node_u64(0));
        b.alu(AluOp::And, r1, r0, Operand::Imm(1));
        b.cmp_jump(Cond::Ne, r1, Operand::Imm(0), busy);
        b.add(r2, r0, Operand::Imm(1));
        b.cas(r3, Operand::CurPtr, 0, r0, r2, Width::B8);
        b.cmp_jump(Cond::Ne, r3, r0, busy);
        b.store(Operand::CurPtr, 8, Operand::sp_u64(8), Width::B8);
        b.add(r2, r0, Operand::Imm(2));
        b.store(Operand::CurPtr, 0, r2, Width::B8);
        b.ret(Operand::Imm(0));
        b.bind(busy);
        b.ret(Operand::Imm(2));
        Arc::new(b.finish().unwrap())
    }

    /// A packet starting `program` at `cur_ptr` with `key` at scratch 0.
    fn packet(program: &Arc<Program>, cur_ptr: u64, key: u64) -> IterPacket {
        let mut state = IterState::new(program, cur_ptr);
        state.set_scratch_u64(0, key);
        IterPacket {
            id: RequestId { cpu: 0, seq: 0 },
            code: program.clone(),
            state,
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        }
    }

    /// What one service came to: its work, the packet's state and status,
    /// and the iterations it added to the server's count.
    type Served = (Work, IterState, IterStatus, u64);

    /// Serves `pkt` on `server` at node `n`, without collecting cells.
    fn serve(
        server: &mut RpcServer,
        n: NodeId,
        mem: &mut ClusterMemory,
        pkt: &IterPacket,
    ) -> Served {
        let mut pkt = pkt.clone();
        let before = server.iterations;
        let work = server.run(n, &mut pkt, mem, 64, false);
        (work, pkt.state, pkt.status, server.iterations - before)
    }

    fn stats(replayed: u64, walked: u64) -> ReplayStats {
        ReplayStats { replayed, walked }
    }

    #[test]
    fn a_warm_server_replays_exactly_what_a_fresh_one_runs() {
        let (mut mem, find) = (memory(), find());
        let mut warm = rpc_server();
        for key in [3, 7] {
            let pkt = packet(&find, node(0), key);
            let first = serve(&mut warm, 0, &mut mem, &pkt);
            let fresh = serve(&mut rpc_server(), 0, &mut mem, &pkt);
            let replayed = serve(&mut warm, 0, &mut mem, &pkt);
            assert_eq!(replayed, fresh, "key {key}");
            assert_eq!(first, fresh, "key {key}");
        }
        let (_, state, status, iterations) =
            serve(&mut warm, 0, &mut mem, &packet(&find, node(0), 3));
        assert_eq!(
            (status, state.scratch_u64(8), iterations),
            (IterStatus::Done { code: 0 }, 103, 4)
        );
        assert_eq!(warm.replays(), stats(3, 2));
        // Key 7 lives on node 1: the walk bounced after node 0's four.
        let bounced = serve(&mut warm, 0, &mut mem, &packet(&find, node(0), 7));
        assert_eq!(
            (bounced.1.cur_ptr, bounced.2),
            (node(4), IterStatus::InFlight)
        );

        // A service that collects cells always walks, and collects each time.
        for _ in 0..2 {
            let mut pkt = packet(&find, node(0), 3);
            warm.run(0, &mut pkt, &mut mem, 64, true);
            assert_eq!(pkt.touched.len(), 4);
        }
        assert_eq!(warm.replays(), stats(4, 4));
    }

    #[test]
    fn a_write_between_identical_services_forces_a_walk_that_sees_it() {
        let (mut mem, find) = (memory(), find());
        let mut server = rpc_server();
        let pkt = packet(&find, node(0), 2);
        assert_eq!(serve(&mut server, 0, &mut mem, &pkt).1.scratch_u64(8), 102);
        assert_eq!(serve(&mut server, 0, &mut mem, &pkt).1.scratch_u64(8), 102);
        assert_eq!(server.replays(), stats(1, 1));
        // Even a write on another node's extent forgets the memo.
        mem.write_word(node(2) + 8, 9, 8).unwrap();
        mem.write_word(node(6) + 8, 9, 8).unwrap();
        assert_eq!(serve(&mut server, 0, &mut mem, &pkt).1.scratch_u64(8), 9);
        assert_eq!(server.replays(), stats(1, 2));
        mem.set_perms(node(2), Perms::NONE);
        let denied = serve(&mut server, 0, &mut mem, &pkt);
        assert!(
            matches!(denied.2, IterStatus::Faulted { .. }),
            "{:?}",
            denied.2
        );
        assert_eq!(server.replays(), stats(1, 3));
    }

    #[test]
    fn a_bounced_service_runs_on_once_its_node_gains_the_extent() {
        let (mut mem, find) = (memory(), find());
        let mut server = rpc_server();
        let pkt = packet(&find, node(0), 6);
        for _ in 0..2 {
            let bounced = serve(&mut server, 0, &mut mem, &pkt);
            assert_eq!(
                (bounced.1.cur_ptr, bounced.2),
                (node(4), IterStatus::InFlight)
            );
        }
        assert_eq!(server.replays(), stats(1, 1));
        assert!(mem.promote_replica(EXT1, 0));
        let (_, state, status, iterations) = serve(&mut server, 0, &mut mem, &pkt);
        assert_eq!(
            (status, state.scratch_u64(8), iterations),
            (IterStatus::Done { code: 0 }, 106, 7)
        );
        assert_eq!(server.replays(), stats(1, 2));
    }

    #[test]
    fn identical_locked_updates_both_apply() {
        let (mut mem, bump) = (memory(), bump());
        let mut server = rpc_server();
        let lock = node(1);
        mem.write_word(lock, 0, 8).unwrap();
        let mut pkt = packet(&bump, lock, 0);
        pkt.state.set_scratch_u64(8, 77);
        for round in 1..=2 {
            let (work, _, status, _) = serve(&mut server, 0, &mut mem, &pkt);
            assert_eq!(status, IterStatus::Done { code: 0 });
            assert!(work.bytes > 16, "the stores cross the DRAM pipe");
            assert_eq!(mem.read_word(lock, 8).unwrap(), 2 * round);
        }
        assert_eq!(mem.read_word(lock, 8).unwrap() % 2, 0, "left locked");
        assert_eq!(mem.read_word(lock + 8, 8).unwrap(), 77);
        assert_eq!(server.replays(), stats(0, 2));

        // A `CAS` that loses writes nothing, and still is never kept.
        let mut b = ProgramBuilder::new("claim", 8, 8);
        b.cas(
            Reg::new(0),
            Operand::CurPtr,
            0,
            Operand::Imm(1),
            Operand::Imm(3),
            Width::B8,
        );
        b.ret(Operand::Imm(0));
        let claim = packet(&Arc::new(b.finish().unwrap()), lock, 0);
        let epoch = mem.write_epoch();
        let lost = serve(&mut server, 0, &mut mem, &claim);
        assert_eq!(serve(&mut server, 0, &mut mem, &claim), lost);
        assert_eq!(
            (mem.write_epoch(), mem.read_word(lock, 8).unwrap()),
            (epoch, 4)
        );
        assert_eq!(server.replays(), stats(0, 4));
    }

    #[test]
    fn a_memo_slot_replays_only_the_inputs_it_was_filed_with() {
        let (mut mem, program) = (memory(), find());
        let mut server = rpc_server();
        let pkt = packet(&program, node(0), 3);
        serve(&mut server, 0, &mut mem, &pkt);
        let key = inputs_hash(program.code_id(), 0, &pkt.state, 64);
        let mut other_key = pkt.clone();
        other_key.state.set_scratch_u64(0, 2);
        let mut later_start = pkt.clone();
        later_start.state.cur_ptr = node(1);
        let mut continued = pkt.clone();
        continued.state.iters_done = 1;
        let mut other_program = pkt.clone();
        other_program.code = find();
        let cases = [
            (other_key, 0, 64),
            (later_start, 0, 64),
            (continued, 0, 64),
            (other_program, 0, 64),
            (pkt.clone(), 1, 64),
            (pkt.clone(), 0, 63),
        ];
        for (i, (mut other, node, max_iters)) in cases.into_iter().enumerate() {
            let before = other.clone();
            assert!(
                server
                    .memo
                    .replay(key, node, &mut other, max_iters)
                    .is_none(),
                "case {i}"
            );
            assert_eq!(other.state, before.state, "case {i}");
        }
        let mut same = pkt.clone();
        assert!(server.memo.replay(key, 0, &mut same, 64).is_some());
        assert_eq!(same.state.scratch_u64(8), 103);
    }
}
