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

use std::collections::VecDeque;

use pulse_frontend::LruSet;
use pulse_isa::{CostModel, Fault, Interpreter, IterOutcome, MemFault};
use pulse_mem::{ClusterMemory, NodeId};
use pulse_net::{IterPacket, IterStatus};
use pulse_sim::{SerialResource, ServerPool, SimTime};

/// A CPU's execution parameters for traversal service.
#[derive(Debug, Clone, Copy)]
struct CpuModel {
    /// Per-instruction time for traversal logic.
    insn_time: SimTime,
    /// Local DRAM access latency (dependent pointer chase step).
    dram_latency: SimTime,
}

/// Xeon Gold 6240-class core.
const XEON: CpuModel = CpuModel {
    insn_time: CostModel::xeon().insn_time,
    dram_latency: SimTime::from_nanos(90),
};

/// Bluefield-2 Cortex-A72-class core: slower issue, slower memory path.
const ARM_CORTEX_A72: CpuModel = CpuModel {
    insn_time: CostModel::arm_cortex_a72().insn_time,
    dram_latency: SimTime::from_nanos(150),
};

/// Memory-node DRAM bandwidth each node serves, bytes per second.
const DRAM_BYTES_PER_SEC: u64 = 25_000_000_000;

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
    fn cpu(self) -> CpuModel {
        match self {
            RpcFlavor::RpcArm => ARM_CORTEX_A72,
            _ => XEON,
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
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Work {
    service: SimTime,
    pub(crate) bytes: u64,
}

/// One memory node's RPC server: its worker cores, its DRAM pipe, the
/// interpreter the workers run traversals with, and the packets waiting
/// for a worker.
#[derive(Debug)]
pub(crate) struct RpcServer {
    flavor: RpcFlavor,
    workers: ServerPool,
    dram: SerialResource,
    interp: Interpreter,
    /// Packets that landed while every worker was busy, in arrival order.
    pub(crate) waiting: VecDeque<IterPacket>,
    /// Traversal iterations served.
    pub(crate) iterations: u64,
}

impl RpcServer {
    pub(crate) fn new(flavor: RpcFlavor) -> RpcServer {
        RpcServer {
            flavor,
            workers: ServerPool::new(flavor.workers_per_node()),
            dram: SerialResource::new(DRAM_BYTES_PER_SEC * 8),
            interp: Interpreter::new(),
            waiting: VecDeque::new(),
            iterations: 0,
        }
    }

    /// Runs `pkt`'s traversal on node `n` until it returns, needs a
    /// pointer `n` does not host, faults, or spends its `max_iters`
    /// budget, and sets the packet's status accordingly. With `collect`,
    /// every cell the traversal read rides back on the packet to fill the
    /// CPU's front-end cache. Returns the work done, software included.
    pub(crate) fn run(
        &mut self,
        n: NodeId,
        pkt: &mut IterPacket,
        mem: &mut ClusterMemory,
        max_iters: u32,
        collect: bool,
    ) -> Work {
        let cpu = self.flavor.cpu();
        let mut work = Work {
            service: self.flavor.request_software(),
            bytes: 0,
        };
        let program = pkt.code.program();
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
        work
    }

    /// Adds copying a `len`-byte object into the response to `work`.
    pub(crate) fn gather(work: &mut Work, len: u32) {
        work.service += SimTime::serialization(len as u64, DRAM_BYTES_PER_SEC * 8);
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
