//! The compared systems (§6): Fastswap-style cache-based paging, RPC on
//! server-class CPUs, RPC on wimpy ARM SmartNIC cores, and AIFM-style
//! Cache+RPC.
//!
//! Every baseline executes the *same* [`AppRequest`] streams as pulse,
//! functionally (results are bit-identical) and then prices them through
//! its own timing model. Requests run closed-loop with a fixed number of
//! outstanding clients, sharing contended resources (CPU threads / RPC
//! workers, the CPU-node link, per-node DRAM channels, the swap pipe).

use pulse_frontend::replay::{drive, measured_rate};
use pulse_frontend::{CacheConfig, LruSet, TraversalCache};
use pulse_isa::CostModel;
use pulse_mem::{degraded_window, ClusterMemory, FaultEvent, FaultKind, NodeId};
use pulse_net::{Endpoint, Fabric, FabricConfig, LinkConfig, SwitchConfig, TopologySpec};
use pulse_sim::{
    CpuDispatch, DispatchConfig, LatencyHistogram, SerialResource, ServerPool, SimTime,
};
use pulse_trace::{LatencyBreakdown, Phase, RunMetrics};
use pulse_workloads::{execute_functional, Access, AppRequest};

/// Request, response-base and bounce frame size, bytes (header + pointer +
/// parameters). A cross-node bounce sends one frame each way.
const FRAME_BYTES: u64 = 128;

/// One endpoint→endpoint hop through the rack's switch: two link
/// propagations around the switch pipeline, the same constants the pulse
/// rack prices.
fn one_way() -> SimTime {
    LinkConfig::default().propagation * 2 + SwitchConfig::default().pipeline_latency
}

/// Builds the rack's routed fabric for `spec` over one CPU node and `nodes`
/// memory nodes, or `None` on the flat default.
fn build_fabric(spec: TopologySpec, nodes: usize) -> Option<Fabric> {
    spec.is_routed()
        .then(|| Fabric::new(spec.build(1, nodes), FabricConfig::default()))
}

/// A CPU's execution parameters for traversal replay.
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

/// What a baseline run measured: the engine-neutral [`RunMetrics`]
/// (reachable through `Deref`) plus what only the replay models price.
/// The metrics' `cache_hit_rate` is the shared front-end traversal-cell
/// cache; the system's own page or object cache is
/// [`BaselineReport::cache_hit_ratio`]. The replays are analytic, so their
/// phase attribution comes from the priced components: the residual
/// (queueing on threads, workers and pipes) lands in [`Phase::Queued`],
/// and the per-phase sums still equal each request's latency exactly.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// System label ("Cache-based", "RPC", ...).
    pub label: &'static str,
    /// The run outcome every engine reports.
    pub metrics: RunMetrics,
    /// Total time attributed to pointer traversal (Fig. 2(a)'s numerator).
    pub traversal_time: SimTime,
    /// Total request-resident time (Fig. 2(a)'s denominator).
    pub total_time: SimTime,
    /// Cache hit ratio (page or object cache), if the system has one.
    pub cache_hit_ratio: Option<f64>,
    /// Updates (requests with a store or an object write) that completed;
    /// an update that failed as unavailable does not count.
    pub completed_updates: u64,
}

impl std::ops::Deref for BaselineReport {
    type Target = RunMetrics;

    fn deref(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// Peak CPU-downlink demand on a routed replay's fabric (0.0 without one),
/// normalized over the offered-load window in open loop (what the offered
/// rate asks of the link, however far the system falls behind it) and over
/// the makespan in closed loop (duty cycle).
fn link_demand(fabric: Option<&Fabric>, arrivals: Option<&[SimTime]>, makespan: SimTime) -> f64 {
    let horizon = match arrivals {
        Some(times) if times.len() > 1 => {
            let window = *times.last().expect("non-empty") - times[0];
            window.max(SimTime::from_nanos(1))
        }
        _ => makespan,
    };
    fabric.map_or(0.0, |f| f.cpu_downlink_demand(horizon))
}

/// Whether `node` is unreachable at `t` under a time-sorted fault
/// schedule. The replay baselines have no accelerators, so an
/// [`FaultKind::AccelWedge`] never makes a node unreachable to RPC.
fn node_down_at(faults: &[FaultEvent], node: NodeId, t: SimTime) -> bool {
    let mut down = false;
    for f in faults {
        if f.at > t {
            break;
        }
        match f.kind {
            FaultKind::MemCrash(n) | FaultKind::LinkPartition(n) if n == node => down = true,
            FaultKind::MemRecover(n) | FaultKind::LinkHeal(n) if n == node => down = false,
            _ => {}
        }
    }
    down
}

impl BaselineReport {
    /// Fraction of execution time spent in pointer traversals (Fig. 2(a)).
    pub fn traversal_fraction(&self) -> f64 {
        if self.total_time == SimTime::ZERO {
            return 0.0;
        }
        self.traversal_time.as_picos() as f64 / self.total_time.as_picos() as f64
    }
}

// ------------------------------------------------------------- Cache-based

/// Page size of the swap system.
const PAGE_BYTES: u64 = 4096;

/// Kernel fault-handling software cost per major fault.
const FAULT_SOFTWARE: SimTime = SimTime::from_micros(5);

/// Swap-subsystem per-page service (reclaim + I/O issue) — the "could not
/// evict pages fast enough" ceiling of §6.1.
const SWAP_SERVICE: SimTime = SimTime::from_micros(4);

/// Application threads at the CPU node.
const SWAP_THREADS: usize = 16;

/// Fastswap-style swap cache configuration. The page size, fault and swap
/// costs, thread count and CPU are fixed constants of the model.
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// CPU-node DRAM used as page cache, bytes (2 GB in §6, scaled).
    pub cache_bytes: u64,
    /// CPU-node request-dispatch engine (the same contended-issue model the
    /// pulse rack runs, so pulse-vs-baseline sweeps stay apples-to-apples).
    /// Each request books one dispatch op at admission; the default is
    /// uncontended.
    pub dispatch: DispatchConfig,
    /// Rack geometry. On the flat default every page fill is priced with
    /// the rack's end-to-end link and switch constants; on a routed spec
    /// each fill is a request + page transfer over the fabric's finite
    /// links from the owning node.
    pub topology: TopologySpec,
    /// Record per-phase latency attribution
    /// ([`RunMetrics::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cache_bytes: 64 << 20,
            dispatch: DispatchConfig::default(),
            topology: TopologySpec::Flat,
            trace: false,
        }
    }
}

impl SwapConfig {
    /// The system label every swap report and engine carries.
    pub fn label(&self) -> &'static str {
        "Cache-based"
    }
}

/// Runs the cache-based (swap) system over a request stream.
///
/// Every memory access in every request probes a 4 KiB-page LRU; misses pay
/// fault software + a network round trip + page transfer, serialized
/// through the swap pipe.
///
/// With `arrivals` `None` the stream runs closed-loop over `concurrency`
/// clients. With `Some(times)`, request `i` arrives at `times[i]` (sorted
/// ascending) and its latency is measured from that arrival, queueing
/// included; the report's throughput is then goodput over the
/// arrival-to-last-completion span.
pub fn run_swap_cache(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: SwapConfig,
    arrivals: Option<&[SimTime]>,
) -> BaselineReport {
    let mut lru = LruSet::new((cfg.cache_bytes / PAGE_BYTES).max(1) as usize);
    let mut swap_pipe = SerialResource::new(u64::MAX); // fixed service per page
    let mut threads = ServerPool::new(SWAP_THREADS);
    // The CPU node's admission dispatch engine (the swap system's own page
    // cache stands in for a traversal cache).
    let mut dispatch = CpuDispatch::new(cfg.dispatch);
    let mut fabric = build_fabric(cfg.topology, mem.node_count());
    let routed = fabric.is_some();
    let mut net_bytes = 0u64;
    let mut mem_bytes = 0u64;
    let one_way = one_way();
    let page_wire = SimTime::serialization(PAGE_BYTES, LinkConfig::default().bits_per_sec);
    let miss_cost = FAULT_SOFTWARE + one_way * 2 + page_wire;
    let mut breakdown = cfg.trace.then(LatencyBreakdown::new);

    // Pre-execute functionally (results + traces).
    let traces: Vec<(Vec<Access>, SimTime)> = requests
        .iter()
        .map(|r| {
            let run = execute_functional(mem, r, 1 << 20).expect("functional run");
            (run.accesses, r.cpu_work)
        })
        .collect();

    // All contended resources are booked at the request's admission time so
    // bookings stay time-ordered across the closed loop (see module docs);
    // completion is the max over the uncontended path and each contended
    // resource's grant plus its downstream path.
    let (latency, makespan, traversal_total, latency_total) =
        drive(requests.len(), concurrency, arrivals, |idx, ready| {
            let (accesses, cpu_work) = &traces[idx];
            let mut pure = SimTime::ZERO;
            let mut traversal_pure = SimTime::ZERO;
            let mut misses = 0u64;
            let mut hits = 0u64;
            let mut insn_total = SimTime::ZERO;
            let mut fills: Vec<usize> = Vec::new();
            for a in accesses {
                let mut cost = XEON.insn_time * a.insns as u64;
                insn_total += cost;
                let first = a.addr / PAGE_BYTES;
                let last = (a.addr + a.len.max(1) as u64 - 1) / PAGE_BYTES;
                for page in first..=last {
                    if lru.touch(page) {
                        cost += XEON.dram_latency;
                        hits += 1;
                    } else {
                        cost += miss_cost;
                        misses += 1;
                        net_bytes += PAGE_BYTES;
                        mem_bytes += PAGE_BYTES;
                        if routed {
                            fills.push(mem.owner_of(page * PAGE_BYTES).unwrap_or(0));
                        }
                    }
                }
                pure += cost;
                if a.traversal {
                    traversal_pure += cost;
                }
            }
            pure += *cpu_work;
            // The request-dispatch engine admits the request (queueing +
            // occupancy under load), then an application thread hosts it
            // end-to-end.
            let admitted = dispatch.book_grant(ready).end;
            let slot = threads.acquire(admitted, pure);
            // The swap subsystem serves this request's misses.
            let mut pipe_end = slot.grant.start;
            let mut routed_wire = None;
            if misses > 0 {
                let g = swap_pipe.acquire_for(slot.grant.start, SWAP_SERVICE * misses);
                pipe_end = match fabric.as_mut() {
                    // Routed: each fill is a request to the owning node and
                    // a page riding back over the fabric's finite links.
                    Some(fab) => {
                        let mut cursor = g.end;
                        for &owner in &fills {
                            let req = fab
                                .send(cursor, Endpoint::Cpu(0), Endpoint::Mem(owner), FRAME_BYTES)
                                .expect("fabric covers every node");
                            cursor = fab
                                .send(req, Endpoint::Mem(owner), Endpoint::Cpu(0), PAGE_BYTES)
                                .expect("fabric covers every node");
                        }
                        routed_wire = Some(cursor - g.end);
                        cursor + FAULT_SOFTWARE + *cpu_work
                    }
                    None => g.end + one_way * 2 + FAULT_SOFTWARE + *cpu_work,
                };
            }
            let end = (slot.grant.start + pure).max(pipe_end);
            if let Some(b) = breakdown.as_mut() {
                let arrive = arrivals.map_or(ready, |a| a[idx]);
                let wire = routed_wire.unwrap_or_else(|| (one_way * 2 + page_wire) * misses);
                // Priced components; thread/pipe queueing and the pieces
                // hidden under the completion `max` fall to the residual.
                b.record_components(
                    end - arrive,
                    &[
                        (Phase::Queued, admitted - ready),
                        (Phase::CacheHit, XEON.dram_latency * hits),
                        (
                            Phase::Dispatch,
                            insn_total + *cpu_work + FAULT_SOFTWARE * misses,
                        ),
                        (Phase::WireHop, wire),
                        (Phase::MemTrip, SWAP_SERVICE * misses),
                    ],
                );
            }
            (end, traversal_pure, pure)
        });

    let link_demand = link_demand(fabric.as_ref(), arrivals, makespan);
    BaselineReport {
        label: cfg.label(),
        metrics: RunMetrics {
            completed: requests.len() as u64,
            latency,
            throughput: measured_rate(requests.len(), makespan, arrivals),
            net_bytes: fabric
                .as_ref()
                .map_or(net_bytes, Fabric::host_injected_bytes),
            mem_bytes,
            link_utilization: link_demand.min(1.0),
            link_demand,
            queue_depth: fabric.as_ref().map_or(0, |f| f.max_queue_depth() as u64),
            phase: breakdown.as_ref().and_then(LatencyBreakdown::attribution),
            makespan,
            ..RunMetrics::default()
        },
        traversal_time: traversal_total,
        total_time: latency_total,
        cache_hit_ratio: Some(lru.hit_ratio()),
        // The swap system completes every request.
        completed_updates: requests.iter().filter(|r| r.is_update()).count() as u64,
    }
}

// ------------------------------------------------------------------- RPC

/// Cached object granularity of Cache+RPC (the 8 KiB application object).
const OBJECT_BYTES: u64 = 8192;

/// Memory-node DRAM bandwidth each node serves, bytes per second.
const DRAM_BYTES_PER_SEC: u64 = 25_000_000_000;

/// Which RPC flavour to run. The flavour fixes the memory-node CPU, its
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

    /// Extra per-request overhead of the TCP-based stack, per direction
    /// (Cache+RPC only; §6.1 attributes AIFM's latency gap to it).
    fn tcp_extra(self) -> SimTime {
        match self {
            RpcFlavor::CacheRpc { .. } => SimTime::from_micros(2),
            _ => SimTime::ZERO,
        }
    }
}

/// RPC system configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Flavour.
    pub flavor: RpcFlavor,
    /// CPU-node request-dispatch engine — the extended evaluation
    /// attributes the RPC baseline's collapse to exactly this resource
    /// saturating. One dispatch op is booked per network issue (the initial
    /// request plus every cross-node bounce). The default is uncontended.
    pub dispatch: DispatchConfig,
    /// Front-end traversal-cell cache (the shared
    /// `pulse_frontend::TraversalCache`, disabled by default): leading
    /// traversal hops whose cells are all resident run at
    /// `CacheConfig::HIT_NS` on the CPU instead of as remote segments, the
    /// remainder executes remotely as usual, remotely-read traversal cells
    /// fill the cache (priced as extra response bytes), and a request's
    /// writes age the touched lines out. This is "RPC+cache" in the sweep
    /// curves — the hypothetical the paper's framing argues cannot save
    /// pointer traversals.
    pub cache: CacheConfig,
    /// Rack geometry. On the flat default the request/bounce/response trips
    /// are priced with the rack's end-to-end link and switch constants and
    /// a single CPU receive pipe; on a routed spec every trip — including
    /// both legs of every cross-node bounce — is a fabric send over finite
    /// directed links, so the bouncing traffic converges on the CPU node's
    /// downlink (the incast pulse's chained hops avoid).
    pub topology: TopologySpec,
    /// Scheduled faults — the *same* schedule the pulse rack runs, so
    /// pulse-vs-RPC curves degrade under identical failure injections.
    /// Node health is checked once per request, when a client picks it up
    /// (its admission, not its arrival; a fault during service does not
    /// touch it). A segment whose node is down at that instant is
    /// redirected to the extent's first live replica
    /// (`ClusterMemory::replicas_of`, governed by
    /// `ClusterMemory::set_replication` on the memory handed to the run):
    /// each redirect pays one extra timeout round trip and counts as a
    /// failover; with no live replica the request fault-completes as
    /// unavailable. The RPC model never rebuilds lost extents — recovery
    /// is fail-stop-and-restore only.
    pub faults: Vec<FaultEvent>,
    /// Record per-phase latency attribution
    /// ([`RunMetrics::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl RpcConfig {
    /// The paper's RPC-on-Xeon setup.
    pub fn rpc() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::Rpc,
            dispatch: DispatchConfig::default(),
            cache: CacheConfig::disabled(),
            topology: TopologySpec::Flat,
            faults: Vec::new(),
            trace: false,
        }
    }

    /// RPC on the Bluefield-2's ARM cores.
    pub fn rpc_arm() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::RpcArm,
            ..RpcConfig::rpc()
        }
    }

    /// AIFM-style Cache+RPC with a 2 GB-class (scaled) object cache.
    pub fn cache_rpc(cache_bytes: u64) -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::CacheRpc { cache_bytes },
            ..RpcConfig::rpc()
        }
    }

    /// The system label every run of this flavour reports.
    pub fn label(&self) -> &'static str {
        match self.flavor {
            RpcFlavor::Rpc => "RPC",
            RpcFlavor::RpcArm => "RPC-ARM",
            RpcFlavor::CacheRpc { .. } => "Cache+RPC",
        }
    }
}

/// Runs an RPC-family system over a request stream.
///
/// Traversals execute on the owning memory node's worker cores; a traversal
/// that crosses onto another node bounces through the CPU node (the
/// "return to the CPU node whenever the traversal accesses a pointer on
/// another memory node" penalty of §5 that pulse's in-network routing
/// removes).
///
/// With `arrivals` `None` the stream runs closed-loop over `concurrency`
/// clients. With `Some(times)`, request `i` arrives at `times[i]` (sorted
/// ascending) and its latency is measured from that arrival, queueing
/// included; the report's throughput is then goodput over the
/// arrival-to-last-completion span.
pub fn run_rpc(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: RpcConfig,
    arrivals: Option<&[SimTime]>,
) -> BaselineReport {
    let nodes = mem.node_count();
    let cpu = cfg.flavor.cpu();
    let request_software = cfg.flavor.request_software();
    let tcp_extra = cfg.flavor.tcp_extra();
    let one_way = one_way();
    let mut workers: Vec<ServerPool> = (0..nodes)
        .map(|_| ServerPool::new(cfg.flavor.workers_per_node()))
        .collect();
    let mut dram: Vec<SerialResource> = (0..nodes)
        .map(|_| SerialResource::new(DRAM_BYTES_PER_SEC * 8))
        .collect();
    // Flat: the CPU-node's receive direction (responses) is the only link
    // pipe that ever approaches saturation in these workloads. Routed: the
    // fabric's directed links replace it entirely.
    let mut link_rx = SerialResource::new(LinkConfig::default().bits_per_sec);
    let mut fabric = build_fabric(cfg.topology, nodes);
    // The CPU node: its dispatch engine plus the optional traversal-cell
    // cache.
    let mut dispatch = CpuDispatch::new(cfg.dispatch);
    let mut cache = cfg.cache.enabled().then(|| TraversalCache::new(cfg.cache));
    let mut object_cache = match cfg.flavor {
        RpcFlavor::CacheRpc { cache_bytes } if cache_bytes > 0 => {
            Some(LruSet::new((cache_bytes / OBJECT_BYTES).max(1) as usize))
        }
        _ => None,
    };
    let mut net_bytes = 0u64;
    let mut mem_bytes = 0u64;
    // Fault bookkeeping: the schedule sorted by time, the degraded window
    // it opens, and the counters the report surfaces.
    let mut faults = cfg.faults.clone();
    faults.sort_by_key(|f| f.at);
    let window = degraded_window(&faults);
    let mut failovers = 0u64;
    let mut unavailable = 0u64;
    let mut unavailable_updates = 0u64;
    let mut degraded = LatencyHistogram::new();
    let mut breakdown = cfg.trace.then(LatencyBreakdown::new);

    struct Priced {
        /// The functional access trace, segmented lazily per serve (the
        /// front-end cache decides per request how much of the leading
        /// traversal runs locally).
        accesses: Vec<Access>,
        cpu_work: SimTime,
        response_bytes: u64,
        object_addr: Option<u64>,
    }

    // Pre-execute functionally, in stream order (updates land in order).
    let priced: Vec<Priced> = requests
        .iter()
        .map(|r| {
            let run = execute_functional(mem, r, 1 << 20).expect("functional run");
            let object_addr = run.accesses.iter().find(|a| !a.traversal).map(|a| a.addr);
            let response_bytes = FRAME_BYTES
                + r.response_extra_bytes as u64
                + r.object_io
                    .map_or(0, |io| if io.write { 0 } else { io.len as u64 });
            Priced {
                accesses: run.accesses,
                cpu_work: r.cpu_work,
                response_bytes,
                object_addr,
            }
        })
        .collect();

    /// One served request: its completion, the `drive` accounting
    /// (traversal and uncontended path time), and its priced latency
    /// components in attribution order. Contention hidden under the
    /// completion `max` falls to the `Queued` residual.
    #[derive(Default)]
    struct Served {
        end: SimTime,
        traversal: SimTime,
        pure: SimTime,
        queued: SimTime,
        cache_hit: SimTime,
        failover: SimTime,
        wire: SimTime,
        mem: SimTime,
        dispatch: SimTime,
    }

    // Every completion path ends here: the degraded-window sample and the
    // phase breakdown, both timed from the request's arrival.
    let mut finish = |idx: usize, ready: SimTime, s: Served| {
        let arrive = arrivals.map_or(ready, |a| a[idx]);
        if let Some((from, to)) = window {
            if s.end >= from && s.end <= to {
                degraded.record(s.end - arrive);
            }
        }
        if let Some(b) = breakdown.as_mut() {
            b.record_components(
                s.end - arrive,
                &[
                    (Phase::Queued, s.queued),
                    (Phase::CacheHit, s.cache_hit),
                    (Phase::Failover, s.failover),
                    (Phase::WireHop, s.wire),
                    (Phase::MemTrip, s.mem),
                    (Phase::Dispatch, s.dispatch),
                ],
            );
        }
        (s.end, s.traversal, s.pure)
    };

    let (latency, makespan, traversal_total, latency_total) =
        drive(requests.len(), concurrency, arrivals, |idx, ready| {
            let p = &priced[idx];
            // Front-end cache prefix: leading traversal *read* hops whose
            // cells are all resident (and version-valid) execute on the
            // CPU at hit cost; the first miss, write, or object access
            // sends the remainder down the normal RPC path. Remotely-read
            // traversal cells then fill the cache (each filled line rides
            // the response as a 12 B descriptor + line bytes), and this
            // request's writes age the touched lines out — the coherence
            // traffic a real CPU-side cache would have to pay for.
            let mut prefix = 0usize;
            let mut prefix_time = SimTime::ZERO;
            let mut fill_wire_bytes = 0u64;
            if let Some(cache) = cache.as_mut() {
                let hit = CacheConfig::HIT_NS;
                for a in &p.accesses {
                    if !a.traversal || a.write || !cache.probe_range(a.addr, a.len as u64, mem) {
                        cache.note_miss();
                        break;
                    }
                    cache.note_hit();
                    prefix += 1;
                    prefix_time += hit + cpu.insn_time * a.insns as u64;
                }
                let remaining = &p.accesses[prefix..];
                for a in remaining {
                    if a.write {
                        cache.invalidate_range(a.addr, a.len.max(1) as u64);
                    } else if a.traversal {
                        let (lines, bytes) = cache.fill_range(a.addr, a.len as u64, mem);
                        fill_wire_bytes +=
                            lines * pulse_net::TOUCHED_DESCRIPTOR_BYTES as u64 + bytes;
                    }
                }
                if remaining.is_empty() {
                    // The whole traversal ran from cache: no RPC at all.
                    // One dispatch op still admits the request, and the
                    // response is assembled locally.
                    let admitted = dispatch.book_grant(ready).end;
                    let pure = prefix_time + p.cpu_work;
                    return finish(
                        idx,
                        ready,
                        Served {
                            end: admitted + pure,
                            traversal: prefix_time,
                            pure,
                            queued: admitted - ready,
                            cache_hit: prefix_time,
                            dispatch: p.cpu_work,
                            ..Served::default()
                        },
                    );
                }
            }
            let remaining = &p.accesses[prefix..];
            // Segment the (remaining) trace by owning node — identical
            // math to the pre-cache model when the prefix is empty. Under
            // a fault schedule the target is resolved against node health
            // at admission: a dark primary redirects the segment to the
            // first live replica (a failover, priced below as an extra
            // timeout round trip); an extent with no live replica
            // fault-completes the whole request as unavailable.
            let mut segments: Vec<(usize, SimTime, u64, bool)> = Vec::new();
            let mut req_failovers = 0u64;
            let mut dead_end = false;
            for a in remaining {
                let primary = mem.owner_of(a.addr).unwrap_or(0);
                let owner = if faults.is_empty() || !node_down_at(&faults, primary, ready) {
                    primary
                } else {
                    match mem
                        .replicas_of(a.addr)
                        .into_iter()
                        .find(|&m| !node_down_at(&faults, m, ready))
                    {
                        Some(m) => m,
                        None => {
                            dead_end = true;
                            break;
                        }
                    }
                };
                let step = if a.traversal {
                    cpu.dram_latency + cpu.insn_time * a.insns as u64
                } else {
                    SimTime::serialization(a.len as u64, DRAM_BYTES_PER_SEC * 8)
                };
                match segments.last_mut() {
                    Some((node, t, b, trav)) if *node == owner && *trav == a.traversal => {
                        *t += step;
                        *b += a.len as u64;
                    }
                    _ => {
                        if owner != primary {
                            req_failovers += 1;
                        }
                        segments.push((owner, step, a.len as u64, a.traversal));
                    }
                }
            }
            if dead_end {
                // One timed-out attempt: the client learns nothing is
                // left to serve this request and gives up.
                unavailable += 1;
                unavailable_updates += requests[idx].is_update() as u64;
                net_bytes += FRAME_BYTES;
                let admitted = dispatch.book_grant(ready).end;
                let pure = one_way * 2 + tcp_extra * 2;
                return finish(
                    idx,
                    ready,
                    Served {
                        end: admitted + pure,
                        pure,
                        queued: admitted - ready,
                        // The whole timed-out attempt is failure handling.
                        failover: pure,
                        ..Served::default()
                    },
                );
            }
            failovers += req_failovers;
            // Cache+RPC: a hit in the object cache spares the object's wire
            // transfer, but the traversal still runs remotely — the index
            // itself lives in disaggregated memory, which is why the paper
            // finds "data structure-aware caching is not beneficial" here.
            let mut response_bytes = p.response_bytes;
            if let (Some(cache), Some(addr)) = (object_cache.as_mut(), p.object_addr) {
                if cache.touch(addr / OBJECT_BYTES) {
                    response_bytes = FRAME_BYTES;
                }
            }
            response_bytes += fill_wire_bytes;
            // Uncontended path time.
            let mut traversal = prefix_time;
            let mut service = SimTime::ZERO;
            let mut bounce = SimTime::ZERO;
            for (i, &(_, svc_time, _, is_trav)) in segments.iter().enumerate() {
                service += svc_time + request_software;
                if i > 0 {
                    bounce += one_way * 2; // CPU-node bounce per hop
                    net_bytes += 2 * FRAME_BYTES;
                }
                if is_trav {
                    traversal += svc_time;
                }
            }
            let response_wire =
                SimTime::serialization(response_bytes, LinkConfig::default().bits_per_sec);
            net_bytes += FRAME_BYTES + response_bytes;
            let pure = one_way * 2
                + tcp_extra * 2
                // Each failover was detected by timing out the primary
                // first: one wasted round trip per redirected segment.
                + one_way * (2 * req_failovers)
                + prefix_time
                + service
                + bounce
                + response_wire
                + p.cpu_work;
            // Contended bookings, all at admission time (time-ordered
            // across the closed loop). The CPU node's dispatch engine
            // serializes every network issue this request makes — the
            // initial RPC plus one re-issue per cross-node bounce — so the
            // CPU side saturates at `contexts / occupancy` issues/sec.
            let mut issued = ready;
            for _ in 0..segments.len().max(1) {
                issued = dispatch.book_grant(issued).end;
            }
            let end = match fabric.as_mut() {
                // Routed: every trip is a fabric send over finite directed
                // links. The request rides to the first owning node; each
                // cross-node bounce is a reply up to the CPU node plus a
                // re-issue down to the next node — so every bounce crosses
                // the CPU downlink, and concurrent requests incast there.
                Some(fab) => {
                    let first = segments.first().map_or(0, |s| s.0);
                    let mut cursor = fab
                        .send(
                            issued + prefix_time,
                            Endpoint::Cpu(0),
                            Endpoint::Mem(first),
                            FRAME_BYTES,
                        )
                        .expect("fabric covers every node");
                    let mut last = first;
                    for (i, &(node, svc_time, bytes, _)) in segments.iter().enumerate() {
                        if i > 0 {
                            // The reply leg hauls the fetched cells up with
                            // it — the CPU cannot chase a pointer it has not
                            // seen. Chained traversal never pays this leg,
                            // which is exactly the downlink incast gap.
                            let back = fab
                                .send(
                                    cursor,
                                    Endpoint::Mem(last),
                                    Endpoint::Cpu(0),
                                    FRAME_BYTES + segments[i - 1].2,
                                )
                                .expect("fabric covers every node");
                            cursor = fab
                                .send(back, Endpoint::Cpu(0), Endpoint::Mem(node), FRAME_BYTES)
                                .expect("fabric covers every node");
                        }
                        let w = workers[node].acquire(cursor, svc_time + request_software);
                        let d = dram[node].acquire(cursor, bytes);
                        mem_bytes += bytes;
                        cursor = w.grant.end.max(d.end);
                        last = node;
                    }
                    let arrive = fab
                        .send(
                            cursor,
                            Endpoint::Mem(last),
                            Endpoint::Cpu(0),
                            response_bytes,
                        )
                        .expect("fabric covers every node");
                    (ready + pure).max(arrive + p.cpu_work)
                }
                None => {
                    let depart = issued + prefix_time + one_way; // first node
                    let mut worker_end = depart;
                    for &(node, svc_time, bytes, _) in &segments {
                        let w = workers[node].acquire(depart, svc_time + request_software);
                        let d = dram[node].acquire(depart, bytes);
                        mem_bytes += bytes;
                        worker_end = worker_end.max(w.grant.end).max(d.end);
                    }
                    let rx = link_rx.acquire(worker_end + one_way, response_bytes);
                    (ready + pure)
                        .max(worker_end + one_way + response_wire + p.cpu_work)
                        .max(rx.end + p.cpu_work)
                }
            };
            finish(
                idx,
                ready,
                Served {
                    end,
                    traversal,
                    pure,
                    queued: issued - ready,
                    cache_hit: prefix_time,
                    failover: one_way * (2 * req_failovers),
                    wire: one_way * 2 + bounce + response_wire,
                    mem: service,
                    dispatch: tcp_extra * 2 + p.cpu_work,
                },
            )
        });

    let link_demand = link_demand(fabric.as_ref(), arrivals, makespan);
    BaselineReport {
        label: cfg.label(),
        metrics: RunMetrics {
            completed: requests.len() as u64 - unavailable,
            // The only way a replay baseline fails a request is running
            // out of replicas under a fault schedule.
            faulted: unavailable,
            latency,
            throughput: measured_rate(requests.len(), makespan, arrivals),
            net_bytes: fabric
                .as_ref()
                .map_or(net_bytes, Fabric::host_injected_bytes),
            mem_bytes,
            cache_hit_rate: cache.map_or(0.0, |c| c.hit_rate()),
            link_utilization: link_demand.min(1.0),
            link_demand,
            queue_depth: fabric.as_ref().map_or(0, |f| f.max_queue_depth() as u64),
            failovers,
            unavailable_completions: unavailable,
            degraded_p99: degraded.p99(),
            phase: breakdown.as_ref().and_then(LatencyBreakdown::attribution),
            makespan,
            ..RunMetrics::default()
        },
        traversal_time: traversal_total,
        total_time: latency_total,
        cache_hit_ratio: object_cache.map(|c| c.hit_ratio()),
        completed_updates: requests.iter().filter(|r| r.is_update()).count() as u64
            - unavailable_updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_ds::BuildCtx;
    use pulse_mem::{ClusterAllocator, Placement};
    use pulse_workloads::{Application, Distribution, WebService, WebServiceConfig};

    fn webservice_setup_dist(
        keys: u64,
        object_bytes: u32,
        distribution: Distribution,
    ) -> (ClusterMemory, Vec<AppRequest>) {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys,
                    object_bytes,
                    distribution,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        (mem, reqs)
    }

    fn webservice_setup(keys: u64, object_bytes: u32) -> (ClusterMemory, Vec<AppRequest>) {
        webservice_setup_dist(keys, object_bytes, Distribution::Zipfian)
    }

    #[test]
    fn swap_cache_is_orders_of_magnitude_slower_than_rpc() {
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        // ~105 MB working set with a ~5 MB hash index spread over ~1200
        // pages; a 1 MiB cache forces traversal pages to miss.
        let swap = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                cache_bytes: 1 << 20,
                ..SwapConfig::default()
            },
            None,
        );
        let rpc = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc(), None);
        let ratio = swap.latency.mean.as_nanos_f64() / rpc.latency.mean.as_nanos_f64();
        // Fig. 7: cache-based is 9-34x slower than offloading systems.
        assert!(ratio > 5.0, "swap/rpc latency ratio {ratio}");
        assert!(swap.cache_hit_ratio.unwrap() < 0.999);
        assert!(swap.throughput < rpc.throughput);
    }

    #[test]
    fn warm_small_working_set_mostly_hits() {
        let (mut mem, reqs) = webservice_setup(200, 8192); // ~1.7 MB
        let swap = run_swap_cache(
            &mut mem,
            &reqs,
            4,
            SwapConfig {
                cache_bytes: 64 << 20, // everything fits
                ..SwapConfig::default()
            },
            None,
        );
        assert!(
            swap.cache_hit_ratio.unwrap() > 0.5,
            "hit ratio {:?}",
            swap.cache_hit_ratio
        );
    }

    #[test]
    fn rpc_arm_is_slower_than_rpc() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), None);
        let arm = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc_arm(), None);
        assert!(
            arm.latency.mean > rpc.latency.mean,
            "arm {} vs rpc {}",
            arm.latency.mean,
            rpc.latency.mean
        );
        assert!(arm.throughput <= rpc.throughput * 1.05);
    }

    #[test]
    fn cache_rpc_latency_not_better_than_rpc() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), None);
        let aifm = run_rpc(&mut mem, &reqs, 16, RpcConfig::cache_rpc(4 << 20), None);
        // §6.1: "Cache+RPC incurs higher latency than RPC ... and does not
        // outperform RPC".
        assert!(
            aifm.latency.mean.as_nanos_f64() >= rpc.latency.mean.as_nanos_f64() * 0.9,
            "aifm {} rpc {}",
            aifm.latency.mean,
            rpc.latency.mean
        );
        assert!(aifm.cache_hit_ratio.is_some());
    }

    #[test]
    fn traversal_fraction_grows_as_cache_shrinks() {
        // Fig. 2(a)'s core observation.
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let mut fractions = Vec::new();
        for shift in [0u64, 3, 5] {
            let cache = (16u64 << 20) >> shift; // 16 MB, 2 MB, 0.5 MB
            let rep = run_swap_cache(
                &mut mem,
                &reqs,
                8,
                SwapConfig {
                    cache_bytes: cache,
                    ..SwapConfig::default()
                },
                None,
            );
            fractions.push(rep.traversal_fraction());
        }
        assert!(
            fractions[0] < fractions[2],
            "traversal fraction should grow with smaller caches: {fractions:?}"
        );
        assert!(fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let mut p99_at = |gap_ns: u64| {
            let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
                .map(|i| SimTime::from_nanos(gap_ns * i))
                .collect();
            run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc(), Some(&arrivals))
                .latency
                .p99
        };
        let light = p99_at(200_000); // 5 kops offered
        let heavy = p99_at(2_000); // 500 kops offered: far past saturation
        assert!(
            heavy > light * 2,
            "queueing must appear under load: light {light} heavy {heavy}"
        );
    }

    #[test]
    fn open_loop_at_light_load_matches_unloaded_latency() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let closed = run_rpc(&mut mem, &reqs, 1, RpcConfig::rpc(), None);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_micros(500 * i))
            .collect();
        let open = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc(), Some(&arrivals));
        // So sparse that no request ever queues: mean within 25% of the
        // single-client closed loop (cache state differs run to run).
        let ratio = open.latency.mean.as_nanos_f64() / closed.latency.mean.as_nanos_f64();
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn contended_dispatch_collapses_rpc_under_load() {
        // The §6 story the extended evaluation tells: the RPC baseline's
        // CPU-side request dispatch is a serial resource, and offering load
        // past its service rate collapses the tail. 200 kops offered vs a
        // 50 kops dispatch engine must blow p99 up and shed goodput.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_nanos(5_000 * i)) // 200 kops offered
            .collect();
        let free = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), Some(&arrivals));
        let contended = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                dispatch: DispatchConfig::contended(SimTime::from_micros(20), 1),
                ..RpcConfig::rpc()
            },
            Some(&arrivals),
        );
        assert!(
            contended.latency.p99 > free.latency.p99 * 2,
            "dispatch saturation must surface in the tail: free {} contended {}",
            free.latency.p99,
            contended.latency.p99
        );
        assert!(contended.throughput < free.throughput);
    }

    #[test]
    fn contended_dispatch_slows_swap_admission() {
        let (mut mem, reqs) = webservice_setup(200, 8192);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_nanos(10_000 * i)) // 100 kops offered
            .collect();
        let base = SwapConfig::default();
        let free = run_swap_cache(&mut mem, &reqs, 8, base, Some(&arrivals));
        let contended = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                dispatch: DispatchConfig::contended(SimTime::from_micros(50), 1),
                ..base
            },
            Some(&arrivals),
        );
        assert!(
            contended.latency.p99 > free.latency.p99,
            "free {} contended {}",
            free.latency.p99,
            contended.latency.p99
        );
    }

    /// The baselines execute the same write model as the rack: a mixed
    /// stream of seqlock-verified reads and locked update traversals
    /// replays through both systems, the updates really mutate the
    /// baseline's memory copy, and the write trips are priced (a mixed
    /// stream touches at least as many DRAM bytes as a read-only one).
    #[test]
    fn mixed_write_traversals_replay_through_baselines() {
        use pulse_mutation::{
            locked_update_stage, retrying_request, verified_read_stage, MutationConfig,
        };
        use std::sync::Arc;

        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let map = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let pairs: Vec<(u64, u64)> = (0..512).map(|k| (k, k)).collect();
            pulse_ds::HashMapDs::build_partitioned(&mut ctx, 8, &pairs, 2).unwrap()
        };
        let find = Arc::new(pulse_mutation::verified_find_program());
        let update = Arc::new(pulse_mutation::locked_update_program());
        let mc = MutationConfig::default();
        let reads: Vec<AppRequest> = (0..100)
            .map(|k| retrying_request(verified_read_stage(&find, map.bucket_addr(k), k), mc))
            .collect();
        let mixed: Vec<AppRequest> = (0..100)
            .map(|k| {
                if k % 2 == 0 {
                    retrying_request(
                        locked_update_stage(&update, map.bucket_addr(k), k, k + 7_000),
                        mc,
                    )
                } else {
                    retrying_request(verified_read_stage(&find, map.bucket_addr(k), k), mc)
                }
            })
            .collect();
        let ro = run_rpc(&mut mem, &reads, 8, RpcConfig::rpc(), None);
        let rw = run_rpc(&mut mem, &mixed, 8, RpcConfig::rpc(), None);
        assert_eq!(rw.completed, 100);
        assert!(
            rw.mem_bytes >= ro.mem_bytes,
            "write trips must be priced: ro {} rw {}",
            ro.mem_bytes,
            rw.mem_bytes
        );
        // The sequential replay applied the updates for real.
        assert_eq!(map.get_host(&mut mem, 42).unwrap(), Some(42 + 7_000));
        assert_eq!(map.get_host(&mut mem, 43).unwrap(), Some(43));
        // The swap cache executes the identical stream (fresh values).
        let swap = run_swap_cache(&mut mem, &mixed, 8, SwapConfig::default(), None);
        assert_eq!(swap.completed, 100);
    }

    #[test]
    fn routed_rpc_prices_bounces_on_the_cpu_downlink() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let flat = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), None);
        let routed = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                },
                ..RpcConfig::rpc()
            },
            None,
        );
        // The flat replay builds no fabric: its fabric metrics are zero.
        assert_eq!(flat.link_utilization, 0.0);
        assert_eq!(flat.queue_depth, 0);
        // Routed prices the same requests on finite links: the CPU downlink
        // is visibly busy and byte accounting still flows.
        assert_eq!(routed.completed, flat.completed);
        assert!(routed.link_utilization > 0.0);
        assert!(routed.net_bytes > 0);
        assert!(
            routed.latency.mean >= flat.latency.mean,
            "finite links cannot make requests faster: flat {} routed {}",
            flat.latency.mean,
            routed.latency.mean
        );
    }

    #[test]
    fn routed_swap_fills_cross_the_fabric() {
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let small = SwapConfig {
            cache_bytes: 1 << 20,
            ..SwapConfig::default()
        };
        let flat = run_swap_cache(&mut mem, &reqs, 8, small, None);
        let routed = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 1,
                },
                ..small
            },
            None,
        );
        assert_eq!(flat.link_utilization, 0.0);
        assert_eq!(flat.link_demand, 0.0);
        assert!(
            routed.link_utilization > 0.0,
            "page fills must show on the downlink"
        );
        assert!(routed.link_demand >= routed.link_utilization);
        assert!(routed.net_bytes > 0);
        assert_eq!(routed.completed, flat.completed);
    }

    #[test]
    fn rpc_crash_with_replication_fails_over() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        mem.set_replication(2);
        let clean = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), None);
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                ..RpcConfig::rpc()
            },
            None,
        );
        // Every request still completes — redirected onto replicas, each
        // redirect paying a detection round trip — and the whole degraded
        // run is slower than the clean one.
        assert_eq!(faulted.completed, clean.completed);
        assert_eq!(faulted.unavailable_completions, 0);
        assert!(faulted.failovers > 0);
        assert!(faulted.latency.mean > clean.latency.mean);
        assert!(faulted.degraded_p99 > SimTime::ZERO);
        assert_eq!(clean.failovers, 0);
        assert_eq!(clean.degraded_p99, SimTime::ZERO);
    }

    /// Degraded-window latency is measured from arrival, like the latency
    /// histogram: with a crash at t=0 that never heals, every completion
    /// lands inside the window, so under a load that queues the degraded
    /// p99 must equal the run's p99 — queueing included, not just service.
    #[test]
    fn open_loop_degraded_p99_counts_queueing() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        mem.set_replication(2);
        // 300 arrivals 50 ns apart onto 16 clients: far past saturation.
        let arrivals: Vec<SimTime> = (0..reqs.len() as u64)
            .map(|i| SimTime::from_nanos(50 * i))
            .collect();
        let rep = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                ..RpcConfig::rpc()
            },
            Some(&arrivals),
        );
        assert_eq!(rep.completed, reqs.len() as u64);
        assert!(rep.failovers > 0);
        assert!(
            rep.latency.p99 > rep.latency.min * 2,
            "the load must queue: {:?}",
            rep.latency
        );
        assert_eq!(rep.degraded_p99, rep.latency.p99);
    }

    /// Node health is checked when a client picks a request up, not when
    /// it arrives: with one client and a crash at X > 0, the request picked
    /// up at t = 0 is served by its primary, while one that arrived beside
    /// it but waited past X for the client fails over.
    #[test]
    fn rpc_checks_node_health_at_pickup() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        mem.set_replication(2);
        let req = reqs[0].clone();
        let run = execute_functional(&mut mem, &req, 1 << 20).unwrap();
        let victim = mem.owner_of(run.accesses[0].addr).unwrap();
        let crash_at = |at| RpcConfig {
            faults: vec![FaultEvent::new(at, FaultKind::MemCrash(victim))],
            ..RpcConfig::rpc()
        };
        let x = SimTime::from_micros(1);
        let t0 = SimTime::ZERO;
        // The failovers one pick-up pays with the crash already in force.
        let per_request = run_rpc(
            &mut mem,
            std::slice::from_ref(&req),
            1,
            crash_at(t0),
            Some(&[t0]),
        )
        .failovers;
        assert!(per_request > 0);
        // Picked up at t = 0 < X and still in service at X: the primary
        // serves it.
        let alone = run_rpc(
            &mut mem,
            std::slice::from_ref(&req),
            1,
            crash_at(x),
            Some(&[t0]),
        );
        assert!(alone.latency.max > x);
        assert_eq!(alone.failovers, 0);
        // Both arrive at t = 0 < X; the second is picked up after X, when
        // the lone client frees, and fails over.
        let pair = run_rpc(
            &mut mem,
            &[req.clone(), req],
            1,
            crash_at(x),
            Some(&[t0, t0]),
        );
        assert_eq!(pair.completed, 2);
        assert_eq!(pair.unavailable_completions, 0);
        assert_eq!(pair.failovers, per_request);
    }

    #[test]
    fn rpc_crash_without_replication_loses_requests() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                ..RpcConfig::rpc()
            },
            None,
        );
        assert!(faulted.unavailable_completions > 0);
        assert_eq!(
            faulted.completed + faulted.unavailable_completions,
            reqs.len() as u64
        );
    }

    #[test]
    fn rpc_partition_heal_restores_service() {
        // A node unreachable early in the run and healed later: requests
        // admitted inside the window are lost (no replicas), later ones
        // complete — and nothing counts as a failover at replication 1.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            2,
            RpcConfig {
                faults: vec![
                    FaultEvent::new(SimTime::ZERO, FaultKind::LinkPartition(1)),
                    FaultEvent::new(SimTime::from_micros(200), FaultKind::LinkHeal(1)),
                ],
                ..RpcConfig::rpc()
            },
            None,
        );
        assert!(faulted.unavailable_completions > 0);
        assert!(faulted.completed > 0);
        assert_eq!(faulted.failovers, 0);
    }

    #[test]
    fn traced_baselines_attribute_phases_without_perturbing_timing() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let plain_rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc(), None);
        let traced_rpc = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                trace: true,
                ..RpcConfig::rpc()
            },
            None,
        );
        assert!(plain_rpc.phase.is_none(), "tracing is off by default");
        assert_eq!(plain_rpc.latency.mean, traced_rpc.latency.mean);
        assert_eq!(plain_rpc.latency.p99, traced_rpc.latency.p99);
        let attr = traced_rpc.phase.expect("attribution recorded");
        assert_eq!(attr.count, reqs.len() as u64);
        // Per-phase means partition the mean latency (each mean floors
        // picos independently, so the sum may undershoot by < PHASES ps).
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = traced_rpc.latency.mean.as_picos();
        assert!(
            sum <= e2e && e2e - sum < pulse_trace::PHASES as u64,
            "phase means {sum} ps vs mean latency {e2e} ps"
        );
        assert!(attr.mean_of(Phase::WireHop) > SimTime::ZERO);
        assert!(attr.mean_of(Phase::MemTrip) > SimTime::ZERO);

        let traced_swap = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                trace: true,
                ..SwapConfig::default()
            },
            None,
        );
        let attr = traced_swap.phase.expect("attribution recorded");
        assert_eq!(attr.count, reqs.len() as u64);
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = traced_swap.latency.mean.as_picos();
        assert!(sum <= e2e && e2e - sum < pulse_trace::PHASES as u64);
    }

    #[test]
    fn traced_rpc_dead_end_counts_failover_phase() {
        // No replication + an immediate crash: some requests dead-end as
        // unavailable; their timed-out attempts must land in Failover.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rep = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                trace: true,
                ..RpcConfig::rpc()
            },
            None,
        );
        assert!(rep.unavailable_completions > 0);
        let attr = rep.phase.expect("attribution recorded");
        assert!(attr.mean_of(Phase::Failover) > SimTime::ZERO);
    }

    #[test]
    fn results_are_deterministic() {
        let (mut mem, reqs) = webservice_setup(1_000, 8192);
        let a = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc(), None);
        let b = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc(), None);
        assert_eq!(a.latency.mean, b.latency.mean);
        assert_eq!(a.net_bytes, b.net_bytes);
    }
}
