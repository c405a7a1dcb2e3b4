//! The rack-scale pulse simulation: N CPU (compute) nodes + programmable
//! switch + per-memory-node accelerators, executing application requests
//! end-to-end with full functional fidelity and event-driven timing.
//!
//! Every CPU node reaches the switch over its own up-link on the rack's
//! [`Fabric`] — the NIC's transmit side doubles as the node's issue queue,
//! serializing departures — and has its own request-sequence counter, so
//! a [`RequestId`] `(cpu, seq)` is unique rack-wide and every reply routes
//! back to the node that issued the request. Submissions are spread
//! across CPU nodes round-robin: submission `i` issues from CPU node
//! `i % cpus`.
//!
//! This is the system Fig. 7/9 evaluate. Four modes exist:
//!
//! * [`PulseMode::Pulse`] — in-network distributed traversals (§5): a
//!   memory node that hits a remote pointer returns the in-flight packet to
//!   the switch, which re-routes it to the owning node at line rate.
//! * [`PulseMode::PulseAcc`] — the Fig. 9 ablation: in-flight returns go
//!   back to the *CPU node*, which re-issues them (half a round trip plus
//!   software overhead more expensive per crossing).
//! * [`PulseMode::Rpc`] — the RPC baselines: the `PulseAcc` bounce with a
//!   pool of CPU worker cores at each memory node serving the traversals
//!   instead of the accelerator (see [`RpcFlavor`]).
//! * [`PulseMode::Swap`] — the Cache-based baseline: the CPU node runs
//!   each request itself over a page cache and fetches every missed page
//!   from its memory node (see the `swap` module).

use crate::rpc::{ObjectCache, ReplayStats, RpcFlavor, RpcServer};
use crate::swap::{SwapCpu, SwapStats, Walk, Walked, PAGE_BYTES};
use pulse_accel::{AccelConfig, AccelEvent, AccelOutput, AccelSink, Accelerator};
use pulse_frontend::{
    prefix_walk, CacheConfig, CacheStats, PrefixCoalescer, Role, TraversalCache, WalkOutcome,
};
use pulse_isa::Interpreter;
use pulse_mem::{
    CapacityExceeded, ClusterMemory, FaultEvent, FaultKind, GlobalRangeMap, NodeId, Perms,
    RangeTable,
};
use pulse_net::{
    Endpoint, Fabric, FabricConfig, IterPacket, IterStatus, Packet, RequestId, Route, Switch,
    TopoNode, TopologySpec, FRAME_HEADER_BYTES, PULSE_HEADER_BYTES,
};
use pulse_sim::{
    CpuDispatch, DispatchConfig, Driver, IdHash, LatencyHistogram, SerialResource, SimTime, Slab,
};
use pulse_trace::{RunMetrics, SpanKind, TraceConfig, TraceSink, Track};
use pulse_workloads::{execute_functional, AddrSource, AppRequest, FUNCTIONAL_ITERS};
use std::collections::HashMap;

/// Distributed-traversal handling mode (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PulseMode {
    /// In-switch rerouting (the pulse design).
    Pulse,
    /// Return-to-CPU on every crossing (the `pulse-acc` ablation).
    PulseAcc,
    /// The RPC baselines: return-to-CPU on every crossing, with the
    /// flavour's worker cores serving traversals at each memory node in
    /// place of its accelerator. A worker runs a traversal in one step
    /// when it takes the packet, so its stores land together. Selected
    /// with the `pulse` façade's `PulseBuilder::mode`, like every mode.
    Rpc(RpcFlavor),
    /// The Cache-based (Fastswap-style swap) baseline: the CPU node runs
    /// each request functionally when it picks it up, then walks its
    /// accesses over a per-CPU-node page cache, fetching every missed
    /// 4 KiB page from its memory node with a plain read. Selected with
    /// the `pulse` façade's `PulseBuilder::mode`, like every mode.
    Swap {
        /// CPU-node DRAM used as page cache, bytes.
        cache_bytes: u64,
    },
}

impl PulseMode {
    /// The system label every run in this mode reports.
    pub fn label(&self) -> &'static str {
        match self {
            PulseMode::Pulse => "pulse",
            PulseMode::PulseAcc => "pulse-acc",
            PulseMode::Rpc(RpcFlavor::Rpc) => "RPC",
            PulseMode::Rpc(RpcFlavor::RpcArm) => "RPC-ARM",
            PulseMode::Rpc(RpcFlavor::CacheRpc { .. }) => "Cache+RPC",
            PulseMode::Swap { .. } => "Cache-based",
        }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Accelerator configuration (identical per node).
    pub accel: AccelConfig,
    /// Crossing-handling mode.
    pub mode: PulseMode,
    /// The contended part of the issue path: every packet send and every
    /// re-issue holds one of the node's dispatch contexts busy for the
    /// configured occupancy, so CPU-side queueing delay accumulates under
    /// load. `DispatchConfig { occupancy: 0, contexts: 1 }` (the default)
    /// disables contention and reproduces the flat-adder model
    /// bit-for-bit.
    pub dispatch: DispatchConfig,
    /// Number of CPU (compute) nodes issuing requests; each has its own
    /// link/issue queue and sequence counter.
    pub cpus: usize,
    /// The rack fabric shape. Every shape, the single-switch
    /// [`TopologySpec::Flat`] default included, prices packets hop by hop
    /// on a [`Fabric`] built over the rack's CPU and memory endpoints: each
    /// link is booked when the packet reaches it, and the switch's routing
    /// decision is taken when the packet reaches its first switch.
    pub topology: TopologySpec,
    /// Per-CPU-node hot-object cache over traversal cells (see
    /// `pulse_frontend::cache` for the coherence semantics). Disabled by
    /// default; when enabled, every node's front end walks cached,
    /// version-valid hops locally at [`CacheConfig::HIT_NS`] and offloads
    /// the remainder from the last cached pointer, while accelerators ship
    /// the cells they touch back with each response (priced on the wire).
    pub cache: CacheConfig,
    /// Scheduled infrastructure failures, injected into the event loop at
    /// construction. Empty (the default) keeps the immortal-rack model
    /// bit-identical. With faults, routing fails over to replicas (see
    /// [`ClusterMemory::set_replication`]), crashes trigger background
    /// re-replication, and completions inside the fault window feed the
    /// degraded-mode latency histogram.
    pub faults: Vec<FaultEvent>,
    /// Per-request span tracing and latency attribution. `None` (the
    /// default) records nothing, allocates nothing on the request path,
    /// and keeps every report bit-identical to the untraced engine;
    /// `Some` threads a [`TraceSink`] through the event loop without
    /// perturbing any simulated timestamp.
    pub trace: Option<TraceConfig>,
    /// ISA-v2 shared-prefix coalescing at the CPU-node front ends:
    /// requests whose traversal plans are identical (same compiled
    /// program, entry pointer, and arguments) ride one offloaded packet,
    /// up to 8 riders per leader, and fan back out when its response lands
    /// (see `pulse_frontend::coalesce` for the exact matching and staleness
    /// semantics). Disabled by default — golden traces stay
    /// bit-identical.
    pub coalesce: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            accel: AccelConfig::default(),
            mode: PulseMode::Pulse,
            dispatch: DispatchConfig::default(),
            cpus: 1,
            topology: TopologySpec::Flat,
            cache: CacheConfig::default(),
            faults: Vec::new(),
            trace: None,
            coalesce: false,
        }
    }
}

/// Aggregate measurements of one cluster run: the engine-neutral
/// [`RunMetrics`] (reachable through `Deref`, so `report.completed` reads
/// as before) plus what only the accelerator rack measures.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The run outcome every engine reports.
    pub metrics: RunMetrics,
    /// Mid-traversal node crossings (switch reroutes in pulse mode, CPU
    /// bounces in pulse-acc mode).
    pub crossings: u64,
    /// Sum of per-accelerator iteration counts.
    pub iterations: u64,
    /// Mean accelerator memory-pipeline utilization.
    pub memory_util: f64,
    /// Mean accelerator logic-pipeline utilization.
    pub logic_util: f64,
    /// Mean CPU-node dispatch-engine utilization (0 when dispatch is
    /// uncontended).
    pub dispatch_util: f64,
}

impl std::ops::Deref for ClusterReport {
    type Target = RunMetrics;

    fn deref(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// The event loop's payload. Kept to 32 bytes so the event heap stays
/// cache-friendly: a message on the wire waits with its cursor in
/// `PulseCluster::flights` and travels as a slab handle, a re-replication
/// stream's cursor lives in `PulseCluster::rebuilds`, and an accelerator's
/// RX-parse packet waits in the accelerator itself.
#[derive(Debug)]
enum Ev {
    /// A submitted request reaches its CPU node, which starts processing
    /// it. Scheduled through the driver's arrival lane; the request's state
    /// rides along and enters `inflight` only now.
    Arrive(RequestId, Box<ReqState>),
    /// CPU node (re-)starts processing an in-flight request's current stage.
    Start(RequestId),
    /// The message under this `PulseCluster::flights` handle reaches its
    /// next link (its sender's up-link, then each switch on its path) and
    /// books that one link now; past the last link it lands.
    Hop(u32),
    /// Accelerator-internal event.
    Accel(NodeId, AccelEvent),
    /// CPU-node post-processing for a request finished.
    Finished(RequestId, Done),
    /// A scheduled infrastructure failure fires.
    Fault(FaultKind),
    /// The next step of the background re-replication stream at this
    /// index of `PulseCluster::rebuilds`: a chunk's read, or its
    /// departure.
    Rebuild(u32),
    /// A worker of this memory node's RPC server frees up for the packet
    /// at the head of its queue.
    Serve(NodeId),
    /// A swap request's CPU node takes its walk's next step: walking on,
    /// or booking the swap pipe for the page that just faulted.
    Swap(RequestId),
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// One background re-replication stream: extent `[start, end)` is being
/// copied from surviving replica `src` to rebuild target `dst`, and the
/// stream's cursor sits at `offset`. `departing` holds the length of a
/// chunk that has been read and waits for its departure.
#[derive(Debug)]
struct RebuildStream {
    start: u64,
    end: u64,
    offset: u64,
    src: NodeId,
    dst: NodeId,
    departing: Option<u64>,
}

/// A message on the wire and its cursor, parked in
/// `PulseCluster::flights` between hops.
#[derive(Debug)]
struct Flight {
    cargo: Cargo,
    /// Wire size, fixed for the whole trip.
    bytes: u64,
    /// The endpoint whose path the message walks: its sender, or for a
    /// switch notice the endpoint whose edge switch issued it.
    from: Endpoint,
    /// The switch's verdict, taken when a packet reaches its first switch;
    /// `None` before that. Notices are born routed.
    route: Option<Route>,
    /// Index on the path of the next link to book (0 is `from`'s up-link).
    hop: usize,
}

/// What a [`Flight`] carries.
#[derive(Debug)]
enum Cargo {
    Packet(Packet),
    /// The switch's node-death notice: the request's packet was lost with
    /// an unreachable node, and the CPU re-plans it from scratch on
    /// delivery (the retry then routes onto a live replica, or the
    /// re-routed packet fault-completes as unavailable).
    CrashNotice(RequestId),
    /// The switch's unavailable notice: every replica of the packet's
    /// target is unreachable, and the request fault-completes on delivery.
    Unavailable(RequestId),
}

/// How a request left the rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Done {
    /// Completed successfully.
    Ok,
    /// Fault-completed (invalid pointer, protection fault, retry
    /// exhaustion, ...).
    Fault,
    /// Fault-completed because every replica of the data it needed was
    /// unreachable — the distinguishable failure-model error.
    Unavailable,
}

/// A finished request, as reported by [`PulseCluster::take_completions`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's identity (assigned at submit time).
    pub id: RequestId,
    /// Whether the request completed (vs faulted).
    pub ok: bool,
    /// Whether the request fault-completed specifically because every
    /// replica of the data it needed was unreachable (implies `!ok`).
    /// Always `false` without injected faults.
    pub unavailable: bool,
    /// When it arrived: when the CPU node started processing it, or, for
    /// a request that waited for a client ([`PulseCluster::submit_waited`]),
    /// when it began to wait.
    pub issued_at: SimTime,
    /// When its final completion event fired.
    pub finished_at: SimTime,
    /// Final scratchpad of the last traversal stage, when one ran.
    pub final_state: Option<pulse_isa::IterState>,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimTime {
        self.finished_at - self.issued_at
    }
}

#[derive(Debug)]
struct ReqState {
    req: AppRequest,
    stage: usize,
    issued_at: SimTime,
    last_state: Option<pulse_isa::IterState>,
    /// Optimistic-concurrency re-issues consumed so far (see
    /// [`pulse_workloads::RetryPolicy`]).
    retries: u32,
    /// Forces the next stage issue to bypass the front-end cache. Set when
    /// a *locally* walked final stage returned the retry code: the cached
    /// snapshot legitimately held a locked bucket (filled mid-update), and
    /// re-walking the same coherent-but-locked lines would burn the whole
    /// retry budget without ever observing the release. One remote attempt
    /// refreshes the lines.
    skip_cache_once: bool,
    /// A swap request's walk over its pages; `None` in every other mode.
    walk: Option<Box<Walk>>,
}

/// One CPU (compute) node: its serial dispatch engine, its request
/// sequence counter, and, when configured, its coherent traversal-cell
/// cache, ISA-v2 prefix coalescer and Cache+RPC object cache. Its NIC's
/// two directions are its fabric up- and down-link.
/// The [`AccelSink`] of one accelerator call on memory node `node`:
/// internal events go straight onto the event queue until the call's first
/// departure, and from there on every output waits in `deferred`, so the
/// queue sees them all in the order the accelerator made them.
///
/// `internal` is `#[inline(always)]` so that an internal event stays in
/// registers from the accelerator's handler to its queue slot: out of line,
/// its `(at, event)` would pass through memory, and the first load of it
/// would stall on that store (DESIGN.md, "Host event movement").
struct AccelOuts<'a> {
    drv: &'a mut Driver<Ev>,
    node: NodeId,
    deferred: &'a mut Vec<AccelOutput>,
}

impl AccelSink for AccelOuts<'_> {
    #[inline(always)]
    fn internal(&mut self, at: SimTime, event: AccelEvent) {
        if self.deferred.is_empty() {
            self.drv.schedule_at(at, Ev::Accel(self.node, event))
        } else {
            self.deferred.push(AccelOutput::Internal { at, event })
        }
    }

    fn depart(&mut self, at: SimTime, pkt: IterPacket, squash: SimTime) {
        self.deferred.push(AccelOutput::Depart { at, pkt, squash })
    }
}

#[derive(Debug)]
struct CpuNode {
    dispatch: CpuDispatch,
    next_seq: u64,
    cache: Option<TraversalCache>,
    coalescer: Option<PrefixCoalescer>,
    objects: Option<ObjectCache>,
    swap: Option<SwapCpu>,
}

/// The pulse rack.
#[derive(Debug)]
pub struct PulseCluster {
    cfg: ClusterConfig,
    mem: ClusterMemory,
    accels: Vec<Accelerator>,
    /// Per-memory-node RPC servers, serving traversals in place of the
    /// accelerators under [`PulseMode::Rpc`]; empty otherwise.
    servers: Vec<RpcServer>,
    /// The pure routing decision; the fabric prices the switch's egress.
    switch: Switch,
    /// Every wire in the rack: each host's up- and down-link (its NIC's
    /// two directions) and, on a routed rack, the switch cables.
    fabric: Fabric,
    /// Per-CPU-node issue-path state, indexed by `RequestId::cpu`.
    cpus: Vec<CpuNode>,
    /// Runs every front-end cache walk. Walks never overlap, so one
    /// interpreter (and its frame) serves every CPU node.
    walker: Interpreter,
    /// Per-node DMA engines serving plain object reads/writes.
    dma: Vec<SerialResource>,
    /// Requests that have arrived and not yet finished. Submitted requests
    /// wait in their `Ev::Arrive` until they start, so this map stays at
    /// the size of the live set rather than the submitted stream.
    inflight: HashMap<RequestId, ReqState, IdHash>,
    /// Submitted requests whose `Ev::Arrive` has not fired yet.
    arriving: usize,
    /// Messages on the wire, under the handles their [`Ev::Hop`] events
    /// carry.
    flights: Slab<Flight>,
    /// Re-replication streams, indexed by their `Ev::Rebuild` payload.
    rebuilds: Vec<RebuildStream>,
    /// An accelerator call's outputs from its first departure on, waiting
    /// for [`Self::absorb`]; reused across calls, so stepping an
    /// accelerator allocates nothing.
    accel_out: Vec<AccelOutput>,
    /// Recycled scratchpad buffers from retired [`pulse_isa::IterState`]s,
    /// fed back into stage issue so steady-state traversal sends allocate
    /// no scratch `Vec`. Capacity-only reuse: buffers are zeroed and
    /// resized on the way out, so behavior is bit-identical to fresh
    /// allocation. Bounded by the in-flight population (one buffer retires
    /// per stage completion, one is consumed per stage send).
    scratch_pool: Vec<Vec<u8>>,
    /// Recycled cache-fill descriptor buffers from consumed responses
    /// (always empty-capacity churn when the front-end cache is disabled).
    touched_pool: Vec<Vec<(u64, u32)>>,
    /// Total submissions so far (drives the round-robin CPU assignment).
    submitted: u64,
    /// The event loop (incremental: submit/step/take_completions).
    drv: Driver<Ev>,
    /// Completions accumulated since the last [`Self::take_completions`].
    done: Vec<Completion>,
    /// Per-memory-node link partitions (the node is healthy, its path is
    /// not). Orthogonal to crash state, which lives in `mem`.
    partitioned: Vec<bool>,
    /// Per-memory-node wedged accelerators: traversals route elsewhere,
    /// the DMA path keeps serving.
    wedged: Vec<bool>,
    /// `[first fault, last repair]` (or open-ended when nothing heals):
    /// the degraded measurement window. `None` without faults.
    fault_window: Option<(SimTime, SimTime)>,
    /// The optional trace recorder ([`ClusterConfig::trace`]); `None` is
    /// the zero-cost disabled path.
    sink: Option<TraceSink>,
    /// Cumulative byte counters at the last counter sample, one per
    /// directed fabric link. Empty when tracing is off.
    sampled_bytes: Vec<u64>,
    // Measurements.
    hist: LatencyHistogram,
    /// Latency over completions finishing inside `fault_window`.
    degraded_hist: LatencyHistogram,
    completed: u64,
    faulted: u64,
    crossings: u64,
    retries: u64,
    failovers: u64,
    unavailable: u64,
    rereplication_bytes: u64,
    mem_bytes_extra: u64,
    /// ISA-v2 coalescing: hops rider requests skipped by fanning out of a
    /// shared offload (riders × stage iterations, summed at fan-out).
    coalesced_prefix_hops: u64,
    makespan: SimTime,
}

/// CPU-node dispatch-engine pass-through latency per packet sent (the
/// pipeline-depth component of issue software cost; it adds latency but
/// never queues).
const DISPATCH_OVERHEAD: SimTime = SimTime::from_nanos(300);

/// CPU-node software cost to re-issue a bounced/limited traversal
/// (pass-through latency, like [`DISPATCH_OVERHEAD`]).
const REISSUE_OVERHEAD: SimTime = SimTime::from_micros(1);

/// TCAM capacity per node-local translation table.
const TCAM_CAPACITY: usize = 4096;

/// Fixed DMA-engine setup latency for plain reads/writes at a memory node.
const DMA_SETUP: SimTime = SimTime::from_nanos(500);

/// Wire size of the switch's control-plane notices (node-death,
/// unavailable): header-only frames — the lost packet's payload does not
/// come back.
const NOTICE_BYTES: u64 = (FRAME_HEADER_BYTES + PULSE_HEADER_BYTES) as u64;

/// Chunk size of background re-replication streams. One chunk is in
/// flight per stream at a time, so recovery shares links fairly instead
/// of bursting an extent at once.
const REBUILD_CHUNK_BYTES: u64 = 64 * 1024;

impl PulseCluster {
    /// Builds a cluster over already-populated memory. The switch's global
    /// table and every node's TCAM are snapshotted from the memory layout,
    /// so structures must be built before cluster construction.
    ///
    /// # Panics
    ///
    /// Panics if a node's translation ranges exceed the TCAM capacity;
    /// [`PulseCluster::try_new`] is the non-panicking variant.
    pub fn new(cfg: ClusterConfig, mem: ClusterMemory) -> PulseCluster {
        PulseCluster::try_new(cfg, mem).expect("node ranges fit the TCAM")
    }

    /// Fallible constructor: fails when a node's translation ranges exceed
    /// the configured TCAM capacity.
    ///
    /// # Errors
    ///
    /// [`CapacityExceeded`] naming the overflowing node's demand.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cpus == 0` (a rack needs at least one compute node;
    /// the `pulse::PulseBuilder` façade reports this as a typed error).
    pub fn try_new(
        cfg: ClusterConfig,
        mem: ClusterMemory,
    ) -> Result<PulseCluster, CapacityExceeded> {
        assert!(cfg.cpus >= 1, "a rack needs at least one CPU node");
        let nodes = mem.node_count();
        let switch = Switch::new(GlobalRangeMap::new(&mem.all_ranges()));
        // With a front-end cache, accelerators ship the cells they touch
        // back with each response (the cache's fill feed, priced on the
        // wire); without one, collection stays off and wire sizes are
        // bit-identical to the cache-less model.
        let accel_cfg = AccelConfig {
            collect_touched: cfg.cache.enabled(),
            ..cfg.accel
        };
        let accels = (0..nodes)
            .map(|n| {
                let ranges: Vec<(u64, u64, Perms)> = mem
                    .node_ranges(n)
                    .iter()
                    .map(|&(s, e)| (s, e, Perms::RW))
                    .collect();
                let table = RangeTable::build(TCAM_CAPACITY, &ranges)?;
                Ok(Accelerator::new(accel_cfg, n, table))
            })
            .collect::<Result<Vec<_>, CapacityExceeded>>()?;
        let fabric = Fabric::new(cfg.topology.build(cfg.cpus, nodes), FabricConfig::default());
        let links = fabric.topology().links();
        // The trace sink names every directed-link track up front so
        // exported timelines read as rack geometry, not bare indices.
        let sink = cfg.trace.map(|tc| {
            let mut sink = TraceSink::new(tc);
            for (i, l) in links.iter().enumerate() {
                sink.name_track(
                    Track::Link(i),
                    format!("{}->{}", topo_label(l.from), topo_label(l.to)),
                );
            }
            sink
        });
        let sampled_bytes = vec![0u64; if sink.is_some() { links.len() } else { 0 }];
        // Sized for a deep open-loop in-flight population so the event
        // heap reaches steady state without reallocating. Scheduled faults
        // go in first, so at equal timestamps a fault fires before the
        // traffic it disrupts.
        let mut drv = Driver::with_capacity(1024);
        for f in &cfg.faults {
            assert!(
                f.kind.node() < nodes,
                "fault {:?} names memory node {} of a {}-node rack",
                f.kind,
                f.kind.node(),
                nodes
            );
            drv.schedule_at(f.at, Ev::Fault(f.kind));
        }
        let fault_window = pulse_mem::degraded_window(&cfg.faults);
        let rpc = match cfg.mode {
            PulseMode::Rpc(flavor) => Some(flavor),
            PulseMode::Pulse | PulseMode::PulseAcc | PulseMode::Swap { .. } => None,
        };
        let swap = match cfg.mode {
            PulseMode::Swap { cache_bytes } => Some(cache_bytes),
            _ => None,
        };
        Ok(PulseCluster {
            accels,
            servers: rpc.map_or(Vec::new(), |f| {
                let dram = cfg.accel.timing.dram_bytes_per_sec;
                (0..nodes).map(|_| RpcServer::new(f, dram)).collect()
            }),
            switch,
            fabric,
            cpus: (0..cfg.cpus)
                .map(|_| CpuNode {
                    dispatch: CpuDispatch::new(cfg.dispatch),
                    next_seq: 0,
                    cache: cfg.cache.enabled().then(|| TraversalCache::new(cfg.cache)),
                    coalescer: cfg.coalesce.then(PrefixCoalescer::default),
                    objects: rpc.and_then(RpcFlavor::object_cache),
                    swap: swap.map(SwapCpu::new),
                })
                .collect(),
            walker: Interpreter::new(),
            dma: (0..nodes)
                .map(|_| SerialResource::new(cfg.accel.timing.dram_bytes_per_sec * 8))
                .collect(),
            inflight: HashMap::default(),
            arriving: 0,
            flights: Slab::new(),
            rebuilds: Vec::new(),
            accel_out: Vec::new(),
            scratch_pool: Vec::new(),
            touched_pool: Vec::new(),
            submitted: 0,
            drv,
            done: Vec::new(),
            partitioned: vec![false; nodes],
            wedged: vec![false; nodes],
            fault_window,
            sink,
            sampled_bytes,
            hist: LatencyHistogram::new(),
            degraded_hist: LatencyHistogram::new(),
            completed: 0,
            faulted: 0,
            crossings: 0,
            retries: 0,
            failovers: 0,
            unavailable: 0,
            rereplication_bytes: 0,
            mem_bytes_extra: 0,
            coalesced_prefix_hops: 0,
            makespan: SimTime::ZERO,
            cfg,
            mem,
        })
    }

    /// Read-only view of the rack memory.
    pub fn memory(&self) -> &ClusterMemory {
        &self.mem
    }

    /// Mutable view of the rack memory (e.g. for functional ground-truth
    /// runs against the same data the cluster executes on).
    pub fn memory_mut(&mut self) -> &mut ClusterMemory {
        &mut self.mem
    }

    /// Per-node accelerator statistics.
    pub fn accelerators(&self) -> &[Accelerator] {
        &self.accels
    }

    /// The rack's crossing-handling mode: which system it runs.
    pub fn mode(&self) -> PulseMode {
        self.cfg.mode
    }

    /// Number of CPU (compute) nodes in the rack.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Front-end cache counters summed over every CPU node (all zero
    /// without a cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cpus
            .iter()
            .filter_map(|c| c.cache.as_ref().map(TraversalCache::stats))
            .fold(CacheStats::default(), |sum, s| CacheStats {
                hits: sum.hits + s.hits,
                misses: sum.misses + s.misses,
                invalidations: sum.invalidations + s.invalidations,
                fills: sum.fills + s.fills,
            })
    }

    /// Swap-system counters summed over every CPU node (all zero outside
    /// [`PulseMode::Swap`]).
    pub fn swap_stats(&self) -> SwapStats {
        self.cpus
            .iter()
            .filter_map(|c| c.swap.as_ref().map(SwapCpu::stats))
            .fold(SwapStats::default(), |sum, s| SwapStats {
                hits: sum.hits + s.hits,
                misses: sum.misses + s.misses,
                traversal_time: sum.traversal_time + s.traversal_time,
                walk_time: sum.walk_time + s.walk_time,
            })
    }

    /// How the RPC servers' services ran, summed over every memory node:
    /// replayed from a server's memo or walked by its interpreter (all zero
    /// outside [`PulseMode::Rpc`]). Replays price exactly like walks, so
    /// these counts move the simulator's speed and nothing it reports.
    pub fn rpc_replays(&self) -> ReplayStats {
        self.servers
            .iter()
            .map(RpcServer::replays)
            .fold(ReplayStats::default(), |sum, s| ReplayStats {
                replayed: sum.replayed + s.replayed,
                walked: sum.walked + s.walked,
            })
    }

    /// Mints the identity the next submission will carry: submissions go
    /// round-robin over the CPU nodes, and the picked node's sequence
    /// counter supplies `seq`. Deterministic in submission order.
    /// Runtimes that hand out tickets before admission call this up front
    /// and later pass the id to [`Self::submit_with_id`].
    pub fn assign_id(&mut self) -> RequestId {
        let cpu = (self.submitted % self.cpus.len() as u64) as usize;
        self.submitted += 1;
        let seq = self.cpus[cpu].next_seq;
        self.cpus[cpu].next_seq = seq + 1;
        RequestId { cpu, seq }
    }

    /// Submits a request, to start processing at `at` (which must not be
    /// in the simulated past) on the next CPU node in round-robin order.
    /// Returns the identity its [`Completion`] will carry.
    pub fn submit_at(&mut self, at: SimTime, req: AppRequest) -> RequestId {
        let id = self.assign_id();
        self.submit_with_id(at, req, id);
        id
    }

    /// Submits a request under a caller-chosen identity (runtimes that hand
    /// out tickets before admission use this to keep ticket == identity).
    ///
    /// # Panics
    ///
    /// Panics if `id` names a CPU node outside the rack or `at` is in the
    /// past. Also panics if `id` is already in flight: at once when that
    /// request has started, and otherwise when this request's arrival
    /// fires and finds the earlier one still in flight.
    pub fn submit_with_id(&mut self, at: SimTime, req: AppRequest, id: RequestId) {
        self.admit(at, at, req, id);
    }

    /// Submits a request under a caller-chosen identity that arrived at
    /// `arrived` and waited outside the rack until now (for a free client
    /// of a closed-loop system): it starts now, and its latency, degraded
    /// window sample and trace all count from `arrived`.
    ///
    /// # Panics
    ///
    /// As [`Self::submit_with_id`], and if `arrived` is after now.
    pub fn submit_waited(&mut self, arrived: SimTime, req: AppRequest, id: RequestId) {
        assert!(
            arrived <= self.now(),
            "request {id:?} arrives in the future"
        );
        self.admit(arrived, self.now(), req, id);
    }

    /// Enters request `id`, which arrived at `arrived`, to start at `at`.
    fn admit(&mut self, arrived: SimTime, at: SimTime, req: AppRequest, id: RequestId) {
        assert!(
            !self.inflight.contains_key(&id),
            "request id {id:?} already in flight"
        );
        assert!(
            id.cpu < self.cpus.len(),
            "request id {id:?} names CPU node {} of a {}-CPU rack",
            id.cpu,
            self.cpus.len()
        );
        let next_seq = &mut self.cpus[id.cpu].next_seq;
        *next_seq = (*next_seq).max(id.seq + 1);
        if let Some(sink) = self.sink.as_mut() {
            sink.begin(id, arrived);
        }
        let st = ReqState {
            req,
            stage: 0,
            issued_at: arrived,
            last_state: None,
            retries: 0,
            skip_cache_once: false,
            walk: None,
        };
        // The lane keeps a time-ordered stream out of the event heap; the
        // arrival still fires exactly where a heap push would have put it.
        self.drv.schedule_arrival(at, Ev::Arrive(id, Box::new(st)));
        self.arriving += 1;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.drv.now()
    }

    /// Requests submitted and not yet finished, counting those whose
    /// arrival time has not come yet.
    pub fn in_flight(&self) -> usize {
        self.inflight.len() + self.arriving
    }

    /// Whether no events remain to process.
    pub fn is_idle(&self) -> bool {
        self.drv.is_idle()
    }

    /// Processes one simulation event. Returns `false` when the event queue
    /// is empty. At most one completion can be produced per step; poll
    /// [`Self::take_completions`] after stepping.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.drv.next_event() else {
            return false;
        };
        self.handle(ev);
        true
    }

    /// Steps until a completion waits in [`Self::take_completions`] or no
    /// event is left; returns at once if one already waits.
    pub fn step_until_completion(&mut self) {
        while self.done.is_empty() && self.step() {}
    }

    /// Drains the completions produced since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.done)
    }

    // Inlined into `step`, its only caller: left to the compiler's
    // heuristic it was called out of line, and perfbench's `ws-read`
    // simulated ~5% fewer requests per second. A hint is not enough: the
    // event queue's inlined wheel code once pushed it out of line again,
    // which erased the wheel's whole gain.
    #[inline(always)]
    fn handle(&mut self, ev: Ev) {
        let now = self.drv.now();
        self.sample_counters(now);
        match ev {
            Ev::Arrive(id, st) => {
                self.arriving -= 1;
                let earlier = self.inflight.insert(id, *st);
                assert!(earlier.is_none(), "request id {id:?} already in flight");
                if self.cpus[id.cpu].swap.is_some() {
                    self.swap_begin(now, id)
                } else {
                    self.send_stage(now, id)
                }
            }
            Ev::Start(id) => self.send_stage(now, id),
            Ev::Hop(h) => {
                let f = self.flights.take(h);
                self.hop(now, f)
            }
            Ev::Accel(n, aev) => {
                // Events of a dark node's accelerator died with it. Pipeline
                // completions (`FetchDone`/`LogicDone`) belong to workspaces
                // that were aborted — and notified — at fault time; a packet
                // still parked in the RX parse stage is not in a workspace,
                // so it is lost *here*, when its `RxDone` fires, and the
                // issuing CPU learns now.
                if !self.mem_ok(n) || self.wedged[n] {
                    if let AccelEvent::RxDone(h) = aev {
                        let ip = self.accels[n].take_rx(h);
                        let (from, pkt) = (Endpoint::Mem(n), Packet::Iter(ip));
                        self.notice(now, from, pkt, Cargo::CrashNotice);
                    }
                    return;
                }
                self.accel_call(n, |accel, mem, out| accel.step(now, aev, mem, out));
            }
            Ev::Finished(id, how) => {
                let st = self.inflight.remove(&id).expect("request inflight");
                let latency = now - st.issued_at;
                if let Some(sink) = self.sink.as_mut() {
                    sink.finish(id, now);
                }
                self.hist.record(latency);
                if let Some((from, to)) = self.fault_window {
                    if now >= from && now <= to {
                        self.degraded_hist.record(latency);
                    }
                }
                self.makespan = self.makespan.max(now);
                match how {
                    Done::Ok => self.completed += 1,
                    Done::Fault => self.faulted += 1,
                    Done::Unavailable => {
                        self.faulted += 1;
                        self.unavailable += 1;
                    }
                }
                self.done.push(Completion {
                    id,
                    ok: how == Done::Ok,
                    unavailable: how == Done::Unavailable,
                    issued_at: st.issued_at,
                    finished_at: now,
                    final_state: st.last_state,
                });
            }
            Ev::Fault(kind) => self.apply_fault(now, kind),
            Ev::Rebuild(stream) => self.rebuild_chunk(now, stream),
            Ev::Serve(n) => self.rpc_next(now, n),
            Ev::Swap(id) => self.swap_step(now, id),
        }
    }

    /// Runs one call on memory node `n`'s accelerator. Its internal
    /// events go onto the event queue as it makes them; a departure, and
    /// everything after it, waits in `accel_out` for [`Self::absorb`].
    fn accel_call(
        &mut self,
        n: NodeId,
        call: impl FnOnce(&mut Accelerator, &mut ClusterMemory, &mut AccelOuts),
    ) {
        let mut outs = AccelOuts {
            drv: &mut self.drv,
            node: n,
            deferred: &mut self.accel_out,
        };
        call(&mut self.accels[n], &mut self.mem, &mut outs);
        if !self.accel_out.is_empty() {
            self.absorb(n);
        }
    }

    /// Runs `requests` closed-loop with `concurrency` outstanding, to
    /// completion. Implemented on the incremental submit/step API: the
    /// initial window is staggered 10 ns apart and every completion
    /// immediately admits the next request at its finish time, so reports
    /// are bit-identical to an open-coded submit/poll loop with the same
    /// window (see `pulse::Runtime::drain`).
    ///
    /// Can be called again on the same cluster (the clock keeps advancing;
    /// the next batch issues from the current simulated time); like every
    /// measurement accessor, [`Self::report`] then covers all batches
    /// cumulatively.
    pub fn run(&mut self, requests: Vec<AppRequest>, concurrency: usize) -> ClusterReport {
        assert!(concurrency > 0 && !requests.is_empty());
        let total = requests.len();
        let base = self.drv.now();
        let mut pending = requests.into_iter();
        for c in 0..concurrency.min(total) {
            let req = pending.next().expect("bounded by total");
            self.submit_at(base + SimTime::from_nanos(10 * c as u64), req);
        }
        while self.step() {
            for done in self.take_completions() {
                if let Some(req) = pending.next() {
                    self.submit_at(done.finished_at, req);
                }
            }
        }
        self.report()
    }

    /// The aggregate report over everything completed so far.
    pub fn report(&self) -> ClusterReport {
        let horizon = self.makespan.max(SimTime::from_picos(1));
        let (link_demand, queue_depth) = self.fabric_gauges(horizon);
        let nodes = self.accels.len();
        let mem_bytes: u64 = self
            .accels
            .iter()
            .map(|a| a.stats().dram_bytes)
            .sum::<u64>()
            + self.mem_bytes_extra;
        let metrics = RunMetrics {
            completed: self.completed,
            faulted: self.faulted,
            latency: self.hist.summary(),
            throughput: self.completed as f64 / horizon.as_secs_f64(),
            net_bytes: self.net_bytes(),
            mem_bytes,
            cache_hit_rate: self.cache_stats().hit_rate(),
            link_utilization: link_demand.min(1.0),
            link_demand,
            queue_depth,
            retries: self.retries,
            failovers: self.failovers,
            unavailable_completions: self.unavailable,
            rereplication_bytes: self.rereplication_bytes,
            degraded_p99: self.degraded_hist.p99(),
            phase: self.sink.as_ref().and_then(TraceSink::attribution),
            mis_speculations: self.accels.iter().map(|a| a.stats().mis_speculations).sum(),
            batched_hops: self.accels.iter().map(|a| a.stats().batched_hops).sum(),
            coalesced_prefix_hops: self.coalesced_prefix_hops,
            makespan: self.makespan,
        };
        ClusterReport {
            metrics,
            crossings: self.crossings,
            iterations: self
                .accels
                .iter()
                .map(|a| a.stats().iterations)
                .sum::<u64>()
                + self.servers.iter().map(|s| s.iterations).sum::<u64>(),
            memory_util: self
                .accels
                .iter()
                .map(|a| a.memory_utilization(horizon))
                .sum::<f64>()
                / nodes as f64,
            logic_util: self
                .accels
                .iter()
                .map(|a| a.logic_utilization(horizon))
                .sum::<f64>()
                / nodes as f64,
            dispatch_util: self
                .cpus
                .iter()
                .map(|c| c.dispatch.utilization(horizon))
                .sum::<f64>()
                / self.cpus.len() as f64,
        }
    }

    /// The rack fabric's per-link state (ablation-level inspection; the
    /// report carries the headline scalars).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The report's fabric gauges over `[0, horizon]`: the peak
    /// CPU-downlink demand (busy time over the horizon, uncapped) and the
    /// deepest any egress FIFO got. A flat rack reports both as 0; its
    /// links are still sampled in traces.
    ///
    /// This and the report's `net_bytes` are the only places the rack asks
    /// whether it is routed, and pricing never does: a flat rack keeps the
    /// convention of the single-switch model, which had no fabric to
    /// report.
    pub fn fabric_gauges(&self, horizon: SimTime) -> (f64, u64) {
        if !self.cfg.topology.is_routed() {
            return (0.0, 0);
        }
        (
            self.fabric.cpu_downlink_demand(horizon),
            self.fabric.max_queue_depth() as u64,
        )
    }

    /// Bytes the report counts as network traffic. A routed rack counts
    /// every message once at its origin's up-link, which also covers
    /// mem→mem chained hops. A flat rack counts the CPU NICs' two
    /// directions instead, as the single-switch model did: each CPU's
    /// up-link plus its down-link, switch notices included.
    fn net_bytes(&self) -> u64 {
        if self.cfg.topology.is_routed() {
            return self.fabric.host_injected_bytes();
        }
        let topo = self.fabric.topology();
        (0..self.cpus.len())
            .map(|c| {
                let ep = Endpoint::Cpu(c);
                let (up, down) = (topo.uplink(ep), topo.downlink(ep));
                let (up, down) = up.zip(down).expect("CPU on the fabric");
                self.fabric.link_bytes(up) + self.fabric.link_bytes(down)
            })
            .sum()
    }

    /// The trace recorder, when the cluster was built with
    /// [`ClusterConfig::trace`].
    pub fn trace(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// The recorded timeline as Chrome trace-event JSON
    /// (Perfetto-loadable), when tracing is enabled.
    pub fn trace_json(&self) -> Option<String> {
        self.sink.as_ref().map(TraceSink::trace_json)
    }

    /// Advances `id`'s span cursor to `end` (no-op when tracing is off).
    fn trace_push(&mut self, id: RequestId, kind: SpanKind, track: Track, end: SimTime) {
        if let Some(sink) = self.sink.as_mut() {
            sink.push(id, kind, track, end);
        }
    }

    /// Records an off-critical-path resource-busy window (no-op when
    /// tracing is off).
    fn trace_occupy(&mut self, track: Track, kind: SpanKind, start: SimTime, end: SimTime) {
        if let Some(sink) = self.sink.as_mut() {
            sink.occupy(track, kind, start, end);
        }
    }

    /// Catches the counter-sample clock up to `now`, recording one link
    /// utilization + egress-queue-depth observation per track per due
    /// tick. Runs at the top of the event handler so idle stretches are
    /// back-filled deterministically; a single `Option` check when
    /// tracing is off.
    fn sample_counters(&mut self, now: SimTime) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let interval = sink.config().sample_interval.as_secs_f64();
        let fab = &self.fabric;
        while let Some(at) = sink.sample_tick(now) {
            for (i, sampled) in self.sampled_bytes.iter_mut().enumerate() {
                let bytes = fab.link_bytes(i);
                let delta = bytes - *sampled;
                *sampled = bytes;
                let bps = fab.link_bits_per_sec(i);
                let util = (delta as f64 * 8.0 / (interval * bps as f64)).min(1.0);
                let depth = fab.queue_depth_at(i, at) as u64;
                sink.record_sample(Track::Link(i), at, util, depth);
            }
        }
    }

    /// Whether memory node `n` is reachable at all: not crashed and not
    /// partitioned away. (A wedged accelerator leaves the node reachable —
    /// only its traversal service is gone.)
    fn mem_ok(&self, n: NodeId) -> bool {
        self.mem.node_is_up(n) && !self.partitioned[n]
    }

    /// Routes around unreachable memory nodes: a packet headed for a dark
    /// node (or a traversal headed for a wedged accelerator) is redirected
    /// to the first live replica of its target address — a failover.
    /// Traversals only redirect onto placement-derived replicas (the nodes
    /// whose TCAMs cover the range); the DMA path can also use promoted
    /// rebuild targets. `Err` means every copy is unreachable: the
    /// unavailable case.
    fn health_route(&mut self, route: Route, pkt: &Packet) -> Result<Route, ()> {
        let Route::To(Endpoint::Mem(n)) = route else {
            return Ok(route);
        };
        let is_iter = matches!(pkt, Packet::Iter(_));
        if self.mem_ok(n) && !(is_iter && self.wedged[n]) {
            return Ok(route);
        }
        let addr = match pkt {
            Packet::Iter(ip) => ip.state.cur_ptr,
            Packet::Read { addr, .. } | Packet::Write { addr, .. } => *addr,
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => return Ok(route),
        };
        let candidates = if is_iter {
            self.mem.replicas_of(addr)
        } else {
            self.mem.all_replicas_of(addr)
        };
        match candidates
            .into_iter()
            .find(|&m| self.mem_ok(m) && !(is_iter && self.wedged[m]))
        {
            Some(m) => {
                self.failovers += 1;
                Ok(Route::To(Endpoint::Mem(m)))
            }
            None => Err(()),
        }
    }

    /// Reclaims a lost packet's buffers; packets dropped by faults never
    /// reach the normal recycle points.
    fn recycle_lost(&mut self, pkt: Packet) {
        if let Packet::Iter(ip) = pkt {
            self.scratch_pool.push(ip.state.scratch);
            let mut touched = ip.touched;
            if touched.capacity() > 0 {
                touched.clear();
                self.touched_pool.push(touched);
            }
        }
    }

    /// `pkt` is lost, and the switch at `from`'s edge tells the issuing
    /// CPU with a header-sized notice of `kind`. The notice crosses the
    /// remaining hops to the CPU like a data frame, so it queues behind
    /// (and delays) data frames on the CPU's down-link.
    fn notice(&mut self, at: SimTime, from: Endpoint, pkt: Packet, kind: fn(RequestId) -> Cargo) {
        let id = pkt.id();
        self.recycle_lost(pkt);
        let f = Flight {
            cargo: kind(id),
            bytes: NOTICE_BYTES,
            from,
            route: Some(Route::To(Endpoint::Cpu(id.cpu))),
            hop: 1,
        };
        self.launch(at, f);
    }

    /// The CPU-side half of a crash notice: re-plan the request through
    /// the retry machinery. A lost traversal restarts from stage 0 (fresh
    /// `init()`); lost object I/O re-issues just the I/O. The re-issued
    /// packet then routes onto a live replica — or, with none left,
    /// fault-completes as unavailable at the switch.
    fn on_crash_notice(&mut self, now: SimTime, id: RequestId) {
        let st = self.inflight.get_mut(&id).expect("inflight");
        if let Some(walk) = st.walk.as_mut() {
            // A swap request lost its page read: the fault is taken again.
            walk.refault();
            self.failovers += 1;
            let restart = now + REISSUE_OVERHEAD;
            self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), restart);
            return self.drv.schedule_at(restart, Ev::Swap(id));
        }
        if st.stage < st.req.traversals.len() {
            st.stage = 0;
            if let Some(old) = st.last_state.take() {
                self.scratch_pool.push(old.scratch);
            }
        }
        self.failovers += 1;
        let restart = now + REISSUE_OVERHEAD;
        self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), restart);
        self.drv.schedule_at(restart, Ev::Start(id));
        // The leader's flight is gone; riders re-plan individually too.
        self.detach_riders(restart, id);
    }

    /// Applies one scheduled fault. Crashes and partitions abort the
    /// node's in-flight traversals (their CPUs learn via crash notices);
    /// crashes additionally kick off background re-replication of the
    /// node's extents from surviving replicas.
    fn apply_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::MemCrash(n) => {
                self.mem.fail_node(n);
                for pkt in self.accels[n].abort_all().into_iter().map(Packet::Iter) {
                    self.notice(now, Endpoint::Mem(n), pkt, Cargo::CrashNotice);
                }
                self.start_rereplication(now, n);
            }
            FaultKind::MemRecover(n) => self.mem.recover_node(n),
            FaultKind::LinkPartition(n) => {
                self.partitioned[n] = true;
                // The node is healthy but unreachable: from the rack's
                // point of view its in-flight work is as lost as a crash
                // (RPC-timeout semantics) — but its data is intact, so
                // nothing is rebuilt.
                for pkt in self.accels[n].abort_all().into_iter().map(Packet::Iter) {
                    self.notice(now, Endpoint::Mem(n), pkt, Cargo::CrashNotice);
                }
            }
            FaultKind::LinkHeal(n) => self.partitioned[n] = false,
            FaultKind::AccelWedge(n) => {
                self.wedged[n] = true;
                for pkt in self.accels[n].abort_all().into_iter().map(Packet::Iter) {
                    self.notice(now, Endpoint::Mem(n), pkt, Cargo::CrashNotice);
                }
            }
        }
    }

    /// Starts one re-replication stream per extent the crashed node
    /// hosted, from the first surviving replica to the first live node not
    /// already holding a copy. Extents with no surviving replica are
    /// simply lost (replication 1): requests needing them fault-complete
    /// as unavailable until the node recovers.
    fn start_rereplication(&mut self, now: SimTime, crashed: NodeId) {
        if self.mem.replication() <= 1 {
            return;
        }
        let nodes = self.accels.len();
        for (start, end) in self.mem.node_ranges(crashed) {
            let copies = self.mem.all_replicas_of(start);
            let Some(src) = copies
                .iter()
                .copied()
                .find(|&m| m != crashed && self.mem.node_is_up(m))
            else {
                continue;
            };
            let Some(dst) = (1..nodes)
                .map(|k| (crashed + k) % nodes)
                .find(|&m| self.mem.node_is_up(m) && !copies.contains(&m))
            else {
                continue;
            };
            let stream = u32::try_from(self.rebuilds.len()).expect("rebuild streams fit in u32");
            self.rebuilds.push(RebuildStream {
                start,
                end,
                offset: start,
                src,
                dst,
                departing: None,
            });
            self.drv.schedule_at(now, Ev::Rebuild(stream));
        }
    }

    /// Advances one re-replication stream by one step. Each chunk is a
    /// real background message: it occupies the source's DMA engine, books
    /// a dispatch context on the coordinating CPU node (CPU 0 runs the
    /// rebuild control loop), and then, at its departure, crosses the same
    /// fabric foreground packets use and lands through the target's DMA
    /// engine. One chunk is in flight per stream; when the stream
    /// completes, the target is promoted into the extent's replica set.
    fn rebuild_chunk(&mut self, now: SimTime, stream: u32) {
        let RebuildStream {
            start,
            end,
            offset,
            src,
            dst,
            departing,
        } = self.rebuilds[stream as usize];
        if let Some(len) = departing {
            let arrive = self.mem_to_mem(now, src, dst, len + NOTICE_BYTES);
            let write = self.dma[dst].acquire(arrive + DMA_SETUP, len);
            self.trace_occupy(
                Track::Mem(dst),
                SpanKind::Rereplication { node: dst },
                write.start,
                write.end,
            );
            self.mem_bytes_extra += len;
            self.rereplication_bytes += len;
            let cursor = &mut self.rebuilds[stream as usize];
            cursor.departing = None;
            cursor.offset = offset + len;
            if cursor.offset < end {
                self.drv.schedule_at(write.end, Ev::Rebuild(stream));
            } else {
                self.mem.promote_replica(start, dst);
            }
            return;
        }
        // The stream's endpoints can die mid-rebuild: another surviving
        // replica takes over as source; a dead target abandons the stream
        // (a later crash of a remaining replica would restart one).
        let src = if self.mem_ok(src) {
            src
        } else {
            match self
                .mem
                .all_replicas_of(start)
                .into_iter()
                .find(|&m| m != dst && self.mem_ok(m))
            {
                Some(m) => m,
                None => return,
            }
        };
        if !self.mem.node_is_up(dst) {
            return;
        }
        let len = REBUILD_CHUNK_BYTES.min(end - offset);
        let read = self.dma[src].acquire(now + DMA_SETUP, len);
        self.trace_occupy(
            Track::Mem(src),
            SpanKind::Rereplication { node: src },
            read.start,
            read.end,
        );
        self.mem_bytes_extra += len;
        let depart = self.cpus[0].dispatch.book_grant(read.end).end;
        let cursor = &mut self.rebuilds[stream as usize];
        cursor.src = src;
        cursor.departing = Some(len);
        self.drv.schedule_at(depart, Ev::Rebuild(stream));
    }

    /// Builds and transmits the current traversal stage (or object I/O) of
    /// request `id` from the CPU node. With a front-end cache, the stage
    /// first walks locally over cached, version-valid cells (at
    /// [`CacheConfig::HIT_NS`] per hop) and only the remainder — resumed from
    /// the last cached pointer — goes on the wire; a stage that completes
    /// entirely in cache never leaves the node.
    fn send_stage(&mut self, now: SimTime, id: RequestId) {
        enum Next {
            /// Send a packet at the given time (walk latency included).
            Send(Packet, SimTime),
            /// The stage completed locally after the walk: apply the same
            /// stage-completion decision a remote `Done` would.
            LocalDone {
                code: u64,
                at: SimTime,
            },
            /// An identical-plan offload is already in flight (ISA-v2
            /// coalescing): send nothing and park until its response fans
            /// out at this node.
            Ride(SimTime),
            Finish(SimTime),
            Fault,
        }
        let next = {
            let st = self.inflight.get_mut(&id).expect("inflight");
            if st.stage < st.req.traversals.len() {
                let stage = &st.req.traversals[st.stage];
                // Malformed stage wiring faults the request rather than
                // panicking the rack (`AppRequest::validate` catches this
                // at submit time on the runtime path).
                // Recycled buffers keep stage issue allocation-free; the
                // `Vec::new()` fallbacks cost nothing until first push.
                let scratch_buf = self.scratch_pool.pop().unwrap_or_default();
                match stage.init_state_in(st.last_state.as_ref(), scratch_buf) {
                    Err(_) => Next::Fault,
                    Ok(mut state) => {
                        let mut send_at = now;
                        let mut local_code = None;
                        let skip = std::mem::take(&mut st.skip_cache_once);
                        if !skip {
                            if let Some(cache) = self.cpus[id.cpu].cache.as_mut() {
                                let hit = CacheConfig::HIT_NS;
                                let outcome = prefix_walk(
                                    &mut self.walker,
                                    cache,
                                    &self.mem,
                                    &stage.program,
                                    &mut state,
                                );
                                send_at = now + hit * outcome.hops() as u64;
                                if let WalkOutcome::Done { code, .. } = outcome {
                                    local_code = Some(code);
                                }
                            }
                        }
                        match local_code {
                            Some(code) => {
                                st.last_state = Some(state);
                                Next::LocalDone { code, at: send_at }
                            }
                            None => {
                                let role = self.cpus[id.cpu]
                                    .coalescer
                                    .as_mut()
                                    .map(|c| c.register(id, &stage.program, &state));
                                if let Some(Role::Rider { .. }) = role {
                                    // The rider's state is rebuilt from the
                                    // leader's response at fan-out; recycle
                                    // its scratch now.
                                    self.scratch_pool.push(state.scratch);
                                    Next::Ride(send_at)
                                } else {
                                    Next::Send(
                                        Packet::Iter(IterPacket {
                                            id,
                                            // Cheap: an Arc clone with a
                                            // cached wire length — no
                                            // per-request re-encode.
                                            code: stage.program.clone(),
                                            state,
                                            status: IterStatus::InFlight,
                                            piggyback_bytes: 0,
                                            touched: self.touched_pool.pop().unwrap_or_default(),
                                        }),
                                        send_at,
                                    )
                                }
                            }
                        }
                    }
                }
            } else if let Some(io) = st.req.object_io {
                let objects = &mut self.cpus[id.cpu].objects;
                match resolve_addr(io.addr, st.last_state.as_ref()) {
                    None => Next::Fault,
                    // A Cache+RPC object-cache hit: the read never leaves
                    // the node.
                    Some(addr) if !io.write && objects.as_mut().is_some_and(|c| c.touch(addr)) => {
                        Next::Finish(st.req.cpu_work)
                    }
                    Some(addr) => Next::Send(
                        if io.write {
                            Packet::Write {
                                id,
                                addr,
                                len: io.len,
                            }
                        } else {
                            Packet::Read {
                                id,
                                addr,
                                len: io.len,
                            }
                        },
                        now,
                    ),
                }
            } else {
                // Nothing remote left: straight to completion.
                Next::Finish(st.req.cpu_work)
            }
        };
        match next {
            Next::Fault => self.drv.schedule_at(now, Ev::Finished(id, Done::Fault)),
            Next::Finish(cpu_work) => {
                self.trace_push(id, SpanKind::Dispatch, Track::Cpu(id.cpu), now + cpu_work);
                self.drv
                    .schedule_at(now + cpu_work, Ev::Finished(id, Done::Ok));
            }
            Next::LocalDone { code, at } => {
                self.trace_push(id, SpanKind::CacheHit, Track::Cpu(id.cpu), at);
                self.stage_done(at, id, code, false, true)
            }
            Next::Ride(at) => {
                // Coalesced rider: an identical plan is already in flight
                // under a leader. Account the local walk, then park — the
                // request resumes when the leader's response fans out (or
                // is re-issued individually if that flight ends abnormally).
                self.trace_push(id, SpanKind::CacheHit, Track::Cpu(id.cpu), at);
            }
            Next::Send(pkt, at) => {
                self.trace_push(id, SpanKind::CacheHit, Track::Cpu(id.cpu), at);
                self.cpu_send(at, pkt, DISPATCH_OVERHEAD);
            }
        }
    }

    /// Applies a completed traversal stage's outcome for request `id`:
    /// advance to the next stage (or object I/O), finish, or run the
    /// bounded optimistic-concurrency retry. Shared by the remote path
    /// (`Done` response at the CPU) and the local prefix-walk fast path;
    /// callers store the stage's final state into `last_state` first.
    /// `local` marks stage completions that never left the node — those
    /// book one dispatch op when they finish the whole request, so fully
    /// cached requests still saturate at the node's dispatch rate instead
    /// of scaling unboundedly.
    fn stage_done(&mut self, now: SimTime, id: RequestId, code: u64, gathered: bool, local: bool) {
        enum Next {
            Advance,
            Finish(SimTime),
            Retry,
            Exhausted,
        }
        let decision = {
            let st = self.inflight.get_mut(&id).expect("inflight");
            st.stage += 1;
            let more_traversals = st.stage < st.req.traversals.len();
            // A final-stage RETURN carrying the request's retry code is a
            // lost optimistic-concurrency race: the CPU node re-plans from
            // stage 0 (fresh init()), bounded by the policy so a
            // livelocked key surfaces as a fault instead of spinning
            // forever.
            let raced = !more_traversals && st.req.retry.is_some_and(|rp| code == rp.code);
            if raced {
                let rp = st.req.retry.expect("raced implies policy");
                if st.retries < rp.max {
                    st.retries += 1;
                    st.stage = 0;
                    if let Some(old) = st.last_state.take() {
                        self.scratch_pool.push(old.scratch);
                    }
                    // A cached walk that observed a locked bucket would
                    // re-observe the same coherent snapshot forever; force
                    // one remote attempt to refresh it.
                    if local {
                        st.skip_cache_once = true;
                    }
                    Next::Retry
                } else {
                    Next::Exhausted
                }
            } else {
                let needs_io = st.req.object_io.is_some() && !gathered;
                if more_traversals || needs_io {
                    Next::Advance
                } else {
                    Next::Finish(st.req.cpu_work)
                }
            }
        };
        match decision {
            Next::Advance => self.send_stage(now, id),
            Next::Finish(cpu_work) => {
                let done_at = if local {
                    let grant = self.cpus[id.cpu].dispatch.book_grant(now);
                    self.trace_push(id, SpanKind::Queued, Track::Cpu(id.cpu), grant.start);
                    grant.end
                } else {
                    now
                };
                self.trace_push(
                    id,
                    SpanKind::Dispatch,
                    Track::Cpu(id.cpu),
                    done_at + cpu_work,
                );
                self.drv
                    .schedule_at(done_at + cpu_work, Ev::Finished(id, Done::Ok));
            }
            Next::Retry => {
                self.retries += 1;
                // Re-planning costs the re-issue software path; the
                // subsequent Start books the dispatch engine like any
                // send.
                let restart = now + REISSUE_OVERHEAD;
                self.trace_push(id, SpanKind::Retry, Track::Cpu(id.cpu), restart);
                self.drv.schedule_at(restart, Ev::Start(id));
            }
            Next::Exhausted => self.drv.schedule_at(now, Ev::Finished(id, Done::Fault)),
        }
    }

    /// Fills the issuing CPU node's front-end cache from the traversal
    /// cells a response shipped back. No-op without a cache (the list is
    /// then always empty by construction).
    fn fill_cache(&mut self, cpu: usize, touched: &[(u64, u32)]) {
        if touched.is_empty() {
            return;
        }
        if let Some(cache) = self.cpus[cpu].cache.as_mut() {
            for &(addr, len) in touched {
                cache.fill_range(addr, len as u64, &mut self.mem);
            }
        }
    }

    /// The switch's routing decision for packet `f`, which has just
    /// reached its first switch: the pure table route, a crossing for every
    /// in-flight iterator arriving from a memory node (sent back to its CPU
    /// under the pulse-acc ablation), then failover around dark nodes.
    /// `None` means every replica was unreachable and the request's
    /// unavailable notice is on its way.
    fn switch_route(&mut self, now: SimTime, f: Flight) -> Option<Flight> {
        let Cargo::Packet(pkt) = f.cargo else {
            unreachable!("notices are born routed")
        };
        let mut route = self.switch.route(&pkt);
        if let (Packet::Iter(ip), Endpoint::Mem(_)) = (&pkt, f.from) {
            if matches!(ip.status, IterStatus::InFlight) {
                self.crossings += 1;
                if self.cfg.mode != PulseMode::Pulse {
                    route = Route::To(Endpoint::Cpu(pkt.id().cpu));
                }
            }
        }
        match self.health_route(route, &pkt) {
            Ok(route) => Some(Flight {
                cargo: Cargo::Packet(pkt),
                route: Some(route),
                ..f
            }),
            Err(()) => {
                self.notice(now, f.from, pkt, Cargo::Unavailable);
                None
            }
        }
    }

    /// Moves message `f` on at `now` (see [`Ev::Hop`]). A packet that has
    /// just reached its first switch takes the switch's decision; then the
    /// message books its next link and records a `WireHop` span on that
    /// link's track ending at its arrival, or lands when no link is left.
    fn hop(&mut self, now: SimTime, mut f: Flight) {
        if f.route.is_none() && f.hop == 1 {
            let Some(routed) = self.switch_route(now, f) else {
                return;
            };
            f = routed;
        }
        let topo = self.fabric.topology();
        let link = match f.route {
            None => topo.uplink(f.from),
            Some(Route::To(to) | Route::InvalidPointer { requester: to }) => topo
                .path(f.from, to)
                .expect("fabric covers every rack endpoint")
                .get(f.hop)
                .copied(),
        };
        let Some(link) = link else {
            return self.land(now, f);
        };
        let arrive = self.fabric.hop(now, link, f.bytes);
        f.hop += 1;
        if let (Some(sink), Cargo::Packet(pkt)) = (self.sink.as_mut(), &f.cargo) {
            sink.push(
                pkt.id(),
                SpanKind::WireHop { link },
                Track::Link(link),
                arrive,
            );
        }
        self.drv
            .schedule_at(arrive, Ev::Hop(self.flights.insert(f)));
    }

    /// Message `f` reaches its destination at `now`. A packet the switch
    /// found aimed at an unmapped address goes back to its requester (§5:
    /// "notify the CPU node if the pointer is invalid"): a traversal comes
    /// back `Faulted { NotMapped }`, and a plain read or write
    /// fault-completes instead of hanging forever with its packet silently
    /// dropped.
    fn land(&mut self, now: SimTime, f: Flight) {
        let pkt = match f.cargo {
            Cargo::Packet(pkt) => pkt,
            Cargo::CrashNotice(id) => return self.on_crash_notice(now, id),
            Cargo::Unavailable(id) => {
                self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), now);
                self.drv
                    .schedule_at(now, Ev::Finished(id, Done::Unavailable));
                // Coalesced riders do not inherit the leader's unavailable
                // completion: each re-issues and reaches its own verdict.
                return self.detach_riders(now, id);
            }
        };
        match (f.route.expect("a landing packet was routed"), pkt) {
            (Route::To(Endpoint::Mem(n)), pkt) => self.at_mem(now, n, pkt),
            (Route::To(Endpoint::Cpu(_)), pkt) => self.at_cpu(now, pkt),
            (Route::InvalidPointer { .. }, Packet::Iter(mut ip)) => {
                ip.status = IterStatus::Faulted {
                    fault: pulse_isa::MemFault::NotMapped {
                        addr: ip.state.cur_ptr,
                    },
                };
                self.at_cpu(now, Packet::Iter(ip))
            }
            (Route::InvalidPointer { .. }, Packet::Read { id, .. } | Packet::Write { id, .. }) => {
                self.drv.schedule_at(now, Ev::Finished(id, Done::Fault));
            }
            (Route::InvalidPointer { .. }, Packet::ReadReply { .. } | Packet::WriteAck { .. }) => {
                unreachable!("replies route to the requester, never invalid")
            }
        }
    }

    /// Sends `pkt` out of endpoint `from` at `at`; see [`Self::launch`].
    fn transmit(&mut self, at: SimTime, pkt: Packet, from: Endpoint) {
        let bytes = pkt.wire_bytes();
        let f = Flight {
            cargo: Cargo::Packet(pkt),
            bytes,
            from,
            route: None,
            hop: 0,
        };
        self.launch(at, f);
    }

    /// Puts message `f` on the wire at `at`. Its first link is booked at
    /// `at` and never before: at once when `at` is now, otherwise by an
    /// [`Ev::Hop`] at `at`. Each later hop is booked by the event at which
    /// the message reaches it, so every link sees its traffic in simulated
    /// time order on every topology.
    fn launch(&mut self, at: SimTime, f: Flight) {
        if at == self.drv.now() {
            self.hop(at, f)
        } else {
            self.drv.schedule_at(at, Ev::Hop(self.flights.insert(f)))
        }
    }

    /// When `wire` bytes of replica or rebuild traffic sent at `at` from
    /// memory node `src` reach memory node `dst`: the whole fabric path,
    /// booked at once (see [`Fabric::send`] for why these two streams may).
    fn mem_to_mem(&mut self, at: SimTime, src: NodeId, dst: NodeId, wire: u64) -> SimTime {
        self.fabric
            .send(at, Endpoint::Mem(src), Endpoint::Mem(dst), wire)
            .expect("fabric covers every rack endpoint")
    }

    fn at_mem(&mut self, now: SimTime, n: NodeId, pkt: Packet) {
        // A packet that raced a fault — already in flight when its target
        // went dark (or, for traversals, wedged) — is lost on arrival; the
        // issuing CPU learns via a crash notice and re-plans.
        if !self.mem_ok(n) || (self.wedged[n] && matches!(pkt, Packet::Iter(_))) {
            return self.notice(now, Endpoint::Mem(n), pkt, Cargo::CrashNotice);
        }
        match pkt {
            Packet::Iter(ip) if !self.servers.is_empty() => self.rpc_serve(now, n, ip),
            Packet::Iter(ip) => {
                self.accel_call(n, |accel, _, out| accel.on_packet(now, ip, out));
            }
            Packet::Read { id, addr, len } => {
                let _ = addr;
                let g = self.dma[n].acquire(now + DMA_SETUP, len as u64);
                self.mem_bytes_extra += len as u64;
                self.trace_occupy(Track::Mem(n), SpanKind::MemTrip { node: n }, g.start, g.end);
                self.trace_push(id, SpanKind::MemTrip { node: n }, Track::Mem(n), g.end);
                let reply = Packet::ReadReply { id, len };
                self.mem_depart(n, g.end, reply);
            }
            Packet::Write { id, addr, len } => {
                let g = self.dma[n].acquire(now + DMA_SETUP, len as u64);
                self.mem_bytes_extra += len as u64;
                self.trace_occupy(Track::Mem(n), SpanKind::MemTrip { node: n }, g.start, g.end);
                let mut done = g.end;
                // Replicated stores fan out synchronously: every other
                // live copy absorbs the same bytes — a real DMA store trip
                // each, across the fabric through the switch — and the ack
                // waits for the slowest copy. At replication 1 this block
                // never runs.
                if self.mem.replication() > 1 {
                    for m in self.mem.all_replicas_of(addr) {
                        if m == n || !self.mem.node_is_up(m) {
                            continue;
                        }
                        let bytes = len as u64;
                        let wire = bytes + NOTICE_BYTES;
                        let at = self.mem_to_mem(now, n, m, wire);
                        let gm = self.dma[m].acquire(at + DMA_SETUP, bytes);
                        self.mem_bytes_extra += bytes;
                        self.trace_occupy(
                            Track::Mem(m),
                            SpanKind::MemTrip { node: m },
                            gm.start,
                            gm.end,
                        );
                        done = done.max(gm.end);
                    }
                }
                // The whole store trip — primary DMA plus the synchronous
                // replica fan-out it waits on — is the request's MemTrip.
                self.trace_push(id, SpanKind::MemTrip { node: n }, Track::Mem(n), done);
                let reply = Packet::WriteAck { id };
                self.mem_depart(n, done, reply);
            }
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => {
                unreachable!("replies never route to memory nodes")
            }
        }
    }

    /// Transmits a packet out of memory node `n` at `at` (see
    /// [`Self::transmit`]).
    fn mem_depart(&mut self, n: NodeId, at: SimTime, pkt: Packet) {
        // The node went dark between serving and transmitting: the
        // response never escapes. (A response whose transmit was already
        // scheduled before the fault is considered escaped.)
        if !self.mem_ok(n) {
            return self.notice(at, Endpoint::Mem(n), pkt, Cargo::CrashNotice);
        }
        self.transmit(at, pkt, Endpoint::Mem(n));
    }

    /// Feeds the outputs deferred in `accel_out` into the event loop in
    /// the order the accelerator made them, applying the near-memory
    /// gather: a final-stage `Done` response picks up the request's object
    /// in place when it lives on the same node. Leaves `accel_out` empty
    /// for reuse.
    fn absorb(&mut self, n: NodeId) {
        let mut outs = std::mem::take(&mut self.accel_out);
        for out in outs.drain(..) {
            match out {
                AccelOutput::Internal { at, event } => {
                    self.drv.schedule_at(at, Ev::Accel(n, event))
                }
                AccelOutput::Depart {
                    at,
                    mut pkt,
                    squash,
                } => {
                    // Everything between the packet's arrival at this node
                    // and its departure is accelerator traversal time —
                    // minus any membus time burned on squashed speculative
                    // fetches, which is carved out as its own span. The
                    // cursor-clamped push keeps the two spans an exact
                    // partition of the node residency.
                    if squash > SimTime::ZERO {
                        self.trace_push(
                            pkt.id,
                            SpanKind::AccelCompute { node: n },
                            Track::Mem(n),
                            at.saturating_sub(squash),
                        );
                        self.trace_push(
                            pkt.id,
                            SpanKind::SpecSquash { node: n },
                            Track::Mem(n),
                            at,
                        );
                    } else {
                        self.trace_push(
                            pkt.id,
                            SpanKind::AccelCompute { node: n },
                            Track::Mem(n),
                            at,
                        );
                    }
                    if let Some(len) = self.gather_len(n, &pkt) {
                        // Gather: DMA the object into the response right
                        // here.
                        let g = self.dma[n].acquire(at, len as u64);
                        self.mem_bytes_extra += len as u64;
                        pkt.piggyback_bytes = len;
                        let span = SpanKind::MemTrip { node: n };
                        self.trace_occupy(Track::Mem(n), span, g.start, g.end);
                        self.trace_push(pkt.id, span, Track::Mem(n), g.end);
                        self.mem_depart(n, g.end, Packet::Iter(pkt));
                        continue;
                    }
                    self.mem_depart(n, at, Packet::Iter(pkt));
                }
            }
        }
        self.accel_out = outs;
    }

    /// The object a traversal response leaving memory node `n` picks up in
    /// place (the near-memory gather): the request's object read, when
    /// this is its final stage's `Done` and `n` hosts the object. A
    /// retry-coded RETURN is about to be re-issued by the CPU node, so
    /// gathering for it would read and ship bytes the CPU discards.
    fn gather_len(&self, n: NodeId, pkt: &IterPacket) -> Option<u32> {
        let IterStatus::Done { code } = pkt.status else {
            return None;
        };
        let st = self.inflight.get(&pkt.id)?;
        let is_final_stage = st.stage + 1 == st.req.traversals.len();
        let raced = st.req.retry.is_some_and(|rp| rp.code == code);
        let io = st
            .req
            .object_io
            .filter(|io| is_final_stage && !raced && !io.write)?;
        let addr = resolve_addr(io.addr, Some(&pkt.state)).expect("state is present");
        self.mem.hosts(addr, n).then_some(io.len)
    }

    /// Hands traversal packet `ip`, landed on memory node `n`, to its RPC
    /// workers (see [`PulseMode::Rpc`]): served now when a worker is free
    /// and none waits before it, and otherwise queued until one frees up.
    fn rpc_serve(&mut self, now: SimTime, n: NodeId, ip: IterPacket) {
        let server = &mut self.servers[n];
        if server.waiting.is_empty() {
            if server.free_at() <= now {
                return self.rpc_run(now, n, ip);
            }
            self.drv.schedule_at(server.free_at(), Ev::Serve(n));
        }
        server.waiting.push_back(ip);
    }

    /// A worker of memory node `n` frees up for the packet at the head of
    /// its queue. A packet queued at a node that has since gone dark is
    /// lost with it, as on landing.
    fn rpc_next(&mut self, now: SimTime, n: NodeId) {
        let ip = self.servers[n].waiting.pop_front().expect("a packet waits");
        if !self.mem_ok(n) || self.wedged[n] {
            let (from, pkt) = (Endpoint::Mem(n), Packet::Iter(ip));
            self.notice(now, from, pkt, Cargo::CrashNotice);
        } else {
            self.rpc_run(now, n, ip);
        }
        if !self.servers[n].waiting.is_empty() {
            let at = self.servers[n].free_at().max(now);
            self.drv.schedule_at(at, Ev::Serve(n));
        }
    }

    /// Serves traversal packet `ip` on a free worker of memory node `n`.
    /// The traversal runs now, to its end or to a pointer another node
    /// hosts; a final-stage response gathers the request's object when `n`
    /// hosts it and the CPU keeps no object cache; and the reply departs
    /// once the worker and the DRAM pipe have served it. That residency,
    /// time spent waiting for the worker included, is the request's
    /// `MemTrip`. Like a DMA reply, a reply whose node dies during the
    /// service has already escaped.
    fn rpc_run(&mut self, now: SimTime, n: NodeId, mut ip: IterPacket) {
        let (max_iters, collect) = (self.cfg.accel.max_iters, self.cfg.cache.enabled());
        let mut work = self.servers[n].run(n, &mut ip, &mut self.mem, max_iters, collect);
        if self.cpus[ip.id.cpu].objects.is_none() {
            if let Some(len) = self.gather_len(n, &ip) {
                self.servers[n].gather(&mut work, len);
                ip.piggyback_bytes = len;
            }
        }
        self.mem_bytes_extra += work.bytes;
        let depart = self.servers[n].book(now, work);
        self.trace_push(ip.id, SpanKind::MemTrip { node: n }, Track::Mem(n), depart);
        self.mem_depart(n, depart, Packet::Iter(ip));
    }

    /// A swap request's client picked it up (see [`PulseMode::Swap`]): the
    /// CPU node runs it functionally now, then admits it through its
    /// dispatch engine and starts walking its pages. A request the
    /// functional run rejects fault-completes.
    fn swap_begin(&mut self, now: SimTime, id: RequestId) {
        let st = self.inflight.get_mut(&id).expect("inflight");
        let run = execute_functional(&mut self.walker, &mut self.mem, &st.req, FUNCTIONAL_ITERS);
        let Ok(run) = run else {
            return self.drv.schedule_at(now, Ev::Finished(id, Done::Fault));
        };
        let grant = self.cpus[id.cpu].dispatch.book_grant(now);
        st.last_state = run.response.final_state;
        st.walk = Some(Box::new(Walk::new(&run.accesses, grant.end)));
        self.trace_push(id, SpanKind::Queued, Track::Cpu(id.cpu), grant.start);
        self.trace_push(id, SpanKind::Dispatch, Track::Cpu(id.cpu), grant.end);
        if grant.end == now {
            self.swap_step(now, id);
        } else {
            self.drv.schedule_at(grant.end, Ev::Swap(id));
        }
    }

    /// Takes swap request `id`'s next step at `now`. A faulted page books
    /// the node's swap pipe and its read departs when the pipe is done.
    /// Otherwise the walk goes on to its next miss, whose fault software
    /// ends in a later step, or to its end, after which the request's CPU
    /// work finishes it.
    fn swap_step(&mut self, now: SimTime, id: RequestId) {
        let cpu = id.cpu;
        let st = self.inflight.get_mut(&id).expect("inflight");
        let walk = st.walk.as_mut().expect("a swap request walks");
        let swap = self.cpus[cpu].swap.as_mut().expect("swap mode");
        if let Some(addr) = walk.fault() {
            let g = swap.book_fill(now, walk);
            self.trace_push(id, SpanKind::Queued, Track::Cpu(cpu), g.start);
            self.trace_push(id, SpanKind::Dispatch, Track::Cpu(cpu), g.end);
            let len = PAGE_BYTES as u32;
            return self.transmit(g.end, Packet::Read { id, addr, len }, Endpoint::Cpu(cpu));
        }
        let sink = &mut self.sink;
        let walked = swap.walk(now, walk, |kind, end| {
            if let Some(sink) = sink.as_mut() {
                sink.push(id, kind, Track::Cpu(cpu), end);
            }
        });
        match walked {
            Walked::Fault(at) => self.drv.schedule_at(at, Ev::Swap(id)),
            Walked::Done(at) => {
                let end = at + st.req.cpu_work;
                let walk = st.walk.take().expect("a swap request walks");
                swap.finished(end, &walk);
                self.trace_push(id, SpanKind::Dispatch, Track::Cpu(cpu), end);
                self.drv.schedule_at(end, Ev::Finished(id, Done::Ok));
            }
        }
    }

    /// Swap request `id`'s faulted page landed at its CPU node: the walk
    /// resumes from the next touch.
    fn swap_landed(&mut self, now: SimTime, id: RequestId) {
        let st = self.inflight.get_mut(&id).expect("inflight");
        let walk = st.walk.as_mut().expect("a swap request walks");
        let swap = self.cpus[id.cpu].swap.as_mut().expect("swap mode");
        swap.landed(now, walk);
        self.swap_step(now, id);
    }

    /// Transmits a packet from its owning CPU node: the dispatch engine
    /// first (queueing + occupancy under load), then `overhead` (the flat
    /// issue pipeline, or the re-issue software of a bounced traversal),
    /// then [`Self::transmit`].
    fn cpu_send(&mut self, now: SimTime, pkt: Packet, overhead: SimTime) {
        let id = pkt.id();
        let cpu = id.cpu;
        let grant = self.cpus[cpu].dispatch.book_grant(now);
        let depart = grant.end + overhead;
        self.trace_push(id, SpanKind::Queued, Track::Cpu(cpu), grant.start);
        self.trace_push(id, SpanKind::Dispatch, Track::Cpu(cpu), depart);
        self.transmit(depart, pkt, Endpoint::Cpu(cpu));
    }

    /// ISA-v2 coalescing fan-out: each rider of a completed leader offload
    /// observes a clone of the returned state and advances its own request
    /// from there. A fan-out completion books one dispatch op per rider
    /// (`local = true` in `stage_done`), so coalesced requests still
    /// saturate at the node's dispatch rate instead of scaling unboundedly.
    fn fan_out_riders(
        &mut self,
        now: SimTime,
        riders: Vec<RequestId>,
        state: pulse_isa::IterState,
        code: u64,
    ) {
        for rider in riders {
            self.coalesced_prefix_hops += state.iters_done as u64;
            self.trace_push(rider, SpanKind::Queued, Track::Cpu(rider.cpu), now);
            let st = self.inflight.get_mut(&rider).expect("inflight");
            let prev = st.last_state.replace(state.clone());
            if let Some(old) = prev {
                self.scratch_pool.push(old.scratch);
            }
            self.stage_done(now, rider, code, false, true);
        }
    }

    /// ISA-v2 coalescing detach: a leader's flight ended without a usable
    /// response (fault, crash notice, unavailability). Its riders — which
    /// never sent anything — re-issue their stage individually from here
    /// (and may re-coalesce among themselves). Closing a request that led
    /// no group is a no-op, so callers invoke this unconditionally.
    fn detach_riders(&mut self, now: SimTime, leader: RequestId) {
        let riders = self.cpus[leader.cpu]
            .coalescer
            .as_mut()
            .map_or(Vec::new(), |c| c.close(leader));
        for rider in riders {
            self.trace_push(rider, SpanKind::Failover, Track::Cpu(rider.cpu), now);
            self.send_stage(now, rider);
        }
    }

    fn at_cpu(&mut self, now: SimTime, pkt: Packet) {
        let id = pkt.id();
        match pkt {
            Packet::Iter(ip) => match ip.status {
                IterStatus::Done { code } => {
                    let gathered = ip.piggyback_bytes > 0;
                    // Consume the fill payload: the traversal cells the
                    // accelerators shipped back land in this node's cache
                    // (empty and free without one).
                    self.fill_cache(id.cpu, &ip.touched);
                    let mut touched = ip.touched;
                    if touched.capacity() > 0 {
                        touched.clear();
                        self.touched_pool.push(touched);
                    }
                    // ISA-v2 coalescing: riders parked on this leader fan
                    // out with a clone of the returned state once the
                    // leader has advanced.
                    let riders = self.cpus[id.cpu]
                        .coalescer
                        .as_mut()
                        .map_or(Vec::new(), |c| c.close(id));
                    let rider_state = (!riders.is_empty()).then(|| ip.state.clone());
                    let st = self.inflight.get_mut(&id).expect("inflight");
                    let prev = st.last_state.replace(ip.state);
                    if let Some(old) = prev {
                        self.scratch_pool.push(old.scratch);
                    }
                    self.stage_done(now, id, code, gathered, false);
                    if let Some(state) = rider_state {
                        self.fan_out_riders(now, riders, state, code);
                    }
                }
                IterStatus::InFlight => {
                    // pulse-acc bounce: the owning CPU re-issues toward the
                    // right node; the switch will route it by cur_ptr. The
                    // re-issue occupies the dispatch engine like any send.
                    // Cells touched so far fill the cache here and are
                    // cleared so the re-issued packet does not re-ship
                    // them.
                    self.fill_cache(id.cpu, &ip.touched);
                    let mut ip = ip;
                    ip.touched.clear();
                    self.cpu_send(now, Packet::Iter(ip), REISSUE_OVERHEAD);
                }
                IterStatus::IterLimit => {
                    // Continuation: fresh budget, same state (§3).
                    self.fill_cache(id.cpu, &ip.touched);
                    let mut ip = ip;
                    ip.touched.clear();
                    ip.status = IterStatus::InFlight;
                    ip.state.iters_done = 0;
                    self.cpu_send(now, Packet::Iter(ip), REISSUE_OVERHEAD);
                }
                IterStatus::Faulted { .. } => {
                    self.scratch_pool.push(ip.state.scratch);
                    self.drv.schedule_at(now, Ev::Finished(id, Done::Fault));
                    // The fault is the leader's own (bad pointer, budget);
                    // its riders re-issue individually rather than
                    // inheriting it.
                    self.detach_riders(now, id);
                }
            },
            Packet::ReadReply { .. } if self.cpus[id.cpu].swap.is_some() => {
                self.swap_landed(now, id)
            }
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => {
                let cpu_work = self.inflight.get(&id).expect("inflight").req.cpu_work;
                self.trace_push(id, SpanKind::Dispatch, Track::Cpu(id.cpu), now + cpu_work);
                self.drv
                    .schedule_at(now + cpu_work, Ev::Finished(id, Done::Ok));
            }
            Packet::Read { .. } | Packet::Write { .. } => {
                unreachable!("requests never route to the CPU node")
            }
        }
    }
}

/// Display label of a fabric vertex for trace track names.
fn topo_label(n: TopoNode) -> String {
    match n {
        TopoNode::Host(Endpoint::Cpu(c)) => format!("cpu{c}"),
        TopoNode::Host(Endpoint::Mem(m)) => format!("mem{m}"),
        TopoNode::Switch(s) => format!("sw{s}"),
    }
}

fn resolve_addr(src: AddrSource, state: Option<&pulse_isa::IterState>) -> Option<u64> {
    match src {
        AddrSource::Fixed(a) => Some(a),
        AddrSource::FromScratch(off) => state.map(|s| s.scratch_u64(off as usize)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_accel::{AccelTiming, PipelineOrg};
    use pulse_ds::BuildCtx;
    use pulse_mem::{ClusterAllocator, Placement};
    use pulse_workloads::{
        execute_functional, Application, Distribution, WebService, WebServiceConfig, WiredTiger,
        WiredTigerConfig,
    };

    fn webservice_cluster(
        nodes: usize,
        keys: u64,
        granularity: u64,
    ) -> (ClusterMemory, Vec<AppRequest>, Vec<u64>) {
        webservice_cluster_opts(nodes, keys, granularity, true)
    }

    fn webservice_cluster_opts(
        nodes: usize,
        keys: u64,
        granularity: u64,
        partition: bool,
    ) -> (ClusterMemory, Vec<AppRequest>, Vec<u64>) {
        let mut mem = ClusterMemory::new(nodes);
        let mut alloc = ClusterAllocator::new(Placement::Striped, granularity);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys,
                    distribution: Distribution::Zipfian,
                    partition_by_bucket: partition,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs: Vec<AppRequest> = (0..120).map(|_| app.next_request()).collect();
        // Ground truth: expected object addresses per request.
        let expected: Vec<u64> = reqs
            .iter()
            .map(|r| {
                let run =
                    execute_functional(&mut Interpreter::new(), &mut mem, r, 1 << 20).unwrap();
                run.response.final_state.unwrap().scratch_u64(8)
            })
            .collect();
        (mem, reqs, expected)
    }

    #[test]
    fn single_node_webservice_completes_correctly() {
        let (mem, reqs, _) = webservice_cluster(1, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert_eq!(report.completed, 120);
        assert_eq!(report.faulted, 0);
        assert_eq!(report.crossings, 0, "single node never crosses");
        // Latency: RTT (~7 us) + ~48 iterations + object gather; must land
        // in the 10-40 us band of Fig. 7's single-node pulse.
        let mean_us = report.latency.mean.as_micros_f64();
        assert!((8.0..45.0).contains(&mean_us), "mean {mean_us} us");
    }

    #[test]
    fn multi_node_crossings_appear_with_small_extents() {
        // Unpartitioned chains striped at 4 KiB must cross constantly.
        let (mem, reqs, _) = webservice_cluster_opts(4, 2_000, 4096, false);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert_eq!(report.completed + report.faulted, 120);
        assert_eq!(report.faulted, 0);
        assert!(
            report.crossings > 0,
            "4 KiB striping must force hash-chain crossings"
        );
    }

    #[test]
    fn pulse_acc_mode_is_slower_when_crossing() {
        let mk = || webservice_cluster_opts(4, 2_000, 4096, false);
        let (mem, reqs, _) = mk();
        let mut pulse = PulseCluster::new(ClusterConfig::default(), mem);
        let rep_pulse = pulse.run(reqs, 4);
        let (mem, reqs, _) = mk();
        let mut acc = PulseCluster::new(
            ClusterConfig {
                mode: PulseMode::PulseAcc,
                ..ClusterConfig::default()
            },
            mem,
        );
        let rep_acc = acc.run(reqs, 4);
        assert!(rep_pulse.crossings > 0);
        assert!(
            rep_acc.latency.mean > rep_pulse.latency.mean,
            "pulse {} vs pulse-acc {}",
            rep_pulse.latency.mean,
            rep_acc.latency.mean
        );
    }

    #[test]
    fn wiredtiger_two_stage_requests_complete() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WiredTiger::build(
                &mut ctx,
                WiredTigerConfig {
                    keys: 20_000,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs: Vec<AppRequest> = (0..60).map(|_| app.next_request()).collect();
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert_eq!(report.completed, 60);
        assert!(report.iterations > 60 * 8, "descent + scan iterations");
    }

    #[test]
    fn throughput_scales_with_memory_nodes() {
        // Fig. 7's second trend: more memory nodes, more accelerators,
        // higher throughput.
        let tput = |nodes: usize| {
            let (mem, reqs, _) = webservice_cluster(nodes, 4_000, 1 << 21);
            let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
            cluster.run(reqs, 32).throughput
        };
        let t1 = tput(1);
        let t4 = tput(4);
        assert!(t4 > t1 * 1.5, "t1={t1} t4={t4}");
    }

    #[test]
    fn cluster_is_reusable_across_batches() {
        let (mem, mut reqs, _) = webservice_cluster(1, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let second = reqs.split_off(reqs.len() / 2);
        let first_len = reqs.len() as u64;
        let second_len = second.len() as u64;
        let r1 = cluster.run(reqs, 4);
        assert_eq!(r1.completed, first_len);
        // A second batch on the same cluster issues from the advanced clock
        // (no scheduled-in-the-past panic) and reports cumulatively.
        let r2 = cluster.run(second, 4);
        assert_eq!(r2.completed, first_len + second_len);
        assert!(r2.makespan > r1.makespan);
    }

    #[test]
    fn round_robin_assignment_is_per_cpu_sequential() {
        let (mem, reqs, _) = webservice_cluster(1, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                cpus: 4,
                ..ClusterConfig::default()
            },
            mem,
        );
        assert_eq!(cluster.cpus(), 4);
        let ids: Vec<RequestId> = reqs
            .into_iter()
            .take(8)
            .enumerate()
            .map(|(i, r)| cluster.submit_at(SimTime::from_nanos(10 * i as u64), r))
            .collect();
        let got: Vec<(usize, u64)> = ids.iter().map(|id| (id.cpu, id.seq)).collect();
        assert_eq!(
            got,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1)
            ]
        );
    }

    #[test]
    fn submit_with_id_reserves_only_its_own_cpus_sequence() {
        let (mem, reqs, _) = webservice_cluster(1, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                cpus: 2,
                ..ClusterConfig::default()
            },
            mem,
        );
        assert!(
            cluster.cpus.iter().all(|c| c.cache.is_none()),
            "a disabled cache config builds no cache"
        );
        assert_eq!(cluster.assign_id(), RequestId { cpu: 0, seq: 0 });
        assert_eq!(cluster.assign_id(), RequestId { cpu: 1, seq: 0 });
        let req = reqs.into_iter().next().unwrap();
        cluster.submit_with_id(SimTime::ZERO, req, RequestId { cpu: 0, seq: 10 });
        assert_eq!(cluster.assign_id(), RequestId { cpu: 0, seq: 11 });
        assert_eq!(cluster.assign_id(), RequestId { cpu: 1, seq: 1 });
    }

    #[test]
    fn multi_cpu_rack_completes_and_spreads_issue_load() {
        let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                cpus: 4,
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = cluster.run(reqs, 16);
        assert_eq!(report.completed, 120);
        assert_eq!(report.faulted, 0);
        // Every compute node both issued requests and received replies,
        // and the aggregate counter covers all of them.
        let mut sum = 0;
        for c in 0..4 {
            let topo = cluster.fabric.topology();
            let (up, down) = (
                topo.uplink(Endpoint::Cpu(c)).unwrap(),
                topo.downlink(Endpoint::Cpu(c)).unwrap(),
            );
            let (tx, rx) = (
                cluster.fabric.link_bytes(up),
                cluster.fabric.link_bytes(down),
            );
            assert!(tx > 0, "idle CPU tx link");
            assert!(rx > 0, "idle CPU rx link");
            sum += tx + rx;
        }
        assert_eq!(report.net_bytes, sum);
    }

    #[test]
    fn pulse_acc_bounces_route_to_owning_cpu() {
        // Unpartitioned chains striped at 4 KiB cross constantly; in
        // pulse-acc mode every crossing bounces through the *owning* CPU
        // node, so with several CPUs each must see reply traffic.
        let (mem, reqs, _) = webservice_cluster_opts(4, 2_000, 4096, false);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                mode: PulseMode::PulseAcc,
                cpus: 2,
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = cluster.run(reqs, 8);
        assert_eq!(report.completed, 120);
        assert!(report.crossings > 0);
        for c in 0..2 {
            let down = cluster
                .fabric
                .topology()
                .downlink(Endpoint::Cpu(c))
                .unwrap();
            assert!(
                cluster.fabric.link_bytes(down) > 0,
                "bounce bypassed a CPU node"
            );
        }
    }

    /// An RPC traversal runs when a worker takes it, not when its packet
    /// lands: on a one-node rack with every worker busy, a landing packet
    /// queues without running an iteration, and the queued work still
    /// finishes with the functional answers.
    #[test]
    fn rpc_traversal_waits_for_a_free_worker_before_it_runs() {
        let (mem, reqs, expected) = webservice_cluster(1, 2_000, 1 << 20);
        let cfg = ClusterConfig {
            mode: PulseMode::Rpc(RpcFlavor::Rpc),
            ..ClusterConfig::default()
        };
        let mut cluster = PulseCluster::new(cfg, mem);
        for (i, req) in reqs.into_iter().enumerate() {
            cluster.submit_at(SimTime::from_nanos(10 * i as u64), req);
        }
        let (mut queued, mut done) = (0, Vec::new());
        loop {
            let (waiting, iterations) = {
                let s = &cluster.servers[0];
                (s.waiting.len(), s.iterations)
            };
            if !cluster.step() {
                break;
            }
            let s = &cluster.servers[0];
            if s.waiting.len() > waiting {
                queued += 1;
                assert_eq!(s.iterations, iterations, "a queued packet ran on landing");
            }
            done.extend(cluster.take_completions());
        }
        assert!(queued > 0, "120 requests at once must queue for 10 workers");
        assert_eq!(done.len(), expected.len());
        for c in done {
            assert!(c.ok);
            let got = c.final_state.expect("state").scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize], "request {}", c.id);
        }
    }

    /// An RPC server's DRAM pipe and its gather move bytes at the rack's
    /// channel rate (`AccelTiming::dram_bytes_per_sec`, the rate its DMA
    /// engines use): on a rack with half the rate, the same gathered
    /// WebService read departs later, by at least the extra time its
    /// object takes to copy.
    #[test]
    fn rpc_dram_pipe_follows_the_racks_channel_rate() {
        let (_, reqs, _) = webservice_cluster(1, 2_000, 1 << 20);
        let object = reqs[0].object_io.expect("a WebService read").len;
        let served = |dram_bytes_per_sec: u64| {
            let (mem, reqs, expected) = webservice_cluster(1, 2_000, 1 << 20);
            let mut accel = AccelConfig::default();
            accel.timing.dram_bytes_per_sec = dram_bytes_per_sec;
            let cfg = ClusterConfig {
                mode: PulseMode::Rpc(RpcFlavor::Rpc),
                accel,
                ..ClusterConfig::default()
            };
            let mut cluster = PulseCluster::new(cfg, mem);
            cluster.submit_at(SimTime::ZERO, reqs.into_iter().next().unwrap());
            let mut done = Vec::new();
            while cluster.step() {
                done.extend(cluster.take_completions());
            }
            assert_eq!(done.len(), 1);
            let got = done[0].final_state.as_ref().expect("state").scratch_u64(8);
            assert_eq!(got, expected[0]);
            done[0].finished_at
        };
        let rate = AccelTiming::default().dram_bytes_per_sec;
        let (fast, slow) = (served(rate), served(rate / 2));
        let extra = SimTime::serialization(object as u64, rate * 8);
        assert!(slow >= fast + extra, "{slow} vs {fast} + {extra}");
    }

    #[test]
    fn a_departure_is_queued_before_the_admission_it_makes_room_for() {
        // One accelerator core, so the second request waits in the backlog
        // until the first departs; the same step then emits the departure
        // and admits the waiting request. The departure's first hop leaves
        // once the network stack and the near-memory gather of its object
        // are done, and DRAM is timed so that this is the picosecond the
        // admitted iteration's `FetchDone` falls due: only sequence numbers
        // order the two, and the first queued fires first.
        let (mem, reqs, expected) = webservice_cluster(1, 2_000, 1 << 20);
        let window = reqs[0].traversals[0].program.window().len;
        let object = reqs[0].object_io.expect("a WebService read").len;
        let mut timing = AccelTiming::default();
        let gather = SimTime::serialization(object as u64, timing.dram_bytes_per_sec * 8);
        let undelayed = timing.scheduler + timing.fetch_time(window) - timing.dram_access;
        timing.dram_access = timing.net_stack + gather - undelayed;
        let cfg = ClusterConfig {
            accel: AccelConfig {
                org: PipelineOrg::Coupled { cores: 1 },
                timing,
                ..AccelConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut cluster = PulseCluster::new(cfg, mem);
        for req in reqs.into_iter().take(2) {
            cluster.submit_at(SimTime::ZERO, req);
        }
        let mut fired = Vec::new();
        let mut done = Vec::new();
        while let Some(ev) = cluster.drv.next_event() {
            let kind = match &ev {
                Ev::Hop(_) => "hop",
                Ev::Accel(_, AccelEvent::FetchDone { .. }) => "fetch",
                _ => "other",
            };
            fired.push((cluster.now(), kind));
            cluster.handle(ev);
            done.extend(cluster.take_completions());
        }
        let tied: Vec<_> = fired
            .windows(2)
            .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
            .map(|w| (w[0].1, w[1].1))
            .collect();
        assert!(tied.contains(&("hop", "fetch")), "no tie: {tied:?}");
        assert!(!tied.contains(&("fetch", "hop")), "reordered: {tied:?}");
        assert_eq!(done.len(), 2);
        for c in done {
            let got = c.final_state.expect("state").scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize], "request {}", c.id);
        }
    }

    #[test]
    fn zero_occupancy_dispatch_is_bit_identical_to_flat_adder() {
        // The explicit zero-occupancy config and the default must produce
        // byte-identical reports: the engine is a free pass-through.
        let run_with = |dispatch: DispatchConfig| {
            let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
            let mut cluster = PulseCluster::new(
                ClusterConfig {
                    dispatch,
                    ..ClusterConfig::default()
                },
                mem,
            );
            cluster.run(reqs, 8)
        };
        let base = run_with(DispatchConfig::default());
        let explicit = run_with(DispatchConfig {
            occupancy: SimTime::ZERO,
            contexts: 1,
        });
        assert_eq!(base.makespan, explicit.makespan);
        assert_eq!(base.latency.mean, explicit.latency.mean);
        assert_eq!(base.net_bytes, explicit.net_bytes);
        assert_eq!(base.dispatch_util, 0.0);
        // Even with many contexts, zero occupancy never contends.
        let wide = run_with(DispatchConfig {
            occupancy: SimTime::ZERO,
            contexts: 8,
        });
        assert_eq!(base.makespan, wide.makespan);
    }

    #[test]
    fn dispatch_contention_queues_concurrent_issues() {
        // A slow serial dispatch engine (5 us per packet, one context) must
        // stretch latency when many requests issue from one CPU node at
        // once — and must report nonzero engine utilization.
        let occ = SimTime::from_micros(5);
        let run_with = |dispatch: DispatchConfig| {
            let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
            let mut cluster = PulseCluster::new(
                ClusterConfig {
                    dispatch,
                    ..ClusterConfig::default()
                },
                mem,
            );
            cluster.run(reqs, 32)
        };
        let free = run_with(DispatchConfig::default());
        let contended = run_with(DispatchConfig::contended(occ, 1));
        assert_eq!(contended.completed, free.completed);
        assert!(
            contended.latency.mean > free.latency.mean + occ,
            "dispatch queueing must surface: free {} contended {}",
            free.latency.mean,
            contended.latency.mean
        );
        assert!(contended.dispatch_util > 0.0);
        // More contexts relieve the queueing.
        let wide = run_with(DispatchConfig::contended(occ, 8));
        assert!(
            wide.latency.mean < contended.latency.mean,
            "8 contexts {} vs 1 context {}",
            wide.latency.mean,
            contended.latency.mean
        );
    }

    #[test]
    fn invalid_object_io_address_fault_completes() {
        // A plain read aimed at an unmapped address must fault-complete the
        // request (charged at its full wire size), not hang it forever.
        let (mem, _, _) = webservice_cluster(2, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let req = AppRequest {
            traversals: Vec::new(),
            object_io: Some(pulse_workloads::ObjectIo {
                addr: AddrSource::Fixed(0xDEAD_0000_0000),
                len: 4096,
                write: false,
            }),
            cpu_work: SimTime::ZERO,
            response_extra_bytes: 0,
            retry: None,
        };
        cluster.submit_at(SimTime::ZERO, req);
        let mut done = Vec::new();
        while cluster.step() {
            done.extend(cluster.take_completions());
        }
        assert_eq!(done.len(), 1, "request must complete, not hang");
        assert!(!done[0].ok, "unmapped object I/O must fault");
        assert_eq!(cluster.in_flight(), 0);
        let report = cluster.report();
        assert_eq!(report.faulted, 1);
        // The packet came back down the CPU's down-link at its wire size.
        let wire = Packet::Read {
            id: done[0].id,
            addr: 0xDEAD_0000_0000,
            len: 4096,
        }
        .wire_bytes();
        let down = cluster
            .fabric
            .topology()
            .downlink(Endpoint::Cpu(0))
            .unwrap();
        assert!(cluster.fabric.link_bytes(down) >= wire);
    }

    #[test]
    fn routed_fabrics_preserve_functional_results() {
        // The fabric changes *when* packets arrive, never what they compute:
        // every routed topology must return the same per-request answers as
        // the functional ground truth.
        for topology in [
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 1,
            },
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            TopologySpec::LeafSpine {
                leaves: 3,
                spines: 2,
            },
        ] {
            let (mem, reqs, expected) = webservice_cluster_opts(4, 2_000, 4096, false);
            let mut cluster = PulseCluster::new(
                ClusterConfig {
                    topology,
                    ..ClusterConfig::default()
                },
                mem,
            );
            let n = reqs.len();
            for (i, r) in reqs.into_iter().enumerate() {
                cluster.submit_at(SimTime::from_nanos(10 * i as u64), r);
            }
            let mut done = Vec::new();
            while cluster.step() {
                done.extend(cluster.take_completions());
            }
            assert_eq!(done.len(), n, "{topology:?}");
            for c in &done {
                assert!(c.ok, "{topology:?}");
                let got = c.final_state.as_ref().unwrap().scratch_u64(8);
                assert_eq!(got, expected[c.id.seq as usize], "{topology:?}");
            }
            let report = cluster.report();
            assert!(report.crossings > 0, "{topology:?}");
            assert!(report.link_utilization > 0.0, "{topology:?}");
            assert!(report.net_bytes > 0, "{topology:?}");
        }
    }

    #[test]
    fn coalescing_rides_identical_hot_keys_and_preserves_answers() {
        // A simultaneous zipfian burst repeats hot keys, so identical
        // plans must ride one offload — without changing any answer.
        let (mem, reqs, expected) = webservice_cluster(1, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                coalesce: true,
                ..ClusterConfig::default()
            },
            mem,
        );
        let n = reqs.len();
        for r in reqs {
            cluster.submit_at(SimTime::ZERO, r);
        }
        let mut done = Vec::new();
        while cluster.step() {
            done.extend(cluster.take_completions());
        }
        assert_eq!(done.len(), n);
        for c in &done {
            assert!(c.ok);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert!(
            report.coalesced_prefix_hops > 0,
            "hot zipfian keys must ride"
        );
        // The default engine reports every ISA-v2 counter as exactly zero.
        let (mem, reqs, _) = webservice_cluster(1, 2_000, 1 << 20);
        let rep = PulseCluster::new(ClusterConfig::default(), mem).run(reqs, 8);
        assert_eq!(rep.mis_speculations, 0);
        assert_eq!(rep.batched_hops, 0);
        assert_eq!(rep.coalesced_prefix_hops, 0);
    }

    #[test]
    fn speculation_and_batching_surface_in_cluster_report() {
        // Accelerator-side ISA-v2 switches flow through to the cluster
        // report; answers stay identical to ground truth.
        let (mem, reqs, expected) = webservice_cluster(1, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                accel: AccelConfig {
                    speculate: true,
                    batch_hops: 4,
                    ..AccelConfig::default()
                },
                ..ClusterConfig::default()
            },
            mem,
        );
        let n = reqs.len();
        for (i, r) in reqs.into_iter().enumerate() {
            cluster.submit_at(SimTime::from_nanos(10 * i as u64), r);
        }
        let mut done = Vec::new();
        while cluster.step() {
            done.extend(cluster.take_completions());
        }
        assert_eq!(done.len(), n);
        for c in &done {
            assert!(c.ok);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert!(report.batched_hops > 0, "local hash chains must fuse");
    }

    #[test]
    fn flat_topology_reports_zero_fabric_metrics() {
        // The flat default runs on the fabric but reports its fabric
        // gauges as exactly zero.
        let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert_eq!(report.link_demand, 0.0);
        assert_eq!(report.link_utilization, 0.0);
        assert_eq!(report.queue_depth, 0);
    }

    const FLAT: TopologySpec = TopologySpec::Flat;
    const LEAF_SPINE: TopologySpec = TopologySpec::LeafSpine {
        leaves: 2,
        spines: 2,
    };

    /// A 4-node rack with `cpus` CPU nodes over `topology`, and ids
    /// `(0, 0..4)` parked in flight as do-nothing requests: no traversal,
    /// no CPU work, so a reply (or switch notice) for one finishes it the
    /// instant it lands.
    fn wire_rack(topology: TopologySpec, cpus: usize) -> PulseCluster {
        let (mem, _, _) = webservice_cluster_opts(4, 500, 4096, false);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                topology,
                cpus,
                ..ClusterConfig::default()
            },
            mem,
        );
        for seq in 0..4 {
            let req = AppRequest {
                traversals: Vec::new(),
                object_io: None,
                cpu_work: SimTime::ZERO,
                response_extra_bytes: 0,
                retry: None,
            };
            let st = ReqState {
                req,
                stage: 0,
                issued_at: SimTime::ZERO,
                last_state: None,
                retries: 0,
                skip_cache_once: false,
                walk: None,
            };
            cluster.inflight.insert(RequestId { cpu: 0, seq }, st);
        }
        cluster
    }

    /// Puts messages on `cluster`'s wire through `put`, runs to idle, and
    /// returns when each parked request finished, by sequence number.
    fn landings(
        cluster: &mut PulseCluster,
        put: impl FnOnce(&mut PulseCluster),
    ) -> Vec<(u64, SimTime)> {
        put(cluster);
        let mut done = Vec::new();
        while cluster.step() {
            done.extend(cluster.take_completions());
        }
        let mut out: Vec<_> = done.iter().map(|c| (c.id.seq, c.finished_at)).collect();
        out.sort();
        out
    }

    /// A read reply for parked request `seq`, with a `len`-byte payload.
    fn reply(seq: u64, len: u32) -> Packet {
        Packet::ReadReply {
            id: RequestId { cpu: 0, seq },
            len,
        }
    }

    #[test]
    fn routed_hop_booked_late_does_not_delay_an_earlier_arrival() {
        // 2x2 leaf-spine, CPU 0 and memory node 0 on leaf 0, node 1 on
        // leaf 1. Reply A leaves node 1 first and crosses the spine; reply
        // B leaves node 0 a nanosecond later and reaches CPU 0's down-link
        // ~5 us before A does. Booking A's whole path at send time made B
        // queue behind A's future down-link slot; booked hop by hop, B
        // lands exactly as it would alone.
        let t0 = SimTime::from_micros(1);
        let a = (t0, Endpoint::Mem(1), reply(0, 4096));
        let b = (
            t0 + SimTime::from_nanos(1),
            Endpoint::Mem(0),
            reply(1, 4096),
        );
        let run = |sends: Vec<(SimTime, Endpoint, Packet)>| {
            landings(&mut wire_rack(LEAF_SPINE, 1), |cluster| {
                for (at, from, pkt) in sends {
                    cluster.transmit(at, pkt, from);
                }
            })
        };
        let both = run(vec![a.clone(), b.clone()]);
        let (solo_a, solo_b) = (run(vec![a])[0], run(vec![b])[0]);
        assert!(solo_b.1 < solo_a.1, "B reaches the CPU first");
        assert_eq!(both, vec![solo_a, solo_b]);
    }

    #[test]
    fn flat_departure_booked_ahead_does_not_delay_an_earlier_frame() {
        // A reply handed a future departure (a DMA that ends at 5 us) and a
        // frame from the same node that leaves at 1 us: the earlier frame
        // takes the up-link first, exactly as it would alone.
        let late = (SimTime::from_micros(5), Endpoint::Mem(0), reply(0, 4096));
        let early = (SimTime::from_micros(1), Endpoint::Mem(0), reply(1, 64));
        let run = |sends: Vec<(SimTime, Endpoint, Packet)>| {
            landings(&mut wire_rack(FLAT, 1), |cluster| {
                for (at, from, pkt) in sends {
                    cluster.transmit(at, pkt, from);
                }
            })
        };
        let both = run(vec![late.clone(), early.clone()]);
        assert_eq!(both, vec![run(vec![late])[0], run(vec![early])[0]]);
    }

    #[test]
    fn notices_and_data_frames_share_the_cpu_down_link() {
        // On a 2x2 leaf-spine rack, a switch notice and a data frame enter
        // memory node 0's edge switch at the same instant, bound for CPU 0
        // on the same leaf: whichever is booked first lands as it would
        // alone, and the other serializes right behind it on the down-link.
        let t = SimTime::from_micros(2);
        let data = reply(1, 4096);
        let (n_bytes, d_bytes) = (NOTICE_BYTES, data.wire_bytes());
        let cfg = FabricConfig::default();
        let ser = |b| SimTime::serialization(b, cfg.switch.port_bits_per_sec);
        let solo = |b| t + cfg.switch.pipeline_latency + ser(b) + cfg.link.propagation;
        for notice_first in [true, false] {
            let mut cluster = wire_rack(LEAF_SPINE, 1);
            let out = landings(&mut cluster, |cluster| {
                let frame = Flight {
                    cargo: Cargo::Packet(data.clone()),
                    bytes: d_bytes,
                    from: Endpoint::Mem(0),
                    route: Some(Route::To(Endpoint::Cpu(0))),
                    hop: 1,
                };
                let (from, lost) = (Endpoint::Mem(0), reply(0, 64));
                if notice_first {
                    cluster.notice(t, from, lost, Cargo::Unavailable);
                    cluster.launch(t, frame);
                } else {
                    cluster.launch(t, frame);
                    cluster.notice(t, from, lost, Cargo::Unavailable);
                }
            });
            let (notice_at, data_at) = (out[0].1, out[1].1);
            if notice_first {
                assert_eq!(notice_at, solo(n_bytes));
                assert_eq!(data_at, solo(d_bytes) + ser(n_bytes));
            } else {
                assert_eq!(data_at, solo(d_bytes));
                assert_eq!(notice_at, solo(n_bytes) + ser(d_bytes));
            }
            let down = cluster
                .fabric
                .topology()
                .downlink(Endpoint::Cpu(0))
                .unwrap();
            assert_eq!(cluster.fabric.link_bytes(down), n_bytes + d_bytes);
            assert_eq!(cluster.report().unavailable_completions, 1);
        }
    }

    #[test]
    fn flat_net_bytes_count_notices_on_the_cpu_down_link() {
        // Node 1 is dark from the start and unreplicated, so its requests
        // end in unavailable notices. The CPU's down-link carries every
        // frame and notice it receives, once each, and the report counts
        // the CPU's up- and down-link: 529 440 bytes, exactly what the rack
        // reported when CPU-bound frames and notices crossed a separate
        // receive pipe (its down-link then carried 4 440 fewer: no
        // notices).
        let faults = vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(1))];
        let (mut cluster, reqs, _) = faulted_cluster(2, 1, true, faults);
        let report = cluster.run(reqs, 8);
        assert!(report.unavailable_completions > 0);
        let topo = cluster.fabric.topology();
        let (up, down) = (
            topo.uplink(Endpoint::Cpu(0)).unwrap(),
            topo.downlink(Endpoint::Cpu(0)).unwrap(),
        );
        let (tx, rx) = (
            cluster.fabric.link_bytes(up),
            cluster.fabric.link_bytes(down),
        );
        assert_eq!(report.net_bytes, tx + rx);
        assert_eq!(report.net_bytes, 529_440);
    }

    #[test]
    fn every_hop_is_priced_as_fabric_send_prices_the_path() {
        // Property (SplitMix64 case loops) over flat and 2x1, 2x2 and 3x2
        // leaf-spine racks with 3 CPUs and 4 memory nodes:
        // (1) a packet alone on the rack's wire, booked one hop per event,
        //     lands exactly when `Fabric::send` on an idle fabric says —
        //     a reply from a random node to a random CPU, and a read from
        //     a random CPU to a random node and its reply back;
        // (2) under random cross traffic, `Fabric::send` equals the fold of
        //     `Fabric::hop` over `RackTopology::path`: same arrival, same
        //     per-link bytes, same queue depths.
        let (cpus, nodes) = (3, 4);
        let dma_bps = AccelConfig::default().timing.dram_bytes_per_sec * 8;
        for topology in [
            FLAT,
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 1,
            },
            LEAF_SPINE,
            TopologySpec::LeafSpine {
                leaves: 3,
                spines: 2,
            },
        ] {
            let idle = || Fabric::new(topology.build(cpus, nodes), FabricConfig::default());
            let mut rng = pulse_sim::SplitMix64::new(0x5eed);
            let mut cluster = wire_rack(topology, cpus);
            for case in 0..40u64 {
                // Cases a millisecond apart never share the wire.
                let at = SimTime::from_millis(case + 1) + SimTime::from_nanos(rng.next_below(999));
                let cpu = rng.next_below(cpus as u64) as usize;
                let n = rng.next_below(nodes as u64) as usize;
                let id = RequestId {
                    cpu,
                    seq: 100 + case,
                };
                let (cpu_ep, mem_ep) = (Endpoint::Cpu(cpu), Endpoint::Mem(n));
                let len = 1 + rng.next_below(8_000) as u32;
                let read = rng.next_below(2) == 0;
                let req = AppRequest {
                    traversals: Vec::new(),
                    object_io: None,
                    cpu_work: SimTime::ZERO,
                    response_extra_bytes: 0,
                    retry: None,
                };
                let st = ReqState {
                    req,
                    stage: 0,
                    issued_at: SimTime::ZERO,
                    last_state: None,
                    retries: 0,
                    skip_cache_once: false,
                    walk: None,
                };
                cluster.inflight.insert(id, st);
                let back = Packet::ReadReply { id, len };
                let (pkt, from, want) = if read {
                    let addr = cluster.memory().node_ranges(n)[0].0;
                    let pkt = Packet::Read { id, addr, len };
                    let there = idle().send(at, cpu_ep, mem_ep, pkt.wire_bytes()).unwrap();
                    let served = there + DMA_SETUP + SimTime::serialization(len as u64, dma_bps);
                    let want = idle().send(served, mem_ep, cpu_ep, back.wire_bytes());
                    (pkt, cpu_ep, want.unwrap())
                } else {
                    let want = idle().send(at, mem_ep, cpu_ep, back.wire_bytes());
                    (back, mem_ep, want.unwrap())
                };
                let out = landings(&mut cluster, |cluster| cluster.transmit(at, pkt, from));
                assert_eq!(out, vec![(id.seq, want)], "{topology:?} case {case}");
            }

            let roster: Vec<Endpoint> = (0..cpus)
                .map(Endpoint::Cpu)
                .chain((0..nodes).map(Endpoint::Mem))
                .collect();
            let (mut whole, mut folded) = (idle(), idle());
            for case in 0..400 {
                let mut ep = || roster[rng.next_below(roster.len() as u64) as usize];
                let (src, dst) = (ep(), ep());
                let at = SimTime::from_nanos(rng.next_below(20_000));
                let bytes = 1 + rng.next_below(9_000);
                let sent = whole.send(at, src, dst, bytes).unwrap();
                let path = folded.topology().path(src, dst).unwrap().to_vec();
                let hopped = path
                    .into_iter()
                    .fold(at, |t, link| folded.hop(t, link, bytes));
                let case = format!("{topology:?} case {case}: {src}->{dst} at {at:?}");
                assert_eq!(sent, hopped, "{case}: arrival");
                assert_eq!(whole.max_queue_depth(), folded.max_queue_depth(), "{case}");
                for lid in 0..whole.topology().links().len() {
                    assert_eq!(whole.link_bytes(lid), folded.link_bytes(lid), "{case}");
                    assert_eq!(
                        whole.queue_depth_at(lid, at),
                        folded.queue_depth_at(lid, at),
                        "{case}: link {lid} depth"
                    );
                }
            }
        }
    }

    #[test]
    fn routed_incast_shows_queue_depth_and_downlink_pressure() {
        // Unpartitioned 4 KiB striping on a 2-leaf/2-spine fabric: chained
        // traversals cross constantly and responses converge on one CPU
        // node, so some egress FIFO must queue and the CPU downlink must be
        // busy.
        let (mem, reqs, _) = webservice_cluster_opts(4, 2_000, 4096, false);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                },
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = cluster.run(reqs, 16);
        assert_eq!(report.completed, 120);
        assert!(report.queue_depth >= 2, "depth {}", report.queue_depth);
        assert!(report.link_utilization > 0.0);
        let fabric = cluster.fabric();
        assert!((0..fabric.topology().links().len()).any(|i| fabric.link_bytes(i) > 0));
    }

    #[test]
    fn report_bandwidth_accessors() {
        let (mem, reqs, _) = webservice_cluster(2, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert!(report.memory_util > 0.0);
        assert!(report.makespan > SimTime::ZERO);
    }

    /// Submit everything up front and pump the loop, keeping the
    /// completions (which the closed-loop `run` would drain internally).
    fn drive(cluster: &mut PulseCluster, reqs: Vec<AppRequest>) -> Vec<Completion> {
        for (i, req) in reqs.into_iter().enumerate() {
            cluster.submit_at(SimTime::from_nanos(10 * i as u64), req);
        }
        let mut done = Vec::new();
        while cluster.step() {
            done.extend(cluster.take_completions());
        }
        done
    }

    /// A replicated webservice deployment with a fault schedule.
    fn faulted_cluster(
        nodes: usize,
        replication: usize,
        partition: bool,
        faults: Vec<FaultEvent>,
    ) -> (PulseCluster, Vec<AppRequest>, Vec<u64>) {
        let granularity = if partition { 1 << 20 } else { 4096 };
        let (mut mem, reqs, expected) =
            webservice_cluster_opts(nodes, 2_000, granularity, partition);
        mem.set_replication(replication);
        let cluster = PulseCluster::new(
            ClusterConfig {
                faults,
                ..ClusterConfig::default()
            },
            mem,
        );
        (cluster, reqs, expected)
    }

    /// A packet waiting for an RPC worker at a node that crashes is lost
    /// with the node: its CPU learns when the packet's turn comes, fails
    /// over to the replica, and every request still completes right.
    #[test]
    fn rpc_packets_queued_at_a_crashed_node_fail_over() {
        let rpc = |faults| {
            let (mut mem, reqs, expected) = webservice_cluster_opts(2, 2_000, 4096, false);
            mem.set_replication(2);
            let cfg = ClusterConfig {
                mode: PulseMode::Rpc(RpcFlavor::Rpc),
                faults,
                ..ClusterConfig::default()
            };
            let mut cluster = PulseCluster::new(cfg, mem);
            for (i, req) in reqs.into_iter().enumerate() {
                cluster.submit_at(SimTime::from_nanos(10 * i as u64), req);
            }
            (cluster, expected)
        };
        // Crash node 0 just after a packet first queues there.
        let (mut dry, _) = rpc(Vec::new());
        while dry.servers[0].waiting.is_empty() {
            assert!(dry.step(), "node 0 never queues");
        }
        let crash = FaultEvent::new(dry.now() + SimTime::from_nanos(1), FaultKind::MemCrash(0));
        let (mut cluster, expected) = rpc(vec![crash]);
        let (mut at_crash, mut lost_in_queue, mut done) = (None, false, Vec::new());
        while cluster.step() {
            if !cluster.mem.node_is_up(0) {
                let s = &cluster.servers[0];
                at_crash.get_or_insert(s.iterations);
                lost_in_queue |= !s.waiting.is_empty();
            }
            done.extend(cluster.take_completions());
        }
        assert!(lost_in_queue, "the crash must find packets waiting");
        let s = &cluster.servers[0];
        assert!(s.waiting.is_empty());
        assert_eq!(Some(s.iterations), at_crash, "a dark node served a packet");
        assert_eq!(done.len(), expected.len());
        for c in &done {
            assert!(c.ok, "{:?}", c.id);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        assert!(cluster.report().failovers > 0);
    }

    #[test]
    fn crash_before_first_arrival_fails_over_with_replication() {
        // Node 0 dies before any request enters the rack; at replication 2
        // on two nodes every extent still has a live copy, so the run
        // degrades instead of failing: every request completes with the
        // right answer.
        let faults = vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))];
        let (mut cluster, reqs, expected) = faulted_cluster(2, 2, false, faults);
        let done = drive(&mut cluster, reqs);
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(c.ok, "{:?}", c.id);
            assert!(!c.unavailable);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert_eq!(report.completed, 120);
        assert_eq!(report.faulted, 0);
        assert!(report.failovers > 0, "everything re-routed to node 1");
        assert_eq!(report.unavailable_completions, 0);
        // Two nodes at replication 2: no third node to rebuild onto.
        assert_eq!(report.rereplication_bytes, 0);
        // The whole run sits inside the (never-healed) fault window.
        assert_eq!(report.degraded_p99, report.latency.p99);
    }

    #[test]
    fn crash_with_replication_1_yields_unavailable_completions() {
        // The same crash without replication: requests needing node 1's
        // extents fault-complete with the distinguishable unavailable
        // error, while node-0-only requests keep completing.
        let faults = vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(1))];
        let (mut cluster, reqs, _) = faulted_cluster(2, 1, true, faults);
        let done = drive(&mut cluster, reqs);
        let report = cluster.report();
        assert_eq!(report.completed + report.faulted, 120);
        assert!(report.completed > 0, "node-0 requests unaffected");
        assert!(report.unavailable_completions > 0);
        assert!(report.unavailable_completions <= report.faulted);
        let unavailable = done.iter().filter(|c| c.unavailable).count() as u64;
        assert_eq!(unavailable, report.unavailable_completions);
        assert!(done.iter().filter(|c| c.unavailable).all(|c| !c.ok));
    }

    #[test]
    fn crash_during_rx_parse_notifies_when_the_parse_ends() {
        // The first request's traversal reaches memory node 1 at
        // 3.92976 us and spends `net_stack` (426.3 ns) in its
        // accelerator's RX-parse stage. A crash at 4 us lands inside that
        // window, where the packet is in no workspace, so `abort_all`
        // cannot see it: the crash notice leaves when the parse would have
        // ended. A crash at 3.9 us, before the packet lands, loses it on
        // arrival instead, so every later step of the request runs exactly
        // `net_stack` earlier. The finish times price each switch notice
        // from the node's edge switch across the CPU's down-link, and each
        // CPU-bound frame once, on that down-link.
        let net_stack = AccelConfig::default().timing.net_stack;
        let run = |replication: usize, crash_at: SimTime| {
            let crash = vec![FaultEvent::new(crash_at, FaultKind::MemCrash(1))];
            let (mut cluster, reqs, expected) = faulted_cluster(2, replication, true, crash);
            let done = drive(&mut cluster, reqs.into_iter().take(1).collect());
            assert_eq!(done.len(), 1);
            (done[0].clone(), cluster.report(), expected[0])
        };
        // Replication 1: the retry finds no live copy.
        let (c, report, _) = run(1, SimTime::from_micros(4));
        assert!(!c.ok && c.unavailable);
        assert_eq!(c.finished_at, SimTime::from_picos(11_382_780));
        assert_eq!(report.failovers, 1, "one crash notice");
        assert_eq!(report.unavailable_completions, 1);
        let (early, _, _) = run(1, SimTime::from_nanos(3_900));
        assert_eq!(early.finished_at + net_stack, c.finished_at);
        // Replication 2: the retry fails over to node 0's copy.
        let (c, report, expected) = run(2, SimTime::from_micros(4));
        assert!(c.ok && !c.unavailable);
        assert_eq!(c.final_state.as_ref().unwrap().scratch_u64(8), expected);
        assert_eq!(c.finished_at, SimTime::from_picos(23_353_540));
        assert_eq!(report.failovers, 2, "the crash notice, then the reroute");
        let (early, _, _) = run(2, SimTime::from_nanos(3_900));
        assert_eq!(early.finished_at + net_stack, c.finished_at);
    }

    #[test]
    fn in_flight_counts_submissions_before_they_arrive() {
        let (mem, reqs, _) = webservice_cluster(1, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let n = reqs.len();
        for (i, req) in reqs.into_iter().enumerate() {
            cluster.submit_at(SimTime::from_micros(i as u64), req);
        }
        assert_eq!(
            cluster.in_flight(),
            n,
            "open-loop submissions count at once"
        );
        assert!(cluster.step());
        assert_eq!(
            cluster.in_flight(),
            n,
            "the first arrival is still in flight"
        );
        let mut finished = 0;
        while cluster.step() {
            finished += cluster.take_completions().len();
            assert_eq!(cluster.in_flight(), n - finished);
        }
        assert_eq!(finished, n);
        assert_eq!(cluster.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_request_id_is_rejected() {
        // Both copies are submitted before either starts; the second is
        // caught when its arrival fires while the first is in flight.
        let (mem, reqs, _) = webservice_cluster(1, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let mut reqs = reqs.into_iter();
        let id = cluster.submit_at(SimTime::ZERO, reqs.next().unwrap());
        cluster.submit_with_id(SimTime::from_nanos(10), reqs.next().unwrap(), id);
        while cluster.step() {}
    }

    #[test]
    fn crash_after_last_drain_is_invisible() {
        // A fault scheduled past the end of the run must not perturb any
        // completion-level measurement, and the degraded window (which
        // opens only at the fault) stays empty.
        let late = vec![FaultEvent::new(
            SimTime::from_millis(100),
            FaultKind::MemCrash(0),
        )];
        let (mut faulted, reqs, _) = faulted_cluster(2, 1, true, late);
        let fr = faulted.run(reqs, 8);
        let (mut clean, reqs, _) = faulted_cluster(2, 1, true, Vec::new());
        let cr = clean.run(reqs, 8);
        assert_eq!(fr.completed, cr.completed);
        assert_eq!(fr.faulted, cr.faulted);
        assert_eq!(fr.makespan, cr.makespan);
        assert_eq!(fr.latency.p99, cr.latency.p99);
        assert_eq!(fr.failovers, 0);
        assert_eq!(fr.unavailable_completions, 0);
        assert_eq!(fr.rereplication_bytes, 0);
        assert_eq!(fr.degraded_p99, SimTime::ZERO);
        assert_eq!(cr.degraded_p99, SimTime::ZERO);
    }

    #[test]
    fn crash_recover_recrash_of_one_node_stays_available() {
        // Fault-window edge: the same node crashes, recovers mid-run, and
        // crashes again. With replication 2 every request still lands.
        let faults = vec![
            FaultEvent::new(SimTime::from_micros(30), FaultKind::MemCrash(0)),
            FaultEvent::new(SimTime::from_micros(80), FaultKind::MemRecover(0)),
            FaultEvent::new(SimTime::from_micros(150), FaultKind::MemCrash(0)),
        ];
        let (mut cluster, reqs, expected) = faulted_cluster(2, 2, false, faults);
        let done = drive(&mut cluster, reqs);
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(c.ok && !c.unavailable, "{:?}", c.id);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert_eq!(report.completed, 120);
        assert!(report.failovers > 0);
        assert_eq!(report.unavailable_completions, 0);
    }

    #[test]
    fn partition_that_heals_mid_run_restores_service() {
        // Unreplicated, node 1 partitioned for a slice of the run: inside
        // the window its requests are unavailable, afterwards service
        // resumes — and a partition rebuilds nothing (data is intact).
        let faults = vec![
            FaultEvent::new(SimTime::from_micros(30), FaultKind::LinkPartition(1)),
            FaultEvent::new(SimTime::from_micros(120), FaultKind::LinkHeal(1)),
        ];
        let (mut cluster, reqs, _) = faulted_cluster(2, 1, true, faults);
        let report = cluster.run(reqs, 8);
        assert_eq!(report.completed + report.faulted, 120);
        assert!(
            report.unavailable_completions > 0,
            "window traffic had no replica to go to"
        );
        assert!(report.completed > 0, "service resumed after the heal");
        assert_eq!(report.rereplication_bytes, 0);
        // Completions after the heal exist: the last completion must land
        // past the window start.
        assert!(report.makespan > SimTime::from_micros(120));
        assert!(report.degraded_p99 > SimTime::ZERO);
    }

    #[test]
    fn crash_triggers_rereplication_that_is_not_free() {
        // Three nodes at replication 2: node 0's extents each have one
        // surviving copy, which streams them to the remaining node in the
        // background. Redundancy is restored (promoted replicas), the
        // traffic is accounted, and every request still completes.
        let faults = vec![FaultEvent::new(
            SimTime::from_micros(30),
            FaultKind::MemCrash(0),
        )];
        let (mut cluster, reqs, expected) = faulted_cluster(3, 2, false, faults);
        let done = drive(&mut cluster, reqs);
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(c.ok && !c.unavailable, "{:?}", c.id);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert_eq!(report.completed, 120);
        assert!(report.rereplication_bytes > 0, "rebuild traffic priced");
        assert_eq!(report.unavailable_completions, 0);
        // Every extent node 0 hosted is again fully redundant: a copy
        // lives on some up node beyond the survivor.
        let mem = cluster.memory();
        for (start, _) in mem.node_ranges(0) {
            let live = mem
                .all_replicas_of(start)
                .iter()
                .filter(|&&m| mem.node_is_up(m))
                .count();
            assert!(live >= 2, "extent {start:#x} left under-replicated");
        }
    }

    #[test]
    fn wedged_accelerator_reroutes_traversals_but_serves_dma() {
        // A wedge at replication 2: traversals fail over to the replica,
        // while the wedged node's DMA path (object reads) keeps serving —
        // the run completes fully.
        let faults = vec![FaultEvent::new(SimTime::ZERO, FaultKind::AccelWedge(0))];
        let (mut cluster, reqs, expected) = faulted_cluster(2, 2, false, faults);
        let done = drive(&mut cluster, reqs);
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(c.ok && !c.unavailable);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert_eq!(report.completed, 120);
        assert!(report.failovers > 0);
        // Unreplicated, the same wedge strands whatever needs node 0's
        // accelerator.
        let faults = vec![FaultEvent::new(SimTime::ZERO, FaultKind::AccelWedge(0))];
        let (mut cluster, reqs, _) = faulted_cluster(2, 1, true, faults);
        let report = cluster.run(reqs, 8);
        assert!(report.unavailable_completions > 0);
    }

    /// Runs a traced cluster to completion and checks span conservation
    /// end to end: every request finished (the `finish` debug-assert
    /// already enforces cursor == completion), per-phase means sum to the
    /// mean latency, and every mem-node occupancy stream is
    /// non-overlapping (serial DMA grants).
    fn assert_traced_run(cluster: &mut PulseCluster, reqs: Vec<AppRequest>) -> ClusterReport {
        let n = reqs.len() as u64;
        drive(cluster, reqs);
        let report = cluster.report();
        let sink = cluster.trace().expect("tracing enabled");
        assert_eq!(sink.completed(), n);
        assert_eq!(sink.open_requests(), 0);
        let phase = report.phase.expect("attribution present");
        assert_eq!(phase.count, n);
        // Per-phase means floor picos independently, so their sum may
        // undershoot the end-to-end mean by at most PHASES-1 picos.
        let mean_sum: u64 = phase.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = report.latency.mean.as_picos();
        assert!(
            mean_sum <= e2e && e2e - mean_sum < pulse_trace::PHASES as u64,
            "phase means ({mean_sum} ps) must sum to the mean latency ({e2e} ps)"
        );
        // Per-mem-track occupancy windows never overlap: they all come
        // from that node's serial DMA engine.
        let mut per_track: HashMap<Track, Vec<(SimTime, SimTime)>> = HashMap::new();
        for o in sink.occupancy() {
            per_track.entry(o.track).or_default().push((o.start, o.end));
        }
        for (track, mut windows) in per_track {
            windows.sort();
            for pair in windows.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "overlapping occupancy on {track:?}: {pair:?}"
                );
            }
        }
        report
    }

    #[test]
    fn traced_flat_run_conserves_and_exports() {
        let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                trace: Some(pulse_trace::TraceConfig::default()),
                cpus: 2,
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = assert_traced_run(&mut cluster, reqs);
        assert!(report.phase.unwrap().mean_of(pulse_trace::Phase::WireHop) > SimTime::ZERO);
    }

    #[test]
    fn traced_routed_crash_run_conserves() {
        // The hardest path: leaf-spine fabric, replication, a mid-run
        // crash with failovers and background re-replication — spans must
        // still partition every completion exactly.
        let faults = vec![FaultEvent::new(
            SimTime::from_micros(30),
            FaultKind::MemCrash(0),
        )];
        let (mut mem, reqs, _) = webservice_cluster_opts(4, 2_000, 4096, false);
        mem.set_replication(2);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                faults,
                trace: Some(pulse_trace::TraceConfig::default()),
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                },
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = assert_traced_run(&mut cluster, reqs);
        assert!(report.failovers > 0);
        assert!(report.rereplication_bytes > 0);
    }

    #[test]
    fn traced_run_exports_chrome_json_and_samples() {
        let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                trace: Some(pulse_trace::TraceConfig::default()),
                ..ClusterConfig::default()
            },
            mem,
        );
        let report = assert_traced_run(&mut cluster, reqs);
        assert!(report.makespan > SimTime::from_micros(10), "samples due");
        let sink = cluster.trace().unwrap();
        assert!(!sink.samples().is_empty(), "counter samples recorded");
        let json = cluster.trace_json().unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cpu0->sw0\""), "flat up-link track named");
        assert!(json.contains("\"sw0->mem1\""), "flat down-link track named");
        assert!(json.contains("\"ph\":\"C\""), "counter events present");
    }

    #[test]
    fn tracing_does_not_perturb_timing_and_none_is_default() {
        // The traced report must be numerically identical to the untraced
        // one, and `trace: None` must equal the default config exactly.
        let run_with = |trace: Option<pulse_trace::TraceConfig>| {
            let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
            let mut cluster = PulseCluster::new(
                ClusterConfig {
                    trace,
                    ..ClusterConfig::default()
                },
                mem,
            );
            cluster.run(reqs, 8)
        };
        let off = run_with(None);
        let on = run_with(Some(pulse_trace::TraceConfig::default()));
        assert_eq!(off.makespan, on.makespan);
        assert_eq!(off.latency.mean, on.latency.mean);
        assert_eq!(off.latency.p99, on.latency.p99);
        assert_eq!(off.net_bytes, on.net_bytes);
        assert_eq!(off.completed, on.completed);
        assert!(off.phase.is_none());
        assert!(on.phase.is_some());
        let default_cfg = run_with(None);
        assert_eq!(off.makespan, default_cfg.makespan);
    }

    #[test]
    fn routed_fabric_crash_story_holds() {
        // The same failover semantics on a leaf–spine fabric: packets are
        // priced hop by hop, re-replication competes on the same links,
        // and the run completes without unavailable completions.
        let faults = vec![FaultEvent::new(
            SimTime::from_micros(30),
            FaultKind::MemCrash(0),
        )];
        let granularity = 4096;
        let (mut mem, reqs, expected) = webservice_cluster_opts(4, 2_000, granularity, false);
        mem.set_replication(2);
        let mut cluster = PulseCluster::new(
            ClusterConfig {
                faults,
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                },
                ..ClusterConfig::default()
            },
            mem,
        );
        let done = drive(&mut cluster, reqs);
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(c.ok && !c.unavailable);
            let got = c.final_state.as_ref().unwrap().scratch_u64(8);
            assert_eq!(got, expected[c.id.seq as usize]);
        }
        let report = cluster.report();
        assert_eq!(report.completed, 120);
        assert!(report.failovers > 0);
        assert!(report.rereplication_bytes > 0);
        assert_eq!(report.unavailable_completions, 0);
    }
}
