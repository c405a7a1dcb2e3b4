//! The rack-scale pulse simulation: N CPU (compute) nodes + programmable
//! switch + per-memory-node accelerators, executing application requests
//! end-to-end with full functional fidelity and event-driven timing.
//!
//! Every CPU node has its own full-duplex [`Link`] to the switch — the
//! node's NIC doubles as its issue queue, serializing departures — and its
//! own request-sequence counter, so a [`RequestId`] `(cpu, seq)` is unique
//! rack-wide and every reply routes back to the node that issued the
//! request. Submissions are spread across CPU nodes round-robin:
//! submission `i` issues from CPU node `i % cpus`.
//!
//! This is the system Fig. 7/9 evaluate. Two modes exist:
//!
//! * [`PulseMode::Pulse`] — in-network distributed traversals (§5): a
//!   memory node that hits a remote pointer returns the in-flight packet to
//!   the switch, which re-routes it to the owning node at line rate.
//! * [`PulseMode::PulseAcc`] — the Fig. 9 ablation: in-flight returns go
//!   back to the *CPU node*, which re-issues them (half a round trip plus
//!   software overhead more expensive per crossing).

use pulse_accel::{AccelConfig, AccelEvent, AccelOutput, Accelerator};
use pulse_frontend::{prefix_walk, CacheConfig, CpuFrontEnd, Role, WalkOutcome};
use pulse_mem::{
    CapacityExceeded, ClusterMemory, FaultEvent, FaultKind, GlobalRangeMap, NodeId, Perms,
    RangeTable,
};
use pulse_net::{
    CodeBlob, Endpoint, Fabric, FabricConfig, IterPacket, IterStatus, Link, LinkConfig, Packet,
    RequestId, Route, Switch, SwitchConfig, TopoNode, TopologySpec, FRAME_HEADER_BYTES,
    PULSE_HEADER_BYTES,
};
use pulse_sim::{DispatchConfig, Driver, LatencyHistogram, SerialResource, SimTime, Slab};
use pulse_trace::{RunMetrics, SpanKind, TraceConfig, TraceSink, Track};
use pulse_workloads::{AddrSource, AppRequest};
use std::collections::HashMap;

/// Distributed-traversal handling mode (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PulseMode {
    /// In-switch rerouting (the pulse design).
    Pulse,
    /// Return-to-CPU on every crossing (the `pulse-acc` ablation).
    PulseAcc,
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
    /// The rack fabric shape. [`TopologySpec::Flat`] (the default) keeps the
    /// legacy single-switch pricing path — bit-identical to the pre-fabric
    /// model — while any routed spec prices every packet hop by hop on a
    /// [`Fabric`] built over the rack's CPU and memory endpoints.
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

impl ClusterReport {
    /// Mean DRAM bandwidth consumed per memory node, bytes/second.
    pub fn mem_bandwidth_per_node(&self, nodes: usize) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.mem_bytes as f64 / self.makespan.as_secs_f64() / nodes as f64
    }

    /// CPU-link bandwidth in Gbps.
    pub fn net_gbps(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.net_bytes as f64 * 8.0 / self.makespan.as_secs_f64() / 1e9
    }
}

/// The event loop's payload. Kept to 32 bytes so the event heap stays
/// cache-friendly: packets wait in `PulseCluster::packets` and travel as a
/// slab handle, a re-replication stream's cursor lives in
/// `PulseCluster::rebuilds`, and an accelerator's RX-parse packet waits in
/// the accelerator itself.
#[derive(Debug)]
enum Ev {
    /// A submitted request reaches its CPU node, which starts processing
    /// it. Scheduled through the driver's arrival lane; the request's state
    /// rides along and enters `inflight` only now.
    Arrive(RequestId, Box<ReqState>),
    /// CPU node (re-)starts processing an in-flight request's current stage.
    Start(RequestId),
    /// Packet reaches the switch ingress (with its source endpoint).
    AtSwitch(u32, Endpoint),
    /// Packet reaches memory node `n`.
    AtMem(NodeId, u32),
    /// Packet reaches the CPU node.
    AtCpu(u32),
    /// Accelerator-internal event.
    Accel(NodeId, AccelEvent),
    /// CPU-node post-processing for a request finished.
    Finished(RequestId, Done),
    /// A scheduled infrastructure failure fires.
    Fault(FaultKind),
    /// The switch's node-death notice reaches the issuing CPU: the
    /// request's in-flight packet was lost with an unreachable node, and
    /// the CPU re-plans it from scratch (the retry then routes onto a live
    /// replica, or the re-routed packet fault-completes as unavailable).
    CrashNotice(RequestId),
    /// The next chunk of the background re-replication stream at this
    /// index of `PulseCluster::rebuilds`.
    Rebuild(u32),
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// One background re-replication stream: extent `[start, end)` is being
/// copied from surviving replica `src` to rebuild target `dst`, and the
/// stream's cursor sits at `offset`.
#[derive(Debug)]
struct RebuildStream {
    start: u64,
    end: u64,
    offset: u64,
    src: NodeId,
    dst: NodeId,
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
    /// When the CPU node started processing it.
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
}

/// The pulse rack.
#[derive(Debug)]
pub struct PulseCluster {
    cfg: ClusterConfig,
    mem: ClusterMemory,
    accels: Vec<Accelerator>,
    switch: Switch,
    /// The routed fabric, present exactly when `cfg.topology` is not flat.
    /// In routed mode it replaces the flat `links`/`switch.forward` pricing:
    /// every packet is charged hop by hop on per-directed-link pipes (the
    /// switch still supplies the pure routing decision).
    fabric: Option<Fabric>,
    links: Vec<Link>,
    /// One front end per CPU node: the node's NIC/issue-queue link, its
    /// serial dispatch engine, its request sequence counter, and (when
    /// configured) its coherent traversal-cell cache — the shared
    /// `pulse-frontend` layer all three execution engines issue through.
    frontends: Vec<CpuFrontEnd>,
    /// Per-node DMA engines serving plain object reads/writes.
    dma: Vec<SerialResource>,
    /// Requests that have arrived and not yet finished. Submitted requests
    /// wait in their `Ev::Arrive` until they start, so this map stays at
    /// the size of the live set rather than the submitted stream.
    inflight: HashMap<RequestId, ReqState>,
    /// Submitted requests whose `Ev::Arrive` has not fired yet.
    arriving: usize,
    /// Packets in transit, under the handles their delivery events carry.
    packets: Slab<Packet>,
    /// Re-replication streams, indexed by their `Ev::Rebuild` payload.
    rebuilds: Vec<RebuildStream>,
    /// Output buffer reused across accelerator calls, so stepping an
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
    /// Cumulative byte counters at the last counter sample, one per link
    /// track (flat: CPU NICs then memory NICs; routed: directed links).
    /// Empty when tracing is off.
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
        let switch = Switch::new(
            SwitchConfig::default(),
            GlobalRangeMap::new(&mem.all_ranges()),
        );
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
        let fabric = cfg
            .topology
            .is_routed()
            .then(|| Fabric::new(cfg.topology.build(cfg.cpus, nodes), FabricConfig::default()));
        // The trace sink names every link track up front so exported
        // timelines read as rack geometry, not bare indices. Flat racks
        // get one track per NIC; routed racks one per directed link.
        let sink = cfg.trace.map(|tc| {
            let mut sink = TraceSink::new(tc);
            match &fabric {
                Some(fab) => {
                    for (i, l) in fab.topology().links().iter().enumerate() {
                        sink.name_track(
                            Track::Link(i),
                            format!("{}->{}", topo_label(l.from), topo_label(l.to)),
                        );
                    }
                }
                None => {
                    for c in 0..cfg.cpus {
                        sink.name_track(Track::Link(c), format!("nic-cpu{c}"));
                    }
                    for n in 0..nodes {
                        sink.name_track(Track::Link(cfg.cpus + n), format!("nic-mem{n}"));
                    }
                }
            }
            sink
        });
        let sampled_bytes = if sink.is_some() {
            vec![
                0u64;
                match &fabric {
                    Some(fab) => fab.topology().links().len(),
                    None => cfg.cpus + nodes,
                }
            ]
        } else {
            Vec::new()
        };
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
        Ok(PulseCluster {
            accels,
            switch,
            fabric,
            links: (0..nodes)
                .map(|_| Link::new(LinkConfig::default()))
                .collect(),
            frontends: (0..cfg.cpus)
                .map(|_| {
                    let mut fe = CpuFrontEnd::new(cfg.dispatch, cfg.cache);
                    if cfg.coalesce {
                        fe.enable_coalescing();
                    }
                    fe
                })
                .collect(),
            dma: (0..nodes)
                .map(|_| SerialResource::new(cfg.accel.timing.dram_bytes_per_sec * 8))
                .collect(),
            inflight: HashMap::new(),
            arriving: 0,
            packets: Slab::new(),
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

    /// Number of CPU (compute) nodes in the rack.
    pub fn cpus(&self) -> usize {
        self.frontends.len()
    }

    /// Per-CPU-node front ends (link, dispatch engine, cache), indexed by
    /// `CpuId`.
    pub fn frontends(&self) -> &[CpuFrontEnd] {
        &self.frontends
    }

    /// Per-CPU-node link views (tx/rx byte counters), indexed by `CpuId`.
    pub fn cpu_links(&self) -> Vec<&Link> {
        self.frontends.iter().map(CpuFrontEnd::link).collect()
    }

    /// Mints the identity the next submission will carry: submissions go
    /// round-robin over the CPU nodes, and the picked node's sequence
    /// counter supplies `seq`. Deterministic in submission order.
    /// Runtimes that hand out tickets before admission call this up front
    /// and later pass the id to [`Self::submit_with_id`].
    pub fn assign_id(&mut self) -> RequestId {
        let cpu = (self.submitted % self.frontends.len() as u64) as usize;
        self.submitted += 1;
        let seq = self.frontends[cpu].mint_seq();
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
        assert!(
            !self.inflight.contains_key(&id),
            "request id {id:?} already in flight"
        );
        assert!(
            id.cpu < self.frontends.len(),
            "request id {id:?} names CPU node {} of a {}-CPU rack",
            id.cpu,
            self.frontends.len()
        );
        self.frontends[id.cpu].reserve_seq(id.seq);
        if let Some(sink) = self.sink.as_mut() {
            sink.begin(id, at);
        }
        let st = ReqState {
            req,
            stage: 0,
            issued_at: at,
            last_state: None,
            retries: 0,
            skip_cache_once: false,
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
        let mut drv = std::mem::take(&mut self.drv);
        let stepped = match drv.next_event() {
            Some(ev) => {
                self.handle(&mut drv, ev);
                true
            }
            None => false,
        };
        self.drv = drv;
        stepped
    }

    /// Drains the completions produced since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.done)
    }

    fn handle(&mut self, drv: &mut Driver<Ev>, ev: Ev) {
        let now = drv.now();
        self.sample_counters(now);
        match ev {
            Ev::Arrive(id, st) => {
                self.arriving -= 1;
                let earlier = self.inflight.insert(id, *st);
                assert!(earlier.is_none(), "request id {id:?} already in flight");
                self.send_stage(drv, now, id)
            }
            Ev::Start(id) => self.send_stage(drv, now, id),
            Ev::AtSwitch(h, from) => {
                let pkt = self.packets.take(h);
                self.at_switch(drv, now, pkt, from)
            }
            Ev::AtMem(n, h) => {
                let pkt = self.packets.take(h);
                self.at_mem(drv, now, n, pkt)
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
                        self.crash_notice(drv, now, Packet::Iter(ip));
                    }
                    return;
                }
                self.accel_call(drv, n, |accel, mem, out| accel.step(now, aev, mem, out));
            }
            Ev::AtCpu(h) => {
                let pkt = self.packets.take(h);
                self.at_cpu(drv, now, pkt)
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
            Ev::Fault(kind) => self.apply_fault(drv, now, kind),
            Ev::CrashNotice(id) => self.on_crash_notice(drv, now, id),
            Ev::Rebuild(stream) => self.rebuild_chunk(drv, now, stream),
        }
    }

    /// Runs one call on memory node `n`'s accelerator against the reused
    /// output buffer, then feeds the outputs into the event loop.
    fn accel_call(
        &mut self,
        drv: &mut Driver<Ev>,
        n: NodeId,
        call: impl FnOnce(&mut Accelerator, &mut ClusterMemory, &mut Vec<AccelOutput>),
    ) {
        let mut outs = std::mem::take(&mut self.accel_out);
        call(&mut self.accels[n], &mut self.mem, &mut outs);
        self.absorb(drv, n, &mut outs);
        self.accel_out = outs;
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
            // Flat mode counts bytes at the CPU links (both directions);
            // routed mode counts every message once at its origin's fabric
            // up-link, which additionally covers mem→mem chained hops the
            // CPU links never see.
            net_bytes: match &self.fabric {
                Some(f) => f.host_injected_bytes(),
                None => self
                    .frontends
                    .iter()
                    .map(|f| f.link().tx_bytes() + f.link().rx_bytes())
                    .sum(),
            },
            mem_bytes,
            cache_hit_rate: {
                let (hits, misses) = self
                    .frontends
                    .iter()
                    .filter_map(CpuFrontEnd::cache)
                    .fold((0u64, 0u64), |(h, m), c| {
                        (h + c.stats().hits, m + c.stats().misses)
                    });
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                }
            },
            link_utilization: self
                .fabric
                .as_ref()
                .map_or(0.0, |f| f.cpu_downlink_peak(horizon)),
            queue_depth: self
                .fabric
                .as_ref()
                .map_or(0, |f| f.max_queue_depth() as u64),
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
            iterations: self.accels.iter().map(|a| a.stats().iterations).sum(),
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
                .frontends
                .iter()
                .map(|f| f.dispatch_engine().utilization(horizon))
                .sum::<f64>()
                / self.frontends.len() as f64,
        }
    }

    /// The routed fabric's per-link state, when one exists (ablation-level
    /// inspection; the report carries the headline scalars).
    pub fn fabric(&self) -> Option<&Fabric> {
        self.fabric.as_ref()
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

    /// The trace track of memory node `n`'s flat NIC (CPU NICs occupy the
    /// first `cpus` link ids).
    fn mem_nic_track(&self, n: NodeId) -> Track {
        Track::Link(self.frontends.len() + n)
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
        while let Some(at) = sink.sample_tick(now) {
            match &self.fabric {
                Some(fab) => {
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
                None => {
                    // Flat NICs are full duplex; utilization is the
                    // combined-direction busy fraction. No modeled egress
                    // queue exists, so depth reads 0.
                    let bps = LinkConfig::default().bits_per_sec as f64;
                    let cpus = self.frontends.len();
                    for (c, fe) in self.frontends.iter().enumerate() {
                        let total = fe.link().tx_bytes() + fe.link().rx_bytes();
                        let delta = total - self.sampled_bytes[c];
                        self.sampled_bytes[c] = total;
                        let util = (delta as f64 * 8.0 / (interval * 2.0 * bps)).min(1.0);
                        sink.record_sample(Track::Link(c), at, util, 0);
                    }
                    for (n, link) in self.links.iter().enumerate() {
                        let total = link.tx_bytes() + link.rx_bytes();
                        let delta = total - self.sampled_bytes[cpus + n];
                        self.sampled_bytes[cpus + n] = total;
                        let util = (delta as f64 * 8.0 / (interval * 2.0 * bps)).min(1.0);
                        sink.record_sample(Track::Link(cpus + n), at, util, 0);
                    }
                }
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

    /// Every replica of the packet's target is unreachable: the switch
    /// sends the issuing CPU a header-sized notice and the request
    /// fault-completes with the distinguishable unavailable error.
    fn unavailable_complete(&mut self, drv: &mut Driver<Ev>, now: SimTime, pkt: Packet) {
        let id = pkt.id();
        self.recycle_lost(pkt);
        let arrive =
            self.frontends[id.cpu].rx(now, NOTICE_BYTES) + LinkConfig::default().propagation;
        self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), arrive);
        drv.schedule_at(arrive, Ev::Finished(id, Done::Unavailable));
        // Coalesced riders do not inherit the leader's unavailable
        // completion: each re-issues and reaches its own verdict.
        self.detach_riders(drv, arrive, id);
    }

    /// A packet was lost at (or in flight toward) a node that went dark:
    /// the switch notifies the issuing CPU with a header-sized notice; the
    /// CPU re-plans on delivery ([`Ev::CrashNotice`]).
    fn crash_notice(&mut self, drv: &mut Driver<Ev>, now: SimTime, pkt: Packet) {
        let id = pkt.id();
        self.recycle_lost(pkt);
        let arrive =
            self.frontends[id.cpu].rx(now, NOTICE_BYTES) + LinkConfig::default().propagation;
        self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), arrive);
        drv.schedule_at(arrive, Ev::CrashNotice(id));
    }

    /// The CPU-side half of a crash notice: re-plan the request through
    /// the retry machinery. A lost traversal restarts from stage 0 (fresh
    /// `init()`); lost object I/O re-issues just the I/O. The re-issued
    /// packet then routes onto a live replica — or, with none left,
    /// fault-completes as unavailable at the switch.
    fn on_crash_notice(&mut self, drv: &mut Driver<Ev>, now: SimTime, id: RequestId) {
        let st = self.inflight.get_mut(&id).expect("inflight");
        if st.stage < st.req.traversals.len() {
            st.stage = 0;
            if let Some(old) = st.last_state.take() {
                self.scratch_pool.push(old.scratch);
            }
        }
        self.failovers += 1;
        let restart = now + REISSUE_OVERHEAD;
        self.trace_push(id, SpanKind::Failover, Track::Cpu(id.cpu), restart);
        drv.schedule_at(restart, Ev::Start(id));
        // The leader's flight is gone; riders re-plan individually too.
        self.detach_riders(drv, restart, id);
    }

    /// Applies one scheduled fault. Crashes and partitions abort the
    /// node's in-flight traversals (their CPUs learn via crash notices);
    /// crashes additionally kick off background re-replication of the
    /// node's extents from surviving replicas.
    fn apply_fault(&mut self, drv: &mut Driver<Ev>, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::MemCrash(n) => {
                self.mem.fail_node(n);
                for pkt in self.accels[n].abort_all() {
                    self.crash_notice(drv, now, Packet::Iter(pkt));
                }
                self.start_rereplication(drv, now, n);
            }
            FaultKind::MemRecover(n) => self.mem.recover_node(n),
            FaultKind::LinkPartition(n) => {
                self.partitioned[n] = true;
                // The node is healthy but unreachable: from the rack's
                // point of view its in-flight work is as lost as a crash
                // (RPC-timeout semantics) — but its data is intact, so
                // nothing is rebuilt.
                for pkt in self.accels[n].abort_all() {
                    self.crash_notice(drv, now, Packet::Iter(pkt));
                }
            }
            FaultKind::LinkHeal(n) => self.partitioned[n] = false,
            FaultKind::AccelWedge(n) => {
                self.wedged[n] = true;
                for pkt in self.accels[n].abort_all() {
                    self.crash_notice(drv, now, Packet::Iter(pkt));
                }
            }
        }
    }

    /// Starts one re-replication stream per extent the crashed node
    /// hosted, from the first surviving replica to the first live node not
    /// already holding a copy. Extents with no surviving replica are
    /// simply lost (replication 1): requests needing them fault-complete
    /// as unavailable until the node recovers.
    fn start_rereplication(&mut self, drv: &mut Driver<Ev>, now: SimTime, crashed: NodeId) {
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
            });
            drv.schedule_at(now, Ev::Rebuild(stream));
        }
    }

    /// Advances one re-replication stream by one chunk. Each chunk is a
    /// real background message: it occupies the source's DMA engine, books
    /// a dispatch context on the coordinating CPU node (CPU 0 runs the
    /// rebuild control loop), crosses the same links/fabric foreground
    /// packets use, and lands through the target's DMA engine. One chunk
    /// is in flight per stream; when the stream completes, the target is
    /// promoted into the extent's replica set.
    fn rebuild_chunk(&mut self, drv: &mut Driver<Ev>, now: SimTime, stream: u32) {
        let RebuildStream {
            start,
            end,
            offset,
            src,
            dst,
        } = self.rebuilds[stream as usize];
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
        let wire = len + NOTICE_BYTES;
        let read = self.dma[src].acquire(now + DMA_SETUP, len);
        self.trace_occupy(
            Track::Mem(src),
            SpanKind::Rereplication { node: src },
            read.start,
            read.end,
        );
        let read_done = read.end;
        self.mem_bytes_extra += len;
        let depart = self.frontends[0].book_dispatch(read_done);
        let arrive = self.mem_to_mem(depart, src, dst, wire);
        let write = self.dma[dst].acquire(arrive + DMA_SETUP, len);
        self.trace_occupy(
            Track::Mem(dst),
            SpanKind::Rereplication { node: dst },
            write.start,
            write.end,
        );
        let write_done = write.end;
        self.mem_bytes_extra += len;
        self.rereplication_bytes += len;
        if offset + len < end {
            let cursor = &mut self.rebuilds[stream as usize];
            cursor.offset = offset + len;
            cursor.src = src;
            drv.schedule_at(write_done, Ev::Rebuild(stream));
        } else {
            self.mem.promote_replica(start, dst);
        }
    }

    /// Builds and transmits the current traversal stage (or object I/O) of
    /// request `id` from the CPU node. With a front-end cache, the stage
    /// first walks locally over cached, version-valid cells (at
    /// [`CacheConfig::HIT_NS`] per hop) and only the remainder — resumed from
    /// the last cached pointer — goes on the wire; a stage that completes
    /// entirely in cache never leaves the node.
    fn send_stage(&mut self, drv: &mut Driver<Ev>, now: SimTime, id: RequestId) {
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
                            if let Some(cache) = self.frontends[id.cpu].cache_mut() {
                                let hit = CacheConfig::HIT_NS;
                                let outcome =
                                    prefix_walk(cache, &self.mem, &stage.program, &mut state);
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
                                let role = self.frontends[id.cpu]
                                    .coalescer_mut()
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
                                            code: CodeBlob::new(stage.program.clone()),
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
                match resolve_addr(io.addr, st.last_state.as_ref()) {
                    None => Next::Fault,
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
            Next::Fault => drv.schedule_at(now, Ev::Finished(id, Done::Fault)),
            Next::Finish(cpu_work) => {
                self.trace_push(id, SpanKind::Dispatch, Track::Cpu(id.cpu), now + cpu_work);
                drv.schedule_at(now + cpu_work, Ev::Finished(id, Done::Ok));
            }
            Next::LocalDone { code, at } => {
                self.trace_push(id, SpanKind::CacheHit, Track::Cpu(id.cpu), at);
                self.stage_done(drv, at, id, code, false, true)
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
                self.cpu_send(drv, at, pkt, DISPATCH_OVERHEAD);
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
    fn stage_done(
        &mut self,
        drv: &mut Driver<Ev>,
        now: SimTime,
        id: RequestId,
        code: u64,
        gathered: bool,
        local: bool,
    ) {
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
            Next::Advance => self.send_stage(drv, now, id),
            Next::Finish(cpu_work) => {
                let done_at = if local {
                    let grant = self.frontends[id.cpu].book_dispatch_grant(now);
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
                drv.schedule_at(done_at + cpu_work, Ev::Finished(id, Done::Ok));
            }
            Next::Retry => {
                self.retries += 1;
                // Re-planning costs the re-issue software path; the
                // subsequent Start books the dispatch engine like any
                // send.
                let restart = now + REISSUE_OVERHEAD;
                self.trace_push(id, SpanKind::Retry, Track::Cpu(id.cpu), restart);
                drv.schedule_at(restart, Ev::Start(id));
            }
            Next::Exhausted => drv.schedule_at(now, Ev::Finished(id, Done::Fault)),
        }
    }

    /// Fills the issuing CPU node's front-end cache from the traversal
    /// cells a response shipped back. No-op without a cache (the list is
    /// then always empty by construction).
    fn fill_cache(&mut self, cpu: usize, touched: &[(u64, u32)]) {
        if touched.is_empty() {
            return;
        }
        if let Some(cache) = self.frontends[cpu].cache_mut() {
            for &(addr, len) in touched {
                cache.fill_range(addr, len as u64, &mut self.mem);
            }
        }
    }

    /// The switch's routing decision for `pkt` arriving from `from`, shared
    /// by the flat and routed paths: the pure table route, a crossing for
    /// every in-flight iterator arriving from a memory node (sent back to
    /// its CPU under the pulse-acc ablation), then failover around dark
    /// nodes. `None` means every replica was unreachable and the request
    /// has been fault-completed as unavailable.
    fn switch_route(
        &mut self,
        drv: &mut Driver<Ev>,
        now: SimTime,
        pkt: Packet,
        from: Endpoint,
    ) -> Option<(Route, Packet)> {
        let mut route = self.switch.route(&pkt);
        if let (Packet::Iter(ip), Endpoint::Mem(_)) = (&pkt, from) {
            if matches!(ip.status, IterStatus::InFlight) {
                self.crossings += 1;
                if self.cfg.mode == PulseMode::PulseAcc {
                    route = Route::To(Endpoint::Cpu(pkt.id().cpu));
                }
            }
        }
        match self.health_route(route, &pkt) {
            Ok(route) => Some((route, pkt)),
            Err(()) => {
                self.unavailable_complete(drv, now, pkt);
                None
            }
        }
    }

    /// Routed-fabric counterpart of [`Self::at_switch`]: the switch still
    /// makes the pure routing decision (crossing counting, the pulse-acc
    /// override, and invalid-pointer notification follow the flat path
    /// exactly), but transport is priced hop by hop on the fabric and the
    /// delivery event is scheduled directly — no `AtSwitch` hop exists in
    /// routed mode.
    fn route_and_send(&mut self, drv: &mut Driver<Ev>, at: SimTime, pkt: Packet, from: Endpoint) {
        let Some((route, pkt)) = self.switch_route(drv, at, pkt, from) else {
            return;
        };
        let wire = pkt.wire_bytes();
        // Routed trips are priced hop by hop but recorded as one WireHop
        // span attributed to the message's first hop (the sender's
        // up-link) — the only link whose occupancy the sender holds.
        let id = pkt.id();
        let up = self
            .fabric
            .as_ref()
            .and_then(|fab| fab.topology().uplink(from))
            .expect("fabric covers every rack endpoint");
        match route {
            Route::To(ep) => {
                let arrive = self.fabric_send(at, from, ep, wire);
                self.trace_push(id, SpanKind::WireHop { link: up }, Track::Link(up), arrive);
                let ev = match ep {
                    Endpoint::Mem(n) => Ev::AtMem(n, self.packets.insert(pkt)),
                    Endpoint::Cpu(_) => Ev::AtCpu(self.packets.insert(pkt)),
                };
                drv.schedule_at(arrive, ev);
            }
            Route::InvalidPointer { requester } => {
                let arrive = self.fabric_send(at, from, requester, wire);
                self.trace_push(id, SpanKind::WireHop { link: up }, Track::Link(up), arrive);
                self.deliver_invalid_pointer(drv, arrive, pkt);
            }
        }
    }

    /// Prices one message on the routed fabric, from any endpoint.
    fn fabric_send(&mut self, at: SimTime, from: Endpoint, to: Endpoint, bytes: u64) -> SimTime {
        self.fabric
            .as_mut()
            .expect("routed mode has a fabric")
            .send(at, from, to, bytes)
            .expect("fabric covers every rack endpoint")
    }

    fn at_switch(&mut self, drv: &mut Driver<Ev>, now: SimTime, pkt: Packet, from: Endpoint) {
        let Some((route, pkt)) = self.switch_route(drv, now, pkt, from) else {
            return;
        };
        // The switch-egress + delivery trip is attributed to the
        // *destination's* NIC track (the sender's NIC span ended at
        // switch ingress).
        let id = pkt.id();
        match route {
            Route::To(ep) => {
                let egress_done = self.switch.forward(now, &pkt, ep);
                let arrive = egress_done + LinkConfig::default().propagation;
                match ep {
                    Endpoint::Mem(n) => {
                        let track = self.mem_nic_track(n);
                        let link = self.frontends.len() + n;
                        self.trace_push(id, SpanKind::WireHop { link }, track, arrive);
                        drv.schedule_at(arrive, Ev::AtMem(n, self.packets.insert(pkt)))
                    }
                    Endpoint::Cpu(c) => {
                        // Count bytes entering that CPU's link (rx side).
                        let arrive = self.frontends[c].rx(egress_done, pkt.wire_bytes());
                        self.trace_push(id, SpanKind::WireHop { link: c }, Track::Link(c), arrive);
                        drv.schedule_at(arrive, Ev::AtCpu(self.packets.insert(pkt)));
                    }
                }
            }
            Route::InvalidPointer { requester } => {
                // Notify the requesting CPU of the invalid pointer (§5).
                let egress_done = self.switch.forward(now, &pkt, requester);
                let cpu = match requester {
                    Endpoint::Cpu(c) => c,
                    Endpoint::Mem(_) => unreachable!("requesters are CPU nodes"),
                };
                // Both arms charge the CPU link at the packet's full wire
                // size, matching the switch's egress-port charge in
                // `forward` (a flat 128 B under-charge before this fix).
                let arrive = self.frontends[cpu].rx(egress_done, pkt.wire_bytes());
                self.trace_push(
                    id,
                    SpanKind::WireHop { link: cpu },
                    Track::Link(cpu),
                    arrive,
                );
                self.deliver_invalid_pointer(drv, arrive, pkt);
            }
        }
    }

    /// When `wire` bytes sent at `at` from memory node `src` reach memory
    /// node `dst`: priced on the routed fabric, or over the source's flat
    /// link.
    fn mem_to_mem(&mut self, at: SimTime, src: NodeId, dst: NodeId, wire: u64) -> SimTime {
        if self.fabric.is_some() {
            self.fabric_send(at, Endpoint::Mem(src), Endpoint::Mem(dst), wire)
        } else {
            self.links[src].tx(at, wire) + LinkConfig::default().propagation
        }
    }

    fn at_mem(&mut self, drv: &mut Driver<Ev>, now: SimTime, n: NodeId, pkt: Packet) {
        // A packet that raced a fault — already in flight when its target
        // went dark (or, for traversals, wedged) — is lost on arrival; the
        // issuing CPU learns via a crash notice and re-plans.
        if !self.mem_ok(n) || (self.wedged[n] && matches!(pkt, Packet::Iter(_))) {
            return self.crash_notice(drv, now, pkt);
        }
        match pkt {
            Packet::Iter(ip) => {
                self.accel_call(drv, n, |accel, _, out| accel.on_packet(now, ip, out));
            }
            Packet::Read { id, addr, len } => {
                let _ = addr;
                let g = self.dma[n].acquire(now + DMA_SETUP, len as u64);
                self.mem_bytes_extra += len as u64;
                self.trace_occupy(Track::Mem(n), SpanKind::MemTrip { node: n }, g.start, g.end);
                self.trace_push(id, SpanKind::MemTrip { node: n }, Track::Mem(n), g.end);
                let reply = Packet::ReadReply { id, len };
                self.mem_depart(drv, n, g.end, reply);
            }
            Packet::Write { id, addr, len } => {
                let g = self.dma[n].acquire(now + DMA_SETUP, len as u64);
                self.mem_bytes_extra += len as u64;
                self.trace_occupy(Track::Mem(n), SpanKind::MemTrip { node: n }, g.start, g.end);
                let mut done = g.end;
                // Replicated stores fan out synchronously: every other
                // live copy absorbs the same bytes — a real DMA store trip
                // each, crossing the serving node's NIC (flat) or the
                // fabric (routed) — and the ack waits for the slowest
                // copy. At replication 1 this block never runs.
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
                self.mem_depart(drv, n, done, reply);
            }
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => {
                unreachable!("replies never route to memory nodes")
            }
        }
    }

    /// Transmits a packet out of memory node `n` at `at`: over the node's
    /// flat link toward the switch, or priced on the routed fabric with
    /// delivery scheduled directly.
    fn mem_depart(&mut self, drv: &mut Driver<Ev>, n: NodeId, at: SimTime, pkt: Packet) {
        // The node went dark between serving and transmitting: the
        // response never escapes. (A response whose transmit was already
        // scheduled before the fault is considered escaped.)
        if !self.mem_ok(n) {
            return self.crash_notice(drv, at, pkt);
        }
        if self.fabric.is_some() {
            self.route_and_send(drv, at, pkt, Endpoint::Mem(n));
        } else {
            let arrive = self.links[n].tx(at, pkt.wire_bytes());
            let link = self.frontends.len() + n;
            self.trace_push(
                pkt.id(),
                SpanKind::WireHop { link },
                Track::Link(link),
                arrive,
            );
            drv.schedule_at(
                arrive,
                Ev::AtSwitch(self.packets.insert(pkt), Endpoint::Mem(n)),
            );
        }
    }

    /// Feeds accelerator outputs back into the event loop, applying the
    /// near-memory gather: a final-stage `Done` response picks up the
    /// request's object in place when it lives on the same node. Leaves
    /// `outs` empty for reuse.
    fn absorb(&mut self, drv: &mut Driver<Ev>, n: NodeId, outs: &mut Vec<AccelOutput>) {
        for out in outs.drain(..) {
            match out {
                AccelOutput::Internal { at, event } => drv.schedule_at(at, Ev::Accel(n, event)),
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
                    if let IterStatus::Done { code } = pkt.status {
                        if let Some(st) = self.inflight.get(&pkt.id) {
                            let is_final_stage = st.stage + 1 == st.req.traversals.len();
                            // A retry-coded RETURN is about to be re-issued
                            // by the CPU node: gathering the object here
                            // would DMA and ship bytes the CPU discards.
                            let raced = st.req.retry.is_some_and(|rp| rp.code == code);
                            if is_final_stage && !raced {
                                if let Some(io) = st.req.object_io {
                                    if !io.write {
                                        let addr = resolve_addr(io.addr, Some(&pkt.state))
                                            .expect("state is present");
                                        if self.mem.hosts(addr, n) {
                                            // Gather: DMA the object into the
                                            // response right here.
                                            let g = self.dma[n].acquire(at, io.len as u64);
                                            self.mem_bytes_extra += io.len as u64;
                                            pkt.piggyback_bytes = io.len;
                                            self.trace_occupy(
                                                Track::Mem(n),
                                                SpanKind::MemTrip { node: n },
                                                g.start,
                                                g.end,
                                            );
                                            self.trace_push(
                                                pkt.id,
                                                SpanKind::MemTrip { node: n },
                                                Track::Mem(n),
                                                g.end,
                                            );
                                            self.mem_depart(drv, n, g.end, Packet::Iter(pkt));
                                            continue;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    self.mem_depart(drv, n, at, Packet::Iter(pkt));
                }
            }
        }
    }

    /// Delivers a packet the switch found aimed at an unmapped address to
    /// its requester at `arrive` (§5: "notify the CPU node if the pointer
    /// is invalid"): a traversal comes back `Faulted { NotMapped }`, and a
    /// plain read or write fault-completes instead of hanging forever with
    /// its packet silently dropped.
    fn deliver_invalid_pointer(&mut self, drv: &mut Driver<Ev>, arrive: SimTime, pkt: Packet) {
        match pkt {
            Packet::Iter(mut ip) => {
                ip.status = IterStatus::Faulted {
                    fault: pulse_isa::MemFault::NotMapped {
                        addr: ip.state.cur_ptr,
                    },
                };
                drv.schedule_at(arrive, Ev::AtCpu(self.packets.insert(Packet::Iter(ip))));
            }
            Packet::Read { id, .. } | Packet::Write { id, .. } => {
                drv.schedule_at(arrive, Ev::Finished(id, Done::Fault));
            }
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => {
                unreachable!("replies route to the requester, never invalid")
            }
        }
    }

    /// Transmits a packet from its owning CPU node: the dispatch engine
    /// first (queueing + occupancy under load), then `overhead` (the flat
    /// issue pipeline, or the re-issue software of a bounced traversal),
    /// then the node's NIC (flat) or the routed fabric.
    fn cpu_send(&mut self, drv: &mut Driver<Ev>, now: SimTime, pkt: Packet, overhead: SimTime) {
        let id = pkt.id();
        let cpu = id.cpu;
        let grant = self.frontends[cpu].book_dispatch_grant(now);
        let depart = grant.end + overhead;
        self.trace_push(id, SpanKind::Queued, Track::Cpu(cpu), grant.start);
        self.trace_push(id, SpanKind::Dispatch, Track::Cpu(cpu), depart);
        if self.fabric.is_some() {
            self.route_and_send(drv, depart, pkt, Endpoint::Cpu(cpu));
        } else {
            let arrive = self.frontends[cpu].tx(depart, pkt.wire_bytes());
            self.trace_push(
                id,
                SpanKind::WireHop { link: cpu },
                Track::Link(cpu),
                arrive,
            );
            drv.schedule_at(
                arrive,
                Ev::AtSwitch(self.packets.insert(pkt), Endpoint::Cpu(cpu)),
            );
        }
    }

    /// ISA-v2 coalescing fan-out: each rider of a completed leader offload
    /// observes a clone of the returned state and advances its own request
    /// from there. A fan-out completion books one dispatch op per rider
    /// (`local = true` in `stage_done`), so coalesced requests still
    /// saturate at the node's dispatch rate instead of scaling unboundedly.
    fn fan_out_riders(
        &mut self,
        drv: &mut Driver<Ev>,
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
            self.stage_done(drv, now, rider, code, false, true);
        }
    }

    /// ISA-v2 coalescing detach: a leader's flight ended without a usable
    /// response (fault, crash notice, unavailability). Its riders — which
    /// never sent anything — re-issue their stage individually from here
    /// (and may re-coalesce among themselves). Closing a request that led
    /// no group is a no-op, so callers invoke this unconditionally.
    fn detach_riders(&mut self, drv: &mut Driver<Ev>, now: SimTime, leader: RequestId) {
        let riders = self.frontends[leader.cpu]
            .coalescer_mut()
            .map_or(Vec::new(), |c| c.close(leader));
        for rider in riders {
            self.trace_push(rider, SpanKind::Failover, Track::Cpu(rider.cpu), now);
            self.send_stage(drv, now, rider);
        }
    }

    fn at_cpu(&mut self, drv: &mut Driver<Ev>, now: SimTime, pkt: Packet) {
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
                    let riders = self.frontends[id.cpu]
                        .coalescer_mut()
                        .map_or(Vec::new(), |c| c.close(id));
                    let rider_state = (!riders.is_empty()).then(|| ip.state.clone());
                    let st = self.inflight.get_mut(&id).expect("inflight");
                    let prev = st.last_state.replace(ip.state);
                    if let Some(old) = prev {
                        self.scratch_pool.push(old.scratch);
                    }
                    self.stage_done(drv, now, id, code, gathered, false);
                    if let Some(state) = rider_state {
                        self.fan_out_riders(drv, now, riders, state, code);
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
                    self.cpu_send(drv, now, Packet::Iter(ip), REISSUE_OVERHEAD);
                }
                IterStatus::IterLimit => {
                    // Continuation: fresh budget, same state (§3).
                    self.fill_cache(id.cpu, &ip.touched);
                    let mut ip = ip;
                    ip.touched.clear();
                    ip.status = IterStatus::InFlight;
                    ip.state.iters_done = 0;
                    self.cpu_send(drv, now, Packet::Iter(ip), REISSUE_OVERHEAD);
                }
                IterStatus::Faulted { .. } => {
                    self.scratch_pool.push(ip.state.scratch);
                    drv.schedule_at(now, Ev::Finished(id, Done::Fault));
                    // The fault is the leader's own (bad pointer, budget);
                    // its riders re-issue individually rather than
                    // inheriting it.
                    self.detach_riders(drv, now, id);
                }
            },
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => {
                let cpu_work = self.inflight.get(&id).expect("inflight").req.cpu_work;
                self.trace_push(id, SpanKind::Dispatch, Track::Cpu(id.cpu), now + cpu_work);
                drv.schedule_at(now + cpu_work, Ev::Finished(id, Done::Ok));
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
                let run = execute_functional(&mut mem, r, 1 << 20).unwrap();
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
        for link in cluster.cpu_links() {
            assert!(link.tx_bytes() > 0, "idle CPU tx link");
            assert!(link.rx_bytes() > 0, "idle CPU rx link");
            sum += link.tx_bytes() + link.rx_bytes();
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
        for link in cluster.cpu_links() {
            assert!(link.rx_bytes() > 0, "bounce bypassed a CPU node");
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
        // The notification was rx-charged at the packet's wire size.
        let wire = Packet::Read {
            id: done[0].id,
            addr: 0xDEAD_0000_0000,
            len: 4096,
        }
        .wire_bytes();
        assert!(cluster.cpu_links()[0].rx_bytes() >= wire);
    }

    #[test]
    fn routed_fabrics_preserve_functional_results() {
        // The fabric changes *when* packets arrive, never what they compute:
        // every routed topology must return the same per-request answers as
        // the functional ground truth.
        for topology in [
            TopologySpec::Tor { racks: 2 },
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            TopologySpec::Ring { switches: 3 },
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
        // The flat default builds no fabric at all: the new report fields
        // are exactly zero and the legacy byte accounting is untouched.
        let (mem, reqs, _) = webservice_cluster(2, 2_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert!(cluster.fabric().is_none());
        assert_eq!(report.link_utilization, 0.0);
        assert_eq!(report.queue_depth, 0);
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
        let fabric = cluster.fabric().expect("routed mode has a fabric");
        assert!((0..fabric.topology().links().len()).any(|i| fabric.link_bytes(i) > 0));
    }

    #[test]
    fn report_bandwidth_accessors() {
        let (mem, reqs, _) = webservice_cluster(2, 1_000, 1 << 20);
        let mut cluster = PulseCluster::new(ClusterConfig::default(), mem);
        let report = cluster.run(reqs, 8);
        assert!(report.net_gbps() > 0.0);
        assert!(report.mem_bandwidth_per_node(2) > 0.0);
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
        // `net_stack` earlier. The finish times were pinned when the
        // packet still travelled inside its `RxDone` event.
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
        assert_eq!(c.finished_at, SimTime::from_picos(13_182_780));
        assert_eq!(report.failovers, 1, "one crash notice");
        assert_eq!(report.unavailable_completions, 1);
        let (early, _, _) = run(1, SimTime::from_nanos(3_900));
        assert_eq!(early.finished_at + net_stack, c.finished_at);
        // Replication 2: the retry fails over to node 0's copy.
        let (c, report, expected) = run(2, SimTime::from_micros(4));
        assert!(c.ok && !c.unavailable);
        assert_eq!(c.final_state.as_ref().unwrap().scratch_u64(8), expected);
        assert_eq!(c.finished_at, SimTime::from_picos(24_923_780));
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
        assert!(json.contains("nic-cpu0"), "flat NIC tracks named");
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
