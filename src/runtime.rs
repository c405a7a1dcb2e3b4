//! The `pulse::Runtime` façade: builder, submit/poll handles, drain.
//!
//! [`PulseBuilder`] owns all the wiring the seed API made every caller
//! repeat — memory, allocator, placement policy, cluster config — and
//! returns a ready [`Runtime`]. The runtime exposes a request-level,
//! backpressured interface:
//!
//! * [`Runtime::submit`] validates and enqueues a request, returning a
//!   [`Ticket`] immediately; at most `window` requests are admitted into
//!   the rack at once, the rest wait in a FIFO.
//! * [`Runtime::poll`] advances the simulation until at least one request
//!   completes (or nothing is left to do) and returns the completions.
//! * [`Runtime::drain`] runs everything to completion and returns the
//!   aggregate [`ClusterReport`] — bit-identical to the closed-loop
//!   [`PulseCluster::run`] with `concurrency == window`, so the Fig. 7
//!   batch benches and open-loop traffic share one code path.
//! * [`Runtime::submit_at`] is the open-loop entry: it timestamps the
//!   request with its *arrival time* and injects it immediately, bypassing
//!   the window — latency then includes every queueing effect, which is
//!   what [`OpenLoopDriver`] measures per offered-load point.

use crate::api::{AppSpec, BaselineEngine, BaselineKind};
use crate::error::Error;
use pulse_core::{
    CacheConfig, CacheStats, ClusterConfig, ClusterReport, Completion, DispatchConfig, FaultEvent,
    PulseCluster, PulseMode, RunMetrics, TraceConfig, TraceSink,
};
use pulse_ds::{BuildCtx, DsError};
use pulse_isa::Interpreter;
use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
use pulse_net::{RequestId, TopologySpec};
use pulse_sim::{IdHash, LatencyHistogram, SimTime};
use pulse_workloads::{execute_functional, AppRequest, ArrivalProcess, FunctionalRun};
use std::collections::{HashSet, VecDeque};

/// Default in-flight window: enough to keep a small rack's accelerators
/// busy without hiding latency effects.
pub const DEFAULT_WINDOW: usize = 16;

/// Default extent granularity (the scaled analogue of LegoOS-style 2 MB
/// allocations).
pub const DEFAULT_GRANULARITY: u64 = 1 << 20;

/// The handle [`Runtime::submit`] returns; completions carry the matching
/// [`RequestId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(RequestId);

impl Ticket {
    /// The identity the request's [`Completion`] will carry.
    pub fn request_id(&self) -> RequestId {
        self.0
    }

    /// Whether `completion` is this ticket's.
    pub fn matches(&self, completion: &Completion) -> bool {
        completion.id == self.0
    }
}

/// Builds a ready [`Runtime`] (and, for comparisons, [`BaselineEngine`]s)
/// over freshly wired memory.
///
/// # Examples
///
/// ```
/// use pulse::workloads::Application;
/// use pulse::{Placement, PulseBuilder, WebServiceConfig};
///
/// let (mut runtime, mut app) = PulseBuilder::new()
///     .nodes(2)
///     .placement(Placement::Striped)
///     .window(8)
///     .app(WebServiceConfig { keys: 500, ..Default::default() })?;
/// for _ in 0..20 {
///     runtime.submit(app.next_request())?;
/// }
/// let report = runtime.drain();
/// assert_eq!(report.completed, 20);
/// # Ok::<(), pulse::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PulseBuilder {
    nodes: usize,
    placement: Placement,
    granularity: u64,
    replication: usize,
    config: ClusterConfig,
    window: usize,
}

impl Default for PulseBuilder {
    fn default() -> Self {
        PulseBuilder {
            nodes: 1,
            placement: Placement::Striped,
            granularity: DEFAULT_GRANULARITY,
            replication: 1,
            config: ClusterConfig::default(),
            window: DEFAULT_WINDOW,
        }
    }
}

impl PulseBuilder {
    /// A builder with the defaults: one memory node, striped placement,
    /// 1 MiB extents, default cluster config, a 16-request window.
    pub fn new() -> PulseBuilder {
        PulseBuilder::default()
    }

    /// Number of memory nodes in the rack.
    pub fn nodes(mut self, nodes: usize) -> PulseBuilder {
        self.nodes = nodes;
        self
    }

    /// Extent placement policy.
    pub fn placement(mut self, placement: Placement) -> PulseBuilder {
        self.placement = placement;
        self
    }

    /// Extent granularity in bytes.
    pub fn granularity(mut self, bytes: u64) -> PulseBuilder {
        self.granularity = bytes;
        self
    }

    /// Replication factor: every extent keeps copies on this many
    /// consecutive nodes starting at its primary (capped at the node
    /// count). Writes fan out to every live copy synchronously; under
    /// faults, traversals and object I/O fail over to surviving replicas
    /// and a crashed node's extents are re-replicated in the background.
    /// The default `1` (no redundancy) is bit-identical to the
    /// pre-replication rack.
    pub fn replication(mut self, replication: usize) -> PulseBuilder {
        self.replication = replication;
        self
    }

    /// Scheduled fault injections (crashes, recoveries, partitions, wedged
    /// accelerators), applied at their timestamps as the simulation runs.
    /// The default empty schedule is bit-identical to the fault-free rack.
    pub fn faults(mut self, faults: Vec<FaultEvent>) -> PulseBuilder {
        self.config.faults = faults;
        self
    }

    /// Crossing-handling mode (the Fig. 9 pulse vs pulse-acc ablation).
    /// [`PulseMode::Rpc`] and [`PulseMode::Swap`] are built through
    /// [`PulseBuilder::baseline_app`] with `BaselineKind::Rpc` and
    /// `BaselineKind::SwapCache`; building a runtime in either mode is an
    /// [`Error::Config`].
    pub fn mode(mut self, mode: PulseMode) -> PulseBuilder {
        self.config.mode = mode;
        self
    }

    /// Rack fabric geometry. The default [`TopologySpec::Flat`] is the
    /// single-switch model, bit-identical to every pre-fabric trace; any
    /// routed spec (ToR, leaf–spine, ring) prices every packet hop by hop
    /// over finite directed links and surfaces link utilization and queue
    /// depth in the reports.
    pub fn topology(mut self, topology: TopologySpec) -> PulseBuilder {
        self.config.topology = topology;
        self
    }

    /// Number of CPU (compute) nodes issuing requests. Each gets its own
    /// link/issue queue and sequence counter; submissions go round-robin
    /// across them.
    pub fn cpus(mut self, cpus: usize) -> PulseBuilder {
        self.config.cpus = cpus;
        self
    }

    /// CPU-node dispatch-engine contention: every packet send and re-issue
    /// holds one of `contexts` dispatch contexts busy for `occupancy`, so
    /// the node saturates at `contexts / occupancy` packets per second (see
    /// the `pulse-core` docs). The default — zero occupancy, one context —
    /// is uncontended and reproduces the flat-adder traces bit-for-bit.
    pub fn dispatch(mut self, dispatch: DispatchConfig) -> PulseBuilder {
        self.config.dispatch = dispatch;
        self
    }

    /// Per-request span tracing and latency attribution. `None` (the
    /// default) records nothing and keeps every report bit-identical to
    /// the untraced rack; `Some` threads a `pulse-trace` sink through the
    /// cluster — typed spans per request, per-phase latency attribution in
    /// the reports ([`RunMetrics::phase`]), periodic link-utilization
    /// counter samples, and a Perfetto-loadable Chrome trace via
    /// [`Runtime::trace_json`]. Tracing observes timestamps but never
    /// perturbs them.
    pub fn trace(mut self, trace: Option<TraceConfig>) -> PulseBuilder {
        self.config.trace = trace;
        self
    }

    /// Per-CPU-node hot-object cache over traversal cells, sized by
    /// [`CacheConfig::sized`] ([`CacheConfig::disabled`] turns it off).
    /// Disabled by default (bit-identical to the cache-less rack); when
    /// enabled, each node's front end caches 64 B lines
    /// ([`CacheConfig::LINE_BYTES`]), walks cached, version-valid hops
    /// locally at [`CacheConfig::HIT_NS`] each and offloads the remainder
    /// from the last cached pointer, with every hit version-validated
    /// against the rack memory's write epoch so locked updates age out
    /// stale lines (see the `pulse-frontend` cache docs for the coherence
    /// semantics).
    pub fn cache(mut self, cache: CacheConfig) -> PulseBuilder {
        self.config.cache = cache;
        self
    }

    /// ISA-v2 speculative next-hop issue at the accelerators: at each
    /// window fetch the accelerator predicts the next pointer (current
    /// pointer by default, a `SPEC_HINT` operand when the program carries
    /// one) and issues its memory-bus load early, overlapping the hop's
    /// scheduler + logic latency. Every speculation is validated against
    /// the rack memory's per-granule write versions before use; a
    /// mismatch squashes the prefetch, re-fetches architecturally, and is
    /// charged as wasted bus occupancy — so answers never change, only
    /// timing. Off by default (bit-identical to the non-speculating rack);
    /// mis-speculations surface as `RunMetrics::mis_speculations`.
    pub fn speculation(mut self, enabled: bool) -> PulseBuilder {
        self.config.accel.speculate = enabled;
        self
    }

    /// ISA-v2 same-node hop batching: up to `hops` consecutive traversal
    /// hops whose pointers stay on the local memory node fuse into one
    /// memory-bus transaction (full window latency for the first hop, a
    /// pipelined increment per extra hop). Fusion stops at the first
    /// pointer that leaves the node, so switch-crossing semantics are
    /// unchanged. `1` (the default) disables fusion and is bit-identical;
    /// fused hops surface as `RunMetrics::batched_hops`.
    pub fn batching(mut self, hops: u32) -> PulseBuilder {
        self.config.accel.batch_hops = hops.max(1);
        self
    }

    /// ISA-v2 shared-prefix coalescing at the CPU front end: requests
    /// about to offload an *identical* traversal plan (same compiled
    /// program, entry pointer, and scratch arguments) ride one in-flight
    /// packet and fan back out when its response lands — riders observe
    /// the leader's snapshot, the staleness window every request-coalescing
    /// layer accepts. One leader carries at most 8 riders; the next
    /// identical request leads a fresh group. Disabled by default
    /// (bit-identical); ridden hops surface as
    /// `RunMetrics::coalesced_prefix_hops`.
    pub fn coalescing(mut self, enabled: bool) -> PulseBuilder {
        self.config.coalesce = enabled;
        self
    }

    /// Maximum requests in flight inside the rack (the backpressure bound;
    /// also the closed-loop concurrency of [`Runtime::drain`]).
    pub fn window(mut self, window: usize) -> PulseBuilder {
        self.window = window;
        self
    }

    fn wire(&self) -> Result<(ClusterMemory, ClusterAllocator), Error> {
        if self.nodes == 0 {
            return Err(Error::Config(
                "a rack needs at least one memory node".into(),
            ));
        }
        if self.window == 0 {
            return Err(Error::Config(
                "the in-flight window must be positive".into(),
            ));
        }
        if self.config.cpus == 0 {
            return Err(Error::Config("a rack needs at least one CPU node".into()));
        }
        if self.config.dispatch.contexts == 0 {
            return Err(Error::Config(
                "a CPU node needs at least one dispatch context".into(),
            ));
        }
        if self.granularity == 0 {
            return Err(Error::Config("extent granularity must be positive".into()));
        }
        if self.replication == 0 {
            return Err(Error::Config(
                "replication factor must be at least 1".into(),
            ));
        }
        if let Some(f) = self
            .config
            .faults
            .iter()
            .find(|f| f.kind.node() >= self.nodes)
        {
            return Err(Error::Config(format!(
                "fault {:?} names node {} but the rack has {}",
                f.kind,
                f.kind.node(),
                self.nodes
            )));
        }
        let mut mem = ClusterMemory::new(self.nodes);
        mem.set_replication(self.replication);
        Ok((mem, ClusterAllocator::new(self.placement, self.granularity)))
    }

    /// Builds the rack, letting `build` populate memory (structures, object
    /// stores) through a [`BuildCtx`] first. Returns the runtime plus
    /// whatever `build` produced (a structure, an application, ...).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for invalid builder parameters (a baseline's mode
    /// included), [`Error::Build`] from `build`, [`Error::Capacity`] if
    /// the resulting layout overflows a node's TCAM.
    pub fn build_with<A>(
        self,
        build: impl FnOnce(&mut BuildCtx<'_>) -> Result<A, DsError>,
    ) -> Result<(Runtime, A), Error> {
        match self.config.mode {
            PulseMode::Rpc(_) => {
                return Err(Error::Config(
                    "RPC is a baseline: build it with BaselineKind::Rpc".into(),
                ))
            }
            PulseMode::Swap { .. } => {
                return Err(Error::Config(
                    "Cache-based is a baseline: build it with BaselineKind::SwapCache".into(),
                ))
            }
            PulseMode::Pulse | PulseMode::PulseAcc => {}
        }
        let (mut mem, mut alloc) = self.wire()?;
        let artifact = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            build(&mut ctx)?
        };
        let cluster = PulseCluster::try_new(self.config, mem)?;
        Ok((Runtime::new(cluster, self.window), artifact))
    }

    /// Builds the rack around an application: `builder.app(WebServiceConfig
    /// {..})` returns the runtime plus the request generator.
    ///
    /// # Errors
    ///
    /// As [`PulseBuilder::build_with`].
    pub fn app<C: AppSpec>(self, cfg: C) -> Result<(Runtime, C::App), Error> {
        self.build_with(|ctx| cfg.build_app(ctx))
    }

    /// Builds the same memory wiring but hands it to a baseline system
    /// instead of the pulse rack — the comparison side of the Fig. 7
    /// experiments, behind the same [`Engine`](crate::Engine) trait.
    ///
    /// # Errors
    ///
    /// As [`PulseBuilder::build_with`]; the builder's own mode is not
    /// used.
    pub fn baseline_with<A>(
        self,
        mut kind: BaselineKind,
        build: impl FnOnce(&mut BuildCtx<'_>) -> Result<A, DsError>,
    ) -> Result<(BaselineEngine, A), Error> {
        let concurrency = self.window;
        // The builder's trace switch applies to baselines too, so one
        // `.trace(..)` call traces whichever engine the comparison builds.
        if self.config.trace.is_some() {
            match &mut kind {
                BaselineKind::SwapCache(cfg) => cfg.trace = true,
                BaselineKind::Rpc(cfg) => cfg.trace = true,
            }
        }
        let (mut mem, mut alloc) = self.wire()?;
        let artifact = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            build(&mut ctx)?
        };
        Ok((BaselineEngine::new(mem, kind, concurrency)?, artifact))
    }

    /// [`PulseBuilder::baseline_with`] for an application config.
    ///
    /// # Errors
    ///
    /// As [`PulseBuilder::build_with`].
    pub fn baseline_app<C: AppSpec>(
        self,
        kind: BaselineKind,
        cfg: C,
    ) -> Result<(BaselineEngine, C::App), Error> {
        self.baseline_with(kind, |ctx| cfg.build_app(ctx))
    }
}

/// The pulse rack behind a submit/poll interface with a bounded in-flight
/// window. Construct via [`PulseBuilder`].
#[derive(Debug)]
pub struct Runtime {
    cluster: PulseCluster,
    window: usize,
    /// Requests waiting for a window slot, in order; an open-loop arrival
    /// waiting for a client carries its arrival time.
    pending: VecDeque<(RequestId, AppRequest, Option<SimTime>)>,
    /// Requests admitted into the cluster so far (drives the initial
    /// 10 ns issue stagger, mirroring the closed-loop driver).
    admitted: u64,
    /// Whether the simulation has started stepping (after which admissions
    /// happen at the current simulated time).
    started: bool,
    /// The interpreter [`Runtime::execute_functional`] runs every request
    /// on, kept so a request costs no frame allocation.
    functional: Interpreter,
}

impl Runtime {
    /// A runtime over `cluster` admitting at most `window` requests.
    pub(crate) fn new(cluster: PulseCluster, window: usize) -> Runtime {
        Runtime {
            cluster,
            window,
            pending: VecDeque::new(),
            admitted: 0,
            started: false,
            functional: Interpreter::new(),
        }
    }

    /// Validates and enqueues `req`, returning its ticket immediately. The
    /// request enters the rack — on the next CPU node in round-robin
    /// order — as soon as the in-flight window has room.
    ///
    /// # Errors
    ///
    /// [`Error::Request`] if the request's stage wiring is malformed —
    /// rejected here, before any simulation runs.
    pub fn submit(&mut self, req: AppRequest) -> Result<Ticket, Error> {
        req.validate()?;
        let id = self.cluster.assign_id();
        self.pending.push_back((id, req, None));
        self.refill();
        Ok(Ticket(id))
    }

    /// Open-loop submission: validates `req` and injects it at arrival
    /// time `at` (clamped to the current simulated time), *bypassing* the
    /// in-flight window. The completion's latency is measured from `at`,
    /// so it includes every queueing effect inside the rack — the quantity
    /// a latency-vs-offered-load sweep plots. Don't interleave with the
    /// closed-loop [`Runtime::submit`] path on the same runtime; the two
    /// admission disciplines measure different things.
    ///
    /// # Errors
    ///
    /// [`Error::Request`] if the request's stage wiring is malformed.
    pub fn submit_at(&mut self, at: SimTime, req: AppRequest) -> Result<Ticket, Error> {
        req.validate()?;
        let id = self.cluster.assign_id();
        self.cluster
            .submit_with_id(at.max(self.cluster.now()), req, id);
        Ok(Ticket(id))
    }

    /// [`Runtime::submit_at`] for a closed-loop system whose clients are
    /// the window: validates `req`, which arrives at `at` (clamped to the
    /// current simulated time), and queues it like [`Runtime::submit`]. It
    /// enters the rack at its arrival, or, when every slot is taken then,
    /// as soon as one frees up; its latency counts from `at` either way.
    fn submit_arriving(&mut self, at: SimTime, req: AppRequest) -> Result<Ticket, Error> {
        req.validate()?;
        let id = self.cluster.assign_id();
        let at = at.max(self.cluster.now());
        self.pending.push_back((id, req, Some(at)));
        self.refill();
        Ok(Ticket(id))
    }

    /// Moves pending requests into the rack while the window has room.
    fn refill(&mut self) {
        while self.cluster.in_flight() < self.window {
            let Some((id, req, arrived)) = self.pending.pop_front() else {
                break;
            };
            let now = self.cluster.now();
            match arrived {
                // An arrival that waited for a client starts now, and its
                // latency counts from its arrival.
                Some(at) if at < now => self.cluster.submit_waited(at, req, id),
                Some(at) => self.cluster.submit_with_id(at, req, id),
                None => {
                    // Before the clock starts, stagger admissions 10 ns
                    // apart like the closed-loop driver; afterwards admit
                    // at the current time.
                    let at = if self.started {
                        now
                    } else {
                        SimTime::from_nanos(10 * self.admitted)
                    };
                    self.cluster.submit_with_id(at.max(now), req, id);
                    self.admitted += 1;
                }
            }
        }
    }

    /// Advances the simulation until at least one request completes,
    /// returning all completions produced. An empty vec means nothing is
    /// left to do (no pending work and no in-flight requests). Completed
    /// slots are refilled from the pending queue immediately, at the
    /// completion's timestamp.
    pub fn poll(&mut self) -> Vec<Completion> {
        self.started = true;
        self.cluster.step_until_completion();
        let out = self.cluster.take_completions();
        self.refill();
        out
    }

    /// Runs every submitted request to completion and returns the
    /// aggregate report. With `N` requests submitted up front this
    /// reproduces `PulseCluster::run(requests, window)` bit-for-bit.
    pub fn drain(&mut self) -> ClusterReport {
        while !self.poll().is_empty() {}
        self.report()
    }

    /// The aggregate report over everything completed so far.
    pub fn report(&self) -> ClusterReport {
        self.cluster.report()
    }

    /// Requests currently inside the rack (bounded by the window).
    pub fn in_flight(&self) -> usize {
        self.cluster.in_flight()
    }

    /// Requests waiting for a window slot.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The backpressure bound.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cluster.now()
    }

    /// Read-only view of the rack memory.
    pub fn memory(&self) -> &ClusterMemory {
        self.cluster.memory()
    }

    /// Mutable view of the rack memory (e.g. for functional ground truth).
    pub fn memory_mut(&mut self) -> &mut ClusterMemory {
        self.cluster.memory_mut()
    }

    /// Runs `req` functionally (no timing, no packets) against the rack's
    /// memory — the ground truth the simulated execution must match.
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] on malformed wiring or interpreter faults.
    pub fn execute_functional(&mut self, req: &AppRequest) -> Result<FunctionalRun, Error> {
        Ok(execute_functional(
            &mut self.functional,
            self.cluster.memory_mut(),
            req,
            1 << 20,
        )?)
    }

    /// The trace sink, when the builder enabled tracing
    /// ([`PulseBuilder::trace`]) — spans, occupancy, counter samples.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.cluster.trace()
    }

    /// The recorded trace as Chrome trace-event JSON (Perfetto-loadable),
    /// or `None` when tracing is disabled.
    pub fn trace_json(&self) -> Option<String> {
        self.cluster.trace_json()
    }

    /// The underlying cluster, for ablation-level access (accelerator
    /// stats, switch counters).
    pub fn cluster(&self) -> &PulseCluster {
        &self.cluster
    }

    /// Unwraps into the underlying cluster, dropping any pending (not yet
    /// admitted) requests — for ablations that want the low-level
    /// closed-loop driver over builder-wired memory.
    pub fn into_cluster(self) -> PulseCluster {
        self.cluster
    }
}

// ------------------------------------------------------------ open loop

/// What one open-loop run measured, for any engine (the pulse rack or a
/// baseline): the row shape of a latency-vs-load sweep. The run outcome is
/// the embedded [`RunMetrics`] (reachable through `Deref`), covering this
/// stream only even on a reused runtime:
///
/// * arrival-measured from this stream's completions: `completed`,
///   `faulted`, `unavailable_completions`, `latency` (from each request's
///   arrival, queueing included) and `throughput` (the goodput);
/// * differenced against the runtime's state at entry
///   ([`RunMetrics::since`]): bytes, `retries`, `failovers`,
///   `rereplication_bytes`, the ISA-v2 counters, and `cache_hit_rate` as
///   the ratio of the hit and miss deltas;
/// * windowed over the arrivals: `link_utilization` and `link_demand`;
/// * runtime-lifetime values, equal to this stream's on a fresh runtime:
///   `queue_depth`, `degraded_p99`, `phase` and `makespan`.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// System label ("pulse", "RPC", ...).
    pub label: String,
    /// Offered arrival rate, requests per simulated second.
    pub offered_per_sec: f64,
    /// Requests submitted.
    pub submitted: u64,
    /// When the first request arrived.
    pub first_arrival: SimTime,
    /// When the last request arrived.
    pub last_arrival: SimTime,
    /// When the last completion fired.
    pub last_completion: SimTime,
    /// Successful completions of *update* requests
    /// ([`AppRequest::is_update`]) — the write half of a mixed workload's
    /// goodput. 0 for read-only streams.
    pub completed_updates: u64,
    /// The run outcome every engine reports.
    pub metrics: RunMetrics,
}

impl std::ops::Deref for OpenLoopReport {
    type Target = RunMetrics;

    fn deref(&self) -> &RunMetrics {
        &self.metrics
    }
}

impl OpenLoopReport {
    /// The *realized* arrival rate: the `submitted - 1` gaps measured over
    /// the first-to-last-arrival span. A sampled arrival process (Poisson)
    /// realizes a rate that deviates from the configured
    /// [`OpenLoopReport::offered_per_sec`] by `O(1/sqrt(n))`, so honest
    /// goodput-kept-up checks compare against this number, not the
    /// configured one. Falls back to the configured rate when fewer than
    /// two requests arrived.
    pub fn arrival_rate_per_sec(&self) -> f64 {
        let span = self
            .last_arrival
            .saturating_sub(self.first_arrival)
            .as_secs_f64();
        if self.submitted > 1 && span > 0.0 {
            (self.submitted - 1) as f64 / span
        } else {
            self.offered_per_sec
        }
    }
}

/// Drives a [`Runtime`] open-loop: an [`ArrivalProcess`] stamps each
/// request with an arrival time, [`Runtime::submit_at`] injects it
/// regardless of completions, and the report aggregates latencies measured
/// from arrival. Build one fresh runtime per driver run so the report
/// covers exactly this request stream.
///
/// # Examples
///
/// ```
/// use pulse::workloads::{Application, ArrivalProcess};
/// use pulse::{OpenLoopDriver, PulseBuilder, WebServiceConfig};
///
/// let (mut runtime, mut app) = PulseBuilder::new()
///     .nodes(2)
///     .cpus(2)
///     .app(WebServiceConfig { keys: 500, ..Default::default() })?;
/// let reqs = (0..40).map(|_| app.next_request()).collect();
/// let mut driver = OpenLoopDriver::new(ArrivalProcess::poisson(20_000.0, 7));
/// let report = driver.run(&mut runtime, reqs)?;
/// assert_eq!(report.completed, 40);
/// assert!(report.latency.p99 >= report.latency.p50);
/// # Ok::<(), pulse::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoopDriver {
    arrivals: ArrivalProcess,
}

impl OpenLoopDriver {
    /// A driver generating arrivals from `arrivals`.
    pub fn new(arrivals: ArrivalProcess) -> OpenLoopDriver {
        OpenLoopDriver { arrivals }
    }

    /// Submits every request at its generated arrival time (starting from
    /// the runtime's current simulated time), runs the rack dry, and
    /// reports arrival-measured latency and goodput.
    ///
    /// # Errors
    ///
    /// [`Error::Request`] on the first malformed request; nothing has been
    /// simulated yet when that happens.
    pub fn run(
        &mut self,
        runtime: &mut Runtime,
        requests: Vec<AppRequest>,
    ) -> Result<OpenLoopReport, Error> {
        self.drive(runtime, requests, false)
    }

    /// [`OpenLoopDriver::run`] for a closed-loop system whose clients are
    /// the runtime's window (the RPC baselines): every request joins the
    /// runtime's pending queue with its arrival time and takes the next
    /// client to free up, in arrival order. One that arrives while every
    /// client is busy waits, and its latency counts from its arrival, so it
    /// includes that wait.
    pub(crate) fn run_with_clients(
        &mut self,
        runtime: &mut Runtime,
        requests: Vec<AppRequest>,
    ) -> Result<OpenLoopReport, Error> {
        self.drive(runtime, requests, true)
    }

    fn drive(
        &mut self,
        runtime: &mut Runtime,
        requests: Vec<AppRequest>,
        clients: bool,
    ) -> Result<OpenLoopReport, Error> {
        let submitted = requests.len() as u64;
        let base = Snapshot::of(runtime);
        let mut t = runtime.now();
        let mut first_arrival = None;
        let mut update_ids: HashSet<RequestId, IdHash> = HashSet::default();
        for req in requests {
            let is_update = req.is_update();
            t += self.arrivals.next_gap();
            let ticket = if clients {
                runtime.submit_arriving(t, req)?
            } else {
                runtime.submit_at(t, req)?
            };
            if is_update {
                update_ids.insert(ticket.request_id());
            }
            first_arrival.get_or_insert(t);
        }
        let first_arrival = first_arrival.unwrap_or(t);
        let last_arrival = t;
        let mut hist = LatencyHistogram::new();
        let (mut completed, mut faulted) = (0u64, 0u64);
        let mut completed_updates = 0u64;
        let mut unavailable = 0u64;
        let mut last_completion = first_arrival;
        loop {
            let done = runtime.poll();
            if done.is_empty() {
                break;
            }
            for c in done {
                hist.record(c.latency());
                last_completion = last_completion.max(c.finished_at);
                if c.ok {
                    completed += 1;
                    if update_ids.contains(&c.id) {
                        completed_updates += 1;
                    }
                } else {
                    faulted += 1;
                    if c.unavailable {
                        unavailable += 1;
                    }
                }
            }
        }
        let end = Snapshot::of(runtime);
        let span = last_completion.saturating_sub(first_arrival).as_secs_f64();
        let window = last_arrival
            .saturating_sub(first_arrival)
            .max(SimTime::from_nanos(1));
        let (link_demand, _) = runtime.cluster().fabric_gauges(window);
        Ok(OpenLoopReport {
            label: "pulse".into(),
            offered_per_sec: self.arrivals.offered_rate(first_arrival, t, submitted),
            submitted,
            first_arrival,
            last_arrival,
            last_completion,
            completed_updates,
            metrics: RunMetrics {
                completed,
                faulted,
                latency: hist.summary(),
                throughput: completed as f64 / span.max(1e-12),
                unavailable_completions: unavailable,
                cache_hit_rate: CacheStats {
                    hits: end.cache.hits - base.cache.hits,
                    misses: end.cache.misses - base.cache.misses,
                    ..CacheStats::default()
                }
                .hit_rate(),
                // Demand-normalized over the offered-load window, matching
                // the baselines: a system that falls behind the offered
                // rate still shows what that rate asks of its hottest CPU
                // downlink.
                link_utilization: link_demand.min(1.0),
                link_demand,
                ..end.metrics.since(&base.metrics)
            },
        })
    }
}

/// The runtime's lifetime counters at one instant: the open-loop driver
/// takes one at entry and one after the drain, and reports the stream as
/// their difference.
struct Snapshot {
    metrics: RunMetrics,
    /// Front-end cache counters across every CPU node; the hit rate is a
    /// ratio, so the delta needs the raw counts.
    cache: CacheStats,
}

impl Snapshot {
    fn of(runtime: &Runtime) -> Snapshot {
        Snapshot {
            metrics: runtime.report().metrics,
            cache: runtime.cluster().cache_stats(),
        }
    }
}
