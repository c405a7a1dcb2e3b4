//! # pulse-trace
//!
//! Deterministic, default-off observability for the pulse rack: per-request
//! typed spans, per-phase latency attribution, and a Chrome trace-event
//! exporter ([`TraceSink::trace_json`], loadable in Perfetto or
//! `chrome://tracing`).
//!
//! The paper's whole argument is about *where* a distributed
//! pointer-traversal's latency goes — dispatch-engine occupancy, per-hop
//! wire trips, accelerator compute, DMA service, retry and failover
//! detours. This crate makes that attribution a first-class artifact
//! instead of something re-derived by reading the event loop.
//!
//! ## Model
//!
//! A [`TraceSink`] keeps one open cursor per in-flight request. Engines
//! call [`TraceSink::begin`] at submission, [`TraceSink::push`] at every
//! point where the request's critical path advances (each push closes the
//! interval from the cursor to the given end time and attributes it to one
//! [`SpanKind`]), and [`TraceSink::finish`] at completion. By
//! construction the recorded spans *partition* the request's end-to-end
//! latency: no gaps, no overlaps — a conservation invariant
//! `debug_assert`ed in [`TraceSink::finish`] and re-checked by the
//! integration suite across the structure catalog, YCSB mixes, routed
//! fabric, and crash runs.
//!
//! Resource-side activity that is not on a single request's critical path
//! (DMA grants serving replica fan-out, re-replication chunk reads and
//! writes) is recorded as [`Occupancy`] windows on the owning track; the
//! per-track windows of a serial resource never overlap. Periodic link
//! utilization and egress queue depth land in the same trace as counter
//! samples ([`TraceSink::record_sample`]).
//!
//! The disabled path is an `Option<TraceSink>` left `None`: engines skip
//! every call, nothing allocates, and golden traces stay bit-identical.
//!
//! The crate also defines [`RunMetrics`], the one record every engine
//! reports a run through, since it is the lowest crate holding both the
//! latency summary and the phase attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pulse_net::RequestId;
use pulse_sim::{LatencyHistogram, LatencySummary, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Number of latency phases a request's time is partitioned into.
pub const PHASES: usize = 10;

/// Configuration of the tracing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Interval between periodic link-counter samples (utilization and
    /// egress queue depth). `SimTime::ZERO` disables sampling; spans and
    /// attribution are unaffected.
    pub sample_interval: SimTime,
}

impl Default for TraceConfig {
    /// Counter samples every 10 µs of simulated time.
    fn default() -> Self {
        TraceConfig {
            sample_interval: SimTime::from_micros(10),
        }
    }
}

/// The latency phase a span's time is attributed to — the fieldless
/// projection of [`SpanKind`] the per-curve attribution aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Waiting for a free dispatch context at the issuing CPU node.
    Queued,
    /// CPU-side software: dispatch occupancy, marshalling, response
    /// handling, per-request compute.
    Dispatch,
    /// Serialization plus propagation on a NIC, switch port, or fabric
    /// path.
    WireHop,
    /// Traversal compute inside a memory node's accelerator.
    AccelCompute,
    /// Service at a memory node: DMA reads, writes and replica fan-out,
    /// and an RPC worker's traversal service (queueing for the worker
    /// included).
    MemTrip,
    /// Hops resolved locally by the front-end traversal cache.
    CacheHit,
    /// Optimistic-concurrency re-issue penalty (a lost seqlock race).
    Retry,
    /// Crash detours: unavailability notices and replica re-plans.
    Failover,
    /// Background re-replication work attributed to a request (none in
    /// the current engines — rebuild traffic is occupancy, not critical
    /// path — but the phase is part of the stable schema).
    Rereplication,
    /// Wasted speculative window fetches: membus time burned on ISA-v2
    /// next-hop predictions that a version check later squashed. Carved
    /// out of the accelerator residency so the mis-speculation tax is
    /// visible per request.
    SpecSquash,
}

impl Phase {
    /// Every phase, in stable schema order (JSON keys, attribution
    /// arrays, and the CI gate all follow this order).
    pub const ALL: [Phase; PHASES] = [
        Phase::Queued,
        Phase::Dispatch,
        Phase::WireHop,
        Phase::AccelCompute,
        Phase::MemTrip,
        Phase::CacheHit,
        Phase::Retry,
        Phase::Failover,
        Phase::Rereplication,
        Phase::SpecSquash,
    ];

    /// Stable snake_case key for JSON field names.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Dispatch => "dispatch",
            Phase::WireHop => "wire",
            Phase::AccelCompute => "accel",
            Phase::MemTrip => "mem",
            Phase::CacheHit => "cache_hit",
            Phase::Retry => "retry",
            Phase::Failover => "failover",
            Phase::Rereplication => "rereplication",
            Phase::SpecSquash => "spec_squash",
        }
    }
}

/// What one recorded span was doing, with enough payload to name the
/// resource it ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Waiting for a free dispatch context.
    Queued,
    /// CPU-side dispatch/compute occupancy.
    Dispatch,
    /// One wire trip over link `link` (first hop of a routed path).
    WireHop {
        /// Index of the link (engine-defined numbering).
        link: usize,
    },
    /// Accelerator traversal compute at memory node `node`.
    AccelCompute {
        /// Memory-node index.
        node: usize,
    },
    /// DMA or RPC-worker service at memory node `node`.
    MemTrip {
        /// Memory-node index.
        node: usize,
    },
    /// Hops walked locally in the front-end cache.
    CacheHit,
    /// Re-issue overhead after a lost optimistic-concurrency race.
    Retry,
    /// Crash-notice propagation or replica re-plan overhead.
    Failover,
    /// Re-replication chunk service at memory node `node`.
    Rereplication {
        /// Memory-node index.
        node: usize,
    },
    /// Squashed speculative fetch time at memory node `node`.
    SpecSquash {
        /// Memory-node index.
        node: usize,
    },
}

impl SpanKind {
    /// The phase this kind's time is attributed to.
    pub fn phase(self) -> Phase {
        match self {
            SpanKind::Queued => Phase::Queued,
            SpanKind::Dispatch => Phase::Dispatch,
            SpanKind::WireHop { .. } => Phase::WireHop,
            SpanKind::AccelCompute { .. } => Phase::AccelCompute,
            SpanKind::MemTrip { .. } => Phase::MemTrip,
            SpanKind::CacheHit => Phase::CacheHit,
            SpanKind::Retry => Phase::Retry,
            SpanKind::Failover => Phase::Failover,
            SpanKind::Rereplication { .. } => Phase::Rereplication,
            SpanKind::SpecSquash { .. } => Phase::SpecSquash,
        }
    }

    /// Display name for trace-event output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Queued => "Queued",
            SpanKind::Dispatch => "Dispatch",
            SpanKind::WireHop { .. } => "WireHop",
            SpanKind::AccelCompute { .. } => "AccelCompute",
            SpanKind::MemTrip { .. } => "MemTrip",
            SpanKind::CacheHit => "CacheHit",
            SpanKind::Retry => "Retry",
            SpanKind::Failover => "Failover",
            SpanKind::Rereplication { .. } => "Rereplication",
            SpanKind::SpecSquash { .. } => "SpecSquash",
        }
    }
}

/// A timeline track in the exported trace: one per CPU node, memory node,
/// and link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// A CPU node's issue path.
    Cpu(usize),
    /// A memory node (accelerator + DMA engines).
    Mem(usize),
    /// A network link (engine-defined numbering; see
    /// [`TraceSink::name_track`]).
    Link(usize),
}

impl Track {
    fn default_name(self) -> String {
        match self {
            Track::Cpu(i) => format!("cpu{i}"),
            Track::Mem(i) => format!("mem{i}"),
            Track::Link(i) => format!("link{i}"),
        }
    }
}

/// One recorded critical-path span of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request the span belongs to.
    pub req: RequestId,
    /// What the request was doing.
    pub kind: SpanKind,
    /// The track that hosted the work.
    pub track: Track,
    /// Span start (the request's cursor when the span was pushed).
    pub start: SimTime,
    /// Span end (exclusive; the next span starts here).
    pub end: SimTime,
}

/// A resource-busy window that is not on a single request's critical path
/// (replica-fan-out DMA grants, re-replication chunk reads/writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// The track that was busy.
    pub track: Track,
    /// What occupied it.
    pub kind: SpanKind,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
}

/// One periodic counter observation of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// The sampled link's track.
    pub track: Track,
    /// Sample instant.
    pub at: SimTime,
    /// Busy fraction (or normalized throughput) since the previous
    /// sample, in `[0, 1]`.
    pub utilization: f64,
    /// Egress FIFO depth at the sample instant (0 on flat links, which
    /// have no modeled queue).
    pub queue_depth: u64,
}

// ------------------------------------------------------------ attribution

/// Per-phase mean and p99 attribution over one run's completed requests.
///
/// Each completed request contributes a sample — possibly zero — to
/// *every* phase histogram, so the per-phase means sum exactly to the mean
/// end-to-end latency (the conservation the CI gate checks at 0.1%).
/// Arrays are indexed in [`Phase::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAttribution {
    /// Requests folded into the attribution.
    pub count: u64,
    /// Mean time per phase (zero-inclusive, so means sum to the mean
    /// latency).
    pub mean: [SimTime; PHASES],
    /// 99th-percentile time per phase (zero-inclusive).
    pub p99: [SimTime; PHASES],
}

impl PhaseAttribution {
    /// Mean time spent in `phase`.
    pub fn mean_of(&self, phase: Phase) -> SimTime {
        self.mean[phase as usize]
    }

    /// 99th-percentile time spent in `phase`.
    pub fn p99_of(&self, phase: Phase) -> SimTime {
        self.p99[phase as usize]
    }
}

/// Folds per-request phase times into per-phase latency histograms.
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    phases: [LatencyHistogram; PHASES],
    count: u64,
}

impl Default for LatencyBreakdown {
    fn default() -> Self {
        LatencyBreakdown {
            phases: std::array::from_fn(|_| LatencyHistogram::new()),
            count: 0,
        }
    }
}

impl LatencyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request whose per-phase times are already an exact
    /// partition of `total` (the span-cursor path guarantees this by
    /// construction).
    pub fn record(&mut self, total: SimTime, phase_times: &[SimTime; PHASES]) {
        debug_assert_eq!(
            phase_times.iter().map(|t| t.as_picos()).sum::<u64>(),
            total.as_picos(),
            "phase times must partition the end-to-end latency exactly"
        );
        for (hist, &t) in self.phases.iter_mut().zip(phase_times) {
            hist.record(t);
        }
        self.count += 1;
    }

    /// Requests recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-phase mean/p99 attribution; `None` before any request lands.
    pub fn attribution(&self) -> Option<PhaseAttribution> {
        if self.count == 0 {
            return None;
        }
        let mut mean = [SimTime::ZERO; PHASES];
        let mut p99 = [SimTime::ZERO; PHASES];
        for (i, hist) in self.phases.iter().enumerate() {
            mean[i] = hist.mean();
            p99[i] = hist.p99();
        }
        Some(PhaseAttribution {
            count: self.count,
            mean,
            p99,
        })
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        for (dst, src) in self.phases.iter_mut().zip(&other.phases) {
            dst.merge(src);
        }
        self.count += other.count;
    }
}

// ----------------------------------------------------------- run metrics

/// The engine-neutral outcome of one run: the one definition of every
/// number the pulse rack (both baselines included) and the open-loop
/// driver report, and that the sweep document plots. Engine reports
/// (`ClusterReport`, `OpenLoopReport`) embed it and add only what is
/// theirs.
///
/// An open-loop report covers one request stream on a possibly reused
/// engine; see [`RunMetrics::since`] for which fields difference between
/// two snapshots and which stay lifetime values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests terminated by a fault: invalid pointers, protection
    /// faults, retry exhaustion, or every replica unreachable
    /// (`unavailable_completions` is that last subset).
    pub faulted: u64,
    /// End-to-end latency distribution; open loop measures each request
    /// from its arrival, queueing included.
    pub latency: LatencySummary,
    /// Completions per simulated second: over the makespan in closed
    /// loop, over the first-arrival-to-last-completion span in open loop.
    pub throughput: f64,
    /// Bytes that crossed the CPU nodes' links (both directions), or on a
    /// routed fabric every message counted once at its origin's up-link.
    pub net_bytes: u64,
    /// Bytes served by memory-node DRAM.
    pub mem_bytes: u64,
    /// Front-end traversal-cell cache hit rate: locally walked hops over
    /// all probes. Exactly 0.0 when the cache is disabled.
    pub cache_hit_rate: f64,
    /// Peak busy fraction over the fabric links into CPU nodes (the
    /// incast-prone downlinks): [`RunMetrics::link_demand`] capped at 1.0.
    /// Exactly 0.0 on the flat topology, which reports no fabric gauges.
    pub link_utilization: f64,
    /// Peak busy time over the fabric links into CPU nodes, as a fraction
    /// of a horizon, not capped: link busy time over the horizon,
    /// maximized over the downlinks. The horizon is the makespan in closed
    /// loop and the first-to-last arrival window in open loop, so a system
    /// that falls behind the offered rate reads above 1.0 by how far that
    /// rate overloads its hottest downlink. Exactly 0.0 on the flat
    /// topology.
    pub link_demand: f64,
    /// Deepest any fabric egress FIFO got (messages queued or in service
    /// at one port at once). 0 on the flat topology, which reports no
    /// fabric gauges.
    pub queue_depth: u64,
    /// Optimistic-concurrency re-issues: traversals whose final stage
    /// returned their request's retry code (a seqlock reader or writer
    /// that lost its race) and were re-planned and re-sent. 0 for
    /// read-only streams and for the RPC and Cache-based baselines, which
    /// run each traversal in one step.
    pub retries: u64,
    /// Failover actions: requests (or request segments) redirected onto a
    /// live replica around an unreachable memory node, plus crash-notice
    /// re-plans of requests whose in-flight packet died with a node. 0
    /// without faults.
    pub failovers: u64,
    /// Requests that fault-completed because every replica of data they
    /// needed was unreachable — the distinguishable subset of `faulted`.
    pub unavailable_completions: u64,
    /// Background re-replication traffic: bytes streamed from surviving
    /// replicas to rebuild targets after crashes, priced on the same links
    /// and engines as foreground packets, baseline runs included. 0
    /// without faults.
    pub rereplication_bytes: u64,
    /// p99 latency over completions that finished inside the fault window
    /// (first fault to last repair, or the end of the run when nothing
    /// heals). [`SimTime::ZERO`] without faults.
    pub degraded_p99: SimTime,
    /// Per-phase latency attribution, present exactly when the engine ran
    /// with tracing enabled. Phase means sum to the mean latency.
    pub phase: Option<PhaseAttribution>,
    /// ISA-v2 speculative next-hop fetches squashed on a prediction or
    /// version mismatch, summed over every accelerator. 0 with speculation
    /// off, and for the baselines, whose traversals no accelerator runs.
    pub mis_speculations: u64,
    /// ISA-v2 iterations fused into an open same-node memory-bus
    /// transaction, summed over every accelerator. 0 at the default batch
    /// window of 1, and for the baselines.
    pub batched_hops: u64,
    /// ISA-v2 traversal hops that rider requests skipped by sharing an
    /// identical in-flight offload. 0 with coalescing off, and for the
    /// baselines.
    pub coalesced_prefix_hops: u64,
    /// End of the last completion.
    pub makespan: SimTime,
}

impl RunMetrics {
    /// What happened between snapshot `base` and this one of the same
    /// engine. Event counters — completions, faults, bytes, retries,
    /// failovers, unavailable completions, rebuild bytes and the ISA-v2
    /// counters — are differenced. Distributions and gauges — latency,
    /// throughput, cache hit rate, link utilization and demand, queue
    /// depth, degraded p99, phase and makespan — do not difference, so they
    /// keep this snapshot's lifetime value; a caller that measures one of
    /// them over its own window overwrites it.
    pub fn since(&self, base: &RunMetrics) -> RunMetrics {
        RunMetrics {
            completed: self.completed - base.completed,
            faulted: self.faulted - base.faulted,
            net_bytes: self.net_bytes - base.net_bytes,
            mem_bytes: self.mem_bytes - base.mem_bytes,
            retries: self.retries - base.retries,
            failovers: self.failovers - base.failovers,
            unavailable_completions: self.unavailable_completions - base.unavailable_completions,
            rereplication_bytes: self.rereplication_bytes - base.rereplication_bytes,
            mis_speculations: self.mis_speculations - base.mis_speculations,
            batched_hops: self.batched_hops - base.batched_hops,
            coalesced_prefix_hops: self.coalesced_prefix_hops - base.coalesced_prefix_hops,
            ..*self
        }
    }
}

// ------------------------------------------------------------------ sink

#[derive(Debug, Clone)]
struct OpenTrace {
    start: SimTime,
    cursor: SimTime,
    phase_times: [SimTime; PHASES],
}

/// The per-run trace recorder: open request cursors, the recorded span /
/// occupancy / counter streams, and the folded [`LatencyBreakdown`].
///
/// All recording happens in event-loop order, so the streams are
/// deterministic for a deterministic engine.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    cfg: TraceConfig,
    open: HashMap<RequestId, OpenTrace>,
    spans: Vec<Span>,
    occupancy: Vec<Occupancy>,
    samples: Vec<CounterSample>,
    names: HashMap<Track, String>,
    breakdown: LatencyBreakdown,
    next_sample: Option<SimTime>,
}

impl TraceSink {
    /// Creates an empty sink. The first counter sample is due one
    /// interval in.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceSink {
            cfg,
            next_sample: (cfg.sample_interval > SimTime::ZERO).then_some(cfg.sample_interval),
            ..TraceSink::default()
        }
    }

    /// The sink's configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Gives a track a human-readable name in the exported trace (e.g.
    /// `"cpu0->leaf0"` for a routed fabric link). Unnamed tracks fall
    /// back to `cpu{i}` / `mem{i}` / `link{i}`.
    pub fn name_track(&mut self, track: Track, name: impl Into<String>) {
        self.names.insert(track, name.into());
    }

    /// Opens a request's trace at `at` (its issue time). Idempotent: a
    /// re-issue after a retry or failover keeps the original cursor.
    pub fn begin(&mut self, req: RequestId, at: SimTime) {
        self.open.entry(req).or_insert(OpenTrace {
            start: at,
            cursor: at,
            phase_times: [SimTime::ZERO; PHASES],
        });
    }

    /// Advances `req`'s cursor to `end`, recording the interval as one
    /// span of `kind` on `track`. A no-op when `end` is at or before the
    /// cursor (zero-length step) or when the request was never begun.
    pub fn push(&mut self, req: RequestId, kind: SpanKind, track: Track, end: SimTime) {
        let Some(open) = self.open.get_mut(&req) else {
            return;
        };
        if end <= open.cursor {
            return;
        }
        self.spans.push(Span {
            req,
            kind,
            track,
            start: open.cursor,
            end,
        });
        open.phase_times[kind.phase() as usize] += end - open.cursor;
        open.cursor = end;
    }

    /// Closes `req`'s trace at its completion time `at` and folds the
    /// request into the breakdown.
    ///
    /// The conservation invariant — the pushed spans partition
    /// `[begin, at]` exactly — is `debug_assert`ed here; in release
    /// builds any residual gap is attributed to [`Phase::Queued`] so the
    /// per-phase sums still equal the end-to-end latency exactly.
    pub fn finish(&mut self, req: RequestId, at: SimTime) {
        let Some(mut open) = self.open.remove(&req) else {
            return;
        };
        debug_assert_eq!(
            open.cursor, at,
            "span conservation violated for {req}: spans cover [{}, {}] of [{}, {}]",
            open.start, open.cursor, open.start, at
        );
        if at > open.cursor {
            open.phase_times[Phase::Queued as usize] += at - open.cursor;
        }
        self.breakdown
            .record(at.saturating_sub(open.start), &open.phase_times);
    }

    /// Records a resource-busy window off the critical path.
    pub fn occupy(&mut self, track: Track, kind: SpanKind, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        self.occupancy.push(Occupancy {
            track,
            kind,
            start,
            end,
        });
    }

    /// Returns the next due sample instant at or before `now` and
    /// advances the sample clock, or `None` when no sample is due.
    /// Engines call this in a loop at the top of their event handler
    /// (catch-up across idle stretches), recording one
    /// [`CounterSample`] batch per returned tick.
    pub fn sample_tick(&mut self, now: SimTime) -> Option<SimTime> {
        let due = self.next_sample?;
        if now < due {
            return None;
        }
        self.next_sample = Some(due + self.cfg.sample_interval);
        Some(due)
    }

    /// Records one counter observation.
    pub fn record_sample(&mut self, track: Track, at: SimTime, utilization: f64, queue_depth: u64) {
        self.samples.push(CounterSample {
            track,
            at,
            utilization,
            queue_depth,
        });
    }

    /// Critical-path spans in recording (event) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Off-critical-path busy windows in recording order.
    pub fn occupancy(&self) -> &[Occupancy] {
        &self.occupancy
    }

    /// Counter samples in recording order.
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }

    /// Requests begun but not yet finished.
    pub fn open_requests(&self) -> usize {
        self.open.len()
    }

    /// Completed requests folded into the attribution.
    pub fn completed(&self) -> u64 {
        self.breakdown.count()
    }

    /// Per-phase mean/p99 attribution over finished requests.
    pub fn attribution(&self) -> Option<PhaseAttribution> {
        self.breakdown.attribution()
    }

    /// Serializes the recorded streams as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// One named track (pid 1, one tid each) per CPU node, memory node,
    /// and link that recorded at least one event; spans and occupancy
    /// windows become complete (`"X"`) events with microsecond
    /// timestamps, counter samples become `"C"` events carrying
    /// utilization and queue depth.
    pub fn trace_json(&self) -> String {
        // Stable tid assignment: sorted unique tracks that actually
        // carry events.
        let mut tids: BTreeMap<Track, usize> = BTreeMap::new();
        for track in self
            .spans
            .iter()
            .map(|s| s.track)
            .chain(self.occupancy.iter().map(|o| o.track))
            .chain(self.samples.iter().map(|c| c.track))
        {
            tids.entry(track).or_default();
        }
        for (i, tid) in tids.values_mut().enumerate() {
            *tid = i + 1;
        }
        let name_of = |track: Track| -> String {
            self.names
                .get(&track)
                .cloned()
                .unwrap_or_else(|| track.default_name())
        };
        let us = |t: SimTime| t.as_picos() as f64 / 1e6;
        let mut events = Vec::with_capacity(
            tids.len() + self.spans.len() + self.occupancy.len() + self.samples.len(),
        );
        for (&track, &tid) in &tids {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&name_of(track))
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.6},\"dur\":{:.6},\
                 \"name\":\"{}\",\"cat\":\"span\",\
                 \"args\":{{\"req\":\"{}\",\"phase\":\"{}\"}}}}",
                tids[&s.track],
                us(s.start),
                us(s.end - s.start),
                s.kind.name(),
                s.req,
                s.kind.phase().key()
            ));
        }
        for o in &self.occupancy {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.6},\"dur\":{:.6},\
                 \"name\":\"{}\",\"cat\":\"occupancy\",\
                 \"args\":{{\"phase\":\"{}\"}}}}",
                tids[&o.track],
                us(o.start),
                us(o.end - o.start),
                o.kind.name(),
                o.kind.phase().key()
            ));
        }
        for c in &self.samples {
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"ts\":{:.6},\"name\":\"{}\",\
                 \"args\":{{\"utilization\":{:.6},\"queue_depth\":{}}}}}",
                us(c.at),
                escape(&name_of(c.track)),
                c.utilization,
                c.queue_depth
            ));
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}

/// Minimal JSON string escaping (backslash, quote, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(seq: u64) -> RequestId {
        RequestId { cpu: 0, seq }
    }

    #[test]
    fn spans_partition_latency_exactly() {
        let mut sink = TraceSink::new(TraceConfig::default());
        let t = SimTime::from_nanos;
        sink.begin(rid(1), t(100));
        sink.begin(rid(1), t(999)); // idempotent: keeps the first cursor
        sink.push(rid(1), SpanKind::Queued, Track::Cpu(0), t(150));
        sink.push(rid(1), SpanKind::Dispatch, Track::Cpu(0), t(200));
        sink.push(
            rid(1),
            SpanKind::WireHop { link: 0 },
            Track::Link(0),
            t(350),
        );
        sink.push(rid(1), SpanKind::MemTrip { node: 1 }, Track::Mem(1), t(500));
        // A zero-length step records nothing and keeps the cursor put.
        sink.push(rid(1), SpanKind::Retry, Track::Cpu(0), t(500));
        sink.finish(rid(1), t(500));
        assert_eq!(sink.spans().len(), 4);
        let total: u64 = sink
            .spans()
            .iter()
            .map(|s| (s.end - s.start).as_picos())
            .sum();
        assert_eq!(total, (t(500) - t(100)).as_picos());
        let attr = sink.attribution().expect("one request finished");
        assert_eq!(attr.count, 1);
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        assert_eq!(sum, (t(500) - t(100)).as_picos());
        assert_eq!(attr.mean_of(Phase::WireHop), t(150));
        assert_eq!(sink.open_requests(), 0);
    }

    #[test]
    #[should_panic(expected = "span conservation")]
    #[cfg(debug_assertions)]
    fn finish_past_cursor_panics_in_debug() {
        let mut sink = TraceSink::new(TraceConfig::default());
        sink.begin(rid(1), SimTime::ZERO);
        sink.push(
            rid(1),
            SpanKind::Dispatch,
            Track::Cpu(0),
            SimTime::from_nanos(10),
        );
        sink.finish(rid(1), SimTime::from_nanos(20)); // 10 ns gap
    }

    #[test]
    fn untracked_requests_are_ignored() {
        let mut sink = TraceSink::new(TraceConfig::default());
        sink.push(
            rid(7),
            SpanKind::Dispatch,
            Track::Cpu(0),
            SimTime::from_nanos(10),
        );
        sink.finish(rid(7), SimTime::from_nanos(10));
        assert!(sink.spans().is_empty());
        assert_eq!(sink.completed(), 0);
        assert!(sink.attribution().is_none());
    }

    #[test]
    fn sample_clock_catches_up() {
        let mut sink = TraceSink::new(TraceConfig {
            sample_interval: SimTime::from_micros(10),
        });
        assert_eq!(sink.sample_tick(SimTime::from_micros(5)), None);
        // Jumping past three intervals yields three catch-up ticks.
        let mut ticks = Vec::new();
        while let Some(t) = sink.sample_tick(SimTime::from_micros(35)) {
            ticks.push(t.as_micros_f64());
        }
        assert_eq!(ticks, vec![10.0, 20.0, 30.0]);
        // Disabled sampling never ticks.
        let mut off = TraceSink::new(TraceConfig {
            sample_interval: SimTime::ZERO,
        });
        assert_eq!(off.sample_tick(SimTime::from_secs(1)), None);
    }

    #[test]
    fn trace_json_names_only_active_tracks() {
        let mut sink = TraceSink::new(TraceConfig::default());
        sink.name_track(Track::Link(0), "cpu0->leaf0");
        sink.begin(rid(1), SimTime::ZERO);
        sink.push(
            rid(1),
            SpanKind::WireHop { link: 0 },
            Track::Link(0),
            SimTime::from_nanos(100),
        );
        sink.finish(rid(1), SimTime::from_nanos(100));
        sink.occupy(
            Track::Mem(1),
            SpanKind::Rereplication { node: 1 },
            SimTime::from_nanos(10),
            SimTime::from_nanos(30),
        );
        sink.record_sample(Track::Link(0), SimTime::from_micros(10), 0.25, 3);
        let json = sink.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cpu0->leaf0\""), "{json}");
        assert!(json.contains("\"mem1\""), "{json}");
        assert!(json.contains("\"cat\":\"occupancy\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"queue_depth\":3"));
        // No track was registered for cpu0 and none recorded events: it
        // must not appear.
        assert!(!json.contains("\"cpu0\""), "{json}");
        // Balanced braces — cheap structural sanity for the hand-rolled
        // emitter (the python CI gate does the real validation).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
