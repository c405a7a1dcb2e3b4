//! # pulse-bench
//!
//! Shared drivers for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation. Each `benches/*.rs` target is a
//! thin `main()` over these builders; `cargo bench` runs them all and
//! prints paper-style rows (paper value ⇒ measured value).
//!
//! Working sets are scaled from the paper's multi-GB deployments (factors
//! printed by each bench); every run is deterministic. The stdout of every
//! bench except `micro_substrate` (which prints wall-clock) is pinned in
//! `tests/golden/figures/<bench>.txt`, and CI byte-compares each run:
//!
//! ```text
//! for golden in tests/golden/figures/*.txt; do
//!   cargo bench -q -p pulse-bench --bench "$(basename "$golden" .txt)" | cmp - "$golden"
//! done
//! ```
//!
//! Beyond the per-figure replays, [`sweep`] runs the extended evaluation's
//! headline shape: an open-loop load ladder (offered kops → p50/p95/p99
//! latency + goodput) over any system's [`pulse::Runtime`], emitted as a
//! `BENCH_sweep.json`-style report via [`sweep_json`]. Every ladder curve
//! and every end-to-end figure is one [`Deployment`] — a
//! [`pulse::PulseBuilder`] rack, its memory-node count and a [`Stream`].
//! The rack's [`PulseMode`] picks the system: pulse or a baseline (the
//! figures compare [`paper_baselines`]), so the sides of a comparison run
//! the identical deployment by construction and differ in one setter.
//! The sustained-load headline ([`SweepReport::max_load_under_p99`]) only
//! counts rungs whose goodput actually kept up with the offered load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pulse::{OpenLoopDriver, PulseMode, RpcFlavor, RunMetrics, Runtime};
use pulse_core::{Phase, PhaseAttribution, PHASES};
use pulse_ds::{BuildCtx, TreePlacement};
use pulse_mem::ClusterMemory;
use pulse_workloads::{
    AppRequest, Application, Btrdb, BtrdbConfig, Distribution, WebService, WebServiceConfig,
    WiredTiger, WiredTigerConfig, YcsbWorkload,
};

/// Default extent granularity for end-to-end runs (the scaled analogue of
/// LegoOS's 2 MB allocations): the base rack of the figures and the sweep
/// sets it once with [`pulse::PulseBuilder::granularity`].
pub const DEFAULT_GRANULARITY: u64 = 2 << 20;

/// Keys in the paper figures' WiredTiger deployment.
pub const FIGURE_WIREDTIGER_KEYS: u64 = 60_000;

/// Keys in the sweep's WiredTiger deployment (the read-only curve and
/// YCSB-E alike).
pub const SWEEP_WIREDTIGER_KEYS: u64 = 30_000;

/// Keys in every sweep WebService deployment (read-only and YCSB-A/B
/// alike) — one definition so cached, cache-less, pulse, and baseline
/// curves all run the identical deployment by construction.
const SWEEP_WEBSERVICE_KEYS: u64 = 6_000;

/// The canonical sweep WebService deployment at a chosen mix and key
/// distribution.
fn sweep_webservice_cfg(workload: YcsbWorkload, dist: Distribution) -> WebServiceConfig {
    WebServiceConfig {
        keys: SWEEP_WEBSERVICE_KEYS,
        workload,
        distribution: dist,
        ..Default::default()
    }
}

/// A workload cell of Fig. 7/8/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// WebService under a YCSB mix.
    WebService(YcsbWorkload),
    /// WiredTiger under YCSB-E over a B+Tree of `keys` keys.
    WiredTiger {
        /// Keys in the tree.
        keys: u64,
    },
    /// BTrDB at a window resolution (seconds).
    Btrdb(u64),
}

impl AppKind {
    /// Figure label.
    pub fn label(&self) -> String {
        match self {
            AppKind::WebService(w) => format!("WebService {w}"),
            AppKind::WiredTiger { .. } => "WiredTiger YCSB-E".into(),
            AppKind::Btrdb(w) => format!("BTrDB res:{w}s"),
        }
    }
}

/// The four systems the figures compare pulse against, in figure order:
/// Cache-based, RPC, RPC-ARM and Cache+RPC. Both caches hold 8 MiB, the
/// paper's 2 GB scaled by the working-set factor.
pub fn paper_baselines() -> [PulseMode; 4] {
    let cache_bytes = 8 << 20;
    [
        PulseMode::Swap { cache_bytes },
        PulseMode::Rpc(RpcFlavor::Rpc),
        PulseMode::Rpc(RpcFlavor::RpcArm),
        PulseMode::Rpc(RpcFlavor::CacheRpc { cache_bytes }),
    ]
}

/// Prints a standard bench banner.
pub fn banner(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure} — {what}");
    println!("(deterministic simulation; working sets scaled ~1/1000 of the");
    println!(" paper's testbed, all swept ratios preserved; see DESIGN.md)");
    println!("==============================================================");
}

/// Formats microseconds with two decimals.
pub fn us(t: pulse_sim::SimTime) -> String {
    format!("{:8.2}", t.as_micros_f64())
}

/// Formats a throughput in Kops/s.
pub fn kops(ops_per_sec: f64) -> String {
    format!("{:9.1}", ops_per_sec / 1e3)
}

// ------------------------------------------------------- latency-vs-load

/// One rung of a latency-vs-offered-load ladder. Its JSON shape is the
/// `SWEEP_FIELDS` table.
#[derive(Debug, Clone, Default)]
pub struct SweepPoint {
    /// Offered Poisson arrival rate, kilo-requests per second.
    pub offered_kops: f64,
    /// *Realized* arrival rate over the rung's schedule, kilo-requests per
    /// second. A sampled process deviates from the configured rate by
    /// `O(1/sqrt(n))`; the sustained-load check compares goodput against
    /// this, not the configured rate.
    pub arrived_kops: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests terminated by faults.
    pub faulted: u64,
    /// Median latency (from arrival, queueing included), microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Successful completions, kilo-requests per second.
    pub goodput_kops: f64,
    /// The write half of the goodput: successful *update* completions
    /// (`AppRequest::is_update`), kilo-requests per second. 0 for
    /// read-only curves.
    pub update_goodput_kops: f64,
    /// Optimistic-concurrency re-issues the rung performed (seqlock
    /// readers/writers that lost a race). 0 for read-only curves and for
    /// the baselines, which run each traversal in one step.
    pub retries: u64,
    /// Front-end traversal-cell cache hit rate over the rung: locally
    /// walked hops over all probes. Exactly 0.0 on every cache-disabled
    /// curve — CI asserts both directions.
    pub cache_hit_rate: f64,
    /// Peak busy fraction over the fabric links into CPU nodes (the
    /// incast-prone downlinks), capped at 1.0. Exactly 0.0 on every
    /// flat-topology curve, which reports no fabric gauges — CI asserts
    /// both directions.
    pub link_utilization: f64,
    /// The same peak busy time over the rung's arrival window, uncapped
    /// ([`pulse::trace::RunMetrics::link_demand`]): above 1.0 when the
    /// offered load overloads the hottest CPU downlink. 0.0 on flat curves.
    /// Not written to the sweep document.
    pub link_demand: f64,
    /// Deepest any fabric link's egress FIFO ever got during the rung.
    /// 0 on flat-topology curves.
    pub queue_depth: u64,
    /// Requests redirected onto a surviving replica during the rung.
    /// Exactly 0 on every curve without a fault schedule — CI asserts it.
    pub failovers: u64,
    /// Requests that fault-completed with every replica unreachable (a
    /// subset of `faulted`). The SLO-under-failure claim: 0 on replicated
    /// crash curves, nonzero on unreplicated ones.
    pub unavailable_completions: u64,
    /// Bytes of background re-replication traffic that competed with the
    /// rung's foreground requests. Exactly 0 without a crash.
    pub rereplication_bytes: u64,
    /// p99 over only the completions inside the degraded window (first
    /// fault to last repair), microseconds. Exactly 0.0 without faults.
    pub degraded_p99_us: f64,
    /// Per-phase latency attribution over the rung's completions. Present
    /// exactly when the rung ran with tracing enabled
    /// ([`pulse::PulseBuilder::trace`]); `None` keeps the default sweep
    /// document byte-identical to the pre-trace schema.
    pub phase: Option<PhasePoint>,
    /// ISA-v2 speculative next-hop issues that validated wrong and were
    /// squashed ([`pulse::PulseBuilder::speculation`]). Exactly 0 on every
    /// curve that doesn't speculate — CI asserts it; the JSON emits the
    /// ISA-v2 trailer only when some counter is nonzero, so default
    /// documents stay byte-identical to the pre-ISA-v2 schema.
    pub mis_speculations: u64,
    /// ISA-v2 same-node hops fused into a preceding memory-bus transaction
    /// ([`pulse::PulseBuilder::batching`]). 0 at the default batch window.
    pub batched_hops: u64,
    /// Traversal hops skipped by riding an identical in-flight offload
    /// ([`pulse::PulseBuilder::coalescing`]). 0 with coalescing off.
    pub coalesced_prefix_hops: u64,
}

/// Microsecond-domain view of a rung's [`PhaseAttribution`] — the sweep
/// JSON's optional `"phase"` object. Means are zero-inclusive over every
/// completion, so they sum to the rung's mean latency (the conservation
/// the CI trace gate checks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhasePoint {
    /// Completions folded into the attribution.
    pub count: u64,
    /// Mean time per phase, microseconds, in [`Phase::ALL`] order.
    pub mean_us: [f64; PHASES],
    /// 99th-percentile time per phase, microseconds, in [`Phase::ALL`]
    /// order.
    pub p99_us: [f64; PHASES],
}

impl PhasePoint {
    /// Converts a run's picosecond-domain attribution to the microsecond
    /// domain the sweep document speaks.
    pub fn from_attribution(a: &PhaseAttribution) -> PhasePoint {
        let mut mean_us = [0.0; PHASES];
        let mut p99_us = [0.0; PHASES];
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            mean_us[i] = a.mean_of(phase).as_micros_f64();
            p99_us[i] = a.p99_of(phase).as_micros_f64();
        }
        PhasePoint {
            count: a.count,
            mean_us,
            p99_us,
        }
    }
}

impl SweepPoint {
    /// Collapses one open-loop rung's report into the sweep-document row
    /// (the conversion [`sweep`] applies per rung, public so ad-hoc traced
    /// runs can emit schema-compatible rows too).
    pub fn from_open_loop(rep: &pulse::OpenLoopReport) -> SweepPoint {
        let update_fraction = if rep.completed > 0 {
            rep.completed_updates as f64 / rep.completed as f64
        } else {
            0.0
        };
        SweepPoint {
            offered_kops: rep.offered_per_sec / 1e3,
            arrived_kops: rep.arrival_rate_per_sec() / 1e3,
            completed: rep.completed,
            faulted: rep.faulted,
            p50_us: rep.latency.p50.as_micros_f64(),
            p95_us: rep.latency.p95.as_micros_f64(),
            p99_us: rep.latency.p99.as_micros_f64(),
            goodput_kops: rep.throughput / 1e3,
            update_goodput_kops: rep.throughput / 1e3 * update_fraction,
            retries: rep.retries,
            cache_hit_rate: rep.cache_hit_rate,
            link_utilization: rep.link_utilization,
            link_demand: rep.link_demand,
            queue_depth: rep.queue_depth,
            failovers: rep.failovers,
            unavailable_completions: rep.unavailable_completions,
            rereplication_bytes: rep.rereplication_bytes,
            degraded_p99_us: rep.degraded_p99.as_micros_f64(),
            phase: rep.phase.as_ref().map(PhasePoint::from_attribution),
            mis_speculations: rep.mis_speculations,
            batched_hops: rep.batched_hops,
            coalesced_prefix_hops: rep.coalesced_prefix_hops,
        }
    }

    /// The best completion rate this rung could have shown (kops): every
    /// submitted request served over the arrival span plus one p99 drain
    /// tail. Goodput is measured over first-arrival-to-last-completion, so
    /// even a zero-loss rung trails `arrived_kops` by the tail needed to
    /// drain the last arrivals — a finite-run artifact that shrinks with
    /// rung length. Comparing goodput against this bound (instead of the
    /// raw arrival rate) keeps short healthy rungs from being
    /// misclassified as collapsed, while a genuinely collapsed rung — most
    /// of its load shed, survivors fast — still falls far below it.
    pub fn sustainable_kops(&self) -> f64 {
        let submitted = self.completed + self.faulted;
        if submitted < 2 || self.arrived_kops <= 0.0 {
            return self.arrived_kops;
        }
        // arrived_kops is requests per millisecond; spans in ms.
        let arrival_span_ms = (submitted - 1) as f64 / self.arrived_kops;
        let drain_ms = self.p99_us / 1e3;
        submitted as f64 / (arrival_span_ms + drain_ms)
    }
}

/// A full ladder for one curve: the latency-vs-load curve the extended
/// evaluation plots.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Curve label, the caller's ("pulse", "RPC-crash", ...).
    pub label: String,
    /// One point per offered load, in ladder order.
    pub points: Vec<SweepPoint>,
}

/// Fraction of a rung's achievable completion rate
/// ([`SweepPoint::sustainable_kops`]) its goodput must reach for the rung
/// to count as *sustained* (see [`SweepReport::max_load_under_p99`]).
pub const GOODPUT_TOLERANCE: f64 = 0.95;

impl SweepReport {
    /// The highest *achieved* load (goodput, kops) among rungs that
    /// sustained their offered load at the SLO — the "sustained load at an
    /// SLO" headline number.
    ///
    /// A rung qualifies only if its measured p99 stays at or under
    /// `p99_us` **and** its goodput is within [`GOODPUT_TOLERANCE`] of the
    /// best rate the rung's realized arrivals allowed
    /// ([`SweepPoint::sustainable_kops`]: the arrival span plus one p99
    /// drain tail). The second condition is what keeps the number honest:
    /// past saturation a rung can shed most of its load yet still report a
    /// fine p99 over the few requests that completed quickly — counting
    /// such a rung at its full *offered* load (as this method once did)
    /// reports capacity the system never delivered. Disaggregation
    /// evaluations are notorious for exactly this offered-vs-achieved
    /// confusion (Maruf & Chowdhury, arXiv:2305.03943).
    pub fn max_load_under_p99(&self, p99_us: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| {
                p.p99_us <= p99_us && p.goodput_kops >= p.sustainable_kops() * GOODPUT_TOLERANCE
            })
            .map(|p| p.goodput_kops)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Serializes the curve as a JSON object (hand-rolled; the workspace
    /// is offline and carries no serde). Each point is written from the
    /// `SWEEP_FIELDS` table.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(point_json).collect();
        format!(
            "{{\"label\":\"{}\",\"points\":[{}]}}",
            json_escape(&self.label),
            points.join(",")
        )
    }
}

// ------------------------------------------------------- sweep schema

/// How a sweep-document number is printed.
#[derive(Debug, Clone, Copy)]
enum Format {
    /// A count, printed as an integer.
    Int,
    /// Three decimals: rates (kops) and latencies (microseconds).
    Fixed3,
    /// Four decimals: fractions and per-phase times.
    Fixed4,
}

impl Format {
    fn print(self, v: f64) -> String {
        match self {
            Format::Int => format!("{}", v as u64),
            Format::Fixed3 => format!("{v:.3}"),
            Format::Fixed4 => format!("{v:.4}"),
        }
    }
}

/// When a row's key appears in a point's JSON object. Groups are written
/// in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// In every point.
    Always,
    /// The ISA-v2 trailer: written only when one of its counters is
    /// nonzero, so documents of rungs that never speculated, batched or
    /// coalesced keep the pre-ISA-v2 schema (CI byte-compares the default
    /// document against its golden). Absent means all zero.
    IsaV2,
    /// The nested `"phase"` object: written only for traced rungs, so
    /// untraced documents keep the pre-trace schema. Complete when present.
    Phase,
}

impl Group {
    const ALL: [Group; 3] = [Group::Always, Group::IsaV2, Group::Phase];

    /// The nested object the group's keys live in, if any.
    fn object(self) -> Option<&'static str> {
        match self {
            Group::Phase => Some("phase"),
            Group::Always | Group::IsaV2 => None,
        }
    }

    /// Whether a point with these row values writes the group.
    fn written(self, values: &[Option<f64>]) -> bool {
        match self {
            Group::Always => true,
            Group::IsaV2 => values.iter().any(|v| v.is_some_and(|v| v != 0.0)),
            Group::Phase => values.iter().all(Option::is_some),
        }
    }
}

/// One row of the sweep schema. A `per_phase` row stands for one key per
/// [`Phase`], `{phase}_{key}`, written from that phase's index. Integer
/// rows hold counts, exact as `f64` below 2^53.
struct Field {
    key: &'static str,
    format: Format,
    group: Group,
    per_phase: bool,
    /// The row's value in a point; `None` when the point lacks the
    /// optional object the row lives in.
    get: fn(&SweepPoint, usize) -> Option<f64>,
}

/// A row for the [`SweepPoint`] field of the same name.
macro_rules! point_field {
    ($field:ident, $format:ident, $group:ident) => {
        Field {
            key: stringify!($field),
            format: Format::$format,
            group: Group::$group,
            per_phase: false,
            get: |p, _| Some(p.$field as f64),
        }
    };
}

/// A row of the [`PhasePoint`] under [`SweepPoint::phase`]; `$at` indexes
/// the row's value at phase index `i`.
macro_rules! phase_field {
    ($key:literal, $format:ident, $per_phase:literal, |$ph:ident, $i:ident| $at:expr) => {
        Field {
            key: $key,
            format: Format::$format,
            group: Group::Phase,
            per_phase: $per_phase,
            get: |p, $i| p.phase.as_ref().map(|$ph| $at as f64),
        }
    };
}

/// The sweep document's per-point schema, in emission order: each row
/// gives a key, its number format and its [`Group`].
/// [`SweepReport::to_json`] only loops over this table, so a new
/// [`SweepPoint`] field reaches the document through one row here.
/// Per-phase rows come last and are written phase-major.
const SWEEP_FIELDS: &[Field] = &[
    point_field!(offered_kops, Fixed3, Always),
    point_field!(arrived_kops, Fixed3, Always),
    point_field!(completed, Int, Always),
    point_field!(faulted, Int, Always),
    point_field!(p50_us, Fixed3, Always),
    point_field!(p95_us, Fixed3, Always),
    point_field!(p99_us, Fixed3, Always),
    point_field!(goodput_kops, Fixed3, Always),
    point_field!(update_goodput_kops, Fixed3, Always),
    point_field!(retries, Int, Always),
    point_field!(cache_hit_rate, Fixed4, Always),
    point_field!(link_utilization, Fixed4, Always),
    point_field!(queue_depth, Int, Always),
    point_field!(failovers, Int, Always),
    point_field!(unavailable_completions, Int, Always),
    point_field!(rereplication_bytes, Int, Always),
    point_field!(degraded_p99_us, Fixed3, Always),
    point_field!(mis_speculations, Int, IsaV2),
    point_field!(batched_hops, Int, IsaV2),
    point_field!(coalesced_prefix_hops, Int, IsaV2),
    phase_field!("count", Int, false, |ph, _i| ph.count),
    phase_field!("mean_us", Fixed4, true, |ph, i| ph.mean_us[i]),
    phase_field!("p99_us", Fixed4, true, |ph, i| ph.p99_us[i]),
];

/// Every key of `group` in emission order, with its row and phase index.
fn group_keys(group: Group) -> Vec<(String, &'static Field, usize)> {
    let rows = || SWEEP_FIELDS.iter().filter(move |f| f.group == group);
    let scalar = rows()
        .filter(|f| !f.per_phase)
        .map(|f| (f.key.to_string(), f, 0));
    let per_phase = Phase::ALL
        .into_iter()
        .enumerate()
        .flat_map(move |(i, phase)| {
            rows()
                .filter(|f| f.per_phase)
                .map(move |f| (format!("{}_{}", phase.key(), f.key), f, i))
        });
    scalar.chain(per_phase).collect()
}

/// One point as a JSON object, written from [`SWEEP_FIELDS`].
fn point_json(p: &SweepPoint) -> String {
    let mut parts = Vec::new();
    for group in Group::ALL {
        let keys = group_keys(group);
        let values: Vec<Option<f64>> = keys.iter().map(|(_, f, i)| (f.get)(p, *i)).collect();
        if !group.written(&values) {
            continue;
        }
        let fields: Vec<String> = keys
            .iter()
            .zip(values)
            .map(|((key, f, _), v)| format!("\"{key}\":{}", f.format.print(v.unwrap_or(0.0))))
            .collect();
        parts.push(match group.object() {
            Some(name) => format!("\"{name}\":{{{}}}", fields.join(",")),
            None => fields.join(","),
        });
    }
    format!("{{{}}}", parts.join(","))
}

/// Minimal JSON string escaping for labels (backslash, quote, control
/// characters) — the rest of the document is numeric.
fn json_escape(s: &str) -> String {
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

/// Bundles several engines' curves into one `BENCH_sweep.json`-style
/// document.
pub fn sweep_json(reports: &[SweepReport]) -> String {
    let curves: Vec<String> = reports.iter().map(SweepReport::to_json).collect();
    format!("{{\"sweep\":[{}]}}", curves.join(","))
}

/// Runs a load ladder over one system: for every offered load in
/// `loads_kops`, `make` builds a *fresh* runtime plus its request stream
/// (a runtime's counters are cumulative, so each measures one run), and
/// [`OpenLoopDriver::run`] drives the stream under Poisson arrivals seeded
/// with `seed`. The same seed is reused across rungs, so
/// each rung sees the same arrival pattern compressed to its rate — which
/// keeps the curve monotone in load rather than jittered by resampling —
/// and across engine families, which makes curves directly comparable.
///
/// The curve's `label` comes from the caller, not from the runtimes: their
/// labels name the *system* ("pulse", "RPC"), while a sweep document can
/// carry several curves of the same system over different applications.
/// Caller-supplied labels also mean an empty ladder yields a correctly
/// labeled zero-point curve instead of the empty-string report this
/// function once produced.
///
/// # Errors
///
/// [`pulse::Error::Config`] when `label` is empty; request-validation
/// failures propagated from the runtime.
pub fn sweep(
    label: &str,
    loads_kops: &[f64],
    seed: u64,
    mut make: impl FnMut() -> (Runtime, Vec<AppRequest>),
) -> Result<SweepReport, pulse::Error> {
    if label.is_empty() {
        return Err(pulse::Error::Config(
            "a sweep curve needs a non-empty label".into(),
        ));
    }
    let mut points = Vec::new();
    for &kops in loads_kops {
        let (mut runtime, requests) = make();
        let arrivals = pulse::ArrivalProcess::poisson(kops * 1e3, seed);
        let rep = OpenLoopDriver::new(arrivals).run(&mut runtime, requests)?;
        points.push(SweepPoint::from_open_loop(&rep));
    }
    Ok(SweepReport {
        label: label.to_string(),
        points,
    })
}

// ----------------------------------------------------- parallel sweep layer

/// The runtime-factory shape the parallel harness requires: callable from
/// any worker thread, each call building a fresh deterministic closed
/// world (runtime + request stream) for one rung.
pub type CurveFactory = Box<dyn Fn() -> (Runtime, Vec<AppRequest>) + Send + Sync>;

/// One curve of a parallel sweep: everything [`sweep`] takes, packaged so
/// a worker pool can claim (curve, rung) pairs independently. Each rung is
/// a deterministic closed world — its own runtime, its own SplitMix64
/// streams — so rungs race on wall-clock only, never on state.
pub struct CurveSpec {
    /// Curve label in the emitted JSON (same contract as [`sweep`]'s).
    pub label: String,
    /// Offered-load ladder, kilo-requests per second per rung.
    pub loads_kops: Vec<f64>,
    /// Arrival seed, reused across rungs exactly as [`sweep`] does.
    pub seed: u64,
    /// Builds the rung's runtime and request stream.
    pub make: CurveFactory,
}

impl CurveSpec {
    /// Packages a curve for [`sweep_par_with`].
    pub fn new(
        label: &str,
        loads_kops: &[f64],
        seed: u64,
        make: impl Fn() -> (Runtime, Vec<AppRequest>) + Send + Sync + 'static,
    ) -> CurveSpec {
        CurveSpec {
            label: label.to_string(),
            loads_kops: loads_kops.to_vec(),
            seed,
            make: Box::new(make),
        }
    }
}

impl std::fmt::Debug for CurveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurveSpec")
            .field("label", &self.label)
            .field("loads_kops", &self.loads_kops)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Wall-clock and simulated-throughput measurements for one curve of a
/// parallel sweep — the per-curve rows of `BENCH_simspeed.json`.
#[derive(Debug, Clone)]
pub struct CurveTiming {
    /// The curve's label (matches its [`SweepReport`]).
    pub label: String,
    /// Wall-clock per rung (build plus simulate), milliseconds, in ladder
    /// order.
    pub rung_wall_ms: Vec<f64>,
    /// Wall-clock spent building this curve's engines and request streams
    /// (the [`CurveSpec::make`] calls, summed over rungs), milliseconds.
    pub build_ms: f64,
    /// Wall-clock spent running the built engines open loop (summed over
    /// rungs), milliseconds.
    pub simulate_ms: f64,
    /// Total wall-clock for this curve, `build_ms + simulate_ms` (sum over
    /// rungs — CPU-time-shaped, independent of how rungs interleaved
    /// across workers), milliseconds.
    pub wall_ms: f64,
    /// Requests the simulator retired across the curve's rungs
    /// (completed + faulted): the work metric behind simulated-ops/sec.
    pub sim_ops: u64,
}

impl CurveTiming {
    /// Simulated requests retired per wall-clock second on this curve.
    pub fn sim_ops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sim_ops as f64 / (self.wall_ms / 1e3)
    }
}

/// Everything a parallel sweep produces: the stitched curves (byte-identical
/// to running [`sweep`] serially, in spec order) plus the perf trajectory.
#[derive(Debug)]
pub struct ParSweepReport {
    /// One report per [`CurveSpec`], in spec order, each ladder in order —
    /// [`sweep_json`] over these matches the serial run byte for byte.
    pub curves: Vec<SweepReport>,
    /// Per-curve wall-clock/throughput measurements, in spec order.
    pub timings: Vec<CurveTiming>,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// End-to-end wall-clock of the whole sweep, milliseconds.
    pub total_wall_ms: f64,
}

/// Runs a set of curves on a bounded `std::thread::scope` worker pool and
/// stitches the results back in spec/ladder order.
///
/// Work items are (curve, rung) pairs: each worker claims the next item
/// off a shared counter, builds that rung's engine *inside the worker*
/// (engines are neither `Send` nor shared — each is created, driven and
/// dropped on one thread), runs it, and deposits the [`SweepPoint`] into
/// the rung's slot. Rungs already run under fixed seeds against private
/// state, so the schedule cannot affect results — only wall-clock — and
/// the stitched [`ParSweepReport::curves`] is byte-identical (via
/// [`sweep_json`]) to a serial [`sweep`] loop for any worker count, which
/// `tests/parallel_sweep.rs` and CI assert.
///
/// `on_curve` fires from a worker as each *curve* retires its last rung
/// (curves can finish out of spec order), so long ladders can stream
/// progress to CI logs while the pool keeps running.
///
/// # Errors
///
/// [`pulse::Error::Config`] for an empty label (checked up front, before
/// any thread spawns); the first engine error in spec/ladder order
/// otherwise.
///
/// # Panics
///
/// Panics if `workers == 0`, and propagates worker-thread panics.
pub fn sweep_par_with(
    specs: &[CurveSpec],
    workers: usize,
    on_curve: impl Fn(&CurveTiming) + Send + Sync,
) -> Result<ParSweepReport, pulse::Error> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    assert!(workers > 0, "a worker pool needs at least one thread");
    for spec in specs {
        if spec.label.is_empty() {
            return Err(pulse::Error::Config(
                "a sweep curve needs a non-empty label".into(),
            ));
        }
    }
    let t0 = Instant::now();
    // Flattened (curve, rung) work items, claimed off one shared counter.
    let items: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(c, s)| (0..s.loads_kops.len()).map(move |r| (c, r)))
        .collect();
    // A finished rung: its point, build ms and simulate ms.
    type Slot = Mutex<Option<Result<(SweepPoint, f64, f64), pulse::Error>>>;
    let slots: Vec<Vec<Slot>> = specs
        .iter()
        .map(|s| (0..s.loads_kops.len()).map(|_| Mutex::new(None)).collect())
        .collect();
    // Rungs still outstanding per curve: the worker that retires a curve's
    // last rung reports it through `on_curve`.
    let remaining: Vec<AtomicUsize> = specs
        .iter()
        .map(|s| AtomicUsize::new(s.loads_kops.len().max(1)))
        .collect();
    let next = AtomicUsize::new(0);

    let curve_timing = |c: usize| -> CurveTiming {
        let mut t = CurveTiming {
            label: specs[c].label.clone(),
            rung_wall_ms: Vec::with_capacity(slots[c].len()),
            build_ms: 0.0,
            simulate_ms: 0.0,
            wall_ms: 0.0,
            sim_ops: 0,
        };
        for slot in &slots[c] {
            let (build, simulate) = match slot.lock().expect("slot").as_ref() {
                Some(Ok((p, build, simulate))) => {
                    t.sim_ops += p.completed + p.faulted;
                    (*build, *simulate)
                }
                _ => (0.0, 0.0),
            };
            t.rung_wall_ms.push(build + simulate);
            t.build_ms += build;
            t.simulate_ms += simulate;
        }
        t.wall_ms = t.build_ms + t.simulate_ms;
        t
    };

    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(c, r)) = items.get(i) else { break };
                let spec = &specs[c];
                let build_t0 = Instant::now();
                let (mut runtime, requests) = (spec.make)();
                let simulate_t0 = Instant::now();
                let arrivals = pulse::ArrivalProcess::poisson(spec.loads_kops[r] * 1e3, spec.seed);
                let result = OpenLoopDriver::new(arrivals)
                    .run(&mut runtime, requests)
                    .map(|rep| SweepPoint::from_open_loop(&rep));
                drop(runtime);
                let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
                let (build_ms, simulate_ms) =
                    (ms(build_t0, simulate_t0), ms(simulate_t0, Instant::now()));
                *slots[c][r].lock().expect("slot") =
                    Some(result.map(|p| (p, build_ms, simulate_ms)));
                if remaining[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                    on_curve(&curve_timing(c));
                }
            });
        }
    });

    // Zero-rung curves never enter the pool; report them here so progress
    // covers every spec exactly once.
    for (c, spec) in specs.iter().enumerate() {
        if spec.loads_kops.is_empty() {
            on_curve(&curve_timing(c));
        }
    }

    // Stitch in spec/ladder order; surface the first error in that order
    // (matching what a serial loop would have hit first).
    let mut curves = Vec::with_capacity(specs.len());
    let mut timings = Vec::with_capacity(specs.len());
    for (c, spec) in specs.iter().enumerate() {
        // Timing first: draining the slots below empties what it reads.
        timings.push(curve_timing(c));
        let mut points = Vec::with_capacity(spec.loads_kops.len());
        for slot in &slots[c] {
            let entry = slot.lock().expect("slot").take().expect("all rungs ran");
            points.push(entry?.0);
        }
        curves.push(SweepReport {
            label: spec.label.clone(),
            points,
        });
    }
    Ok(ParSweepReport {
        curves,
        timings,
        workers,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Serializes a parallel sweep's perf measurements as the
/// `BENCH_simspeed.json` document: simulator throughput (simulated-ops/sec
/// per curve), each curve's wall-clock split into build and simulate
/// phases, wall-clock per rung, and the sweep's total wall-clock, so
/// raw simulator speed is a tracked trajectory alongside `BENCH_sweep.json`.
/// Wall-clock numbers are machine-dependent by nature; the *schema* is
/// what CI pins.
pub fn simspeed_json(report: &ParSweepReport) -> String {
    let curves: Vec<String> = report
        .timings
        .iter()
        .zip(&report.curves)
        .map(|(t, c)| {
            let rungs: Vec<String> = t
                .rung_wall_ms
                .iter()
                .zip(&c.points)
                .map(|(ms, p)| {
                    format!(
                        "{{\"offered_kops\":{:.3},\"wall_ms\":{:.3}}}",
                        p.offered_kops, ms
                    )
                })
                .collect();
            format!(
                "{{\"label\":\"{}\",\"sim_ops\":{},\"sim_ops_per_sec\":{:.1},\
                 \"wall_ms\":{:.3},\"build_ms\":{:.3},\"simulate_ms\":{:.3},\"rungs\":[{}]}}",
                json_escape(&t.label),
                t.sim_ops,
                t.sim_ops_per_sec(),
                t.wall_ms,
                t.build_ms,
                t.simulate_ms,
                rungs.join(",")
            )
        })
        .collect();
    format!(
        "{{\"workers\":{},\"total_wall_ms\":{:.3},\"curves\":[{}]}}",
        report.workers,
        report.total_wall_ms,
        curves.join(",")
    )
}

// ------------------------------------------------------ sweep deployments

/// Insert-arena slab per memory node for YCSB-E structural inserts.
const YCSB_ARENA_PER_NODE: u64 = 4 << 20;

/// The request stream a sweep [`Deployment`] builds and mints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// A read-only stream minted by the application's `next_request`:
    /// WebService and the WiredTiger tree draw keys from the
    /// [`Distribution`]; BTrDB's time windows ignore it.
    App(AppKind, Distribution),
    /// A YCSB mix minted by a [`pulse::YcsbDriver`], so reads,
    /// seqlock-verified updates, scans and structural inserts all reach the
    /// engine as real submissions: A/B/C over the bucket-partitioned
    /// WebService hash map, E over the WiredTiger B+Tree with an insert
    /// arena.
    Ycsb(YcsbWorkload),
}

/// What a built [`Stream`] mints requests from.
enum Source {
    App(Box<dyn Application>),
    Ycsb(Box<pulse::YcsbDriver>),
}

impl Stream {
    /// Builds the stream's structures through `ctx` over `nodes` memory
    /// nodes (the partitioned trees place one subtree per node).
    fn build(self, nodes: usize, ctx: &mut BuildCtx<'_>) -> Result<Source, pulse_ds::DsError> {
        let placement = TreePlacement::Partitioned { nodes };
        let tree = WiredTigerConfig {
            keys: SWEEP_WIREDTIGER_KEYS,
            placement,
            ..Default::default()
        };
        let mutation = pulse::MutationConfig::default();
        Ok(match self {
            Stream::App(AppKind::WebService(workload), dist) => Source::App(Box::new(
                WebService::build(ctx, sweep_webservice_cfg(workload, dist))?,
            )),
            Stream::App(AppKind::WiredTiger { keys }, dist) => {
                let cfg = WiredTigerConfig {
                    keys,
                    distribution: dist,
                    ..tree
                };
                Source::App(Box::new(WiredTiger::build(ctx, cfg)?))
            }
            Stream::App(AppKind::Btrdb(window), _) => {
                let cfg = BtrdbConfig {
                    duration_secs: 900,
                    window_secs: window,
                    placement,
                    ..Default::default()
                };
                Source::App(Box::new(Btrdb::build(ctx, cfg)?))
            }
            Stream::Ycsb(YcsbWorkload::E) => {
                let app = WiredTiger::build(ctx, tree)?;
                let arena = pulse_mutation::InsertArena::build(ctx, YCSB_ARENA_PER_NODE)?;
                Source::Ycsb(Box::new(
                    pulse::YcsbDriver::wiredtiger(app, tree, arena, mutation)
                        .expect("valid YCSB-E config"),
                ))
            }
            Stream::Ycsb(workload) => {
                let cfg = sweep_webservice_cfg(workload, Distribution::Zipfian);
                let app = WebService::build(ctx, cfg)?;
                Source::Ycsb(Box::new(
                    pulse::YcsbDriver::webservice(app, cfg, mutation)
                        .expect("bucket-partitioned deployment"),
                ))
            }
        })
    }
}

impl Source {
    /// Mints `requests` requests against `mem`, the memory they will
    /// execute on (YCSB-E inserts mutate it at mint time).
    ///
    /// # Panics
    ///
    /// If a YCSB insert degraded to the non-mutating fallback: an exhausted
    /// arena would keep the curve's update goodput nonzero while the write
    /// path silently stopped mutating the tree.
    fn mint(self, mem: &mut ClusterMemory, requests: usize) -> Vec<AppRequest> {
        match self {
            Source::App(mut app) => (0..requests).map(|_| app.next_request()).collect(),
            Source::Ycsb(mut driver) => {
                let reqs = (0..requests).map(|_| driver.next_request(mem)).collect();
                assert_eq!(
                    driver.degraded_inserts(),
                    0,
                    "insert arena exhausted mid-stream: raise YCSB_ARENA_PER_NODE \
                     rather than sweeping a curve whose inserts stopped mutating"
                );
                reqs
            }
        }
    }
}

/// One deployment: the rack, its size, and the stream it serves. Every
/// curve of `examples/latency_sweep.rs` and every end-to-end paper figure —
/// pulse and baseline alike — is built from one of these, so two runs that
/// differ in one axis differ in exactly one builder setter (the system
/// being [`pulse::PulseBuilder::mode`]), and a comparison's sides run the
/// identical deployment by construction.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Everything the rack varies: the system (its mode), extent
    /// granularity, cpus, dispatch, cache, topology, replication, faults,
    /// the ISA-v2 switches, tracing and the in-flight window (a baseline's
    /// client count). The node count is set from [`Deployment::nodes`].
    pub rack: pulse::PulseBuilder,
    /// Memory nodes in the rack.
    pub nodes: usize,
    /// The deployed application and the request stream it mints.
    pub stream: Stream,
    /// Requests minted per rung.
    pub requests: usize,
}

impl Deployment {
    fn builder(&self) -> pulse::PulseBuilder {
        self.rack.clone().nodes(self.nodes)
    }

    /// Builds a fresh runtime over the deployment and mints its stream.
    ///
    /// # Panics
    ///
    /// If the rack fails to wire, or a YCSB-E insert arena runs dry.
    pub fn runtime(&self) -> (Runtime, Vec<AppRequest>) {
        let (mut runtime, source) = self
            .builder()
            .build_with(|ctx| self.stream.build(self.nodes, ctx))
            .expect("wire the rack");
        let reqs = source.mint(runtime.memory_mut(), self.requests);
        (runtime, reqs)
    }

    /// The deployment as a [`sweep`] / [`CurveSpec`] factory: every call
    /// rebuilds the identical deployment and stream.
    pub fn factory(self) -> CurveFactory {
        Box::new(move || self.runtime())
    }

    /// Runs the whole stream closed-loop on a fresh runtime with the
    /// rack's window in flight, and returns the runtime's label and what
    /// the run measured ([`Runtime::execute`]), bit-identical to
    /// `PulseCluster::run` at that concurrency.
    ///
    /// # Panics
    ///
    /// As [`Deployment::runtime`].
    pub fn execute(&self) -> (&'static str, RunMetrics) {
        let (mut runtime, reqs) = self.runtime();
        let metrics = runtime
            .execute(&reqs)
            .expect("a minted stream is well-formed");
        (runtime.label(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered: f64, goodput: f64, p99_us: f64) -> SweepPoint {
        SweepPoint {
            offered_kops: offered,
            arrived_kops: offered,
            completed: 100,
            faulted: 0,
            p50_us: p99_us / 2.0,
            p95_us: p99_us * 0.9,
            p99_us,
            goodput_kops: goodput,
            update_goodput_kops: 0.0,
            retries: 0,
            cache_hit_rate: 0.0,
            link_utilization: 0.0,
            link_demand: 0.0,
            queue_depth: 0,
            failovers: 0,
            unavailable_completions: 0,
            rereplication_bytes: 0,
            degraded_p99_us: 0.0,
            phase: None,
            mis_speculations: 0,
            batched_hops: 0,
            coalesced_prefix_hops: 0,
        }
    }

    /// Regression for the lying SLO headline: a post-saturation rung whose
    /// goodput collapsed — but whose few completed requests met the p99
    /// SLO — must not count as "sustained" at its full offered load.
    #[test]
    fn max_load_ignores_collapsed_rungs() {
        let report = SweepReport {
            label: "synthetic".into(),
            points: vec![
                point(100.0, 99.0, 80.0),   // healthy: goodput ~= offered
                point(400.0, 390.0, 140.0), // healthy, higher load
                point(800.0, 120.0, 60.0),  // collapsed: 85% of load shed,
                                            // survivors fast => p99 "fine"
            ],
        };
        let sustained = report.max_load_under_p99(150.0).expect("healthy rungs");
        assert!(
            (sustained - 390.0).abs() < 1e-9,
            "must report the achieved goodput of the best honest rung, got {sustained}"
        );
        // Tighter SLO drops the 400-kops rung; the collapsed one still
        // must not resurface even though its p99 is lowest of all.
        let tight = report.max_load_under_p99(100.0).expect("first rung");
        assert!((tight - 99.0).abs() < 1e-9, "got {tight}");
        // No rung qualifies below every p99.
        assert_eq!(report.max_load_under_p99(10.0), None);
    }

    #[test]
    fn sweep_keeps_label_on_empty_ladder() {
        let curve = sweep("pulse", &[], 42, || unreachable!("no rungs")).unwrap();
        assert_eq!(curve.label, "pulse");
        assert!(curve.points.is_empty());
        assert_eq!(curve.max_load_under_p99(100.0), None);
        // A zero-point curve still serializes as valid JSON.
        assert_eq!(curve.to_json(), "{\"label\":\"pulse\",\"points\":[]}");
        let doc = sweep_json(&[curve]);
        assert_eq!(doc, "{\"sweep\":[{\"label\":\"pulse\",\"points\":[]}]}");
        assert_eq!(sweep_json(&[]), "{\"sweep\":[]}");
    }

    #[test]
    fn sweep_rejects_empty_label() {
        let err = sweep("", &[], 42, || unreachable!("rejected first")).unwrap_err();
        assert!(matches!(err, pulse::Error::Config(_)), "{err:?}");
    }

    /// A healthy short rung — zero loss, p99 well under the SLO — must
    /// qualify even though its goodput trails the arrival rate by the
    /// finite-run drain tail (the over-strict rejection the first version
    /// of the fix introduced).
    #[test]
    fn max_load_keeps_healthy_short_rungs() {
        // 300 requests at 732 kops realized: arrival span 408 us, p99
        // 42 us => goodput over the full span is ~93.5% of the arrival
        // rate despite nothing being shed.
        let mut p = point(800.0, 684.5, 42.2);
        p.arrived_kops = 732.3;
        p.completed = 300;
        let report = SweepReport {
            label: "synthetic".into(),
            points: vec![p],
        };
        let sustained = report.max_load_under_p99(150.0);
        assert_eq!(sustained, Some(684.5), "healthy rung must qualify");
    }

    /// The writer's exact text for a traced point that writes every group
    /// and a plain point that writes only the always-present keys: every
    /// key, its order and number format, the omitted groups and the label
    /// escaping are pinned here, so a `SweepPoint` field forgotten in
    /// `SWEEP_FIELDS` (or a format drift) fails before the CI goldens do.
    #[test]
    fn sweep_json_writes_every_field() {
        let curve = SweepReport {
            label: "pulse+cache \"8-node\" \\ tab\t".into(),
            points: vec![
                SweepPoint {
                    offered_kops: 400.125,
                    arrived_kops: 398.5,
                    completed: 2_000,
                    faulted: 3,
                    p50_us: 12.5,
                    p95_us: 80.25,
                    p99_us: 141.875,
                    goodput_kops: 390.75,
                    update_goodput_kops: 97.5,
                    retries: 17,
                    cache_hit_rate: 0.7344,
                    link_utilization: 0.4125,
                    // Carried on the point but never written: the
                    // expected document below has no `link_demand` key.
                    link_demand: 1.75,
                    queue_depth: 9,
                    failovers: 11,
                    unavailable_completions: 2,
                    rereplication_bytes: 1 << 21,
                    degraded_p99_us: 310.125,
                    phase: Some(PhasePoint {
                        count: 2_000,
                        mean_us: std::array::from_fn(|i| i as f64 * 1.5),
                        p99_us: std::array::from_fn(|i| i as f64 * 2.25),
                    }),
                    mis_speculations: 23,
                    batched_hops: 4_096,
                    coalesced_prefix_hops: 57,
                },
                point(100.0, 99.0, 80.0),
            ],
        };
        let empty = SweepReport {
            label: "empty".into(),
            points: Vec::new(),
        };
        let doc = sweep_json(&[curve, empty]);
        let traced = concat!(
            "{\"offered_kops\":400.125,\"arrived_kops\":398.500,\"completed\":2000,",
            "\"faulted\":3,\"p50_us\":12.500,\"p95_us\":80.250,\"p99_us\":141.875,",
            "\"goodput_kops\":390.750,\"update_goodput_kops\":97.500,\"retries\":17,",
            "\"cache_hit_rate\":0.7344,\"link_utilization\":0.4125,\"queue_depth\":9,",
            "\"failovers\":11,\"unavailable_completions\":2,",
            "\"rereplication_bytes\":2097152,\"degraded_p99_us\":310.125,",
            "\"mis_speculations\":23,\"batched_hops\":4096,\"coalesced_prefix_hops\":57,",
            "\"phase\":{\"count\":2000,",
            "\"queued_mean_us\":0.0000,\"queued_p99_us\":0.0000,",
            "\"dispatch_mean_us\":1.5000,\"dispatch_p99_us\":2.2500,",
            "\"wire_mean_us\":3.0000,\"wire_p99_us\":4.5000,",
            "\"accel_mean_us\":4.5000,\"accel_p99_us\":6.7500,",
            "\"mem_mean_us\":6.0000,\"mem_p99_us\":9.0000,",
            "\"cache_hit_mean_us\":7.5000,\"cache_hit_p99_us\":11.2500,",
            "\"retry_mean_us\":9.0000,\"retry_p99_us\":13.5000,",
            "\"failover_mean_us\":10.5000,\"failover_p99_us\":15.7500,",
            "\"rereplication_mean_us\":12.0000,\"rereplication_p99_us\":18.0000,",
            "\"spec_squash_mean_us\":13.5000,\"spec_squash_p99_us\":20.2500}}",
        );
        let plain = concat!(
            "{\"offered_kops\":100.000,\"arrived_kops\":100.000,\"completed\":100,",
            "\"faulted\":0,\"p50_us\":40.000,\"p95_us\":72.000,\"p99_us\":80.000,",
            "\"goodput_kops\":99.000,\"update_goodput_kops\":0.000,\"retries\":0,",
            "\"cache_hit_rate\":0.0000,\"link_utilization\":0.0000,\"queue_depth\":0,",
            "\"failovers\":0,\"unavailable_completions\":0,",
            "\"rereplication_bytes\":0,\"degraded_p99_us\":0.000}",
        );
        assert_eq!(
            doc,
            format!(
                "{{\"sweep\":[{{\"label\":\"pulse+cache \\\"8-node\\\" \\\\ tab\\u0009\",\
                 \"points\":[{traced},{plain}]}},{{\"label\":\"empty\",\"points\":[]}}]}}"
            )
        );
        // The traced point writes every key of the table, each once.
        let keys: Vec<String> = Group::ALL
            .into_iter()
            .flat_map(group_keys)
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys.len(), 17 + 3 + 1 + 2 * PHASES);
        for key in &keys {
            assert_eq!(traced.matches(&format!("\"{key}\":")).count(), 1, "{key}");
        }
    }

    /// One rung of every stream and system through [`Deployment`]
    /// (tiny sizes; this is a wiring test, the real ladders run in
    /// `examples/latency_sweep.rs`). Every case completes its whole stream
    /// with nonzero goodput; the per-case checks tell the mixed-workload,
    /// cache and SLO-under-failure stories at rung scale.
    #[test]
    fn deployments_execute_a_rung() {
        use pulse::{CacheConfig, PulseBuilder};
        use pulse_mem::{FaultEvent, FaultKind};

        struct Case {
            name: &'static str,
            at: Deployment,
            load_kops: f64,
            check: fn(&str, &SweepPoint),
        }
        let at = |rack, nodes, stream, requests| Deployment {
            rack,
            nodes,
            stream,
            requests,
        };
        let rack = || PulseBuilder::new().granularity(DEFAULT_GRANULARITY).cpus(2);
        let rpc = || {
            PulseBuilder::new()
                .granularity(DEFAULT_GRANULARITY)
                .window(8)
                .mode(PulseMode::Rpc(RpcFlavor::Rpc))
        };
        let ws = Stream::App(AppKind::WebService(YcsbWorkload::C), Distribution::Zipfian);
        let cache = CacheConfig::sized(4 << 20);
        let crash = || {
            vec![FaultEvent::new(
                pulse_sim::SimTime::from_micros(30),
                FaultKind::MemCrash(0),
            )]
        };
        let no_check: fn(&str, &SweepPoint) = |_, _| {};
        let incast = pulse::TopologySpec::LeafSpine {
            leaves: 2,
            spines: 2,
        };
        let overloaded_downlink: fn(&str, &SweepPoint) = |name, p| {
            assert_eq!(p.link_utilization, 1.0, "{name}: {p:?}");
            assert!(p.link_demand > 1.0, "{name}: {p:?}");
        };
        let cases = [
            Case {
                name: "pulse-webservice",
                at: at(rack(), 2, ws, 10),
                load_kops: 50.0,
                check: no_check,
            },
            Case {
                name: "pulse-wiredtiger",
                at: at(
                    rack(),
                    2,
                    Stream::App(
                        AppKind::WiredTiger {
                            keys: SWEEP_WIREDTIGER_KEYS,
                        },
                        Distribution::Zipfian,
                    ),
                    10,
                ),
                load_kops: 50.0,
                check: no_check,
            },
            Case {
                name: "pulse-btrdb",
                at: at(
                    rack(),
                    2,
                    Stream::App(AppKind::Btrdb(4), Distribution::Zipfian),
                    10,
                ),
                load_kops: 50.0,
                check: no_check,
            },
            Case {
                name: "pulse-ycsb-a",
                at: at(rack(), 2, Stream::Ycsb(YcsbWorkload::A), 60),
                load_kops: 100.0,
                check: |name, p| assert!(p.update_goodput_kops > 0.0, "{name}: A is half updates"),
            },
            Case {
                name: "pulse-ycsb-b",
                at: at(rack(), 2, Stream::Ycsb(YcsbWorkload::B), 60),
                load_kops: 100.0,
                check: no_check,
            },
            Case {
                name: "pulse-ycsb-e",
                at: at(rack(), 2, Stream::Ycsb(YcsbWorkload::E), 60),
                load_kops: 100.0,
                check: no_check,
            },
            Case {
                name: "rpc-ycsb-a",
                at: at(rpc(), 2, Stream::Ycsb(YcsbWorkload::A), 60),
                load_kops: 100.0,
                check: |name, p| {
                    assert_eq!(p.completed, 60, "{name}");
                    assert!(p.update_goodput_kops > 0.0, "{name}");
                    assert_eq!(
                        p.retries, 0,
                        "{name}: an RPC worker runs an update atomically"
                    );
                },
            },
            Case {
                name: "pulse+cache",
                at: at(rack().cache(cache), 2, ws, 120),
                load_kops: 100.0,
                check: |name, p| {
                    assert_eq!(p.completed, 120, "{name}");
                    assert!(
                        p.cache_hit_rate > 0.0,
                        "{name}: skewed reads must hit: {p:?}"
                    );
                },
            },
            Case {
                name: "pulse-cache-disabled",
                at: at(rack().cache(CacheConfig::disabled()), 2, ws, 120),
                load_kops: 100.0,
                check: |name, p| assert_eq!(p.cache_hit_rate, 0.0, "{name}: exactly zero"),
            },
            Case {
                name: "rpc+cache",
                at: at(rpc().cache(cache), 2, ws, 120),
                load_kops: 100.0,
                check: |name, p| {
                    assert!(
                        p.cache_hit_rate > 0.0,
                        "{name}: the RPC front-end cache must hit on skewed reads: {p:?}"
                    )
                },
            },
            Case {
                name: "pulse-crash-replicated",
                at: at(rack().replication(2).faults(crash()), 4, ws, 120),
                load_kops: 300.0,
                check: |name, p| {
                    assert_eq!(p.unavailable_completions, 0, "{name}: {p:?}");
                    assert!(p.failovers > 0, "{name}: {p:?}");
                    assert!(p.rereplication_bytes > 0, "{name}: {p:?}");
                    assert!(p.degraded_p99_us > 0.0, "{name}: {p:?}");
                },
            },
            Case {
                name: "pulse-crash",
                at: at(rack().replication(1).faults(crash()), 4, ws, 120),
                load_kops: 300.0,
                check: |name, p| {
                    assert!(p.unavailable_completions > 0, "{name}: {p:?}");
                    assert_eq!(p.rereplication_bytes, 0, "{name}: {p:?}");
                },
            },
            Case {
                name: "rpc-crash",
                at: at(rpc().replication(2).faults(crash()), 4, ws, 120),
                load_kops: 300.0,
                check: |name, p| {
                    assert_eq!(p.unavailable_completions, 0, "{name}: {p:?}");
                    assert!(p.failovers > 0, "{name}: {p:?}");
                    assert!(
                        p.rereplication_bytes > 0,
                        "{name}: the rack rebuilds for RPC too: {p:?}"
                    );
                    assert!(p.degraded_p99_us > 0.0, "{name}: {p:?}");
                },
            },
            // The leaf-spine incast, offered past what the hot CPU
            // downlink can carry: utilization stops at 1.0, and demand
            // reads how far past capacity the offered load is.
            Case {
                name: "pulse-leafspine-incast",
                at: at(rack().cpus(1).topology(incast), 4, ws, 120),
                load_kops: 6400.0,
                check: overloaded_downlink,
            },
            Case {
                name: "rpc-leafspine-incast",
                at: at(rpc().topology(incast), 4, ws, 120),
                load_kops: 3200.0,
                check: overloaded_downlink,
            },
        ];
        for case in cases {
            let requests = case.at.requests as u64;
            let curve = sweep(case.name, &[case.load_kops], 7, case.at.factory()).unwrap();
            assert_eq!(curve.points.len(), 1, "{}", case.name);
            let p = &curve.points[0];
            assert_eq!(p.completed + p.faulted, requests, "{}", case.name);
            assert!(p.goodput_kops > 0.0, "{}: {p:?}", case.name);
            (case.check)(case.name, p);
        }
    }
}
