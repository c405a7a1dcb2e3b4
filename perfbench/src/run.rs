//! One benchmark run: the untraced end-to-end run (`--trace 0`) or the
//! traced per-layer run (`--trace 1`) of one workload and seed.

use crate::calibrate;
use crate::knee::{bisect, Knee, Probe};
use crate::layers;
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::workload::{Deployment, Engine as Primary, Oracle, Workload, SLO_P99_US};
use pulse::isa::{IterState, MemBus};
use pulse::mutation::sp;
use pulse::net::RequestId;
use pulse::sim::{quantile_rank, LatencyHistogram, SimTime};
use pulse::workloads::FunctionalRun;
use pulse::{Completion, Engine, OpenLoopReport, Phase, PulseCluster};
use std::collections::HashMap;
use std::time::Instant;

/// Relative width the knee bisection stops at.
const KNEE_TOLERANCE: f64 = 0.02;
/// Fewest timed passes an untraced run makes, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Offset of the seqlock version word in a bucket sentinel node.
const BUCKET_VERSION_OFFSET: u64 = 8;

/// What the simulated rack did with one request stream: the numbers every
/// loop that runs the same stream must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSummary {
    /// Requests completed.
    pub completed: u64,
    /// Requests fault-completed.
    pub faulted: u64,
    /// Bucketed median latency (the reports' histogram).
    pub p50: SimTime,
    /// Bucketed 99th-percentile latency.
    pub p99: SimTime,
}

impl SimSummary {
    fn of_report(rep: &OpenLoopReport) -> SimSummary {
        SimSummary {
            completed: rep.completed,
            faulted: rep.faulted,
            p50: rep.latency.p50,
            p99: rep.latency.p99,
        }
    }
}

/// One pass of the benchmark's own `submit_at` + `step()` loop.
#[derive(Debug)]
pub struct Driven {
    /// The rack after the pass (drained).
    pub cluster: PulseCluster,
    /// Completions, in request (arrival) order.
    pub completions: Vec<Completion>,
    /// Events the loop stepped.
    pub events: u64,
    /// Host seconds of the submit + step loop.
    pub host_s: f64,
}

impl Driven {
    /// The pass's simulated outcome, computed from its completions.
    pub fn summary(&self) -> SimSummary {
        let mut hist = LatencyHistogram::new();
        for c in &self.completions {
            hist.record(c.latency());
        }
        let completed = self.completions.iter().filter(|c| c.ok).count() as u64;
        SimSummary {
            completed,
            faulted: self.completions.len() as u64 - completed,
            p50: hist.percentile(50.0),
            p99: hist.p99(),
        }
    }

    fn sorted_latencies_us(&self) -> Vec<f64> {
        let mut us: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.latency().as_micros_f64())
            .collect();
        us.sort_by(f64::total_cmp);
        us
    }

    /// Exact nearest-rank latency percentile over every completion (the
    /// workspace's `quantile_rank` rule), µs.
    pub fn exact_percentile_us(&self, p: f64) -> f64 {
        let us = self.sorted_latencies_us();
        us[(quantile_rank(us.len() as u64, p) - 1) as usize]
    }

    /// The Harrell–Davis estimate of the median latency, µs: every order
    /// statistic weighted by the Beta((n+1)/2, (n+1)/2) mass over its rank
    /// interval. Unlike the nearest-rank median it does not stick to one
    /// sample when many requests tie (unqueued requests for a hot key take
    /// the identical simulated time), so it moves with the whole centre of
    /// the distribution.
    pub fn harrell_davis_median_us(&self) -> f64 {
        harrell_davis(&self.sorted_latencies_us(), 0.5)
    }
}

/// Harrell–Davis estimate of quantile `q` over `sorted` (ascending): the
/// order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each
/// rank's interval. The Beta is taken in its normal approximation, whose
/// error is far below the picosecond grain of simulated time at the
/// thousands of samples a pass yields; weights are renormalized over the
/// ±8 σ window they are summed on.
fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "a quantile needs samples");
    let sd = (q * (1.0 - q) / (n as f64 + 2.0)).sqrt();
    let cdf = |rank: usize| normal_cdf((rank as f64 / n as f64 - q) / sd);
    let lo = ((q - 8.0 * sd) * n as f64).floor().max(0.0) as usize;
    let hi = (((q + 8.0 * sd) * n as f64).ceil() as usize).min(n);
    let (mut sum, mut weight) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate().take(hi).skip(lo) {
        let w = cdf(i + 1) - cdf(i);
        sum += w * x;
        weight += w;
    }
    sum / weight
}

/// Standard normal CDF via Abramowitz & Stegun 7.1.26 (|error| < 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Drives `dep` open-loop through `Runtime::submit_at` and the cluster's
/// `step()`/`take_completions()`: the same arrivals `execute_open_loop`
/// generates, one event per step, timed as `core.submit_at` and
/// `core.step` spans.
///
/// # Errors
///
/// Request-validation failures from `submit_at`.
pub fn drive(
    dep: Deployment,
    rate: f64,
    seed: u64,
    spans: &mut Spans,
) -> Result<Driven, pulse::Error> {
    let Deployment {
        mut runtime,
        requests,
        ..
    } = dep;
    let n = requests.len();
    let t0 = Instant::now();
    let span = spans.enter("core.submit_at");
    let mut arrivals = Workload::arrivals(rate, seed);
    let mut t = runtime.now();
    let mut index: HashMap<RequestId, usize> = HashMap::with_capacity(n);
    let mut submitted = Ok(());
    for (i, req) in requests.into_iter().enumerate() {
        t += arrivals.next_gap();
        match runtime.submit_at(t, req) {
            Ok(ticket) => {
                index.insert(ticket.request_id(), i);
            }
            Err(e) => {
                submitted = Err(e);
                break;
            }
        }
    }
    spans.exit(span);
    submitted?;
    let span = spans.enter("core.step");
    let mut cluster = runtime.into_cluster();
    let mut slots: Vec<Option<Completion>> = vec![None; n];
    let mut events = 0u64;
    let mut duplicate = None;
    while cluster.step() {
        events += 1;
        for c in cluster.take_completions() {
            let i = index[&c.id];
            if slots[i].is_some() {
                duplicate = Some(c.id);
            }
            slots[i] = Some(c);
        }
    }
    spans.exit(span);
    let host_s = t0.elapsed().as_secs_f64();
    if let Some(id) = duplicate {
        return Err(pulse::Error::Config(format!(
            "request {id:?} completed twice"
        )));
    }
    let completions = slots
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.ok_or_else(|| pulse::Error::Config(format!("request {i} never completed"))))
        .collect::<Result<_, _>>()?;
    Ok(Driven {
        cluster,
        completions,
        events,
        host_s,
    })
}

/// What the correctness gate checks a request's completion against.
#[derive(Debug)]
enum Expect {
    /// The functional final state on an identically built deployment.
    State(Option<IterState>),
    /// A seqlock-verified read of `key`: a completed read returns
    /// `value` at `sp::VAL`.
    Read { value: u64 },
    /// A locked update: counted once as completed or faulted.
    Update,
}

/// Per-request expectations, computed before the stream is consumed.
fn expectations(
    w: Workload,
    seed: u64,
    dep: &Deployment,
    spans: &mut Spans,
) -> Result<Vec<Expect>, pulse::Error> {
    match &dep.oracle {
        Oracle::Functional => {
            let mut oracle = w.deploy(seed, false, spans)?;
            let span = spans.enter("isa.execute_functional");
            let states = oracle
                .requests
                .iter()
                .map(|r| {
                    oracle
                        .runtime
                        .execute_functional(r)
                        .map(|run| Expect::State(run.response.final_state))
                })
                .collect();
            spans.exit(span);
            states
        }
        Oracle::Seqlock { object_addrs, .. } => Ok(dep
            .requests
            .iter()
            .map(|r| {
                if r.is_update() {
                    Expect::Update
                } else {
                    let key = r.traversals[0]
                        .scratch_init
                        .iter()
                        .find(|&&(off, _)| off == sp::KEY)
                        .map_or(u64::MAX, |&(_, k)| k);
                    Expect::Read {
                        value: object_addrs.get(key as usize).copied().unwrap_or(u64::MAX),
                    }
                }
            })
            .collect()),
    }
}

/// The correctness gate: every completion against its expectation, plus
/// (seqlock workloads) no bucket left locked after the drain. Faults and
/// mismatches both count as failed; mismatches also make the run
/// incorrect.
fn gate(driven: &mut Driven, expect: &[Expect], buckets: Option<&[u64]>, out: &mut Outcome) {
    let mut mismatches = 0u64;
    let mut faulted = 0u64;
    for (i, (c, e)) in driven.completions.iter().zip(expect).enumerate() {
        if !c.ok {
            faulted += 1;
            continue;
        }
        let good = match e {
            Expect::State(state) => c.final_state == *state,
            Expect::Read { value } => c
                .final_state
                .as_ref()
                .is_some_and(|s| s.scratch_u64(sp::VAL as usize) == *value),
            Expect::Update => true,
        };
        if !good {
            if mismatches < 3 {
                out.problem(format!(
                    "request {i}: final state disagrees with the oracle"
                ));
            }
            mismatches += 1;
        }
    }
    if let Some(buckets) = buckets {
        let mem = driven.cluster.memory_mut();
        let locked = buckets
            .iter()
            .filter(|&&b| {
                let mut word = [0u8; 8];
                mem.read(b + BUCKET_VERSION_OFFSET, &mut word).is_err()
                    || u64::from_le_bytes(word) % 2 == 1
            })
            .count();
        if locked > 0 {
            out.problem(format!(
                "{locked} bucket seqlocks left odd (held) after the drain"
            ));
            mismatches += locked as u64;
        }
    }
    if mismatches > 0 {
        out.problem(format!("{mismatches} correctness mismatches"));
    }
    out.attempted = expect.len() as u64;
    out.failed = faulted + mismatches;
}

/// Runs the reference pass of `w` (own loop, untimed), gates it, and
/// returns it.
fn reference(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Driven, pulse::Error> {
    let dep = w.deploy(seed, false, spans)?;
    let expect = expectations(w, seed, &dep, spans)?;
    let buckets = match &dep.oracle {
        Oracle::Seqlock { buckets, .. } => Some(buckets.clone()),
        Oracle::Functional => None,
    };
    let mut driven = drive(dep, w.rate_per_sec(), seed, spans)?;
    gate(&mut driven, &expect, buckets.as_deref(), out);
    Ok(driven)
}

/// Bisects the pulse rack's (or the RPC baseline's) knee on `w`'s
/// deployment and stream. `first` may carry the already-simulated report
/// at the starting rate.
fn knee(
    w: Workload,
    seed: u64,
    engine: Primary,
    mut first: Option<OpenLoopReport>,
    spans: &mut Spans,
) -> Result<Knee, pulse::Error> {
    let start_kops = w.rate_per_sec() / 1e3;
    let span = spans.enter("knee.bisect");
    let knee = bisect(start_kops, KNEE_TOLERANCE, |kops| {
        if kops == start_kops {
            if let Some(rep) = first.take() {
                return Ok(Probe::judge(&rep, SLO_P99_US));
            }
        }
        let arrivals = Workload::arrivals(kops * 1e3, seed);
        let rep = match engine {
            Primary::Pulse => {
                let mut dep = w.deploy(seed, false, spans)?;
                dep.runtime.execute_open_loop(&dep.requests, arrivals)?
            }
            Primary::Rpc => {
                let mut dep = w.deploy_rpc(seed, spans)?;
                dep.engine.execute_open_loop(&dep.requests, arrivals)?
            }
        };
        Ok(Probe::judge(&rep, SLO_P99_US))
    });
    spans.exit(span);
    knee
}

/// Times the calibration reference (see [`calibrate`]) as a span.
fn probe_slowdown(spans: &mut Spans) -> f64 {
    let span = spans.enter("calibrate.reference");
    let slowdown = calibrate::slowdown();
    spans.exit(span);
    slowdown
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "a median needs samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Host memory high-water mark of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: the end-to-end metrics.
///
/// 1. A reference pass through the benchmark's own loop (untimed) gives
///    the exact p50/p99 and feeds the correctness gate.
/// 2. Timed passes repeat for `seconds`: each builds a fresh deployment
///    (timed as set-up) and simulates it through `execute_open_loop` on
///    the workload's engine (timed as simulation). Every pass must
///    reproduce the reference's simulated outcome exactly.
/// 3. The memory high-water mark is read, then the knee is bisected on
///    the pulse rack.
///
/// # Errors
///
/// Build or request-validation failures.
pub fn untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, pulse::Error> {
    let mut out = Outcome::default();
    let rate = w.rate_per_sec();
    let n = w.requests() as f64;
    let span = spans.enter("benchmark.reference");
    let reference = reference(w, seed, spans, &mut out)?;
    spans.exit(span);
    let want = reference.summary();
    out.set("p50_us", reference.harrell_davis_median_us());
    out.set("p99_us", reference.exact_percentile_us(99.0));
    let samples = reference.completions.len();
    drop(reference);

    // Per pass: (set-up s, sim-ops/s, machine slowdown probed just before).
    let mut passes: Vec<(f64, f64, f64)> = Vec::new();
    let mut first_pulse_report = None;
    let mut first_rpc = None;
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let pass = spans.enter("benchmark.pass");
        let slowdown = probe_slowdown(spans);
        let arrivals = Workload::arrivals(rate, seed);
        let (rep, setup_s, sim_s) = match w.engine() {
            Primary::Pulse => {
                let mut dep = w.deploy(seed, false, spans)?;
                let span = spans.enter("core.execute_open_loop");
                let rep = dep.runtime.execute_open_loop(&dep.requests, arrivals);
                (rep?, dep.build_s + dep.mint_s, spans.exit(span))
            }
            Primary::Rpc => {
                let mut dep = w.deploy_rpc(seed, spans)?;
                let span = spans.enter("baselines.execute_open_loop");
                let rep = dep.engine.execute_open_loop(&dep.requests, arrivals);
                (rep?, dep.build_s + dep.mint_s, spans.exit(span))
            }
        };
        spans.exit(pass);
        let got = SimSummary::of_report(&rep);
        match w.engine() {
            Primary::Pulse if got != want => out.problem(format!(
                "execute_open_loop pass {} disagrees with the reference loop: {got:?} vs {want:?}",
                passes.len()
            )),
            Primary::Rpc if got != *first_rpc.get_or_insert(got) => {
                out.problem(format!("RPC pass {} is not deterministic", passes.len()))
            }
            Primary::Rpc if rep.completed != w.requests() as u64 => out.problem(format!(
                "RPC completed {} of {} requests",
                rep.completed,
                w.requests()
            )),
            _ => {}
        }
        passes.push((
            setup_s,
            (rep.completed + rep.faulted) as f64 / sim_s,
            slowdown,
        ));
        if w.engine() == Primary::Pulse && first_pulse_report.is_none() {
            first_pulse_report = Some(rep);
        }
    }
    // A pass's simulation ran between its own probe and the next one, so
    // it is corrected by their geometric mean; its set-up ran right after
    // its own probe.
    let last = probe_slowdown(spans);
    let after = passes.iter().skip(1).map(|p| p.2).chain([last]);
    let (mut setup, mut speed): (Vec<f64>, Vec<f64>) = passes
        .iter()
        .zip(after)
        .map(|(&(setup_s, ops_per_s, before), after)| {
            (setup_s / before, ops_per_s * (before * after).sqrt())
        })
        .unzip();
    out.set("setup_s", median(&mut setup));
    out.set("sim_ops_per_s", median(&mut speed));
    let mut slowdowns: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let mut raw_speed: Vec<f64> = passes.iter().map(|p| p.1).collect();
    eprintln!(
        "{}: uncorrected median {:.1} sim-ops/s at a median machine slowdown of {:.3}",
        w.name(),
        median(&mut raw_speed),
        median(&mut slowdowns)
    );
    // Read before the knee search: its overloaded probes are not the
    // workload's fixed-rate run.
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.problem("peak RSS is unreadable (/proc/self/status)".into()),
    }
    let knee = knee(w, seed, Primary::Pulse, first_pulse_report, spans)?;
    out.set("sustained_kops", knee.sustained_kops);
    eprintln!(
        "{}: {} passes of {n} requests at {:.0} kops; latency over {samples} samples; knee from {} probes",
        w.name(),
        passes.len(),
        rate / 1e3,
        knee.probes.len()
    );
    Ok(out)
}

/// Functional runs of `dep`'s stream (the ground-truth interpreter),
/// timed as one `isa.execute_functional` span.
fn functional(
    dep: &mut Deployment,
    spans: &mut Spans,
) -> Result<(Vec<FunctionalRun>, f64), pulse::Error> {
    let span = spans.enter("isa.execute_functional");
    let runs = dep
        .requests
        .iter()
        .map(|r| dep.runtime.execute_functional(r))
        .collect::<Result<Vec<_>, _>>();
    let secs = spans.exit(span);
    Ok((runs?, secs))
}

/// Per-phase attribution metric names, (mean, p99), by phase.
const PHASE_METRICS: [(Phase, &str, &str); 7] = [
    (Phase::Queued, "core.queued_mean_us", "core.queued_p99_us"),
    (
        Phase::Dispatch,
        "frontend.dispatch_mean_us",
        "frontend.dispatch_p99_us",
    ),
    (Phase::WireHop, "net.wire_mean_us", "net.wire_p99_us"),
    (
        Phase::AccelCompute,
        "accel.accel_mean_us",
        "accel.accel_p99_us",
    ),
    (Phase::MemTrip, "mem.mem_mean_us", "mem.mem_p99_us"),
    (
        Phase::CacheHit,
        "frontend.cache_hit_mean_us",
        "frontend.cache_hit_p99_us",
    ),
    (
        Phase::Retry,
        "mutation.retry_mean_us",
        "mutation.retry_p99_us",
    ),
];

/// Host samples of the traced run, one per round, by metric.
#[derive(Debug, Default)]
struct HostSamples {
    /// The current round's machine slowdown (see [`calibrate`]).
    slowdown: f64,
    samples: HashMap<&'static str, Vec<f64>>,
}

impl HostSamples {
    /// Records a host duration, corrected to nominal machine speed.
    fn time(&mut self, name: &'static str, v: f64) {
        let corrected = v / self.slowdown;
        self.samples.entry(name).or_default().push(corrected);
    }

    /// Records a ratio of two host durations, which needs no correction.
    fn ratio(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }
}

/// The traced run: the per-layer metrics. Rounds repeat for `seconds`
/// (at least one); each round
///
/// 1. runs `execute_open_loop` untraced (the reference report),
/// 2. drives the same stream through the benchmark's own loop, untraced,
///    and checks it reproduces the reference exactly,
/// 3. drives it again with `PulseBuilder::trace` on, checks the simulated
///    outcome is unchanged, and exports the Chrome trace,
/// 4. runs the stream functionally, and probes the queue, fabric and
///    cache layers with the workload's shapes,
/// 5. runs the RPC baseline over the identical deployment and stream.
///
/// Host metrics are medians over rounds, each corrected to nominal machine
/// speed by a [`calibrate`] probe at the round's start; simulated ones come
/// from the first round and every later round must repeat them.
///
/// # Errors
///
/// Build or request-validation failures.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, pulse::Error> {
    let mut out = Outcome::default();
    let rate = w.rate_per_sec();
    let n = w.requests() as f64;
    let mut host = HostSamples::default();
    let mut first: Option<SimSummary> = None;
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < seconds {
        let round_span = spans.enter("benchmark.round");
        host.slowdown = probe_slowdown(spans);
        // 1. The reference report.
        let mut dep = w.deploy(seed, false, spans)?;
        host.time("ds.build_s", dep.build_s);
        host.time("workloads.mint_us_per_req", dep.mint_s / n * 1e6);
        let span = spans.enter("core.execute_open_loop");
        let rep = dep
            .runtime
            .execute_open_loop(&dep.requests, Workload::arrivals(rate, seed));
        spans.exit(span);
        let rep = rep?;
        let want = SimSummary::of_report(&rep);
        if *first.get_or_insert(want) != want {
            out.problem(format!(
                "round {round}: the simulated outcome changed between rounds"
            ));
        }
        drop(dep);

        // 2. The benchmark's own loop, untraced.
        let dep = w.deploy(seed, false, spans)?;
        let expect = (round == 0)
            .then(|| expectations(w, seed, &dep, spans))
            .transpose()?;
        let buckets = match &dep.oracle {
            Oracle::Seqlock { buckets, .. } => Some(buckets.clone()),
            Oracle::Functional => None,
        };
        let mut plain = drive(dep, rate, seed, spans)?;
        if plain.summary() != want {
            out.problem(format!(
                "round {round}: own step() loop {:?} disagrees with execute_open_loop {want:?}",
                plain.summary()
            ));
        }
        host.time(
            "core.ns_per_event",
            plain.host_s / plain.events as f64 * 1e9,
        );
        if let Some(expect) = expect {
            gate(&mut plain, &expect, buckets.as_deref(), &mut out);
            let cr = plain.cluster.report();
            if cr.retries != rep.retries {
                out.problem(format!(
                    "own loop retried {} times, execute_open_loop {}",
                    cr.retries, rep.retries
                ));
            }
            out.set("core.events_per_req", plain.events as f64 / n);
            out.set("core.latency_samples", plain.completions.len() as f64);
            out.set("accel.iters_per_req", cr.iterations as f64 / n);
            out.set("accel.memory_util", cr.memory_util);
            out.set("accel.logic_util", cr.logic_util);
            out.set("frontend.dispatch_util", cr.dispatch_util);
            out.set("net.crossings_per_req", cr.crossings as f64 / n);
            out.set("net.bytes_per_req", cr.net_bytes as f64 / n);
            out.set("mem.bytes_per_req", cr.mem_bytes as f64 / n);
            out.set("frontend.cache_hit_rate", rep.cache_hit_rate);
            out.set("mutation.retries_per_req", rep.retries as f64 / n);
            let point = pulse_bench::SweepPoint::from_open_loop(&rep);
            out.set("mutation.update_goodput_kops", point.update_goodput_kops);
            out.set("net.link_utilization", rep.link_utilization);
            out.set("net.queue_depth", rep.queue_depth as f64);
        }
        let plain_s = plain.host_s;
        drop(plain);

        // 3. The same stream, traced.
        let dep = w.deploy(seed, true, spans)?;
        let traced = drive(dep, rate, seed, spans)?;
        if traced.summary() != want {
            out.problem(format!(
                "round {round}: tracing perturbed the simulation: {:?} vs {want:?}",
                traced.summary()
            ));
        }
        host.ratio("trace.overhead", traced.host_s / plain_s - 1.0);
        let span = spans.enter("trace.trace_json");
        let exported = traced.cluster.trace_json().map_or(0, |j| j.len());
        host.time("trace.export_s", spans.exit(span));
        if exported == 0 {
            out.problem("the traced rack exported no trace".into());
        }
        if round == 0 {
            let sink = traced.cluster.trace().expect("tracing was enabled");
            out.set("trace.spans_per_req", sink.spans().len() as f64 / n);
            match traced.cluster.report().phase {
                Some(phase) => {
                    for (p, mean, p99) in PHASE_METRICS {
                        out.set(mean, phase.mean_of(p).as_micros_f64());
                        out.set(p99, phase.p99_of(p).as_micros_f64());
                    }
                }
                None => out.problem("the traced rack reported no phase attribution".into()),
            }
        }
        drop(traced);

        // 4. Functional runs, then the layer probes on the workload's shapes.
        let mut dep = w.deploy(seed, false, spans)?;
        let (runs, secs) = functional(&mut dep, spans)?;
        let iters: u64 = runs.iter().map(|r| r.response.iterations).sum();
        host.time("isa.ns_per_iter", secs / iters.max(1) as f64 * 1e9);
        let span = spans.enter("sim.event_queue");
        host.time("sim.queue_ns", layers::queue_ns(w.requests(), seed));
        spans.exit(span);
        let arrival_times = Workload::arrivals(rate, seed).schedule(SimTime::ZERO, w.requests());
        let span = spans.enter("net.fabric_send");
        host.time(
            "net.fabric_send_ns",
            layers::fabric_send_ns(
                w.geometry(),
                dep.runtime.memory(),
                &dep.requests,
                &runs,
                &arrival_times,
            ),
        );
        spans.exit(span);
        let span = spans.enter("frontend.cache_probe");
        host.time(
            "frontend.cache_probe_ns",
            layers::cache_probe_ns(dep.runtime.memory_mut(), &runs),
        );
        spans.exit(span);
        drop((dep, runs));

        // 5. The RPC baseline over the identical deployment and stream.
        let mut rpc = w.deploy_rpc(seed, spans)?;
        let span = spans.enter("baselines.execute_open_loop");
        let rpc_rep = rpc
            .engine
            .execute_open_loop(&rpc.requests, Workload::arrivals(rate, seed));
        let rpc_s = spans.exit(span);
        let rpc_rep = rpc_rep?;
        host.time("baselines.ns_per_req", rpc_s / n * 1e9);
        if round == 0 {
            out.set("baselines.rpc_p50_us", rpc_rep.latency.p50.as_micros_f64());
            out.set("baselines.rpc_p99_us", rpc_rep.latency.p99.as_micros_f64());
            drop(rpc);
            let knee = knee(w, seed, Primary::Rpc, Some(rpc_rep), spans)?;
            out.set("baselines.rpc_sustained_kops", knee.sustained_kops);
        }
        spans.exit(round_span);
        round += 1;
    }
    for (name, mut xs) in host.samples {
        out.set(name, median(&mut xs));
    }
    eprintln!(
        "{}: {round} traced rounds of {n} requests at {:.0} kops",
        w.name(),
        rate / 1e3
    );
    Ok(out)
}

/// The pulse rack's knee on `w` at `seed`, searched on its own.
///
/// # Errors
///
/// Build or request-validation failures.
pub fn pulse_knee(w: Workload, seed: u64) -> Result<Knee, pulse::Error> {
    let mut spans = Spans::new(format!("{}-knee", w.name()));
    knee(w, seed, Primary::Pulse, None, &mut spans)
}
