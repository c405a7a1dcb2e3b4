//! Span-conservation property tests for `pulse-trace`, at the façade
//! level: over randomized deployments (structure, load, topology, fault
//! schedule, pulse or the Cache-based system), every traced request's
//! spans must partition its end-to-end
//! latency exactly — no gaps, no overlaps — and no memory node's DMA
//! engine may ever host two overlapping occupancy windows.
//!
//! The container image has no network access to crates.io, so instead of
//! the `proptest` crate these run deterministic SplitMix64-generated
//! cases — fully reproducible, no external dependency, same invariants.
//! (The sink's own `finish()` debug assertion is the per-request oracle;
//! these tests re-derive the same facts from the exported span stream so
//! a release build would catch a violation too.)

use pulse::baselines::SwapConfig;
use pulse::ds::{BuildCtx, DsError};
use pulse::sim::{SimTime, SplitMix64};
use pulse::trace::{TraceSink, Track, PHASES};
use pulse::workloads::{Application, Btrdb, Distribution, WebService, WiredTiger};
use pulse::{
    ArrivalProcess, BaselineEngine, BaselineKind, BtrdbConfig, DispatchConfig, Engine, FaultEvent,
    FaultKind, MutationConfig, Runtime, TopologySpec, TraceConfig, WebServiceConfig,
    WiredTigerConfig, YcsbDriver, YcsbWorkload,
};

const CASES: u64 = 12;

/// An engine whose trace the tests read back.
trait Traced: Engine {
    fn sink(&self) -> Option<&TraceSink>;
}

impl Traced for Runtime {
    fn sink(&self) -> Option<&TraceSink> {
        self.trace()
    }
}

impl Traced for BaselineEngine {
    fn sink(&self) -> Option<&TraceSink> {
        self.trace()
    }
}

type BuildApp = Box<dyn FnOnce(&mut BuildCtx<'_>) -> Result<Box<dyn Application>, DsError>>;

/// Builds a randomized traced engine plus its request stream: the pulse
/// rack, or in a quarter of the cases the Cache-based system on the same
/// rack.
fn random_case(rng: &mut SplitMix64) -> (Box<dyn Traced>, Vec<pulse::AppRequest>) {
    let nodes = 2 + rng.next_below(3) as usize;
    let cpus = 1 + rng.next_below(3) as usize;
    let requests = 40 + rng.next_below(100) as usize;
    let topology = match rng.next_below(3) {
        0 => TopologySpec::Flat,
        1 => TopologySpec::LeafSpine {
            leaves: 2,
            spines: 1,
        },
        _ => TopologySpec::LeafSpine {
            leaves: 2,
            spines: 1 + rng.next_below(2) as usize,
        },
    };
    let crashed = rng.next_below(2) == 1;
    let dispatch = DispatchConfig::contended(
        SimTime::from_nanos(200 + rng.next_below(1_000)),
        1 + rng.next_below(2) as usize,
    );
    let mut builder = pulse::PulseBuilder::new()
        .nodes(nodes)
        .cpus(cpus)
        .dispatch(dispatch)
        .topology(topology)
        .trace(Some(TraceConfig::default()));
    if crashed {
        // Replicated, so the crash exercises failover + re-replication
        // spans while every request still finishes.
        builder = builder.replication(2).faults(vec![FaultEvent::new(
            SimTime::from_micros(10 + rng.next_below(40)),
            FaultKind::MemCrash(0),
        )]);
    }
    // Half the cases run with the ISA-v2 latency-hiding switches on:
    // speculation, a random batch window, and shared-prefix coalescing.
    // These workloads are read-only, so speculation never squashes here
    // (the write-path squash case is its own test below), but batched
    // hops' fused windows and coalesced riders' parked/fan-out spans must
    // still tile every request's latency exactly.
    if rng.next_below(2) == 1 {
        builder = builder
            .speculation(true)
            .batching(2 + rng.next_below(4) as u32)
            .coalescing(true);
    }
    let dist = if rng.next_below(2) == 0 {
        Distribution::Uniform
    } else {
        Distribution::Zipfian
    };
    let build: BuildApp = match rng.next_below(3) {
        0 => {
            let cfg = WebServiceConfig {
                keys: 500 + rng.next_below(3_000),
                workload: YcsbWorkload::C,
                distribution: dist,
                ..Default::default()
            };
            Box::new(move |ctx| Ok(Box::new(WebService::build(ctx, cfg)?)))
        }
        1 => {
            let cfg = WiredTigerConfig {
                keys: 2_000 + rng.next_below(8_000),
                distribution: dist,
                ..Default::default()
            };
            Box::new(move |ctx| Ok(Box::new(WiredTiger::build(ctx, cfg)?)))
        }
        _ => {
            let cfg = BtrdbConfig {
                duration_secs: 600,
                window_secs: 4 + rng.next_below(30),
                ..Default::default()
            };
            Box::new(move |ctx| Ok(Box::new(Btrdb::build(ctx, cfg)?)))
        }
    };
    // The Cache-based system takes its own dispatch engine and topology;
    // the builder's trace switch applies to it too. Its page cache holds
    // 64 KiB to 2 MiB, so pages both hit and miss.
    let (engine, mut app): (Box<dyn Traced>, _) = if rng.next_below(4) == 0 {
        let kind = BaselineKind::SwapCache(SwapConfig {
            cache_bytes: (64 << 10) << rng.next_below(6),
            dispatch,
            topology,
            trace: false,
        });
        let (engine, app) = builder.baseline_with(kind, build).expect("wire swap");
        (Box::new(engine), app)
    } else {
        let (runtime, app) = builder.build_with(build).expect("wire pulse");
        (Box::new(runtime), app)
    };
    let reqs = (0..requests).map(|_| app.next_request()).collect();
    (engine, reqs)
}

/// Asserts every traced request's spans tile its end-to-end latency
/// exactly — contiguous from first start to last end, no gap, no overlap —
/// and returns the summed span picoseconds across all `n` requests.
fn assert_spans_tile(sink: &TraceSink, n: u64, tag: &str) -> u128 {
    let mut per_req: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
    for s in sink.spans() {
        per_req.entry(s.req).or_default().push((s.start, s.end));
    }
    assert_eq!(per_req.len() as u64, n, "{tag}");
    let mut total_ps: u128 = 0;
    for (req, windows) in &mut per_req {
        windows.sort();
        let first = windows.first().expect("nonempty").0;
        let last = windows.last().expect("nonempty").1;
        let mut cursor = first;
        let mut sum_ps: u128 = 0;
        for &(start, end) in windows.iter() {
            assert_eq!(
                start, cursor,
                "{tag}: gap or overlap in request {req} at {start:?}"
            );
            assert!(end >= start, "{tag}");
            sum_ps += (end - start).as_picos() as u128;
            cursor = end;
        }
        assert_eq!(
            sum_ps,
            (last - first).as_picos() as u128,
            "{tag}: request {req} spans do not tile its latency"
        );
        total_ps += sum_ps;
    }
    total_ps
}

#[test]
fn random_traced_runs_conserve_spans() {
    let mut rng = SplitMix64::new(0x5AA5);
    for case in 0..CASES {
        let (mut engine, reqs) = random_case(&mut rng);
        let n = reqs.len() as u64;
        let load_kops = 50.0 + rng.next_below(500) as f64;
        let arrivals = ArrivalProcess::poisson(load_kops * 1e3, 0xA0 + case);
        let rep = engine.execute_open_loop(&reqs, arrivals).expect("run");
        assert_eq!(rep.completed + rep.faulted, n, "case {case}");

        let sink = engine.sink().expect("tracing enabled");
        assert_eq!(sink.open_requests(), 0, "case {case}: requests left open");
        assert_eq!(sink.completed(), n, "case {case}");

        // Per-request partition: spans are contiguous from first start to
        // last end, so their durations sum exactly to the request's
        // end-to-end latency — no gap and no overlap can hide.
        let total_ps = assert_spans_tile(sink, n, &format!("case {case}"));

        // Aggregate conservation: the per-phase means sum to the mean
        // end-to-end latency, modulo one floor-rounding pico per phase.
        let attr = sink.attribution().expect("completed requests");
        assert_eq!(attr.count, n, "case {case}");
        let mean_sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e_mean = (total_ps / n as u128) as u64;
        assert!(
            mean_sum <= e2e_mean && e2e_mean - mean_sum < PHASES as u64,
            "case {case}: phase means {mean_sum} vs end-to-end {e2e_mean}"
        );

        // Resource sanity: a memory node's DMA engine is serial, so its
        // occupancy windows must never overlap.
        let mut by_track: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
        for o in sink.occupancy() {
            if matches!(o.track, Track::Mem(_)) {
                by_track.entry(o.track).or_default().push((o.start, o.end));
            }
        }
        for (track, windows) in &mut by_track {
            windows.sort();
            for pair in windows.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "case {case}: overlapping DMA occupancy on {track:?}"
                );
            }
        }
    }
}

/// Façade-level bit-identity: the default builder, `trace(None)`, and
/// `trace(Some)` all produce the identical timing — tracing observes,
/// never perturbs — and only the traced run carries attribution.
#[test]
fn trace_none_is_default_and_tracing_never_perturbs() {
    let run = |trace: Option<Option<TraceConfig>>| {
        let mut builder =
            pulse::PulseBuilder::new()
                .nodes(2)
                .cpus(2)
                .topology(TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                });
        if let Some(t) = trace {
            builder = builder.trace(t);
        }
        let (mut runtime, mut app) = builder
            .app(WebServiceConfig {
                keys: 2_000,
                workload: YcsbWorkload::C,
                distribution: Distribution::Zipfian,
                ..Default::default()
            })
            .expect("wire webservice");
        let reqs: Vec<_> = (0..200).map(|_| app.next_request()).collect();
        let arrivals = ArrivalProcess::poisson(200e3, 7);
        let rep = runtime.execute_open_loop(&reqs, arrivals).expect("run");
        let traced = runtime.trace().is_some();
        (rep, traced)
    };
    let (default, default_traced) = run(None);
    let (off, off_traced) = run(Some(None));
    let (on, on_traced) = run(Some(Some(TraceConfig::default())));

    assert!(!default_traced && !off_traced && on_traced);
    assert!(default.phase.is_none() && off.phase.is_none());
    assert!(on.phase.is_some(), "traced run must attribute phases");
    for (label, rep) in [("trace(None)", &off), ("trace(Some)", &on)] {
        assert_eq!(rep.completed, default.completed, "{label}");
        assert_eq!(rep.faulted, default.faulted, "{label}");
        assert_eq!(rep.latency.p50, default.latency.p50, "{label}");
        assert_eq!(rep.latency.p95, default.latency.p95, "{label}");
        assert_eq!(rep.latency.p99, default.latency.p99, "{label}");
        assert_eq!(rep.retries, default.retries, "{label}");
        assert!(
            (rep.throughput - default.throughput).abs() < 1e-9,
            "{label}"
        );
    }
}

/// The write path's squash spans under conservation: a traced,
/// speculation-enabled YCSB-A mix at load, where concurrent updates bump
/// granule versions inside open speculation windows. Every squashed trip
/// splits its accelerator window into a compute span plus a `spec_squash`
/// span at the same visit — and the partition invariant must survive that
/// split on every request, squashed or not.
#[test]
fn spec_squash_spans_still_tile_request_latency() {
    let cfg = WebServiceConfig {
        keys: 2_000,
        workload: YcsbWorkload::A,
        distribution: Distribution::Zipfian,
        ..Default::default()
    };
    let (mut runtime, app) = pulse::PulseBuilder::new()
        .nodes(2)
        .cpus(2)
        .speculation(true)
        .batching(4)
        .trace(Some(TraceConfig::default()))
        .app(cfg)
        .expect("wire webservice");
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default())
        .expect("partitioned deployment");
    let reqs: Vec<_> = (0..600)
        .map(|_| driver.next_request(runtime.memory_mut()))
        .collect();
    let arrivals = ArrivalProcess::poisson(800e3, 11);
    let rep = runtime.execute_open_loop(&reqs, arrivals).expect("run");
    assert_eq!(rep.completed + rep.faulted, 600);
    assert!(
        rep.mis_speculations > 0,
        "a hot-keyed 50%-update mix at load must squash some speculated windows"
    );

    let sink = runtime.trace().expect("tracing enabled");
    assert_eq!(sink.open_requests(), 0, "requests left open");
    assert_spans_tile(sink, 600, "spec-squash");
}

/// RPC on the rack under conservation: traced RPC runs on a flat rack, on
/// a leaf-spine fabric with chains striped over 4 KiB extents (so
/// traversals bounce through the CPU node), and under a mid-run crash with
/// replication 2, at a load that queues requests for the 16 clients. Every
/// request's spans tile its latency from its arrival, the client wait
/// included, and the phase means sum to the mean latency.
#[test]
fn traced_rpc_runs_conserve_spans() {
    use pulse::baselines::RpcConfig;
    use pulse::BaselineKind;

    let crash = vec![FaultEvent::new(
        SimTime::from_micros(20),
        FaultKind::MemCrash(0),
    )];
    let cases = [
        ("flat", TopologySpec::Flat, Vec::new(), 1 << 20, true),
        (
            "leaf-spine",
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            Vec::new(),
            4096,
            false,
        ),
        ("crash", TopologySpec::Flat, crash, 1 << 20, true),
    ];
    for (tag, topology, faults, granularity, partitioned) in cases {
        let kind = BaselineKind::Rpc(RpcConfig {
            topology,
            faults,
            dispatch: DispatchConfig::contended(SimTime::from_nanos(500), 2),
            ..RpcConfig::rpc()
        });
        let (mut engine, mut app) = pulse::PulseBuilder::new()
            .nodes(4)
            .granularity(granularity)
            .replication(2)
            .trace(Some(TraceConfig::default()))
            .baseline_app(
                kind,
                WebServiceConfig {
                    keys: 2_000,
                    partition_by_bucket: partitioned,
                    ..Default::default()
                },
            )
            .expect("wire RPC");
        let reqs: Vec<_> = (0..300).map(|_| app.next_request()).collect();
        let rep = engine
            .execute_open_loop(&reqs, ArrivalProcess::poisson(1.5e6, 5))
            .expect("run");
        assert_eq!(rep.completed + rep.faulted, 300, "{tag}");
        let sink = engine.trace().expect("tracing enabled");
        assert_eq!(sink.open_requests(), 0, "{tag}: requests left open");
        let total_ps = assert_spans_tile(sink, 300, tag);
        let attr = sink.attribution().expect("completed requests");
        let mean_sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e_mean = (total_ps / 300) as u64;
        assert!(
            mean_sum <= e2e_mean && e2e_mean - mean_sum < PHASES as u64,
            "{tag}: phase means {mean_sum} vs end-to-end {e2e_mean}"
        );
        assert_eq!(
            e2e_mean,
            rep.latency.mean.as_picos(),
            "{tag}: spans start at arrival"
        );
        if tag == "crash" {
            assert!(rep.failovers > 0 && rep.rereplication_bytes > 0, "{tag}");
        }
    }
}
