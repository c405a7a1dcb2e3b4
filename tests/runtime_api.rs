//! Integration tests for the `Runtime` façade: every catalogued structure
//! drives through `submit`/`poll`, completions match functional ground
//! truth, the backpressure window holds, `drain()` reproduces the
//! closed-loop `PulseCluster::run` reports bit-for-bit, and malformed
//! requests surface as typed errors instead of panics.

use pulse::dispatch::DispatchEngine;
use pulse::ds::catalog;
use pulse::isa::Interpreter;
use pulse::sim::SimTime;
use pulse::workloads::{
    execute_functional, Application, ArrivalProcess, StartPtr, TraversalStage, WebServiceConfig,
};
use pulse::{
    AppRequest, CacheConfig, DispatchConfig, Engine, Error, Offloaded, OpenLoopDriver, Placement,
    PulseBuilder, PulseCluster, RequestError,
};
use std::sync::Arc;

/// Every catalogued structure, through the full stack: build via its
/// `Traversal` face, compile via the dispatch engine, execute via
/// `Runtime::submit`/`poll`, and compare each completion's final
/// scratchpad against `execute_functional` ground truth. No structure
/// needs any dispatch- or core-side code of its own.
#[test]
fn every_catalog_structure_matches_functional_ground_truth() {
    let pairs: Vec<(u64, u64)> = (0..160).map(|k| (k, k * 13 + 5)).collect();
    let probes: Vec<u64> = (0..40).map(|i| i * 4 + 1).collect();
    let window = 4;
    for entry in catalog() {
        let (mut runtime, traversal) = PulseBuilder::new()
            .nodes(3)
            .placement(Placement::Striped)
            .granularity(1 << 14)
            .window(window)
            .build_with(|ctx| (entry.build)(ctx, &pairs))
            .unwrap_or_else(|e| panic!("{}: build failed: {e}", entry.name));
        let offloaded = Offloaded::compile(traversal, &DispatchEngine::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", entry.name));

        // Ground truth first (functional execution, no timing).
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for &p in &probes {
            let req = offloaded
                .request(p)
                .unwrap_or_else(|e| panic!("{}: request failed: {e}", entry.name));
            let truth = runtime
                .execute_functional(&req)
                .unwrap_or_else(|e| panic!("{}: functional failed: {e}", entry.name));
            expected.push(truth.response.final_state.expect("traversal ran").scratch);
            requests.push(req);
        }

        // Now through the rack, respecting the backpressure window.
        let mut tickets = Vec::new();
        for req in requests {
            tickets.push(runtime.submit(req).expect("validated request"));
            assert!(
                runtime.in_flight() <= window,
                "{}: window exceeded at submit",
                entry.name
            );
        }
        let mut completions = Vec::new();
        loop {
            let done = runtime.poll();
            assert!(
                runtime.in_flight() <= window,
                "{}: window exceeded at poll",
                entry.name
            );
            if done.is_empty() {
                break;
            }
            completions.extend(done);
        }
        assert_eq!(completions.len(), probes.len(), "{}", entry.name);

        // Match completions to tickets (completion order is sim order).
        for c in &completions {
            assert!(c.ok, "{}: request faulted", entry.name);
            let idx = tickets
                .iter()
                .position(|t| t.matches(c))
                .unwrap_or_else(|| panic!("{}: unknown completion", entry.name));
            let got = &c.final_state.as_ref().expect("final state").scratch;
            assert_eq!(
                got, &expected[idx],
                "{}: probe {} scratch mismatch",
                entry.name, probes[idx]
            );
        }
    }
}

/// `drain()` must reproduce the closed-loop batch path bit-for-bit when
/// the window equals the old `concurrency` — the guarantee that lets the
/// Fig. 7 benches and open-loop traffic share one engine.
#[test]
fn drain_reproduces_closed_loop_run_on_webservice() {
    let cfg = WebServiceConfig {
        keys: 2_000,
        ..Default::default()
    };
    let window = 8;

    // Old path: hand-wired cluster, blocking batch run.
    let (mut runtime, mut app) = PulseBuilder::new()
        .nodes(2)
        .granularity(1 << 20)
        .window(window)
        .app(cfg)
        .unwrap();
    let requests: Vec<AppRequest> = (0..120).map(|_| app.next_request()).collect();

    // Same deployment for the closed-loop path (deterministic build).
    let (runtime2, _app2) = PulseBuilder::new()
        .nodes(2)
        .granularity(1 << 20)
        .window(window)
        .app(cfg)
        .unwrap();
    let mut cluster: PulseCluster = runtime2.into_cluster();
    let old = cluster.run(requests.clone(), window);

    for req in requests {
        runtime.submit(req).unwrap();
    }
    let new = runtime.drain();

    assert_eq!(new.completed, old.completed);
    assert_eq!(new.faulted, old.faulted);
    assert_eq!(new.crossings, old.crossings);
    assert_eq!(new.net_bytes, old.net_bytes);
    assert_eq!(new.mem_bytes, old.mem_bytes);
    assert_eq!(new.iterations, old.iterations);
    assert_eq!(new.makespan, old.makespan);
    assert_eq!(new.latency.mean, old.latency.mean);
    assert_eq!(new.latency.p99, old.latency.p99);
    assert!((new.throughput - old.throughput).abs() < 1e-9);
}

/// The PR 2 bit-compatibility guard: with `DispatchConfig { occupancy: 0,
/// contexts: 1 }` the single-CPU closed-loop `drain()` must reproduce the
/// flat dispatch-overhead model's trace *exactly*. The constants below are
/// golden numbers for this very scenario. The byte and iteration counts
/// are the original pins; the times were re-pinned when each CPU-bound
/// frame began to serialize once, on its down-link. Any drift means the
/// zero-occupancy dispatch engine is no longer a free pass-through.
#[test]
fn zero_occupancy_drain_matches_pr2_golden_trace() {
    let (mut runtime, mut app) = PulseBuilder::new()
        .nodes(2)
        .granularity(1 << 20)
        .window(8)
        .dispatch(DispatchConfig {
            occupancy: SimTime::ZERO,
            contexts: 1,
        })
        .app(WebServiceConfig {
            keys: 2_000,
            ..Default::default()
        })
        .unwrap();
    for _ in 0..120 {
        runtime.submit(app.next_request()).unwrap();
    }
    let rep = runtime.drain();
    assert_eq!(rep.completed, 120);
    assert_eq!(rep.faulted, 0);
    assert_eq!(rep.crossings, 0);
    assert_eq!(rep.net_bytes, 1_027_680);
    assert_eq!(rep.mem_bytes, 1_120_536);
    assert_eq!(rep.iterations, 5_729);
    assert_eq!(rep.makespan.as_picos(), 338_887_100);
    assert_eq!(rep.latency.mean.as_picos(), 21_860_558);
    assert_eq!(rep.latency.p99.as_picos(), 32_636_928);
    assert_eq!(rep.dispatch_util, 0.0, "a free engine is never busy");
}

/// The cache-off golden guard from the other direction: an *explicitly*
/// disabled cache is the same configuration as the default, bit-for-bit —
/// and the default side is already pinned to the PR 4 golden numbers by
/// `zero_occupancy_drain_matches_pr2_golden_trace` above, so together
/// these prove `CacheConfig::disabled()` reproduces the pre-cache traces
/// exactly.
#[test]
fn disabled_cache_is_bit_identical_to_default() {
    let run = |builder: PulseBuilder| {
        let (mut runtime, mut app) = builder
            .nodes(2)
            .granularity(1 << 20)
            .window(8)
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        for _ in 0..120 {
            runtime.submit(app.next_request()).unwrap();
        }
        runtime.drain()
    };
    let default = run(PulseBuilder::new());
    let explicit = run(PulseBuilder::new().cache(CacheConfig::disabled()));
    assert_eq!(default.makespan, explicit.makespan);
    assert_eq!(default.net_bytes, explicit.net_bytes);
    assert_eq!(default.mem_bytes, explicit.mem_bytes);
    assert_eq!(default.iterations, explicit.iterations);
    assert_eq!(default.latency.mean, explicit.latency.mean);
    assert_eq!(default.latency.p99, explicit.latency.p99);
    assert_eq!(default.cache_hit_rate, 0.0);
    assert_eq!(explicit.cache_hit_rate, 0.0);
}

/// With the front-end cache enabled, every completion still matches
/// functional ground truth — cached hits serve version-valid snapshots
/// only — repeated hot keys actually hit, and the hit rate surfaces in
/// the report.
#[test]
fn cached_reads_match_ground_truth_and_hit() {
    let (mut runtime, map) = PulseBuilder::new()
        .nodes(2)
        .cache(CacheConfig::sized(1 << 20))
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..160).map(|k| (k, k * 13 + 5)).collect();
            pulse::ds::HashMapDs::build(ctx, 4, &pairs)
        })
        .unwrap();
    let offloaded = Offloaded::compile(map, &pulse::dispatch::DispatchEngine::default()).unwrap();
    // Every probe twice: the second pass re-walks freshly filled lines.
    let probes: Vec<u64> = (0..30).chain(0..30).collect();
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for &p in &probes {
        let req = offloaded.request(p).unwrap();
        let truth = runtime.execute_functional(&req).unwrap();
        expected.push(truth.response.final_state.expect("ran").scratch);
        requests.push(req);
    }
    let mut tickets = Vec::new();
    for req in requests {
        tickets.push(runtime.submit(req).unwrap());
    }
    let mut seen = 0;
    loop {
        let done = runtime.poll();
        if done.is_empty() {
            break;
        }
        for c in done {
            assert!(c.ok);
            let idx = tickets.iter().position(|t| t.matches(&c)).unwrap();
            assert_eq!(
                c.final_state.as_ref().unwrap().scratch,
                expected[idx],
                "probe {} diverged under caching",
                probes[idx]
            );
            seen += 1;
        }
    }
    assert_eq!(seen, probes.len());
    let rep = runtime.report();
    assert!(
        rep.cache_hit_rate > 0.0,
        "repeated hot keys must hit: {rep:?}"
    );
}

/// Coherence end to end — the zero-stale-reads guarantee: a verified read
/// fills the cache, a locked update bumps the bucket lines' write
/// versions, and the next read must return the *new* value even though
/// its lines are resident. A cache that skipped version validation would
/// serve the stale snapshot and fail here.
#[test]
fn cache_invalidation_prevents_stale_reads() {
    use pulse::mutation::{locked_update_stage, retrying_request, sp, verified_read_stage};
    use pulse::MutationConfig;

    let (mut runtime, map) = PulseBuilder::new()
        .nodes(2)
        .cache(CacheConfig::sized(1 << 20))
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..128).map(|k| (k, k + 1000)).collect();
            pulse::ds::HashMapDs::build_partitioned(ctx, 8, &pairs, 2)
        })
        .unwrap();
    let find = Arc::new(pulse::mutation::verified_find_program());
    let update = Arc::new(pulse::mutation::locked_update_program());
    let bucket = map.bucket_addr(42);
    let mc = MutationConfig::default();
    let read_value = |runtime: &mut pulse::Runtime| {
        runtime
            .submit(retrying_request(verified_read_stage(&find, bucket, 42), mc))
            .unwrap();
        let done = runtime.poll();
        assert_eq!(done.len(), 1);
        assert!(done[0].ok);
        done[0]
            .final_state
            .as_ref()
            .unwrap()
            .scratch_u64(sp::VAL as usize)
    };
    assert_eq!(read_value(&mut runtime), 1042, "initial value");
    // The locked update really mutates the bucket through the rack.
    runtime
        .submit(retrying_request(
            locked_update_stage(&update, bucket, 42, 0xCAFE),
            mc,
        ))
        .unwrap();
    let done = runtime.poll();
    assert!(done.len() == 1 && done[0].ok);
    // The resident lines are now stale; a version-validated cache misses
    // and refetches, an unvalidated one would return 1042 here.
    assert_eq!(read_value(&mut runtime), 0xCAFE, "stale read!");
    // And once refilled, the *new* snapshot serves hits.
    assert_eq!(read_value(&mut runtime), 0xCAFE);
    let rep = runtime.report();
    assert!(rep.cache_hit_rate > 0.0, "refilled lines must hit: {rep:?}");
    assert_eq!(rep.faulted, 0);
}

/// An open-loop report's cache hit rate covers its own stream only. On a
/// reused runtime the second stream's rate is its own hits over its own
/// probes, read from `PulseCluster::cache_stats` around it, and not the
/// lifetime rate, which the colder first stream drags down.
#[test]
fn reused_runtime_reports_the_second_streams_own_cache_hit_rate() {
    let (mut runtime, mut app) = PulseBuilder::new()
        .nodes(2)
        .cpus(2)
        .cache(CacheConfig::sized(1 << 20))
        .app(WebServiceConfig {
            keys: 2_000,
            ..Default::default()
        })
        .unwrap();
    let mut stream = |runtime: &mut pulse::Runtime, seed: u64| {
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        OpenLoopDriver::new(ArrivalProcess::poisson(200_000.0, seed))
            .run(runtime, reqs)
            .unwrap()
    };
    let first = stream(&mut runtime, 3);
    let before = runtime.cluster().cache_stats();
    let second = stream(&mut runtime, 5);
    let after = runtime.cluster().cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert!(hits > 0 && misses > 0, "the stream must probe the cache");
    assert_eq!(second.cache_hit_rate, hits as f64 / (hits + misses) as f64);
    assert_ne!(
        second.cache_hit_rate,
        after.hit_rate(),
        "not the lifetime rate"
    );
    assert!(
        first.cache_hit_rate < second.cache_hit_rate,
        "the cache warmed"
    );
}

/// The prefix-walk fast path is actually fast: repeating a traversal whose
/// cells are now cached completes with strictly lower latency than its
/// cold first run (hops at DRAM-hit cost instead of rack round trips).
#[test]
fn cached_hot_requests_complete_faster() {
    let (mut runtime, map) = PulseBuilder::new()
        .nodes(2)
        .cache(CacheConfig::sized(1 << 20))
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..256).map(|k| (k, k * 7)).collect();
            pulse::ds::HashMapDs::build(ctx, 2, &pairs)
        })
        .unwrap();
    let offloaded = Offloaded::compile(map, &pulse::dispatch::DispatchEngine::default()).unwrap();
    let mut latency_of = |key: u64| {
        runtime.submit(offloaded.request(key).unwrap()).unwrap();
        let done = runtime.poll();
        assert!(done[0].ok);
        done[0].latency()
    };
    let cold = latency_of(200); // long chain, never seen
    let warm = latency_of(200); // identical walk, now resident
    assert!(
        warm < cold / 4,
        "a fully cached walk must be far below the remote path: cold {cold} warm {warm}"
    );
    assert_eq!(
        offloaded.request(200).unwrap().traversals.len(),
        1,
        "single-stage sanity"
    );
}

/// The honest-saturation property this PR exists for: with a contended
/// dispatch engine, offered loads past the engine's service rate
/// (`contexts / occupancy` = 500 kops here) queue at the CPU node, so p99
/// grows strictly rung over rung.
#[test]
fn dispatch_contention_saturates_open_loop() {
    let p99_at = |rate_per_sec: f64| {
        let (mut runtime, mut app) = PulseBuilder::new()
            .nodes(2)
            .cpus(1)
            .dispatch(DispatchConfig::contended(SimTime::from_micros(2), 1))
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        let mut driver = OpenLoopDriver::new(ArrivalProcess::poisson(rate_per_sec, 5));
        let rep = driver.run(&mut runtime, reqs).unwrap();
        assert_eq!(rep.completed, 300);
        rep.latency.p99
    };
    // Every rung is past the 500 kops dispatch service rate.
    let p800 = p99_at(800_000.0);
    let p1600 = p99_at(1_600_000.0);
    let p3200 = p99_at(3_200_000.0);
    assert!(
        p800 < p1600 && p1600 < p3200,
        "p99 must strictly increase past dispatch saturation: {p800} {p1600} {p3200}"
    );
}

/// Submitting beyond the window leaves the excess pending, and the window
/// bound holds through an interleaved submit/poll stream (open-loop use).
#[test]
fn backpressure_window_bounds_in_flight() {
    let (mut runtime, mut app) = PulseBuilder::new()
        .nodes(2)
        .window(3)
        .app(WebServiceConfig {
            keys: 500,
            ..Default::default()
        })
        .unwrap();
    for _ in 0..10 {
        runtime.submit(app.next_request()).unwrap();
    }
    assert_eq!(runtime.in_flight(), 3, "window admits exactly 3");
    assert_eq!(runtime.pending(), 7);
    let mut completed = 0;
    loop {
        let done = runtime.poll();
        assert!(runtime.in_flight() <= 3);
        if done.is_empty() {
            break;
        }
        completed += done.len();
        // Interleave more work mid-stream: backpressure must still hold.
        if completed == 2 {
            runtime.submit(app.next_request()).unwrap();
            assert!(runtime.in_flight() <= 3);
        }
    }
    assert_eq!(completed, 11);
    assert_eq!(runtime.report().completed, 11);
    assert_eq!(runtime.in_flight(), 0);
    assert_eq!(runtime.pending(), 0);
}

/// `submit_at` is the open-loop entry: arrivals are admitted at their
/// timestamps regardless of the window, so a burst overfills the rack —
/// and still completes deterministically.
#[test]
fn submit_at_bypasses_the_window() {
    let (mut runtime, mut app) = PulseBuilder::new()
        .nodes(2)
        .window(2)
        .app(WebServiceConfig {
            keys: 500,
            ..Default::default()
        })
        .unwrap();
    for i in 0..10u64 {
        runtime
            .submit_at(SimTime::from_nanos(10 * i), app.next_request())
            .unwrap();
    }
    assert_eq!(
        runtime.in_flight(),
        10,
        "open-loop arrivals are not window-gated"
    );
    assert_eq!(runtime.pending(), 0);
    let mut completed = 0;
    loop {
        let done = runtime.poll();
        if done.is_empty() {
            break;
        }
        completed += done.len();
    }
    assert_eq!(completed, 10);
}

/// Under open loop, latency is measured from arrival and must therefore
/// grow with offered load once the rack queues — the property every
/// latency-vs-load sweep rung rests on.
#[test]
fn open_loop_latency_grows_with_offered_load() {
    let p99_at = |rate_per_sec: f64| {
        let (mut runtime, mut app) = PulseBuilder::new()
            .nodes(2)
            .cpus(2)
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        let mut driver = OpenLoopDriver::new(ArrivalProcess::poisson(rate_per_sec, 5));
        let rep = driver.run(&mut runtime, reqs).unwrap();
        assert_eq!(rep.completed, 300);
        rep.latency.p99
    };
    let light = p99_at(50_000.0);
    let heavy = p99_at(5_000_000.0); // far past the rack's capacity
    assert!(
        heavy > light * 2,
        "queueing must surface under load: light {light} heavy {heavy}"
    );
}

/// The baseline engines answer the same open-loop calls behind the shared
/// `Engine` trait, with sane report shape.
#[test]
fn baseline_engine_runs_open_loop_behind_the_trait() {
    let cfg = WebServiceConfig {
        keys: 2_000,
        ..Default::default()
    };
    let (mut engine, mut app) = PulseBuilder::new()
        .nodes(2)
        .window(8)
        .baseline_app(
            pulse::BaselineKind::Rpc(pulse::baselines::RpcConfig::rpc()),
            cfg,
        )
        .unwrap();
    let reqs: Vec<AppRequest> = (0..200).map(|_| app.next_request()).collect();
    let rep = engine
        .execute_open_loop(&reqs, ArrivalProcess::poisson(100_000.0, 5))
        .unwrap();
    assert_eq!(rep.label, "RPC");
    assert_eq!(rep.completed, 200);
    assert!((rep.offered_per_sec - 100_000.0).abs() < 1e-6);
    assert!(rep.latency.p50 <= rep.latency.p95 && rep.latency.p95 <= rep.latency.p99);
    assert!(rep.throughput > 0.0);
    assert!(rep.last_completion > rep.first_arrival);
}

/// Every baseline kind names itself once: the engine's label, the label of
/// an empty-stream open-loop report and that of a non-empty one agree.
#[test]
fn baseline_labels_agree_for_every_kind() {
    use pulse::baselines::{RpcConfig, SwapConfig};
    use pulse::BaselineKind;
    let kinds = [
        (
            BaselineKind::SwapCache(SwapConfig::default()),
            "Cache-based",
        ),
        (BaselineKind::Rpc(RpcConfig::rpc()), "RPC"),
        (BaselineKind::Rpc(RpcConfig::rpc_arm()), "RPC-ARM"),
        (
            BaselineKind::Rpc(RpcConfig::cache_rpc(1 << 20)),
            "Cache+RPC",
        ),
    ];
    for (kind, label) in kinds {
        let build = || {
            PulseBuilder::new()
                .baseline_app(
                    kind.clone(),
                    WebServiceConfig {
                        keys: 200,
                        ..Default::default()
                    },
                )
                .unwrap()
        };
        let (mut engine, mut app) = build();
        let reqs: Vec<AppRequest> = (0..20).map(|_| app.next_request()).collect();
        let full = engine
            .execute_open_loop(&reqs, ArrivalProcess::poisson(50_000.0, 3))
            .unwrap();
        let (mut idle, _) = build();
        let empty = idle
            .execute_open_loop(&[], ArrivalProcess::poisson(50_000.0, 3))
            .unwrap();
        assert_eq!(engine.label(), label);
        assert_eq!(empty.label, label);
        assert_eq!(full.label, label);
    }
}

/// The documented panic of `TraversalStage::init_state` is now a typed
/// error: submit rejects the malformed request up front, and the
/// functional executor reports it as `Error::Exec`.
#[test]
fn malformed_requests_surface_typed_errors() {
    let (mut runtime, map) = PulseBuilder::new()
        .nodes(1)
        .build_with(|ctx| pulse::ds::HashMapDs::build(ctx, 4, &[(1, 2), (3, 4)]))
        .unwrap();
    let offloaded = Offloaded::compile(map, &DispatchEngine::default()).unwrap();
    let good = offloaded.request(1).unwrap();

    // A first stage chained off a nonexistent predecessor.
    let mut bad = good.clone();
    bad.traversals[0].start = StartPtr::FromPrevScratch(0);
    match runtime.submit(bad.clone()) {
        Err(Error::Request(RequestError::MissingPrevState)) => {}
        other => panic!("expected typed request error, got {other:?}"),
    }

    // The same malformed wiring through the functional executor.
    let err = runtime.execute_functional(&bad).unwrap_err();
    assert!(matches!(err, Error::Exec(_)), "{err:?}");

    // Sanity: the well-formed request still completes.
    runtime.submit(good).unwrap();
    let done = runtime.poll();
    assert_eq!(done.len(), 1);
    assert!(done[0].ok);
}

/// Builder parameter validation lands in `Error::Config`, not a panic.
#[test]
fn builder_rejects_invalid_wiring() {
    let err = PulseBuilder::new()
        .nodes(0)
        .build_with(|_| Ok(()))
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err:?}");
    let err = PulseBuilder::new()
        .window(0)
        .build_with(|_| Ok(()))
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err:?}");
}

/// Manually staged multi-stage requests flow through submit/poll with
/// results identical to the functional executor (the WiredTiger shape:
/// descend then scan).
#[test]
fn staged_requests_complete_through_the_runtime() {
    use pulse::dispatch::samples::btree_layout;
    use pulse::ds::{wt_layout, TreePlacement, WiredTigerTree};

    let pairs: Vec<(u64, u64)> = (0..20_000).map(|k| (k * 2, k)).collect();
    let (mut runtime, tree) = PulseBuilder::new()
        .nodes(2)
        .window(8)
        .build_with(|ctx| WiredTigerTree::build(ctx, &pairs, TreePlacement::Policy))
        .unwrap();
    let locate = Arc::new(pulse::dispatch::compile(&WiredTigerTree::locate_spec()).unwrap());
    let scan = Arc::new(pulse::dispatch::compile(&WiredTigerTree::scan_spec()).unwrap());

    let mk = |start: u64, limit: u64| AppRequest {
        traversals: vec![
            TraversalStage {
                program: locate.clone(),
                start: StartPtr::Fixed(tree.root()),
                scratch_init: vec![(btree_layout::SP_KEY, start)],
            },
            TraversalStage {
                program: scan.clone(),
                start: StartPtr::FromPrevScratch(btree_layout::SP_LEAF),
                scratch_init: vec![
                    (wt_layout::SP_START, start),
                    (wt_layout::SP_REMAIN, limit),
                    (wt_layout::SP_MATCHED, 0),
                ],
            },
        ],
        object_io: None,
        cpu_work: SimTime::ZERO,
        response_extra_bytes: 0,
        retry: None,
    };

    let cases = [(100u64, 25u64), (39_990, 50), (0, 10)];
    let mut expected = Vec::new();
    for &(start, limit) in &cases {
        let req = mk(start, limit);
        let truth =
            execute_functional(&mut Interpreter::new(), runtime.memory_mut(), &req, 1 << 20)
                .unwrap();
        expected.push(
            truth
                .response
                .final_state
                .unwrap()
                .scratch_u64(wt_layout::SP_MATCHED as usize),
        );
        runtime.submit(req).unwrap();
    }
    let mut seen = 0;
    loop {
        let done = runtime.poll();
        if done.is_empty() {
            break;
        }
        for c in done {
            let idx = c.id.seq as usize;
            let matched = c
                .final_state
                .as_ref()
                .unwrap()
                .scratch_u64(wt_layout::SP_MATCHED as usize);
            assert_eq!(matched, expected[idx], "case {idx}");
            seen += 1;
        }
    }
    assert_eq!(seen, cases.len());
}

/// An explicitly empty fault schedule at replication 1 is the default
/// rack: byte-for-byte identical reports. The default side is pinned to
/// the golden trace numbers elsewhere in this file, so this proves the
/// whole replication/fault layer prices nothing until it is switched on.
#[test]
fn no_faults_at_replication_1_is_bit_identical_to_default() {
    let run = |builder: PulseBuilder| {
        let (mut runtime, mut app) = builder
            .nodes(2)
            .granularity(1 << 20)
            .window(8)
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        for _ in 0..120 {
            runtime.submit(app.next_request()).unwrap();
        }
        runtime.drain()
    };
    let default = run(PulseBuilder::new());
    let explicit = run(PulseBuilder::new().replication(1).faults(vec![]));
    assert_eq!(default.makespan, explicit.makespan);
    assert_eq!(default.net_bytes, explicit.net_bytes);
    assert_eq!(default.mem_bytes, explicit.mem_bytes);
    assert_eq!(default.iterations, explicit.iterations);
    assert_eq!(default.latency.mean, explicit.latency.mean);
    assert_eq!(default.latency.p99, explicit.latency.p99);
    assert_eq!(default.failovers, 0);
    assert_eq!(explicit.failovers, 0);
    assert_eq!(explicit.unavailable_completions, 0);
    assert_eq!(explicit.rereplication_bytes, 0);
    assert_eq!(explicit.degraded_p99, SimTime::ZERO);
}

/// The SLO-under-failure story through the façade: a mid-run crash at
/// replication 2 degrades the open-loop stream (failovers, background
/// re-replication on a 3-node rack) but loses nothing; the same crash at
/// replication 1 makes requests unavailable.
#[test]
fn open_loop_crash_degrades_but_replication_keeps_service() {
    use pulse::{FaultEvent, FaultKind};
    let run = |replication: usize| {
        let (mut runtime, mut app) = PulseBuilder::new()
            .nodes(3)
            .granularity(4096)
            .replication(replication)
            .faults(vec![FaultEvent::new(
                SimTime::from_micros(30),
                FaultKind::MemCrash(0),
            )])
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..150).map(|_| app.next_request()).collect();
        OpenLoopDriver::new(ArrivalProcess::uniform(300_000.0))
            .run(&mut runtime, reqs)
            .unwrap()
    };
    let replicated = run(2);
    assert_eq!(replicated.completed, 150, "nothing lost at replication 2");
    assert_eq!(replicated.unavailable_completions, 0);
    assert!(replicated.failovers > 0);
    assert!(replicated.rereplication_bytes > 0);
    assert!(replicated.degraded_p99 > SimTime::ZERO);

    let bare = run(1);
    assert!(bare.unavailable_completions > 0, "no replicas to save it");
    assert_eq!(bare.faulted, bare.unavailable_completions);
    assert_eq!(bare.completed + bare.faulted, 150);
    assert_eq!(bare.rereplication_bytes, 0);
}

/// Builder validation for the fault layer: zero replication and faults
/// naming nodes outside the rack are configuration errors, not panics.
#[test]
fn builder_rejects_bad_fault_wiring() {
    use pulse::{FaultEvent, FaultKind};
    let err = PulseBuilder::new()
        .nodes(2)
        .replication(0)
        .app(WebServiceConfig::default())
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err:?}");
    let err = PulseBuilder::new()
        .nodes(2)
        .faults(vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(5))])
        .app(WebServiceConfig::default())
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err:?}");
}

/// Rack memory is backed where it is written, not where it is mapped.
/// The WebService deployment of perfbench and the sweep (6 000 keys of
/// 8 KiB objects, 2 nodes, 2 MiB extents) maps 48 MiB, but its build
/// writes only a few words per key.
#[test]
fn webservice_backs_a_fraction_of_what_it_maps() {
    let (runtime, _app) = PulseBuilder::new()
        .nodes(2)
        .cpus(2)
        .granularity(2 << 20)
        .app(WebServiceConfig {
            keys: 6_000,
            ..Default::default()
        })
        .unwrap();
    let mem = runtime.memory();
    let mapped: u64 = (0..mem.node_count()).map(|n| mem.node_bytes(n)).sum();
    let backed = mem.backed_bytes();
    assert!(mapped >= 48 << 20, "mapped {mapped} B");
    assert!(backed < 4 << 20, "backed {backed} B of {mapped} B mapped");
}
