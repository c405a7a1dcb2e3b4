//! Bit-level reproducibility: the property every regenerated table rests
//! on. Identical configurations must produce identical reports across the
//! whole stack — the `Runtime` façade, baselines, and workload generation.

use pulse::ds::BuildCtx;
use pulse::mem::{ClusterAllocator, ClusterMemory};
use pulse::workloads::{Application, ArrivalProcess, WiredTiger, WiredTigerConfig};
use pulse::{
    AppRequest, OpenLoopDriver, Placement, PulseBuilder, PulseMode, RpcFlavor, Runtime,
    WebServiceConfig,
};

fn webservice_runtime(nodes: usize, window: usize) -> (Runtime, Vec<AppRequest>) {
    let (runtime, mut app) = PulseBuilder::new()
        .nodes(nodes)
        .placement(Placement::Striped)
        .granularity(1 << 20)
        .window(window)
        .app(WebServiceConfig {
            keys: 2_000,
            ..Default::default()
        })
        .unwrap();
    let reqs = (0..100).map(|_| app.next_request()).collect();
    (runtime, reqs)
}

#[test]
fn runtime_drains_are_bit_identical() {
    let run = || {
        let (mut runtime, reqs) = webservice_runtime(3, 8);
        for r in reqs {
            runtime.submit(r).unwrap();
        }
        let r = runtime.drain();
        (
            r.latency.mean.as_picos(),
            r.latency.p99.as_picos(),
            r.makespan.as_picos(),
            r.crossings,
            r.net_bytes,
            r.mem_bytes,
            r.iterations,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn submit_poll_interleaving_is_deterministic_too() {
    // Submitting everything up front and draining must equal submitting
    // incrementally while polling — the admission schedule only depends on
    // completion times, which are simulated, not wall-clock.
    let drained = {
        let (mut runtime, reqs) = webservice_runtime(2, 4);
        for r in reqs {
            runtime.submit(r).unwrap();
        }
        runtime.drain()
    };
    let polled = {
        let (mut runtime, reqs) = webservice_runtime(2, 4);
        let mut reqs = reqs.into_iter();
        // Prime the window, then feed one request per completion.
        for _ in 0..4 {
            runtime.submit(reqs.next().unwrap()).unwrap();
        }
        loop {
            let done = runtime.poll();
            if done.is_empty() {
                break;
            }
            for _ in done {
                if let Some(r) = reqs.next() {
                    runtime.submit(r).unwrap();
                }
            }
        }
        runtime.report()
    };
    assert_eq!(drained.completed, polled.completed);
    assert_eq!(drained.makespan, polled.makespan);
    assert_eq!(drained.latency.mean, polled.latency.mean);
    assert_eq!(drained.net_bytes, polled.net_bytes);
    assert_eq!(drained.iterations, polled.iterations);
}

#[test]
fn multi_cpu_runs_have_identical_completion_order_and_report() {
    // Same seed + same config ⇒ the same completion order (ids and finish
    // times) and the same ClusterReport, for 1-, 2-, and 4-CPU racks.
    for cpus in [1usize, 2, 4] {
        let run = || {
            let (mut runtime, mut app) = PulseBuilder::new()
                .nodes(2)
                .cpus(cpus)
                .placement(Placement::Striped)
                .granularity(1 << 20)
                .window(8)
                .app(WebServiceConfig {
                    keys: 2_000,
                    ..Default::default()
                })
                .unwrap();
            for _ in 0..100 {
                runtime.submit(app.next_request()).unwrap();
            }
            let mut order = Vec::new();
            loop {
                let done = runtime.poll();
                if done.is_empty() {
                    break;
                }
                order.extend(
                    done.into_iter()
                        .map(|c| (c.id.cpu, c.id.seq, c.finished_at.as_picos(), c.ok)),
                );
            }
            let r = runtime.report();
            (
                order,
                r.completed,
                r.latency.mean.as_picos(),
                r.latency.p95.as_picos(),
                r.makespan.as_picos(),
                r.net_bytes,
                r.mem_bytes,
                r.iterations,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.1, 100, "cpus={cpus}: all complete");
        assert!(
            a.0.iter().all(|&(cpu, ..)| cpu < cpus),
            "cpus={cpus}: id names a CPU outside the rack"
        );
        assert_eq!(a, b, "cpus={cpus}");
    }
}

#[test]
fn open_loop_runs_are_bit_identical() {
    let run = || {
        let (mut runtime, mut app) = PulseBuilder::new()
            .nodes(2)
            .cpus(2)
            .granularity(1 << 20)
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..120).map(|_| app.next_request()).collect();
        let mut driver = OpenLoopDriver::new(ArrivalProcess::poisson(150_000.0, 11));
        let rep = driver.run(&mut runtime, reqs).unwrap();
        (
            rep.completed,
            rep.faulted,
            rep.latency.p50.as_picos(),
            rep.latency.p95.as_picos(),
            rep.latency.p99.as_picos(),
            rep.first_arrival.as_picos(),
            rep.last_completion.as_picos(),
            (rep.throughput * 1e6) as u64,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn baseline_runs_are_bit_identical() {
    let run = |mode: PulseMode| {
        let (mut engine, mut app) = PulseBuilder::new()
            .nodes(2)
            .placement(Placement::Striped)
            .granularity(1 << 20)
            .window(8)
            .mode(mode)
            .app(WebServiceConfig {
                keys: 2_000,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..100).map(|_| app.next_request()).collect();
        let m = engine.execute(&reqs).unwrap();
        (
            m.latency.mean.as_picos(),
            m.latency.p99.as_picos(),
            m.net_bytes,
            m.mem_bytes,
            m.makespan.as_picos(),
        )
    };
    for mode in [
        PulseMode::Swap {
            cache_bytes: 64 << 20,
        },
        PulseMode::Rpc(RpcFlavor::Rpc),
    ] {
        assert_eq!(run(mode), run(mode));
    }
}

#[test]
fn request_streams_are_seed_stable() {
    // Same seed => same request stream; different seed => different.
    let stream = |seed: u64| {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 20);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let mut app = WiredTiger::build(
            &mut ctx,
            WiredTigerConfig {
                keys: 5_000,
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        (0..50)
            .map(|_| {
                let r = app.next_request();
                (
                    r.traversals.len(),
                    r.traversals[0].scratch_init[0].1,
                    r.response_extra_bytes,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));
}
