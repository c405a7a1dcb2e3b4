//! The baselines on the rack's event engine: RPC (`PulseMode::Rpc`) and
//! the Cache-based system (`PulseMode::Swap`), each one builder mode.
//! Pricing regressions, the comparisons the paper draws, faults handled by
//! the rack, traces, and the functional oracle.

use pulse::ds::{BuildCtx, TreePlacement};
use pulse::isa::{Interpreter, MemBus};
use pulse::mem::{ClusterAllocator, ClusterMemory};
use pulse::sim::SimTime;
use pulse::trace::Phase;
use pulse::workloads::{
    execute_functional, Application, Btrdb, Distribution, WebService, WiredTiger,
};
use pulse::{
    AppRequest, ArrivalProcess, BtrdbConfig, CacheConfig, ClusterConfig, DispatchConfig,
    FaultEvent, FaultKind, MutationConfig, OpenLoopDriver, OpenLoopReport, Placement, PulseBuilder,
    PulseCluster, PulseMode, RpcFlavor, Runtime, TopologySpec, TraceConfig, WebServiceConfig,
    WiredTigerConfig, YcsbDriver, YcsbWorkload,
};

const LEAF_SPINE: TopologySpec = TopologySpec::LeafSpine {
    leaves: 2,
    spines: 2,
};

const RPC: PulseMode = PulseMode::Rpc(RpcFlavor::Rpc);

/// A builder in mode `mode`.
fn rack(mode: PulseMode) -> PulseBuilder {
    PulseBuilder::new().mode(mode)
}

/// `rack` over a 4-node, 1 MiB-striped WebService deployment with 16
/// clients, and 300 requests of its stream.
fn webservice_engine(rack: PulseBuilder, cfg: WebServiceConfig) -> (Runtime, Vec<AppRequest>) {
    let (engine, mut app) = rack
        .nodes(4)
        .granularity(1 << 20)
        .window(16)
        .app(cfg)
        .unwrap();
    let reqs = (0..300).map(|_| app.next_request()).collect();
    (engine, reqs)
}

/// [`webservice_engine`] over 4 000 keys of 8 KiB Zipfian objects.
fn rpc(rack: PulseBuilder) -> (Runtime, Vec<AppRequest>) {
    let app = WebServiceConfig {
        keys: 4_000,
        ..Default::default()
    };
    webservice_engine(rack, app)
}

fn closed_loop(rack: PulseBuilder) -> pulse::RunMetrics {
    let (mut engine, reqs) = rpc(rack);
    engine.execute(&reqs).unwrap()
}

/// `requests` through `engine` in open loop.
fn open_loop(
    engine: &mut Runtime,
    requests: &[AppRequest],
    arrivals: ArrivalProcess,
) -> OpenLoopReport {
    OpenLoopDriver::new(arrivals)
        .run(engine, requests.to_vec())
        .unwrap()
}

fn crash_at_zero() -> Vec<FaultEvent> {
    vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))]
}

/// Requests `i` arriving at `gap_ns * (i + 1)`.
fn evenly(gap_ns: u64, n: usize) -> ArrivalProcess {
    ArrivalProcess::trace(vec![SimTime::from_nanos(gap_ns); n])
}

/// The routed-replay regression: the analytic RPC booked every leg of a
/// request at admission, so on a leaf-spine rack a request arriving 1 µs
/// after another queued behind legs booked for the future and completed
/// +24.47 µs late. On the rack each hop books its link when the frame
/// gets there: two requests 1 µs apart cost the second one at most 1 µs
/// over its solo latency, flat or routed.
#[test]
fn two_requests_a_microsecond_apart_price_like_solo() {
    for topology in [LEAF_SPINE, TopologySpec::Flat] {
        let run = |copies: usize| {
            let (mut engine, mut app) = rack(RPC)
                .nodes(4)
                .granularity(2 << 20)
                .topology(topology)
                .app(WebServiceConfig {
                    keys: 6_000,
                    ..Default::default()
                })
                .unwrap();
            let req = app.next_request();
            let reqs = vec![req; copies];
            let gaps = [SimTime::ZERO, SimTime::from_micros(1)];
            let arrivals = ArrivalProcess::trace(gaps[..copies].to_vec());
            open_loop(&mut engine, &reqs, arrivals)
        };
        let solo = run(1).latency.max;
        let pair = run(2);
        assert_eq!(pair.completed, 2);
        assert!(
            pair.latency.max <= solo + SimTime::from_micros(1),
            "{topology:?}: the second request took {} against {solo} alone",
            pair.latency.max
        );
    }
}

#[test]
fn rpc_arm_is_slower_than_rpc() {
    let rpc = closed_loop(rack(RPC));
    let arm = closed_loop(rack(PulseMode::Rpc(RpcFlavor::RpcArm)));
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
    let rpc = closed_loop(rack(RPC));
    let aifm = closed_loop(rack(PulseMode::Rpc(RpcFlavor::CacheRpc {
        cache_bytes: 4 << 20,
    })));
    // §6.1: "Cache+RPC incurs higher latency than RPC ... and does not
    // outperform RPC".
    assert!(
        aifm.latency.mean.as_nanos_f64() >= rpc.latency.mean.as_nanos_f64() * 0.9,
        "aifm {} rpc {}",
        aifm.latency.mean,
        rpc.latency.mean
    );
    // The object cache is there and hits: hot objects never cross the
    // wire again, so the skewed stream moves fewer bytes than plain RPC.
    assert!(
        aifm.net_bytes < rpc.net_bytes,
        "aifm {} rpc {}",
        aifm.net_bytes,
        rpc.net_bytes
    );
}

#[test]
fn open_loop_latency_grows_with_offered_load() {
    let p99_at = |gap_ns: u64| {
        let (mut engine, reqs) = rpc(rack(RPC));
        let arrivals = evenly(gap_ns, reqs.len());
        open_loop(&mut engine, &reqs, arrivals).latency.p99
    };
    let light = p99_at(200_000); // 5 kops offered
    let heavy = p99_at(200); // 5 Mops offered, far past the 16 clients
    assert!(
        heavy > light * 2,
        "queueing must appear under load: light {light} heavy {heavy}"
    );
}

#[test]
fn open_loop_at_light_load_matches_unloaded_latency() {
    let (mut engine, reqs) = rpc(rack(RPC));
    let n = reqs.len();
    let closed = rack(RPC)
        .nodes(4)
        .granularity(1 << 20)
        .window(1)
        .app(WebServiceConfig {
            keys: 4_000,
            ..Default::default()
        })
        .unwrap()
        .0
        .execute(&reqs)
        .unwrap();
    let open = open_loop(&mut engine, &reqs, evenly(500_000, n));
    // So sparse that no request ever queues: the same latencies as one
    // client in closed loop.
    let ratio = open.latency.mean.as_nanos_f64() / closed.latency.mean.as_nanos_f64();
    assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
}

/// The §6 story the extended evaluation tells: the RPC baseline's
/// CPU-side request dispatch is a serial resource, and offering load past
/// its service rate collapses the tail. 200 kops offered against a 50 kops
/// dispatch engine must blow p99 up and shed goodput.
#[test]
fn contended_dispatch_collapses_rpc_under_load() {
    let run = |dispatch| {
        let (mut engine, reqs) = rpc(rack(RPC).dispatch(dispatch));
        let arrivals = evenly(5_000, reqs.len());
        open_loop(&mut engine, &reqs, arrivals)
    };
    let free = run(DispatchConfig::default());
    let contended = run(DispatchConfig::contended(SimTime::from_micros(20), 1));
    assert!(
        contended.latency.p99 > free.latency.p99 * 2,
        "dispatch saturation must surface in the tail: free {} contended {}",
        free.latency.p99,
        contended.latency.p99
    );
    assert!(contended.throughput < free.throughput);
}

/// A mixed stream of seqlock-verified reads and locked update traversals
/// runs through RPC: the updates really mutate the rack's memory, and
/// their write trips are priced (the mixed stream moves at least as many
/// DRAM bytes as a read-only one).
#[test]
fn mixed_write_traversals_run_through_rpc() {
    use pulse::mutation::{locked_update_stage, retrying_request, verified_read_stage};
    use std::sync::Arc;

    let build = || {
        rack(RPC)
            .nodes(2)
            .window(8)
            .build_with(|ctx| {
                let pairs: Vec<(u64, u64)> = (0..512).map(|k| (k, k)).collect();
                pulse::ds::HashMapDs::build_partitioned(ctx, 8, &pairs, 2)
            })
            .unwrap()
    };
    let find = Arc::new(pulse::mutation::verified_find_program());
    let update = Arc::new(pulse::mutation::locked_update_program());
    let mc = MutationConfig::default();
    let (mut ro_engine, map) = build();
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
    let ro = ro_engine.execute(&reads).unwrap();
    let (mut rw_engine, map) = build();
    let rw = rw_engine.execute(&mixed).unwrap();
    assert_eq!(rw.completed, 100);
    assert!(
        rw.mem_bytes >= ro.mem_bytes,
        "write trips must be priced: ro {} rw {}",
        ro.mem_bytes,
        rw.mem_bytes
    );
    let mem = rw_engine.memory_mut();
    assert_eq!(map.get_host(mem, 42).unwrap(), Some(42 + 7_000));
    assert_eq!(map.get_host(mem, 43).unwrap(), Some(43));
}

/// Chains striped over 4 KiB extents cross nodes, and every crossing
/// bounces through the CPU node. On a routed rack every request, bounce
/// and reply is a hop-by-hop fabric trip, so the CPU down-link is busy;
/// the flat rack reports no fabric gauges.
#[test]
fn routed_rpc_prices_bounces_on_the_cpu_downlink() {
    let run = |topology| {
        let (mut engine, mut app) = rack(RPC)
            .nodes(4)
            .granularity(4096)
            .window(16)
            .topology(topology)
            .app(WebServiceConfig {
                keys: 2_000,
                partition_by_bucket: false,
                ..Default::default()
            })
            .unwrap();
        let reqs: Vec<AppRequest> = (0..200).map(|_| app.next_request()).collect();
        engine.execute(&reqs).unwrap()
    };
    let flat = run(TopologySpec::Flat);
    let routed = run(LEAF_SPINE);
    assert_eq!(flat.link_utilization, 0.0);
    assert_eq!(flat.queue_depth, 0);
    assert_eq!(routed.completed, flat.completed);
    assert!(routed.link_utilization > 0.0);
    assert!(routed.net_bytes > 0);
    assert!(
        routed.latency.mean >= flat.latency.mean,
        "more hops cannot make requests faster: flat {} routed {}",
        flat.latency.mean,
        routed.latency.mean
    );
}

/// The Fig. 7 order on a 200 000-key uniform WebService whose index
/// misses a 1 MiB page cache: the Cache-based system is many times slower
/// than RPC.
#[test]
fn swap_cache_is_orders_of_magnitude_slower_than_rpc() {
    let app = WebServiceConfig {
        keys: 200_000,
        object_bytes: 512,
        distribution: Distribution::Uniform,
        ..Default::default()
    };
    let run = |mode| {
        let (mut engine, reqs) = webservice_engine(rack(mode), app);
        engine.execute(&reqs).unwrap()
    };
    let swap = run(PulseMode::Swap {
        cache_bytes: 1 << 20,
    });
    let rpc = run(RPC);
    let ratio = swap.latency.mean.as_nanos_f64() / rpc.latency.mean.as_nanos_f64();
    assert!(ratio > 5.0, "swap/rpc latency ratio {ratio}");
    assert!(swap.throughput < rpc.throughput);
}

/// A crash under replication 2: the rack fails RPC's packets over to the
/// surviving replicas, every request completes, and the crash starts
/// rebuilding the lost replicas.
#[test]
fn rpc_crash_with_replication_fails_over_and_rebuilds() {
    let (mut engine, reqs) = rpc(rack(RPC).replication(2));
    let clean = engine.execute(&reqs).unwrap();
    let (mut engine, reqs) = rpc(rack(RPC).replication(2).faults(crash_at_zero()));
    let faulted = engine.execute(&reqs).unwrap();
    assert_eq!(faulted.completed, clean.completed);
    assert_eq!(faulted.unavailable_completions, 0);
    assert!(faulted.failovers > 0);
    assert!(faulted.rereplication_bytes > 0);
    assert!(faulted.degraded_p99 > SimTime::ZERO);
    assert_eq!(clean.failovers, 0);
    assert_eq!(clean.rereplication_bytes, 0);
    assert_eq!(clean.degraded_p99, SimTime::ZERO);
}

/// Degraded-window latency is measured from arrival, like the latency
/// histogram: with a crash at t=0 that never heals, every completion lands
/// inside the window, so under a load that queues for the 16 clients the
/// degraded p99 equals the run's p99, queueing included.
#[test]
fn open_loop_degraded_p99_counts_queueing() {
    let (mut engine, reqs) = rpc(rack(RPC).replication(2).faults(crash_at_zero()));
    let rep = open_loop(&mut engine, &reqs, evenly(50, reqs.len()));
    assert_eq!(rep.completed, reqs.len() as u64);
    assert!(rep.failovers > 0);
    assert!(
        rep.latency.p99 > rep.latency.min * 2,
        "the load must queue: {:?}",
        rep.latency
    );
    assert_eq!(rep.degraded_p99, rep.latency.p99);
}

#[test]
fn rpc_crash_without_replication_loses_requests() {
    let (mut engine, reqs) = rpc(rack(RPC).faults(crash_at_zero()));
    let faulted = engine.execute(&reqs).unwrap();
    assert!(faulted.unavailable_completions > 0);
    assert_eq!(
        faulted.completed + faulted.unavailable_completions,
        reqs.len() as u64
    );
    assert_eq!(faulted.rereplication_bytes, 0, "nothing to rebuild from");
}

/// A node unreachable early in the run and healed later: requests needing
/// it inside the window are lost (no replicas), later ones complete, and
/// nothing counts as a failover at replication 1.
#[test]
fn rpc_partition_heal_restores_service() {
    let (mut engine, reqs) = rack(RPC)
        .nodes(4)
        .granularity(1 << 20)
        .window(2)
        .faults(vec![
            FaultEvent::new(SimTime::ZERO, FaultKind::LinkPartition(1)),
            FaultEvent::new(SimTime::from_micros(200), FaultKind::LinkHeal(1)),
        ])
        .app(WebServiceConfig {
            keys: 4_000,
            ..Default::default()
        })
        .map(|(engine, mut app)| {
            let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
            (engine, reqs)
        })
        .unwrap();
    let faulted = engine.execute(&reqs).unwrap();
    assert!(faulted.unavailable_completions > 0);
    assert!(faulted.completed > 0);
    assert_eq!(faulted.failovers, 0);
}

#[test]
fn traced_rpc_attributes_phases_without_perturbing_timing() {
    let plain = closed_loop(rack(RPC));
    let (mut engine, reqs) = rpc(rack(RPC).trace(Some(TraceConfig::default())));
    let traced = engine.execute(&reqs).unwrap();
    assert!(plain.phase.is_none(), "tracing is off by default");
    assert_eq!(plain.latency.mean, traced.latency.mean);
    assert_eq!(plain.latency.p99, traced.latency.p99);
    let attr = traced.phase.expect("attribution recorded");
    assert_eq!(attr.count, reqs.len() as u64);
    // Per-phase means partition the mean latency (each mean floors picos
    // independently, so the sum may undershoot by < PHASES ps).
    let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
    let e2e = traced.latency.mean.as_picos();
    assert!(
        sum <= e2e && e2e - sum < pulse::trace::PHASES as u64,
        "phase means {sum} ps vs mean latency {e2e} ps"
    );
    assert!(attr.mean_of(Phase::WireHop) > SimTime::ZERO);
    assert!(attr.mean_of(Phase::MemTrip) > SimTime::ZERO);
    assert_eq!(attr.mean_of(Phase::AccelCompute), SimTime::ZERO);
    assert!(engine.trace().is_some());
}

/// No replication and an immediate crash: some requests dead-end as
/// unavailable, and their notices land in `Failover`.
#[test]
fn traced_rpc_dead_end_counts_failover_phase() {
    let (mut engine, reqs) = rpc(rack(RPC)
        .faults(crash_at_zero())
        .trace(Some(TraceConfig::default())));
    let rep = engine.execute(&reqs).unwrap();
    assert!(rep.unavailable_completions > 0);
    let attr = rep.phase.expect("attribution recorded");
    assert!(attr.mean_of(Phase::Failover) > SimTime::ZERO);
}

/// Every completion of every RPC flavour and of the Cache-based system,
/// flat or routed, with the front-end cache off or on, carries exactly
/// the final state the functional executor computes — over WebService,
/// WiredTiger and BTrDB laid out in small extents, so that RPC traversals
/// bounce between nodes and swap pages come from every node.
#[test]
fn rpc_completions_match_the_functional_oracle() {
    type Build = fn(&mut BuildCtx<'_>) -> Box<dyn Application>;
    let apps: [(&str, u64, Build); 3] = [
        ("webservice", 4096, |ctx| {
            Box::new(
                WebService::build(
                    ctx,
                    WebServiceConfig {
                        keys: 2_000,
                        partition_by_bucket: false,
                        ..Default::default()
                    },
                )
                .unwrap(),
            )
        }),
        ("wiredtiger", 32 << 10, |ctx| {
            Box::new(
                WiredTiger::build(
                    ctx,
                    WiredTigerConfig {
                        keys: 20_000,
                        placement: TreePlacement::Policy,
                        ..Default::default()
                    },
                )
                .unwrap(),
            )
        }),
        ("btrdb", 32 << 10, |ctx| {
            Box::new(
                Btrdb::build(
                    ctx,
                    BtrdbConfig {
                        duration_secs: 600,
                        window_secs: 8,
                        placement: TreePlacement::Policy,
                        ..Default::default()
                    },
                )
                .unwrap(),
            )
        }),
    ];
    let modes = [
        PulseMode::Rpc(RpcFlavor::Rpc),
        PulseMode::Rpc(RpcFlavor::RpcArm),
        PulseMode::Rpc(RpcFlavor::CacheRpc {
            cache_bytes: 1 << 20,
        }),
        PulseMode::Swap {
            cache_bytes: 256 << 10,
        },
    ];
    for (name, granularity, build) in apps {
        for mode in modes {
            for topology in [TopologySpec::Flat, LEAF_SPINE] {
                for cache in [CacheConfig::disabled(), CacheConfig::sized(1 << 20)] {
                    let tag = format!("{name} {mode:?} {topology:?} cache {}", cache.enabled());
                    let mut mem = ClusterMemory::new(4);
                    let mut alloc = ClusterAllocator::new(Placement::Striped, granularity);
                    let mut app = build(&mut BuildCtx::new(&mut mem, &mut alloc));
                    let reqs: Vec<AppRequest> = (0..40).map(|_| app.next_request()).collect();
                    let expected: Vec<_> = reqs
                        .iter()
                        .map(|r| {
                            let run =
                                execute_functional(&mut Interpreter::new(), &mut mem, r, 1 << 20)
                                    .unwrap();
                            run.response.final_state.map(|s| s.scratch)
                        })
                        .collect();
                    let cfg = ClusterConfig {
                        mode,
                        topology,
                        cache,
                        ..ClusterConfig::default()
                    };
                    let mut cluster = PulseCluster::new(cfg, mem);
                    let ids: Vec<_> = reqs
                        .into_iter()
                        .enumerate()
                        .map(|(i, r)| cluster.submit_at(SimTime::from_nanos(300 * i as u64), r))
                        .collect();
                    let mut done = Vec::new();
                    while cluster.step() {
                        done.extend(cluster.take_completions());
                    }
                    assert_eq!(done.len(), ids.len(), "{tag}");
                    for c in done {
                        let i = ids.iter().position(|&id| id == c.id).expect("submitted");
                        assert!(c.ok, "{tag}: request {i} faulted");
                        let got = c.final_state.map(|s| s.scratch);
                        assert_eq!(got, expected[i], "{tag}: request {i}");
                    }
                    if let PulseMode::Swap { .. } = mode {
                        assert!(cluster.swap_stats().misses > 0, "{tag}: no page read");
                    } else if name == "webservice" {
                        assert!(cluster.report().crossings > 0, "{tag}: no bounce");
                    }
                }
            }
        }
    }
}

/// YCSB-A through RPC with no faults: after the drain no bucket's seqlock
/// is left odd, and every update submitted completed.
#[test]
fn ycsb_a_on_rpc_releases_every_lock_and_completes_every_update() {
    let cfg = WebServiceConfig {
        keys: 2_000,
        workload: YcsbWorkload::A,
        ..Default::default()
    };
    let (mut engine, app) = rack(RPC).nodes(2).window(16).app(cfg).unwrap();
    let buckets: Vec<u64> = (0..cfg.keys).map(|k| app.map().bucket_addr(k)).collect();
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
    let reqs: Vec<AppRequest> = (0..400)
        .map(|_| driver.next_request(engine.memory_mut()))
        .collect();
    let updates = reqs.iter().filter(|r| r.is_update()).count() as u64;
    assert!(updates > 0);
    let rep = open_loop(&mut engine, &reqs, ArrivalProcess::poisson(400_000.0, 11));
    assert_eq!(rep.completed, reqs.len() as u64);
    assert_eq!(rep.completed_updates, updates);
    for b in buckets {
        let version = engine.memory_mut().read_word(b + 8, 8).unwrap();
        assert_eq!(version % 2, 0, "bucket {b:#x} left locked");
    }
}

// ------------------------------------------------------------ Cache-based

/// `rack` over a 4-node, 1 MiB-striped WebService deployment of `keys`
/// keys, with 8 clients, and 300 requests of its stream.
fn swap_engine(
    rack: PulseBuilder,
    keys: u64,
    object_bytes: u32,
    distribution: Distribution,
) -> (Runtime, Vec<AppRequest>) {
    let (engine, mut app) = rack
        .nodes(4)
        .granularity(1 << 20)
        .window(8)
        .app(WebServiceConfig {
            keys,
            object_bytes,
            distribution,
            ..Default::default()
        })
        .unwrap();
    let reqs = (0..300).map(|_| app.next_request()).collect();
    (engine, reqs)
}

/// A Cache-based rack with a `cache_bytes` page cache.
fn swap_with_cache(cache_bytes: u64) -> PulseBuilder {
    rack(PulseMode::Swap { cache_bytes })
}

/// The Cache-based rack's default page cache, 64 MiB.
fn swap() -> PulseBuilder {
    swap_with_cache(64 << 20)
}

/// Fig. 2(a)'s two observations on the rack: a warm working set that fits
/// the page cache mostly hits, and on a uniform index far larger than the
/// cache the traversal share of the CPU node's walk time grows as the
/// cache shrinks.
#[test]
fn swap_page_cache_hits_and_traversal_share() {
    let (mut engine, reqs) =
        swap_engine(swap_with_cache(64 << 20), 200, 8192, Distribution::Zipfian);
    engine.execute(&reqs).unwrap();
    let warm = engine.cluster().swap_stats();
    assert!(warm.hit_rate() > 0.5, "hit rate {}", warm.hit_rate());

    let fractions: Vec<f64> = [16u64 << 20, 2 << 20, 512 << 10]
        .into_iter()
        .map(|cache| {
            let (mut engine, reqs) =
                swap_engine(swap_with_cache(cache), 200_000, 512, Distribution::Uniform);
            engine.execute(&reqs).unwrap();
            engine.cluster().swap_stats().traversal_fraction()
        })
        .collect();
    assert!(
        fractions[0] < fractions[2],
        "the traversal share should grow with smaller caches: {fractions:?}"
    );
    assert!(fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
}

/// The CPU node's dispatch engine admits every swap request: 100 kops
/// offered against a 20 kops engine queues them.
#[test]
fn contended_dispatch_slows_swap_admission() {
    let run = |dispatch| {
        let rack = swap().dispatch(dispatch);
        let (mut engine, reqs) = swap_engine(rack, 200, 8192, Distribution::Zipfian);
        open_loop(&mut engine, &reqs, evenly(10_000, reqs.len()))
    };
    let free = run(DispatchConfig::default());
    let contended = run(DispatchConfig::contended(SimTime::from_micros(50), 1));
    assert!(
        contended.latency.p99 > free.latency.p99,
        "free {} contended {}",
        free.latency.p99,
        contended.latency.p99
    );
}

/// A mixed stream of seqlock-verified reads and locked updates runs
/// through the Cache-based system: each update mutates the rack's memory
/// exactly once (its bucket's version word moves by one lock and one
/// unlock per update), and every update completes.
#[test]
fn mixed_locked_updates_run_through_swap_exactly_once() {
    use pulse::mutation::{locked_update_stage, retrying_request, verified_read_stage};
    use std::sync::Arc;

    let (mut engine, map) = swap()
        .nodes(2)
        .window(8)
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..512).map(|k| (k, k)).collect();
            pulse::ds::HashMapDs::build_partitioned(ctx, 8, &pairs, 2)
        })
        .unwrap();
    let find = Arc::new(pulse::mutation::verified_find_program());
    let update = Arc::new(pulse::mutation::locked_update_program());
    let mc = MutationConfig::default();
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
    let version = |engine: &mut Runtime, k: u64| {
        engine
            .memory_mut()
            .read_word(map.bucket_addr(k) + 8, 8)
            .unwrap()
    };
    let before: Vec<u64> = (0..100).map(|k| version(&mut engine, k)).collect();
    let rep = open_loop(&mut engine, &mixed, evenly(1_000, mixed.len()));
    assert_eq!(rep.completed, 100);
    assert_eq!(rep.completed_updates, 50);
    for k in 0..100u64 {
        let updates = (0..100u64)
            .filter(|&u| u % 2 == 0 && map.bucket_addr(u) == map.bucket_addr(k))
            .count() as u64;
        assert_eq!(
            version(&mut engine, k),
            before[k as usize] + 2 * updates,
            "key {k}'s bucket"
        );
    }
    let mem = engine.memory_mut();
    assert_eq!(map.get_host(mem, 42).unwrap(), Some(42 + 7_000));
    assert_eq!(map.get_host(mem, 43).unwrap(), Some(43));
}

/// Page reads cross the rack's fabric: a routed rack shows the fills on
/// its CPU down-link, and the flat rack reports no fabric gauges.
#[test]
fn routed_swap_fills_show_link_use() {
    let run = |topology| {
        let rack = swap_with_cache(1 << 20).topology(topology);
        let (mut engine, reqs) = swap_engine(rack, 200_000, 512, Distribution::Uniform);
        engine.execute(&reqs).unwrap()
    };
    let flat = run(TopologySpec::Flat);
    let routed = run(TopologySpec::LeafSpine {
        leaves: 2,
        spines: 1,
    });
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

/// Runs of one deployment, untraced twice and traced once, time every
/// request identically: a Cache-based run is deterministic, and tracing
/// observes it without perturbing it. The traced engine attributes every
/// request's latency to phases and exports a Chrome trace.
#[test]
fn swap_runs_are_deterministic_and_traced_without_perturbation() {
    let runs: Vec<_> = [false, false, true]
        .into_iter()
        .map(|trace| {
            let rack = swap().trace(trace.then(TraceConfig::default));
            let (mut engine, reqs) = swap_engine(rack, 4_000, 8192, Distribution::Zipfian);
            let rep = engine.execute(&reqs).unwrap();
            let json = engine.trace().map(|t| t.trace_json());
            (rep, json)
        })
        .collect();
    let (plain, _) = &runs[0];
    for (rep, _) in &runs[1..] {
        assert_eq!(rep.latency.mean, plain.latency.mean);
        assert_eq!(rep.latency.p99, plain.latency.p99);
        assert_eq!(rep.net_bytes, plain.net_bytes);
        assert_eq!(rep.mem_bytes, plain.mem_bytes);
    }
    assert!(
        plain.phase.is_none() && runs[1].1.is_none(),
        "tracing is off by default"
    );
    let (traced, json) = &runs[2];
    let attr = traced.phase.expect("attribution recorded");
    assert_eq!(attr.count, 300);
    let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
    let e2e = traced.latency.mean.as_picos();
    assert!(
        sum <= e2e && e2e - sum < pulse::trace::PHASES as u64,
        "phase means {sum} ps vs mean latency {e2e} ps"
    );
    assert!(attr.mean_of(Phase::WireHop) > SimTime::ZERO);
    assert!(attr.mean_of(Phase::MemTrip) > SimTime::ZERO);
    assert_eq!(attr.mean_of(Phase::AccelCompute), SimTime::ZERO);
    let json = json.as_deref().expect("a traced engine exports its trace");
    assert!(json.contains("\"traceEvents\"") && json.contains("\"WireHop\""));
}

/// A crash under replication 2 on a Cache-based rack: page reads fail
/// over to the surviving replicas, a read lost with the node is taken
/// again (its crash notice shows as `Failover` time), and every request
/// completes with its spans tiling its latency.
#[test]
fn swap_page_reads_fail_over_under_a_crash() {
    let mut mem = ClusterMemory::new(4);
    mem.set_replication(2);
    let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
    let mut app = WebService::build(
        &mut BuildCtx::new(&mut mem, &mut alloc),
        WebServiceConfig {
            keys: 20_000,
            object_bytes: 512,
            distribution: Distribution::Uniform,
            ..Default::default()
        },
    )
    .unwrap();
    let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
    let cfg = ClusterConfig {
        mode: PulseMode::Swap {
            cache_bytes: 256 << 10,
        },
        faults: vec![FaultEvent::new(
            SimTime::from_micros(40),
            FaultKind::MemCrash(0),
        )],
        trace: Some(TraceConfig::default()),
        ..ClusterConfig::default()
    };
    let mut cluster = PulseCluster::new(cfg, mem);
    let rep = cluster.run(reqs, 8);
    assert_eq!(rep.completed, 300);
    assert_eq!(rep.unavailable_completions, 0);
    assert!(rep.failovers > 0);
    assert!(cluster.swap_stats().misses > 0);
    let attr = rep.phase.expect("attribution recorded");
    assert!(attr.mean_of(Phase::Failover) > SimTime::ZERO);
}
