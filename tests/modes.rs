//! Every system is one builder mode, and every builder setting reaches
//! every mode: it changes the run (or the rack the run happens on), or the
//! build fails with an `Error::Config` that names it.

use pulse::sim::SimTime;
use pulse::workloads::{Application, Distribution};
use pulse::{
    AppRequest, CacheConfig, DispatchConfig, Error, FaultEvent, FaultKind, Placement, PulseBuilder,
    PulseMode, RpcFlavor, RunMetrics, Runtime, TopologySpec, TraceConfig, WebServiceConfig,
};

const MODES: [PulseMode; 6] = [
    PulseMode::Pulse,
    PulseMode::PulseAcc,
    PulseMode::Swap {
        cache_bytes: 256 << 10,
    },
    PulseMode::Rpc(RpcFlavor::Rpc),
    PulseMode::Rpc(RpcFlavor::RpcArm),
    PulseMode::Rpc(RpcFlavor::CacheRpc {
        cache_bytes: 256 << 10,
    }),
];

const BASELINES: [PulseMode; 2] = [
    PulseMode::Rpc(RpcFlavor::Rpc),
    PulseMode::Swap {
        cache_bytes: 256 << 10,
    },
];

/// A Zipfian WebService whose chains cross nodes, over 64 KiB extents.
fn app() -> WebServiceConfig {
    WebServiceConfig {
        keys: 2_000,
        object_bytes: 512,
        partition_by_bucket: false,
        distribution: Distribution::Zipfian,
        ..Default::default()
    }
}

/// A two-node rack of 64 KiB extents in `mode`.
fn rack(mode: PulseMode) -> PulseBuilder {
    PulseBuilder::new()
        .mode(mode)
        .nodes(2)
        .granularity(64 << 10)
}

/// Builds `rack` around [`app`] and runs 200 of its requests closed-loop.
fn run(rack: PulseBuilder) -> Result<(Runtime, RunMetrics), Error> {
    let (mut runtime, mut app) = rack.app(app())?;
    let reqs: Vec<AppRequest> = (0..200).map(|_| app.next_request()).collect();
    let metrics = runtime.execute(&reqs)?;
    Ok((runtime, metrics))
}

/// What a run shows: its report and the rack it ran on.
fn fingerprint(rack: PulseBuilder) -> Result<String, Error> {
    let (runtime, metrics) = run(rack)?;
    let report = runtime.report();
    Ok(format!(
        "{metrics:?} crossings {} iterations {} swap {:?} cache {:?} \
         cpus {} ranges {:?} replication {} traced {}",
        report.crossings,
        report.iterations,
        runtime.cluster().swap_stats(),
        runtime.cluster().cache_stats(),
        runtime.cluster().cpus(),
        runtime.memory().all_ranges(),
        runtime.memory().replication(),
        runtime.trace().is_some()
    ))
}

fn crash(node: usize) -> Vec<FaultEvent> {
    vec![FaultEvent::new(
        SimTime::from_micros(5),
        FaultKind::MemCrash(node),
    )]
}

/// A crash set on the builder alone reaches both baselines: with two
/// replicas, reads fail over, the lost replicas are rebuilt, and no request
/// is lost.
#[test]
fn builder_faults_reach_every_baseline() {
    for mode in BASELINES {
        let (_, m) = run(rack(mode).nodes(4).replication(2).faults(crash(0))).unwrap();
        assert_eq!(m.completed, 200, "{mode:?}");
        assert_eq!(m.unavailable_completions, 0, "{mode:?}");
        assert!(m.failovers > 0, "{mode:?}: {m:?}");
        assert!(m.rereplication_bytes > 0, "{mode:?}: {m:?}");
    }
}

/// A contended dispatch engine retimes both baselines, a routed fabric
/// shows on their links, and a builder's `TraceConfig` traces their runs
/// without retiming them.
#[test]
fn builder_dispatch_topology_and_trace_reach_every_baseline() {
    for mode in BASELINES {
        let rack = || rack(mode);
        let (_, plain) = run(rack()).unwrap();
        assert_eq!(plain.link_utilization, 0.0, "{mode:?}");
        assert!(plain.phase.is_none(), "{mode:?}");

        let contended = DispatchConfig::contended(SimTime::from_micros(2), 1);
        let (_, queued) = run(rack().dispatch(contended)).unwrap();
        assert_ne!(queued.latency, plain.latency, "{mode:?}: dispatch ignored");

        let routed = TopologySpec::LeafSpine {
            leaves: 2,
            spines: 1,
        };
        let (_, routed) = run(rack().topology(routed)).unwrap();
        assert!(routed.link_utilization > 0.0, "{mode:?}: {routed:?}");

        let (runtime, traced) = run(rack().trace(Some(TraceConfig::default()))).unwrap();
        assert!(runtime.trace().is_some(), "{mode:?}");
        assert_eq!(traced.phase.expect("attributed").count, 200, "{mode:?}");
        assert_eq!(traced.latency, plain.latency, "{mode:?}: tracing perturbed");
    }
}

/// The mode × setting table: every non-default builder setting, in every
/// mode, either changes what the run shows or is an `Error::Config` naming
/// the setting. Only accelerator switches on a baseline rack and a
/// traversal-cell cache under Cache-based are refused.
#[test]
fn every_mode_takes_every_setting_or_names_it() {
    type Setting = fn(PulseBuilder) -> PulseBuilder;
    let settings: [(&str, Setting); 14] = [
        ("nodes", |b| b.nodes(3)),
        ("placement", |b| b.placement(Placement::Random { seed: 9 })),
        ("granularity", |b| b.granularity(256 << 10)),
        ("replication", |b| b.replication(2)),
        ("faults", |b| b.faults(crash(1))),
        ("topology", |b| {
            b.topology(TopologySpec::LeafSpine {
                leaves: 2,
                spines: 1,
            })
        }),
        ("cpus", |b| b.cpus(2)),
        ("dispatch", |b| {
            b.dispatch(DispatchConfig::contended(SimTime::from_micros(2), 1))
        }),
        ("trace", |b| b.trace(Some(TraceConfig::default()))),
        ("cache", |b| b.cache(CacheConfig::sized(1 << 20))),
        ("speculation", |b| b.speculation(true)),
        ("batching", |b| b.batching(4)),
        ("coalescing", |b| b.coalescing(true)),
        ("window", |b| b.window(4)),
    ];
    for mode in MODES {
        let plain = fingerprint(rack(mode)).unwrap();
        let baseline = matches!(mode, PulseMode::Rpc(_) | PulseMode::Swap { .. });
        for (name, set) in settings {
            let refused = match name {
                "speculation" | "batching" | "coalescing" => baseline,
                "cache" => matches!(mode, PulseMode::Swap { .. }),
                _ => false,
            };
            match fingerprint(set(rack(mode))) {
                Ok(shown) => {
                    assert!(!refused, "{mode:?} took .{name}(..) it cannot honour");
                    assert_ne!(shown, plain, "{mode:?}: .{name}(..) changed nothing");
                }
                Err(Error::Config(msg)) => {
                    assert!(refused, "{mode:?} refused .{name}(..): {msg}");
                    assert!(msg.contains(name), "{mode:?}: {msg:?} does not name {name}");
                    assert!(msg.contains(mode.label()), "{msg:?}");
                }
                Err(e) => panic!("{mode:?} .{name}(..): {e}"),
            }
        }
    }
}
