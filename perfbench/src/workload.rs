//! The four fixed-rate workloads: deployment, request stream, arrival
//! process, and the engine that serves them — all built through the
//! `pulse` façade, and all derived from one `--seed`.

use crate::spans::Spans;
use pulse::baselines::RpcConfig;
use pulse::ds::TreePlacement;
use pulse::sim::SimTime;
use pulse::workloads::{Application, Btrdb, Distribution, WebService};
use pulse::{
    AppRequest, ArrivalProcess, BaselineEngine, BaselineKind, BtrdbConfig, CacheConfig,
    DispatchConfig, MutationConfig, PulseBuilder, Runtime, TopologySpec, TraceConfig,
    WebServiceConfig, YcsbDriver, YcsbWorkload,
};

/// The seed the benchmark runs when `--seed` is not given. With it, the
/// `ws-read` deployment and arrival stream are exactly the latency sweep's
/// `pulse` curve (app seeds at their defaults, arrival seed 42).
pub const DEFAULT_SEED: u64 = 42;

/// The SLO behind `sustained_kops`, the same one the latency sweep uses.
pub const SLO_P99_US: f64 = 150.0;

/// Extent granularity of every deployment (the sweep's).
const GRANULARITY: u64 = 2 << 20;
/// Keys in the WebService hash map (the sweep's).
const WEBSERVICE_KEYS: u64 = 6_000;
/// RPC baseline clients (the sweep's).
const RPC_CLIENTS: usize = 16;
/// Per-CPU-node front-end cache of the cached workload.
const CACHE_BYTES: u64 = 4 << 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// pulse over the read-only Zipfian WebService (YCSB-C), flat rack.
    WsRead,
    /// pulse over YCSB-A (50% seqlock-locked updates) with a coherent
    /// front-end cache per CPU node.
    YcsbACache,
    /// pulse over BTrDB 4 s aggregations, 4 memory nodes on a routed
    /// 2-leaf/2-spine fabric.
    BtrdbLeafspine,
    /// The RPC baseline over the `ws-read` deployment and stream.
    RpcWsRead,
}

/// Which engine a workload's end-to-end host metrics time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The pulse rack (`Runtime`).
    Pulse,
    /// The RPC baseline (`BaselineEngine`).
    Rpc,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::WsRead,
        Workload::YcsbACache,
        Workload::BtrdbLeafspine,
        Workload::RpcWsRead,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WsRead => "ws-read",
            Workload::YcsbACache => "ycsb-a-cache",
            Workload::BtrdbLeafspine => "btrdb-leafspine",
            Workload::RpcWsRead => "rpc-ws-read",
        }
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WsRead => {
                "headline read path: ~91 events/request on a flat rack, event loop ~90% of host \
                 time; bypasses fabric, cache and write path"
            }
            Workload::YcsbACache => {
                "50% locked updates beside cached reads: invalidation, seqlock retries and \
                 granule versioning on the read path"
            }
            Workload::BtrdbLeafspine => {
                "~167 interpreter iterations/request over a routed leaf-spine fabric priced hop \
                 by hop; the slowest curve to simulate"
            }
            Workload::RpcWsRead => {
                "the only workload running the RPC analytic replay, so a change to the baselines \
                 shows its host cost"
            }
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed offered rate, requests per simulated second: about three
    /// quarters of the workload's knee.
    pub fn rate_per_sec(self) -> f64 {
        match self {
            Workload::WsRead | Workload::YcsbACache => 600e3,
            Workload::BtrdbLeafspine => 250e3,
            Workload::RpcWsRead => 300e3,
        }
    }

    /// Requests per simulate pass. Fixed: the simulator's speed depends on
    /// run length, so the length is part of the metric.
    pub fn requests(self) -> usize {
        match self {
            Workload::WsRead | Workload::YcsbACache | Workload::RpcWsRead => 20_000,
            Workload::BtrdbLeafspine => 8_000,
        }
    }

    /// The engine whose speed the end-to-end host metrics time.
    pub fn engine(self) -> Engine {
        match self {
            Workload::RpcWsRead => Engine::Rpc,
            _ => Engine::Pulse,
        }
    }

    fn nodes(self) -> usize {
        match self {
            Workload::BtrdbLeafspine => 4,
            _ => 2,
        }
    }

    fn topology(self) -> TopologySpec {
        match self {
            Workload::BtrdbLeafspine => TopologySpec::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            _ => TopologySpec::Flat,
        }
    }

    fn cache(self) -> CacheConfig {
        match self {
            Workload::YcsbACache => CacheConfig::sized(CACHE_BYTES),
            _ => CacheConfig::disabled(),
        }
    }

    /// The rack's endpoint counts and geometry, for layer probes that
    /// rebuild one piece of it: `(cpus, memory nodes, topology)`.
    pub fn geometry(self) -> (usize, usize, TopologySpec) {
        (2, self.nodes(), self.topology())
    }

    /// The sweep's contended dispatch model: 1 µs per packet on 2 contexts.
    fn dispatch() -> DispatchConfig {
        DispatchConfig::contended(SimTime::from_nanos(1_000), 2)
    }

    fn builder(self) -> PulseBuilder {
        PulseBuilder::new()
            .nodes(self.nodes())
            .cpus(2)
            .dispatch(Workload::dispatch())
            .topology(self.topology())
            .cache(self.cache())
            .granularity(GRANULARITY)
    }

    fn webservice_cfg(self, seed: u64) -> WebServiceConfig {
        let base = WebServiceConfig::default();
        WebServiceConfig {
            keys: WEBSERVICE_KEYS,
            workload: match self {
                Workload::YcsbACache => YcsbWorkload::A,
                _ => YcsbWorkload::C,
            },
            distribution: Distribution::Zipfian,
            seed: app_seed(base.seed, seed),
            ..base
        }
    }

    fn btrdb_cfg(self, seed: u64) -> BtrdbConfig {
        let base = BtrdbConfig::default();
        BtrdbConfig {
            duration_secs: 900,
            window_secs: 4,
            placement: TreePlacement::Partitioned {
                nodes: self.nodes(),
            },
            seed: app_seed(base.seed, seed),
            ..base
        }
    }

    /// The Poisson arrival process at `rate_per_sec` for `seed`.
    pub fn arrivals(rate_per_sec: f64, seed: u64) -> ArrivalProcess {
        ArrivalProcess::poisson(rate_per_sec, seed)
    }

    /// Builds the pulse rack and mints the request stream, timing the two
    /// as `ds.build` and `workloads.mint` spans. Deterministic in `seed`;
    /// `trace` turns on span recording in the rack
    /// ([`PulseBuilder::trace`]). The returned [`Oracle`] carries what the
    /// correctness gate needs from the built application.
    ///
    /// # Errors
    ///
    /// Propagates build failures from the façade.
    pub fn deploy(
        self,
        seed: u64,
        trace: bool,
        spans: &mut Spans,
    ) -> Result<Deployment, pulse::Error> {
        let builder = self.builder().trace(trace.then(TraceConfig::default));
        let n = self.requests();
        let span = spans.enter("ds.build");
        let built = match self {
            Workload::BtrdbLeafspine => builder
                .app(self.btrdb_cfg(seed))
                .map(|(rt, app)| (rt, Built::Btrdb(app))),
            _ => builder
                .app(self.webservice_cfg(seed))
                .map(|(rt, app)| (rt, Built::WebService(app))),
        };
        let build_s = spans.exit(span);
        let (mut runtime, built) = built?;
        let span = spans.enter("workloads.mint");
        let minted = match built {
            Built::Btrdb(mut app) => Ok((
                (0..n).map(|_| app.next_request()).collect(),
                Oracle::Functional,
            )),
            Built::WebService(mut app) if self != Workload::YcsbACache => Ok((
                (0..n).map(|_| app.next_request()).collect(),
                Oracle::Functional,
            )),
            Built::WebService(app) => {
                let object_addrs = (0..app.keys()).map(|k| app.object_addr(k)).collect();
                let mut buckets: Vec<u64> =
                    (0..app.keys()).map(|k| app.map().bucket_addr(k)).collect();
                buckets.sort_unstable();
                buckets.dedup();
                YcsbDriver::webservice(app, self.webservice_cfg(seed), MutationConfig::default())
                    .map(|mut driver| {
                        let requests = (0..n)
                            .map(|_| driver.next_request(runtime.memory_mut()))
                            .collect();
                        (
                            requests,
                            Oracle::Seqlock {
                                object_addrs,
                                buckets,
                            },
                        )
                    })
            }
        };
        let mint_s = spans.exit(span);
        let (requests, oracle) = minted?;
        Ok(Deployment {
            runtime,
            requests,
            oracle,
            build_s,
            mint_s,
        })
    }

    /// Builds the RPC baseline over the identical deployment and stream
    /// (the sweep's contended RPC configuration, plus this workload's
    /// topology and front-end cache), timed like [`Workload::deploy`].
    ///
    /// # Errors
    ///
    /// Propagates build failures from the façade.
    pub fn deploy_rpc(self, seed: u64, spans: &mut Spans) -> Result<RpcDeployment, pulse::Error> {
        let kind = BaselineKind::Rpc(RpcConfig {
            dispatch: Workload::dispatch(),
            topology: self.topology(),
            cache: self.cache(),
            ..RpcConfig::rpc()
        });
        let builder = PulseBuilder::new()
            .nodes(self.nodes())
            .window(RPC_CLIENTS)
            .granularity(GRANULARITY);
        let n = self.requests();
        let span = spans.enter("ds.build");
        let built = match self {
            Workload::BtrdbLeafspine => builder
                .baseline_app(kind, self.btrdb_cfg(seed))
                .map(|(e, app)| (e, Built::Btrdb(app))),
            _ => builder
                .baseline_app(kind, self.webservice_cfg(seed))
                .map(|(e, app)| (e, Built::WebService(app))),
        };
        let build_s = spans.exit(span);
        let (mut engine, built) = built?;
        let span = spans.enter("workloads.mint");
        let minted = match built {
            Built::Btrdb(mut app) => Ok((0..n).map(|_| app.next_request()).collect()),
            Built::WebService(mut app) if self != Workload::YcsbACache => {
                Ok((0..n).map(|_| app.next_request()).collect())
            }
            Built::WebService(app) => {
                YcsbDriver::webservice(app, self.webservice_cfg(seed), MutationConfig::default())
                    .map(|mut driver| {
                        (0..n)
                            .map(|_| driver.next_request(engine.memory_mut()))
                            .collect()
                    })
            }
        };
        let mint_s = spans.exit(span);
        Ok(RpcDeployment {
            engine,
            requests: minted?,
            build_s,
            mint_s,
        })
    }
}

/// The application a deployment built, before its stream is minted.
enum Built {
    WebService(WebService),
    Btrdb(Btrdb),
}

/// Maps the benchmark seed onto an application config seed so that the
/// default seed keeps the application's own default (the sweep's stream)
/// and every other seed moves it.
fn app_seed(default_app_seed: u64, seed: u64) -> u64 {
    default_app_seed ^ seed ^ DEFAULT_SEED
}

/// A built pulse rack and its minted request stream.
#[derive(Debug)]
pub struct Deployment {
    /// The rack, nothing submitted yet.
    pub runtime: Runtime,
    /// The request stream, in arrival order.
    pub requests: Vec<AppRequest>,
    /// What the correctness gate checks the completions against.
    pub oracle: Oracle,
    /// Host seconds `PulseBuilder` took to build the deployment.
    pub build_s: f64,
    /// Host seconds minting the request stream took.
    pub mint_s: f64,
}

/// The RPC baseline over a built deployment, and its request stream.
#[derive(Debug)]
pub struct RpcDeployment {
    /// The baseline engine, nothing executed yet.
    pub engine: BaselineEngine,
    /// The request stream, in arrival order.
    pub requests: Vec<AppRequest>,
    /// Host seconds the deployment build took.
    pub build_s: f64,
    /// Host seconds minting the request stream took.
    pub mint_s: f64,
}

/// The correctness oracle of a workload.
#[derive(Debug)]
pub enum Oracle {
    /// Read-only stream: every completion's final state must equal
    /// `Runtime::execute_functional` on an identically built deployment.
    Functional,
    /// Mixed read/update stream over the seqlocked hash map: no bucket
    /// version may stay odd after drain, every update is counted exactly
    /// once, and every completed read returns the key's object address
    /// (updates rewrite that same value).
    Seqlock {
        /// Object address per key (the value the hash map stores).
        object_addrs: Vec<u64>,
        /// Every bucket sentinel address.
        buckets: Vec<u64>,
    },
}
