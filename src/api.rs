//! The pulse API layer: trait-based offloading and the engine abstraction.
//!
//! Three pieces glue a [`Traversal`] impl (the only thing a data-structure
//! developer writes) to an executing rack:
//!
//! * [`Offloaded`] — compiles a structure's stages through the
//!   [`DispatchEngine`] once and mints [`AppRequest`]s per key;
//! * [`AppSpec`] — the builder hook that constructs a whole application
//!   (structure + request generator) inside the rack's memory;
//! * [`Engine`] — the common face of the pulse runtime and every baseline
//!   system, so cluster-vs-baseline comparisons are a one-line swap.

use crate::error::Error;
use crate::runtime::{OpenLoopDriver, OpenLoopReport, Runtime};
use pulse_baselines::{RpcConfig, SwapConfig};
use pulse_core::{ClusterConfig, PulseCluster, PulseMode, RunMetrics, TraceConfig, TraceSink};
use pulse_dispatch::{DispatchEngine, OffloadDecision};
use pulse_ds::{BuildCtx, DsError, Traversal};
use pulse_isa::Program;
use pulse_mem::ClusterMemory;
use pulse_sim::SimTime;
use pulse_workloads::{AppRequest, Application, ArrivalProcess, TraversalStage};
use pulse_workloads::{Btrdb, WebService, WiredTiger};
use pulse_workloads::{BtrdbConfig, WebServiceConfig, WiredTigerConfig};
use std::sync::Arc;

// ---------------------------------------------------------------- Offloaded

/// A [`Traversal`] whose stages have been compiled and priced by the
/// dispatch engine. Minting a request is then pure `init()`: plan the
/// stages for a key and pair each with its compiled program.
#[derive(Debug)]
pub struct Offloaded<T> {
    inner: T,
    programs: Vec<Arc<Program>>,
    decisions: Vec<OffloadDecision>,
}

impl<T: Traversal> Offloaded<T> {
    /// Compiles every stage of `inner` through `engine`.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] if a stage's spec is rejected.
    pub fn compile(inner: T, engine: &DispatchEngine) -> Result<Offloaded<T>, Error> {
        let mut programs = Vec::new();
        let mut decisions = Vec::new();
        for spec in inner.stages() {
            let compiled = engine.prepare(&spec)?;
            programs.push(compiled.program);
            decisions.push(compiled.decision);
        }
        Ok(Offloaded {
            inner,
            programs,
            decisions,
        })
    }

    /// Builds the request for a lookup of `key`: traversal stages only; use
    /// [`AppRequest`]'s fields to attach object I/O or CPU work afterwards.
    ///
    /// # Errors
    ///
    /// [`Error::Build`] from the structure's `init()` (e.g. empty), or
    /// [`Error::Config`] if the structure planned a different stage count
    /// than it advertised.
    pub fn request(&self, key: u64) -> Result<AppRequest, Error> {
        let mut plan_buf = Vec::new();
        self.request_with(key, &mut plan_buf)
    }

    /// Like [`Offloaded::request`], planning through a caller-owned buffer
    /// so minting many requests in a loop allocates no plan `Vec` per key.
    /// `plan_buf` is left empty (capacity retained) on success.
    ///
    /// # Errors
    ///
    /// Same as [`Offloaded::request`].
    pub fn request_with(
        &self,
        key: u64,
        plan_buf: &mut Vec<crate::StagePlan>,
    ) -> Result<AppRequest, Error> {
        self.inner.plan_into(key, plan_buf)?;
        if plan_buf.len() != self.programs.len() {
            return Err(Error::Config(format!(
                "{}: planned {} stages but compiled {}",
                self.inner.name(),
                plan_buf.len(),
                self.programs.len()
            )));
        }
        let traversals = plan_buf
            .drain(..)
            .zip(&self.programs)
            .map(|(plan, program)| TraversalStage::from_plan(plan, program.clone()))
            .collect();
        Ok(AppRequest {
            traversals,
            object_io: None,
            cpu_work: SimTime::ZERO,
            response_extra_bytes: 0,
            retry: None,
        })
    }

    /// The wrapped structure.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Compiled programs, one per stage.
    pub fn programs(&self) -> &[Arc<Program>] {
        &self.programs
    }

    /// The dispatch engine's placement decision per stage.
    pub fn decisions(&self) -> &[OffloadDecision] {
        &self.decisions
    }
}

// ------------------------------------------------------------------ AppSpec

/// An application configuration the [`PulseBuilder`](crate::PulseBuilder)
/// can construct inside the rack's memory: `builder.app(cfg)` builds the
/// structure and returns the runtime plus the request generator.
pub trait AppSpec {
    /// The application this spec builds.
    type App: Application;

    /// Builds the application (structures + object stores) through `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates structure-building failures.
    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<Self::App, DsError>;
}

impl AppSpec for WebServiceConfig {
    type App = WebService;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<WebService, DsError> {
        WebService::build(ctx, self)
    }
}

impl AppSpec for WiredTigerConfig {
    type App = WiredTiger;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<WiredTiger, DsError> {
        WiredTiger::build(ctx, self)
    }
}

impl AppSpec for BtrdbConfig {
    type App = Btrdb;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<Btrdb, DsError> {
        Btrdb::build(ctx, self)
    }
}

// ------------------------------------------------------------------- Engine

/// A system that executes [`AppRequest`] streams: the pulse rack
/// ([`Runtime`]) or any compared baseline ([`BaselineEngine`]). Concurrency
/// is an engine property fixed at construction (the runtime's in-flight
/// window, a baseline's client count), so swapping systems under the same
/// workload is a one-line change.
///
/// **Measurement contract:** build one engine per measured stream and call
/// [`Engine::execute`] once on it. Every engine is a rack whose counters
/// (latency histogram, link/DRAM bytes, makespan) are cumulative over its
/// lifetime, so a second `execute` on the same engine reports both
/// streams together.
pub trait Engine {
    /// System label for report rows.
    fn label(&self) -> &'static str;

    /// Executes `requests` to completion, closed-loop. See the trait-level
    /// measurement contract: one call per engine instance for comparable
    /// reports.
    ///
    /// # Errors
    ///
    /// Submission-time validation failures ([`Error::Request`]).
    fn execute(&mut self, requests: &[AppRequest]) -> Result<RunMetrics, Error>;

    /// Executes `requests` open-loop: request `i` arrives at the time the
    /// [`ArrivalProcess`] generates, independent of completions, and its
    /// latency is measured from that arrival — queueing included. One call
    /// per engine instance, same as [`Engine::execute`]; a load sweep
    /// builds a fresh engine per offered-load point.
    ///
    /// # Errors
    ///
    /// Submission-time validation failures ([`Error::Request`]).
    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error>;
}

impl Engine for Runtime {
    fn label(&self) -> &'static str {
        "pulse"
    }

    fn execute(&mut self, requests: &[AppRequest]) -> Result<RunMetrics, Error> {
        for req in requests {
            self.submit(req.clone())?;
        }
        Ok(self.drain().metrics)
    }

    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error> {
        OpenLoopDriver::new(arrivals).run(self, requests.to_vec())
    }
}

/// Which baseline system a [`BaselineEngine`] runs.
#[derive(Debug, Clone)]
pub enum BaselineKind {
    /// Fastswap-style cache-based paging.
    SwapCache(SwapConfig),
    /// The RPC family (plain, ARM, or AIFM-style Cache+RPC).
    Rpc(RpcConfig),
}

impl BaselineKind {
    /// The system label every engine and report of this kind carries.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::SwapCache(cfg) => cfg.label(),
            BaselineKind::Rpc(cfg) => cfg.label(),
        }
    }
}

/// A baseline system over its own copy of the rack memory, behind the same
/// [`Engine`] face as the pulse runtime, with `concurrency` closed-loop
/// clients: in open loop a request that arrives while every client is busy
/// waits FIFO for one, and its latency counts from its arrival. Every
/// baseline runs on the pulse rack's event engine: a one-CPU rack in
/// [`PulseMode::Swap`] or [`PulseMode::Rpc`].
#[derive(Debug)]
pub struct BaselineEngine {
    label: &'static str,
    runtime: Runtime,
}

impl BaselineEngine {
    /// Wraps an already-populated memory in a baseline engine with
    /// `concurrency` closed-loop clients.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] without a client, [`Error::Capacity`] if the
    /// rack's translation ranges overflow a node's TCAM.
    pub fn new(
        mem: ClusterMemory,
        kind: BaselineKind,
        concurrency: usize,
    ) -> Result<BaselineEngine, Error> {
        if concurrency == 0 {
            return Err(Error::Config("a baseline needs at least one client".into()));
        }
        let label = kind.label();
        let cluster = PulseCluster::try_new(baseline_rack(kind), mem)?;
        Ok(BaselineEngine {
            label,
            runtime: Runtime::new(cluster, concurrency),
        })
    }

    /// The trace sink of an engine built with tracing on: spans,
    /// occupancy and counter samples, as [`Runtime::trace`] gives them.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.runtime.trace()
    }

    /// The rack the baseline runs on, for system-level counters such as
    /// [`PulseCluster::swap_stats`].
    pub fn cluster(&self) -> &PulseCluster {
        self.runtime.cluster()
    }

    /// The memory the baseline executes against.
    pub fn memory_mut(&mut self) -> &mut ClusterMemory {
        self.runtime.memory_mut()
    }
}

/// The rack a baseline configuration runs on: one CPU node with the
/// config's dispatch engine and fabric, and, for the RPC family, its
/// front-end cache and faults, with the flavour's workers serving
/// traversals at every memory node.
fn baseline_rack(kind: BaselineKind) -> ClusterConfig {
    match kind {
        BaselineKind::SwapCache(cfg) => ClusterConfig {
            mode: PulseMode::Swap {
                cache_bytes: cfg.cache_bytes,
            },
            dispatch: cfg.dispatch,
            topology: cfg.topology,
            trace: cfg.trace.then(TraceConfig::default),
            ..ClusterConfig::default()
        },
        BaselineKind::Rpc(cfg) => ClusterConfig {
            mode: PulseMode::Rpc(cfg.flavor),
            dispatch: cfg.dispatch,
            topology: cfg.topology,
            cache: cfg.cache,
            faults: cfg.faults,
            trace: cfg.trace.then(TraceConfig::default),
            ..ClusterConfig::default()
        },
    }
}

impl Engine for BaselineEngine {
    fn label(&self) -> &'static str {
        self.label
    }

    fn execute(&mut self, requests: &[AppRequest]) -> Result<RunMetrics, Error> {
        self.runtime.execute(requests)
    }

    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error> {
        let rep =
            OpenLoopDriver::new(arrivals).run_with_clients(&mut self.runtime, requests.to_vec())?;
        Ok(OpenLoopReport {
            label: self.label.into(),
            ..rep
        })
    }
}
