//! The pulse API layer: trait-based offloading and application specs.
//!
//! Two pieces glue a [`Traversal`] impl (the only thing a data-structure
//! developer writes) to an executing rack:
//!
//! * [`Offloaded`] — compiles a structure's stages through the
//!   [`DispatchEngine`] once and mints [`AppRequest`]s per key;
//! * [`AppSpec`] — the builder hook that constructs a whole application
//!   (structure + request generator) inside the rack's memory.
//!
//! [`Engine`], [`BaselineKind`] and [`BaselineEngine`] are a thin,
//! logic-free face kept for perfbench. Every system is a
//! [`PulseMode`](crate::PulseMode) that
//! [`PulseBuilder::mode`](crate::PulseBuilder::mode) selects and one
//! [`Runtime`] runs.

use crate::baselines::RpcConfig;
use crate::error::Error;
use crate::runtime::{OpenLoopDriver, OpenLoopReport, Runtime};
use pulse_core::RunMetrics;
use pulse_dispatch::{DispatchEngine, OffloadDecision};
use pulse_ds::{BuildCtx, DsError, Traversal};
use pulse_isa::Program;
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

/// Exists for perfbench, which runs its deployments through this trait;
/// its one impl forwards to [`Runtime`], which runs every system. New code
/// calls [`Runtime::execute`] and [`OpenLoopDriver::run`] directly.
///
/// **Measurement contract:** build one runtime per measured stream and
/// run it once. A runtime's counters are cumulative over its lifetime, so
/// a second run on the same runtime reports both streams together.
pub trait Engine {
    /// System label for report rows: [`Runtime::label`].
    fn label(&self) -> &'static str;

    /// [`Runtime::execute`]: every request submitted and drained.
    ///
    /// # Errors
    ///
    /// Submission-time validation failures ([`Error::Request`]).
    fn execute(&mut self, requests: &[AppRequest]) -> Result<RunMetrics, Error>;

    /// [`OpenLoopDriver::run`] over `arrivals`.
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
        Runtime::label(self)
    }

    fn execute(&mut self, requests: &[AppRequest]) -> Result<RunMetrics, Error> {
        Runtime::execute(self, requests)
    }

    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error> {
        OpenLoopDriver::new(arrivals).run(self, requests.to_vec())
    }
}

/// Exists for perfbench: the one baseline it names, forwarded by
/// [`PulseBuilder::baseline_app`](crate::PulseBuilder::baseline_app) onto
/// the builder's mode and setters.
#[derive(Debug, Clone)]
pub enum BaselineKind {
    /// The RPC family, built as `PulseMode::Rpc(cfg.flavor)`.
    Rpc(RpcConfig),
}

/// Exists for perfbench: every system runs on a [`Runtime`].
pub type BaselineEngine = Runtime;
