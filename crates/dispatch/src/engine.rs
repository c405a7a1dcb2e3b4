//! The dispatch engine: cost analysis and the offload decision.
//!
//! §4.1: the engine computes `t_c = t_i · N` from the compiled program and
//! compares it against `η · t_d`, offloading only memory-bound iterators
//! (`η ≤ 1`); compute-heavy code "will run on the CPU, potentially accessing
//! memory remotely over the network".

use crate::compile::{compile, CompileError};
use crate::spec::IterSpec;
use pulse_isa::{AccelTiming, Program};
use pulse_sim::SimTime;
use std::fmt;
use std::sync::Arc;

/// The dispatch engine's static analysis of one compiled iterator.
#[derive(Debug, Clone, Copy)]
pub struct OffloadAnalysis {
    /// Static compute bound per iteration (`t_i · N`).
    pub t_c: SimTime,
    /// Data-fetch time per iteration for the coalesced window.
    pub t_d: SimTime,
    /// Instruction bound `N`.
    pub insn_bound: u32,
    /// Coalesced window bytes.
    pub window_bytes: u32,
    /// Explicit (non-coalesced) loads per iteration.
    pub extra_loads: u32,
}

impl OffloadAnalysis {
    /// The compute-to-memory ratio `t_c / t_d`.
    pub fn ratio(&self) -> f64 {
        self.t_c.as_picos() as f64 / self.t_d.as_picos() as f64
    }
}

/// Where an iterator should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadDecision {
    /// Ship to the accelerator at the memory node.
    Offload,
    /// Run at the CPU node with remote memory accesses: the iterator is too
    /// compute-heavy for the accelerator (`t_c > η·t_d`).
    RunAtCpu,
}

impl fmt::Display for OffloadDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadDecision::Offload => write!(f, "offload"),
            OffloadDecision::RunAtCpu => write!(f, "run-at-cpu"),
        }
    }
}

/// A compiled iterator with its analysis and placement decision.
#[derive(Debug, Clone)]
pub struct CompiledIterator {
    /// The validated PULSE program.
    pub program: Arc<Program>,
    /// Static costs.
    pub analysis: OffloadAnalysis,
    /// Placement decision at the engine's `η`.
    pub decision: OffloadDecision,
}

/// The dispatch engine (§4.1): compiler front-end + offload gate.
///
/// The gate prices `t_c` and `t_d` with the paper deployment's
/// [`AccelTiming`], the numbers the accelerator itself charges; `η` is
/// the engine's one setting.
///
/// # Examples
///
/// ```
/// use pulse_dispatch::{samples, DispatchEngine, OffloadDecision};
///
/// let engine = DispatchEngine::default();
/// let compiled = engine.prepare(&samples::hash_find_spec())?;
/// // The hash lookup is heavily memory-bound: offloaded.
/// assert_eq!(compiled.decision, OffloadDecision::Offload);
/// assert!(compiled.analysis.ratio() < 0.25);
/// # Ok::<(), pulse_dispatch::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DispatchEngine {
    /// Accelerator-specific offload threshold (`η = m/n`, §4.2).
    pub eta: f64,
}

impl Default for DispatchEngine {
    fn default() -> Self {
        // 3 logic / 4 memory pipelines in the paper's deployment.
        DispatchEngine::with_eta(0.75)
    }
}

impl DispatchEngine {
    /// Creates an engine with a specific η.
    pub fn with_eta(eta: f64) -> DispatchEngine {
        DispatchEngine { eta }
    }

    /// Analyzes an already-compiled program: `t_c = t_i · N` with `N` the
    /// longest acyclic path through the program (exact for this ISA,
    /// whose jumps are forward-only, §4.1), and `t_d` the fetch of its
    /// coalesced window.
    pub fn analyze(&self, program: &Program) -> OffloadAnalysis {
        let timing = AccelTiming::default();
        let window_bytes = program.window().len;
        let insn_bound = program.len() as u32;
        let t_c = timing.logic_time(program.longest_path());
        let t_d = timing.fetch_time(window_bytes);
        OffloadAnalysis {
            t_c,
            t_d,
            insn_bound,
            window_bytes,
            extra_loads: program.extra_loads() as u32,
        }
    }

    /// The offload gate: `t_c ≤ η · t_d`, with each explicit extra load
    /// adding another window-less fetch to the memory side.
    pub fn decide(&self, analysis: &OffloadAnalysis) -> OffloadDecision {
        let t_d_total =
            analysis.t_d + AccelTiming::default().fetch_time(8) * analysis.extra_loads as u64;
        let budget = t_d_total.as_picos() as f64 * self.eta;
        if analysis.t_c.as_picos() as f64 <= budget {
            OffloadDecision::Offload
        } else {
            OffloadDecision::RunAtCpu
        }
    }

    /// Compiles, analyzes, and decides in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from compilation.
    pub fn prepare(&self, spec: &IterSpec) -> Result<CompiledIterator, CompileError> {
        let program = Arc::new(compile(spec)?);
        let analysis = self.analyze(&program);
        let decision = self.decide(&analysis);
        Ok(CompiledIterator {
            program,
            analysis,
            decision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::spec::{Expr, Stmt};

    #[test]
    fn hash_find_is_offloaded_with_low_ratio() {
        let engine = DispatchEngine::default();
        let c = engine.prepare(&samples::hash_find_spec()).unwrap();
        assert_eq!(c.decision, OffloadDecision::Offload);
        // Table 3 reports t_c/t_d = 0.06 for the WebService hash lookup;
        // our compiled program should land in that neighbourhood.
        let r = c.analysis.ratio();
        assert!((0.02..0.25).contains(&r), "ratio {r}");
    }

    #[test]
    fn compute_heavy_spec_runs_at_cpu() {
        let engine = DispatchEngine::default();
        let c = engine.prepare(&samples::compute_heavy_spec()).unwrap();
        assert_eq!(c.decision, OffloadDecision::RunAtCpu);
        assert!(c.analysis.ratio() > 0.75, "ratio {}", c.analysis.ratio());
    }

    #[test]
    fn eta_zero_rejects_everything() {
        let engine = DispatchEngine::with_eta(0.0);
        let c = engine.prepare(&samples::hash_find_spec()).unwrap();
        assert_eq!(c.decision, OffloadDecision::RunAtCpu);
    }

    #[test]
    fn eta_one_accepts_balanced_iterators() {
        let engine = DispatchEngine::with_eta(1.0);
        let c = engine.prepare(&samples::btree_search_spec(8)).unwrap();
        assert_eq!(c.decision, OffloadDecision::Offload);
        assert!(c.analysis.ratio() <= 1.0, "ratio {}", c.analysis.ratio());
    }

    #[test]
    fn extra_loads_loosen_the_budget() {
        // A spec with a Deref gets extra t_d, so a borderline t_c still
        // offloads.
        let engine = DispatchEngine::with_eta(0.25);
        let mut body = vec![];
        // Enough ALU work to exceed 0.25 * t_d(window) alone.
        let mut e = Expr::scratch_u64(0);
        for _ in 0..12 {
            e = Expr::add(e, Expr::Const(1));
        }
        body.push(Stmt::SetScratch {
            off: 0,
            width: pulse_isa::Width::B8,
            value: e,
        });
        body.push(Stmt::Finish {
            code: Expr::Const(0),
        });
        let without_deref = IterSpec::new("tc_heavy", 16, body.clone());
        let c1 = engine.prepare(&without_deref).unwrap();
        assert_eq!(c1.decision, OffloadDecision::RunAtCpu);

        // Same compute plus a secondary dereference: more memory time.
        let mut body2 = vec![Stmt::SetScratch {
            off: 8,
            width: pulse_isa::Width::B8,
            value: Expr::Deref {
                base: Box::new(Expr::field_u64(0)),
                off: 0,
                width: pulse_isa::Width::B8,
            },
        }];
        body2.extend(body);
        let with_deref = IterSpec::new("tc_heavy_deref", 16, body2);
        let c2 = engine.prepare(&with_deref).unwrap();
        assert!(c2.analysis.extra_loads == 1);
        // The decision flips (or at least the effective budget grew).
        assert_eq!(c2.decision, OffloadDecision::Offload);
    }

    #[test]
    fn table3_ratios_reproduced() {
        // Table 3: WebService 0.06, WiredTiger 0.63, BTrDB 0.71, at the
        // deployed geometry (B-tree fanout 12, BTrDB leaf capacity 3).
        let engine = DispatchEngine::default();
        let hash = engine.prepare(&samples::hash_find_spec()).unwrap();
        let btree = engine.prepare(&samples::btree_search_spec(12)).unwrap();
        let agg = engine.prepare(&samples::btrdb_aggregate_spec(3)).unwrap();
        let (rh, rb, ra) = (
            hash.analysis.ratio(),
            btree.analysis.ratio(),
            agg.analysis.ratio(),
        );
        assert!(rh < rb && rb < ra, "ordering: {rh} {rb} {ra}");
        assert!((0.02..0.15).contains(&rh), "hash {rh}");
        assert!((0.40..0.75).contains(&rb), "btree {rb}");
        assert!((0.55..0.78).contains(&ra), "btrdb {ra}");
        // All three offload at the deployed η = 0.75.
        assert_eq!(hash.decision, OffloadDecision::Offload);
        assert_eq!(btree.decision, OffloadDecision::Offload);
        assert_eq!(agg.decision, OffloadDecision::Offload);
    }
}
