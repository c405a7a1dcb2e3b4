//! Accelerator configuration: pipeline counts and organization. The
//! component latencies measured in the paper (Fig. 10) are
//! [`AccelTiming`], defined in `pulse-isa` beside the offload gate's cost
//! model so the gate and the accelerator price from one definition.

pub use pulse_isa::AccelTiming;

/// How pipelines are organized (§4.2 / Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOrg {
    /// pulse's disaggregated design: `m` logic pipelines and `n` memory
    /// pipelines, multiplexed by the scheduler over `m + n` workspaces.
    Disaggregated {
        /// Logic pipeline count (`m`).
        logic: usize,
        /// Memory pipeline count (`n`).
        memory: usize,
    },
    /// The traditional coupled (multi-core) baseline: `k` cores, each
    /// fusing a logic and a memory pipeline; an iteration occupies its core
    /// for the full `t_d + t_c`.
    Coupled {
        /// Core count.
        cores: usize,
    },
}

impl PipelineOrg {
    /// Number of workspaces the scheduler manages: `m + n` for the
    /// disaggregated design (§4.2), one per core when coupled.
    pub fn workspaces(&self) -> usize {
        match *self {
            PipelineOrg::Disaggregated { logic, memory } => logic + memory,
            PipelineOrg::Coupled { cores } => cores,
        }
    }

    /// The accelerator-specific offload threshold `η = m/n` (§4.2).
    pub fn eta(&self) -> f64 {
        match *self {
            PipelineOrg::Disaggregated { logic, memory } => logic as f64 / memory as f64,
            PipelineOrg::Coupled { .. } => 1.0,
        }
    }
}

/// Full accelerator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AccelConfig {
    /// Pipeline organization.
    pub org: PipelineOrg,
    /// Component timing.
    pub timing: AccelTiming,
    /// Per-offload iteration budget (`MAX_ITER`, §3).
    pub max_iters: u32,
    /// Record every window fetch range on the in-flight packet
    /// (`IterPacket::touched`) so the issuing CPU node can fill its
    /// front-end cache from the response. Off by default: the recorded
    /// cells are priced on the wire, so collection must only run when a
    /// cache is actually consuming them.
    pub collect_touched: bool,
    /// ISA v2 speculative next-hop issue: when a window fetch completes,
    /// predict the next `cur_ptr` (from a `SPEC_HINT`, else the traversal's
    /// own next pointer) and issue its window fetch before the logic
    /// pipeline validates the hop. Validated against the per-granule write
    /// versions in `ClusterMemory`; a mismatch squashes, with the wasted
    /// trip charged to `mis_speculations` and `ComponentTimes::spec_waste`.
    /// Off by default (golden-trace guarded).
    pub speculate: bool,
    /// ISA v2 same-node hop batching: fuse up to this many consecutive
    /// iterations whose windows translate on this node into one membus
    /// transaction — one full `t_d` plus a per-extra-hop increment
    /// ([`AccelTiming::fused_hop_increment`]). `1` (the default) disables
    /// fusion; crossing semantics are preserved because fusion stops at the
    /// first pointer that does not translate locally.
    pub batch_hops: u32,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            // The paper's deployment: η = 0.75 via 3 logic + 4 memory
            // pipelines and 7 workspaces per accelerator (§4.2).
            org: PipelineOrg::Disaggregated {
                logic: 3,
                memory: 4,
            },
            timing: AccelTiming::default(),
            max_iters: pulse_isa::DEFAULT_MAX_ITERS,
            collect_touched: false,
            speculate: false,
            batch_hops: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let cfg = AccelConfig::default();
        assert_eq!(cfg.org.workspaces(), 7);
        assert!((cfg.org.eta() - 0.75).abs() < 1e-9);
        let t = cfg.timing;
        assert!((t.net_stack.as_nanos_f64() - 426.3).abs() < 1e-9);
        assert!((t.scheduler.as_nanos_f64() - 5.1).abs() < 1e-9);
    }

    #[test]
    fn coupled_workspaces_equal_cores() {
        let org = PipelineOrg::Coupled { cores: 3 };
        assert_eq!(org.workspaces(), 3);
        assert_eq!(org.eta(), 1.0);
    }
}
