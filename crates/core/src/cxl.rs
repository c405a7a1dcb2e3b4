//! The CXL-interconnect study (§7, Fig. 12).
//!
//! A trace-driven model following the paper's §7 setup: 10–20 ns L3, 80 ns
//! local DRAM, 300 ns CXL-attached memory, 256 B access granularity, a
//! 2 GB (scaled) CPU-attached DRAM cache, the whole working set on CXL
//! memory. Three configurations per workload:
//!
//! * **local** — everything in node-local DRAM (the normalization base),
//! * **CXL w/o pulse** — the CPU chases pointers through the cache
//!   hierarchy into CXL memory,
//! * **CXL w/ pulse** — traversals run at a pulse accelerator beside the
//!   CXL memory (near-memory DRAM latency per hop), one CXL round trip per
//!   offload, plus a CXL-switch hop per node crossing in the multi-node
//!   setup.

use pulse_frontend::LruSet;
use pulse_isa::Interpreter;
use pulse_mem::ClusterMemory;
use pulse_sim::SimTime;
use pulse_workloads::{execute_functional, AppRequest};

/// CXL latency model (§7's parameters).
#[derive(Debug, Clone, Copy)]
pub struct CxlConfig {
    /// L3 hit latency.
    pub l3: SimTime,
    /// Local / near-memory DRAM latency.
    pub dram: SimTime,
    /// CXL-attached memory access latency.
    pub cxl: SimTime,
    /// Access granularity (cache-line transfer unit).
    pub granularity: u64,
    /// L3 capacity in bytes (scaled with the working set).
    pub l3_bytes: u64,
    /// CPU-attached DRAM cache in bytes (the paper's 2 GB, scaled).
    pub dram_cache_bytes: u64,
    /// CXL switch hop latency (multi-node only).
    pub switch_hop: SimTime,
    /// Per-offload overhead for pulse (request launch + response).
    pub offload_overhead: SimTime,
}

impl Default for CxlConfig {
    fn default() -> Self {
        CxlConfig {
            l3: SimTime::from_nanos(15),
            dram: SimTime::from_nanos(80),
            cxl: SimTime::from_nanos(300),
            granularity: 256,
            l3_bytes: 2 << 20,
            dram_cache_bytes: 48 << 20,
            switch_hop: SimTime::from_nanos(100),
            offload_overhead: SimTime::from_nanos(2 * 300 + 426 + 426),
        }
    }
}

/// Fig. 12 data point: execution-time slowdowns vs all-local DRAM.
#[derive(Debug, Clone, Copy)]
pub struct CxlSlowdown {
    /// CXL without pulse, normalized to local.
    pub without_pulse: f64,
    /// CXL with pulse, normalized to local.
    pub with_pulse: f64,
}

impl CxlSlowdown {
    /// How much pulse shrinks the CXL slowdown (the paper's 3–5.2×).
    pub fn improvement(&self) -> f64 {
        self.without_pulse / self.with_pulse
    }
}

/// Runs the Fig. 12 study for one workload's request stream over a memory
/// layout with `nodes` CXL memory nodes.
pub fn cxl_study(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    nodes: usize,
    cfg: CxlConfig,
) -> CxlSlowdown {
    let mut l3 = LruSet::new((cfg.l3_bytes / cfg.granularity).max(1) as usize);
    // Separate caches for the no-pulse run (warmed identically).
    let mut l3_np = LruSet::new((cfg.l3_bytes / cfg.granularity).max(1) as usize);
    let mut dc_np = LruSet::new((cfg.dram_cache_bytes / cfg.granularity).max(1) as usize);

    let mut t_local = SimTime::ZERO;
    let mut t_without = SimTime::ZERO;
    let mut t_with = SimTime::ZERO;

    let mut interp = Interpreter::new();
    for req in requests {
        let run = execute_functional(&mut interp, mem, req, 1 << 20).expect("functional run");
        // Local baseline: every access from DRAM with L3 in front.
        for a in &run.accesses {
            let lines = (a.len as u64).div_ceil(cfg.granularity).max(1);
            for i in 0..lines {
                let line = a.addr / cfg.granularity + i;
                t_local += if l3.touch(line) { cfg.l3 } else { cfg.dram };
            }
        }

        // CXL without pulse: misses go to CXL memory; node crossings in the
        // multi-node setup add a switch hop per access that changes node.
        let mut prev_owner = None;
        for a in &run.accesses {
            let owner = mem.owner_of(a.addr);
            let lines = (a.len as u64).div_ceil(cfg.granularity).max(1);
            for i in 0..lines {
                let line = a.addr / cfg.granularity + i;
                t_without += if l3_np.touch(line) {
                    cfg.l3
                } else if dc_np.touch(line) {
                    cfg.dram
                } else {
                    let hop = if nodes > 1 && prev_owner.is_some() && prev_owner != owner {
                        cfg.switch_hop
                    } else {
                        SimTime::ZERO
                    };
                    cfg.cxl + hop
                };
            }
            prev_owner = owner.or(prev_owner);
        }

        // CXL with pulse: traversal iterations run near memory (DRAM
        // latency + a switch hop per node crossing); object I/O is a DMA at
        // CXL latency; one offload round trip per traversal stage.
        let mut prev_owner = None;
        for a in &run.accesses {
            if a.traversal {
                let owner = mem.owner_of(a.addr);
                let hop = if nodes > 1 && prev_owner.is_some() && prev_owner != owner {
                    cfg.switch_hop
                } else {
                    SimTime::ZERO
                };
                prev_owner = owner.or(prev_owner);
                t_with += cfg.dram + hop + SimTime::from_nanos(12); // fetch + logic
            } else {
                // Near-memory DMA gathers the object at DRAM speed.
                let lines = (a.len as u64).div_ceil(cfg.granularity).max(1);
                t_with += cfg.dram * lines;
            }
        }
        // One offload round trip per request: on CXL the accelerator chains
        // the stages (descent feeding the scan) without returning to the
        // CPU between them. Application compute (cpu_work) is excluded from
        // all three paths — the study normalizes *memory access* time, as
        // the paper's trace-driven simulator does.
        t_with += cfg.offload_overhead;
    }

    CxlSlowdown {
        without_pulse: t_without.as_picos() as f64 / t_local.as_picos() as f64,
        with_pulse: t_with.as_picos() as f64 / t_local.as_picos() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_ds::BuildCtx;
    use pulse_mem::{ClusterAllocator, Placement};
    use pulse_workloads::{Application, Distribution, WebService, WebServiceConfig};

    fn setup(nodes: usize) -> (ClusterMemory, Vec<AppRequest>) {
        let mut mem = ClusterMemory::new(nodes);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 16);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys: 100_000,
                    object_bytes: 512,
                    distribution: Distribution::Uniform,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs = (0..150).map(|_| app.next_request()).collect();
        (mem, reqs)
    }

    #[test]
    fn pulse_reduces_cxl_slowdown_in_band() {
        let (mut mem, reqs) = setup(4);
        // Small caches relative to the ~11 MB working set, as in §7 where
        // the working set dwarfs the 2 GB cache.
        let cfg = CxlConfig {
            l3_bytes: 512 << 10,
            dram_cache_bytes: 2 << 20,
            ..CxlConfig::default()
        };
        let s = cxl_study(&mut mem, &reqs, 4, cfg);
        assert!(
            s.without_pulse > 1.5,
            "CXL must be slower than local: {}",
            s.without_pulse
        );
        assert!(
            s.with_pulse < s.without_pulse,
            "pulse must help: {} vs {}",
            s.with_pulse,
            s.without_pulse
        );
        let imp = s.improvement();
        assert!(
            (2.0..6.5).contains(&imp),
            "improvement {imp} (paper: 3-5.2x)"
        );
    }

    #[test]
    fn single_node_improvement_at_least_matches_multi() {
        let cfg = CxlConfig {
            l3_bytes: 512 << 10,
            dram_cache_bytes: 2 << 20,
            ..CxlConfig::default()
        };
        let (mut mem1, reqs1) = setup(1);
        let s1 = cxl_study(&mut mem1, &reqs1, 1, cfg);
        let (mut mem4, reqs4) = setup(4);
        let s4 = cxl_study(&mut mem4, &reqs4, 4, cfg);
        // §7: 4.2-5.2x single-node vs 3-5x four-node.
        assert!(s1.improvement() >= s4.improvement() * 0.85);
    }

    #[test]
    fn generous_cache_shrinks_the_gap() {
        // Skewed reuse over a small keyspace: ample caches absorb it.
        let mk = || {
            let mut mem = ClusterMemory::new(1);
            let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 16);
            let mut app = {
                let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
                WebService::build(
                    &mut ctx,
                    WebServiceConfig {
                        keys: 5_000,
                        object_bytes: 512,
                        distribution: Distribution::Zipfian,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let reqs: Vec<AppRequest> = (0..400).map(|_| app.next_request()).collect();
            (mem, reqs)
        };
        let (mut mem, reqs) = mk();
        let tight = cxl_study(
            &mut mem,
            &reqs,
            1,
            CxlConfig {
                l3_bytes: 64 << 10,
                dram_cache_bytes: 256 << 10,
                ..CxlConfig::default()
            },
        );
        let (mut mem2, reqs2) = mk();
        let roomy = cxl_study(
            &mut mem2,
            &reqs2,
            1,
            CxlConfig {
                l3_bytes: 4 << 20,
                dram_cache_bytes: 64 << 20,
                ..CxlConfig::default()
            },
        );
        assert!(
            roomy.without_pulse < tight.without_pulse,
            "roomy {} vs tight {}",
            roomy.without_pulse,
            tight.without_pulse
        );
    }
}
