//! Closed-loop single-accelerator driver.
//!
//! Several of the paper's experiments (Table 4, Fig. 10, Fig. 11, the
//! memory-pipeline and traversal-length appendices) exercise one
//! accelerator in isolation. This harness keeps a fixed number of iterator
//! requests outstanding against a single [`Accelerator`] and reports
//! latency, throughput, and pipeline utilization.

use crate::accel::{AccelEvent, AccelOutput, Accelerator};
use pulse_mem::ClusterMemory;
use pulse_net::{IterPacket, IterStatus};
use pulse_sim::{Driver, LatencyHistogram, LatencySummary, SimTime};

/// Results of a closed-loop run.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Requests completed (RETURN reached).
    pub completed: u64,
    /// Time of the last departure.
    pub makespan: SimTime,
    /// Request latency distribution (injection → departure).
    pub latency: LatencySummary,
    /// Completed requests per simulated second.
    pub throughput: f64,
    /// Mean memory-pipeline utilization.
    pub memory_utilization: f64,
    /// Mean logic-pipeline utilization.
    pub logic_utilization: f64,
    /// DRAM bandwidth consumed, bytes/second of simulated time.
    pub dram_bytes_per_sec: f64,
}

/// Runs `total` requests with `concurrency` outstanding at once.
///
/// `make_request` is called with the request index to produce each packet.
/// Requests that return `IterLimit` are re-injected as continuations (their
/// latency spans all segments); `InFlight` reroutes and faults terminate
/// the request (single-node harness: there is nowhere else to go).
///
/// # Panics
///
/// Panics if `concurrency == 0` or `total == 0`.
pub fn run_closed_loop(
    accel: &mut Accelerator,
    mem: &mut ClusterMemory,
    mut make_request: impl FnMut(u64) -> IterPacket,
    total: u64,
    concurrency: usize,
) -> HarnessReport {
    assert!(concurrency > 0 && total > 0, "empty run");
    let mut drv: Driver<AccelEvent> = Driver::new();
    let mut latency = LatencyHistogram::new();
    let mut injected: u64 = 0;
    let mut completed: u64 = 0;
    let mut makespan = SimTime::ZERO;
    // Injection times per request seq (continuations keep the original).
    let mut started: std::collections::HashMap<u64, SimTime> = std::collections::HashMap::new();

    // One output buffer serves every accelerator call; `absorb` drains it.
    let mut outs: Vec<AccelOutput> = Vec::new();
    let absorb = |outs: &mut Vec<AccelOutput>,
                  drv: &mut Driver<AccelEvent>,
                  departed: &mut Vec<(SimTime, IterPacket)>| {
        for out in outs.drain(..) {
            match out {
                AccelOutput::Internal { at, event } => drv.schedule_at(at, event),
                AccelOutput::Depart { at, pkt, .. } => departed.push((at, pkt)),
            }
        }
    };

    let mut departed: Vec<(SimTime, IterPacket)> = Vec::new();
    // Prime the loop.
    for _ in 0..concurrency.min(total as usize) {
        let pkt = make_request(injected);
        started.insert(pkt.id.seq, SimTime::ZERO);
        accel.on_packet(SimTime::ZERO, pkt, &mut outs);
        absorb(&mut outs, &mut drv, &mut departed);
        injected += 1;
    }

    loop {
        // Process departures accumulated so far (they may re-inject).
        while let Some((at, mut pkt)) = departed.pop() {
            match pkt.status {
                IterStatus::IterLimit => {
                    // Continuation: same request, fresh offload.
                    pkt.status = IterStatus::InFlight;
                    pkt.state.iters_done = 0;
                    accel.on_packet(at, pkt, &mut outs);
                    absorb(&mut outs, &mut drv, &mut departed);
                }
                _ => {
                    completed += 1;
                    makespan = makespan.max(at);
                    if let Some(t0) = started.remove(&pkt.id.seq) {
                        latency.record(at - t0);
                    }
                    if injected < total {
                        let next = make_request(injected);
                        started.insert(next.id.seq, at);
                        injected += 1;
                        accel.on_packet(at, next, &mut outs);
                        absorb(&mut outs, &mut drv, &mut departed);
                    }
                }
            }
        }
        match drv.next_event() {
            Some(ev) => {
                accel.step(drv.now(), ev, mem, &mut outs);
                absorb(&mut outs, &mut drv, &mut departed);
            }
            None => break,
        }
    }

    let horizon = makespan.max(SimTime::from_picos(1));
    HarnessReport {
        completed,
        makespan,
        latency: latency.summary(),
        throughput: completed as f64 / horizon.as_secs_f64(),
        memory_utilization: accel.memory_utilization(horizon),
        logic_utilization: accel.logic_utilization(horizon),
        dram_bytes_per_sec: accel.stats().dram_bytes as f64 / horizon.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelConfig, PipelineOrg};
    use pulse_dispatch::{compile, samples};
    use pulse_isa::{IterState, MemBus};
    use pulse_mem::{ClusterAllocator, Perms, Placement, RangeTable};
    use pulse_net::{CodeBlob, RequestId};
    use std::sync::Arc;

    fn chain(len: u64) -> (ClusterMemory, u64) {
        use pulse_dispatch::samples::hash_layout as hl;
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
        let addrs: Vec<u64> = (0..len)
            .map(|_| alloc.alloc(&mut mem, hl::NODE_SIZE).unwrap())
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            mem.write_word(a, i as u64, 8).unwrap();
            mem.write_word(a + 8, i as u64, 8).unwrap();
            let next = addrs.get(i + 1).copied().unwrap_or(0);
            mem.write_word(a + 16, next, 8).unwrap();
        }
        (mem, addrs[0])
    }

    fn setup(
        len: u64,
        org: PipelineOrg,
    ) -> (ClusterMemory, Accelerator, Arc<pulse_isa::Program>, u64) {
        let (mem, head) = chain(len);
        let prog = Arc::new(compile(&samples::hash_find_spec()).unwrap());
        let ranges: Vec<_> = mem
            .node_ranges(0)
            .iter()
            .map(|&(s, e)| (s, e, Perms::RW))
            .collect();
        let accel = Accelerator::new(
            AccelConfig {
                org,
                ..AccelConfig::default()
            },
            0,
            RangeTable::build(64, &ranges).unwrap(),
        );
        (mem, accel, prog, head)
    }

    fn packet(prog: &Arc<pulse_isa::Program>, head: u64, key: u64, seq: u64) -> IterPacket {
        let mut state = IterState::new(prog, head);
        state.set_scratch_u64(0, key);
        IterPacket {
            id: RequestId { cpu: 0, seq },
            code: CodeBlob::new(prog.clone()),
            state,
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        }
    }

    #[test]
    fn closed_loop_completes_all() {
        let (mut mem, mut accel, prog, head) = setup(
            64,
            PipelineOrg::Disaggregated {
                logic: 1,
                memory: 2,
            },
        );
        let report = run_closed_loop(&mut accel, &mut mem, |i| packet(&prog, head, 32, i), 200, 8);
        assert_eq!(report.completed, 200);
        assert!(report.throughput > 0.0);
        assert_eq!(report.latency.count, 200);
        assert!(report.memory_utilization > 0.5);
    }

    #[test]
    fn throughput_scales_with_memory_pipes_then_saturates() {
        // Fixed high concurrency; sweep n with m=1 (Fig. 11 / Table 4 shape).
        let mut tputs = Vec::new();
        for n in [1usize, 2, 4] {
            let (mut mem, mut accel, prog, head) = setup(
                64,
                PipelineOrg::Disaggregated {
                    logic: 1,
                    memory: n,
                },
            );
            let report = run_closed_loop(
                &mut accel,
                &mut mem,
                |i| packet(&prog, head, 48, i),
                300,
                16,
            );
            tputs.push(report.throughput);
        }
        assert!(tputs[1] > tputs[0] * 1.5, "{tputs:?}");
        assert!(tputs[2] > tputs[1] * 1.4, "{tputs:?}");
    }

    #[test]
    fn latency_grows_linearly_with_chain_length() {
        // The traversal-length appendix: end-to-end latency scales linearly
        // with hops.
        let mut lats = Vec::new();
        for len in [8u64, 16, 32, 64] {
            let (mut mem, mut accel, prog, head) = setup(
                len,
                PipelineOrg::Disaggregated {
                    logic: 3,
                    memory: 4,
                },
            );
            let report = run_closed_loop(
                &mut accel,
                &mut mem,
                |i| packet(&prog, head, len - 1, i),
                20,
                1,
            );
            lats.push(report.latency.mean.as_nanos_f64());
        }
        // Doubling hops should roughly double latency (within 25%): check
        // successive ratios.
        for w in lats.windows(2) {
            let r = w[1] / w[0];
            assert!((1.5..2.5).contains(&r), "ratios {lats:?}");
        }
    }

    #[test]
    fn continuations_are_transparent() {
        let (mut mem, mut accel, prog, head) = setup(
            128,
            PipelineOrg::Disaggregated {
                logic: 1,
                memory: 1,
            },
        );
        // Budget far below the 100-hop chain: completion requires several
        // continuations, but the result must still be correct.
        let mut cfg = *accel.config();
        cfg.max_iters = 16;
        let ranges: Vec<_> = mem
            .node_ranges(0)
            .iter()
            .map(|&(s, e)| (s, e, Perms::RW))
            .collect();
        accel = Accelerator::new(cfg, 0, RangeTable::build(64, &ranges).unwrap());
        let report = run_closed_loop(&mut accel, &mut mem, |i| packet(&prog, head, 100, i), 10, 2);
        assert_eq!(report.completed, 10);
        // 100-hop traversal with budget 16 needs ~7 offload segments; the
        // accelerator should have seen many more admissions than requests.
        assert!(accel.stats().iter_limited >= 10 * 6);
    }
}
