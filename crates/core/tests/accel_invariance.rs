//! The accelerator's results on a multi-node BTrDB rack, pinned.
//!
//! `Accelerator::begin_iteration` prefetches the next hop's window into
//! the host's cache as soon as pre-execution knows its pointer. That is a
//! hint to the host CPU, so nothing simulated may depend on it: not which
//! requests complete, not their final scratchpads, not a single counter
//! or picosecond. This test runs a 4-node BTrDB rack, striped in 64 KiB
//! extents so most requests cross nodes, with one node's pointer set to
//! `u64::MAX - 7`, so the requests through it prefetch and chase a wild
//! pointer and fault. It runs without hop batching, with it, and with
//! batching plus speculation. Every completion must match the functional
//! oracle, and the accelerators' summed counters and the completions'
//! summed latency must equal the values the rack produced before the
//! prefetch existed. Those values change only with the accelerator's
//! timing model; re-pin them only in a change that means to move it.

use pulse_core::{AccelConfig, ClusterConfig, PulseCluster};
use pulse_ds::BuildCtx;
use pulse_isa::{Interpreter, IterState, MemBus};
use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
use pulse_sim::SimTime;
use pulse_workloads::{execute_functional, AppRequest, Application, Btrdb, BtrdbConfig};

const NODES: usize = 4;
const REQUESTS: usize = 150;

/// The rack's memory, its requests, and what the functional oracle says
/// each request ends with (`None` for a fault).
fn rack() -> (
    ClusterMemory,
    Vec<AppRequest>,
    Vec<Option<Option<IterState>>>,
) {
    let mut mem = ClusterMemory::new(NODES);
    let mut alloc = ClusterAllocator::new(Placement::Striped, 64 << 10);
    let mut app = Btrdb::build(
        &mut BuildCtx::new(&mut mem, &mut alloc),
        BtrdbConfig {
            duration_secs: 300,
            window_secs: 2,
            ..BtrdbConfig::default()
        },
    )
    .unwrap();
    let reqs: Vec<AppRequest> = (0..REQUESTS).map(|_| app.next_request()).collect();
    let mut interp = Interpreter::new();
    // Point the first request's second hop at `u64::MAX - 7`: find the
    // word of its window that holds the third hop's node address.
    let path = execute_functional(&mut interp, &mut mem, &reqs[0], 1 << 20)
        .unwrap()
        .accesses;
    let (hop, next) = (path[1], path[2].addr);
    let field = (hop.addr..hop.addr + u64::from(hop.len))
        .step_by(8)
        .find(|&a| {
            let word = mem.read_word(a, 8).unwrap();
            word <= next && next - word < 256
        })
        .expect("the hop holds its successor's address");
    mem.write_word(field, u64::MAX - 7, 8).unwrap();
    let oracle = reqs
        .iter()
        .map(|r| {
            execute_functional(&mut interp, &mut mem, r, 1 << 20)
                .ok()
                .map(|run| run.response.final_state)
        })
        .collect();
    (mem, reqs, oracle)
}

/// What a run is pinned to.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// Summed over the accelerators: requests in, done, rerouted,
    /// iteration-limited, faulted, iterations, DRAM bytes, instructions,
    /// speculation hits and misses, and batched hops.
    counters: [u64; 11],
    /// Every accelerator component's busy time, summed.
    busy_ps: u64,
    /// Every completion's latency, summed.
    latency_ps: u64,
    /// Completions that faulted.
    faulted: usize,
}

/// Runs the rack under `accel`, checking each completion against the
/// oracle.
fn run(accel: AccelConfig) -> Pinned {
    let (mem, reqs, oracle) = rack();
    let mut cluster = PulseCluster::new(
        ClusterConfig {
            accel,
            ..ClusterConfig::default()
        },
        mem,
    );
    for (i, r) in reqs.into_iter().enumerate() {
        cluster.submit_at(SimTime::from_nanos(10 * i as u64), r);
    }
    let mut done = Vec::new();
    while cluster.step() {
        done.extend(cluster.take_completions());
    }
    assert_eq!(done.len(), REQUESTS, "every request completes");
    for c in &done {
        match &oracle[c.id.seq as usize] {
            Some(state) => {
                assert!(c.ok, "request {} faulted on the rack", c.id.seq);
                assert_eq!(&c.final_state, state, "request {}", c.id.seq);
            }
            None => assert!(!c.ok, "request {} should fault", c.id.seq),
        }
    }
    let mut pinned = Pinned {
        counters: [0; 11],
        busy_ps: 0,
        latency_ps: done.iter().map(|c| c.latency().as_picos()).sum(),
        faulted: done.iter().filter(|c| !c.ok).count(),
    };
    for a in cluster.accelerators() {
        let s = a.stats();
        let counters = [
            s.requests_in,
            s.done,
            s.rerouted,
            s.iter_limited,
            s.faulted,
            s.iterations,
            s.dram_bytes,
            s.insns,
            s.spec_hits,
            s.mis_speculations,
            s.batched_hops,
        ];
        for (sum, c) in pinned.counters.iter_mut().zip(counters) {
            *sum += c;
        }
        let t = &s.components;
        pinned.busy_ps += [
            t.net_stack,
            t.scheduler,
            t.tcam,
            t.interconnect,
            t.dram,
            t.logic,
            t.spec_waste,
        ]
        .iter()
        .map(|t| t.as_picos())
        .sum::<u64>();
    }
    pinned
}

#[test]
fn unbatched_accelerators_keep_their_results() {
    let got = run(AccelConfig::default());
    let want = Pinned {
        counters: [575, 294, 281, 0, 0, 12_648, 922_104, 285_635, 0, 0, 0],
        busy_ps: 4_078_698_060,
        latency_ps: 20_121_360_280,
        faulted: 3,
    };
    assert_eq!(got, want);
}

#[test]
fn batched_accelerators_keep_their_results() {
    let got = run(AccelConfig {
        batch_hops: 4,
        ..AccelConfig::default()
    });
    let want = Pinned {
        counters: [575, 294, 281, 0, 0, 12_648, 922_104, 285_635, 0, 0, 9_164],
        busy_ps: 2_596_654_860,
        latency_ps: 15_906_998_100,
        faulted: 3,
    };
    assert_eq!(got, want);
}

#[test]
fn speculating_accelerators_keep_their_results() {
    let got = run(AccelConfig {
        batch_hops: 4,
        speculate: true,
        ..AccelConfig::default()
    });
    let want = Pinned {
        counters: [
            575, 294, 281, 0, 0, 12_648, 922_104, 285_635, 2_909, 0, 9_164,
        ],
        busy_ps: 2_596_583_460,
        latency_ps: 15_525_211_320,
        faulted: 3,
    };
    assert_eq!(got, want);
}
