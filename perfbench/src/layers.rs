//! Host-time probes of single layers, each timed from outside by calling
//! that layer's public functions on the workload's own shapes: queue depth,
//! topology and message sizes, and the cell stream its traversals walk.

use pulse::frontend::TraversalCache;
use pulse::mem::ClusterMemory;
use pulse::net::{Endpoint, Fabric, FabricConfig, FRAME_HEADER_BYTES, PULSE_HEADER_BYTES};
use pulse::sim::{EventQueue, SimTime, SplitMix64};
use pulse::workloads::FunctionalRun;
use pulse::{AppRequest, CacheConfig, TopologySpec};
use std::hint::black_box;
use std::time::Instant;

/// Hold-model operations the event-queue probe times.
const QUEUE_OPS: usize = 400_000;

/// Capacity of the cache the probe runs (the cached workload's).
const PROBE_CACHE_BYTES: u64 = 4 << 20;

/// Host ns per `EventQueue` pop+push pair at `depth` pending events (the
/// hold model: pop the earliest, push it back a random gap later, so the
/// depth stays put). The payload is 64 bytes, about an in-flight packet
/// event's size.
pub fn queue_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let span = (depth as u64).max(1) * 2_000_000; // ~2 µs per pending event
    let mut q = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.push(SimTime::from_picos(rng.next_below(span)), [i as u64; 8]);
    }
    let t0 = Instant::now();
    for _ in 0..QUEUE_OPS {
        let (at, payload) = q.pop().expect("the hold model keeps the queue non-empty");
        let gap = SimTime::from_picos(1 + rng.next_below(span));
        q.push(at + gap, black_box(payload));
    }
    let ns = t0.elapsed().as_nanos() as f64 / QUEUE_OPS as f64;
    black_box(q.len());
    ns
}

/// Host ns per `Fabric::send` replaying the workload's packet legs on its
/// topology: each request goes CPU → owner of its first hop, memory →
/// memory at every owner change along its functional access trace, and
/// back to the CPU, departing at its arrival time. Legs toward memory
/// carry the request packet (headers, code, scratch); the last leg
/// carries the scratch plus any object read.
pub fn fabric_send_ns(
    geometry: (usize, usize, TopologySpec),
    mem: &ClusterMemory,
    requests: &[AppRequest],
    runs: &[FunctionalRun],
    arrivals: &[SimTime],
) -> f64 {
    let (cpus, nodes, topology) = geometry;
    let mut fabric = Fabric::new(topology.build(cpus, nodes), FabricConfig::default());
    let header = (FRAME_HEADER_BYTES + PULSE_HEADER_BYTES) as u64;
    // The legs first, so only the sends are timed.
    let mut legs: Vec<(usize, Endpoint, Endpoint, u64)> = Vec::new();
    for (i, (req, run)) in requests.iter().zip(runs).enumerate() {
        let Some(stage) = req.traversals.first() else {
            continue;
        };
        let program = &stage.program;
        let out_bytes = header + program.wire_len() as u64 + u64::from(program.scratch_len());
        let back_bytes = header
            + u64::from(program.scratch_len())
            + req
                .object_io
                .map_or(0, |io| if io.write { 0 } else { u64::from(io.len) });
        let cpu = Endpoint::Cpu(i % cpus);
        let mut at = cpu;
        for access in run.accesses.iter().filter(|a| a.traversal) {
            let Some(owner) = mem.owner_of(access.addr) else {
                continue;
            };
            let next = Endpoint::Mem(owner);
            if next != at {
                legs.push((i, at, next, out_bytes));
                at = next;
            }
        }
        legs.push((i, at, cpu, back_bytes));
    }
    let t0 = Instant::now();
    let mut cursor = SimTime::ZERO;
    let mut current = usize::MAX;
    for &(i, from, to, bytes) in &legs {
        if i != current {
            current = i;
            cursor = arrivals[i];
        }
        cursor = fabric
            .send(cursor, from, to, bytes)
            .expect("every rack endpoint is on the fabric");
    }
    let ns = t0.elapsed().as_nanos() as f64 / legs.len().max(1) as f64;
    black_box(cursor);
    ns
}

/// Host ns per `TraversalCache` probe over the cell stream the workload's
/// traversals walk (their functional access traces, in order), filling on
/// every miss — a cold 4 MiB cache warming up on the workload's own keys.
pub fn cache_probe_ns(mem: &mut ClusterMemory, runs: &[FunctionalRun]) -> f64 {
    let cells: Vec<(u64, u64)> = runs
        .iter()
        .flat_map(|r| r.accesses.iter().filter(|a| a.traversal && !a.write))
        .map(|a| (a.addr, u64::from(a.len)))
        .collect();
    let mut cache = TraversalCache::new(CacheConfig::sized(PROBE_CACHE_BYTES));
    let t0 = Instant::now();
    for &(addr, len) in &cells {
        if !cache.probe_range(addr, len, mem) {
            cache.fill_range(addr, len, mem);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / cells.len().max(1) as f64;
    black_box(cache.stats());
    ns
}
