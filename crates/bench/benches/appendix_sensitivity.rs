//! Appendix C.2 sensitivity studies: access pattern (Zipfian vs uniform),
//! write-fraction with/without offloaded allocation, and traversal length.

use pulse::{Engine, Placement, PulseBuilder};
use pulse_baselines::LruSet;
use pulse_bench::{banner, us, AppKind, Deployment, Side, Stream, DEFAULT_GRANULARITY};
use pulse_dispatch::{compile, samples};
use pulse_ds::{LinkedList, ListKind};
use pulse_sim::SimTime;
use pulse_workloads::{AppRequest, Distribution, StartPtr, TraversalStage, YcsbWorkload};
use std::sync::Arc;

/// One-node WebService under `workload`, 8 requests in flight.
fn webservice(workload: YcsbWorkload, dist: Distribution, requests: usize) -> Deployment {
    Deployment {
        rack: PulseBuilder::new()
            .granularity(DEFAULT_GRANULARITY)
            .window(8),
        nodes: 1,
        stream: Stream::App(AppKind::WebService(workload), dist),
        requests,
    }
}

fn access_pattern() {
    println!("--- access pattern (CPU-node object cache in front of pulse) ---");
    // A transparent object cache at the CPU node (the AIFM-style cache
    // pulse adopts, §2.3) short-circuits hot keys; Zipfian benefits.
    println!(
        "{:<12} | {:>12} {:>12} {:>8}",
        "dist", "eff lat(us)", "hit %", "vs unif"
    );
    let mut uniform_lat = None;
    for dist in [Distribution::Uniform, Distribution::Zipfian] {
        let (mut runtime, reqs) = webservice(YcsbWorkload::C, dist, 400).pulse();
        let rep = runtime.execute(&reqs).unwrap();
        // Cache scaled as 2 GB : 32 GB = 1/16 of the object working set.
        let mut cache = LruSet::new(6_000 / 16);
        let mut hits = 0usize;
        for r in &reqs {
            let key = r.traversals[0].scratch_init[0].1;
            if cache.touch(key) {
                hits += 1;
            }
        }
        let hit = hits as f64 / reqs.len() as f64;
        let local = SimTime::from_micros(3); // cached object + cpu work
        let eff_ns = hit * local.as_nanos_f64() + (1.0 - hit) * rep.latency.mean.as_nanos_f64();
        let base = *uniform_lat.get_or_insert(eff_ns);
        println!(
            "{:<12} | {:>12.2} {:>11.1}% {:>7.2}x",
            format!("{dist:?}"),
            eff_ns / 1e3,
            hit * 100.0,
            base / eff_ns
        );
    }
    println!("paper: Zipfian improves pulse by up to 1.33x over uniform.\n");
}

fn write_fraction() {
    println!("--- data structure modifications (write %) ---");
    println!(
        "{:<8} | {:>14} {:>14} {:>8}",
        "write %", "w/ alloc (us)", "w/o alloc (us)", "ratio"
    );
    let rtt = SimTime::from_micros(9); // allocation round trip (2 needed)
    for pct in [0u32, 10, 25, 50] {
        // Updates ride the YCSB-A/B mixes; emulate the sweep by mixing C
        // (reads) and A (50% updates) latencies.
        let workload = if pct == 0 {
            YcsbWorkload::C
        } else {
            YcsbWorkload::A
        };
        let (_, rep) = webservice(workload, Distribution::Zipfian, 300).execute(Side::Pulse);
        let with_alloc = rep.latency.mean;
        // Without offloaded allocations every write pays two extra round
        // trips to allocate remotely (§C.2).
        let frac = pct as f64 / 100.0;
        let without = with_alloc + SimTime::from_nanos((rtt.as_nanos_f64() * 2.0 * frac) as u64);
        println!(
            "{:<8} | {:>14} {:>14} {:>7.2}x",
            pct,
            us(with_alloc),
            us(without),
            without.as_nanos_f64() / with_alloc.as_nanos_f64()
        );
    }
    println!("paper: up to 1.4x higher latency without offloaded allocation;");
    println!("16 pre-allocated scratchpad regions keep the overhead <1.1%.\n");
}

fn traversal_length() {
    println!("--- traversal length (linked list) ---");
    println!("{:>8} | {:>12}", "hops", "latency(us)");
    for hops in [8u64, 16, 32, 64, 128] {
        let values: Vec<u64> = (0..hops).collect();
        let (mut runtime, list) = PulseBuilder::new()
            .placement(Placement::Single(0))
            .window(1)
            .build_with(|ctx| LinkedList::build(ctx, ListKind::Singly, &values))
            .unwrap();
        let prog = Arc::new(compile(&samples::list_find_spec()).unwrap());
        let reqs: Vec<AppRequest> = (0..50)
            .map(|_| {
                AppRequest::traversal_only(TraversalStage {
                    program: prog.clone(),
                    start: StartPtr::Fixed(list.head()),
                    scratch_init: vec![(0, hops - 1)],
                })
            })
            .collect();
        let rep = runtime.execute(&reqs).unwrap();
        println!("{hops:>8} | {:>12.2}", rep.latency.mean.as_micros_f64());
    }
    println!("paper shape: end-to-end latency scales linearly with hops.");
}

fn main() {
    banner(
        "Appendix C.2",
        "sensitivity: access pattern, writes, traversal length",
    );
    access_pattern();
    write_fraction();
    traversal_length();
}
