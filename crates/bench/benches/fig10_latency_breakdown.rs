//! Fig. 10: per-component latency breakdown at the pulse accelerator.

use pulse::PulseBuilder;
use pulse_bench::{banner, AppKind, Deployment, Stream, DEFAULT_GRANULARITY};
use pulse_workloads::{Distribution, YcsbWorkload};

fn main() {
    banner("Fig. 10", "accelerator latency breakdown (WebService)");
    let (mut runtime, reqs) = Deployment {
        rack: PulseBuilder::new()
            .granularity(DEFAULT_GRANULARITY)
            .window(4),
        nodes: 1,
        stream: Stream::App(AppKind::WebService(YcsbWorkload::C), Distribution::Zipfian),
        requests: 200,
    }
    .pulse();
    for req in reqs {
        runtime
            .submit(req)
            .expect("a minted request is well-formed");
    }
    runtime.drain();
    let accel = &runtime.cluster().accelerators()[0];
    let s = accel.stats();
    let iters = s.iterations.max(1) as f64;
    let reqs_in = s.done.max(1) as f64;
    let c = s.components;
    println!("component          paper(ns)    measured(ns)   basis");
    let rows = [
        (
            "network stack",
            426.3,
            c.net_stack.as_nanos_f64() / reqs_in / 2.0,
            "per packet",
        ),
        (
            "scheduler",
            5.1,
            c.scheduler.as_nanos_f64() / iters,
            "per dispatch",
        ),
        ("TCAM", 47.0, c.tcam.as_nanos_f64() / iters, "per iteration"),
        (
            "interconnect",
            22.0,
            c.interconnect.as_nanos_f64() / iters,
            "per iteration",
        ),
        (
            "memory controller",
            110.0,
            c.dram.as_nanos_f64() / iters,
            "per iteration",
        ),
        (
            "logic",
            10.0,
            c.logic.as_nanos_f64() / iters,
            "per iteration",
        ),
    ];
    for (name, paper, got, basis) in rows {
        println!("{name:<18} {paper:>9.1}    {got:>12.1}   {basis}");
    }
    println!();
    println!("(memory controller includes the burst transfer; scheduler is");
    println!(" charged at each of the ~2 dispatch points per iteration)");
}
