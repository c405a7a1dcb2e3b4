//! The WebService application (§6's first workload) end-to-end: YCSB-C
//! lookups against a hash-partitioned table with 8 KiB objects gathered
//! near memory, compared across pulse and the RPC baseline.
//!
//! Both systems hide behind the same `Engine` trait, so the comparison is
//! literally a loop over `Box<dyn Engine>` — swapping the system under
//! test is a one-line change.
//!
//! ```sh
//! cargo run --example webservice
//! ```

use pulse::baselines::RpcConfig;
use pulse::workloads::{Application, Distribution, YcsbWorkload};
use pulse::{BaselineKind, Engine, PulseBuilder, WebServiceConfig};

fn app_cfg() -> WebServiceConfig {
    WebServiceConfig {
        keys: 6_000,
        distribution: Distribution::Zipfian,
        workload: YcsbWorkload::C,
        ..Default::default()
    }
}

fn builder() -> PulseBuilder {
    PulseBuilder::new().nodes(2).granularity(2 << 20).window(16)
}

fn main() -> Result<(), pulse::Error> {
    println!("WebService (YCSB-C, Zipfian), 2 memory nodes\n");

    // The pulse rack and the RPC baseline get identical deployments: the
    // builder wires the same memory layout, and the deterministic app seed
    // makes request streams interchangeable across them.
    let (runtime, mut app) = builder().app(app_cfg())?;
    let requests: Vec<_> = (0..300).map(|_| app.next_request()).collect();

    let (rpc, _) = builder().baseline_app(BaselineKind::Rpc(RpcConfig::rpc()), app_cfg())?;

    let mut systems: Vec<Box<dyn Engine>> = vec![Box::new(runtime), Box::new(rpc)];
    for system in &mut systems {
        let rep = system.execute(&requests)?;
        println!(
            "{:<6}: mean {} p99 {} tput {:.0} ops/s",
            system.label(),
            rep.latency.mean,
            rep.latency.p99,
            rep.throughput
        );
    }
    println!("\n(paper: RPC is 1-1.4x faster single-node thanks to its 9x CPU");
    println!(" clock; pulse wins once traversals span memory nodes — Fig. 7)");
    Ok(())
}
