//! The WebService application (§6's first workload) end-to-end: YCSB-C
//! lookups against a hash-partitioned table with 8 KiB objects gathered
//! near memory, compared across pulse and the RPC baseline.
//!
//! The system is one builder setting, so the comparison is literally a
//! loop over `PulseMode`s — swapping the system under test is a one-line
//! change.
//!
//! ```sh
//! cargo run --example webservice
//! ```

use pulse::workloads::{Application, Distribution, YcsbWorkload};
use pulse::{PulseBuilder, PulseMode, RpcFlavor, WebServiceConfig};

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
    // mints the same request stream in both.
    for mode in [PulseMode::Pulse, PulseMode::Rpc(RpcFlavor::Rpc)] {
        let (mut runtime, mut app) = builder().mode(mode).app(app_cfg())?;
        let requests: Vec<_> = (0..300).map(|_| app.next_request()).collect();
        let rep = runtime.execute(&requests)?;
        println!(
            "{:<6}: mean {} p99 {} tput {:.0} ops/s",
            runtime.label(),
            rep.latency.mean,
            rep.latency.p99,
            rep.throughput
        );
    }
    println!("\n(paper: RPC is 1-1.4x faster single-node thanks to its 9x CPU");
    println!(" clock; pulse wins once traversals span memory nodes — Fig. 7)");
    Ok(())
}
