//! Fig. 2(a): fraction of execution time in pointer traversals and
//! normalized slowdown vs local-memory:working-set ratio, on swap-based
//! disaggregated memory (Zipfian and uniform). The Cache-based system runs
//! on the rack (`PulseMode::Swap`); `trav %` is the share of its walk time
//! (admission to completion, page faults included) spent on traversal
//! accesses, and `hit %` is its page-cache hit ratio.

use pulse::{BaselineEngine, BaselineKind, Engine};
use pulse_baselines::SwapConfig;
use pulse_bench::banner;
use pulse_ds::{BuildCtx, TreePlacement};
use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
use pulse_workloads::{
    AppRequest, Application, Btrdb, BtrdbConfig, Distribution, WebService, WebServiceConfig,
    WiredTiger, WiredTigerConfig,
};

fn build(app: &str, dist: Distribution) -> (ClusterMemory, Vec<AppRequest>, u64) {
    let mut mem = ClusterMemory::new(1);
    let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 20);
    let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
    let (reqs, ws): (Vec<AppRequest>, u64) = match app {
        "WebService" => {
            // Small objects keep the index a meaningful share of the WSS,
            // matching the paper's GB-scale tables.
            let mut a = WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys: 100_000,
                    object_bytes: 512,
                    distribution: dist,
                    ..Default::default()
                },
            )
            .unwrap();
            let ws = a.working_set_bytes();
            ((0..400).map(|_| a.next_request()).collect(), ws)
        }
        "WiredTiger" => {
            let mut a = WiredTiger::build(
                &mut ctx,
                WiredTigerConfig {
                    keys: 80_000,
                    distribution: dist,
                    placement: TreePlacement::Policy,
                    ..Default::default()
                },
            )
            .unwrap();
            let ws = a.working_set_bytes();
            ((0..400).map(|_| a.next_request()).collect(), ws)
        }
        _ => {
            let mut a = Btrdb::build(
                &mut ctx,
                BtrdbConfig {
                    duration_secs: 1200,
                    window_secs: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            let ws = a.working_set_bytes();
            ((0..400).map(|_| a.next_request()).collect(), ws)
        }
    };
    (mem, reqs, ws)
}

fn main() {
    banner(
        "Fig. 2(a)",
        "% execution time in pointer traversals vs cache:WSS ratio",
    );
    println!("paper: WS 13.6%, WT 63.7%, BTrDB 55.8% at full cache; both the");
    println!("traversal share and total time grow as the cache shrinks.");
    println!("trav % = share of the CPU node's walk time (admission to");
    println!("completion, page faults included) spent on traversal accesses;");
    println!("hit % = 4 KiB page-cache hit ratio.");
    println!("deviation: trav % reads ~99%, not the paper's shares. A");
    println!("request's own CPU work (2 us WS, 0.3-0.5 us WT, 1 us BTrDB)");
    println!("is under 1% of its walk, which page faults dominate: 400");
    println!("requests start on a cold page cache, so even at 1/1 each");
    println!("faults 4+ times on average, at >= 9 us of fault software and");
    println!("swap service apiece. The paper measures whole applications,");
    println!("their own compute included, in steady state.\n");
    for dist in [Distribution::Zipfian, Distribution::Uniform] {
        println!("--- {dist:?} ---");
        println!(
            "{:<12} {:>8} | {:>9} {:>10} {:>9}",
            "app", "cache", "trav %", "slowdown", "hit %"
        );
        for app in ["WebService", "WiredTiger", "BTrDB"] {
            let mut base_latency = None;
            for shift in [0u32, 1, 2, 3, 4] {
                let (mem, reqs, ws) = build(app, dist);
                let cache = (ws >> shift).max(1 << 16);
                let kind = BaselineKind::SwapCache(SwapConfig {
                    cache_bytes: cache,
                    ..SwapConfig::default()
                });
                let mut engine = BaselineEngine::new(mem, kind, 8).unwrap();
                let rep = engine.execute(&reqs).unwrap();
                let swap = engine.cluster().swap_stats();
                let base = *base_latency.get_or_insert(rep.latency.mean);
                println!(
                    "{:<12} {:>7} | {:>8.1}% {:>9.2}x {:>8.1}%",
                    app,
                    format!("1/{}", 1u32 << shift),
                    swap.traversal_fraction() * 100.0,
                    rep.latency.mean.as_nanos_f64() / base.as_nanos_f64(),
                    swap.hit_rate() * 100.0,
                );
            }
            println!();
        }
    }
}
