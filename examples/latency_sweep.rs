//! Latency-vs-offered-load sweep: the extended evaluation's headline
//! curve, produced by the open-loop pipeline end to end — now with honest
//! CPU-side saturation and full workload coverage.
//!
//! A Poisson [`ArrivalProcess`] feeds `Runtime::submit_at` through the
//! `pulse-bench` `sweep()` ladder. Nineteen curves run the identical
//! arrival schedule:
//!
//! * **pulse** — the rack (2 memory nodes, 2 CPU nodes) over WebService,
//! * **RPC** / **Cache-based** — the baselines over the same WebService
//!   deployment,
//! * **pulse-wiredtiger** / **pulse-btrdb** — the rack over the staged
//!   B+Tree applications,
//! * **pulse-ycsb-a** / **pulse-ycsb-b** — read-write mixes over the hash
//!   map: seqlock-verified reads and locked in-place update traversals
//!   (`pulse-mutation`), retries counted per rung,
//! * **pulse-ycsb-e** — the B+Tree mix: staged scans plus host-path
//!   structural inserts,
//! * **RPC-ycsb-a** — the RPC baseline under the same mixed stream, so
//!   the pulse-vs-RPC comparison covers the write path too,
//! * **pulse+cache** / **RPC+cache** — the skewed read-only WebService
//!   deployment with a coherent front-end cache at every CPU node
//!   (`CacheConfig`): cached hops walk locally, misses offload from the
//!   last cached pointer, every hit is version-validated,
//! * **pulse-ycsb-a+cache** — the same cache under the write-heavy mix,
//!   where invalidation-on-update collapses the benefit — the paper's
//!   "caches can't save pointer-traversals" claim, measured instead of
//!   asserted (a cache-size × Zipf-θ grid prints alongside),
//! * **pulse-leafspine-hot** / **RPC-leafspine-hot** — the multi-rack
//!   incast comparison: four memory nodes on a 2-leaf/2-spine routed
//!   fabric (`TopologySpec::LeafSpine`), Zipf-skewed keys concentrating
//!   traversals on the hot buckets' owning node. Every packet is priced
//!   hop by hop on finite links; RPC's per-crossing CPU bounce drags every
//!   traversal through the CPU node's downlink (incast), while pulse's
//!   chained hops ride memory-to-memory paths — the separation the paper's
//!   in-network routing argument predicts, with per-curve CPU-downlink
//!   utilization and queue depth in the emitted JSON,
//! * **pulse-crash** / **pulse-crash-replicated** / **RPC-crash** — the
//!   SLO-under-failure comparison: four flat memory nodes, node 0
//!   crashes 30 µs into every rung. Unreplicated pulse fault-completes
//!   every request whose data died with the node
//!   (`unavailable_completions`); with two-way replication the rack
//!   re-plans onto surviving replicas (`failovers`) and streams rebuild
//!   traffic that competes with foreground requests
//!   (`rereplication_bytes`), finishing every request; the replicated RPC
//!   baseline runs on the same rack, so it fails over and rebuilds the
//!   same way. Each crash curve's p99 over the degraded window is emitted
//!   as `degraded_p99_us`,
//! * **pulse-spec** / **pulse-spec-ycsb-a** — the ISA-v2 curves: the same
//!   rack with speculative next-hop issue, same-node hop batching, and
//!   (read-heavy only) shared-prefix coalescing switched on. The
//!   read-heavy curve moves the sustained-load knee; the 50%-update mix
//!   prices the speculation honestly — concurrent updates bump granule
//!   versions inside speculation windows, so `mis_speculations` is
//!   nonzero. These two land in `BENCH_spec_sweep.json`, keeping the
//!   default `BENCH_sweep.json` byte-identical to the pinned golden.
//!
//! Every engine runs the same contended dispatch model: each CPU node's
//! issue path is a serial engine (`DISPATCH_OCCUPANCY` per packet on
//! `DISPATCH_CONTEXTS` contexts), so CPU-side queueing — the effect the
//! extended evaluation blames for the RPC baseline's collapse — shows up
//! in every curve instead of being assumed away. The "sustained load"
//! headline counts only rungs whose goodput kept up with the offered load
//! (within `pulse_bench::GOODPUT_TOLERANCE`), reporting *achieved*, not
//! offered, kops.
//!
//! ```sh
//! cargo run --release --example latency_sweep
//! cargo run --release --example latency_sweep -- --requests 300 --loads 20,60,120
//! cargo run --release --example latency_sweep -- --workers 1   # serial schedule
//! ```
//!
//! Every curve — the nineteen table rows, the cache-size × θ grid and the
//! traced rung — is one `pulse_bench::Deployment`: a `PulseBuilder` rack
//! (cpus, dispatch, cache, topology, replication, faults, ISA-v2
//! switches, tracing, window), its memory-node count and a `Stream`
//! (an application's read-only stream or a YCSB mix). The rack's
//! `PulseMode` is the system: pulse or a baseline, which keeps one CPU
//! node. Two curves that differ in one axis differ in one builder setter.
//!
//! The nineteen curves run on `pulse_bench::sweep_par_with`'s bounded
//! worker pool: every (curve, rung) pair is a deterministic closed world,
//! so workers claim rungs in parallel and the results are stitched back in
//! ladder order — `BENCH_sweep.json` is byte-identical for any worker
//! count. Per-curve wall-clock prints as each curve finishes.
//!
//! The run writes the seventeen default curves to `BENCH_sweep.json`, the
//! two ISA-v2 curves to `BENCH_spec_sweep.json`, and the simulator's own
//! speed (sim-ops/sec per curve, its build and simulate wall-clock, and
//! wall-clock per rung) to
//! `BENCH_simspeed.json`; CI greps all three files and checks the
//! cache-hit-rate, link-utilization, and ISA-v2 invariants. Every document
//! (the traced pair below included) is written before the example asserts
//! its claims, so a failed claim still leaves them on disk to compare.
//!
//! `--trace <path>` additionally runs one fully-traced rung *after* the
//! sweep (tracing stays off in every ladder curve, so `BENCH_sweep.json`
//! is byte-identical with or without the flag): the routed leaf-spine
//! WebService deployment with span recording on, exported as a
//! Perfetto-loadable Chrome trace at `<path>` plus a one-curve
//! `BENCH_traced_sweep.json` carrying the per-phase latency attribution
//! (`"phase"` objects) that CI's trace gate validates.

use pulse::sim::SimTime;
use pulse::workloads::Distribution;
use pulse::{
    CacheConfig, DispatchConfig, FaultEvent, FaultKind, OpenLoopDriver, Phase, PulseBuilder,
    PulseMode, RpcFlavor, TopologySpec, TraceConfig, YcsbWorkload,
};
use pulse_bench::{
    simspeed_json, sweep, sweep_json, sweep_par_with, AppKind, CurveSpec, Deployment, Stream,
    SweepPoint, SweepReport, DEFAULT_GRANULARITY, SWEEP_WIREDTIGER_KEYS,
};

const NODES: usize = 2;
const CPUS: usize = 2;
const BASELINE_CLIENTS: usize = 16;
const SEED: u64 = 42;
/// Memory nodes in the multi-rack incast deployment (two per leaf).
const FABRIC_NODES: usize = 4;
/// The routed geometry of the incast curves.
const FABRIC_TOPOLOGY: TopologySpec = TopologySpec::LeafSpine {
    leaves: 2,
    spines: 2,
};
/// The SLO used for the "sustained load" headline (µs).
const SLO_P99_US: f64 = 150.0;
/// Dispatch-engine service time per issued packet.
const DISPATCH_OCCUPANCY: SimTime = SimTime::from_nanos(1_000);
/// Dispatch contexts per CPU node.
const DISPATCH_CONTEXTS: usize = 2;
/// Front-end cache capacity for the `+cache` curves (per CPU node).
const CACHE_BYTES: u64 = 4 << 20;
/// Memory nodes in the crash curves: four, so a two-way-replicated rack
/// that loses one node still has spare nodes to rebuild onto.
const CRASH_NODES: usize = 4;
/// When node 0 dies on every crash rung — early enough that nearly the
/// whole rung runs degraded at every offered load on the ladder.
const CRASH_AT: SimTime = SimTime::from_micros(30);
/// Batch window of the ISA-v2 curves: up to this many consecutive
/// locally-translating hops fuse into one membus transaction.
const SPEC_BATCH_HOPS: u32 = 4;
/// Labels of the ISA-v2 curves, swept on the same ladder but written to
/// `BENCH_spec_sweep.json` so the default `BENCH_sweep.json` stays
/// byte-identical to the pinned golden.
const SPEC_LABELS: [&str; 2] = ["pulse-spec", "pulse-spec-ycsb-a"];

/// The crash curves' fault schedule: node 0 fail-stops at [`CRASH_AT`] and
/// never comes back (the re-replication engine, not a repair, restores
/// redundancy).
fn crash_schedule() -> Vec<FaultEvent> {
    vec![FaultEvent::new(CRASH_AT, FaultKind::MemCrash(0))]
}

fn main() -> Result<(), pulse::Error> {
    let (loads_kops, requests, workers, trace_path) = parse_args();
    let dispatch = DispatchConfig::contended(DISPATCH_OCCUPANCY, DISPATCH_CONTEXTS);

    println!("latency-vs-load sweep — {NODES} memory nodes, {CPUS} CPU nodes");
    println!("open-loop Poisson arrivals (seed {SEED}), {requests} requests per rung");
    println!(
        "dispatch engine: {:.1} us occupancy x {} contexts = {:.0} kops/CPU saturation",
        DISPATCH_OCCUPANCY.as_micros_f64(),
        DISPATCH_CONTEXTS,
        dispatch.saturation_rate() / 1e3
    );
    println!("parallel sweep harness: {workers} worker threads\n");

    // The rack every curve starts from: 2 MiB extents, `CPUS` compute nodes
    // on the contended dispatch model and `BASELINE_CLIENTS` in flight —
    // the baselines' client count, equal to the pulse runtime's default
    // window.
    let rack = PulseBuilder::new()
        .granularity(DEFAULT_GRANULARITY)
        .cpus(CPUS)
        .dispatch(dispatch)
        .window(BASELINE_CLIENTS);
    // Every curve is one `(label, deployment)` row over that rack;
    // the ladder and seed are applied once, so adding a curve is a
    // one-line entry and two curves that differ in one axis differ in one
    // builder setter. Order matters: the assertions after the sweep index
    // `curves[0]` (pulse) and `curves[1]` (RPC), `sweep_par_with` stitches
    // results back in exactly this order, and the `SPEC_LABELS` curves must
    // stay last (the split below peels them off the tail into their own
    // JSON document).
    let at = |rack: &PulseBuilder, nodes, stream| Deployment {
        rack: rack.clone(),
        nodes,
        stream,
        requests,
    };
    let ws = Stream::App(AppKind::WebService(YcsbWorkload::C), Distribution::Zipfian);
    // A baseline runs `rack` in its own mode on one CPU node, its clients
    // the window.
    let baseline = |rack: &PulseBuilder, mode| rack.clone().mode(mode).cpus(1);
    let rpc = |rack: &PulseBuilder| baseline(rack, PulseMode::Rpc(RpcFlavor::Rpc));
    let cached = rack.clone().cache(CacheConfig::sized(CACHE_BYTES));
    let leafspine = rack.clone().topology(FABRIC_TOPOLOGY);
    let crashed = |replication| {
        rack.clone()
            .replication(replication)
            .faults(crash_schedule())
    };
    let spec = rack.clone().speculation(true).batching(SPEC_BATCH_HOPS);
    let table: Vec<(&str, Deployment)> = vec![
        ("pulse", at(&rack, NODES, ws)),
        ("RPC", at(&rpc(&rack), NODES, ws)),
        (
            "Cache-based",
            at(
                &baseline(
                    &rack,
                    PulseMode::Swap {
                        cache_bytes: 8 << 20,
                    },
                ),
                NODES,
                ws,
            ),
        ),
        (
            "pulse-wiredtiger",
            at(
                &rack,
                NODES,
                Stream::App(
                    AppKind::WiredTiger {
                        keys: SWEEP_WIREDTIGER_KEYS,
                    },
                    Distribution::Zipfian,
                ),
            ),
        ),
        (
            "pulse-btrdb",
            at(
                &rack,
                NODES,
                Stream::App(AppKind::Btrdb(4), Distribution::Zipfian),
            ),
        ),
        (
            "pulse-ycsb-a",
            at(&rack, NODES, Stream::Ycsb(YcsbWorkload::A)),
        ),
        (
            "pulse-ycsb-b",
            at(&rack, NODES, Stream::Ycsb(YcsbWorkload::B)),
        ),
        (
            "pulse-ycsb-e",
            at(&rack, NODES, Stream::Ycsb(YcsbWorkload::E)),
        ),
        (
            "RPC-ycsb-a",
            at(&rpc(&rack), NODES, Stream::Ycsb(YcsbWorkload::A)),
        ),
        // The cache-sensitivity curves: the same skewed WebService
        // deployment with a coherent front-end cache at every CPU node
        // (pulse and RPC), plus the write-heavy YCSB-A mix with the same
        // cache — where invalidation-on-update collapses the benefit.
        ("pulse+cache", at(&cached, NODES, ws)),
        ("RPC+cache", at(&rpc(&cached), NODES, ws)),
        (
            "pulse-ycsb-a+cache",
            at(&cached, NODES, Stream::Ycsb(YcsbWorkload::A)),
        ),
        // The multi-rack incast comparison: identical Zipf-skewed
        // WebService deployments on a routed 2-leaf/2-spine fabric.
        ("pulse-leafspine-hot", at(&leafspine, FABRIC_NODES, ws)),
        ("RPC-leafspine-hot", at(&rpc(&leafspine), FABRIC_NODES, ws)),
        // The SLO-under-failure comparison: identical flat deployments,
        // node 0 fail-stops 30 us into every rung. One axis varies per
        // curve: replication off, replication on, and the RPC baseline
        // with the same replica rule and fault schedule.
        ("pulse-crash", at(&crashed(1), CRASH_NODES, ws)),
        ("pulse-crash-replicated", at(&crashed(2), CRASH_NODES, ws)),
        ("RPC-crash", at(&rpc(&crashed(2)), CRASH_NODES, ws)),
        // The ISA-v2 curves (`SPEC_LABELS`): the identical read-heavy
        // WebService deployment with speculation, batching, and coalescing
        // on, and the YCSB-A mix with speculation+batching — where
        // concurrent updates invalidate speculated windows, so the
        // mis-speculation tax is visible instead of assumed away.
        (
            SPEC_LABELS[0],
            at(&spec.clone().coalescing(true), NODES, ws),
        ),
        (
            SPEC_LABELS[1],
            at(&spec, NODES, Stream::Ycsb(YcsbWorkload::A)),
        ),
    ];
    let specs: Vec<CurveSpec> = table
        .into_iter()
        .map(|(label, deployment)| CurveSpec::new(label, &loads_kops, SEED, deployment.factory()))
        .collect();

    let par = sweep_par_with(&specs, workers, |timing| {
        println!(
            "  [done] {:<20} {:>9.0} ms  ({:.0} build + {:.0} simulate; {:.2e} sim-ops/s)",
            timing.label,
            timing.wall_ms,
            timing.build_ms,
            timing.simulate_ms,
            timing.sim_ops_per_sec()
        );
    })?;
    println!(
        "\nall {} curves in {:.0} ms wall-clock on {} workers\n",
        par.curves.len(),
        par.total_wall_ms,
        par.workers
    );
    let speed_json = simspeed_json(&par);
    let mut curves = par.curves;
    // Peel the ISA-v2 curves off the table's tail: they swept the same
    // ladder, but they land in their own document (`BENCH_spec_sweep.json`)
    // so the default `BENCH_sweep.json` stays byte-identical to the pinned
    // golden with the latency-hiding switches off.
    let spec_curves = curves.split_off(curves.len() - SPEC_LABELS.len());
    assert!(
        spec_curves.iter().map(|c| c.label.as_str()).eq(SPEC_LABELS),
        "the ISA-v2 curves must be the table's tail"
    );

    // Every document goes out before any claim below is asserted, so a
    // failed claim still leaves the sweep on disk to compare and diagnose.
    let json = sweep_json(&curves);
    std::fs::write("BENCH_sweep.json", &json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_sweep.json: {e}")))?;
    println!(
        "\nwrote BENCH_sweep.json ({} bytes, {} curves)",
        json.len(),
        curves.len()
    );
    let spec_json = sweep_json(&spec_curves);
    std::fs::write("BENCH_spec_sweep.json", &spec_json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_spec_sweep.json: {e}")))?;
    println!(
        "wrote BENCH_spec_sweep.json ({} bytes, {} ISA-v2 curves)",
        spec_json.len(),
        spec_curves.len()
    );
    std::fs::write("BENCH_simspeed.json", &speed_json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_simspeed.json: {e}")))?;
    println!(
        "wrote BENCH_simspeed.json ({} bytes, {} workers)",
        speed_json.len(),
        workers
    );

    if let Some(path) = trace_path {
        let traced = Deployment {
            rack: leafspine.trace(Some(TraceConfig::default())),
            nodes: FABRIC_NODES,
            stream: ws,
            requests,
        };
        run_traced_rung(&path, &traced, loads_kops[0])?;
    }

    for curve in curves.iter().chain(&spec_curves) {
        print_curve(curve);
    }

    // The WebService curves are the paper's direct comparison: their p99
    // must not regress as load rises (queueing only accumulates).
    for curve in curves.iter().take(2) {
        let monotone = curve
            .points
            .windows(2)
            .all(|w| w[1].p99_us >= w[0].p99_us * 0.999);
        println!(
            "{}: p99 monotone non-decreasing with load: {}",
            curve.label,
            if monotone { "yes" } else { "NO" }
        );
        assert!(monotone, "{}: p99 regressed as load rose", curve.label);
    }

    // The write path must actually run: every mixed curve needs nonzero
    // update goodput, and the hash-map mixes must surface their seqlock
    // retries (racing is the point of YCSB-A at load).
    for label in ["pulse-ycsb-a", "pulse-ycsb-b", "pulse-ycsb-e", "RPC-ycsb-a"] {
        let curve = curves
            .iter()
            .find(|c| c.label == label)
            .expect("mixed curve present");
        assert!(
            curve.points.iter().any(|p| p.update_goodput_kops > 0.0),
            "{label}: update goodput must be nonzero somewhere on the ladder"
        );
    }
    let ycsb_a = curves
        .iter()
        .find(|c| c.label == "pulse-ycsb-a")
        .expect("present");
    let total_retries: u64 = ycsb_a.points.iter().map(|p| p.retries).sum();
    println!(
        "pulse-ycsb-a: {} seqlock retries across the ladder",
        total_retries
    );
    assert!(
        total_retries > 0,
        "a zipfian 50%-update mix under load must race at least once"
    );

    // The cache claims, measured: every cache-disabled curve reports a hit
    // rate of exactly zero; the skewed read-only pulse+cache curve hits on
    // every rung; and the write-heavy mix ages lines out fast enough that
    // its hit rate lands strictly below the read-only one — the
    // "caches can't save pointer-traversals" framing, end to end.
    let hit = |label: &str| {
        let c = curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("{label} curve present"));
        c.points
            .iter()
            .map(|p| p.cache_hit_rate)
            .fold(f64::NAN, f64::max)
    };
    for curve in curves.iter().chain(&spec_curves) {
        if !curve.label.contains("+cache") {
            assert!(
                curve.points.iter().all(|p| p.cache_hit_rate == 0.0),
                "{}: cache-disabled curves must report exactly 0.0",
                curve.label
            );
        }
    }

    // The ISA-v2 negative space: every default curve runs with
    // speculation, batching, and coalescing off, so it must report exactly
    // zero ISA-v2 counters — the latency-hiding machinery cannot leak into
    // the golden-trace path.
    for curve in &curves {
        assert!(
            curve.points.iter().all(|p| p.mis_speculations == 0
                && p.batched_hops == 0
                && p.coalesced_prefix_hops == 0),
            "{}: spec-off curves must carry zero ISA-v2 metrics",
            curve.label
        );
    }
    let read_hit = hit("pulse+cache");
    let rpc_hit = hit("RPC+cache");
    let mixed_hit = hit("pulse-ycsb-a+cache");
    println!(
        "front-end cache hit rates: pulse+cache {read_hit:.3}, \
         RPC+cache {rpc_hit:.3}, pulse-ycsb-a+cache {mixed_hit:.3}"
    );
    assert!(read_hit > 0.0, "skewed reads must hit the front-end cache");
    assert!(rpc_hit > 0.0, "the RPC front-end cache must hit too");
    assert!(
        mixed_hit < read_hit,
        "update invalidation must erode the write-heavy mix's hit rate \
         ({mixed_hit} vs read-only {read_hit})"
    );

    // Cache-size × Zipf-θ sensitivity (single rung per cell): hit rate
    // grows with skew and with capacity — where it stays low, caching
    // cannot help no matter the budget.
    println!("\ncache-size x zipf-theta hit-rate grid (pulse, one rung):");
    let thetas = [200u16, 990u16];
    let sizes = [64 << 10u64, CACHE_BYTES];
    let mut grid = Vec::new();
    for &milli in &thetas {
        let mut row = Vec::new();
        for &bytes in &sizes {
            let cell = Deployment {
                rack: rack.clone().cache(CacheConfig::sized(bytes)),
                nodes: NODES,
                stream: Stream::App(
                    AppKind::WebService(YcsbWorkload::C),
                    Distribution::ZipfianTheta { milli },
                ),
                requests: requests.min(500),
            };
            let cell = sweep("grid", &[loads_kops[0]], SEED, cell.factory())?;
            row.push(cell.points[0].cache_hit_rate);
        }
        grid.push(row);
    }
    println!("{:>12} {:>10} {:>10}", "theta \\ size", "64KiB", "4MiB");
    for (ti, row) in grid.iter().enumerate() {
        println!(
            "{:>12.2} {:>10.3} {:>10.3}",
            thetas[ti] as f64 / 1000.0,
            row[0],
            row[1]
        );
    }
    assert!(
        grid[1][1] > grid[0][1],
        "at equal capacity, higher skew must hit more: {grid:?}"
    );
    assert!(
        grid[1][1] >= grid[1][0],
        "at equal skew, more capacity must not hit less: {grid:?}"
    );

    println!("\nsustained load at p99 <= {SLO_P99_US} us (achieved goodput, kops):");
    for curve in curves.iter().chain(&spec_curves) {
        println!(
            "  {:>18}: {}",
            curve.label,
            fmt_kops(curve.max_load_under_p99(SLO_P99_US)),
        );
    }
    let pulse_sustained = curves[0].max_load_under_p99(SLO_P99_US);
    let rpc_sustained = curves[1].max_load_under_p99(SLO_P99_US);
    if let (Some(p), Some(r)) = (pulse_sustained, rpc_sustained) {
        // 2% grace: both numbers are now achieved goodput, so equal-rate
        // rungs can differ by completion-tail noise.
        assert!(
            p >= r * 0.98,
            "pulse should sustain at least the RPC load at equal p99 ({p} vs {r})"
        );
    }

    // The ISA-v2 headline, measured: with speculation, batching, and
    // coalescing on, the read-heavy rack must move the knee — strictly
    // higher sustained load at the same SLO on the same ladder — and each
    // mechanism must actually fire. On the 50%-update mix the speculation
    // is priced honestly: concurrent updates bump granule versions inside
    // the speculation window, so `mis_speculations` must be nonzero.
    let spec = &spec_curves[0];
    let spec_ycsb = &spec_curves[1];
    let spec_sustained = spec.max_load_under_p99(SLO_P99_US);
    println!(
        "\nISA v2 — sustained at p99 <= {SLO_P99_US} us: pulse {} vs pulse-spec {}",
        fmt_kops(pulse_sustained),
        fmt_kops(spec_sustained),
    );
    let count =
        |c: &SweepReport, f: fn(&SweepPoint) -> u64| -> u64 { c.points.iter().map(f).sum() };
    for c in [spec, spec_ycsb] {
        println!(
            "  {:>18}: {} batched hops, {} coalesced prefix hops, {} mis-speculations",
            c.label,
            count(c, |p| p.batched_hops),
            count(c, |p| p.coalesced_prefix_hops),
            count(c, |p| p.mis_speculations),
        );
    }
    let (p, s) = (
        pulse_sustained.expect("pulse sustains some rung"),
        spec_sustained.expect("pulse-spec sustains some rung"),
    );
    assert!(
        s > p,
        "ISA v2 must move the read-heavy knee: pulse-spec {s} vs pulse {p} kops"
    );
    assert!(
        count(spec, |p| p.batched_hops) > 0,
        "same-node hop batching must fuse some hops on the read-heavy curve"
    );
    assert!(
        count(spec, |p| p.coalesced_prefix_hops) > 0,
        "zipfian duplicates under load must coalesce some prefix hops"
    );
    assert!(
        count(spec_ycsb, |p| p.mis_speculations) > 0,
        "the 50%-update mix must invalidate some speculated windows"
    );
    // Where caching *does* help: on the skewed read-only workload, the
    // cached rack's sustained-load knee must be at least the plain rack's
    // (hot hash chains resolve locally instead of crossing the wire).
    let cached_sustained = curves
        .iter()
        .find(|c| c.label == "pulse+cache")
        .and_then(|c| c.max_load_under_p99(SLO_P99_US));
    if let (Some(p), Some(pc)) = (pulse_sustained, cached_sustained) {
        println!("skewed-read sustained: pulse {p:.0} vs pulse+cache {pc:.0} kops");
        assert!(
            pc >= p * 0.98,
            "the front-end cache must not lower the skewed-read knee ({pc} vs {p})"
        );
    }
    // The same comparison on the mixed workload: pulse vs RPC under
    // YCSB-A, both with real updates in flight.
    let mixed_pulse = ycsb_a.max_load_under_p99(SLO_P99_US);
    let mixed_rpc = curves
        .iter()
        .find(|c| c.label == "RPC-ycsb-a")
        .and_then(|c| c.max_load_under_p99(SLO_P99_US));
    println!(
        "mixed YCSB-A sustained: pulse {} vs RPC {}",
        fmt_kops(mixed_pulse),
        fmt_kops(mixed_rpc),
    );

    // The routed-fabric invariants, measured: flat curves carry exactly
    // zero fabric metrics (a flat rack reports no fabric gauges); both
    // routed curves show real downlink pressure.
    for curve in curves.iter().chain(&spec_curves) {
        if !curve.label.contains("leafspine") {
            assert!(
                curve.points.iter().all(|p| p.link_utilization == 0.0
                    && p.link_demand == 0.0
                    && p.queue_depth == 0),
                "{}: flat curves must report zero fabric metrics",
                curve.label
            );
        }
    }
    let fabric_curve = |label: &str| {
        curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("{label} curve present"))
    };
    let pulse_fab = fabric_curve("pulse-leafspine-hot");
    let rpc_fab = fabric_curve("RPC-leafspine-hot");
    let peak =
        |c: &SweepReport, of: fn(&SweepPoint) -> f64| c.points.iter().map(of).fold(0.0, f64::max);
    let (pulse_util, rpc_util) = (
        peak(pulse_fab, |p| p.link_utilization),
        peak(rpc_fab, |p| p.link_utilization),
    );
    // Utilization is capped at 1.0; demand (uncapped) separates the two
    // once both downlinks saturate.
    let (pulse_demand, rpc_demand) = (
        peak(pulse_fab, |p| p.link_demand),
        peak(rpc_fab, |p| p.link_demand),
    );
    println!(
        "\nleaf-spine incast — peak CPU-downlink utilization: \
         pulse {pulse_util:.3} vs RPC {rpc_util:.3}; \
         demand: pulse {pulse_demand:.3} vs RPC {rpc_demand:.3}"
    );
    assert!(
        pulse_util > 0.0 && rpc_util > 0.0,
        "routed curves must price real traffic on the fabric"
    );
    // The incast separation itself, rung by rung: bouncing every
    // cross-node hop through the CPU node keeps RPC's downlink demand at
    // or above pulse's on every rung (a ladder's top rungs may pin BOTH
    // links at 1.0, where utilization can no longer separate them), and
    // strictly above it on at least one pre-saturation rung.
    let mut strictly_above = false;
    for (p, r) in pulse_fab.points.iter().zip(&rpc_fab.points) {
        assert!(
            r.link_utilization >= p.link_utilization,
            "RPC's CPU bounce must congest the downlink at least as hard as \
             pulse's chained hops on every rung ({:.3} vs {:.3} at {} kops)",
            r.link_utilization,
            p.link_utilization,
            p.offered_kops
        );
        strictly_above |= r.link_utilization > p.link_utilization;
    }
    assert!(
        strictly_above,
        "some rung must separate RPC's downlink demand from pulse's \
         (pulse {pulse_util:.3} vs RPC {rpc_util:.3} at peak)"
    );
    let pulse_fab_sustained = pulse_fab.max_load_under_p99(SLO_P99_US);
    let rpc_fab_sustained = rpc_fab.max_load_under_p99(SLO_P99_US);
    println!(
        "leaf-spine incast sustained at p99 <= {SLO_P99_US} us: pulse {} vs RPC {}",
        fmt_kops(pulse_fab_sustained),
        fmt_kops(rpc_fab_sustained),
    );
    match (pulse_fab_sustained, rpc_fab_sustained) {
        (Some(p), Some(r)) => assert!(
            p > r,
            "chained traversal must beat the CPU bounce on the hot fabric ({p} vs {r})"
        ),
        (Some(_), None) => {} // RPC sustained nothing at the SLO: stronger still.
        _ => panic!("pulse must sustain some load on the routed fabric"),
    }

    // The SLO-under-failure invariants, measured. First the negative
    // space: a curve with no fault schedule must never fail over, lose a
    // request to unavailability, move a rebuild byte, or report a degraded
    // window — failure accounting leaking into healthy curves would mean
    // the default path is no longer the golden-trace path.
    for curve in curves.iter().chain(&spec_curves) {
        if !curve.label.contains("crash") {
            assert!(
                curve.points.iter().all(|p| p.failovers == 0
                    && p.unavailable_completions == 0
                    && p.rereplication_bytes == 0
                    && p.degraded_p99_us == 0.0),
                "{}: fault-free curves must carry zero failure metrics",
                curve.label
            );
        }
    }
    let crash_curve = |label: &str| {
        curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("{label} curve present"))
    };
    let bare = crash_curve("pulse-crash");
    let repl = crash_curve("pulse-crash-replicated");
    let rpc_crash = crash_curve("RPC-crash");
    let sum = |c: &SweepReport, f: fn(&pulse_bench::SweepPoint) -> u64| -> u64 {
        c.points.iter().map(f).sum()
    };
    println!(
        "\ncrash at {} us, node 0 of {CRASH_NODES} (per-ladder totals):",
        CRASH_AT.as_micros_f64()
    );
    for c in [bare, repl, rpc_crash] {
        println!(
            "  {:>24}: {:>5} unavailable, {:>6} failovers, {:>9} rebuild bytes, \
             degraded p99 {:.1} us",
            c.label,
            sum(c, |p| p.unavailable_completions),
            sum(c, |p| p.failovers),
            sum(c, |p| p.rereplication_bytes),
            c.points
                .iter()
                .map(|p| p.degraded_p99_us)
                .fold(0.0, f64::max)
        );
    }
    // Unreplicated: the crash takes data offline, so some requests can
    // only fault-complete as unavailable — and nothing can be rebuilt.
    assert!(
        sum(bare, |p| p.unavailable_completions) > 0,
        "losing the only copy must surface unavailable completions"
    );
    assert_eq!(
        sum(bare, |p| p.rereplication_bytes),
        0,
        "nothing to rebuild from at replication 1"
    );
    // Replicated: every rung finishes every request — zero unavailable —
    // by re-planning onto survivors and paying real rebuild traffic.
    assert!(
        repl.points.iter().all(|p| p.unavailable_completions == 0),
        "two-way replication must ride out a single-node crash"
    );
    assert!(
        sum(repl, |p| p.failovers) > 0,
        "riding out the crash requires actual failovers"
    );
    assert!(
        sum(repl, |p| p.rereplication_bytes) > 0,
        "rebuilding lost redundancy must move real bytes"
    );
    assert!(
        repl.points.iter().any(|p| p.degraded_p99_us > 0.0),
        "the degraded window must cover some completions"
    );
    // The replicated RPC baseline runs on the same rack: it stays
    // available by failing over, and the rack rebuilds its lost replicas
    // too.
    assert!(
        rpc_crash
            .points
            .iter()
            .all(|p| p.unavailable_completions == 0),
        "replicated RPC must ride out the crash too"
    );
    assert!(
        sum(rpc_crash, |p| p.failovers) > 0,
        "RPC failover must actually trigger"
    );
    assert!(
        sum(rpc_crash, |p| p.rereplication_bytes) > 0,
        "the rack rebuilds lost redundancy under RPC too"
    );

    Ok(())
}

/// One fully-traced rung, run after the sweep so tracing never touches the
/// golden ladder: `traced` is the `pulse-leafspine-hot` deployment with
/// span recording on. Writes the Perfetto-loadable Chrome trace to `path` and a
/// one-curve sweep document (with the `"phase"` attribution object) to
/// `BENCH_traced_sweep.json`, then prints the per-phase breakdown.
fn run_traced_rung(path: &str, traced: &Deployment, load_kops: f64) -> Result<(), pulse::Error> {
    let (mut runtime, reqs) = traced.runtime();
    let arrivals = pulse::ArrivalProcess::poisson(load_kops * 1e3, SEED);
    let rep = OpenLoopDriver::new(arrivals).run(&mut runtime, reqs)?;

    let chrome = runtime
        .trace_json()
        .expect("tracing was enabled on this runtime");
    std::fs::write(path, &chrome)
        .map_err(|e| pulse::Error::Config(format!("writing {path}: {e}")))?;
    println!(
        "\nwrote {path} ({} bytes of Chrome trace events)",
        chrome.len()
    );

    let point = SweepPoint::from_open_loop(&rep);
    let attribution = point
        .phase
        .clone()
        .expect("a traced rung must carry phase attribution");
    let curve = SweepReport {
        label: "pulse-leafspine-traced".into(),
        points: vec![point],
    };
    let doc = sweep_json(&[curve]);
    std::fs::write("BENCH_traced_sweep.json", &doc)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_traced_sweep.json: {e}")))?;
    println!("wrote BENCH_traced_sweep.json ({} bytes)", doc.len());

    println!(
        "per-phase latency attribution over {} traced requests at {load_kops:.0} kops:",
        attribution.count
    );
    println!("{:>16} {:>12} {:>12}", "phase", "mean us", "p99 us");
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        println!(
            "{:>16} {:>12.3} {:>12.3}",
            phase.key(),
            attribution.mean_us[i],
            attribution.p99_us[i]
        );
    }
    println!(
        "{:>16} {:>12.3} (phase means sum to the mean latency)",
        "total",
        attribution.mean_us.iter().sum::<f64>()
    );
    Ok(())
}

/// Renders an optional sustained-load headline for stdout tables; `-`
/// when no rung qualified at the SLO.
fn fmt_kops(v: Option<f64>) -> String {
    v.map_or("-".into(), |k| format!("{k:.0} kops"))
}

fn print_curve(curve: &SweepReport) {
    println!("── {} ──", curve.label);
    println!(
        "{:>10} {:>10} | {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>6}",
        "offered", "arrived", "p50", "p95", "p99", "goodput", "upd-good", "retries", "hit"
    );
    for p in &curve.points {
        println!(
            "{:>10.1} {:>10.1} | {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>9.1} {:>7} {:>6.3}",
            p.offered_kops,
            p.arrived_kops,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.goodput_kops,
            p.update_goodput_kops,
            p.retries,
            p.cache_hit_rate
        );
    }
    println!();
}

/// `--loads 20,60,120` (kops), `--requests 300`, `--workers 4`, and
/// `--trace <path>` (off by default), with full-ladder defaults sized for
/// a release-build run. Workers default to the machine's available
/// parallelism; `--workers 1` reproduces the serial schedule (the emitted
/// JSON is byte-identical either way).
fn parse_args() -> (Vec<f64>, usize, usize, Option<String>) {
    let mut loads = vec![100.0, 400.0, 800.0, 1_600.0, 3_200.0];
    let mut requests = 2_000usize;
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--loads" => {
                loads = value
                    .split(',')
                    .map(|s| s.trim().parse().expect("a numeric kops value"))
                    .collect();
            }
            "--requests" => requests = value.parse().expect("a request count"),
            "--workers" => workers = value.parse().expect("a worker count"),
            "--trace" => {
                assert!(!value.is_empty(), "--trace needs an output path");
                trace = Some(value);
            }
            other => {
                panic!("unknown flag {other} (expected --loads, --requests, --workers, or --trace)")
            }
        }
    }
    assert!(
        !loads.is_empty() && requests > 0 && workers > 0,
        "empty ladder"
    );
    (loads, requests, workers, trace)
}
