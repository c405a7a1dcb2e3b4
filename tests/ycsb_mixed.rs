//! End-to-end tests for the write path: YCSB mixed workloads driven
//! through the `Runtime` façade by the `YcsbDriver`, the seqlock retry
//! protocol under real rack concurrency, host-side structural inserts,
//! and the staged B+Tree `Traversal` impls.

use pulse::dispatch::DispatchEngine;
use pulse::ds::{BtrdbWindowScan, WiredTigerScan};
use pulse::isa::MemBus;
use pulse::mutation::{
    codes, locked_update_stage, retrying_request, verified_read_stage, InsertArena, MutationConfig,
};
use pulse::workloads::{ArrivalProcess, WiredTiger};
use pulse::{
    AppRequest, BtrdbConfig, Offloaded, OpenLoopDriver, PulseBuilder, WebServiceConfig,
    WiredTigerConfig, YcsbDriver, YcsbWorkload,
};
use std::sync::Arc;

fn webservice_cfg(workload: YcsbWorkload) -> WebServiceConfig {
    WebServiceConfig {
        keys: 2_000,
        workload,
        ..Default::default()
    }
}

/// YCSB-A through the rack: updates really execute (seqlock versions
/// advance), everything completes, and the update half of the mix is
/// visible in the stream.
#[test]
fn ycsb_a_mixed_stream_completes_with_real_updates() {
    let cfg = webservice_cfg(YcsbWorkload::A);
    let (mut runtime, app) = PulseBuilder::new()
        .nodes(2)
        .cpus(2)
        .window(16)
        .app(cfg)
        .unwrap();
    // Sample a few bucket version words before the run.
    let sample_buckets: Vec<u64> = (0..50).map(|k| app.map().bucket_addr(k)).collect();
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
    let reqs: Vec<AppRequest> = (0..300)
        .map(|_| driver.next_request(runtime.memory_mut()))
        .collect();
    let updates = reqs.iter().filter(|r| r.is_update()).count();
    assert!(
        (90..=210).contains(&updates),
        "YCSB-A should mint ~50% updates, got {updates}/300"
    );
    for req in reqs {
        runtime.submit(req).unwrap();
    }
    let report = runtime.drain();
    assert_eq!(report.completed + report.faulted, 300);
    assert_eq!(report.faulted, 0, "bounded retries must absorb all races");
    // Updates bumped seqlock versions: some sampled bucket version word is
    // now nonzero and even (unlocked).
    let mut bumped = 0u64;
    for &b in &sample_buckets {
        let v = runtime.memory_mut().read_word(b + 8, 8).unwrap();
        assert_eq!(v % 2, 0, "every bucket must end unlocked");
        bumped += u64::from(v > 0);
    }
    assert!(bumped > 0, "updates must have advanced bucket versions");
}

/// Seqlock races under open-loop load: a hot-keyed YCSB-A stream at high
/// offered load produces *counted* retries, and they surface through
/// `OpenLoopReport` alongside nonzero update goodput.
#[test]
fn open_loop_mixed_load_counts_retries_and_update_goodput() {
    let cfg = webservice_cfg(YcsbWorkload::A);
    let (mut runtime, app) = PulseBuilder::new().nodes(2).cpus(2).app(cfg).unwrap();
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
    let reqs: Vec<AppRequest> = (0..400)
        .map(|_| driver.next_request(runtime.memory_mut()))
        .collect();
    let mut open = OpenLoopDriver::new(ArrivalProcess::poisson(400_000.0, 11));
    let rep = open.run(&mut runtime, reqs).unwrap();
    assert_eq!(rep.completed + rep.faulted, 400);
    assert!(
        rep.completed_updates > 0,
        "update goodput must be nonzero: {rep:?}"
    );
    assert!(
        rep.retries > 0,
        "zipfian YCSB-A at 400 kops must race at least once (got {} retries)",
        rep.retries
    );
    assert_eq!(rep.retries, runtime.report().retries);
}

/// The open-loop delta rule on a reused runtime (the warmup use case):
/// a second stream's counters are this stream's only — exactly the
/// runtime's lifetime counters minus the first stream's. YCSB-A with
/// speculation and batching on races (retries) and mis-speculates in both
/// streams. A crash at replication 2 in the first stream makes both fail
/// over; its rebuild finishes while the first stream drains, so the
/// second stream must report zero rebuild bytes, not the lifetime total.
#[test]
fn reused_runtime_reports_second_stream_as_a_delta() {
    use pulse::sim::SimTime;
    use pulse::{FaultEvent, FaultKind};
    let cfg = webservice_cfg(YcsbWorkload::A);
    let (mut runtime, app) = PulseBuilder::new()
        .nodes(3)
        .cpus(2)
        .granularity(4096)
        .replication(2)
        .faults(vec![FaultEvent::new(
            SimTime::from_micros(150),
            FaultKind::MemCrash(0),
        )])
        .speculation(true)
        .batching(4)
        .app(cfg)
        .unwrap();
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
    let mut stream = |runtime: &mut pulse::Runtime, n: usize, seed: u64| {
        let reqs: Vec<AppRequest> = (0..n)
            .map(|_| driver.next_request(runtime.memory_mut()))
            .collect();
        OpenLoopDriver::new(ArrivalProcess::poisson(400_000.0, seed))
            .run(runtime, reqs)
            .unwrap()
    };
    let first = stream(&mut runtime, 200, 3);
    let second = stream(&mut runtime, 400, 5);
    let life = runtime.report();
    assert_eq!(second.completed + second.faulted, 400);
    assert_eq!(second.retries, life.retries - first.retries);
    assert_eq!(second.failovers, life.failovers - first.failovers);
    assert_eq!(
        second.rereplication_bytes,
        life.rereplication_bytes - first.rereplication_bytes
    );
    assert_eq!(
        second.mis_speculations,
        life.mis_speculations - first.mis_speculations
    );
    assert_eq!(second.batched_hops, life.batched_hops - first.batched_hops);
    assert_eq!(
        second.coalesced_prefix_hops,
        life.coalesced_prefix_hops - first.coalesced_prefix_hops
    );
    // The rule is only tested if the first stream moved every counter
    // (coalescing is off, so its counter must stay zero throughout).
    assert!(first.rereplication_bytes > 0 && second.rereplication_bytes == 0);
    for rep in [&first, &second] {
        assert!(rep.retries > 0 && rep.mis_speculations > 0 && rep.batched_hops > 0);
        assert!(rep.failovers > 0);
    }
}

/// The RPC baseline counts only the updates that completed. An all-update
/// stream on a 2-node rack whose node 0 crashes at t=0, unreplicated, loses
/// some updates as unavailable; none of them may count toward update
/// goodput.
#[test]
fn rpc_counts_only_completed_updates_under_a_crash() {
    use pulse::sim::SimTime;
    use pulse::{FaultEvent, FaultKind, PulseMode, RpcFlavor};
    let cfg = webservice_cfg(YcsbWorkload::A);
    let (mut engine, app) = PulseBuilder::new()
        .nodes(2)
        .mode(PulseMode::Rpc(RpcFlavor::Rpc))
        .faults(vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))])
        .app(cfg)
        .unwrap();
    let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
    let updates: Vec<AppRequest> = (0..400)
        .map(|_| driver.next_request(engine.memory_mut()))
        .filter(AppRequest::is_update)
        .collect();
    let rep = OpenLoopDriver::new(ArrivalProcess::poisson(100_000.0, 7))
        .run(&mut engine, updates.clone())
        .unwrap();
    assert!(rep.completed > 0 && rep.unavailable_completions > 0);
    assert_eq!(rep.completed + rep.faulted, updates.len() as u64);
    assert_eq!(rep.completed_updates, rep.completed);
}

/// YCSB-A with the front-end cache enabled: the mixed stream completes
/// without loss, the cache actually hits (skewed reads re-walk hot
/// buckets), updates erode those hits through version invalidation, and —
/// the coherence contract — ground truth after the run matches a
/// cache-less rack executing the identical stream, so no cached read ever
/// served a stale value into a decision.
#[test]
fn ycsb_a_with_cache_stays_coherent() {
    let cfg = webservice_cfg(YcsbWorkload::A);
    let run = |cache: pulse::CacheConfig| {
        let (mut runtime, app) = PulseBuilder::new()
            .nodes(2)
            .cpus(2)
            .window(16)
            .cache(cache)
            .app(cfg)
            .unwrap();
        let buckets: Vec<u64> = (0..50).map(|k| app.map().bucket_addr(k)).collect();
        let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default()).unwrap();
        let reqs: Vec<AppRequest> = (0..300)
            .map(|_| driver.next_request(runtime.memory_mut()))
            .collect();
        for req in reqs {
            runtime.submit(req).unwrap();
        }
        let report = runtime.drain();
        // Post-run ground truth: every sampled bucket's seqlock version.
        let census: Vec<u64> = buckets
            .iter()
            .map(|&b| runtime.memory_mut().read_word(b + 8, 8).unwrap())
            .collect();
        (report, census)
    };
    let (cached, cached_versions) = run(pulse::CacheConfig::sized(1 << 20));
    assert_eq!(cached.completed + cached.faulted, 300);
    assert_eq!(cached.faulted, 0, "bounded retries absorb cached races too");
    assert!(
        cached.cache_hit_rate > 0.0,
        "skewed reads must hit: {cached:?}"
    );
    let cache_stats = &cached;
    assert!(cache_stats.completed > 0);

    // The cache-less rack on the identical deterministic stream: the
    // final seqlock version census must agree — every update landed
    // exactly once on both racks, none was lost to a stale cached read.
    let (plain, plain_versions) = run(pulse::CacheConfig::disabled());
    assert_eq!(plain.cache_hit_rate, 0.0);
    assert_eq!(
        cached_versions, plain_versions,
        "cached and cache-less racks must agree on every bucket's final \
         seqlock version"
    );
}

/// The deterministic retry-exhaustion path: a bucket left locked (a
/// crashed writer) forces a verified read to burn its whole retry budget
/// and fault-complete — counted, never hung.
#[test]
fn locked_bucket_exhausts_retries_and_faults() {
    let cfg = webservice_cfg(YcsbWorkload::C);
    let (mut runtime, app) = PulseBuilder::new().nodes(1).app(cfg).unwrap();
    let bucket = app.map().bucket_addr(7);
    // Wedge the bucket: odd version = writer holds it forever.
    runtime.memory_mut().write_word(bucket + 8, 1, 8).unwrap();
    let find = Arc::new(pulse::mutation::verified_find_program());
    let req = retrying_request(
        verified_read_stage(&find, bucket, 7),
        MutationConfig { max_retries: 3 },
    );
    assert_eq!(req.retry.map(|r| r.code), Some(codes::RETRY));
    runtime.submit(req).unwrap();
    let done = runtime.poll();
    assert_eq!(done.len(), 1, "must complete, not hang");
    assert!(!done[0].ok, "retry exhaustion is loss");
    let report = runtime.report();
    assert_eq!(report.retries, 3, "every re-issue counted");
    assert_eq!(report.faulted, 1);
}

/// A verified read and a locked update of the same key, through the full
/// rack: both complete, and the update's value lands (visible to a
/// subsequent verified read).
#[test]
fn verified_read_sees_completed_update() {
    let (mut runtime, map) = PulseBuilder::new()
        .nodes(1)
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..128).map(|k| (k, k + 1000)).collect();
            pulse::ds::HashMapDs::build(ctx, 4, &pairs)
        })
        .unwrap();
    let find = Arc::new(pulse::mutation::verified_find_program());
    let update = Arc::new(pulse::mutation::locked_update_program());
    let bucket = map.bucket_addr(42);
    let mc = MutationConfig::default();
    runtime
        .submit(retrying_request(
            locked_update_stage(&update, bucket, 42, 0xCAFE),
            mc,
        ))
        .unwrap();
    runtime
        .submit(retrying_request(verified_read_stage(&find, bucket, 42), mc))
        .unwrap();
    let report = runtime.drain();
    assert_eq!(report.completed, 2);
    // Ground truth after both completed.
    assert_eq!(
        map.get_host(runtime.memory_mut(), 42).unwrap(),
        Some(0xCAFE)
    );
}

/// YCSB-E through the rack: structural inserts apply to the tree (scans
/// see them) and the whole mixed stream completes.
#[test]
fn ycsb_e_inserts_are_visible_to_scans() {
    let cfg = WiredTigerConfig {
        keys: 5_000,
        ..Default::default()
    };
    let (mut runtime, (app, arena)) = PulseBuilder::new()
        .nodes(2)
        .window(8)
        .build_with(|ctx| {
            let app = WiredTiger::build(ctx, cfg)?;
            let arena = InsertArena::build(ctx, 1 << 20)?;
            Ok((app, arena))
        })
        .unwrap();
    // Total-entry census via an unbounded staged scan from key 0.
    let census = Offloaded::compile(
        WiredTigerScan::new(app.tree(), 1 << 20),
        &DispatchEngine::default(),
    )
    .unwrap();
    let census_req = census.request(0).unwrap();
    let count_entries = |rt: &mut pulse::Runtime, req: &AppRequest| {
        rt.execute_functional(req)
            .unwrap()
            .response
            .final_state
            .unwrap()
            .scratch_u64(pulse::ds::wt_layout::SP_MATCHED as usize)
    };
    let before = count_entries(&mut runtime, &census_req);
    assert_eq!(before, 5_000);

    let mut driver = YcsbDriver::wiredtiger(app, cfg, arena, MutationConfig::default()).unwrap();
    let reqs: Vec<AppRequest> = (0..200)
        .map(|_| driver.next_request(runtime.memory_mut()))
        .collect();
    let inserts = reqs.iter().filter(|r| r.is_update()).count();
    assert!(
        (2..=30).contains(&inserts),
        "YCSB-E should mint ~5% inserts, got {inserts}/200"
    );
    assert_eq!(
        driver.degraded_inserts(),
        0,
        "arena must cover the whole stream"
    );
    let after = count_entries(&mut runtime, &census_req);
    assert_eq!(
        after,
        before + inserts as u64,
        "every structural insert must be scannable"
    );
    for req in reqs {
        runtime.submit(req).unwrap();
    }
    let report = runtime.drain();
    assert_eq!(report.completed, 200);
    assert_eq!(report.faulted, 0);
}

/// Satellite: the staged B+Tree `Traversal` impls (keyed scan with a
/// parameterized limit; windowed aggregation) compile through `Offloaded`
/// and match functional ground truth through the rack.
#[test]
fn staged_btree_traversal_impls_match_ground_truth() {
    // WiredTiger keyed scan.
    let pairs: Vec<(u64, u64)> = (0..20_000).map(|k| (k * 2, k)).collect();
    let (mut runtime, tree) = PulseBuilder::new()
        .nodes(2)
        .window(4)
        .build_with(|ctx| {
            pulse::ds::WiredTigerTree::build(ctx, &pairs, pulse::ds::TreePlacement::Policy)
        })
        .unwrap();
    let scan =
        Offloaded::compile(WiredTigerScan::new(&tree, 25), &DispatchEngine::default()).unwrap();
    let mut expected = Vec::new();
    let probes = [100u64, 3_000, 39_990];
    for &p in &probes {
        let req = scan.request(p).unwrap();
        let truth = runtime.execute_functional(&req).unwrap();
        expected.push(
            truth
                .response
                .final_state
                .unwrap()
                .scratch_u64(pulse::ds::wt_layout::SP_MATCHED as usize),
        );
        runtime.submit(req).unwrap();
    }
    let mut seen = 0;
    loop {
        let done = runtime.poll();
        if done.is_empty() {
            break;
        }
        for c in done {
            assert!(c.ok);
            let got = c
                .final_state
                .as_ref()
                .unwrap()
                .scratch_u64(pulse::ds::wt_layout::SP_MATCHED as usize);
            assert_eq!(got, expected[c.id.seq as usize]);
            seen += 1;
        }
    }
    assert_eq!(seen, probes.len());
    // The limit parameterizes the plan: a different wrapper, same programs.
    let narrow =
        Offloaded::compile(WiredTigerScan::new(&tree, 5), &DispatchEngine::default()).unwrap();
    let req = narrow.request(100).unwrap();
    let truth = runtime.execute_functional(&req).unwrap();
    assert_eq!(
        truth
            .response
            .final_state
            .unwrap()
            .scratch_u64(pulse::ds::wt_layout::SP_MATCHED as usize),
        5
    );

    // BTrDB windowed aggregation.
    let (mut runtime, app) = PulseBuilder::new()
        .nodes(2)
        .window(4)
        .app(BtrdbConfig {
            duration_secs: 120,
            window_secs: 2,
            ..Default::default()
        })
        .unwrap();
    let window_ns = app.window_ns();
    let agg = Offloaded::compile(
        BtrdbWindowScan::new(app.tree(), window_ns),
        &DispatchEngine::default(),
    )
    .unwrap();
    let t0 = 30_000_000_000u64;
    let req = agg.request(t0).unwrap();
    let truth = runtime.execute_functional(&req).unwrap();
    let want = truth.response.final_state.as_ref().unwrap().clone();
    runtime.submit(req).unwrap();
    let done = runtime.poll();
    assert_eq!(done.len(), 1);
    assert!(done[0].ok);
    assert_eq!(
        done[0].final_state.as_ref().unwrap().scratch,
        want.scratch,
        "windowed aggregate must match functional truth"
    );
}
