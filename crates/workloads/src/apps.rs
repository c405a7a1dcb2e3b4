//! The three evaluation applications (§6, Table 3).
//!
//! * **WebService** [AIFM's frontend]: user-ID lookups in a chained hash
//!   table, an 8 KiB object fetch per hit, then encrypt+compress at the
//!   CPU node. Driven by YCSB A/B/C.
//! * **WiredTiger** (MongoDB's engine): B+Tree range scans over 8 B keys /
//!   240 B values, driven by YCSB E.
//! * **BTrDB**: windowed aggregations (sum/min/max/count) over 120 Hz μPMU
//!   telemetry at 1–8 s resolutions.
//!
//! Working sets are scaled from the paper's multi-GB deployments to tens of
//! MBs (the ratios the experiments sweep are preserved; every bench prints
//! its scale factor).

use crate::request::{AddrSource, AppRequest, ObjectIo, StartPtr, TraversalStage};
use crate::upmu::{self, Channel};
use crate::ycsb::{OpKind, YcsbWorkload};
use crate::zipf::{Distribution, KeyChooser};
use pulse_dispatch::compile;
use pulse_dispatch::samples::{btrdb_layout, btree_layout};
use pulse_ds::{wt_layout, BtrdbTree, BuildCtx, DsError, HashMapDs, TreePlacement, WiredTigerTree};
use pulse_isa::Program;
use pulse_sim::SimTime;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A workload application: a built structure plus a request generator.
pub trait Application: std::fmt::Debug {
    /// Next request in the stream (deterministic under the app's seed).
    fn next_request(&mut self) -> AppRequest;
    /// Application name as the paper's figures label it.
    fn name(&self) -> &'static str;
    /// Bytes of disaggregated memory the application's data occupies.
    fn working_set_bytes(&self) -> u64;
}

// ---------------------------------------------------------------- WebService

/// WebService configuration.
#[derive(Debug, Clone, Copy)]
pub struct WebServiceConfig {
    /// Number of user IDs.
    pub keys: u64,
    /// Key popularity distribution.
    pub distribution: Distribution,
    /// YCSB mix (A, B or C).
    pub workload: YcsbWorkload,
    /// Object payload size (8 KiB in the paper).
    pub object_bytes: u32,
    /// Average hash-chain length (the paper's geometry puts lookups at
    /// ~48 traversed nodes, i.e. chains of ~96).
    pub chain_target: u64,
    /// Hash-partition the table across memory nodes so each bucket's chain
    /// lives on one node (§6.1's WebService layout; objects co-locate with
    /// their bucket). Disable to stripe chains across nodes by the
    /// allocator's policy.
    pub partition_by_bucket: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebServiceConfig {
    fn default() -> Self {
        WebServiceConfig {
            keys: 10_000,
            distribution: Distribution::Zipfian,
            workload: YcsbWorkload::C,
            object_bytes: 8192,
            chain_target: 96,
            partition_by_bucket: true,
            seed: 0x0EB5,
        }
    }
}

/// The WebService frontend.
#[derive(Debug)]
pub struct WebService {
    map: HashMapDs,
    find_prog: Arc<Program>,
    chooser: Box<dyn KeyChooser>,
    workload: YcsbWorkload,
    rng: StdRng,
    object_bytes: u32,
    ws_bytes: u64,
    /// Host-side key -> object address, for verification.
    object_addrs: Vec<u64>,
}

/// CPU time to encrypt + compress one 8 KiB object at the CPU node.
pub const WEBSERVICE_CPU_WORK: SimTime = SimTime::from_micros(2);

impl WebService {
    /// Builds the hash index and the object store.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(ctx: &mut BuildCtx<'_>, cfg: WebServiceConfig) -> Result<Self, DsError> {
        let buckets = (cfg.keys / cfg.chain_target).max(1);
        let nodes = ctx.mem.node_count();
        // Shell map first (placement decided per bucket), then objects
        // co-located with their key's bucket; the hash value *is* the
        // object address.
        let mut map = if cfg.partition_by_bucket {
            HashMapDs::build_partitioned(ctx, buckets, &[], nodes)?
        } else {
            HashMapDs::build(ctx, buckets, &[])?
        };
        let mut object_addrs = Vec::with_capacity(cfg.keys as usize);
        for k in 0..cfg.keys {
            let addr = ctx.alloc_placed(map.bucket_node(k), cfg.object_bytes as u64)?;
            object_addrs.push(addr);
            map.insert(ctx, k, addr)?;
        }
        let ws_bytes = cfg.keys * cfg.object_bytes as u64
            + (cfg.keys + buckets) * pulse_dispatch::samples::hash_layout::NODE_SIZE;
        Ok(WebService {
            map,
            find_prog: Arc::new(compile(&HashMapDs::find_spec()).expect("spec compiles")),
            chooser: cfg.distribution.chooser(cfg.keys),
            workload: cfg.workload,
            rng: StdRng::seed_from_u64(cfg.seed),
            object_bytes: cfg.object_bytes,
            ws_bytes,
            object_addrs,
        })
    }

    /// The hash index.
    pub fn map(&self) -> &HashMapDs {
        &self.map
    }

    /// Host-side object address for `key` (verification).
    pub fn object_addr(&self, key: u64) -> u64 {
        self.object_addrs[key as usize]
    }

    /// Object payload size per key.
    pub fn object_bytes(&self) -> u32 {
        self.object_bytes
    }

    /// Number of user keys actually built (drivers size their key choosers
    /// from this, not from a possibly-disagreeing config).
    pub fn keys(&self) -> u64 {
        self.object_addrs.len() as u64
    }
}

impl Application for WebService {
    fn next_request(&mut self) -> AppRequest {
        let key = self.chooser.next_key(&mut self.rng);
        let op = self.workload.draw(&mut self.rng);
        let stage = TraversalStage {
            program: self.find_prog.clone(),
            start: StartPtr::Fixed(self.map.bucket_addr(key)),
            scratch_init: vec![(0, key)],
        };
        AppRequest {
            traversals: vec![stage],
            object_io: Some(ObjectIo {
                addr: AddrSource::FromScratch(8),
                len: self.object_bytes,
                write: op == OpKind::Update,
            }),
            cpu_work: WEBSERVICE_CPU_WORK,
            response_extra_bytes: 0,
            retry: None,
        }
    }

    fn name(&self) -> &'static str {
        "WebService"
    }

    fn working_set_bytes(&self) -> u64 {
        self.ws_bytes
    }
}

// ---------------------------------------------------------------- WiredTiger

/// WiredTiger configuration.
#[derive(Debug, Clone, Copy)]
pub struct WiredTigerConfig {
    /// Number of indexed keys.
    pub keys: u64,
    /// Key popularity distribution for scan starts.
    pub distribution: Distribution,
    /// Maximum scan length (YCSB-E draws uniformly from `1..=scan_max`;
    /// 200 lands the per-request iteration count at Table 3's ≈25).
    pub scan_max: u64,
    /// Tree placement across memory nodes.
    pub placement: TreePlacement,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WiredTigerConfig {
    fn default() -> Self {
        WiredTigerConfig {
            keys: 100_000,
            distribution: Distribution::Zipfian,
            scan_max: 200,
            placement: TreePlacement::Policy,
            seed: 0x7417,
        }
    }
}

/// The WiredTiger storage-engine workload (YCSB-E).
#[derive(Debug)]
pub struct WiredTiger {
    tree: WiredTigerTree,
    locate_prog: Arc<Program>,
    scan_prog: Arc<Program>,
    chooser: Box<dyn KeyChooser>,
    rng: StdRng,
    scan_max: u64,
    ws_bytes: u64,
}

/// Per-entry bytes a scan response carries (8 B key + 240 B value).
pub const WT_ENTRY_BYTES: u32 = 248;

/// CPU time to render a scan's result set at the compute node — shared by
/// the app's request generator and `pulse::YcsbDriver` so the YCSB-E and
/// plain WiredTiger curves price the identical operation identically.
pub const WT_SCAN_CPU_WORK: SimTime = SimTime::from_nanos(500);

impl WiredTiger {
    /// Builds the index (keys are `0, 2, 4, …` so misses exist).
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(ctx: &mut BuildCtx<'_>, cfg: WiredTigerConfig) -> Result<Self, DsError> {
        let pairs: Vec<(u64, u64)> = (0..cfg.keys).map(|k| (k * 2, k)).collect();
        let tree = WiredTigerTree::build(ctx, &pairs, cfg.placement)?;
        let ws_bytes = cfg.keys * (WT_ENTRY_BYTES as u64 + 36); // values + leaf share
        Ok(WiredTiger {
            tree,
            locate_prog: Arc::new(compile(&WiredTigerTree::locate_spec()).expect("compiles")),
            scan_prog: Arc::new(compile(&WiredTigerTree::scan_spec()).expect("compiles")),
            chooser: cfg.distribution.chooser(cfg.keys),
            rng: StdRng::seed_from_u64(cfg.seed),
            scan_max: cfg.scan_max,
            ws_bytes,
        })
    }

    /// The underlying tree.
    pub fn tree(&self) -> &WiredTigerTree {
        &self.tree
    }
}

impl Application for WiredTiger {
    fn next_request(&mut self) -> AppRequest {
        let key = self.chooser.next_key(&mut self.rng) * 2;
        let op = YcsbWorkload::E.draw(&mut self.rng);
        let locate = TraversalStage {
            program: self.locate_prog.clone(),
            start: StartPtr::Fixed(self.tree.root()),
            scratch_init: vec![(btree_layout::SP_KEY, key)],
        };
        match op {
            OpKind::Insert => AppRequest {
                traversals: vec![locate],
                // Modelled as locate + a 248 B leaf-entry write (leaves are
                // bulk-loaded with slack; no structural split needed).
                object_io: Some(ObjectIo {
                    addr: AddrSource::FromScratch(btree_layout::SP_LEAF),
                    len: WT_ENTRY_BYTES,
                    write: true,
                }),
                cpu_work: SimTime::from_nanos(300),
                response_extra_bytes: 0,
                retry: None,
            },
            _ => {
                let limit = self.rng.random_range(1..=self.scan_max);
                let scan = TraversalStage {
                    program: self.scan_prog.clone(),
                    start: StartPtr::FromPrevScratch(btree_layout::SP_LEAF),
                    scratch_init: vec![
                        (wt_layout::SP_START, key),
                        (wt_layout::SP_REMAIN, limit),
                        (wt_layout::SP_MATCHED, 0),
                    ],
                };
                AppRequest {
                    traversals: vec![locate, scan],
                    object_io: None,
                    cpu_work: WT_SCAN_CPU_WORK, // plot the results
                    response_extra_bytes: (limit as u32) * WT_ENTRY_BYTES,
                    retry: None,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "WiredTiger"
    }

    fn working_set_bytes(&self) -> u64 {
        self.ws_bytes
    }
}

// ---------------------------------------------------------------- BTrDB

/// BTrDB configuration.
#[derive(Debug, Clone, Copy)]
pub struct BtrdbConfig {
    /// Captured stream duration in seconds (120 Hz).
    pub duration_secs: u64,
    /// Aggregation window ("resolution") in seconds: the paper sweeps
    /// 1–8 s.
    pub window_secs: u64,
    /// Which μPMU channel to store.
    pub channel: Channel,
    /// Tree placement.
    pub placement: TreePlacement,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BtrdbConfig {
    fn default() -> Self {
        BtrdbConfig {
            duration_secs: 1800,
            window_secs: 1,
            channel: Channel::Voltage,
            placement: TreePlacement::Policy,
            seed: 0xB7D8,
        }
    }
}

/// The BTrDB time-series workload.
#[derive(Debug)]
pub struct Btrdb {
    tree: BtrdbTree,
    locate_prog: Arc<Program>,
    agg_prog: Arc<Program>,
    rng: StdRng,
    span_ns: u64,
    window_ns: u64,
    ws_bytes: u64,
}

impl Btrdb {
    /// Generates the synthetic μPMU stream and builds the store.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(ctx: &mut BuildCtx<'_>, cfg: BtrdbConfig) -> Result<Self, DsError> {
        let samples = upmu::generate(cfg.channel, cfg.duration_secs, cfg.seed);
        let tree = BtrdbTree::build(ctx, &samples, cfg.placement)?;
        let span_ns = cfg.duration_secs * 1_000_000_000;
        let ws_bytes = samples.len() as u64 * 72; // leaf share per sample
        Ok(Btrdb {
            tree,
            locate_prog: Arc::new(compile(&BtrdbTree::locate_spec()).expect("compiles")),
            agg_prog: Arc::new(compile(&BtrdbTree::aggregate_spec()).expect("compiles")),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51),
            span_ns,
            window_ns: cfg.window_secs * 1_000_000_000,
            ws_bytes,
        })
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BtrdbTree {
        &self.tree
    }

    /// The configured window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }
}

impl Application for Btrdb {
    fn next_request(&mut self) -> AppRequest {
        let t0 = self
            .rng
            .random_range(0..self.span_ns.saturating_sub(self.window_ns).max(1));
        let t1 = t0 + self.window_ns;
        let locate = TraversalStage {
            program: self.locate_prog.clone(),
            start: StartPtr::Fixed(self.tree.root()),
            scratch_init: vec![(btree_layout::SP_KEY, t0)],
        };
        let aggregate = TraversalStage {
            program: self.agg_prog.clone(),
            start: StartPtr::FromPrevScratch(btree_layout::SP_LEAF),
            scratch_init: vec![
                (btrdb_layout::SP_T0, t0),
                (btrdb_layout::SP_T1, t1),
                (btrdb_layout::SP_SUM, 0),
                (btrdb_layout::SP_MIN, i64::MAX as u64),
                (btrdb_layout::SP_MAX, i64::MIN as u64),
                (btrdb_layout::SP_N, 0),
            ],
        };
        AppRequest {
            traversals: vec![locate, aggregate],
            object_io: None,
            cpu_work: SimTime::from_micros(1), // render the plotted window
            response_extra_bytes: 64,          // the aggregate tuple series
            retry: None,
        }
    }

    fn name(&self) -> &'static str {
        "BTrDB"
    }

    fn working_set_bytes(&self) -> u64 {
        self.ws_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_functional;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};

    fn ctx_mem(nodes: usize) -> (ClusterMemory, ClusterAllocator) {
        (
            ClusterMemory::new(nodes),
            ClusterAllocator::new(Placement::Striped, 1 << 21),
        )
    }

    #[test]
    fn webservice_requests_resolve_to_objects() {
        let (mut mem, mut alloc) = ctx_mem(4);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys: 2_000,
                    ..WebServiceConfig::default()
                },
            )
            .unwrap()
        };
        let mut interp = Interpreter::new();
        for _ in 0..50 {
            let req = app.next_request();
            let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
            let st = run.response.final_state.as_ref().unwrap();
            let key = st.scratch_u64(0);
            assert_eq!(st.scratch_u64(8), app.object_addr(key), "key {key}");
            // Last access is the 8 KiB object.
            let last = run.accesses.last().unwrap();
            assert_eq!(last.len, 8192);
            assert!(!last.traversal);
        }
        assert_eq!(app.name(), "WebService");
        assert!(app.working_set_bytes() > 16_000_000);
    }

    #[test]
    fn webservice_iterations_near_table3() {
        let (mut mem, mut alloc) = ctx_mem(1);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys: 10_000,
                    distribution: Distribution::Uniform,
                    ..WebServiceConfig::default()
                },
            )
            .unwrap()
        };
        // Structure fidelity, independent of any RNG stream: the exhaustive
        // mean over every key. Uneven FNV bucket loads put a uniform probe
        // at E[len^2]/E[len]-ish depth, ~20% above Table 3's even-chain 48;
        // the band pins that shape against regressions in the geometry.
        let mut exhaustive = 0u64;
        let mut interp = Interpreter::new();
        for k in 0..10_000u64 {
            let req = AppRequest::traversal_only(TraversalStage {
                program: app.find_prog.clone(),
                start: StartPtr::Fixed(app.map.bucket_addr(k)),
                scratch_init: vec![(0, k)],
            });
            let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
            exhaustive += run.response.iterations;
        }
        let expected = exhaustive as f64 / 10_000.0;
        assert!(
            (40.0..62.0).contains(&expected),
            "exhaustive avg iterations {expected} (paper 48, even chains)"
        );
        // The sampled request stream must track that expectation (pure
        // sampling noise allowance; catches a skewed chooser regardless of
        // which deterministic generator backs it).
        let mut total = 0u64;
        let n = 200;
        let mut interp = Interpreter::new();
        for _ in 0..n {
            let req = app.next_request();
            let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
            total += run.response.iterations;
        }
        let avg = total as f64 / n as f64;
        assert!(
            (avg - expected).abs() / expected < 0.15,
            "sampled avg {avg} vs exhaustive {expected}"
        );
    }

    #[test]
    fn wiredtiger_scans_match_reference_counts() {
        let (mut mem, mut alloc) = ctx_mem(2);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WiredTiger::build(
                &mut ctx,
                WiredTigerConfig {
                    keys: 20_000,
                    ..WiredTigerConfig::default()
                },
            )
            .unwrap()
        };
        let mut saw_scan = false;
        let mut interp = Interpreter::new();
        for _ in 0..40 {
            let req = app.next_request();
            let is_scan = req.traversals.len() == 2;
            let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
            if is_scan {
                saw_scan = true;
                let st = run.response.final_state.as_ref().unwrap();
                let start = st.scratch_u64(wt_layout::SP_START as usize);
                let limit = st.scratch_u64(wt_layout::SP_REMAIN as usize);
                let matched = st.scratch_u64(wt_layout::SP_MATCHED as usize);
                // Reference: keys are 0,2,..,39998; entries >= start.
                let avail = (40_000u64.saturating_sub(start)).div_ceil(2);
                assert_eq!(matched, limit.min(avail), "start {start} limit {limit}");
            }
        }
        assert!(saw_scan);
    }

    #[test]
    fn wiredtiger_iterations_near_table3() {
        let (mut mem, mut alloc) = ctx_mem(1);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WiredTiger::build(&mut ctx, WiredTigerConfig::default()).unwrap()
        };
        let mut total = 0u64;
        let mut scans = 0u64;
        let mut interp = Interpreter::new();
        for _ in 0..300 {
            let req = app.next_request();
            if req.traversals.len() != 2 {
                continue; // inserts
            }
            let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
            total += run.response.iterations;
            scans += 1;
        }
        let avg = total as f64 / scans as f64;
        assert!(
            (15.0..35.0).contains(&avg),
            "avg iterations {avg} (paper 25)"
        );
    }

    #[test]
    fn btrdb_window_scaling() {
        let (mut mem, mut alloc) = ctx_mem(2);
        let mut iters = Vec::new();
        for window in [1u64, 8] {
            let mut app = {
                let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
                Btrdb::build(
                    &mut ctx,
                    BtrdbConfig {
                        duration_secs: 300,
                        window_secs: window,
                        seed: 0xB7D8 + window,
                        ..BtrdbConfig::default()
                    },
                )
                .unwrap()
            };
            let mut total = 0u64;
            let mut interp = Interpreter::new();
            for _ in 0..20 {
                let req = app.next_request();
                let run = execute_functional(&mut interp, &mut mem, &req, 4096).unwrap();
                total += run.response.iterations;
                // Aggregate sanity: count equals 120 Hz x window (±1 edge).
                let st = run.response.final_state.as_ref().unwrap();
                let n = st.scratch_u64(btrdb_layout::SP_N as usize);
                let expect = 120 * window;
                assert!(
                    n.abs_diff(expect) <= 2,
                    "window {window}s count {n} vs {expect}"
                );
            }
            iters.push(total / 20);
        }
        // Table 3: 38 (1 s) to 227 (8 s); shape check: superlinear growth.
        assert!((38..=60).contains(&iters[0]), "1s iters {}", iters[0]);
        assert!((260..=360).contains(&iters[1]), "8s iters {}", iters[1]);
    }
}
