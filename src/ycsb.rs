//! The [`YcsbDriver`]: YCSB operation draws become *real* submissions.
//!
//! Before this driver existed, `YcsbWorkload::draw` decided only whether a
//! WebService request's object I/O was a read or a write — the index
//! itself never changed. The driver turns every drawn [`OpKind`] into the
//! operation the mix specifies, wired through the `pulse-mutation` write
//! path:
//!
//! * **YCSB-A/B** (hash map): `Read` mints a seqlock-verified find (plus
//!   the 8 KiB object fetch), `Update` mints a locked in-place update
//!   traversal followed by the 8 KiB object write. Both carry the bounded
//!   [`MutationConfig`] retry policy, so races surface as counted retries.
//! * **YCSB-E** (B+Tree): `Scan` mints the staged descend+leaf-scan,
//!   `Insert` runs the host-side structural pipeline
//!   ([`wt_host_insert`]) against the rack memory and mints the timed
//!   request that charges what the host did — dispatch booking, the locate
//!   traversal, the 248 B entry write, and
//!   [`WT_INSERT_CPU_WORK`](pulse_mutation::WT_INSERT_CPU_WORK) of
//!   CPU-node allocator/copy time.
//!
//! Two modelling caveats, stated honestly. First, host-side inserts
//! mutate memory when the request is *minted* (submission order), not at
//! its simulated completion instant; offloaded updates mutate at their
//! real simulated execution time — they are what the retry counters
//! measure. Second, the seqlock covers the *index entry* only: an
//! update's 8 KiB object write is plain object I/O issued after the
//! locked traversal releases the bucket, so a reader whose object fetch
//! overlaps that in-flight write is not forced to retry. This mirrors the
//! paper's split (object I/O rides outside the traversal offload);
//! payload-level versioning would need an object-side version word, which
//! this model does not simulate — object bytes carry no content here.

use crate::error::Error;
use pulse_dispatch::samples::{btree_layout, DEFAULT_BTREE_FANOUT};
use pulse_ds::{Traversal, WiredTigerScan};
use pulse_isa::Program;
use pulse_mem::ClusterMemory;
use pulse_mutation::{
    locked_update_program, locked_update_stage, verified_find_program, verified_read_stage,
    wt_host_insert, InsertArena, MutationConfig, WT_INSERT_CPU_WORK,
};
use pulse_workloads::{
    AddrSource, AppRequest, KeyChooser, ObjectIo, OpKind, StartPtr, TraversalStage, WebService,
    WebServiceConfig, WiredTiger, WiredTigerConfig, YcsbWorkload, WEBSERVICE_CPU_WORK,
    WT_ENTRY_BYTES, WT_SCAN_CPU_WORK,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

enum Cell {
    Hash {
        app: WebService,
        find: Arc<Program>,
        update: Arc<Program>,
    },
    Tree {
        app: WiredTiger,
        locate: Arc<Program>,
        scan: Arc<Program>,
        arena: InsertArena,
        scan_max: u64,
        /// Monotone seed for inserted values.
        next_value_seed: u64,
        /// Inserts that fell back to the non-mutating model because the
        /// arena ran dry — surfaced so a long sweep cannot silently stop
        /// mutating the tree.
        degraded_inserts: u64,
        /// Keys inserted so far: YCSB inserts are unique, so a hot drawn
        /// key probes forward (+2, staying odd/absent-from-bulk-load)
        /// instead of piling duplicates into one leaf chain.
        inserted: std::collections::HashSet<u64>,
    },
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Hash { .. } => f.write_str("Cell::Hash"),
            Cell::Tree { .. } => f.write_str("Cell::Tree"),
        }
    }
}

/// Mints YCSB-mix requests — reads, scans, *and* mutations — against a
/// built application, ready for [`Runtime::submit`](crate::Runtime) in any
/// mode.
#[derive(Debug)]
pub struct YcsbDriver {
    workload: YcsbWorkload,
    chooser: Box<dyn KeyChooser>,
    rng: StdRng,
    mutation: MutationConfig,
    cell: Cell,
    // Reused across next_request calls so staged scan planning never
    // allocates a fresh plan Vec per minted request.
    plan_buf: Vec<pulse_ds::StagePlan>,
}

impl YcsbDriver {
    /// A driver over the WebService hash map under `cfg.workload`
    /// (YCSB-A/B/C). The deployment must use the default
    /// `partition_by_bucket` layout: the seqlock programs re-load the
    /// bucket version with a node-local `LOAD`, which requires each
    /// bucket's chain to live on one memory node.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the deployment stripes chains across nodes,
    /// or when `cfg.workload` draws operations the hash map has no
    /// implementation for (YCSB-E's Scan/Insert — use
    /// [`YcsbDriver::wiredtiger`]); silently mapping those to reads would
    /// mislabel a read-only stream as mixed.
    pub fn webservice(
        app: WebService,
        cfg: WebServiceConfig,
        mutation: MutationConfig,
    ) -> Result<YcsbDriver, Error> {
        // Check the *built map*, not the caller's cfg: only a
        // bucket-partitioned build records per-bucket home nodes, so this
        // guard cannot be defeated by passing a cfg that disagrees with
        // the app it claims to describe.
        if app.map().bucket_node(0).is_none() {
            return Err(Error::Config(
                "YcsbDriver needs a bucket-partitioned hash map: the \
                 seqlock version re-load must stay node-local"
                    .into(),
            ));
        }
        if cfg.workload == YcsbWorkload::E {
            return Err(Error::Config(
                "YCSB-E draws Scan/Insert, which the hash map does not \
                 implement — drive it with YcsbDriver::wiredtiger"
                    .into(),
            ));
        }
        Ok(YcsbDriver {
            workload: cfg.workload,
            // Sized from the *built* app so a cfg whose key count disagrees
            // with the deployment cannot draw out-of-range keys.
            chooser: cfg.distribution.chooser(app.keys()),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD21F),
            mutation,
            cell: Cell::Hash {
                app,
                find: Arc::new(verified_find_program()),
                update: Arc::new(locked_update_program()),
            },
            plan_buf: Vec::new(),
        })
    }

    /// A driver over the WiredTiger B+Tree under YCSB-E: 95% staged range
    /// scans, 5% host-path inserts drawing node/value slots from `arena`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when `cfg.scan_max == 0` — YCSB-E scans draw a
    /// limit from `1..=scan_max`, so an empty range would panic on the
    /// first minted scan.
    pub fn wiredtiger(
        app: WiredTiger,
        cfg: WiredTigerConfig,
        arena: InsertArena,
        mutation: MutationConfig,
    ) -> Result<YcsbDriver, Error> {
        if cfg.scan_max == 0 {
            return Err(Error::Config(
                "YCSB-E needs scan_max >= 1: scan limits draw from 1..=scan_max".into(),
            ));
        }
        let built_keys = app.tree().len() as u64;
        Ok(YcsbDriver {
            workload: YcsbWorkload::E,
            // Sized from the built tree, not the caller's cfg (see
            // `webservice`).
            chooser: cfg.distribution.chooser(built_keys),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD21F),
            mutation,
            cell: Cell::Tree {
                locate: Arc::new(
                    pulse_dispatch::compile(&pulse_ds::WiredTigerTree::locate_spec())
                        .expect("locate compiles"),
                ),
                scan: Arc::new(
                    pulse_dispatch::compile(&pulse_ds::WiredTigerTree::scan_spec())
                        .expect("scan compiles"),
                ),
                app,
                arena,
                scan_max: cfg.scan_max,
                next_value_seed: 0x1000_0000,
                degraded_inserts: 0,
                inserted: std::collections::HashSet::new(),
            },
            plan_buf: Vec::new(),
        })
    }

    /// The mix this driver draws from.
    pub fn workload(&self) -> YcsbWorkload {
        self.workload
    }

    /// Inserts minted *without* a real structural mutation because the
    /// insert arena was exhausted (they still charge locate + write
    /// timing). Nonzero means the deployment's arena is undersized for the
    /// stream — size it up rather than trusting the curve.
    pub fn degraded_inserts(&self) -> u64 {
        match &self.cell {
            Cell::Hash { .. } => 0,
            Cell::Tree {
                degraded_inserts, ..
            } => *degraded_inserts,
        }
    }

    /// Mints the next request. `mem` is the rack memory the
    /// request will execute against — host-side inserts apply to it here,
    /// at mint time.
    pub fn next_request(&mut self, mem: &mut ClusterMemory) -> AppRequest {
        let raw_key = self.chooser.next_key(&mut self.rng);
        let op = self.workload.draw(&mut self.rng);
        match &mut self.cell {
            Cell::Hash { app, find, update } => {
                let bucket = app.map().bucket_addr(raw_key);
                let object_bytes = app.object_bytes();
                let (stage, write) = match op {
                    OpKind::Update => (
                        locked_update_stage(update, bucket, raw_key, app.object_addr(raw_key)),
                        true,
                    ),
                    // A/B/C never draw Scan/Insert.
                    _ => (verified_read_stage(find, bucket, raw_key), false),
                };
                AppRequest {
                    traversals: vec![stage],
                    object_io: Some(ObjectIo {
                        addr: AddrSource::FromScratch(pulse_mutation::sp::VAL),
                        len: object_bytes,
                        write,
                    }),
                    cpu_work: WEBSERVICE_CPU_WORK,
                    response_extra_bytes: 0,
                    retry: Some(self.mutation.retry_policy()),
                }
            }
            Cell::Tree {
                app,
                locate,
                scan,
                arena,
                scan_max,
                next_value_seed,
                degraded_inserts,
                inserted,
            } => {
                let key = raw_key * 2;
                let root = app.tree().root();
                let locate_for = |k: u64| TraversalStage {
                    program: locate.clone(),
                    start: StartPtr::Fixed(root),
                    scratch_init: vec![(btree_layout::SP_KEY, k)],
                };
                match op {
                    OpKind::Insert => {
                        // Odd keys are absent from the bulk load; probing
                        // +2 past already-inserted keys keeps YCSB's
                        // unique-insert semantics, so every insert is a
                        // genuine structural change.
                        let mut new_key = key + 1;
                        while !inserted.insert(new_key) {
                            new_key += 2;
                        }
                        *next_value_seed += 1;
                        let seed = *next_value_seed;
                        let addr = match wt_host_insert(
                            mem,
                            root,
                            DEFAULT_BTREE_FANOUT,
                            new_key,
                            seed,
                            arena,
                        ) {
                            Ok(outcome) => AddrSource::Fixed(outcome.leaf()),
                            // Arena exhausted: degrade to the
                            // pre-write-path model (entry write into
                            // the located leaf), counted so the sweep
                            // guard can refuse the curve.
                            Err(pulse_ds::DsError::Empty) => {
                                *degraded_inserts += 1;
                                AddrSource::FromScratch(btree_layout::SP_LEAF)
                            }
                            // Anything else is a corrupt tree, not a
                            // sizing problem — fail loudly.
                            Err(e) => panic!("host insert hit a corrupt tree: {e}"),
                        };
                        AppRequest {
                            traversals: vec![locate_for(new_key)],
                            object_io: Some(ObjectIo {
                                addr,
                                len: WT_ENTRY_BYTES,
                                write: true,
                            }),
                            cpu_work: WT_INSERT_CPU_WORK,
                            response_extra_bytes: 0,
                            retry: None,
                        }
                    }
                    _ => {
                        let limit = self.rng.random_range(1..=*scan_max);
                        // The staged plan comes from the WiredTigerScan
                        // Traversal impl, so the YCSB-E curve and the plain
                        // pulse-wiredtiger curve share one definition of
                        // "a keyed scan of `limit` entries".
                        WiredTigerScan::new(app.tree(), limit)
                            .plan_into(key, &mut self.plan_buf)
                            .expect("scan plans are infallible");
                        let traversals = self
                            .plan_buf
                            .drain(..)
                            .zip([locate.clone(), scan.clone()])
                            .map(|(p, program)| TraversalStage::from_plan(p, program))
                            .collect();
                        AppRequest {
                            traversals,
                            object_io: None,
                            cpu_work: WT_SCAN_CPU_WORK,
                            response_extra_bytes: (limit as u32) * WT_ENTRY_BYTES,
                            retry: None,
                        }
                    }
                }
            }
        }
    }
}
