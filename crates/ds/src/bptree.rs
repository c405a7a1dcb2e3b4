//! B+Trees: the WiredTiger index (YCSB-E range scans) and the BTrDB
//! time-series store (windowed aggregations), plus the shared bulk loader.
//!
//! Geometry (see `pulse_dispatch::samples` for the rationale): internal
//! nodes have fanout 12 (Listing 8's `internal_locate` shape, static
//! `t_c/t_d ≈ 0.60` ≈ Table 3's 0.63); WiredTiger leaves hold 6
//! `(key, value_ptr)` entries; BTrDB leaves hold 3 `(timestamp, value)`
//! samples (`t_c/t_d ≈ 0.64` ≈ Table 3's 0.71). Every node is allocated at
//! the internal-node window size so the coalesced 216 B LOAD is always
//! in-bounds.

use crate::common::{init_state, BuildCtx, DsError};
use pulse_dispatch::samples::{
    btrdb_aggregate_spec, btrdb_layout, btree_layout, btree_search_spec, DEFAULT_BTRDB_LEAF_CAP,
    DEFAULT_BTREE_FANOUT,
};
use pulse_dispatch::{CondExpr, Expr, IterSpec, Stmt};
use pulse_isa::{Cond, IterState, Program, Width};
use pulse_mem::NodeId;

/// WiredTiger leaf geometry.
pub mod wt_layout {
    /// Leaf flag (non-zero marks a leaf for the descent program).
    pub const IS_LEAF: i32 = 0;
    /// Live entry count.
    pub const COUNT: i32 = 8;
    /// First key (keys are consecutive u64s).
    pub const KEYS: i32 = 16;
    /// Leaf entry capacity.
    pub const CAP: u32 = 6;
    /// Next-leaf pointer.
    pub const NEXT: i32 = KEYS + CAP as i32 * 8;
    /// First value pointer.
    pub const VALPTRS: i32 = NEXT + 8;
    /// Scratch: scan start key.
    pub const SP_START: u16 = 0;
    /// Scratch: remaining scan budget.
    pub const SP_REMAIN: u16 = 8;
    /// Scratch: matched entries so far.
    pub const SP_MATCHED: u16 = 16;
    /// Value blob size (8 B key + 240 B value in the paper's YCSB-E).
    pub const VALUE_BYTES: u64 = 240;

    /// Offset of key `i`.
    pub fn key(i: u32) -> i32 {
        KEYS + i as i32 * 8
    }

    /// Offset of value pointer `i`.
    pub fn valptr(i: u32) -> i32 {
        VALPTRS + i as i32 * 8
    }
}

/// How tree nodes are placed across memory nodes (Appendix Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreePlacement {
    /// Follow the allocator's policy (striped/random/single).
    Policy,
    /// Key-range partitioning: leaf `i` of `L` goes to memory node
    /// `i·N/L`, and internal nodes follow their leftmost leaf — the
    /// "partitioned allocation" that minimizes cross-node traversals.
    Partitioned {
        /// Number of memory nodes to spread over.
        nodes: usize,
    },
}

/// The node size every tree node is padded to (the descent window).
fn padded_node_size(fanout: u32) -> u64 {
    btree_layout::node_size(fanout)
}

/// Shared bulk loader: builds the leaf level via `write_leaf`, then stacks
/// internal levels of `fanout` children until a single root remains.
///
/// Returns `(root, height, first_leaf)`.
fn bulk_load<F>(
    ctx: &mut BuildCtx<'_>,
    fanout: u32,
    leaf_seps: &[u64],
    leaf_addrs: &[u64],
    place: F,
) -> Result<(u64, u32, u64), DsError>
where
    F: Fn(usize, usize) -> Option<NodeId>,
{
    assert_eq!(leaf_seps.len(), leaf_addrs.len());
    assert!(!leaf_addrs.is_empty(), "bulk_load needs leaves");
    let node_size = padded_node_size(fanout);
    let mut level_addrs: Vec<u64> = leaf_addrs.to_vec();
    // Separator for child i = its max key (leaf_seps), maintained per level.
    let mut level_seps: Vec<u64> = leaf_seps.to_vec();
    let mut height = 1u32;
    let leaf_count = leaf_addrs.len();
    while level_addrs.len() > 1 {
        height += 1;
        let mut next_addrs = Vec::new();
        let mut next_seps = Vec::new();
        for (gi, group) in level_addrs.chunks(fanout as usize + 1).enumerate() {
            // Place internal nodes near their leftmost descendant leaf.
            let leaf_idx = gi * (fanout as usize + 1) * leaf_count / level_addrs.len().max(1);
            let addr = match place(leaf_idx.min(leaf_count - 1), leaf_count) {
                Some(node) => ctx.alloc_on(node, node_size)?,
                None => ctx.alloc(node_size)?,
            };
            let sep_base = gi * (fanout as usize + 1);
            let nkeys = group.len() - 1;
            ctx.put(addr, btree_layout::IS_LEAF as i64, 0)?;
            ctx.put(addr, btree_layout::NUM_KEYS as i64, nkeys as u64)?;
            for (i, &child) in group.iter().enumerate() {
                ctx.put(addr, btree_layout::child(fanout, i as u32) as i64, child)?;
                if i < nkeys {
                    // Separator i = max key under child i.
                    ctx.put(
                        addr,
                        btree_layout::key(i as u32) as i64,
                        level_seps[sep_base + i],
                    )?;
                }
            }
            next_addrs.push(addr);
            next_seps.push(level_seps[sep_base + group.len() - 1]);
        }
        level_addrs = next_addrs;
        level_seps = next_seps;
    }
    Ok((level_addrs[0], height, leaf_addrs[0]))
}

/// The WiredTiger storage-engine index: a B+Tree over `(key, value_ptr)`
/// with chained leaves and out-of-line 240 B values.
#[derive(Debug)]
pub struct WiredTigerTree {
    root: u64,
    height: u32,
    first_leaf: u64,
    len: usize,
    fanout: u32,
}

impl WiredTigerTree {
    /// Bulk-builds from key-sorted `(key, value_seed)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or not sorted by key.
    pub fn build(
        ctx: &mut BuildCtx<'_>,
        pairs: &[(u64, u64)],
        placement: TreePlacement,
    ) -> Result<Self, DsError> {
        assert!(!pairs.is_empty(), "need at least one pair");
        assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "pairs must be key-sorted"
        );
        let fanout = DEFAULT_BTREE_FANOUT;
        let node_size = padded_node_size(fanout);
        let leaf_count = pairs.len().div_ceil(wt_layout::CAP as usize);
        let place = |leaf_idx: usize, leaves: usize| match placement {
            TreePlacement::Policy => None,
            TreePlacement::Partitioned { nodes } => {
                Some((leaf_idx * nodes / leaves).min(nodes - 1))
            }
        };
        // Leaves + value blobs.
        let mut leaf_addrs = Vec::with_capacity(leaf_count);
        let mut leaf_seps = Vec::with_capacity(leaf_count);
        for (li, chunk) in pairs.chunks(wt_layout::CAP as usize).enumerate() {
            let addr = match place(li, leaf_count) {
                Some(node) => ctx.alloc_on(node, node_size)?,
                None => ctx.alloc(node_size)?,
            };
            ctx.put(addr, wt_layout::IS_LEAF as i64, 1)?;
            ctx.put(addr, wt_layout::COUNT as i64, chunk.len() as u64)?;
            for (i, &(k, vseed)) in chunk.iter().enumerate() {
                ctx.put(addr, wt_layout::key(i as u32) as i64, k)?;
                // Out-of-line value blob, co-located with its leaf.
                let vaddr = match place(li, leaf_count) {
                    Some(node) => ctx.alloc_on(node, wt_layout::VALUE_BYTES)?,
                    None => ctx.alloc(wt_layout::VALUE_BYTES)?,
                };
                ctx.put(vaddr, 0, vseed)?;
                ctx.put(addr, wt_layout::valptr(i as u32) as i64, vaddr)?;
            }
            leaf_addrs.push(addr);
            leaf_seps.push(chunk.last().expect("non-empty chunk").0);
        }
        // Chain the leaves.
        for w in 0..leaf_addrs.len() {
            let next = leaf_addrs.get(w + 1).copied().unwrap_or(0);
            ctx.put(leaf_addrs[w], wt_layout::NEXT as i64, next)?;
        }
        let (root, height, first_leaf) = bulk_load(ctx, fanout, &leaf_seps, &leaf_addrs, place)?;
        Ok(WiredTigerTree {
            root,
            height,
            first_leaf,
            len: pairs.len(),
            fanout,
        })
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty (never true: `build` requires pairs).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root node address.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Tree height in levels (leaf = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// First (leftmost) leaf.
    pub fn first_leaf(&self) -> u64 {
        self.first_leaf
    }

    /// Phase-1 iterator: descend to the leaf that may contain `key`
    /// (Listing 9's `internal_locate`).
    pub fn locate_spec() -> IterSpec {
        btree_search_spec(DEFAULT_BTREE_FANOUT)
    }

    /// `init()` for the descent.
    pub fn init_locate(&self, program: &Program, key: u64) -> IterState {
        init_state(program, self.root, &[(btree_layout::SP_KEY, key)])
    }

    /// Phase-2 iterator: scan chained leaves from the located leaf,
    /// counting entries with `key ≥ start` until `limit` matches (the
    /// YCSB-E range scan). Scratch: start key, remaining budget, matched.
    pub fn scan_spec() -> IterSpec {
        use wt_layout::*;
        let mut body = Vec::new();
        for i in 0..CAP {
            body.push(Stmt::if_then(
                CondExpr::new(Cond::LtU, Expr::Const(i as i64), Expr::field_u64(COUNT)),
                vec![Stmt::if_then(
                    CondExpr::new(
                        Cond::GeU,
                        Expr::field_u64(key(i)),
                        Expr::scratch_u64(SP_START),
                    ),
                    vec![
                        Stmt::SetScratch {
                            off: SP_MATCHED,
                            width: Width::B8,
                            value: Expr::add(Expr::scratch_u64(SP_MATCHED), Expr::Const(1)),
                        },
                        Stmt::if_then(
                            CondExpr::new(
                                Cond::GeU,
                                Expr::scratch_u64(SP_MATCHED),
                                Expr::scratch_u64(SP_REMAIN),
                            ),
                            vec![Stmt::Finish {
                                code: Expr::Const(0),
                            }],
                        ),
                    ],
                )],
            ));
        }
        body.push(Stmt::if_then(
            CondExpr::new(Cond::Eq, Expr::field_u64(NEXT), Expr::Const(0)),
            vec![Stmt::Finish {
                code: Expr::Const(0),
            }],
        ));
        body.push(Stmt::Advance {
            next: Expr::field_u64(NEXT),
        });
        IterSpec::new("wiredtiger::leaf_scan", 24, body)
    }

    /// `init()` for the scan phase, starting at `leaf` (from
    /// [`SearchTree`-style descent decode](btree_layout::SP_LEAF)).
    pub fn init_scan(&self, program: &Program, leaf: u64, start: u64, limit: u64) -> IterState {
        init_state(
            program,
            leaf,
            &[
                (wt_layout::SP_START, start),
                (wt_layout::SP_REMAIN, limit),
                (wt_layout::SP_MATCHED, 0),
            ],
        )
    }

    /// Internal fanout.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }
}

/// The BTrDB time-series store: a B+Tree keyed by timestamp whose leaves
/// hold `(timestamp, fixed-point value)` samples.
#[derive(Debug)]
pub struct BtrdbTree {
    root: u64,
    height: u32,
    first_leaf: u64,
    samples: usize,
}

impl BtrdbTree {
    /// Bulk-builds from timestamp-sorted `(ts, value)` samples (values are
    /// signed fixed-point, stored as two's-complement u64).
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or unsorted.
    pub fn build(
        ctx: &mut BuildCtx<'_>,
        samples: &[(u64, i64)],
        placement: TreePlacement,
    ) -> Result<Self, DsError> {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "samples must be time-sorted"
        );
        let fanout = DEFAULT_BTREE_FANOUT;
        let cap = DEFAULT_BTRDB_LEAF_CAP;
        let node_size = padded_node_size(fanout);
        let leaf_count = samples.len().div_ceil(cap as usize);
        let place = |leaf_idx: usize, leaves: usize| match placement {
            TreePlacement::Policy => None,
            TreePlacement::Partitioned { nodes } => {
                Some((leaf_idx * nodes / leaves).min(nodes - 1))
            }
        };
        let mut leaf_addrs = Vec::with_capacity(leaf_count);
        let mut leaf_seps = Vec::with_capacity(leaf_count);
        for (li, chunk) in samples.chunks(cap as usize).enumerate() {
            let addr = match place(li, leaf_count) {
                Some(node) => ctx.alloc_on(node, node_size)?,
                None => ctx.alloc(node_size)?,
            };
            ctx.put(addr, btrdb_layout::COUNT as i64, chunk.len() as u64)?;
            for (i, &(ts, val)) in chunk.iter().enumerate() {
                ctx.put(addr, btrdb_layout::ts(i as u32) as i64, ts)?;
                ctx.put(addr, btrdb_layout::val(i as u32) as i64, val as u64)?;
            }
            leaf_addrs.push(addr);
            leaf_seps.push(chunk.last().expect("non-empty").0);
        }
        for w in 0..leaf_addrs.len() {
            let next = leaf_addrs.get(w + 1).copied().unwrap_or(0);
            ctx.put(leaf_addrs[w], btrdb_layout::NEXT as i64, next)?;
        }
        let (root, height, first_leaf) = bulk_load(ctx, fanout, &leaf_seps, &leaf_addrs, place)?;
        Ok(BtrdbTree {
            root,
            height,
            first_leaf,
            samples: samples.len(),
        })
    }

    /// Number of stored samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Root node address.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Tree height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Leftmost leaf.
    pub fn first_leaf(&self) -> u64 {
        self.first_leaf
    }

    /// Phase-1 descent to the leaf covering `t0` (shared with WiredTiger —
    /// Table 5's shared base functions again).
    pub fn locate_spec() -> IterSpec {
        btree_search_spec(DEFAULT_BTREE_FANOUT)
    }

    /// `init()` for the descent.
    pub fn init_locate(&self, program: &Program, t0: u64) -> IterState {
        init_state(program, self.root, &[(btree_layout::SP_KEY, t0)])
    }

    /// Phase-2 stateful aggregation over `[t0, t1)`: sum / min / max /
    /// count accumulate in the scratchpad (§3 "stateful traversals").
    pub fn aggregate_spec() -> IterSpec {
        btrdb_aggregate_spec(DEFAULT_BTRDB_LEAF_CAP)
    }

    /// `init()` for the aggregation starting at `leaf`.
    pub fn init_aggregate(&self, program: &Program, leaf: u64, t0: u64, t1: u64) -> IterState {
        init_state(
            program,
            leaf,
            &[
                (btrdb_layout::SP_T0, t0),
                (btrdb_layout::SP_T1, t1),
                (btrdb_layout::SP_SUM, 0),
                (btrdb_layout::SP_MIN, i64::MAX as u64),
                (btrdb_layout::SP_MAX, i64::MIN as u64),
                (btrdb_layout::SP_N, 0),
            ],
        )
    }

    /// Decodes the aggregation scratchpad: `(sum, min, max, count)`.
    pub fn decode_aggregate(state: &IterState) -> (i64, i64, i64, u64) {
        (
            state.scratch_u64(btrdb_layout::SP_SUM as usize) as i64,
            state.scratch_u64(btrdb_layout::SP_MIN as usize) as i64,
            state.scratch_u64(btrdb_layout::SP_MAX as usize) as i64,
            state.scratch_u64(btrdb_layout::SP_N as usize),
        )
    }
}

/// Decodes the leaf address returned by the shared descent program.
pub fn decode_located_leaf(state: &IterState) -> u64 {
    state.scratch_u64(btree_layout::SP_LEAF as usize)
}

// ------------------------------------------------------- staged Traversals

/// The WiredTiger keyed range scan as a [`Traversal`](crate::Traversal):
/// stage 1 descends to the covering leaf, stage 2 scans chained leaves
/// counting entries `>= key` up to the configured `limit`. The scan limit is a *plan*
/// parameter — `plan(key)` seeds it into the scan stage's scratchpad — so
/// one compiled program pair serves every limit.
#[derive(Debug)]
pub struct WiredTigerScan<'a> {
    tree: &'a WiredTigerTree,
    limit: u64,
}

impl<'a> WiredTigerScan<'a> {
    /// A scan plan over `tree` counting up to `limit` matches.
    pub fn new(tree: &'a WiredTigerTree, limit: u64) -> WiredTigerScan<'a> {
        WiredTigerScan { tree, limit }
    }

    /// The configured scan limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl crate::traversal::Traversal for WiredTigerScan<'_> {
    fn name(&self) -> &'static str {
        "wiredtiger::keyed_scan"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![WiredTigerTree::locate_spec(), WiredTigerTree::scan_spec()]
    }

    fn plan_into(
        &self,
        key: u64,
        out: &mut Vec<crate::traversal::StagePlan>,
    ) -> Result<(), DsError> {
        use crate::traversal::StagePlan;
        out.clear();
        out.push(StagePlan::fixed(
            self.tree.root(),
            vec![(btree_layout::SP_KEY, key)],
        ));
        out.push(StagePlan::chained(
            btree_layout::SP_LEAF,
            vec![
                (wt_layout::SP_START, key),
                (wt_layout::SP_REMAIN, self.limit),
                (wt_layout::SP_MATCHED, 0),
            ],
        ));
        Ok(())
    }
}

/// The BTrDB windowed aggregation as a [`Traversal`](crate::Traversal):
/// stage 1 descends to the leaf covering `t0` (the lookup key), stage 2
/// accumulates sum/min/max/count over `[t0, t0 + window_ns)`. The window length is the
/// parameterized part of the plan.
#[derive(Debug)]
pub struct BtrdbWindowScan<'a> {
    tree: &'a BtrdbTree,
    window_ns: u64,
}

impl<'a> BtrdbWindowScan<'a> {
    /// An aggregation plan over `tree` with `window_ns`-long windows.
    pub fn new(tree: &'a BtrdbTree, window_ns: u64) -> BtrdbWindowScan<'a> {
        BtrdbWindowScan { tree, window_ns }
    }

    /// The configured window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }
}

impl crate::traversal::Traversal for BtrdbWindowScan<'_> {
    fn name(&self) -> &'static str {
        "btrdb::window_aggregate"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![BtrdbTree::locate_spec(), BtrdbTree::aggregate_spec()]
    }

    fn plan_into(
        &self,
        t0: u64,
        out: &mut Vec<crate::traversal::StagePlan>,
    ) -> Result<(), DsError> {
        use crate::traversal::StagePlan;
        out.clear();
        out.push(StagePlan::fixed(
            self.tree.root(),
            vec![(btree_layout::SP_KEY, t0)],
        ));
        out.push(StagePlan::chained(
            btree_layout::SP_LEAF,
            vec![
                (btrdb_layout::SP_T0, t0),
                (btrdb_layout::SP_T1, t0 + self.window_ns),
                (btrdb_layout::SP_SUM, 0),
                (btrdb_layout::SP_MIN, i64::MAX as u64),
                (btrdb_layout::SP_MAX, i64::MIN as u64),
                (btrdb_layout::SP_N, 0),
            ],
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::compile;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};

    fn build_wt(n: u64, nodes: usize, placement: TreePlacement) -> (ClusterMemory, WiredTigerTree) {
        let mut mem = ClusterMemory::new(nodes);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k)).collect();
        let tree = WiredTigerTree::build(&mut ctx, &pairs, placement).unwrap();
        (mem, tree)
    }

    fn locate_then_scan(
        mem: &mut ClusterMemory,
        tree: &WiredTigerTree,
        start: u64,
        limit: u64,
    ) -> (u64, u32) {
        let locate = compile(&WiredTigerTree::locate_spec()).unwrap();
        let scan = compile(&WiredTigerTree::scan_spec()).unwrap();
        let mut interp = Interpreter::new();
        let mut st = tree.init_locate(&locate, start);
        let run1 = interp.run_traversal(&locate, &mut st, mem, 4096).unwrap();
        assert_eq!(run1.return_code, Some(0), "descent completes");
        let leaf = decode_located_leaf(&st);
        assert_ne!(leaf, 0);
        let mut st2 = tree.init_scan(&scan, leaf, start, limit);
        let run2 = interp.run_traversal(&scan, &mut st2, mem, 4096).unwrap();
        assert_eq!(run2.return_code, Some(0));
        (
            st2.scratch_u64(wt_layout::SP_MATCHED as usize),
            run1.iterations + run2.iterations,
        )
    }

    #[test]
    fn scan_counts_match_reference() {
        let (mut mem, tree) = build_wt(2000, 1, TreePlacement::Policy);
        // Keys are 0,2,4,...; scanning from 100 with limit 50 matches 50.
        let (matched, _) = locate_then_scan(&mut mem, &tree, 100, 50);
        assert_eq!(matched, 50);
        // Near the end, the scan runs out of data.
        let (matched, _) = locate_then_scan(&mut mem, &tree, 3950, 50);
        assert_eq!(matched, 25); // keys 3950..3998 step 2
                                 // Start past the max key: nothing matches.
        let (matched, _) = locate_then_scan(&mut mem, &tree, 1 << 40, 10);
        assert_eq!(matched, 0);
    }

    #[test]
    fn iteration_count_matches_table3_geometry() {
        // 400k keys, scan budget ~100: descent (height) + ~limit/6 leaves
        // should land near Table 3's 25 iterations for WiredTiger.
        let (mut mem, tree) = build_wt(400_000, 1, TreePlacement::Policy);
        let (matched, iters) = locate_then_scan(&mut mem, &tree, 100_000, 100);
        assert_eq!(matched, 100);
        assert!(
            (18..=32).contains(&iters),
            "iterations {iters} (Table 3: 25), height {}",
            tree.height()
        );
    }

    #[test]
    fn partitioned_placement_spreads_key_ranges() {
        let (mem, tree) = build_wt(6000, 4, TreePlacement::Partitioned { nodes: 4 });
        // Leftmost leaf on node 0, rightmost on node 3.
        assert_eq!(mem.owner_of(tree.first_leaf()), Some(0));
        let mut bytes: Vec<u64> = (0..4).map(|n| mem.node_bytes(n)).collect();
        bytes.sort_unstable();
        assert!(bytes[0] > 0, "every node holds part of the tree: {bytes:?}");
    }

    #[test]
    fn btrdb_aggregate_matches_host_computation() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        // 120 Hz for 60 s with a sine-ish deterministic pattern.
        let samples: Vec<(u64, i64)> = (0..7200)
            .map(|i| (i as u64 * 8_333_333, ((i * 37) % 2000) as i64 - 1000))
            .collect();
        let tree = BtrdbTree::build(&mut ctx, &samples, TreePlacement::Policy).unwrap();
        let locate = compile(&BtrdbTree::locate_spec()).unwrap();
        let agg = compile(&BtrdbTree::aggregate_spec()).unwrap();
        let mut interp = Interpreter::new();
        // 1-second window starting at t = 10 s.
        let (t0, t1) = (10_000_000_000u64, 11_000_000_000u64);
        let mut st = tree.init_locate(&locate, t0);
        interp
            .run_traversal(&locate, &mut st, &mut mem, 4096)
            .unwrap();
        let leaf = decode_located_leaf(&st);
        let mut st2 = tree.init_aggregate(&agg, leaf, t0, t1);
        let run = interp
            .run_traversal(&agg, &mut st2, &mut mem, 4096)
            .unwrap();
        assert_eq!(run.return_code, Some(0));
        let (sum, min, max, n) = BtrdbTree::decode_aggregate(&st2);
        // Host reference.
        let in_window: Vec<i64> = samples
            .iter()
            .filter(|&&(ts, _)| ts >= t0 && ts < t1)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(n, in_window.len() as u64);
        assert_eq!(sum, in_window.iter().sum::<i64>());
        assert_eq!(min, in_window.iter().copied().min().unwrap());
        assert_eq!(max, in_window.iter().copied().max().unwrap());
        // 120 samples at cap 3 = 40 leaves (+ partial edges).
        assert!(
            (38..=45).contains(&run.iterations),
            "aggregation iterations {}",
            run.iterations
        );
    }

    #[test]
    fn btrdb_window_scaling_matches_table3() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let samples: Vec<(u64, i64)> = (0..120 * 600)
            .map(|i| (i as u64 * 8_333_333, (i % 100) as i64))
            .collect();
        let tree = BtrdbTree::build(&mut ctx, &samples, TreePlacement::Policy).unwrap();
        let locate = compile(&BtrdbTree::locate_spec()).unwrap();
        let agg = compile(&BtrdbTree::aggregate_spec()).unwrap();
        let mut interp = Interpreter::new();
        let mut iters_by_window = Vec::new();
        for secs in [1u64, 8] {
            let t0 = 100_000_000_000u64;
            let t1 = t0 + secs * 1_000_000_000;
            let mut st = tree.init_locate(&locate, t0);
            let r1 = interp
                .run_traversal(&locate, &mut st, &mut mem, 4096)
                .unwrap();
            let leaf = decode_located_leaf(&st);
            let mut st2 = tree.init_aggregate(&agg, leaf, t0, t1);
            let r2 = interp
                .run_traversal(&agg, &mut st2, &mut mem, 4096)
                .unwrap();
            iters_by_window.push(r1.iterations + r2.iterations);
        }
        // Table 3: 38 iterations at 1 s, 227 at 8 s.
        assert!(
            (38..=55).contains(&iters_by_window[0]),
            "1s iterations {}",
            iters_by_window[0]
        );
        assert!(
            (280..=350).contains(&iters_by_window[1]),
            "8s iterations {}",
            iters_by_window[1]
        );
    }

    #[test]
    fn specs_compile_and_offload() {
        let engine = pulse_dispatch::DispatchEngine::default();
        for spec in [
            WiredTigerTree::locate_spec(),
            WiredTigerTree::scan_spec(),
            BtrdbTree::aggregate_spec(),
        ] {
            let c = engine.prepare(&spec).unwrap();
            assert_eq!(
                c.decision,
                pulse_dispatch::OffloadDecision::Offload,
                "{} ratio {}",
                spec.name,
                c.analysis.ratio()
            );
        }
    }
}
