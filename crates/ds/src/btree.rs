//! Google's `cpp-btree` (Table 1): a B-tree with values stored in the
//! leaves, located by the paper's Listing 8/9 `internal_locate` program.

use crate::bptree::{bulk_load, decode_located_leaf, TreePlacement};
use crate::common::{init_state, BuildCtx, DsError, NodeImage};
use crate::traversal::{StagePlan, Traversal};
use pulse_dispatch::samples::{btree_layout, btree_search_spec, DEFAULT_BTREE_FANOUT};
use pulse_dispatch::IterSpec;
use pulse_isa::{IterState, MemBus, Program};
use pulse_mem::ClusterMemory;

/// Leaf geometry: keys at the shared offsets, values after the key array.
pub mod leaf_layout {
    use pulse_dispatch::samples::btree_layout;

    /// Entries per leaf (same as the internal fanout, as in cpp-btree).
    pub const CAP: u32 = pulse_dispatch::samples::DEFAULT_BTREE_FANOUT;

    /// Offset of value `i` (after the key slots).
    pub fn value(i: u32) -> i32 {
        btree_layout::KEYS + (CAP as i32) * 8 + i as i32 * 8
    }
}

/// A Google-style B-tree in disaggregated memory.
#[derive(Debug)]
pub struct GoogleBTree {
    root: u64,
    height: u32,
    len: usize,
}

impl GoogleBTree {
    /// Bulk-builds from key-sorted pairs.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or unsorted.
    pub fn build(ctx: &mut BuildCtx<'_>, pairs: &[(u64, u64)]) -> Result<Self, DsError> {
        assert!(!pairs.is_empty(), "need at least one pair");
        assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "pairs must be key-sorted"
        );
        let fanout = DEFAULT_BTREE_FANOUT;
        let node_size = btree_layout::node_size(fanout);
        // Leaves: keys in the shared slots, values after them. Leaf size
        // equals the internal-node size, so the descent window always fits.
        let mut leaf_addrs = Vec::new();
        let mut leaf_seps = Vec::new();
        for chunk in pairs.chunks(leaf_layout::CAP as usize) {
            let addr = ctx.alloc(node_size)?;
            let mut leaf = NodeImage::new();
            leaf.set(btree_layout::IS_LEAF, 1)
                .set(btree_layout::NUM_KEYS, chunk.len() as u64);
            for (i, &(k, v)) in chunk.iter().enumerate() {
                leaf.set(btree_layout::key(i as u32), k)
                    .set(leaf_layout::value(i as u32), v);
            }
            ctx.store(addr, &leaf)?;
            leaf_addrs.push(addr);
            leaf_seps.push(chunk.last().expect("non-empty").0);
        }
        // Internal levels: the B+Tree bulk loader's, over unchained leaves.
        let (root, height) =
            bulk_load(ctx, fanout, &leaf_seps, &leaf_addrs, TreePlacement::Policy)?;
        Ok(GoogleBTree {
            root,
            height,
            len: pairs.len(),
        })
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty (never true; `build` requires pairs).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root address.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Height in levels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The `internal_locate` iterator (Listing 9).
    pub fn locate_spec() -> IterSpec {
        btree_search_spec(DEFAULT_BTREE_FANOUT)
    }

    /// `init()` for `find(key)`.
    pub fn init_find(&self, program: &Program, key: u64) -> IterState {
        init_state(program, self.root, &[(btree_layout::SP_KEY, key)])
    }

    /// Completes a `find` from the descent's scratchpad: reads the located
    /// leaf host-side and returns the value for `key` if present. (On the
    /// real system this is the one follow-up read `init()`'s caller makes;
    /// in the applications it rides the same response.)
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn finish_find(
        &self,
        mem: &mut ClusterMemory,
        state: &IterState,
        key: u64,
    ) -> Result<Option<u64>, DsError> {
        let leaf = decode_located_leaf(state);
        if leaf == 0 {
            return Ok(None);
        }
        let count = mem.read_word(leaf + btree_layout::NUM_KEYS as u64, 8)?;
        for i in 0..count.min(leaf_layout::CAP as u64) {
            let k = mem.read_word(leaf + btree_layout::key(i as u32) as u64, 8)?;
            if k == key {
                return Ok(Some(
                    mem.read_word(leaf + leaf_layout::value(i as u32) as u64, 8)?,
                ));
            }
        }
        Ok(None)
    }
}

impl Traversal for GoogleBTree {
    fn name(&self) -> &'static str {
        "btree::internal_locate"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![Self::locate_spec()]
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        if self.root == 0 {
            return Err(DsError::Empty);
        }
        out.clear();
        out.push(StagePlan::fixed(
            self.root,
            vec![(btree_layout::SP_KEY, key)],
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::compile;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, Placement};
    use std::collections::BTreeMap;

    fn build(n: u64) -> (ClusterMemory, GoogleBTree, BTreeMap<u64, u64>) {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k * 3 + 7)).collect();
        let reference: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let tree = GoogleBTree::build(&mut ctx, &pairs).unwrap();
        (mem, tree, reference)
    }

    #[test]
    fn find_agrees_with_reference_map() {
        let (mut mem, tree, reference) = build(5000);
        let prog = compile(&GoogleBTree::locate_spec()).unwrap();
        let mut interp = Interpreter::new();
        for probe in [0u64, 3, 299, 300, 7501, 14997, 20000] {
            let mut st = tree.init_find(&prog, probe);
            let run = interp
                .run_traversal(&prog, &mut st, &mut mem, 4096)
                .unwrap();
            assert_eq!(run.return_code, Some(0));
            let got = tree.finish_find(&mut mem, &st, probe).unwrap();
            assert_eq!(got, reference.get(&probe).copied(), "probe {probe}");
        }
    }

    #[test]
    fn descent_length_equals_height() {
        let (mut mem, tree, _) = build(50_000);
        let prog = compile(&GoogleBTree::locate_spec()).unwrap();
        let mut st = tree.init_find(&prog, 600);
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut mem, 4096)
            .unwrap();
        assert_eq!(run.iterations, tree.height());
        // fanout 12, ~4.2k leaves: height 5 (leaf + 4 internal levels).
        assert!((4..=6).contains(&tree.height()), "height {}", tree.height());
    }

    #[test]
    fn single_leaf_tree_works() {
        let (mut mem, tree, reference) = build(5);
        assert_eq!(tree.height(), 1);
        let prog = compile(&GoogleBTree::locate_spec()).unwrap();
        let mut st = tree.init_find(&prog, 6);
        Interpreter::new()
            .run_traversal(&prog, &mut st, &mut mem, 16)
            .unwrap();
        assert_eq!(
            tree.finish_find(&mut mem, &st, 6).unwrap(),
            reference.get(&6).copied()
        );
    }
}
