//! Chained hash structures: Boost `unordered_map` / `unordered_set` /
//! `bimap` (Table 5, Listings 6–7) and the WebService index (Listing 3).
//!
//! Buckets are sentinel nodes embedded in the bucket array, so a traversal
//! always starts on a fetchable node and never dereferences null — the
//! `init()` step computes the bucket address locally at the CPU node and
//! the offloaded program does the rest.

use crate::common::{fnv1a, init_state, BuildCtx, DsError, NodeImage};
use crate::traversal::{StagePlan, Traversal};
use pulse_dispatch::samples::{hash_find_spec, hash_layout as layout};
use pulse_dispatch::IterSpec;
use pulse_isa::{IterState, MemBus, Program};
use pulse_mem::ClusterMemory;

/// A sentinel key no user key may use (bucket heads carry it).
pub const SENTINEL_KEY: u64 = u64::MAX;

/// A chain node (or bucket sentinel) holding `key`, `value` and `next`.
fn chain_node(key: u64, value: u64, next: u64) -> NodeImage {
    let mut node = NodeImage::new();
    node.set(layout::KEY, key)
        .set(layout::VALUE, value)
        .set(layout::NEXT, next);
    node
}

/// A chained hash map in disaggregated memory.
///
/// Geometry: `buckets` sentinel nodes in a contiguous array; each collision
/// chain hangs off its bucket. With the default WebService geometry
/// (≈96 keys/bucket) a lookup traverses ≈48 nodes — Table 3's iteration
/// count for the WebService hash index.
#[derive(Debug)]
pub struct HashMapDs {
    bucket_addrs: Vec<u64>,
    /// Per-bucket home node when hash-partitioned across memory nodes
    /// (§6.1: "the hash table is partitioned across memory nodes based on
    /// primary keys, [so] the linked list for a hash bucket resides in a
    /// single memory node").
    bucket_nodes: Option<Vec<usize>>,
    len: usize,
}

impl HashMapDs {
    /// Builds a map over `(key, value)` pairs with `buckets` chains.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or any key equals [`SENTINEL_KEY`].
    pub fn build(
        ctx: &mut BuildCtx<'_>,
        buckets: u64,
        pairs: &[(u64, u64)],
    ) -> Result<Self, DsError> {
        Self::build_placed(ctx, buckets, pairs, None)
    }

    /// Builds a map hash-partitioned over `nodes` memory nodes: bucket `b`
    /// and its whole chain live on node `b % nodes`, so a lookup never
    /// crosses nodes — the WebService layout of §6.1.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build_partitioned(
        ctx: &mut BuildCtx<'_>,
        buckets: u64,
        pairs: &[(u64, u64)],
        nodes: usize,
    ) -> Result<Self, DsError> {
        Self::build_placed(ctx, buckets, pairs, Some(nodes))
    }

    fn build_placed(
        ctx: &mut BuildCtx<'_>,
        buckets: u64,
        pairs: &[(u64, u64)],
        partition_nodes: Option<usize>,
    ) -> Result<Self, DsError> {
        assert!(buckets > 0, "need at least one bucket");
        let bucket_nodes = partition_nodes.map(|n| {
            (0..buckets)
                .map(|b| (b as usize) % n.max(1))
                .collect::<Vec<_>>()
        });
        let mut bucket_addrs = Vec::with_capacity(buckets as usize);
        for b in 0..buckets as usize {
            let node = bucket_nodes.as_ref().map(|nodes| nodes[b]);
            let a = ctx.alloc_placed(node, layout::NODE_SIZE)?;
            ctx.store(a, &chain_node(SENTINEL_KEY, 0, 0))?;
            bucket_addrs.push(a);
        }
        let mut map = HashMapDs {
            bucket_addrs,
            bucket_nodes,
            len: 0,
        };
        for &(k, v) in pairs {
            map.insert(ctx, k, v)?;
        }
        Ok(map)
    }

    /// Inserts (prepends to the bucket chain, as `boost::unordered_map`
    /// does for colliding keys).
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    ///
    /// # Panics
    ///
    /// Panics if `key == SENTINEL_KEY`.
    pub fn insert(&mut self, ctx: &mut BuildCtx<'_>, key: u64, value: u64) -> Result<(), DsError> {
        assert_ne!(key, SENTINEL_KEY, "sentinel key is reserved");
        let bucket = self.bucket_addr(key);
        let node = ctx.alloc_placed(self.bucket_node(key), layout::NODE_SIZE)?;
        let old_head = ctx.get(bucket, layout::NEXT as i64)?;
        ctx.store(node, &chain_node(key, value, old_head))?;
        ctx.put(bucket, layout::NEXT as i64, node)?;
        self.len += 1;
        Ok(())
    }

    fn bucket_index(&self, key: u64) -> usize {
        (fnv1a(key) % self.bucket_addrs.len() as u64) as usize
    }

    /// The bucket sentinel address for `key` — `init()`'s lookup in the
    /// CPU node's bucket directory.
    pub fn bucket_addr(&self, key: u64) -> u64 {
        self.bucket_addrs[self.bucket_index(key)]
    }

    /// The home memory node of `key`'s bucket, when partitioned.
    pub fn bucket_node(&self, key: u64) -> Option<usize> {
        self.bucket_nodes
            .as_ref()
            .map(|n| n[self.bucket_index(key)])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bucket count.
    pub fn buckets(&self) -> u64 {
        self.bucket_addrs.len() as u64
    }

    /// The `find()` iterator (Listing 3 / Listing 7 — the same internal
    /// function serves `unordered_map`, `unordered_set` and `bimap`).
    pub fn find_spec() -> IterSpec {
        hash_find_spec()
    }

    /// `init()` for a lookup of `key`.
    pub fn init_find(&self, program: &Program, key: u64) -> IterState {
        init_state(program, self.bucket_addr(key), &[(layout::SP_KEY, key)])
    }

    /// Host-side reference lookup (ground truth for tests/baselines).
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn get_host(&self, mem: &mut ClusterMemory, key: u64) -> Result<Option<u64>, DsError> {
        let mut cur = self.bucket_addr(key);
        loop {
            let k = mem.read_word(cur + layout::KEY as u64, 8)?;
            if k == key {
                return Ok(Some(mem.read_word(cur + layout::VALUE as u64, 8)?));
            }
            let next = mem.read_word(cur + layout::NEXT as u64, 8)?;
            if next == 0 {
                return Ok(None);
            }
            cur = next;
        }
    }
}

impl Traversal for HashMapDs {
    fn name(&self) -> &'static str {
        "hash::find"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![Self::find_spec()]
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        out.clear();
        out.push(StagePlan::fixed(
            self.bucket_addr(key),
            vec![(layout::SP_KEY, key)],
        ));
        Ok(())
    }
}

/// `boost::unordered_set`: a [`HashMapDs`] whose value is the key itself.
#[derive(Debug)]
pub struct HashSetDs {
    inner: HashMapDs,
}

impl HashSetDs {
    /// Builds a set.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(ctx: &mut BuildCtx<'_>, buckets: u64, keys: &[u64]) -> Result<Self, DsError> {
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        Ok(HashSetDs {
            inner: HashMapDs::build(ctx, buckets, &pairs)?,
        })
    }

    /// The underlying map (same traversal program).
    pub fn as_map(&self) -> &HashMapDs {
        &self.inner
    }

    /// `init()` for a membership probe.
    pub fn init_contains(&self, program: &Program, key: u64) -> IterState {
        self.inner.init_find(program, key)
    }
}

impl Traversal for HashSetDs {
    fn name(&self) -> &'static str {
        "hash_set::contains"
    }

    fn stages(&self) -> Vec<IterSpec> {
        self.inner.stages()
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        self.inner.plan_into(key, out)
    }
}

/// `boost::bimap`: two hash indexes, left→right and right→left, each a
/// plain chained table (Table 5: bimap's `find` shares the unordered_map
/// internal function).
#[derive(Debug)]
pub struct BimapDs {
    forward: HashMapDs,
    backward: HashMapDs,
}

impl BimapDs {
    /// Builds a bimap over unique `(left, right)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(
        ctx: &mut BuildCtx<'_>,
        buckets: u64,
        pairs: &[(u64, u64)],
    ) -> Result<Self, DsError> {
        let rev: Vec<(u64, u64)> = pairs.iter().map(|&(l, r)| (r, l)).collect();
        Ok(BimapDs {
            forward: HashMapDs::build(ctx, buckets, pairs)?,
            backward: HashMapDs::build(ctx, buckets, &rev)?,
        })
    }

    /// `init()` for left→right lookup.
    pub fn init_find_left(&self, program: &Program, left: u64) -> IterState {
        self.forward.init_find(program, left)
    }

    /// `init()` for right→left lookup.
    pub fn init_find_right(&self, program: &Program, right: u64) -> IterState {
        self.backward.init_find(program, right)
    }

    /// The forward index.
    pub fn forward(&self) -> &HashMapDs {
        &self.forward
    }

    /// The backward index.
    pub fn backward(&self) -> &HashMapDs {
        &self.backward
    }
}

impl Traversal for BimapDs {
    fn name(&self) -> &'static str {
        "bimap::find"
    }

    fn stages(&self) -> Vec<IterSpec> {
        self.forward.stages()
    }

    /// Plans a left→right lookup (the forward index; the backward index is
    /// the same compiled program over its own buckets).
    fn plan_into(&self, left: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        self.forward.plan_into(left, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::compile;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};

    fn setup(buckets: u64, pairs: &[(u64, u64)]) -> (ClusterMemory, HashMapDs, pulse_isa::Program) {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let map = HashMapDs::build(&mut ctx, buckets, pairs).unwrap();
        let prog = compile(&HashMapDs::find_spec()).unwrap();
        (mem, map, prog)
    }

    fn lookup(
        mem: &mut ClusterMemory,
        map: &HashMapDs,
        prog: &pulse_isa::Program,
        key: u64,
    ) -> (Option<u64>, u32) {
        let mut st = map.init_find(prog, key);
        let run = Interpreter::new()
            .run_traversal(prog, &mut st, mem, 4096)
            .unwrap();
        let v = match run.return_code {
            Some(c) if c == layout::FOUND as u64 => {
                Some(st.scratch_u64(layout::SP_RESULT as usize))
            }
            _ => None,
        };
        (v, run.iterations)
    }

    #[test]
    fn offloaded_find_matches_host_reference() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k, k * 3 + 1)).collect();
        let (mut mem, map, prog) = setup(8, &pairs);
        for key in [0u64, 17, 499, 500, 1000] {
            let (got, _) = lookup(&mut mem, &map, &prog, key);
            let want = map.get_host(&mut mem, key).unwrap();
            assert_eq!(got, want, "key {key}");
            if key < 500 {
                assert_eq!(got, Some(key * 3 + 1));
            }
        }
    }

    #[test]
    fn chain_geometry_hits_table3_iterations() {
        // WebService geometry: ~96 keys per bucket ⇒ ~48 iterations/found.
        let n = 9_600u64;
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
        let (mut mem, map, prog) = setup(n / 96, &pairs);
        let mut total_iters = 0u64;
        let probes = 400;
        for i in 0..probes {
            let key = (i * 23) % n;
            let (got, iters) = lookup(&mut mem, &map, &prog, key);
            assert_eq!(got, Some(key));
            total_iters += iters as u64;
        }
        let avg = total_iters as f64 / probes as f64;
        assert!(
            (35.0..62.0).contains(&avg),
            "average iterations {avg} (Table 3: 48)"
        );
    }

    #[test]
    fn duplicate_insert_shadows_previous() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut map = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            HashMapDs::build(&mut ctx, 4, &[(1, 10)]).unwrap()
        };
        // Re-insert key 1 with a new value; the prepend makes it win.
        {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            map.insert(&mut ctx, 1, 20).unwrap();
        }
        let prog = compile(&HashMapDs::find_spec()).unwrap();
        let (got, _) = lookup(&mut mem, &map, &prog, 1);
        assert_eq!(got, Some(20));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn set_membership() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let set = HashSetDs::build(&mut ctx, 16, &[2, 4, 6, 8]).unwrap();
        let prog = compile(&HashMapDs::find_spec()).unwrap();
        for (k, want) in [(2u64, true), (3, false), (8, true), (9, false)] {
            let mut st = set.init_contains(&prog, k);
            let run = Interpreter::new()
                .run_traversal(&prog, &mut st, &mut mem, 64)
                .unwrap();
            assert_eq!(run.return_code == Some(0), want, "key {k}");
        }
        assert!(!set.as_map().is_empty());
    }

    #[test]
    fn bimap_lookups_both_directions() {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i, 1000 + i)).collect();
        let bimap = BimapDs::build(&mut ctx, 8, &pairs).unwrap();
        let prog = compile(&HashMapDs::find_spec()).unwrap();
        let mut interp = Interpreter::new();
        // left -> right
        let mut st = bimap.init_find_left(&prog, 42);
        interp
            .run_traversal(&prog, &mut st, &mut mem, 4096)
            .unwrap();
        assert_eq!(st.scratch_u64(layout::SP_RESULT as usize), 1042);
        // right -> left
        let mut st = bimap.init_find_right(&prog, 1042);
        interp
            .run_traversal(&prog, &mut st, &mut mem, 4096)
            .unwrap();
        assert_eq!(st.scratch_u64(layout::SP_RESULT as usize), 42);
        assert_eq!(bimap.forward().len(), 100);
        assert_eq!(bimap.backward().len(), 100);
    }

    #[test]
    #[should_panic(expected = "sentinel key is reserved")]
    fn sentinel_key_rejected() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let _ = HashMapDs::build(&mut ctx, 4, &[(SENTINEL_KEY, 1)]);
    }
}
