//! Differential test of the structure builders against the word-at-a-time
//! builders they replaced.
//!
//! The builders now put each node together on the host and store it with
//! one write. The reference below writes every field with its own 8-byte
//! store, in the order the old builders did, and chains B+tree leaves by
//! patching each `NEXT` after the whole leaf level is written. Both run on
//! fresh memories under the same allocator policy; afterwards they must
//! agree on every mapped byte (so on every allocated node and on every
//! pointer stored in one), on the extent layout (so on every address the
//! allocator handed out), on the roots the builders return, and on
//! `backed_bytes()`. Search trees are checked the same way in `bst.rs`'s
//! unit tests, where their host-side shape is visible.

use pulse_dispatch::samples::{
    btrdb_layout, btree_layout, hash_layout, DEFAULT_BTRDB_LEAF_CAP, DEFAULT_BTREE_FANOUT,
};
use pulse_ds::{
    btree_leaf_layout, fnv1a, wt_layout, BtrdbTree, BuildCtx, DsError, GoogleBTree, HashMapDs,
    LinkedList, ListKind, TreePlacement, WiredTigerTree, SENTINEL_KEY,
};
use pulse_isa::MemBus;
use pulse_mem::{ClusterAllocator, ClusterMemory, NodeId, Placement};

// ----------------------------------------------------------- reference

/// Writes the u64 field at `off` of the node at `addr`.
fn put(ctx: &mut BuildCtx<'_>, addr: u64, off: i32, v: u64) -> Result<(), DsError> {
    ctx.put(addr, off as i64, v)
}

fn placed(ctx: &mut BuildCtx<'_>, node: Option<NodeId>, size: u64) -> Result<u64, DsError> {
    match node {
        Some(node) => ctx.alloc_on(node, size),
        None => ctx.alloc(size),
    }
}

fn node_of(placement: TreePlacement, leaf_idx: usize, leaves: usize) -> Option<NodeId> {
    match placement {
        TreePlacement::Policy => None,
        TreePlacement::Partitioned { nodes } => Some((leaf_idx * nodes / leaves).min(nodes - 1)),
    }
}

/// The old bulk loader: internal levels over `leaf_addrs`, field by field.
/// Returns `(root, height)`.
fn bulk_load(
    ctx: &mut BuildCtx<'_>,
    leaf_seps: &[u64],
    leaf_addrs: &[u64],
    placement: TreePlacement,
) -> Result<(u64, u32), DsError> {
    let fanout = DEFAULT_BTREE_FANOUT;
    let node_size = btree_layout::node_size(fanout);
    let mut level_addrs = leaf_addrs.to_vec();
    let mut level_seps = leaf_seps.to_vec();
    let mut height = 1;
    let leaf_count = leaf_addrs.len();
    while level_addrs.len() > 1 {
        height += 1;
        let mut next_addrs = Vec::new();
        let mut next_seps = Vec::new();
        for (gi, group) in level_addrs.chunks(fanout as usize + 1).enumerate() {
            let leaf_idx = gi * (fanout as usize + 1) * leaf_count / level_addrs.len().max(1);
            let node = node_of(placement, leaf_idx.min(leaf_count - 1), leaf_count);
            let addr = placed(ctx, node, node_size)?;
            let sep_base = gi * (fanout as usize + 1);
            let nkeys = group.len() - 1;
            put(ctx, addr, btree_layout::IS_LEAF, 0)?;
            put(ctx, addr, btree_layout::NUM_KEYS, nkeys as u64)?;
            for (i, &child) in group.iter().enumerate() {
                put(ctx, addr, btree_layout::child(fanout, i as u32), child)?;
                if i < nkeys {
                    put(
                        ctx,
                        addr,
                        btree_layout::key(i as u32),
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
    Ok((level_addrs[0], height))
}

/// Chains `leaves` through the field at `next`, after they are written.
fn chain(ctx: &mut BuildCtx<'_>, leaves: &[u64], next: i32) -> Result<(), DsError> {
    for (w, &leaf) in leaves.iter().enumerate() {
        put(ctx, leaf, next, leaves.get(w + 1).copied().unwrap_or(0))?;
    }
    Ok(())
}

/// The old `BtrdbTree::build`: `(root, height, first_leaf)`.
fn btrdb(
    ctx: &mut BuildCtx<'_>,
    samples: &[(u64, i64)],
    placement: TreePlacement,
) -> Result<(u64, u32, u64), DsError> {
    let cap = DEFAULT_BTRDB_LEAF_CAP as usize;
    let node_size = btree_layout::node_size(DEFAULT_BTREE_FANOUT);
    let leaf_count = samples.len().div_ceil(cap);
    let (mut leaves, mut seps) = (Vec::new(), Vec::new());
    for (li, chunk) in samples.chunks(cap).enumerate() {
        let addr = placed(ctx, node_of(placement, li, leaf_count), node_size)?;
        put(ctx, addr, btrdb_layout::COUNT, chunk.len() as u64)?;
        for (i, &(ts, val)) in chunk.iter().enumerate() {
            put(ctx, addr, btrdb_layout::ts(i as u32), ts)?;
            put(ctx, addr, btrdb_layout::val(i as u32), val as u64)?;
        }
        leaves.push(addr);
        seps.push(chunk.last().unwrap().0);
    }
    chain(ctx, &leaves, btrdb_layout::NEXT)?;
    let (root, height) = bulk_load(ctx, &seps, &leaves, placement)?;
    Ok((root, height, leaves[0]))
}

/// The old `WiredTigerTree::build`: `(root, height, first_leaf)`.
fn wiredtiger(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
    placement: TreePlacement,
) -> Result<(u64, u32, u64), DsError> {
    let cap = wt_layout::CAP as usize;
    let node_size = btree_layout::node_size(DEFAULT_BTREE_FANOUT);
    let leaf_count = pairs.len().div_ceil(cap);
    let (mut leaves, mut seps) = (Vec::new(), Vec::new());
    for (li, chunk) in pairs.chunks(cap).enumerate() {
        let node = node_of(placement, li, leaf_count);
        let addr = placed(ctx, node, node_size)?;
        put(ctx, addr, wt_layout::IS_LEAF, 1)?;
        put(ctx, addr, wt_layout::COUNT, chunk.len() as u64)?;
        for (i, &(k, vseed)) in chunk.iter().enumerate() {
            put(ctx, addr, wt_layout::key(i as u32), k)?;
            let vaddr = placed(ctx, node, wt_layout::VALUE_BYTES)?;
            put(ctx, vaddr, 0, vseed)?;
            put(ctx, addr, wt_layout::valptr(i as u32), vaddr)?;
        }
        leaves.push(addr);
        seps.push(chunk.last().unwrap().0);
    }
    chain(ctx, &leaves, wt_layout::NEXT)?;
    let (root, height) = bulk_load(ctx, &seps, &leaves, placement)?;
    Ok((root, height, leaves[0]))
}

/// The old `GoogleBTree::build`: `(root, height)`.
fn google_btree(ctx: &mut BuildCtx<'_>, pairs: &[(u64, u64)]) -> Result<(u64, u32), DsError> {
    let node_size = btree_layout::node_size(DEFAULT_BTREE_FANOUT);
    let (mut leaves, mut seps) = (Vec::new(), Vec::new());
    for chunk in pairs.chunks(btree_leaf_layout::CAP as usize) {
        let addr = ctx.alloc(node_size)?;
        put(ctx, addr, btree_layout::IS_LEAF, 1)?;
        put(ctx, addr, btree_layout::NUM_KEYS, chunk.len() as u64)?;
        for (i, &(k, v)) in chunk.iter().enumerate() {
            put(ctx, addr, btree_layout::key(i as u32), k)?;
            put(ctx, addr, btree_leaf_layout::value(i as u32), v)?;
        }
        leaves.push(addr);
        seps.push(chunk.last().unwrap().0);
    }
    bulk_load(ctx, &seps, &leaves, TreePlacement::Policy)
}

/// The old `HashMapDs` build and insert: the bucket sentinel addresses.
fn hash_map(
    ctx: &mut BuildCtx<'_>,
    buckets: u64,
    pairs: &[(u64, u64)],
    partition_nodes: Option<usize>,
) -> Result<Vec<u64>, DsError> {
    let home = |b: usize| partition_nodes.map(|n| b % n.max(1));
    let mut bucket_addrs = Vec::new();
    for b in 0..buckets as usize {
        let a = placed(ctx, home(b), hash_layout::NODE_SIZE)?;
        put(ctx, a, hash_layout::KEY, SENTINEL_KEY)?;
        put(ctx, a, hash_layout::VALUE, 0)?;
        put(ctx, a, hash_layout::NEXT, 0)?;
        bucket_addrs.push(a);
    }
    for &(key, value) in pairs {
        let b = (fnv1a(key) % buckets) as usize;
        let bucket = bucket_addrs[b];
        let node = placed(ctx, home(b), hash_layout::NODE_SIZE)?;
        let old_head = ctx.get(bucket, hash_layout::NEXT as i64)?;
        put(ctx, node, hash_layout::KEY, key)?;
        put(ctx, node, hash_layout::VALUE, value)?;
        put(ctx, node, hash_layout::NEXT, old_head)?;
        put(ctx, bucket, hash_layout::NEXT, node)?;
    }
    Ok(bucket_addrs)
}

/// The old `LinkedList::build`: the head address.
fn list(ctx: &mut BuildCtx<'_>, kind: ListKind, values: &[u64]) -> Result<u64, DsError> {
    let node_size = match kind {
        ListKind::Doubly => 32,
        ListKind::Singly => hash_layout::NODE_SIZE,
    };
    let mut addrs = Vec::new();
    for _ in values {
        addrs.push(ctx.alloc(node_size)?);
    }
    for (i, (&v, &a)) in values.iter().zip(&addrs).enumerate() {
        put(ctx, a, hash_layout::KEY, v)?;
        put(ctx, a, hash_layout::VALUE, v)?;
        put(
            ctx,
            a,
            hash_layout::NEXT,
            addrs.get(i + 1).copied().unwrap_or(0),
        )?;
        if kind == ListKind::Doubly {
            put(ctx, a, 24, if i > 0 { addrs[i - 1] } else { 0 })?;
        }
    }
    Ok(addrs.first().copied().unwrap_or(0))
}

// ---------------------------------------------------------------- cases

/// A memory and allocator pair for one build.
struct Rack {
    mem: ClusterMemory,
    alloc: ClusterAllocator,
}

impl Rack {
    fn new(nodes: usize, placement: Placement, granularity: u64) -> Rack {
        Rack {
            mem: ClusterMemory::new(nodes),
            alloc: ClusterAllocator::new(placement, granularity),
        }
    }

    fn ctx(&mut self) -> BuildCtx<'_> {
        BuildCtx::new(&mut self.mem, &mut self.alloc)
    }
}

/// The memories two builds left must be indistinguishable.
fn assert_same_memory(got: &mut ClusterMemory, want: &mut ClusterMemory, what: &str) {
    let ranges = want.all_ranges();
    assert_eq!(got.all_ranges(), ranges, "{what}: extents");
    for (start, end, _) in ranges {
        let len = (end - start) as usize;
        let (mut a, mut b) = (vec![0; len], vec![0; len]);
        got.read(start, &mut a).unwrap();
        want.read(start, &mut b).unwrap();
        if let Some(i) = (0..len).find(|&i| a[i] != b[i]) {
            panic!(
                "{what}: byte at {:#x} is {:#04x}, word-at-a-time wrote {:#04x}",
                start + i as u64,
                a[i],
                b[i]
            );
        }
    }
    assert_eq!(
        got.backed_bytes(),
        want.backed_bytes(),
        "{what}: backed bytes"
    );
}

/// The allocator set-ups every structure is built under: one node, a
/// striped rack whose small extents split the structure, and a random
/// one.
const RACKS: [&str; 3] = ["single", "striped", "random"];

fn rack(name: &str) -> Rack {
    match name {
        "single" => Rack::new(1, Placement::Single(0), 1 << 16),
        "striped" => Rack::new(3, Placement::Striped, 4096),
        _ => Rack::new(4, Placement::Random { seed: 0x5eed }, 2048),
    }
}

/// Whether `rack` has the memory nodes `placement` spreads over.
fn fits(placement: TreePlacement, rack: &Rack) -> bool {
    match placement {
        TreePlacement::Policy => true,
        TreePlacement::Partitioned { nodes } => nodes <= rack.mem.node_count(),
    }
}

/// Sizes that leave the last leaf full, one short, and alone; and a tree
/// of one leaf.
const SIZES: [usize; 5] = [1, 5, 1_200, 4_001, 9_000];

fn samples(n: usize) -> Vec<(u64, i64)> {
    (0..n as u64)
        .map(|i| {
            (
                i * 8_333_333,
                (i.wrapping_mul(0x9e37_79b9) % 4001) as i64 - 2000,
            )
        })
        .collect()
}

fn pairs(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|i| (i * 3 + 1, i.wrapping_mul(0xff51_afd7_ed55_8ccd)))
        .collect()
}

fn placements() -> [TreePlacement; 3] {
    [
        TreePlacement::Policy,
        TreePlacement::Partitioned { nodes: 1 },
        TreePlacement::Partitioned { nodes: 3 },
    ]
}

#[test]
fn btrdb_matches_word_at_a_time() {
    for rack_name in RACKS {
        for placement in placements() {
            for n in SIZES {
                let what = format!("btrdb {rack_name} {placement:?} n={n}");
                let data = samples(n);
                let (mut got, mut want) = (rack(rack_name), rack(rack_name));
                if !fits(placement, &got) {
                    continue;
                }
                let tree = BtrdbTree::build(&mut got.ctx(), &data, placement).unwrap();
                let (root, height, first) = btrdb(&mut want.ctx(), &data, placement).unwrap();
                assert_eq!(
                    (tree.root(), tree.height(), tree.first_leaf()),
                    (root, height, first),
                    "{what}"
                );
                assert_same_memory(&mut got.mem, &mut want.mem, &what);
            }
        }
    }
}

#[test]
fn wiredtiger_matches_word_at_a_time() {
    for rack_name in RACKS {
        for placement in placements() {
            for n in SIZES {
                let what = format!("wiredtiger {rack_name} {placement:?} n={n}");
                let data = pairs(n);
                let (mut got, mut want) = (rack(rack_name), rack(rack_name));
                if !fits(placement, &got) {
                    continue;
                }
                let tree = WiredTigerTree::build(&mut got.ctx(), &data, placement).unwrap();
                let (root, height, first) = wiredtiger(&mut want.ctx(), &data, placement).unwrap();
                assert_eq!(
                    (tree.root(), tree.height(), tree.first_leaf()),
                    (root, height, first),
                    "{what}"
                );
                assert_same_memory(&mut got.mem, &mut want.mem, &what);
            }
        }
    }
}

#[test]
fn google_btree_matches_word_at_a_time() {
    for rack_name in RACKS {
        for n in SIZES {
            let what = format!("btree {rack_name} n={n}");
            let data = pairs(n);
            let (mut got, mut want) = (rack(rack_name), rack(rack_name));
            let tree = GoogleBTree::build(&mut got.ctx(), &data).unwrap();
            let (root, height) = google_btree(&mut want.ctx(), &data).unwrap();
            assert_eq!((tree.root(), tree.height()), (root, height), "{what}");
            assert_same_memory(&mut got.mem, &mut want.mem, &what);
        }
    }
}

#[test]
fn hash_map_matches_word_at_a_time() {
    for rack_name in RACKS {
        for partition in [None, Some(2)] {
            for (buckets, n) in [(1, 40), (16, 1_000), (97, 5_000)] {
                let what = format!("hash {rack_name} {partition:?} {buckets}x{n}");
                // Keys collide into chains, and the last ones are inserted
                // into a built map, as WebService does.
                let data = pairs(n);
                let (head, tail) = data.split_at(n / 2);
                let (mut got, mut want) = (rack(rack_name), rack(rack_name));
                if partition.is_some_and(|nodes| nodes > got.mem.node_count()) {
                    continue;
                }
                let mut map = match partition {
                    Some(nodes) => {
                        HashMapDs::build_partitioned(&mut got.ctx(), buckets, head, nodes)
                    }
                    None => HashMapDs::build(&mut got.ctx(), buckets, head),
                }
                .unwrap();
                for &(k, v) in tail {
                    map.insert(&mut got.ctx(), k, v).unwrap();
                }
                let bucket_addrs = hash_map(&mut want.ctx(), buckets, &data, partition).unwrap();
                for &(k, _) in &data {
                    let b = (fnv1a(k) % buckets) as usize;
                    assert_eq!(map.bucket_addr(k), bucket_addrs[b], "{what}: key {k}");
                }
                assert_same_memory(&mut got.mem, &mut want.mem, &what);
            }
        }
    }
}

#[test]
fn lists_match_word_at_a_time() {
    for rack_name in RACKS {
        for kind in [ListKind::Singly, ListKind::Doubly] {
            for n in [0, 1, 300] {
                let what = format!("list {rack_name} {kind:?} n={n}");
                let values: Vec<u64> = (0..n).map(|i| i * 7 + 2).collect();
                let (mut got, mut want) = (rack(rack_name), rack(rack_name));
                let got_list = LinkedList::build(&mut got.ctx(), kind, &values).unwrap();
                let head = list(&mut want.ctx(), kind, &values).unwrap();
                assert_eq!(got_list.head(), head, "{what}");
                assert_same_memory(&mut got.mem, &mut want.mem, &what);
            }
        }
    }
}

#[test]
fn a_build_stores_each_node_once() {
    // One store per leaf and per internal node, where a full leaf took 8.
    let mut rack = Rack::new(1, Placement::Single(0), 1 << 16);
    let tree = BtrdbTree::build(&mut rack.ctx(), &samples(9_000), TreePlacement::Policy).unwrap();
    let group = DEFAULT_BTREE_FANOUT as u64 + 1;
    let mut level = 9_000u64.div_ceil(u64::from(DEFAULT_BTRDB_LEAF_CAP));
    let mut nodes = level;
    while level > 1 {
        level = level.div_ceil(group);
        nodes += level;
    }
    assert_eq!(tree.height(), 5);
    assert_eq!(rack.mem.write_epoch(), nodes);
}
