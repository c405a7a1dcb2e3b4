//! Binary search trees: `std::map`/`set`/`multimap`/`multiset` (red-black,
//! Listings 10–11) and Boost's intrusive AVL / splay / scapegoat trees
//! (Listings 12–13). All five share one offloaded `lower_bound` traversal —
//! Table 5's "same internal base function" observation.
//!
//! Trees are built host-side (the data-structure library's insert path runs
//! at the CPU node) in an index arena, then serialized into disaggregated
//! memory. Each balancing discipline is implemented from scratch:
//!
//! * red-black via Okasaki-style insertion balancing,
//! * AVL via height-tracked rotations,
//! * splay via bottom-up splaying of the inserted key,
//! * scapegoat via α-weight-balance subtree rebuilds (α = 0.7).

use crate::common::{init_state, BuildCtx, DsError, NodeImage};
use crate::traversal::{StagePlan, Traversal};
use pulse_dispatch::{CondExpr, Expr, IterSpec, Stmt};
use pulse_isa::{Cond, IterState, Program, Width};

/// Node field offsets in simulated memory.
pub mod layout {
    /// Key.
    pub const KEY: i32 = 0;
    /// Left child pointer.
    pub const LEFT: i32 = 8;
    /// Right child pointer.
    pub const RIGHT: i32 = 16;
    /// Value.
    pub const VALUE: i32 = 24;
    /// Node size in bytes.
    pub const NODE_SIZE: u64 = 32;
    /// Scratch: search key.
    pub const SP_KEY: u16 = 0;
    /// Scratch: best-so-far node address (`y` of Listings 10–13).
    pub const SP_Y: u16 = 8;
    /// Scratch: best-so-far key.
    pub const SP_Y_KEY: u16 = 16;
    /// Scratch: best-so-far value.
    pub const SP_Y_VAL: u16 = 24;
}

/// Balancing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BstKind {
    /// Red-black (the STL ordered containers).
    RedBlack,
    /// AVL (Boost `avl_set`).
    Avl,
    /// Splay (Boost `splay_set`).
    Splay,
    /// Scapegoat (Boost `sg_set`).
    Scapegoat,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct HNode {
    key: u64,
    value: u64,
    left: Option<usize>,
    right: Option<usize>,
    color: Color, // red-black only
    height: i32,  // AVL only
}

impl HNode {
    fn new(key: u64, value: u64) -> HNode {
        HNode {
            key,
            value,
            left: None,
            right: None,
            color: Color::Red,
            height: 1,
        }
    }
}

/// Host-side tree under construction.
#[derive(Debug)]
struct HostTree {
    kind: BstKind,
    arena: Vec<HNode>,
    root: Option<usize>,
    /// Scapegoat bookkeeping.
    max_size: usize,
}

const SCAPEGOAT_ALPHA: f64 = 0.7;

impl HostTree {
    fn new(kind: BstKind) -> HostTree {
        HostTree {
            kind,
            arena: Vec::new(),
            root: None,
            max_size: 0,
        }
    }

    /// The node at arena index `i` (test instrumentation).
    #[cfg(test)]
    fn node(&self, i: usize) -> &HNode {
        &self.arena[i]
    }

    fn insert(&mut self, key: u64, value: u64) {
        match self.kind {
            BstKind::RedBlack => {
                let root = self.root;
                let new_root = self.rb_insert(root, key, value);
                self.arena[new_root].color = Color::Black;
                self.root = Some(new_root);
            }
            BstKind::Avl => {
                let root = self.root;
                self.root = Some(self.avl_insert(root, key, value));
            }
            BstKind::Splay => {
                self.splay_insert(key, value);
            }
            BstKind::Scapegoat => {
                self.scapegoat_insert(key, value);
            }
        }
    }

    fn alloc_node(&mut self, key: u64, value: u64) -> usize {
        self.arena.push(HNode::new(key, value));
        self.arena.len() - 1
    }

    // ---- red-black (Okasaki insertion balancing) ----

    fn is_red(&self, n: Option<usize>) -> bool {
        matches!(n, Some(i) if self.arena[i].color == Color::Red)
    }

    fn rb_insert(&mut self, t: Option<usize>, key: u64, value: u64) -> usize {
        let Some(i) = t else {
            return self.alloc_node(key, value);
        };
        // Duplicates go right (multimap/multiset semantics).
        if key < self.arena[i].key {
            let l = self.arena[i].left;
            let nl = self.rb_insert(l, key, value);
            self.arena[i].left = Some(nl);
        } else {
            let r = self.arena[i].right;
            let nr = self.rb_insert(r, key, value);
            self.arena[i].right = Some(nr);
        }
        self.rb_balance(i)
    }

    /// Okasaki's four-case balance around a black grandparent `g`.
    fn rb_balance(&mut self, g: usize) -> usize {
        if self.arena[g].color != Color::Black {
            return g;
        }
        let l = self.arena[g].left;
        let r = self.arena[g].right;
        if let Some(p) = l {
            if self.is_red(Some(p)) && self.is_red(self.arena[p].left) {
                let x = self.arena[p].left.expect("red child");
                return self.rb_rebuild(x, p, g);
            }
            if self.is_red(Some(p)) && self.is_red(self.arena[p].right) {
                let x = self.arena[p].right.expect("red child");
                return self.rb_rebuild(p, x, g);
            }
        }
        if let Some(p) = r {
            if self.is_red(Some(p)) && self.is_red(self.arena[p].left) {
                let x = self.arena[p].left.expect("red child");
                return self.rb_rebuild(g, x, p);
            }
            if self.is_red(Some(p)) && self.is_red(self.arena[p].right) {
                let x = self.arena[p].right.expect("red child");
                return self.rb_rebuild(g, p, x);
            }
        }
        g
    }

    /// Okasaki's rebuild: `(a, b, c)` in key order become red `b` over
    /// black `a` and `c`, with the four ordered subtrees reattached. The
    /// case (LL/LR/RL/RR) is decoded from the trio's current links.
    fn rb_rebuild(&mut self, a: usize, b: usize, c: usize) -> usize {
        let (t1, t2, t3, t4);
        if self.arena[c].left == Some(b) && self.arena[b].left == Some(a) {
            // LL: a=x, b=p, c=g
            t1 = self.arena[a].left;
            t2 = self.arena[a].right;
            t3 = self.arena[b].right;
            t4 = self.arena[c].right;
        } else if self.arena[c].left == Some(a) && self.arena[a].right == Some(b) {
            // LR: a=p, b=x, c=g
            t1 = self.arena[a].left;
            t2 = self.arena[b].left;
            t3 = self.arena[b].right;
            t4 = self.arena[c].right;
        } else if self.arena[a].right == Some(c) && self.arena[c].left == Some(b) {
            // RL: a=g, b=x, c=p
            t1 = self.arena[a].left;
            t2 = self.arena[b].left;
            t3 = self.arena[b].right;
            t4 = self.arena[c].right;
        } else if self.arena[a].right == Some(b) && self.arena[b].right == Some(c) {
            // RR: a=g, b=p, c=x
            t1 = self.arena[a].left;
            t2 = self.arena[b].left;
            t3 = self.arena[c].left;
            t4 = self.arena[c].right;
        } else {
            unreachable!("rb_rebuild called on a non-case trio");
        }
        self.arena[a].left = t1;
        self.arena[a].right = t2;
        self.arena[a].color = Color::Black;
        self.arena[c].left = t3;
        self.arena[c].right = t4;
        self.arena[c].color = Color::Black;
        self.arena[b].left = Some(a);
        self.arena[b].right = Some(c);
        self.arena[b].color = Color::Red;
        b
    }

    // ---- AVL ----

    fn h(&self, n: Option<usize>) -> i32 {
        n.map_or(0, |i| self.arena[i].height)
    }

    fn avl_fix(&mut self, i: usize) {
        self.arena[i].height = 1 + self.h(self.arena[i].left).max(self.h(self.arena[i].right));
    }

    fn rotate_right(&mut self, y: usize) -> usize {
        let x = self.arena[y].left.expect("rotate_right needs left child");
        self.arena[y].left = self.arena[x].right;
        self.arena[x].right = Some(y);
        self.avl_fix(y);
        self.avl_fix(x);
        x
    }

    fn rotate_left(&mut self, x: usize) -> usize {
        let y = self.arena[x].right.expect("rotate_left needs right child");
        self.arena[x].right = self.arena[y].left;
        self.arena[y].left = Some(x);
        self.avl_fix(x);
        self.avl_fix(y);
        y
    }

    fn avl_insert(&mut self, t: Option<usize>, key: u64, value: u64) -> usize {
        let Some(i) = t else {
            return self.alloc_node(key, value);
        };
        if key < self.arena[i].key {
            let l = self.arena[i].left;
            let nl = self.avl_insert(l, key, value);
            self.arena[i].left = Some(nl);
        } else {
            let r = self.arena[i].right;
            let nr = self.avl_insert(r, key, value);
            self.arena[i].right = Some(nr);
        }
        self.avl_fix(i);
        let bf = self.h(self.arena[i].left) - self.h(self.arena[i].right);
        if bf > 1 {
            let l = self.arena[i].left.expect("left-heavy");
            if self.h(self.arena[l].right) > self.h(self.arena[l].left) {
                let nl = self.rotate_left(l);
                self.arena[i].left = Some(nl);
            }
            return self.rotate_right(i);
        }
        if bf < -1 {
            let r = self.arena[i].right.expect("right-heavy");
            if self.h(self.arena[r].left) > self.h(self.arena[r].right) {
                let nr = self.rotate_right(r);
                self.arena[i].right = Some(nr);
            }
            return self.rotate_left(i);
        }
        i
    }

    // ---- splay ----

    fn splay_insert(&mut self, key: u64, value: u64) {
        let n = self.alloc_node(key, value);
        match self.root {
            None => self.root = Some(n),
            Some(root) => {
                let root = self.splay(root, key);
                // Split at root and make n the new root.
                if key < self.arena[root].key {
                    self.arena[n].left = self.arena[root].left;
                    self.arena[n].right = Some(root);
                    self.arena[root].left = None;
                } else {
                    self.arena[n].right = self.arena[root].right;
                    self.arena[n].left = Some(root);
                    self.arena[root].right = None;
                }
                self.root = Some(n);
            }
        }
    }

    /// Sleator's simple top-down splay: returns the new subtree root, the
    /// node closest to `key`.
    fn splay(&mut self, mut t: usize, key: u64) -> usize {
        // Dummy assembly node, last in the arena until it is popped below.
        let dummy = self.arena.len();
        self.arena.push(HNode::new(0, 0));
        let (mut l, mut r) = (dummy, dummy);
        loop {
            if key < self.arena[t].key {
                let Some(mut tl) = self.arena[t].left else {
                    break;
                };
                if key < self.arena[tl].key {
                    // zig-zig: rotate right.
                    self.arena[t].left = self.arena[tl].right;
                    self.arena[tl].right = Some(t);
                    t = tl;
                    let Some(ntl) = self.arena[t].left else {
                        break;
                    };
                    tl = ntl;
                }
                // Link right.
                self.arena[r].left = Some(t);
                r = t;
                t = tl;
            } else if key > self.arena[t].key {
                let Some(mut tr) = self.arena[t].right else {
                    break;
                };
                if key > self.arena[tr].key {
                    // zag-zag: rotate left.
                    self.arena[t].right = self.arena[tr].left;
                    self.arena[tr].left = Some(t);
                    t = tr;
                    let Some(ntr) = self.arena[t].right else {
                        break;
                    };
                    tr = ntr;
                }
                // Link left.
                self.arena[l].right = Some(t);
                l = t;
                t = tr;
            } else {
                break;
            }
        }
        // Assemble.
        self.arena[l].right = self.arena[t].left;
        self.arena[r].left = self.arena[t].right;
        self.arena[t].left = self.arena[dummy].right;
        self.arena[t].right = self.arena[dummy].left;
        // No node links to the dummy, so only real nodes stay in the arena.
        self.arena.pop();
        t
    }

    // ---- scapegoat ----

    fn subtree_size(&self, n: Option<usize>) -> usize {
        match n {
            None => 0,
            Some(i) => {
                1 + self.subtree_size(self.arena[i].left) + self.subtree_size(self.arena[i].right)
            }
        }
    }

    fn scapegoat_insert(&mut self, key: u64, value: u64) {
        let n = self.alloc_node(key, value);
        self.max_size = self.max_size.max(self.live_size());
        let Some(root) = self.root else {
            self.root = Some(n);
            return;
        };
        // BST insert, recording the path.
        let mut path = vec![root];
        let mut cur = root;
        loop {
            let next = if key < self.arena[cur].key {
                self.arena[cur].left
            } else {
                self.arena[cur].right
            };
            match next {
                Some(c) => {
                    path.push(c);
                    cur = c;
                }
                None => {
                    if key < self.arena[cur].key {
                        self.arena[cur].left = Some(n);
                    } else {
                        self.arena[cur].right = Some(n);
                    }
                    path.push(n);
                    break;
                }
            }
        }
        // Depth check: rebuild at the scapegoat if too deep.
        let size = self.live_size();
        let limit = (size.max(2) as f64).log(1.0 / SCAPEGOAT_ALPHA).floor() as usize + 1;
        if path.len() > limit {
            // Walk up to find the scapegoat: first ancestor with
            // size(child) > α · size(node).
            for w in (0..path.len() - 1).rev() {
                let node = path[w];
                let child = path[w + 1];
                let ns = self.subtree_size(Some(node));
                let cs = self.subtree_size(Some(child));
                if (cs as f64) > SCAPEGOAT_ALPHA * ns as f64 {
                    let rebuilt = self.rebuild_balanced(node);
                    if w == 0 {
                        self.root = Some(rebuilt);
                    } else {
                        let parent = path[w - 1];
                        if self.arena[parent].left == Some(node) {
                            self.arena[parent].left = Some(rebuilt);
                        } else {
                            self.arena[parent].right = Some(rebuilt);
                        }
                    }
                    return;
                }
            }
            // No scapegoat found (rare with float rounding): rebuild root.
            let root = self.root.expect("non-empty");
            let rebuilt = self.rebuild_balanced(root);
            self.root = Some(rebuilt);
        }
    }

    fn live_size(&self) -> usize {
        self.subtree_size(self.root)
    }

    /// Flattens a subtree to sorted order and rebuilds it perfectly
    /// balanced.
    fn rebuild_balanced(&mut self, n: usize) -> usize {
        let mut sorted = Vec::new();
        self.flatten(Some(n), &mut sorted);
        self.build_from_sorted(&sorted).expect("non-empty subtree")
    }

    fn flatten(&self, n: Option<usize>, out: &mut Vec<usize>) {
        if let Some(i) = n {
            self.flatten(self.arena[i].left, out);
            out.push(i);
            self.flatten(self.arena[i].right, out);
        }
    }

    fn build_from_sorted(&mut self, idxs: &[usize]) -> Option<usize> {
        if idxs.is_empty() {
            return None;
        }
        let mid = idxs.len() / 2;
        let root = idxs[mid];
        let left = self.build_from_sorted(&idxs[..mid]);
        let right = self.build_from_sorted(&idxs[mid + 1..]);
        self.arena[root].left = left;
        self.arena[root].right = right;
        Some(root)
    }

    // ---- shared inspection helpers (used by tests) ----

    fn depth(&self, n: Option<usize>) -> usize {
        match n {
            None => 0,
            Some(i) => {
                1 + self
                    .depth(self.arena[i].left)
                    .max(self.depth(self.arena[i].right))
            }
        }
    }

    fn check_bst(&self, n: Option<usize>, lo: Option<u64>, hi: Option<u64>) -> bool {
        let Some(i) = n else { return true };
        let k = self.arena[i].key;
        if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k > h) {
            return false;
        }
        self.check_bst(self.arena[i].left, lo, Some(k))
            && self.check_bst(self.arena[i].right, Some(k), hi)
    }
}

/// A search tree in disaggregated memory, traversed by the shared
/// `lower_bound` program.
#[derive(Debug)]
pub struct SearchTree {
    kind: BstKind,
    root: u64,
    len: usize,
    depth: usize,
}

impl SearchTree {
    /// Builds a tree of `kind` by inserting `pairs` in order (duplicates
    /// allowed — multimap/multiset semantics place them to the right).
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(
        ctx: &mut BuildCtx<'_>,
        kind: BstKind,
        pairs: &[(u64, u64)],
    ) -> Result<SearchTree, DsError> {
        let mut host = HostTree::new(kind);
        for &(k, v) in pairs {
            host.insert(k, v);
        }
        debug_assert!(host.check_bst(host.root, None, None));
        // Serialize: allocate simulated nodes in arena order, then patch
        // pointers.
        let sim_addr = host
            .arena
            .iter()
            .map(|_| ctx.alloc(layout::NODE_SIZE))
            .collect::<Result<Vec<u64>, _>>()?;
        for (n, &a) in host.arena.iter().zip(&sim_addr) {
            let mut node = NodeImage::new();
            node.set(layout::KEY, n.key)
                .set(layout::LEFT, n.left.map_or(0, |c| sim_addr[c]))
                .set(layout::RIGHT, n.right.map_or(0, |c| sim_addr[c]))
                .set(layout::VALUE, n.value);
            ctx.store(a, &node)?;
        }
        Ok(SearchTree {
            kind,
            root: host.root.map_or(0, |r| sim_addr[r]),
            len: pairs.len(),
            depth: host.depth(host.root),
        })
    }

    /// The balancing discipline.
    pub fn kind(&self) -> BstKind {
        self.kind
    }

    /// Number of inserted pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root address (0 when empty).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Maximum depth (host-side measurement; equals the worst-case
    /// offloaded iteration count).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The shared `lower_bound` iterator (Listings 10–13): descend,
    /// remembering the smallest key ≥ the probe in the scratchpad; never
    /// dereferences a null child.
    pub fn lower_bound_spec() -> IterSpec {
        use layout::*;
        let remember = vec![
            Stmt::SetScratch {
                off: SP_Y,
                width: Width::B8,
                value: Expr::CurPtr,
            },
            Stmt::SetScratch {
                off: SP_Y_KEY,
                width: Width::B8,
                value: Expr::field_u64(KEY),
            },
            Stmt::SetScratch {
                off: SP_Y_VAL,
                width: Width::B8,
                value: Expr::field_u64(VALUE),
            },
        ];
        let mut go_left = remember;
        go_left.push(Stmt::If {
            cond: CondExpr::new(Cond::Eq, Expr::field_u64(LEFT), Expr::Const(0)),
            then: vec![Stmt::Finish {
                code: Expr::Const(0),
            }],
            els: vec![Stmt::Advance {
                next: Expr::field_u64(LEFT),
            }],
        });
        let go_right = vec![Stmt::If {
            cond: CondExpr::new(Cond::Eq, Expr::field_u64(RIGHT), Expr::Const(0)),
            then: vec![Stmt::Finish {
                code: Expr::Const(0),
            }],
            els: vec![Stmt::Advance {
                next: Expr::field_u64(RIGHT),
            }],
        }];
        IterSpec::new(
            "bst::lower_bound",
            32,
            vec![Stmt::If {
                cond: CondExpr::new(Cond::GeU, Expr::field_u64(KEY), Expr::scratch_u64(SP_KEY)),
                then: go_left,
                els: go_right,
            }],
        )
    }

    /// `init()` for `lower_bound(key)`.
    ///
    /// # Errors
    ///
    /// [`DsError::Empty`] on an empty tree.
    pub fn init_lower_bound(&self, program: &Program, key: u64) -> Result<IterState, DsError> {
        if self.root == 0 {
            return Err(DsError::Empty);
        }
        Ok(init_state(program, self.root, &[(layout::SP_KEY, key)]))
    }

    /// Decodes the traversal result: `Some((node_addr, key, value))` of the
    /// lower bound, or `None` if every key is below the probe.
    pub fn decode_lower_bound(state: &IterState) -> Option<(u64, u64, u64)> {
        let y = state.scratch_u64(layout::SP_Y as usize);
        (y != 0).then(|| {
            (
                y,
                state.scratch_u64(layout::SP_Y_KEY as usize),
                state.scratch_u64(layout::SP_Y_VAL as usize),
            )
        })
    }
}

impl Traversal for SearchTree {
    fn name(&self) -> &'static str {
        "bst::lower_bound"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![Self::lower_bound_spec()]
    }

    fn plan_into(&self, key: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        if self.root == 0 {
            return Err(DsError::Empty);
        }
        out.clear();
        out.push(StagePlan::fixed(self.root, vec![(layout::SP_KEY, key)]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::compile;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};
    use std::collections::BTreeMap;

    const KINDS: [BstKind; 4] = [
        BstKind::RedBlack,
        BstKind::Avl,
        BstKind::Splay,
        BstKind::Scapegoat,
    ];

    fn pseudo_pairs(n: u64) -> Vec<(u64, u64)> {
        // Deterministic scramble (odd multiplier is a bijection mod 2^64).
        (0..n)
            .map(|i| {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (n * 4);
                (k, k + 1)
            })
            .collect()
    }

    fn offloaded_lower_bound(
        mem: &mut ClusterMemory,
        tree: &SearchTree,
        prog: &pulse_isa::Program,
        key: u64,
    ) -> (Option<(u64, u64)>, u32) {
        let mut st = tree.init_lower_bound(prog, key).unwrap();
        let run = Interpreter::new()
            .run_traversal(prog, &mut st, mem, 4096)
            .unwrap();
        assert_eq!(run.return_code, Some(0));
        (
            SearchTree::decode_lower_bound(&st).map(|(_, k, v)| (k, v)),
            run.iterations,
        )
    }

    #[test]
    fn lower_bound_matches_std_btreemap_for_all_kinds() {
        let pairs = pseudo_pairs(300);
        let mut reference = BTreeMap::new();
        for &(k, v) in &pairs {
            reference.insert(k, v); // last-wins; duplicates handled below
        }
        for kind in KINDS {
            let mut mem = ClusterMemory::new(4);
            let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            // Deduplicate for exact-value comparison (multimap duplicates
            // are order-dependent).
            let uniq: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            let tree = SearchTree::build(&mut ctx, kind, &uniq).unwrap();
            let prog = compile(&SearchTree::lower_bound_spec()).unwrap();
            for probe in [0u64, 1, 57, 500, 999, 1200, u64::MAX] {
                let want = reference.range(probe..).next().map(|(&k, &v)| (k, v));
                let (got, _) = offloaded_lower_bound(&mut mem, &tree, &prog, probe);
                assert_eq!(got, want, "{kind:?} lower_bound({probe})");
            }
        }
    }

    #[test]
    fn balanced_kinds_have_logarithmic_depth() {
        let pairs = pseudo_pairs(1000);
        for kind in [BstKind::RedBlack, BstKind::Avl, BstKind::Scapegoat] {
            let mut mem = ClusterMemory::new(1);
            let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let tree = SearchTree::build(&mut ctx, kind, &pairs).unwrap();
            // log2(1000) ~ 10; generous per-discipline slack: AVL 1.44x,
            // RB 2x, scapegoat log_{1/0.7}.
            assert!(
                tree.depth() <= 24,
                "{kind:?} depth {} too deep",
                tree.depth()
            );
        }
    }

    #[test]
    fn avl_is_strictly_height_balanced() {
        let mut host = HostTree::new(BstKind::Avl);
        for (k, v) in pseudo_pairs(500) {
            host.insert(k, v);
        }
        fn check(h: &HostTree, n: Option<usize>) -> i32 {
            let Some(i) = n else { return 0 };
            let l = check(h, h.node(i).left);
            let r = check(h, h.node(i).right);
            assert!((l - r).abs() <= 1, "imbalance at key {}", h.node(i).key);
            1 + l.max(r)
        }
        check(&host, host.root);
    }

    #[test]
    fn red_black_invariants_hold() {
        let mut host = HostTree::new(BstKind::RedBlack);
        for (k, v) in pseudo_pairs(500) {
            host.insert(k, v);
        }
        // Root is black; no red node has a red child; equal black heights.
        let root = host.root.unwrap();
        assert_eq!(host.node(root).color, Color::Black);
        fn bh(h: &HostTree, n: Option<usize>) -> i32 {
            let Some(i) = n else { return 1 };
            let node = h.node(i);
            if node.color == Color::Red {
                assert!(!h.is_red(node.left), "red-red at {}", node.key);
                assert!(!h.is_red(node.right), "red-red at {}", node.key);
            }
            let l = bh(h, node.left);
            let r = bh(h, node.right);
            assert_eq!(l, r, "black-height mismatch at {}", node.key);
            l + if node.color == Color::Black { 1 } else { 0 }
        }
        bh(&host, host.root);
    }

    #[test]
    fn splay_moves_recent_keys_near_root() {
        let mut host = HostTree::new(BstKind::Splay);
        for (k, v) in pseudo_pairs(200) {
            host.insert(k, v);
        }
        // The last inserted key is the root.
        let last = pseudo_pairs(200).last().unwrap().0;
        assert_eq!(host.node(host.root.unwrap()).key, last);
        assert!(host.check_bst(host.root, None, None));
    }

    #[test]
    fn the_largest_key_is_an_ordinary_key_for_all_kinds() {
        let pairs = [(1, 10), (5, 50), (u64::MAX, 7)];
        for kind in KINDS {
            let mut mem = ClusterMemory::new(1);
            let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let tree = SearchTree::build(&mut ctx, kind, &pairs).unwrap();
            assert_ne!(tree.root(), 0, "{kind:?}");
            let prog = compile(&SearchTree::lower_bound_spec()).unwrap();
            for (k, v) in pairs {
                let (got, _) = offloaded_lower_bound(&mut mem, &tree, &prog, k);
                assert_eq!(got, Some((k, v)), "{kind:?} lower_bound({k})");
            }
        }
    }

    #[test]
    fn scapegoat_depth_bounded_by_alpha_log() {
        let mut host = HostTree::new(BstKind::Scapegoat);
        // Adversarial: sorted insertion order.
        for k in 0..512u64 {
            host.insert(k, k);
        }
        let n = 512f64;
        let bound = n.log(1.0 / SCAPEGOAT_ALPHA).floor() as usize + 2;
        assert!(
            host.depth(host.root) <= bound,
            "depth {} > bound {bound}",
            host.depth(host.root)
        );
        assert!(host.check_bst(host.root, None, None));
    }

    #[test]
    fn multiset_duplicates_are_found_leftmost() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        // Three entries with key 50, values distinguish insert order.
        let pairs = vec![(10, 1), (50, 2), (50, 3), (50, 4), (90, 5)];
        let tree = SearchTree::build(&mut ctx, BstKind::Avl, &pairs).unwrap();
        let prog = compile(&SearchTree::lower_bound_spec()).unwrap();
        let (got, _) = offloaded_lower_bound(&mut mem, &tree, &prog, 50);
        let (k, _v) = got.unwrap();
        assert_eq!(k, 50);
    }

    #[test]
    fn traversal_iteration_count_equals_descent_depth() {
        let pairs = pseudo_pairs(1000);
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 16);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let tree = SearchTree::build(&mut ctx, BstKind::Avl, &pairs).unwrap();
        let prog = compile(&SearchTree::lower_bound_spec()).unwrap();
        let (_, iters) = offloaded_lower_bound(&mut mem, &tree, &prog, 500);
        assert!(iters as usize <= tree.depth());
        assert!(iters >= 2);
    }

    /// The serializer `SearchTree::build` used before nodes were stored
    /// whole: every field its own 8-byte write. Returns the root.
    fn build_word_at_a_time(ctx: &mut BuildCtx<'_>, kind: BstKind, pairs: &[(u64, u64)]) -> u64 {
        let mut host = HostTree::new(kind);
        for &(k, v) in pairs {
            host.insert(k, v);
        }
        let sim_addr: Vec<u64> = host
            .arena
            .iter()
            .map(|_| ctx.alloc(layout::NODE_SIZE).unwrap())
            .collect();
        for (n, &a) in host.arena.iter().zip(&sim_addr) {
            let link = |c: Option<usize>| c.map_or(0, |c| sim_addr[c]);
            ctx.put(a, layout::KEY as i64, n.key).unwrap();
            ctx.put(a, layout::VALUE as i64, n.value).unwrap();
            ctx.put(a, layout::LEFT as i64, link(n.left)).unwrap();
            ctx.put(a, layout::RIGHT as i64, link(n.right)).unwrap();
        }
        host.root.map_or(0, |r| sim_addr[r])
    }

    #[test]
    fn build_matches_word_at_a_time_serialization() {
        use pulse_isa::MemBus;
        for kind in KINDS {
            for n in [0, 1, 700] {
                // Duplicate keys included: they go right.
                let pairs = pseudo_pairs(n);
                let rack = || {
                    (
                        ClusterMemory::new(3),
                        ClusterAllocator::new(Placement::Striped, 1024),
                    )
                };
                let ((mut got, mut got_alloc), (mut want, mut want_alloc)) = (rack(), rack());
                let tree =
                    SearchTree::build(&mut BuildCtx::new(&mut got, &mut got_alloc), kind, &pairs)
                        .unwrap();
                let root = build_word_at_a_time(
                    &mut BuildCtx::new(&mut want, &mut want_alloc),
                    kind,
                    &pairs,
                );
                assert_eq!(tree.root(), root, "{kind:?} n={n}");
                let ranges = want.all_ranges();
                assert_eq!(got.all_ranges(), ranges, "{kind:?} n={n}");
                for (start, end, _) in ranges {
                    let len = (end - start) as usize;
                    let (mut a, mut b) = (vec![0; len], vec![0; len]);
                    got.read(start, &mut a).unwrap();
                    want.read(start, &mut b).unwrap();
                    assert!(a == b, "{kind:?} n={n}: extent at {start:#x}");
                }
                assert_eq!(got.backed_bytes(), want.backed_bytes(), "{kind:?} n={n}");
            }
        }
    }

    #[test]
    fn empty_tree_rejects_init() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let tree = SearchTree::build(&mut ctx, BstKind::RedBlack, &[]).unwrap();
        assert!(tree.is_empty());
        let prog = compile(&SearchTree::lower_bound_spec()).unwrap();
        assert!(tree.init_lower_bound(&prog, 1).is_err());
    }
}
