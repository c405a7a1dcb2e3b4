//! Linked lists: `std::list` (doubly linked) and `std::forward_list`
//! (singly linked), both served by the same `std::find` base function
//! (Table 5, Listings 4–5).

use crate::common::{init_state, BuildCtx, DsError, NodeImage};
use crate::traversal::{StagePlan, Traversal};
use pulse_dispatch::samples::hash_layout as layout;
use pulse_dispatch::{CondExpr, Expr, IterSpec, Stmt};
use pulse_isa::{Cond, IterState, Program, Width};

/// Which STL list flavour a [`LinkedList`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// `std::list` — nodes carry a `prev` pointer too.
    Doubly,
    /// `std::forward_list` — forward pointers only.
    Singly,
}

/// A linked list in disaggregated memory.
///
/// Node layout (singly): `value u64 | pad u64 | next u64` — deliberately
/// identical to the hash-chain node so `std::find` and the bucket walk
/// share one compiled program, mirroring Table 5's shared internal
/// functions. The doubly linked variant appends a `prev` field the
/// traversal never reads (the window stays tight thanks to coalescing).
#[derive(Debug)]
pub struct LinkedList {
    kind: ListKind,
    head: u64,
    len: usize,
}

/// Extra field offset for the `prev` pointer in doubly linked nodes.
const PREV: i32 = 24;

impl LinkedList {
    /// Builds a list containing `values` in order.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn build(ctx: &mut BuildCtx<'_>, kind: ListKind, values: &[u64]) -> Result<Self, DsError> {
        let node_size = match kind {
            ListKind::Doubly => 32,
            ListKind::Singly => layout::NODE_SIZE,
        };
        let mut addrs = Vec::with_capacity(values.len());
        for _ in values {
            addrs.push(ctx.alloc(node_size)?);
        }
        for (i, (&v, &a)) in values.iter().zip(addrs.iter()).enumerate() {
            let mut node = NodeImage::new();
            node.set(layout::KEY, v)
                .set(layout::VALUE, v)
                .set(layout::NEXT, addrs.get(i + 1).copied().unwrap_or(0));
            if kind == ListKind::Doubly {
                node.set(PREV, if i > 0 { addrs[i - 1] } else { 0 });
            }
            ctx.store(a, &node)?;
        }
        Ok(LinkedList {
            kind,
            head: addrs.first().copied().unwrap_or(0),
            len: values.len(),
        })
    }

    /// The list flavour.
    pub fn kind(&self) -> ListKind {
        self.kind
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Head node address (0 when empty).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The `std::find` iterator (Listing 5): walk until `value` matches or
    /// the chain ends. Scratch: value at 0, found node address at 8.
    pub fn find_spec() -> IterSpec {
        IterSpec::new(
            "std::find(list)",
            16,
            vec![
                Stmt::if_then(
                    CondExpr::new(
                        Cond::Eq,
                        Expr::field_u64(layout::KEY),
                        Expr::scratch_u64(layout::SP_KEY),
                    ),
                    vec![
                        Stmt::SetScratch {
                            off: layout::SP_RESULT,
                            width: Width::B8,
                            value: Expr::CurPtr,
                        },
                        Stmt::Finish {
                            code: Expr::Const(layout::FOUND),
                        },
                    ],
                ),
                Stmt::if_then(
                    CondExpr::new(Cond::Eq, Expr::field_u64(layout::NEXT), Expr::Const(0)),
                    vec![Stmt::Finish {
                        code: Expr::Const(layout::NOT_FOUND),
                    }],
                ),
                Stmt::Advance {
                    next: Expr::field_u64(layout::NEXT),
                },
            ],
        )
    }

    /// `init()`: the CPU-side step producing the traversal start state.
    ///
    /// # Errors
    ///
    /// [`DsError::Empty`] if the list has no nodes.
    pub fn init_find(&self, program: &Program, value: u64) -> Result<IterState, DsError> {
        if self.head == 0 {
            return Err(DsError::Empty);
        }
        Ok(init_state(program, self.head, &[(layout::SP_KEY, value)]))
    }
}

impl Traversal for LinkedList {
    fn name(&self) -> &'static str {
        "list::find"
    }

    fn stages(&self) -> Vec<IterSpec> {
        vec![Self::find_spec()]
    }

    fn plan_into(&self, value: u64, out: &mut Vec<StagePlan>) -> Result<(), DsError> {
        if self.head == 0 {
            return Err(DsError::Empty);
        }
        out.clear();
        out.push(StagePlan::fixed(self.head, vec![(layout::SP_KEY, value)]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::compile;
    use pulse_isa::Interpreter;
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};

    fn run_find(kind: ListKind, values: &[u64], needle: u64) -> (Option<u64>, u32) {
        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let list = LinkedList::build(&mut ctx, kind, values).unwrap();
        let prog = compile(&LinkedList::find_spec()).unwrap();
        let mut st = list.init_find(&prog, needle).unwrap();
        let run = Interpreter::new()
            .run_traversal(&prog, &mut st, &mut mem, 4096)
            .unwrap();
        let found = match run.return_code {
            Some(0) => Some(st.scratch_u64(layout::SP_RESULT as usize)),
            _ => None,
        };
        (found, run.iterations)
    }

    #[test]
    fn find_hits_at_expected_position() {
        let values: Vec<u64> = (100..150).collect();
        let (found, iters) = run_find(ListKind::Singly, &values, 120);
        assert!(found.is_some());
        assert_eq!(iters, 21); // positions 0..=20
    }

    #[test]
    fn find_misses_scan_whole_list() {
        let values: Vec<u64> = (0..32).collect();
        let (found, iters) = run_find(ListKind::Doubly, &values, 999);
        assert_eq!(found, None);
        assert_eq!(iters, 32);
    }

    #[test]
    fn doubly_and_singly_agree() {
        let values: Vec<u64> = (0..64).map(|i| i * 7).collect();
        for needle in [0, 7, 441, 5] {
            let a = run_find(ListKind::Singly, &values, needle).0.is_some();
            let b = run_find(ListKind::Doubly, &values, needle).0.is_some();
            assert_eq!(a, b, "needle {needle}");
            assert_eq!(a, values.contains(&needle));
        }
    }

    #[test]
    fn doubly_links_are_consistent() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let list = LinkedList::build(&mut ctx, ListKind::Doubly, &[1, 2, 3]).unwrap();
        // Walk forward collecting addrs, then verify prev links.
        let mut addrs = vec![list.head()];
        loop {
            let next = ctx
                .get(*addrs.last().unwrap(), layout::NEXT as i64)
                .unwrap();
            if next == 0 {
                break;
            }
            addrs.push(next);
        }
        assert_eq!(addrs.len(), 3);
        assert_eq!(ctx.get(addrs[0], PREV as i64).unwrap(), 0);
        assert_eq!(ctx.get(addrs[1], PREV as i64).unwrap(), addrs[0]);
        assert_eq!(ctx.get(addrs[2], PREV as i64).unwrap(), addrs[1]);
    }

    #[test]
    fn empty_list_rejects_init() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let list = LinkedList::build(&mut ctx, ListKind::Singly, &[]).unwrap();
        assert!(list.is_empty());
        let prog = compile(&LinkedList::find_spec()).unwrap();
        assert_eq!(list.init_find(&prog, 1).unwrap_err(), DsError::Empty);
    }
}
