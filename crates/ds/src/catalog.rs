//! The Table 1/5 catalogue: the thirteen data structures pulse ports, each
//! mapped to its shared internal base function — used by the `table5`
//! bench to validate and print the full matrix, and by the runtime
//! integration tests to drive every port through the same
//! [`Traversal`]-based submit/poll path.

use crate::bst::{BstKind, SearchTree};
use crate::btree::GoogleBTree;
use crate::common::{BuildCtx, DsError};
use crate::hash::{BimapDs, HashMapDs, HashSetDs};
use crate::list::{LinkedList, ListKind};
use crate::traversal::Traversal;
use pulse_dispatch::IterSpec;

/// Which library a ported structure comes from (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// C++ standard library containers.
    Stl,
    /// Boost (incl. Boost.Intrusive trees).
    Boost,
    /// Google `cpp-btree`.
    Google,
}

/// Structure category (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Chain-shaped (lists, hash chains).
    List,
    /// Tree-shaped.
    Tree,
}

/// Constructor signature every catalogue row provides: seed the structure
/// into disaggregated memory from `(key, value)` pairs and hand back its
/// [`Traversal`] face. This is the whole integration surface — a new
/// structure needs a `Traversal` impl and one of these, nothing else.
pub type BuildFn = fn(&mut BuildCtx<'_>, &[(u64, u64)]) -> Result<Box<dyn Traversal>, DsError>;

/// One catalogue row.
#[derive(Debug)]
pub struct PortedStructure {
    /// Structure name as the paper lists it.
    pub name: &'static str,
    /// Source library.
    pub library: Library,
    /// Category.
    pub category: Category,
    /// The internal base function several APIs share (Table 5).
    pub base_function: &'static str,
    /// Produces the structure's offloaded iterator spec (stage 0 — kept for
    /// the Table 5 shared-program check; [`PortedStructure::build`] is the
    /// runtime path).
    pub spec: fn() -> IterSpec,
    /// Builds an instance over `(key, value)` pairs.
    pub build: BuildFn,
}

/// Bucket count the hash-family constructors use: small enough that every
/// probe walks a real chain, large enough to spread across nodes.
const CATALOG_HASH_BUCKETS: u64 = 16;

fn build_list_doubly(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    Ok(Box::new(LinkedList::build(ctx, ListKind::Doubly, &keys)?))
}

fn build_list_singly(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    Ok(Box::new(LinkedList::build(ctx, ListKind::Singly, &keys)?))
}

fn build_bst(
    ctx: &mut BuildCtx<'_>,
    kind: BstKind,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    Ok(Box::new(SearchTree::build(ctx, kind, pairs)?))
}

fn build_red_black(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    build_bst(ctx, BstKind::RedBlack, pairs)
}

fn build_avl(ctx: &mut BuildCtx<'_>, pairs: &[(u64, u64)]) -> Result<Box<dyn Traversal>, DsError> {
    build_bst(ctx, BstKind::Avl, pairs)
}

fn build_splay(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    build_bst(ctx, BstKind::Splay, pairs)
}

fn build_scapegoat(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    build_bst(ctx, BstKind::Scapegoat, pairs)
}

fn build_hash_map(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    Ok(Box::new(HashMapDs::build(
        ctx,
        CATALOG_HASH_BUCKETS,
        pairs,
    )?))
}

fn build_hash_set(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    Ok(Box::new(HashSetDs::build(
        ctx,
        CATALOG_HASH_BUCKETS,
        &keys,
    )?))
}

fn build_bimap(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    Ok(Box::new(BimapDs::build(ctx, CATALOG_HASH_BUCKETS, pairs)?))
}

fn build_google_btree(
    ctx: &mut BuildCtx<'_>,
    pairs: &[(u64, u64)],
) -> Result<Box<dyn Traversal>, DsError> {
    Ok(Box::new(GoogleBTree::build(ctx, pairs)?))
}

/// The thirteen ported structures (Table 1), in the paper's order.
pub fn catalog() -> Vec<PortedStructure> {
    vec![
        PortedStructure {
            name: "std::list",
            library: Library::Stl,
            category: Category::List,
            base_function: "std::find(start, end, value)",
            spec: LinkedList::find_spec,
            build: build_list_doubly,
        },
        PortedStructure {
            name: "std::forward_list",
            library: Library::Stl,
            category: Category::List,
            base_function: "std::find(start, end, value)",
            spec: LinkedList::find_spec,
            build: build_list_singly,
        },
        PortedStructure {
            name: "std::map",
            library: Library::Stl,
            category: Category::Tree,
            base_function: "_M_lower_bound(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_red_black,
        },
        PortedStructure {
            name: "std::multimap",
            library: Library::Stl,
            category: Category::Tree,
            base_function: "_M_lower_bound(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_red_black,
        },
        PortedStructure {
            name: "std::set",
            library: Library::Stl,
            category: Category::Tree,
            base_function: "_M_lower_bound(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_red_black,
        },
        PortedStructure {
            name: "std::multiset",
            library: Library::Stl,
            category: Category::Tree,
            base_function: "_M_lower_bound(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_red_black,
        },
        PortedStructure {
            name: "boost::bimap",
            library: Library::Boost,
            category: Category::List,
            base_function: "find(key, hash)",
            spec: HashMapDs::find_spec,
            build: build_bimap,
        },
        PortedStructure {
            name: "boost::unordered_map",
            library: Library::Boost,
            category: Category::List,
            base_function: "find(key, hash)",
            spec: HashMapDs::find_spec,
            build: build_hash_map,
        },
        PortedStructure {
            name: "boost::unordered_set",
            library: Library::Boost,
            category: Category::List,
            base_function: "find(key, hash)",
            spec: HashMapDs::find_spec,
            build: build_hash_set,
        },
        PortedStructure {
            name: "boost::avl_set",
            library: Library::Boost,
            category: Category::Tree,
            base_function: "lower_bound_loop(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_avl,
        },
        PortedStructure {
            name: "boost::splay_set",
            library: Library::Boost,
            category: Category::Tree,
            base_function: "lower_bound_loop(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_splay,
        },
        PortedStructure {
            name: "boost::sg_set (scapegoat)",
            library: Library::Boost,
            category: Category::Tree,
            base_function: "lower_bound_loop(x, y, key)",
            spec: SearchTree::lower_bound_spec,
            build: build_scapegoat,
        },
        PortedStructure {
            name: "google::btree",
            library: Library::Google,
            category: Category::Tree,
            base_function: "internal_locate_plain_compare(key, iter)",
            spec: GoogleBTree::locate_spec,
            build: build_google_btree,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::{DispatchEngine, OffloadDecision};
    use pulse_mem::{ClusterAllocator, ClusterMemory, Placement};

    #[test]
    fn exactly_thirteen_structures() {
        assert_eq!(catalog().len(), 13);
    }

    #[test]
    fn every_structure_compiles_and_offloads() {
        let engine = DispatchEngine::default();
        for s in catalog() {
            let spec = (s.spec)();
            let c = engine
                .prepare(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(
                c.decision,
                OffloadDecision::Offload,
                "{} ratio {}",
                s.name,
                c.analysis.ratio()
            );
        }
    }

    #[test]
    fn every_structure_builds_and_plans_through_the_trait() {
        let pairs: Vec<(u64, u64)> = (0..40).map(|k| (k, k * 3 + 1)).collect();
        for s in catalog() {
            let mut mem = ClusterMemory::new(2);
            let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 14);
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let t = (s.build)(&mut ctx, &pairs).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            let stages = t.stages();
            assert!(!stages.is_empty(), "{}", s.name);
            let plans = t.plan(7).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(plans.len(), stages.len(), "{}", s.name);
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn wire_len_is_exact_for_the_whole_catalog() {
        // The cached arithmetic wire length must equal a real encoding pass
        // for every compiled program in the catalog, plus the staged scans'
        // second-stage programs (the widest operand mix in the workspace).
        use crate::{BtrdbTree, WiredTigerTree};
        use pulse_isa::encode_program;
        let mut specs: Vec<(String, pulse_dispatch::IterSpec)> = catalog()
            .iter()
            .map(|s| (s.name.to_string(), (s.spec)()))
            .collect();
        specs.push(("wiredtiger::scan".into(), WiredTigerTree::scan_spec()));
        specs.push(("btrdb::aggregate".into(), BtrdbTree::aggregate_spec()));
        for (name, spec) in specs {
            let p = pulse_dispatch::compile(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.wire_len(), encode_program(&p).len(), "{name}");
        }
    }

    #[test]
    fn plan_into_reuses_buffer_and_matches_plan() {
        // One buffer across every structure and key: plan_into must leave
        // exactly what a fresh plan() returns, clearing stale contents.
        let pairs: Vec<(u64, u64)> = (0..40).map(|k| (k, k * 3 + 1)).collect();
        let mut buf = Vec::new();
        for s in catalog() {
            let mut mem = ClusterMemory::new(2);
            let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 14);
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let t = (s.build)(&mut ctx, &pairs).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            for key in [1, 7, 23] {
                t.plan_into(key, &mut buf)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.name));
                let fresh = t.plan(key).unwrap();
                assert_eq!(buf.len(), fresh.len(), "{}", s.name);
                for (a, b) in buf.iter().zip(&fresh) {
                    assert_eq!(a.start, b.start, "{}", s.name);
                    assert_eq!(a.scratch, b.scratch, "{}", s.name);
                }
            }
        }
    }

    #[test]
    fn shared_base_functions_share_programs() {
        // Table 5's point: same internal function => same compiled code.
        let cat = catalog();
        let by_base = |base: &str| -> Vec<String> {
            cat.iter()
                .filter(|s| s.base_function == base)
                .map(|s| {
                    let p = pulse_dispatch::compile(&(s.spec)()).unwrap();
                    p.disassemble()
                        .lines()
                        .skip(1) // drop the name banner
                        .collect::<Vec<_>>()
                        .join("\n")
                })
                .collect()
        };
        for base in [
            "std::find(start, end, value)",
            "_M_lower_bound(x, y, key)",
            "find(key, hash)",
            "lower_bound_loop(x, y, key)",
        ] {
            let progs = by_base(base);
            assert!(progs.len() >= 2, "{base} shared by several structures");
            assert!(
                progs.windows(2).all(|w| w[0] == w[1]),
                "{base} compiles identically for all users"
            );
        }
    }

    #[test]
    fn library_counts_match_table1() {
        let cat = catalog();
        let stl = cat.iter().filter(|s| s.library == Library::Stl).count();
        let boost = cat.iter().filter(|s| s.library == Library::Boost).count();
        let google = cat.iter().filter(|s| s.library == Library::Google).count();
        assert_eq!((stl, boost, google), (6, 6, 1));
    }
}
