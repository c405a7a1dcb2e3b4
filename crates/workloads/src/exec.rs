//! Functional request execution with access tracing.
//!
//! Runs an [`AppRequest`] against the rack's global memory view, iteration
//! by iteration, recording every memory access and every memory-node
//! boundary crossing. Three consumers share it: tests (ground truth), the
//! swap-cache baseline (which runs each request through it on the rack,
//! then walks the access trace page by page against its page cache), and
//! the Fig. 2(b)/(c) distributed-traversal analysis.

use crate::request::{AddrSource, AppRequest, AppResponse, RequestError};
use pulse_isa::{Fault, Interpreter, IterOutcome, IterState};
use pulse_mem::ClusterMemory;
use std::fmt;

/// Why a functional execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The request's stage wiring is malformed (see [`RequestError`]).
    Request(RequestError),
    /// The interpreter faulted mid-traversal (broken structure or wild
    /// pointer — the global view never sees `NotMapped` for valid ones).
    Fault(Fault),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Request(e) => write!(f, "malformed request: {e}"),
            ExecError::Fault(e) => write!(f, "traversal fault: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Request(e) => Some(e),
            ExecError::Fault(e) => Some(e),
        }
    }
}

impl From<RequestError> for ExecError {
    fn from(e: RequestError) -> Self {
        ExecError::Request(e)
    }
}

impl From<Fault> for ExecError {
    fn from(e: Fault) -> Self {
        ExecError::Fault(e)
    }
}

/// One recorded memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual address.
    pub addr: u64,
    /// Bytes touched.
    pub len: u32,
    /// Write access.
    pub write: bool,
    /// Whether this access is part of a pointer traversal (vs bulk object
    /// I/O) — the classification behind Fig. 2(a)'s time split.
    pub traversal: bool,
    /// Instructions the iteration that issued this access executed (0 for
    /// object I/O); lets the swap baseline charge compute faithfully.
    pub insns: u32,
}

/// The result of a functional run.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Response summary.
    pub response: AppResponse,
    /// Ordered access trace.
    pub accesses: Vec<Access>,
}

/// The iteration budget per stage of a functional run
/// ([`execute_functional`]): the run has no offload boundary, so the
/// budget only guards against cycles.
pub const FUNCTIONAL_ITERS: u32 = 1 << 20;

/// Executes `req` functionally over global memory on `interp`, which a
/// caller running many requests keeps and hands in each time (a new
/// [`Interpreter`] allocates and zeroes its frame).
///
/// # Errors
///
/// [`ExecError::Request`] on malformed stage wiring, [`ExecError::Fault`]
/// on interpreter faults (which indicate a broken structure — the global
/// view never sees `NotMapped` for valid pointers).
pub fn execute_functional(
    interp: &mut Interpreter,
    mem: &mut ClusterMemory,
    req: &AppRequest,
    max_iters_per_stage: u32,
) -> Result<FunctionalRun, ExecError> {
    let mut accesses = Vec::new();
    let mut iterations = 0u64;
    let mut crossings = 0u64;
    let mut prev_state: Option<IterState> = None;
    let mut prev_owner: Option<usize> = None;

    for stage in &req.traversals {
        let mut state = stage.init_state(prev_state.as_ref())?;
        let window = stage.program.window();
        loop {
            let addr = state.cur_ptr.wrapping_add(window.off as i64 as u64);
            let owner = mem.owner_of(addr);
            if let (Some(prev), Some(cur)) = (prev_owner, owner) {
                if prev != cur {
                    crossings += 1;
                }
            }
            prev_owner = owner.or(prev_owner);
            let trace = interp.run_iteration(&stage.program, &mut state, mem)?;
            accesses.push(Access {
                addr,
                len: window.len,
                write: false,
                traversal: true,
                insns: trace.insns_executed,
            });
            if trace.stores > 0 {
                // Write trips the iteration made beyond the window fetch
                // (`STORE`s plus the write leg of every `CAS`). Recording
                // them keeps the swap baseline on the same write model as
                // the rack: its page cache touches the written page. The trip
                // count and byte volume are exact (`store_bytes` sums each
                // store's access width); the *address* is the iteration's
                // node — an approximation for stores aimed at a different
                // allocation (the seqlock release writes the bucket
                // sentinel from a chain node), tolerable because
                // mutation-aware layouts co-locate each bucket's chain on
                // one node.
                accesses.push(Access {
                    addr,
                    len: trace.store_bytes,
                    write: true,
                    traversal: true,
                    insns: 0,
                });
            }
            iterations += 1;
            match trace.outcome {
                IterOutcome::Done { .. } => break,
                IterOutcome::Continue => {
                    if state.iters_done >= max_iters_per_stage {
                        // Functional execution has no offload boundary;
                        // the budget only guards against cycles.
                        break;
                    }
                }
            }
        }
        prev_state = Some(state);
    }

    if let Some(io) = req.object_io {
        let addr = match io.addr {
            AddrSource::Fixed(a) => a,
            AddrSource::FromScratch(off) => prev_state
                .as_ref()
                .ok_or(RequestError::DanglingObjectAddress)?
                .scratch_u64(off as usize),
        };
        accesses.push(Access {
            addr,
            len: io.len,
            write: io.write,
            traversal: false,
            insns: 0,
        });
    }

    Ok(FunctionalRun {
        response: AppResponse {
            final_state: prev_state,
            iterations,
            node_crossings: crossings,
        },
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ObjectIo, StartPtr, TraversalStage};
    use pulse_dispatch::compile;
    use pulse_ds::{BuildCtx, HashMapDs};
    use pulse_mem::{ClusterAllocator, Placement};
    use std::sync::Arc;

    fn setup() -> (ClusterMemory, HashMapDs, Arc<pulse_isa::Program>) {
        let mut mem = ClusterMemory::new(4);
        // Tiny extents force cross-node chains.
        let mut alloc = ClusterAllocator::new(Placement::Striped, 64);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let pairs: Vec<(u64, u64)> = (0..64).map(|k| (k, 0x9000 + k)).collect();
        let map = HashMapDs::build(&mut ctx, 2, &pairs).unwrap();
        let prog = Arc::new(compile(&HashMapDs::find_spec()).unwrap());
        (mem, map, prog)
    }

    #[test]
    fn trace_counts_iterations_and_crossings() {
        let (mut mem, map, prog) = setup();
        let req = AppRequest::traversal_only(TraversalStage {
            program: prog,
            start: StartPtr::Fixed(map.bucket_addr(50)),
            scratch_init: vec![(0, 50)],
        });
        let run = execute_functional(&mut Interpreter::new(), &mut mem, &req, 4096).unwrap();
        assert!(run.response.iterations >= 2);
        assert_eq!(run.accesses.len() as u64, run.response.iterations);
        // 64-byte extents over 4 nodes with 24-byte nodes: long chains must
        // cross nodes.
        assert!(
            run.response.node_crossings > 0,
            "expected crossings on striped tiny extents"
        );
        // Result correct.
        let st = run.response.final_state.unwrap();
        assert_eq!(st.scratch_u64(8), 0x9000 + 50);
    }

    #[test]
    fn object_io_appends_non_traversal_access() {
        let (mut mem, map, prog) = setup();
        let mut req = AppRequest::traversal_only(TraversalStage {
            program: prog,
            start: StartPtr::Fixed(map.bucket_addr(3)),
            scratch_init: vec![(0, 3)],
        });
        req.object_io = Some(ObjectIo {
            addr: AddrSource::FromScratch(8),
            len: 8192,
            write: false,
        });
        let run = execute_functional(&mut Interpreter::new(), &mut mem, &req, 4096).unwrap();
        let last = run.accesses.last().unwrap();
        assert!(!last.traversal);
        assert_eq!(last.len, 8192);
        assert_eq!(last.addr, 0x9000 + 3); // the hash value is the "object"
        let traversal_count = run.accesses.iter().filter(|a| a.traversal).count();
        assert_eq!(traversal_count as u64, run.response.iterations);
    }

    #[test]
    fn single_node_memory_never_crosses() {
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
        let pairs: Vec<(u64, u64)> = (0..64).map(|k| (k, k)).collect();
        let map = HashMapDs::build(&mut ctx, 2, &pairs).unwrap();
        let prog = Arc::new(compile(&HashMapDs::find_spec()).unwrap());
        let req = AppRequest::traversal_only(TraversalStage {
            program: prog,
            start: StartPtr::Fixed(map.bucket_addr(63)),
            scratch_init: vec![(0, 63)],
        });
        let run = execute_functional(&mut Interpreter::new(), &mut mem, &req, 4096).unwrap();
        assert_eq!(run.response.node_crossings, 0);
    }
}
