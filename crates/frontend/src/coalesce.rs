//! Shared-prefix request coalescing (ISA v2).
//!
//! Pointer-chasing workloads are heavily skewed: under load, a CPU node's
//! issue queue routinely holds several requests about to walk the *same*
//! structure from the *same* entry pointer with the *same* arguments — hot
//! zipfian keys in the paper's WebService workload. Offloading each one
//! separately pays the full wire + accelerator walk per request even
//! though every hop of the walk is identical.
//!
//! [`PrefixCoalescer`] lets the front end detect this at issue time: the
//! first request with a given plan becomes the **leader** and offloads
//! normally; later requests whose plan is *identical* — same compiled
//! [`Program`] (by `Arc` identity), same starting `cur_ptr`, same
//! scratchpad arguments — become **riders**. A rider sends nothing; it
//! parks until the leader's response lands at the node, then fans back
//! out with a clone of the returned state, each rider advancing its own
//! request (divergence — later stages, object I/O, retries — is handled
//! per request from there).
//!
//! Identical-plan matching is deliberately conservative: two requests
//! whose walks would merely *share a prefix* before diverging do not
//! match. That keeps the fan-out point trivially correct (the whole stage
//! is shared) at the cost of missing partial-prefix opportunities.
//!
//! Riders observe the leader's snapshot of memory, which may be older
//! than their own issue time — the same staleness window every
//! single-flight/request-coalescing layer accepts. The engine therefore
//! keeps coalescing **off by default** (golden traces are bit-identical)
//! and integrations are expected to detach riders — [`close`] returns
//! them — whenever the leader's flight ends abnormally (fault, crash
//! notice, unavailability), re-issuing each rider individually.
//!
//! [`close`]: PrefixCoalescer::close

use pulse_isa::{IterState, Program};
use pulse_net::RequestId;
use std::collections::HashMap;
use std::sync::Arc;

/// Riders one leader may carry. When a group is full, the next identical
/// request starts a fresh group (becoming its leader) instead of riding.
pub(crate) const MAX_RIDERS: usize = 8;

/// The identity of one traversal-stage plan: compiled program (by `Arc`
/// pointer — structures share one compiled program per stage), entry
/// pointer, and scratchpad arguments as materialized at issue time (after
/// any local cache prefix walk, so two requests only match if they would
/// offload the exact same continuation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    program: usize,
    cur_ptr: u64,
    scratch: Vec<u8>,
}

impl PlanKey {
    fn of(program: &Arc<Program>, state: &IterState) -> PlanKey {
        PlanKey {
            program: Arc::as_ptr(program) as usize,
            cur_ptr: state.cur_ptr,
            scratch: state.scratch.clone(),
        }
    }
}

/// What [`PrefixCoalescer::register`] decided for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// First (or group-rotating) request with this plan: offload normally.
    Leader,
    /// Identical to `leader`'s open offload: send nothing, fan out when
    /// the leader's response lands.
    Rider {
        /// The request whose in-flight offload this rider shares.
        leader: RequestId,
    },
}

/// Counters for one coalescer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Offloads that left the node carrying at least their own request.
    pub leaders: u64,
    /// Requests that rode another request's offload instead of sending.
    pub riders: u64,
}

/// Per-CPU-node shared-prefix coalescer. See the module docs for the
/// model; the owning engine drives it with [`register`] at issue time and
/// [`close`] when a leader's flight ends (normally or not).
///
/// [`register`]: PrefixCoalescer::register
/// [`close`]: PrefixCoalescer::close
#[derive(Debug, Default)]
pub struct PrefixCoalescer {
    /// Plan -> the leader currently accepting riders for it.
    open: HashMap<PlanKey, RequestId>,
    /// Leader -> (its plan, its riders so far).
    groups: HashMap<RequestId, (PlanKey, Vec<RequestId>)>,
    stats: CoalesceStats,
}

impl PrefixCoalescer {
    /// Counters so far.
    pub fn stats(&self) -> CoalesceStats {
        self.stats
    }

    /// Decides the role of a request about to offload `program` from
    /// `state`. A [`Role::Leader`] must actually send its packet and
    /// eventually [`close`](Self::close) itself; a [`Role::Rider`] must
    /// not send anything.
    pub fn register(&mut self, id: RequestId, program: &Arc<Program>, state: &IterState) -> Role {
        let key = PlanKey::of(program, state);
        if let Some(&leader) = self.open.get(&key) {
            let riders = &mut self.groups.get_mut(&leader).expect("open implies group").1;
            if riders.len() < MAX_RIDERS {
                riders.push(id);
                self.stats.riders += 1;
                return Role::Rider { leader };
            }
            // Group full: this request leads a fresh group and takes over
            // the open slot; the old leader keeps its riders and closes
            // itself when its own flight lands.
        }
        self.open.insert(key.clone(), id);
        self.groups.insert(id, (key, Vec::new()));
        self.stats.leaders += 1;
        Role::Leader
    }

    /// Ends `leader`'s flight, returning the riders that were attached to
    /// it (empty when it carried none, or when `leader` never led —
    /// callers may close unconditionally). On a normal completion the
    /// caller fans the returned riders out with the response; on an
    /// abnormal end (fault, crash, unavailability) it re-issues each one
    /// individually.
    pub fn close(&mut self, leader: RequestId) -> Vec<RequestId> {
        match self.groups.remove(&leader) {
            Some((key, riders)) => {
                // A full group may have rotated the open slot to a newer
                // leader; only clear it if it is still ours.
                if self.open.get(&key) == Some(&leader) {
                    self.open.remove(&key);
                }
                riders
            }
            None => Vec::new(),
        }
    }

    /// Open leader groups (diagnostics).
    pub fn open_groups(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_isa::{Operand, ProgramBuilder};

    fn rid(seq: u64) -> RequestId {
        RequestId { cpu: 0, seq }
    }

    fn program() -> Arc<Program> {
        let mut b = ProgramBuilder::new("walk", 24, 16);
        b.next_iter(Operand::node_u64(16));
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn identical_plans_ride_one_offload() {
        let prog = program();
        let mut c = PrefixCoalescer::default();
        let mut st = IterState::new(&prog, 0x1000);
        st.set_scratch_u64(0, 7);
        assert_eq!(c.register(rid(1), &prog, &st), Role::Leader);
        assert_eq!(
            c.register(rid(2), &prog, &st),
            Role::Rider { leader: rid(1) }
        );
        assert_eq!(
            c.register(rid(3), &prog, &st),
            Role::Rider { leader: rid(1) }
        );
        assert_eq!(c.close(rid(1)), vec![rid(2), rid(3)]);
        assert_eq!(c.open_groups(), 0);
        assert_eq!(
            c.stats(),
            CoalesceStats {
                leaders: 1,
                riders: 2
            }
        );
        // The group is gone: the next identical request leads again.
        assert_eq!(c.register(rid(4), &prog, &st), Role::Leader);
    }

    #[test]
    fn different_args_or_entry_do_not_match() {
        let prog = program();
        let mut c = PrefixCoalescer::default();
        let mut a = IterState::new(&prog, 0x1000);
        a.set_scratch_u64(0, 7);
        assert_eq!(c.register(rid(1), &prog, &a), Role::Leader);
        // Different search key.
        let mut b = IterState::new(&prog, 0x1000);
        b.set_scratch_u64(0, 8);
        assert_eq!(c.register(rid(2), &prog, &b), Role::Leader);
        // Different entry pointer.
        let mut d = IterState::new(&prog, 0x2000);
        d.set_scratch_u64(0, 7);
        assert_eq!(c.register(rid(3), &prog, &d), Role::Leader);
        // Different compiled program (even if structurally equal).
        let other = program();
        let mut e = IterState::new(&other, 0x1000);
        e.set_scratch_u64(0, 7);
        assert_eq!(
            c.register(rid(4), &prog, &a),
            Role::Rider { leader: rid(1) }
        );
        assert_eq!(c.register(rid(5), &other, &e), Role::Leader);
    }

    #[test]
    fn full_group_rotates_leadership() {
        let prog = program();
        let mut c = PrefixCoalescer::default();
        let st = IterState::new(&prog, 0x1000);
        let first_riders: Vec<RequestId> = (2..2 + MAX_RIDERS as u64).map(rid).collect();
        assert_eq!(c.register(rid(1), &prog, &st), Role::Leader);
        for &r in &first_riders {
            assert_eq!(c.register(r, &prog, &st), Role::Rider { leader: rid(1) });
        }
        // Group full: the next identical request opens a new group.
        let second = rid(100);
        let second_riders: Vec<RequestId> = (101..101 + MAX_RIDERS as u64).map(rid).collect();
        assert_eq!(c.register(second, &prog, &st), Role::Leader);
        for &r in &second_riders {
            assert_eq!(c.register(r, &prog, &st), Role::Rider { leader: second });
        }
        // Closing the old leader must not disturb the new open group.
        assert_eq!(c.close(rid(1)), first_riders);
        // The rotated group is itself full, so the next identical request
        // rotates leadership once more.
        assert_eq!(c.register(rid(200), &prog, &st), Role::Leader);
        assert_eq!(c.close(second), second_riders);
        assert!(c.close(rid(200)).is_empty());
        // Closing a non-leader is a harmless no-op.
        assert!(c.close(rid(2)).is_empty());
    }
}
