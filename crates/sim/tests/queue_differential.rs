//! Differential test of `EventQueue` against a reference model: a `Vec`
//! kept sorted by `(time, sequence)`, whose head is the next event.
//!
//! SplitMix64 case loops drive random `push` / `push_arrival` / `pop` /
//! `clear` sequences through both and demand the same pop sequence, with
//! `len`, `is_empty` and `peek_time` agreeing after every operation. The
//! loops count the cases the queue's hold model and arrival lane must get
//! right, and fail if any of them never came up.

use pulse_sim::{EventQueue, SimTime, SplitMix64};

/// The reference: every pending event, sorted by `(at, seq)`.
#[derive(Default)]
struct Reference {
    pending: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, at: SimTime, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = self
            .pending
            .partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.pending.insert(i, (at, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        (!self.pending.is_empty()).then(|| {
            let (at, _, payload) = self.pending.remove(0);
            (at, payload)
        })
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.next_seq = 0;
    }

    fn has_time(&self, at: SimTime) -> bool {
        self.pending.iter().any(|&(t, _, _)| t == at)
    }
}

/// How often each case the queue must handle came up.
#[derive(Debug, Default)]
struct Coverage {
    /// A push due at the same picosecond as an event already pending.
    ties: u64,
    /// A `push_arrival` earlier than the lane's tail (heap fallback).
    fallbacks: u64,
    /// A pop with no push since the previous pop.
    pop_after_pop: u64,
    /// A push that directly follows a pop (the hold model's replace path).
    push_after_pop: u64,
    /// A push after `clear()` with nothing popped in between.
    push_after_clear: u64,
}

fn check(q: &EventQueue<u64>, r: &Reference, case: u64, op: usize) {
    assert_eq!(q.len(), r.pending.len(), "case {case} op {op}: len");
    assert_eq!(q.is_empty(), r.pending.is_empty(), "case {case} op {op}");
    assert_eq!(
        q.peek_time(),
        r.pending.first().map(|p| p.0),
        "case {case} op {op}: peek_time"
    );
}

#[test]
fn event_queue_pops_like_a_sorted_reference() {
    let mut rng = SplitMix64::new(0x0e7e_47a5_0b1d);
    let mut seen = Coverage::default();
    // One queue reused across cases, as a cluster reuses its driver: a
    // `clear()` starts each case, and more land mid-case.
    let mut q: EventQueue<u64> = EventQueue::with_capacity(16);
    for case in 0..400u64 {
        let mut r = Reference::default();
        q.clear();
        // Per case: how many distinct picoseconds pushes draw from (few
        // make same-instant ties dense), and how the ops are weighted
        // (deep heaps in some cases, a pop after nearly every push in
        // others).
        let times = 1 + rng.next_below(if case.is_multiple_of(2) { 4 } else { 64 });
        let pop_weight = 2 + rng.next_below(6);
        let mut cursor = 0u64;
        let mut lane_tail: Option<u64> = None;
        let (mut last_was_pop, mut since_clear) = (false, true);
        for op in 0..(1 + rng.next_below(200)) as usize {
            let payload = op as u64;
            let roll = rng.next_below(16);
            if roll < pop_weight {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(a, b, "case {case} op {op}: pop");
                seen.pop_after_pop += u64::from(last_was_pop && a.is_some());
                last_was_pop = true;
                since_clear = false;
            } else if roll == 15 && rng.next_below(8) == 0 {
                q.clear();
                r.clear();
                cursor = 0;
                lane_tail = None;
                (last_was_pop, since_clear) = (false, true);
            } else {
                let arrival = roll.is_multiple_of(2);
                let t = if arrival {
                    // Arrivals drift forward with occasional steps back,
                    // like an open-loop stream merged with late
                    // resubmissions.
                    cursor = match rng.next_below(4) {
                        0 => cursor.saturating_sub(rng.next_below(3)),
                        _ => cursor + rng.next_below(2),
                    };
                    cursor
                } else {
                    rng.next_below(times)
                };
                let at = SimTime::from_picos(t);
                seen.ties += u64::from(r.has_time(at));
                seen.push_after_pop += u64::from(last_was_pop);
                seen.push_after_clear += u64::from(since_clear);
                if arrival {
                    seen.fallbacks += u64::from(lane_tail.is_some_and(|tail| t < tail));
                    if lane_tail.is_none_or(|tail| t >= tail) {
                        lane_tail = Some(t);
                    }
                    q.push_arrival(at, payload);
                } else {
                    q.push(at, payload);
                }
                r.push(at, payload);
                (last_was_pop, since_clear) = (false, false);
            }
            check(&q, &r, case, op);
        }
        // Drain: a run of pops with no push in between.
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "case {case}: drain");
            check(&q, &r, case, usize::MAX);
            if a.is_none() {
                break;
            }
        }
    }
    assert!(
        seen.ties > 100
            && seen.fallbacks > 100
            && seen.pop_after_pop > 100
            && seen.push_after_pop > 100
            && seen.push_after_clear > 100,
        "a case went untested: {seen:?}"
    );
}

#[test]
fn hold_model_pop_push_keeps_a_deep_heap_in_order() {
    // The discrete-event steady state: a heap hundreds deep where every pop
    // schedules one follow-up a random gap later, with every follow-up's
    // due time drawn from a coarse grid so ties stay common.
    let mut rng = SplitMix64::new(0x401d);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut r = Reference::default();
    for i in 0..300 {
        let at = SimTime::from_picos(rng.next_below(50) * 1_000);
        q.push(at, i);
        r.push(at, i);
    }
    for op in 0..20_000usize {
        let popped = q.pop();
        assert_eq!(popped, r.pop(), "op {op}: pop");
        let (now, _) = popped.expect("the hold model keeps the queue full");
        let at = now + SimTime::from_picos(rng.next_below(50) * 1_000);
        q.push(at, 300 + op as u64);
        r.push(at, 300 + op as u64);
        check(&q, &r, 0, op);
    }
}
