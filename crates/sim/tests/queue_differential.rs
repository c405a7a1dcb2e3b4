//! Differential test of `EventQueue` against a reference model: a `Vec`
//! kept sorted by `(time, sequence)`, whose head is the next event.
//!
//! SplitMix64 case loops drive random `push` / `push_arrival` / `pop` /
//! `clear` sequences through both and demand the same pop sequence, with
//! `len`, `is_empty` and `peek_time` agreeing after every operation. The
//! loops count the cases the queue's hold model and arrival lane must get
//! right, and fail if any of them never came up.
//!
//! A wheel leg schedules at the rack's scale — pipeline delays of tens to
//! hundreds of nanoseconds after the last pop — and keeps a shadow of the
//! timing wheel's rule (which bucket a push lands in, and whether the
//! wheel or the heap takes it) to count the wheel's own cases: ties in one
//! bucket, full buckets, pushes past the horizon and behind the cursor,
//! schedules over several turns, and `clear()` with events on the wheel.
//!
//! Two more legs run the same reference against what the event loop really
//! moves: a 32-byte payload with drop glue, shaped like the rack's event
//! type, which must be dropped exactly once whether `pop`, `clear` or the
//! queue's own drop releases it; and a [`Driver`], whose clock must follow
//! every `next_event` and which must refuse an event in the past.

use pulse_sim::{Driver, EventQueue, SimTime, SplitMix64};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

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
    /// A `push_arrival` earlier than the lane's tail (wheel or heap
    /// fallback).
    fallbacks: u64,
    /// A pop with no push since the previous pop.
    pop_after_pop: u64,
    /// A push that directly follows a pop (the hold model's replace path).
    push_after_pop: u64,
    /// A push after `clear()` with nothing popped in between.
    push_after_clear: u64,
}

fn check<E>(q: &EventQueue<E>, r: &Reference, case: u64, op: usize) {
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

/// Logs its id when dropped, so a test can see every drop.
#[derive(Debug)]
struct Counted {
    id: u64,
    dropped: Rc<RefCell<Vec<u64>>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.dropped.borrow_mut().push(self.id);
    }
}

/// A payload shaped like the rack's event type: 32 bytes with a tag, one
/// variant as wide as the type, one a bare handle, and one with drop glue.
#[derive(Debug)]
enum Payload {
    Handle(u32),
    Wide(u64, u64, u64),
    Counted(u64, Counted),
}

const _: () = assert!(std::mem::size_of::<Payload>() == 32);

impl Payload {
    /// The reference's stand-in for the payload: its id, which every
    /// variant carries in full.
    fn id(&self) -> u64 {
        match *self {
            Payload::Handle(id) => u64::from(id),
            Payload::Wide(id, a, b) => {
                assert_eq!((a, b), (!id, id.rotate_left(17)), "wide payload torn");
                id
            }
            Payload::Counted(id, ref c) => {
                assert_eq!(id, c.id, "counted payload torn");
                id
            }
        }
    }
}

/// Every id in `dropped` must be one of `counted` and appear there once,
/// and exactly the ids in `live` must not have been dropped yet.
fn check_drops(dropped: &RefCell<Vec<u64>>, counted: &HashSet<u64>, live: &HashSet<u64>, at: &str) {
    let dropped = dropped.borrow();
    let once: HashSet<u64> = dropped.iter().copied().collect();
    assert_eq!(
        once.len(),
        dropped.len(),
        "{at}: a payload was dropped twice"
    );
    assert!(
        once.is_subset(counted),
        "{at}: an earlier case's payload was dropped again"
    );
    for id in counted {
        assert_eq!(
            once.contains(id),
            !live.contains(id),
            "{at}: payload {id} is {} but {}",
            if live.contains(id) { "pending" } else { "gone" },
            if once.contains(id) {
                "was dropped"
            } else {
                "was never dropped"
            },
        );
    }
}

#[test]
fn payloads_with_drop_glue_drop_exactly_once() {
    let mut rng = SplitMix64::new(0xd209_91ee);
    let dropped = Rc::new(RefCell::new(Vec::new()));
    // Ids of the case's `Counted` payloads, and of those still queued.
    let mut counted = HashSet::new();
    let mut live = HashSet::new();
    let (mut next_id, mut total) = (0u64, 0usize);
    let (mut pops, mut clears, mut queue_drops) = (0u64, 0u64, 0u64);
    for case in 0..300u64 {
        // A fresh queue per case, cleared now and then mid-case; three
        // cases in four end with a `clear()`, every fourth by dropping the
        // queue with its events still in it.
        let mut q: EventQueue<Payload> = EventQueue::with_capacity(8);
        let mut r = Reference::default();
        let times = 1 + rng.next_below(16);
        for op in 0..rng.next_below(120) as usize {
            let roll = rng.next_below(16);
            if roll < 5 {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(
                    a.as_ref().map(|(t, p)| (*t, p.id())),
                    b,
                    "case {case} op {op}"
                );
                if let Some((_, Payload::Counted(id, _))) = &a {
                    live.remove(id);
                }
                drop(a);
                pops += 1;
            } else if roll == 15 && rng.next_below(4) == 0 {
                q.clear();
                r.clear();
                live.clear();
                clears += 1;
            } else {
                let id = next_id;
                next_id += 1;
                let payload = match rng.next_below(3) {
                    0 => Payload::Handle(id as u32),
                    1 => Payload::Wide(id, !id, id.rotate_left(17)),
                    _ => {
                        counted.insert(id);
                        live.insert(id);
                        let c = Counted {
                            id,
                            dropped: Rc::clone(&dropped),
                        };
                        Payload::Counted(id, c)
                    }
                };
                let at = SimTime::from_picos(rng.next_below(times));
                if roll.is_multiple_of(2) {
                    q.push_arrival(at, payload);
                } else {
                    q.push(at, payload);
                }
                r.push(at, id);
            }
            assert_eq!(q.len(), r.pending.len(), "case {case} op {op}: len");
            check_drops(&dropped, &counted, &live, &format!("case {case} op {op}"));
        }
        if case % 4 == 3 {
            queue_drops += u64::from(!q.is_empty());
            drop(q);
        } else {
            q.clear();
            clears += 1;
        }
        live.clear();
        check_drops(&dropped, &counted, &live, &format!("case {case} end"));
        total += counted.len();
        counted.clear();
        dropped.borrow_mut().clear();
    }
    assert!(
        total > 1000 && pops > 1000 && clears > 100 && queue_drops > 20,
        "a case went untested: {total} counted, {pops} pops, {clears} clears, {queue_drops} drops"
    );
}

/// Buckets on the queue's timing wheel, and a bucket's width in
/// picoseconds (the shadow's copy of the queue's constants).
const WHEEL_BUCKETS: u64 = 512;
const BUCKET_PS: u64 = 4096;

/// The timing wheel's placement rule, replayed beside the queue: which
/// pending events sit on the wheel, in which bucket, and where the cursor
/// is.
#[derive(Default)]
struct WheelShadow {
    cursor: u64,
    /// Due times of the wheel's events per absolute bucket.
    buckets: HashMap<u64, Vec<u64>>,
    /// Ids of the events on the wheel.
    on_wheel: HashSet<u64>,
}

/// How often each case the wheel must handle came up.
#[derive(Debug, Default)]
struct WheelCoverage {
    /// A push into a bucket that already held an event...
    bucket_ties: u64,
    /// ...due at the same picosecond.
    same_picosecond: u64,
    /// A push into a full bucket: the heap takes it.
    spills: u64,
    /// A push past the wheel's horizon.
    past_horizon: u64,
    /// A push earlier than the cursor's bucket.
    before_cursor: u64,
    /// A push onto the wheel at a bucket index below the cursor's: the
    /// wheel has turned.
    wrapped: u64,
    /// Cases whose pops ran over more than one turn of the wheel.
    multi_turn_cases: u64,
    /// A `clear()` with events on the wheel.
    clears_with_wheel_events: u64,
}

impl WheelShadow {
    fn push(&mut self, at: u64, id: u64, seen: &mut WheelCoverage) {
        let b = at / BUCKET_PS;
        if b < self.cursor {
            seen.before_cursor += 1;
            return;
        }
        if b - self.cursor >= WHEEL_BUCKETS {
            seen.past_horizon += 1;
            return;
        }
        let bucket = self.buckets.entry(b).or_default();
        match bucket.as_slice() {
            [] => {}
            [first] => {
                seen.bucket_ties += 1;
                seen.same_picosecond += u64::from(*first == at);
            }
            _ => {
                seen.spills += 1;
                return;
            }
        }
        bucket.push(at);
        self.on_wheel.insert(id);
        seen.wrapped += u64::from(b % WHEEL_BUCKETS < self.cursor % WHEEL_BUCKETS);
    }

    fn pop(&mut self, at: u64, id: u64) {
        let b = at / BUCKET_PS;
        if self.on_wheel.remove(&id) {
            let bucket = self.buckets.get_mut(&b).expect("the event's bucket");
            let i = bucket
                .iter()
                .position(|&t| t == at)
                .expect("the event's time");
            bucket.remove(i);
        }
        self.cursor = self.cursor.max(b);
    }
}

#[test]
fn wheel_pops_like_a_sorted_reference() {
    let mut rng = SplitMix64::new(0x3417_ee15);
    let mut seen = WheelCoverage::default();
    let dropped = Rc::new(RefCell::new(Vec::new()));
    let (mut counted, mut live) = (HashSet::new(), HashSet::new());
    let mut next_id = 0u64;
    // One queue reused across cases, so a case starts on a wheel a
    // `clear()` left behind.
    let mut q: EventQueue<Payload> = EventQueue::with_capacity(16);
    for case in 0..300u64 {
        q.clear();
        let mut r = Reference::default();
        let mut shadow = WheelShadow::default();
        live.clear();
        let mut now = 0u64;
        let pop_weight = 4 + rng.next_below(5);
        for op in 0..(1 + rng.next_below(600)) as usize {
            let roll = rng.next_below(16);
            if roll < pop_weight {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(
                    a.as_ref().map(|(t, p)| (*t, p.id())),
                    b,
                    "case {case} op {op}: pop"
                );
                if let Some((at, p)) = a {
                    now = at.as_picos();
                    shadow.pop(now, p.id());
                    if let Payload::Counted(id, _) = p {
                        live.remove(&id);
                    }
                }
            } else if roll == 15 && rng.next_below(16) == 0 {
                seen.clears_with_wheel_events += u64::from(!shadow.on_wheel.is_empty());
                q.clear();
                r.clear();
                shadow = WheelShadow::default();
                live.clear();
                now = 0;
            } else {
                // The rack's common pipeline delays, ties in the bucket of
                // the last pop, a spread over the whole wheel, and now and
                // then a far or an earlier time.
                let at = match rng.next_below(16) {
                    0 | 1 => now,
                    2 | 3 => now + 17_100,
                    4 | 5 => now + 185_060,
                    6 | 7 => now + rng.next_below(BUCKET_PS),
                    8 => now + WHEEL_BUCKETS * BUCKET_PS + rng.next_below(4_000_000),
                    9 => now.saturating_sub(rng.next_below(40_000)),
                    _ => now + rng.next_below(WHEEL_BUCKETS * BUCKET_PS),
                };
                let id = next_id;
                next_id += 1;
                let payload = if rng.next_below(2) == 0 {
                    Payload::Wide(id, !id, id.rotate_left(17))
                } else {
                    counted.insert(id);
                    live.insert(id);
                    let c = Counted {
                        id,
                        dropped: Rc::clone(&dropped),
                    };
                    Payload::Counted(id, c)
                };
                q.push(SimTime::from_picos(at), payload);
                r.push(SimTime::from_picos(at), id);
                shadow.push(at, id, &mut seen);
            }
            check(&q, &r, case, op);
        }
        seen.multi_turn_cases += u64::from(shadow.cursor >= 2 * WHEEL_BUCKETS);
        check_drops(&dropped, &counted, &live, &format!("case {case}"));
        if case % 2 == 0 {
            // Drain: a run of pops with no push in between.
            loop {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(
                    a.as_ref().map(|(t, p)| (*t, p.id())),
                    b,
                    "case {case}: drain"
                );
                check(&q, &r, case, usize::MAX);
                if a.is_none() {
                    break;
                }
            }
        } else {
            seen.clears_with_wheel_events += u64::from(!shadow.on_wheel.is_empty());
            q.clear();
        }
        live.clear();
        check_drops(&dropped, &counted, &live, &format!("case {case} end"));
        counted.clear();
        dropped.borrow_mut().clear();
    }
    let WheelCoverage {
        bucket_ties,
        same_picosecond,
        spills,
        past_horizon,
        before_cursor,
        wrapped,
        multi_turn_cases,
        clears_with_wheel_events,
    } = seen;
    assert!(
        [
            bucket_ties,
            same_picosecond,
            spills,
            past_horizon,
            before_cursor,
            wrapped
        ]
        .iter()
        .all(|&n| n > 100)
            && multi_turn_cases > 20
            && clears_with_wheel_events > 50,
        "a case went untested: {seen:?}"
    );
}

#[test]
fn driver_schedules_like_a_sorted_reference() {
    // The driver's own refusal is the only panic this test provokes; keep
    // its message off the output, and every other panic's on it.
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let past = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("event scheduled in the past"));
        if !past {
            quiet(info);
        }
    }));
    let mut rng = SplitMix64::new(0x00d2_1ee7);
    let (mut refused, mut relative, mut arrivals) = (0u64, 0u64, 0u64);
    for case in 0..200u64 {
        let mut drv: Driver<u64> = Driver::with_capacity(4);
        let mut r = Reference::default();
        let mut now = SimTime::ZERO;
        let mut cursor = 0u64;
        for op in 0..(1 + rng.next_below(150)) {
            let ctx = format!("case {case} op {op}");
            let gap = SimTime::from_picos(rng.next_below(6));
            match rng.next_below(10) {
                0..=3 => {
                    let (a, b) = (drv.next_event(), r.pop());
                    assert_eq!(a, b.map(|(_, p)| p), "{ctx}: next_event");
                    if let Some((at, _)) = b {
                        now = at;
                    }
                    assert_eq!(drv.now(), now, "{ctx}: clock");
                }
                4 | 5 => {
                    drv.schedule_at(now + gap, op);
                    r.push(now + gap, op);
                }
                6 => {
                    drv.schedule_in(gap, op);
                    r.push(now + gap, op);
                    relative += 1;
                }
                7 | 8 => {
                    // An open-loop stream: never before the clock, mostly
                    // in order, now and then behind the lane's tail.
                    cursor = match rng.next_below(4) {
                        0 => cursor.saturating_sub(rng.next_below(4)),
                        _ => cursor + rng.next_below(3),
                    }
                    .max(now.as_picos());
                    let at = SimTime::from_picos(cursor);
                    drv.schedule_arrival(at, op);
                    r.push(at, op);
                    arrivals += 1;
                }
                _ if now > SimTime::ZERO => {
                    let past = SimTime::from_picos(rng.next_below(now.as_picos()));
                    let arrival = rng.next_below(2) == 0;
                    let tried = panic::catch_unwind(AssertUnwindSafe(|| {
                        if arrival {
                            drv.schedule_arrival(past, op)
                        } else {
                            drv.schedule_at(past, op)
                        }
                    }));
                    assert!(
                        tried.is_err(),
                        "{ctx}: scheduled at {} ps, before {} ps",
                        past.as_picos(),
                        now.as_picos()
                    );
                    refused += 1;
                }
                _ => {}
            }
            assert_eq!(drv.pending(), r.pending.len(), "{ctx}: pending");
            assert_eq!(drv.is_idle(), r.pending.is_empty(), "{ctx}: idle");
        }
        while let Some(ev) = drv.next_event() {
            let (at, p) = r.pop().expect("the reference has the event too");
            assert_eq!((drv.now(), ev), (at, p), "case {case}: drain");
        }
        assert!(r.pending.is_empty(), "case {case}: the driver lost events");
    }
    let _ = panic::take_hook();
    assert!(
        refused > 100 && relative > 100 && arrivals > 100,
        "a case went untested: {refused} refused, {relative} relative, {arrivals} arrivals"
    );
}
