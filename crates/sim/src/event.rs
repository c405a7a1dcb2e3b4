//! Deterministic event queue.
//!
//! The queue orders events by `(time, insertion sequence)`, so events
//! scheduled for the same instant dequeue in insertion order. That total
//! order is what makes every simulation in this workspace bit-reproducible.
//!
//! Beside the binary heap, the queue keeps a FIFO *arrival lane* for
//! events that are pushed in non-decreasing time order — an open-loop
//! request stream submitted up front is the case it exists for. Both
//! stores draw sequence numbers from one counter and `pop` takes the
//! smaller `(time, seq)` head of the two, so the lane changes where an
//! event waits, never when it fires; the heap stays as deep as the events
//! scheduled while the run is live.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event payload tagged with its due time and a tiebreak sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue.
///
/// # Examples
///
/// ```
/// use pulse_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_picos(), ev), (10_000, "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Arrival lane: events in strictly increasing `(at, seq)` order (see
    /// [`EventQueue::push_arrival`]).
    lane: VecDeque<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `n` events before the backing
    /// heap reallocates. Sizing the heap to a rung's expected in-flight
    /// population up front keeps the driver loop allocation-free.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            lane: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Empties the queue and resets the tiebreak sequence, keeping the
    /// heap's and the lane's backing allocations so the queue can be
    /// reused for another run without rebuilding its storage.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.next_seq = 0;
    }

    /// Number of events the backing heap can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq();
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` like [`EventQueue::push`], appending it to the
    /// arrival lane when `at` is not earlier than the lane's tail — an
    /// O(1) push that keeps the heap shallow. An out-of-order `at` falls
    /// back to the heap. Either way the event pops exactly where `push`
    /// would have put it.
    pub fn push_arrival(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq();
        let item = Scheduled { at, seq, payload };
        match self.lane.back() {
            Some(tail) if at < tail.at => self.heap.push(item),
            _ => self.lane.push_back(item),
        }
    }

    /// Whether the lane's head fires before the heap's top under the
    /// `(at, seq)` order (`false` when the lane is empty).
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => (l.at, l.seq) < (h.at, h.seq),
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        s.map(|s| (s.at, s.payload))
    }

    /// The due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|s| s.at)
        } else {
            self.heap.peek().map(|s| s.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

/// A simulation clock plus an event queue — the core driver loop state.
///
/// Components in this workspace are written as state machines whose handlers
/// return new timed events; `Driver` is the minimal harness that advances
/// the clock monotonically through them.
///
/// # Examples
///
/// ```
/// use pulse_sim::{Driver, SimTime};
///
/// let mut drv: Driver<u32> = Driver::new();
/// drv.schedule_in(SimTime::from_nanos(5), 1);
/// let mut seen = vec![];
/// while let Some(ev) = drv.next_event() {
///     seen.push((drv.now().as_picos(), ev));
/// }
/// assert_eq!(seen, vec![(5_000, 1)]);
/// ```
#[derive(Debug)]
pub struct Driver<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Driver<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Driver<E> {
    /// Creates a driver starting at time zero.
    pub fn new() -> Self {
        Driver {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Creates a driver starting at time zero whose queue has room for `n`
    /// events before reallocating (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(n: usize) -> Self {
        Driver {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(n),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — hardware cannot send signals backwards
    /// in time, and allowing it would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.queue.push(at, payload);
    }

    /// Schedules an event at an absolute time through the queue's arrival
    /// lane (see [`EventQueue::push_arrival`]): the cheap path for a stream
    /// of events submitted in time order, firing exactly where
    /// [`Driver::schedule_at`] would.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, like [`Driver::schedule_at`].
    pub fn schedule_arrival(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.queue.push_arrival(at, payload);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.queue.push(at, payload);
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn next_event(&mut self) -> Option<E> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some(ev)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 'c');
        q.push(SimTime::from_nanos(10), 'a');
        q.push(SimTime::from_nanos(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn driver_advances_monotonically() {
        let mut drv: Driver<&str> = Driver::new();
        drv.schedule_in(SimTime::from_nanos(50), "b");
        drv.schedule_in(SimTime::from_nanos(10), "a");
        assert_eq!(drv.next_event(), Some("a"));
        assert_eq!(drv.now(), SimTime::from_nanos(10));
        // Scheduling relative to the advanced clock.
        drv.schedule_in(SimTime::from_nanos(15), "c");
        assert_eq!(drv.next_event(), Some("c"));
        assert_eq!(drv.now(), SimTime::from_nanos(25));
        assert_eq!(drv.next_event(), Some("b"));
        assert_eq!(drv.now(), SimTime::from_nanos(50));
        assert!(drv.is_idle());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut drv: Driver<u8> = Driver::new();
        drv.schedule_in(SimTime::from_nanos(10), 1);
        let _ = drv.next_event();
        drv.schedule_at(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn cleared_queue_replays_identically() {
        // Property loop: across many randomized rounds, a clear()-and-reused
        // queue pops the exact (time, payload) sequence a fresh queue does —
        // same time order, same insertion-order tiebreaks — while keeping
        // its backing allocation.
        let mut rng = crate::SplitMix64::new(0x5eed_e7e7);
        let mut reused: EventQueue<u64> = EventQueue::with_capacity(64);
        for round in 0..200 {
            let n = (rng.next_u64() % 64) as usize + 1;
            // Few distinct times so same-instant ties are common.
            let pushes: Vec<(SimTime, u64)> = (0..n)
                .map(|i| (SimTime::from_nanos(rng.next_u64() % 8), i as u64))
                .collect();
            let mut fresh = EventQueue::new();
            reused.clear();
            assert!(reused.is_empty(), "round {round}: clear left events");
            let cap_before = reused.capacity();
            for &(t, p) in &pushes {
                fresh.push(t, p);
                reused.push(t, p);
            }
            assert_eq!(reused.capacity(), cap_before, "round {round}: realloc");
            loop {
                let (a, b) = (fresh.pop(), reused.pop());
                assert_eq!(a, b, "round {round}: divergent pop");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn arrival_lane_pops_like_a_heap_only_queue() {
        // Property loop: random interleavings of `push` and `push_arrival`
        // (including arrivals earlier than the lane's tail, which take the
        // heap fallback) and pops must match a heap-only reference queue
        // pop for pop, with `len` and `peek_time` agreeing throughout.
        // Few distinct times keep same-instant ties dense, and the lane
        // queue is `clear()`ed and reused across rounds.
        let mut rng = crate::SplitMix64::new(0x1a4e_0a11);
        let mut laned: EventQueue<u64> = EventQueue::new();
        for round in 0..300 {
            let mut reference: EventQueue<u64> = EventQueue::new();
            laned.clear();
            // Arrivals drift forward with occasional steps back, like an
            // open-loop stream merged with late resubmissions.
            let mut cursor = 0u64;
            for op in 0..(rng.next_u64() % 96 + 1) {
                match rng.next_u64() % 8 {
                    0..=3 => {
                        cursor = match rng.next_u64() % 4 {
                            0 => cursor.saturating_sub(rng.next_u64() % 3),
                            _ => cursor + rng.next_u64() % 2,
                        };
                        let t = SimTime::from_nanos(cursor);
                        laned.push_arrival(t, op);
                        reference.push(t, op);
                    }
                    4..=5 => {
                        let t = SimTime::from_nanos(rng.next_u64() % 8);
                        laned.push(t, op);
                        reference.push(t, op);
                    }
                    _ => assert_eq!(laned.pop(), reference.pop(), "round {round}: pop"),
                }
                assert_eq!(laned.len(), reference.len(), "round {round}: len");
                assert_eq!(laned.is_empty(), reference.is_empty());
                assert_eq!(laned.peek_time(), reference.peek_time(), "round {round}");
            }
            loop {
                let (a, b) = (laned.pop(), reference.pop());
                assert_eq!(a, b, "round {round}: divergent drain");
                assert_eq!(laned.peek_time(), reference.peek_time());
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn driver_arrivals_fire_in_schedule_order() {
        // A fault scheduled first beats a same-instant arrival; arrivals
        // interleave with live events by time.
        let mut drv: Driver<&str> = Driver::new();
        drv.schedule_at(SimTime::from_nanos(10), "fault");
        drv.schedule_arrival(SimTime::from_nanos(10), "arrive-a");
        drv.schedule_arrival(SimTime::from_nanos(30), "arrive-b");
        assert_eq!(drv.pending(), 3);
        assert_eq!(drv.next_event(), Some("fault"));
        drv.schedule_in(SimTime::from_nanos(5), "work");
        let rest: Vec<&str> = std::iter::from_fn(|| drv.next_event()).collect();
        assert_eq!(rest, vec!["arrive-a", "work", "arrive-b"]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn arrival_in_the_past_panics() {
        let mut drv: Driver<u8> = Driver::new();
        drv.schedule_in(SimTime::from_nanos(10), 1);
        let _ = drv.next_event();
        drv.schedule_arrival(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u8> = EventQueue::with_capacity(128);
        assert!(q.capacity() >= 128);
        assert!(q.is_empty());
        let drv: Driver<u8> = Driver::with_capacity(128);
        assert!(drv.is_idle());
        assert_eq!(drv.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
