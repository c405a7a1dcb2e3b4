//! Deterministic event queue.
//!
//! The queue orders events by `(time, insertion sequence)`, so events
//! scheduled for the same instant dequeue in insertion order. That total
//! order is what makes every simulation in this workspace bit-reproducible.
//!
//! Every event's place in that order is one 16-byte key, packing its time,
//! sequence number and the [`Slab`] slot its payload waits in, so the
//! queue compares one integer and moves no payload. Keys wait in one of
//! three stores, which all draw sequence numbers from one counter; `pop`
//! takes the smallest `(time, seq)` head of the three, so where an event
//! waits never changes when it fires.
//!
//! * A **timing wheel** takes most events. Simulated hardware is a chain of
//!   fixed pipeline delays, so nearly every event is scheduled a short,
//!   almost constant delay ahead. The wheel has 512 buckets, each
//!   4.096 ns of simulated time wide (`picos >> 12`), about 2.1 µs in all,
//!   and each bucket holds up to two keys, kept sorted. A bitmap of
//!   occupied buckets finds the earliest one. The wheel's cursor is the
//!   bucket of the last event popped and only ever rises; bucket `b` is in
//!   use while `b - cursor < 512`. A push costs a few bit operations and
//!   no sift.
//! * A binary **heap** takes what the wheel cannot: a push into a full
//!   bucket, past the wheel's horizon, or earlier than its cursor. It runs
//!   the *hold model*: a discrete event simulation pops an event and,
//!   almost always, schedules one follow-up. `pop` therefore leaves a
//!   popped heap key in place as a dead head; the next push that reaches
//!   the heap overwrites it and sifts it down once, instead of a sift for
//!   the pop and another for the push. A `pop` that finds the dead head
//!   still there removes it first.
//! * A FIFO **arrival lane** takes events pushed in non-decreasing time
//!   order through [`EventQueue::push_arrival`] — an open-loop request
//!   stream submitted up front is the case it exists for — so neither the
//!   wheel nor the heap holds the whole stream.
//!
//! The path one payload takes — [`Driver::schedule_at`], `push`, the slab
//! slot, `pop`, [`Driver::next_event`] — is `#[inline(always)]`, down to
//! [`Slab::insert`] and [`Slab::take`]. Out of line, each layer would copy
//! the payload through a stack temporary of its own shape (an `E`, an
//! `Option<E>`, an `(SimTime, E)`), and the first load of each copy would
//! wait on a store the CPU cannot forward to it. Inlined into the event
//! loop, the payload is written once into its slot and read once out of
//! it.

use crate::slab::Slab;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Bits of a key's low word that name the payload's slab slot; the bits
/// above them hold the sequence number.
const SLOT_BITS: u32 = 24;

/// An event's place in the `(time, seq)` order, as one integer: the time
/// in the high word, then the sequence number, then the slab slot. Sequence
/// numbers are unique, so the slot never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(at: SimTime, seq: u64, slot: u32) -> Key {
        Key(u128::from(at.as_picos()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot)))
    }

    fn at(self) -> SimTime {
        SimTime::from_picos((self.0 >> 64) as u64)
    }

    fn slot(self) -> u32 {
        (self.0 as u32) & ((1 << SLOT_BITS) - 1)
    }

    /// The absolute index of the wheel bucket the key's time falls in.
    fn bucket(self) -> u64 {
        (self.0 >> (64 + BUCKET_SHIFT)) as u64
    }
}

/// Buckets on the timing wheel.
const WHEEL_BUCKETS: usize = 512;

/// Words of a bitmap with one bit per wheel bucket.
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;

/// A wheel bucket is `1 << BUCKET_SHIFT` ps (4.096 ns) of simulated time.
const BUCKET_SHIFT: u32 = 12;

/// The timing wheel in front of the heap (see the module docs). Bucket `b`
/// (a key's time `>> BUCKET_SHIFT`) sits at index `b % WHEEL_BUCKETS`; every
/// key on the wheel has `cursor <= b < cursor + WHEEL_BUCKETS`, so an index
/// names one bucket at a time. Its 16 KiB of keys live inline: boxed, they
/// raised perfbench's `ws-read` peak RSS by 2 MiB.
struct Wheel {
    /// Each bucket's keys: one in `[0]`, or two in order.
    keys: [[Key; 2]; WHEEL_BUCKETS],
    /// Bit `i` is set while bucket index `i` holds a key...
    occupied: [u64; WHEEL_WORDS],
    /// ...and bit `i` here while it holds two.
    full: [u64; WHEEL_WORDS],
    /// The bucket of the last event popped; never falls until `clear`.
    cursor: u64,
    len: usize,
}

impl fmt::Debug for Wheel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wheel")
            .field("cursor", &self.cursor)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            keys: [[Key(0); 2]; WHEEL_BUCKETS],
            occupied: [0; WHEEL_WORDS],
            full: [0; WHEEL_WORDS],
            cursor: 0,
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.occupied = [0; WHEEL_WORDS];
        self.full = [0; WHEEL_WORDS];
        self.cursor = 0;
        self.len = 0;
    }

    /// Files `key` in its bucket. Returns `false`, leaving the wheel as it
    /// was, if the bucket is full or lies outside the wheel's span.
    #[inline(always)]
    fn push(&mut self, key: Key) -> bool {
        let b = key.bucket();
        if b.wrapping_sub(self.cursor) >= WHEEL_BUCKETS as u64 {
            return false;
        }
        let i = b as usize % WHEEL_BUCKETS;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let bucket = &mut self.keys[i];
        if self.occupied[word] & bit == 0 {
            bucket[0] = key;
            self.occupied[word] |= bit;
        } else if self.full[word] & bit == 0 {
            let first = bucket[0];
            *bucket = [first.min(key), first.max(key)];
            self.full[word] |= bit;
        } else {
            return false;
        }
        self.len += 1;
        true
    }

    /// The index of the earliest occupied bucket and its first key.
    #[inline(always)]
    fn head(&self) -> Option<(usize, Key)> {
        if self.len == 0 {
            return None;
        }
        let from = self.cursor as usize % WHEEL_BUCKETS;
        let word = from / 64;
        let ahead = self.occupied[word] & (!0 << (from % 64));
        let i = if ahead != 0 {
            word * 64 + ahead.trailing_zeros() as usize
        } else {
            self.scan(word)
        };
        Some((i, self.keys[i][0]))
    }

    /// The first occupied bucket in the words after `word`, wrapping round
    /// to `word` itself (whose bits at and after the cursor are clear).
    fn scan(&self, word: usize) -> usize {
        (1..=WHEEL_WORDS)
            .map(|k| (word + k) % WHEEL_WORDS)
            .find_map(|w| {
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("a non-empty wheel has an occupied bucket")
    }

    /// Removes the first key of bucket index `i`, the wheel's head, and
    /// moves the cursor to its bucket.
    #[inline(always)]
    fn take(&mut self, i: usize, key: Key) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.full[word] & bit != 0 {
            self.keys[i][0] = self.keys[i][1];
            self.full[word] &= !bit;
        } else {
            self.occupied[word] &= !bit;
        }
        self.len -= 1;
        self.cursor = key.bucket();
    }

    /// Moves the cursor up to the bucket of `key`, an event popped from
    /// the heap or the lane. Every key on the wheel is due after it.
    #[inline(always)]
    fn advance(&mut self, key: Key) {
        self.cursor = self.cursor.max(key.bucket());
    }
}

/// An arrival-lane event: its payload rides along, since the lane never
/// sifts.
#[derive(Debug)]
struct Arrival<E> {
    key: Key,
    payload: E,
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
    /// Timing wheel: most pending keys.
    wheel: Wheel,
    /// Binary min-heap of the keys the wheel could not take. While
    /// `dead_head` is set, `heap[0]` is the key of the event `pop` last
    /// took from the heap and no longer counts.
    heap: Vec<Key>,
    dead_head: bool,
    /// The wheel's and the heap's payloads, under the slots their keys
    /// name.
    payloads: Slab<E>,
    /// Arrival lane: events in strictly increasing `(at, seq)` order (see
    /// [`EventQueue::push_arrival`]).
    lane: VecDeque<Arrival<E>>,
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
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `n` events before the backing
    /// heap reallocates. Sizing the heap to a rung's expected in-flight
    /// population up front keeps the driver loop allocation-free.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            wheel: Wheel::new(),
            heap: Vec::with_capacity(n),
            dead_head: false,
            payloads: Slab::with_capacity(n),
            lane: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Empties the queue and resets the tiebreak sequence, keeping the
    /// heap's and the lane's backing allocations so the queue can be
    /// reused for another run without rebuilding its storage.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.heap.clear();
        self.dead_head = false;
        self.payloads.clear();
        self.lane.clear();
        self.next_seq = 0;
    }

    /// Number of events the backing heap can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(
            seq < 1 << (64 - SLOT_BITS),
            "event queue ran out of sequence numbers"
        );
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if 2^24 events already wait on the wheel and in the heap
    /// together, or after 2^40 pushes since the queue was created or
    /// cleared.
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq();
        self.push_keyed(at, seq, payload);
    }

    /// Parks `payload` and files its key on the wheel, or in the heap if
    /// the wheel cannot take it.
    #[inline(always)]
    fn push_keyed(&mut self, at: SimTime, seq: u64, payload: E) {
        let slot = self.payloads.insert(payload);
        assert!(slot < 1 << SLOT_BITS, "event queue is full");
        let key = Key::new(at, seq, slot);
        if self.wheel.push(key) {
            return;
        }
        if self.dead_head {
            // Hold model: the new key takes the dead head's place.
            self.dead_head = false;
            self.sift_down(key);
        } else {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1, key);
        }
    }

    /// Schedules `payload` like [`EventQueue::push`], appending it to the
    /// arrival lane when `at` is not earlier than the lane's tail — an
    /// O(1) push that keeps the wheel and the heap for live events. An
    /// out-of-order `at` goes where `push` would put it. Either way the
    /// event pops exactly where `push` would have put it.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::push`].
    pub fn push_arrival(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq();
        match self.lane.back() {
            Some(tail) if at < tail.key.at() => self.push_keyed(at, seq, payload),
            _ => self.lane.push_back(Arrival {
                key: Key::new(at, seq, 0),
                payload,
            }),
        }
    }

    /// Puts `key` at the root and sifts it down to its place. The hole
    /// first walks down to a leaf, always to the earlier child (picked
    /// without a branch), and `key` then climbs back up from there: a new
    /// event is usually due after most pending ones, so the climb is short.
    fn sift_down(&mut self, key: Key) {
        let heap = &mut self.heap[..];
        let end = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < end {
            child += usize::from(heap[child + 1] < heap[child]);
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == end {
            heap[hole] = heap[child];
            hole = child;
        }
        self.sift_up(hole, key);
    }

    /// Moves `key` from the hole at `hole` up to its place.
    fn sift_up(&mut self, mut hole: usize, key: Key) {
        let heap = &mut self.heap[..];
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if heap[parent] <= key {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = key;
    }

    /// The earliest live heap key. A dead head's successor is one of its
    /// two children.
    fn heap_head(&self) -> Option<Key> {
        if self.dead_head {
            self.heap[1..self.heap.len().min(3)].iter().min().copied()
        } else {
            self.heap.first().copied()
        }
    }

    /// Removes and returns the earliest event, if any.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.dead_head {
            self.dead_head = false;
            let last = self.heap.pop().expect("a dead head is on the heap");
            if !self.heap.is_empty() {
                self.sift_down(last);
            }
        }
        let heap = self.heap.first().copied();
        let lane = self.lane.front().map(|a| a.key);
        if let Some((i, key)) = self.wheel.head() {
            if heap.is_none_or(|h| key < h) && lane.is_none_or(|l| key < l) {
                self.wheel.take(i, key);
                return Some((key.at(), self.payloads.take(key.slot())));
            }
        }
        let (at, payload) = match (lane, heap) {
            (Some(l), Some(h)) if h < l => self.pop_heap(h),
            (Some(_), _) => self.lane.pop_front().map(|a| (a.key, a.payload))?,
            (None, Some(h)) => self.pop_heap(h),
            (None, None) => return None,
        };
        self.wheel.advance(at);
        Some((at.at(), payload))
    }

    /// Takes the heap head's payload and leaves its key as the dead head.
    #[inline(always)]
    fn pop_heap(&mut self, head: Key) -> (Key, E) {
        self.dead_head = true;
        (head, self.payloads.take(head.slot()))
    }

    /// The due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.wheel.head().map(|(_, key)| key);
        let lane = self.lane.front().map(|a| a.key);
        [wheel, self.heap_head(), lane]
            .into_iter()
            .flatten()
            .min()
            .map(Key::at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len + self.heap.len() - usize::from(self.dead_head) + self.lane.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    #[inline(always)]
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
    #[inline(always)]
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
