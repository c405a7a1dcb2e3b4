//! An O(1) LRU set over u64 keys (cache-line indices, page numbers, object
//! ids), built on an intrusive doubly-linked slab. Backs the Fastswap page
//! cache, the AIFM object cache and the CXL cache model in `pulse-core`.

use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU set.
///
/// # Examples
///
/// ```
/// use pulse_frontend::LruSet;
///
/// let mut lru = LruSet::new(2);
/// assert!(!lru.touch(1)); // miss, inserted
/// assert!(!lru.touch(2)); // miss, inserted
/// assert!(lru.touch(1));  // hit
/// assert_eq!(lru.insert_evicting(3), Some(2)); // 2 was least recent
/// ```
#[derive(Debug)]
pub struct LruSet {
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl LruSet {
    /// Creates a cache holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> LruSet {
        assert!(capacity > 0, "cache capacity must be positive");
        LruSet {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.map.len() == self.capacity
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all touches.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Slot { prev, next, .. } = self.slots[idx];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Probes for `key`, marking it most-recently-used on a hit. Returns
    /// whether it was resident. On a miss the key is inserted **if there is
    /// room**; use [`LruSet::insert_evicting`] to learn the victim.
    pub fn touch(&mut self, key: u64) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        self.misses += 1;
        if !self.is_full() {
            self.insert_new(key);
        } else {
            let _ = self.insert_evicting_inner(key);
        }
        false
    }

    fn insert_new(&mut self, key: u64) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn insert_evicting_inner(&mut self, key: u64) -> Option<u64> {
        let victim_idx = self.tail;
        let victim = self.slots[victim_idx].key;
        self.unlink(victim_idx);
        self.map.remove(&victim);
        self.free.push(victim_idx);
        self.insert_new(key);
        Some(victim)
    }

    /// Inserts `key` (as most-recent), evicting and returning the
    /// least-recent key if the cache was full. No-op `None` if already
    /// resident (refreshes recency).
    pub fn insert_evicting(&mut self, key: u64) -> Option<u64> {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        if !self.is_full() {
            self.insert_new(key);
            return None;
        }
        self.insert_evicting_inner(key)
    }

    /// Whether `key` is resident (no recency update, no stats).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruSet::new(3);
        for k in [1, 2, 3] {
            c.touch(k);
        }
        c.touch(1); // order now (1,3,2) by recency
        assert_eq!(c.insert_evicting(4), Some(2));
        assert_eq!(c.insert_evicting(5), Some(3));
        assert!(c.contains(1) && c.contains(4) && c.contains(5));
    }

    #[test]
    fn touch_tracks_hits_and_misses() {
        let mut c = LruSet::new(2);
        assert!(!c.touch(10));
        assert!(c.touch(10));
        assert!(!c.touch(11));
        assert!(!c.touch(12)); // evicts 10
        assert!(!c.touch(10)); // miss again
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 4);
        assert!((c.hit_ratio() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn capacity_respected_under_churn() {
        let mut c = LruSet::new(64);
        for k in 0..10_000u64 {
            c.touch(k % 257);
        }
        assert_eq!(c.len(), 64);
        assert!(c.is_full());
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = LruSet::new(2);
        c.touch(1);
        c.touch(2);
        assert_eq!(c.insert_evicting(1), None); // refresh
        assert_eq!(c.insert_evicting(3), Some(2)); // 2 is now LRU
    }

    #[test]
    fn hot_set_smaller_than_capacity_hits_always() {
        let mut c = LruSet::new(16);
        for i in 0..1000u64 {
            c.touch(i % 8);
        }
        assert_eq!(c.misses(), 8);
        assert!(c.hit_ratio() > 0.99);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }
}
