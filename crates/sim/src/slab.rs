//! A slab of values parked behind `u32` handles.
//!
//! Event payloads stay small when a large value (a packet, say) waits in a
//! slab and its event carries only the handle. Freed slots are reused
//! last-in first-out, so the slab stays as large as the most values ever
//! parked at once.

/// Values parked behind `u32` handles, with a free list of vacant slots.
///
/// # Examples
///
/// ```
/// use pulse_sim::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("packet a");
/// let b = slab.insert("packet b");
/// assert_eq!(slab.take(a), "packet a");
/// // The freed slot is reused.
/// assert_eq!(slab.insert("packet c"), a);
/// assert_eq!(slab.take(b), "packet b");
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty slab with room for `n` values before it
    /// reallocates.
    pub fn with_capacity(n: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Drops every parked value, keeping the allocations. Handles start
    /// again from 0.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Parks `value` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX + 1` values are parked at once.
    #[inline(always)]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(value);
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("slab handles fit in u32");
                self.slots.push(Some(value));
                h
            }
        }
    }

    /// Removes and returns the value parked under `handle`, freeing its
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `handle` parks no value.
    #[inline(always)]
    pub fn take(&mut self, handle: u32) -> T {
        let value = self.slots[handle as usize]
            .take()
            .expect("slab handle parks a value");
        self.free.push(handle);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_and_slots_are_reused() {
        let mut slab = Slab::new();
        let hs: Vec<u32> = (0..4).map(|i| slab.insert(i * 10)).collect();
        assert_eq!(hs, vec![0, 1, 2, 3]);
        assert_eq!(slab.take(2), 20);
        assert_eq!(slab.take(0), 0);
        // Last freed, first reused; no growth while slots are vacant.
        assert_eq!(slab.insert(7), 0);
        assert_eq!(slab.insert(8), 2);
        assert_eq!(slab.insert(9), 4);
        assert_eq!((slab.take(0), slab.take(1), slab.take(2)), (7, 10, 8));
        assert_eq!((slab.take(3), slab.take(4)), (30, 9));
    }

    #[test]
    #[should_panic(expected = "parks a value")]
    fn taking_a_vacant_handle_panics() {
        let mut slab = Slab::new();
        let h = slab.insert(());
        slab.take(h);
        slab.take(h);
    }
}
