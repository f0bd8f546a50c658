//! The serving path's one cache: completed outcomes, keyed by the FNV-1a
//! hash of the *encoded* problem bytes (the `SKT1` payload the client
//! sent — hashing before decoding means a repeat request is recognized
//! without any parsing work).
//!
//! An entry is the fully encoded response payload of any run the wall
//! clock didn't cut short; a hit skips decode, compile and search. Node-
//! and reject-budget exhaustion is a deterministic function of the
//! problem and config, so those outcomes cache and replay soundly — only
//! deadline-tripped outcomes are timing-dependent and never cached. A
//! miss decodes, compiles and searches a task of its own.
//!
//! Eviction is CLOCK ([`ClockCache`]) — a one-bit approximation of LRU
//! whose second-chance sweep keeps hot Zipf heads resident under capacity
//! pressure, which is what the measured hit-rate-vs-capacity curve in
//! `BENCH_server.json` exercises.

use std::collections::HashMap;

/// The cache key of a problem: FNV-1a ([`sekitei_model::codec::fnv1a`])
/// over its bytes — deterministic across runs and platforms, and fast
/// enough to disappear next to a TCP round-trip.
pub use sekitei_model::codec::fnv1a as content_hash;

/// One slot of a [`ClockCache`]: key, value, and the reference bit the
/// sweep hand clears.
#[derive(Debug)]
struct ClockSlot<V> {
    key: u64,
    value: V,
    referenced: bool,
}

/// A CLOCK-bounded hash map: one-bit LRU approximation. `get` sets the
/// slot's reference bit; inserting past capacity sweeps the hand around
/// the ring, clearing reference bits, and evicts the first slot found
/// unreferenced (every entry gets a second chance). Fresh inserts start
/// *unreferenced* so a burst of one-shot keys cannot flush the recently
/// used set.
#[derive(Debug)]
pub struct ClockCache<V> {
    cap: usize,
    slots: Vec<ClockSlot<V>>,
    index: HashMap<u64, usize>,
    hand: usize,
}

impl<V: Clone> ClockCache<V> {
    /// An empty cache holding at most `cap` entries (`cap = 0` disables
    /// caching entirely).
    pub fn new(cap: usize) -> Self {
        ClockCache { cap, slots: Vec::new(), index: HashMap::new(), hand: 0 }
    }

    /// Look up a key, marking it recently used on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        let &slot = self.index.get(&key)?;
        self.slots[slot].referenced = true;
        Some(self.slots[slot].value.clone())
    }

    /// Insert, evicting the hand's first unreferenced slot if full.
    /// Re-inserting an existing key refreshes its value and marks it
    /// recently used.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].value = value;
            self.slots[slot].referenced = true;
            return;
        }
        if self.slots.len() < self.cap {
            self.index.insert(key, self.slots.len());
            self.slots.push(ClockSlot { key, value, referenced: false });
            return;
        }
        // sweep: clear reference bits until an unreferenced victim turns
        // up; bounded by 2·cap (one full lap clears every bit)
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.cap;
                continue;
            }
            self.index.remove(&slot.key);
            self.index.insert(key, self.hand);
            *slot = ClockSlot { key, value, referenced: false };
            self.hand = (self.hand + 1) % self.cap;
            return;
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b""), 0xcbf29ce484222325);
        assert_eq!(content_hash(b"sekitei"), content_hash(b"sekitei"));
        assert_ne!(content_hash(b"sekitei"), content_hash(b"sekitej"));
    }

    #[test]
    fn clock_eviction_order_respects_reference_bits() {
        let mut c = ClockCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        // touch 1: its reference bit protects it through the next sweep
        assert_eq!(c.get(1), Some("a"));
        c.insert(4, "d");
        // hand started at 0: slot 1 was referenced (bit cleared, spared),
        // slot 2 was not → evicted; 1 survives because it was touched
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Some("a"));
        assert!(c.get(2).is_none(), "untouched key evicted first");
        assert_eq!(c.get(3), Some("c"));
        assert_eq!(c.get(4), Some("d"));
        // next insert: hand sits past 2's old slot; 3 and 4 were touched
        // by the asserts above, 1's bit was cleared by the first sweep
        // and re-set by get — sweep clears all three, laps, evicts 3
        c.insert(5, "e");
        assert_eq!(c.len(), 3);
        let survivors: Vec<_> = [1, 3, 4, 5].iter().filter(|&&k| c.get(k).is_some()).collect();
        assert_eq!(survivors.len(), 3);
        assert_eq!(c.get(5), Some("e"), "new entry resident after eviction");
    }

    #[test]
    fn clock_hot_key_survives_one_shot_scan() {
        // the scan-resistance property the Zipf mix relies on: a hot key
        // touched between inserts outlives a long parade of cold keys
        let mut c = ClockCache::new(4);
        c.insert(100, "hot");
        for k in 0..64 {
            assert_eq!(c.get(100), Some("hot"), "hot key evicted at k={k}");
            c.insert(k, "cold");
        }
        assert_eq!(c.get(100), Some("hot"));
    }

    #[test]
    fn clock_reinsert_refreshes_and_zero_cap_disables() {
        let mut c = ClockCache::new(2);
        c.insert(1, "a");
        c.insert(1, "a2");
        c.insert(2, "b");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Some("a2"));

        let mut z: ClockCache<&str> = ClockCache::new(0);
        z.insert(1, "a");
        assert!(z.is_empty());
        assert!(z.get(1).is_none());
    }
}
