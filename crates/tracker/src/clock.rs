//! The multi-bit clock tracker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

use prism_types::Key;

/// Maximum clock value (two clock bits).
pub const MAX_CLOCK: u8 = 3;

/// One clock class per clock value.
pub(crate) const CLASSES: usize = MAX_CLOCK as usize + 1;

/// What happened to the tracker state as a result of one access.
///
/// A [`crate::Mapper`] consumes these events to keep a clock-value
/// histogram without sharing state with the tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessEvent {
    /// The previous clock value of the accessed key, if it was tracked.
    pub old_clock: Option<u8>,
    /// The new clock value of the accessed key.
    pub new_clock: u8,
    /// The key the access evicted, if any — reported so callers can clear
    /// per-key popularity bits. The clock policy evicts only at clock 0.
    pub evicted: Option<Key>,
    /// How many clock values the eviction sweep decremented, index = the
    /// value before the decrement (index 0 stays 0: a key at 0 is
    /// evicted, not decremented).
    pub decremented: [u64; CLASSES],
}

/// A capacity-bounded popularity tracker using the multi-bit clock
/// algorithm.
///
/// * New keys enter with clock value 0 (minimum popularity).
/// * A subsequent access sets the clock value to [`MAX_CLOCK`].
/// * When the tracker is full, the clock hand sweeps the ring, decrementing
///   non-zero clock values until it finds a value-0 entry to evict.
///
/// Where a key's newest version lives (NVM or flash) is not kept here:
/// the engine's bucket map holds it as NVM and flash residency bits.
#[derive(Debug)]
pub struct ClockTracker {
    capacity: usize,
    /// Each tracked key's clock value, an atomic so the read path can
    /// re-heat an already-tracked key ([`ClockTracker::touch`]) without the
    /// partition write lock; structural changes (inserts, ring management,
    /// evictions) still require `&mut self`.
    map: HashMap<Key, AtomicU8>,
    ring: Vec<Key>,
    hand: usize,
}

impl ClockTracker {
    /// Create a tracker that holds at most `capacity` keys.
    ///
    /// The paper sizes the tracker at 10–20 % of the total key count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracker capacity must be non-zero");
        ClockTracker {
            capacity,
            map: HashMap::with_capacity(capacity),
            ring: Vec::with_capacity(capacity),
            hand: 0,
        }
    }

    /// Current number of tracked keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The most keys the tracker holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many tracked keys hold each clock value, index = clock value:
    /// the distribution a [`crate::PinRule`] is built over. Counts the
    /// whole map.
    pub fn clock_counts(&self) -> [u64; CLASSES] {
        let mut counts = [0u64; CLASSES];
        for clock in self.map.values() {
            counts[clock.load(Ordering::Relaxed) as usize] += 1;
        }
        counts
    }

    /// True if no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The clock value of `key`, if tracked.
    pub fn clock_of(&self, key: &Key) -> Option<u8> {
        self.map.get(key).map(|clock| clock.load(Ordering::Relaxed))
    }

    /// Re-heat an already-tracked key without the write lock: atomically
    /// swap its clock value to [`MAX_CLOCK`] and return the previous clock
    /// value. Returns `None` (and changes nothing) if the key is not
    /// tracked — the caller defers such accesses to the structural
    /// [`ClockTracker::access`] path.
    ///
    /// `_on_flash` is unused (residency lives in the bucket map); it stays
    /// because the benchmark's tracker probes pass it.
    ///
    /// Safe against concurrent touches of the same key: the swap
    /// serialises the clock transitions, so exactly one racing touch
    /// observes each pre-`MAX` value. Structural changes never race with
    /// touches because they require `&mut self` (the partition write
    /// lock).
    pub fn touch(&self, key: &Key, _on_flash: bool) -> Option<u8> {
        let clock = self.map.get(key)?;
        Some(clock.swap(MAX_CLOCK, Ordering::Relaxed))
    }

    /// The key the next [`ClockTracker::access`] of an untracked key
    /// would evict, found without moving the hand: `None` while the
    /// tracker has room. The sweep decrements every clock it passes, so a
    /// key at clock `c` reaches 0 on the hand's `c + 1`-th visit: the
    /// victim is the first key at the lowest clock value, counting from
    /// the hand.
    pub fn next_victim(&self) -> Option<&Key> {
        if self.map.len() < self.capacity {
            return None;
        }
        let len = self.ring.len();
        let mut victim: Option<(u8, &Key)> = None;
        for offset in 0..len {
            let key = &self.ring[(self.hand + offset) % len];
            let clock = self.map[key].load(Ordering::Relaxed);
            if victim.is_none_or(|(lowest, _)| clock < lowest) {
                victim = Some((clock, key));
                if clock == 0 {
                    break;
                }
            }
        }
        victim.map(|(_, key)| key)
    }

    /// Record an access to `key`, inserting it if necessary (possibly
    /// evicting a cold key) and returning the resulting state changes.
    ///
    /// `_on_flash` is unused, as in [`ClockTracker::touch`].
    pub fn access(&mut self, key: &Key, _on_flash: bool) -> AccessEvent {
        if let Some(clock) = self.map.get_mut(key) {
            let old = clock.swap(MAX_CLOCK, Ordering::Relaxed);
            return AccessEvent {
                old_clock: Some(old),
                new_clock: MAX_CLOCK,
                evicted: None,
                decremented: [0; CLASSES],
            };
        }

        let mut decremented = [0; CLASSES];
        let evicted = (self.map.len() >= self.capacity).then(|| self.evict(&mut decremented));

        if self.ring.len() < self.capacity {
            self.ring.push(key.clone());
        } else {
            // Reuse the slot freed by the eviction (the hand points just
            // past it after `evict`).
            let slot = (self.hand + self.capacity - 1) % self.capacity;
            self.ring[slot] = key.clone();
        }

        self.map.insert(key.clone(), AtomicU8::new(0));
        AccessEvent {
            old_clock: None,
            new_clock: 0,
            evicted,
            decremented,
        }
    }

    /// Run the clock hand until a value-0 victim is found and return the
    /// evicted key, counting each clock value decremented along the way
    /// into `decremented` by its value before the decrement.
    fn evict(&mut self, decremented: &mut [u64; CLASSES]) -> Key {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.ring.len();
            let candidate = self.ring[slot].clone();
            let entry = self
                .map
                .get_mut(&candidate)
                .expect("ring keys are always tracked");
            let clock = entry.load(Ordering::Relaxed);
            if clock == 0 {
                self.map.remove(&candidate);
                return candidate;
            }
            decremented[clock as usize] += 1;
            entry.store(clock - 1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_keys_start_cold_and_reaccess_heats_them() {
        let mut t = ClockTracker::new(10);
        let k = Key::from_id(1);
        let first = t.access(&k, false);
        assert_eq!(first.old_clock, None);
        assert_eq!(first.new_clock, 0);
        assert_eq!(t.clock_of(&k), Some(0));
        let second = t.access(&k, false);
        assert_eq!(second.old_clock, Some(0));
        assert_eq!(second.new_clock, MAX_CLOCK);
        assert_eq!(t.clock_of(&k), Some(MAX_CLOCK));
    }

    #[test]
    fn capacity_is_bounded_and_cold_keys_are_evicted_first() {
        let mut t = ClockTracker::new(4);
        // Two hot keys (accessed twice) and two cold keys.
        for id in 0..4u64 {
            t.access(&Key::from_id(id), false);
        }
        t.access(&Key::from_id(0), false);
        t.access(&Key::from_id(1), false);
        // Inserting a new key must evict one of the cold keys (2 or 3), not
        // a hot one.
        let event = t.access(&Key::from_id(100), false);
        let victim = event.evicted.expect("a key must be evicted");
        assert!(victim.id() == 2 || victim.id() == 3, "evicted {victim:?}");
        assert_eq!(t.len(), 4);
        assert!(t.clock_of(&Key::from_id(0)).is_some());
        assert!(t.clock_of(&Key::from_id(1)).is_some());
    }

    #[test]
    fn eviction_sweep_decrements_hot_keys() {
        let mut t = ClockTracker::new(2);
        t.access(&Key::from_id(1), false);
        t.access(&Key::from_id(1), false); // clock 3
        t.access(&Key::from_id(2), false);
        t.access(&Key::from_id(2), false); // clock 3

        // Now both are hot; inserting a third key forces the hand to sweep,
        // decrementing until one reaches zero.
        let event = t.access(&Key::from_id(3), false);
        assert!(event.evicted.is_some());
        assert!(event.decremented.iter().any(|&count| count > 0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn heavily_skewed_access_keeps_hot_set_resident() {
        let mut t = ClockTracker::new(50);
        // 10 hot keys accessed often interleaved with a long scan of cold keys.
        for round in 0..20u64 {
            for hot in 0..10u64 {
                t.access(&Key::from_id(hot), false);
            }
            for cold in 0..20u64 {
                t.access(&Key::from_id(1000 + round * 20 + cold), false);
            }
        }
        for hot in 0..10u64 {
            assert!(
                t.clock_of(&Key::from_id(hot)).is_some(),
                "hot key {hot} was evicted"
            );
        }
    }

    #[test]
    fn touch_reheats_tracked_keys_without_structural_changes() {
        let mut t = ClockTracker::new(4);
        let k = Key::from_id(1);
        t.access(&k, false); // clock 0
        assert_eq!(t.touch(&k, true), Some(0));
        assert_eq!(t.clock_of(&k), Some(MAX_CLOCK));
        // A second touch sees the key already at MAX.
        assert_eq!(t.touch(&k, true), Some(MAX_CLOCK));
        // Untracked keys are not inserted by touch.
        assert_eq!(t.touch(&Key::from_id(99), false), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn racing_touches_observe_each_pre_max_value_exactly_once() {
        use std::sync::Arc;
        let mut t = ClockTracker::new(8);
        let k = Key::from_id(7);
        t.access(&k, false); // enters at clock 0
        let t = Arc::new(t);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let k = k.clone();
            handles.push(std::thread::spawn(move || {
                let mut non_max_observed = 0u32;
                for _ in 0..1000 {
                    if t.touch(&k, false) != Some(MAX_CLOCK) {
                        non_max_observed += 1;
                    }
                }
                non_max_observed
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // The key started below MAX exactly once, so exactly one touch
        // across all threads saw a pre-MAX clock value.
        assert_eq!(total, 1);
        assert_eq!(t.clock_of(&k), Some(MAX_CLOCK));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = ClockTracker::new(0);
    }
}
