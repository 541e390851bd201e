//! The frequency sketch that gates read admissions to the clock tracker.

use std::sync::atomic::{AtomicU64, Ordering};

use prism_types::{splitmix64, Key};

/// Rows of counters; a key's estimate is the least of its four.
const ROWS: usize = 4;

/// A counter is four bits and saturates here.
const MAX_COUNT: u8 = 15;

/// Four-bit counters per 64-bit word.
const PER_WORD: usize = 16;

/// Every counter's low bits, for halving a word's sixteen at once.
const HALVE_MASK: u64 = 0x7777_7777_7777_7777;

/// Counters per row for each key of the tracker's capacity, before
/// rounding the row up to a power of two.
const WIDTH_PER_KEY: usize = 16;

/// A count-min sketch of recent access frequency (TinyLFU's, Einziger et
/// al. 2017 — not in the PrismDB paper): four rows of four-bit saturating
/// counters over a power-of-two width, all halved once every ten times
/// the tracker capacity's increments, so a count fades unless the key
/// keeps coming back.
///
/// A row holds at least sixteen times the tracker's capacity in
/// counters, so the ten capacities of keys one period counts put less
/// than one key on a counter on average, and a key counted once seldom
/// shares all four of its counters: its estimate stays 1, and the
/// engine's "counted at least twice" admission test tells a second read
/// from a collision. With 10 × 2 500 − 1 keys counted once, 1.1 % of them
/// estimate 2 or more at this width and 37.5 % at four times the
/// capacity.
///
/// The counters are atomics, sixteen to a word, so the `&self` read path
/// counts without the partition write lock. One splitmix64 of the key id
/// places the key in all four rows (double hashing over its two halves),
/// and nothing is seeded per process, so two sketches fed the same keys
/// agree.
#[derive(Debug)]
pub struct FrequencySketch {
    /// `ROWS` rows of `mask + 1` counters each, row after row.
    words: Vec<AtomicU64>,
    mask: u64,
    /// Increments since the last halving.
    increments: AtomicU64,
    /// Increments between two halvings.
    period: u64,
}

impl FrequencySketch {
    /// A sketch sized for a tracker of `capacity` keys: each row is the
    /// next power of two at or above sixteen times `capacity`
    /// (at least one word), and the counters halve every
    /// `10 × capacity` increments.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let width = (WIDTH_PER_KEY * capacity).next_power_of_two().max(PER_WORD);
        FrequencySketch {
            words: (0..ROWS * width / PER_WORD)
                .map(|_| AtomicU64::new(0))
                .collect(),
            mask: width as u64 - 1,
            increments: AtomicU64::new(0),
            period: 10 * capacity as u64,
        }
    }

    /// The key's counter in each row, as an index over all counters.
    fn slots(&self, key: &Key) -> impl Iterator<Item = usize> {
        let hash = splitmix64(key.id());
        // Partition routing takes splitmix64's low bits, which every key
        // of one partition shares, so the column starts from the high
        // half and steps by the low half made odd.
        let (start, step) = (hash >> 32, (hash & 0xffff_ffff) | 1);
        let mask = self.mask;
        (0..ROWS as u64).map(move |row| {
            let column = start.wrapping_add(row.wrapping_mul(step)) & mask;
            (row * (mask + 1) + column) as usize
        })
    }

    /// Counter `slot`'s word and its bit offset there.
    fn word(&self, slot: usize) -> (&AtomicU64, u32) {
        (&self.words[slot / PER_WORD], (slot % PER_WORD) as u32 * 4)
    }

    fn count(&self, slot: usize) -> u8 {
        let (word, shift) = self.word(slot);
        ((word.load(Ordering::Relaxed) >> shift) & 0xf) as u8
    }

    /// Count one access to `key`. Every `10 × capacity`-th increment
    /// halves every counter.
    pub fn increment(&self, key: &Key) {
        for slot in self.slots(key) {
            let (word, shift) = self.word(slot);
            let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let count = (bits >> shift) & 0xf;
                (count < MAX_COUNT as u64).then(|| bits + (1 << shift))
            });
        }
        // Exactly one increment of each period sees the count reach it,
        // so racing readers halve once; their own increments carry over.
        if self.increments.fetch_add(1, Ordering::Relaxed) + 1 == self.period {
            self.increments.fetch_sub(self.period, Ordering::Relaxed);
            for word in &self.words {
                // A racing counter increment is kept or halved with the
                // rest.
                let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((bits >> 1) & HALVE_MASK)
                });
            }
        }
    }

    /// How often `key` was counted, faded by the halvings: the least of
    /// its four counters. Never below its true count (up to 15) between
    /// two halvings; other keys sharing all four counters can only raise
    /// it.
    pub fn estimate(&self, key: &Key) -> u8 {
        self.slots(key)
            .map(|slot| self.count(slot))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(sketch: &FrequencySketch) -> Vec<u8> {
        let slots = 0..sketch.words.len() * PER_WORD;
        slots.map(|slot| sketch.count(slot)).collect()
    }

    /// Fed fewer increments than one period, each key's estimate is at
    /// least its true count, capped at the saturation value.
    #[test]
    fn an_estimate_never_undercounts_between_agings() {
        let sketch = FrequencySketch::new(100);
        let truth = |id: u64| (id % 7) as u8;
        // 300 keys of 0..=6 counts each: 897 increments, one period 1 000.
        for round in 0..7 {
            for id in (0..300).filter(|&id| truth(id) > round) {
                sketch.increment(&Key::from_id(id));
            }
        }
        for id in 0..300 {
            let estimate = sketch.estimate(&Key::from_id(id));
            assert!(
                estimate >= truth(id),
                "key {id}: {estimate} < {}",
                truth(id)
            );
        }
    }

    /// Counters saturate, the top one of a word included.
    #[test]
    fn counters_stop_at_fifteen() {
        let sketch = FrequencySketch::new(1_000);
        let top = |key: &Key| {
            sketch
                .slots(key)
                .any(|slot| slot % PER_WORD == PER_WORD - 1)
        };
        let key = (0..).map(Key::from_id).find(top).expect("some key");
        for _ in 0..40 {
            sketch.increment(&key);
        }
        assert_eq!(sketch.estimate(&key), MAX_COUNT);
        assert_eq!(counters(&sketch).into_iter().max(), Some(MAX_COUNT));
    }

    /// The period's last increment halves every counter, the ones it
    /// raised itself included.
    #[test]
    fn one_aging_halves_every_counter() {
        let capacity = 8;
        let sketch = FrequencySketch::new(capacity);
        let hot = Key::from_id(1);
        for _ in 0..12 {
            sketch.increment(&hot);
        }
        let last = Key::from_id(2);
        for _ in 12..10 * capacity - 1 {
            sketch.increment(&last);
        }
        assert_eq!(sketch.estimate(&hot), 12);
        let mut expected = counters(&sketch);
        for slot in sketch.slots(&last) {
            expected[slot] = (expected[slot] + 1).min(MAX_COUNT);
        }
        sketch.increment(&last);
        let halved: Vec<u8> = expected.iter().map(|count| count / 2).collect();
        assert_eq!(counters(&sketch), halved);
        assert_eq!(sketch.estimate(&hot), 6);
    }

    /// A key counted once reads as counted once: of `10 × capacity - 1`
    /// distinct keys counted once each, one short of a halving, fewer
    /// than 5 % estimate 2 or more, so a first read seldom passes for a
    /// second. The keys are one partition's of eight (they share the low
    /// bits of their hash) at the benchmark's per-partition capacity.
    #[test]
    fn few_keys_counted_once_estimate_two() {
        let capacity = 2_500;
        let sketch = FrequencySketch::new(capacity);
        let ids = (0..).filter(|&id| splitmix64(id).is_multiple_of(8));
        let keys: Vec<Key> = ids.take(10 * capacity - 1).map(Key::from_id).collect();
        for key in &keys {
            sketch.increment(key);
        }
        let doubled = keys.iter().filter(|key| sketch.estimate(key) >= 2);
        let share = doubled.count() as f64 / keys.len() as f64;
        assert!(
            share < 0.05,
            "{:.1} % of once-counted keys estimate 2+",
            share * 100.0
        );
    }

    /// No per-process seed: the same keys in the same order leave the
    /// same counters, halvings included.
    #[test]
    fn two_sketches_fed_the_same_keys_agree() {
        let (a, b) = (FrequencySketch::new(64), FrequencySketch::new(64));
        for i in 0..5_000u64 {
            let key = Key::from_id(i.wrapping_mul(2_654_435_761) % 997);
            a.increment(&key);
            b.increment(&key);
        }
        assert_eq!(counters(&a), counters(&b));
        assert!(counters(&a).iter().any(|&count| count > 0));
    }
}
