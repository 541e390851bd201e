//! The mapper: clock-value distribution and the pinning-threshold
//! algorithm.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::{AccessEvent, MAX_CLOCK};

/// Placement decision for one object during compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PinDecision {
    /// Keep the object on NVM.
    Pin,
    /// Keep the object on NVM with the given probability (the object's
    /// clock class straddles the pinning threshold, §4.3 of the paper).
    Sample(f64),
    /// Demote the object to flash.
    Demote,
}

impl PinDecision {
    /// Resolve the decision to a boolean using `draw`, a uniform random
    /// sample in `[0, 1)` supplied by the caller.
    pub fn should_pin(self, draw: f64) -> bool {
        match self {
            PinDecision::Pin => true,
            PinDecision::Demote => false,
            PinDecision::Sample(p) => draw < p,
        }
    }
}

/// Tracks the distribution of clock values over the tracked keys and
/// enforces the pinning threshold.
///
/// The mapper is deliberately tiny — four counters — matching the paper's
/// implementation as an array of four atomic integers. Since the lock-free
/// read path landed, the counters really are atomics: a hot read that
/// promotes a tracked key to [`MAX_CLOCK`] moves the key between clock
/// classes with two relaxed atomic ops ([`Mapper::promote_to_max`]) and no
/// lock, while structural tracker changes (inserts, evictions, hand
/// sweeps) keep flowing through [`Mapper::apply`] under the partition
/// write lock.
#[derive(Debug, Default)]
pub struct Mapper {
    counts: [AtomicU64; (MAX_CLOCK as usize) + 1],
}

impl Clone for Mapper {
    fn clone(&self) -> Self {
        let mapper = Mapper::new();
        mapper.set_histogram(self.histogram());
        mapper
    }
}

impl Mapper {
    /// A mapper with an empty histogram.
    pub fn new() -> Self {
        Mapper::default()
    }

    /// Apply the state changes of one tracker access.
    pub fn apply(&self, event: &AccessEvent) {
        if let Some(old) = event.old_clock {
            self.dec(old as usize, 1);
        }
        self.counts[event.new_clock as usize].fetch_add(1, Ordering::Relaxed);
        if let Some((_, clock)) = &event.evicted {
            self.dec(*clock as usize, 1);
        }
        // Hottest class first: a sweep that passes a key more than once
        // moves it 3 → 2 before 2 → 1, so a class loses keys only after
        // it gained those it passes on, and no decrement saturates.
        for from in (1..=MAX_CLOCK).rev() {
            let moved = event.decremented.iter().filter(|(f, _)| *f == from);
            let count: u64 = moved.map(|(_, count)| count).sum();
            self.dec(from as usize, count);
            self.counts[from as usize - 1].fetch_add(count, Ordering::Relaxed);
        }
    }

    /// A tracked key at clock value `old` was promoted to [`MAX_CLOCK`] by
    /// a read-path touch. Lock-free: two relaxed atomic ops. A no-op when
    /// the key was already at the maximum (racing touches of the same key
    /// observe `old == MAX_CLOCK` for all but the first, because the
    /// tracker's clock swap serialises the transitions).
    pub fn promote_to_max(&self, old: u8) {
        if old == MAX_CLOCK {
            return;
        }
        self.dec(old as usize, 1);
        self.counts[MAX_CLOCK as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Saturating decrement of one clock class.
    fn dec(&self, idx: usize, by: u64) {
        let counter = &self.counts[idx];
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(by);
            match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// The raw clock-value histogram, index = clock value.
    pub fn histogram(&self) -> [u64; (MAX_CLOCK as usize) + 1] {
        let mut out = [0u64; (MAX_CLOCK as usize) + 1];
        for (slot, counter) in out.iter_mut().zip(self.counts.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }

    /// Overwrite the histogram (used by tests and by engines that rebuild
    /// the mapper after recovery).
    pub(crate) fn set_histogram(&self, counts: [u64; (MAX_CLOCK as usize) + 1]) {
        for (counter, value) in self.counts.iter().zip(counts.iter()) {
            counter.store(*value, Ordering::Relaxed);
        }
    }

    /// Decide whether an object with clock value `clock` (or `None` if the
    /// object is not tracked at all) should stay pinned on NVM.
    ///
    /// `pinning_threshold` is the fraction of *tracked* objects that should
    /// be retained on NVM; `tracked` is the tracker population used to turn
    /// the threshold into an object budget. The budget is filled from the
    /// hottest clock class downward; the class that straddles the budget is
    /// sampled with the residual probability (§4.3 of the paper).
    pub fn pin_decision(
        &self,
        clock: Option<u8>,
        pinning_threshold: f64,
        tracked: usize,
    ) -> PinDecision {
        let Some(clock) = clock else {
            return PinDecision::Demote;
        };
        let threshold = pinning_threshold.clamp(0.0, 1.0);
        if threshold <= 0.0 {
            return PinDecision::Demote;
        }
        let budget = threshold * tracked as f64;
        if budget <= 0.0 {
            return PinDecision::Demote;
        }
        // Count objects in classes strictly hotter than `clock`.
        let counts = self.histogram();
        let hotter: u64 = counts
            .iter()
            .enumerate()
            .filter(|(c, _)| *c > clock as usize)
            .map(|(_, &n)| n)
            .sum();
        let class = counts[clock as usize];
        let hotter = hotter as f64;
        let class = class as f64;
        if hotter + class <= budget {
            PinDecision::Pin
        } else if hotter >= budget {
            PinDecision::Demote
        } else {
            let p = (budget - hotter) / class.max(1.0);
            PinDecision::Sample(p.clamp(0.0, 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockTracker;
    use prism_types::Key;

    #[test]
    fn histogram_tracks_accesses() {
        let mut tracker = ClockTracker::new(10);
        let mapper = Mapper::new();
        for id in 0..5u64 {
            mapper.apply(&tracker.access(&Key::from_id(id), false));
        }
        assert_eq!(mapper.histogram(), [5, 0, 0, 0]);
        for id in 0..2u64 {
            mapper.apply(&tracker.access(&Key::from_id(id), false));
        }
        assert_eq!(mapper.histogram(), [3, 0, 0, 2]);
        let dist = mapper.histogram().map(|count| count as f64 / 5.0);
        assert!((dist[0] - 0.6).abs() < 1e-9);
        assert!((dist[3] - 0.4).abs() < 1e-9);
    }

    /// A sweep that passes a key twice moves it down two classes. With
    /// key 1 at clock 2 under the hand and key 3 at clock 3 behind it, the
    /// sweep for key 4 meets a 2 before a 3: the histogram must count the
    /// 3 → 2 move before the 2 → 1 moves it feeds.
    #[test]
    fn a_sweep_that_passes_a_key_twice_keeps_the_histogram_exact() {
        let mut tracker = ClockTracker::new(2);
        let mapper = Mapper::new();
        for id in [0, 1, 0, 1, 2, 1, 3, 3] {
            mapper.apply(&tracker.access(&Key::from_id(id), false));
        }
        assert_eq!(tracker.clock_counts(), [0, 0, 1, 1]);
        let event = tracker.access(&Key::from_id(4), false);
        assert_eq!(event.decremented, [(2, 2), (3, 1), (1, 1)]);
        mapper.apply(&event);
        assert_eq!(tracker.clock_counts(), [1, 1, 0, 0]);
        assert_eq!(mapper.histogram(), tracker.clock_counts());
    }

    #[test]
    fn promote_to_max_moves_one_key_between_classes() {
        let mapper = Mapper::new();
        mapper.set_histogram([5, 2, 0, 1]);
        mapper.promote_to_max(0);
        assert_eq!(mapper.histogram(), [4, 2, 0, 2]);
        mapper.promote_to_max(1);
        assert_eq!(mapper.histogram(), [4, 1, 0, 3]);
        // A key already at MAX must not be double-counted (racing touches
        // of the same key observe old == MAX for all but the first).
        mapper.promote_to_max(MAX_CLOCK);
        assert_eq!(mapper.histogram(), [4, 1, 0, 3]);
    }

    #[test]
    fn concurrent_promotions_keep_the_population_exact() {
        use std::sync::Arc;
        let mapper = Arc::new(Mapper::new());
        mapper.set_histogram([4000, 0, 0, 0]);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mapper = Arc::clone(&mapper);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    mapper.promote_to_max(0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mapper.histogram(), [0, 0, 0, 4000]);
    }

    #[test]
    fn histogram_stays_consistent_under_eviction() {
        let mut tracker = ClockTracker::new(8);
        let mapper = Mapper::new();
        for id in 0..100u64 {
            mapper.apply(&tracker.access(&Key::from_id(id % 20), id % 3 == 0));
            let total: u64 = mapper.histogram().iter().sum();
            assert_eq!(total as usize, tracker.len());
        }
    }

    #[test]
    fn paper_example_ycsb_b_distribution() {
        // §4.3 example: 10% at clock 3, 10% at clock 2, 30% at clock 1,
        // 50% at clock 0, threshold 15%: clock 3 always pinned, clock 2
        // sampled at 0.5, clock 1/0 and untracked demoted.
        let mapper = Mapper::new();
        mapper.set_histogram([500, 300, 100, 100]);
        let tracked = 1000;
        assert_eq!(
            mapper.pin_decision(Some(3), 0.15, tracked),
            PinDecision::Pin
        );
        match mapper.pin_decision(Some(2), 0.15, tracked) {
            PinDecision::Sample(p) => assert!((p - 0.5).abs() < 1e-9, "p = {p}"),
            other => panic!("expected sampling, got {other:?}"),
        }
        assert_eq!(
            mapper.pin_decision(Some(1), 0.15, tracked),
            PinDecision::Demote
        );
        assert_eq!(
            mapper.pin_decision(Some(0), 0.15, tracked),
            PinDecision::Demote
        );
        assert_eq!(
            mapper.pin_decision(None, 0.15, tracked),
            PinDecision::Demote
        );
    }

    #[test]
    fn extreme_thresholds() {
        let mapper = Mapper::new();
        mapper.set_histogram([10, 10, 10, 10]);
        assert_eq!(mapper.pin_decision(Some(3), 0.0, 40), PinDecision::Demote);
        assert_eq!(mapper.pin_decision(Some(0), 1.0, 40), PinDecision::Pin);
        // Threshold above 1.0 is clamped.
        assert_eq!(mapper.pin_decision(Some(0), 3.0, 40), PinDecision::Pin);
        // Untracked objects are never pinned regardless of threshold.
        assert_eq!(mapper.pin_decision(None, 1.0, 40), PinDecision::Demote);
    }

    #[test]
    fn sample_decision_resolves_with_draw() {
        assert!(PinDecision::Pin.should_pin(0.99));
        assert!(!PinDecision::Demote.should_pin(0.0));
        assert!(PinDecision::Sample(0.5).should_pin(0.25));
        assert!(!PinDecision::Sample(0.5).should_pin(0.75));
    }

    #[test]
    fn empty_mapper_distribution_is_zero() {
        let mapper = Mapper::new();
        assert_eq!(mapper.histogram(), [0; 4]);
        assert_eq!(mapper.pin_decision(Some(3), 0.5, 0), PinDecision::Demote);
    }
}
