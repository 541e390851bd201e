//! The pinning-threshold algorithm over a clock-value distribution, and
//! the mapper that keeps such a distribution from a stream of accesses.

use std::cell::Cell;

use crate::clock::{AccessEvent, CLASSES};

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

/// One compaction plan's pin rule (§4.3 of the paper): a distribution of
/// clock values and a budget of objects to keep on NVM, filled from the
/// hottest clock class downward; the class that straddles the budget is
/// sampled with the residual probability. A plan builds it from one count
/// of the tracker ([`crate::ClockTracker::clock_counts`]) and asks it
/// about every object it places.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinRule {
    counts: [u64; CLASSES],
    budget: f64,
}

impl PinRule {
    /// The rule that keeps `pinning_threshold` (clamped to `0..=1`) of
    /// `tracked` objects on NVM over the distribution `counts` (index =
    /// clock value).
    pub fn new(counts: [u64; CLASSES], pinning_threshold: f64, tracked: usize) -> Self {
        let budget = pinning_threshold.clamp(0.0, 1.0) * tracked as f64;
        PinRule { counts, budget }
    }

    /// Whether an object with clock value `clock` (or `None` if the object
    /// is not tracked at all) stays pinned on NVM.
    pub fn decision(&self, clock: Option<u8>) -> PinDecision {
        let Some(clock) = clock.map(usize::from) else {
            return PinDecision::Demote;
        };
        if self.budget <= 0.0 {
            return PinDecision::Demote;
        }
        let hotter: u64 = self.counts[clock + 1..].iter().sum();
        let (hotter, class) = (hotter as f64, self.counts[clock] as f64);
        if hotter + class <= self.budget {
            PinDecision::Pin
        } else if hotter >= self.budget {
            PinDecision::Demote
        } else {
            let p = (self.budget - hotter) / class.max(1.0);
            PinDecision::Sample(p.clamp(0.0, 1.0))
        }
    }
}

/// The paper's mapper: four counters of tracked keys per clock value, kept
/// up to date from the tracker's [`AccessEvent`]s. The engine keeps none —
/// its plans count the tracker — and the benchmark's tracker probe feeds
/// one alongside every access.
#[derive(Debug, Default)]
pub struct Mapper {
    counts: Cell<[u64; CLASSES]>,
}

impl Mapper {
    /// A mapper with an empty histogram.
    pub fn new() -> Self {
        Mapper::default()
    }

    /// Apply the state changes of one tracker access.
    pub fn apply(&self, event: &AccessEvent) {
        let mut counts = self.counts.get();
        if let Some(old) = event.old_clock {
            counts[old as usize] -= 1;
        }
        counts[event.new_clock as usize] += 1;
        if event.evicted.is_some() {
            counts[0] -= 1;
        }
        // Hottest class first: a sweep that passes a key more than once
        // moves it 3 → 2 before 2 → 1, so a class loses keys only after
        // it gained those it passes on.
        for from in (1..CLASSES).rev() {
            counts[from] -= event.decremented[from];
            counts[from - 1] += event.decremented[from];
        }
        self.counts.set(counts);
    }

    /// The clock-value histogram, index = clock value.
    pub(crate) fn histogram(&self) -> [u64; CLASSES] {
        self.counts.get()
    }

    /// The [`PinRule`] decision for `clock` over this histogram.
    pub fn pin_decision(
        &self,
        clock: Option<u8>,
        pinning_threshold: f64,
        tracked: usize,
    ) -> PinDecision {
        PinRule::new(self.histogram(), pinning_threshold, tracked).decision(clock)
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
        assert_eq!(event.decremented, [0, 1, 2, 1]);
        mapper.apply(&event);
        assert_eq!(tracker.clock_counts(), [1, 1, 0, 0]);
        assert_eq!(mapper.histogram(), tracker.clock_counts());
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
        let rule = PinRule::new([500, 300, 100, 100], 0.15, 1000);
        assert_eq!(rule.decision(Some(3)), PinDecision::Pin);
        match rule.decision(Some(2)) {
            PinDecision::Sample(p) => assert!((p - 0.5).abs() < 1e-9, "p = {p}"),
            other => panic!("expected sampling, got {other:?}"),
        }
        assert_eq!(rule.decision(Some(1)), PinDecision::Demote);
        assert_eq!(rule.decision(Some(0)), PinDecision::Demote);
        assert_eq!(rule.decision(None), PinDecision::Demote);
    }

    #[test]
    fn extreme_thresholds() {
        let rule = |threshold| PinRule::new([10, 10, 10, 10], threshold, 40);
        assert_eq!(rule(0.0).decision(Some(3)), PinDecision::Demote);
        assert_eq!(rule(1.0).decision(Some(0)), PinDecision::Pin);
        // Threshold above 1.0 is clamped.
        assert_eq!(rule(3.0).decision(Some(0)), PinDecision::Pin);
        // Untracked objects are never pinned regardless of threshold.
        assert_eq!(rule(1.0).decision(None), PinDecision::Demote);
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
