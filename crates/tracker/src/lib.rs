//! Popularity tracking: the clock tracker and the pin rule.
//!
//! PrismDB estimates object popularity with a multi-bit clock algorithm
//! (§4.3 of the paper): a capacity-bounded map from recently-accessed keys
//! to a 2-bit clock value. Where a key's newest version lives is not kept
//! here but in the engine's bucket map, whose NVM and flash residency bits
//! promotion planning and approx-MSC read. The *tracker* maintains that
//! map and counts its distribution of clock values on demand
//! ([`ClockTracker::clock_counts`]); a [`PinRule`] turns that count and a
//! configured *pinning threshold* (the fraction of tracked objects that
//! should stay on NVM) into per-object pin/demote decisions, sampling the
//! boundary clock class probabilistically when it straddles the threshold.
//! The paper's *mapper* keeps the distribution up to date from every
//! access instead; [`Mapper`] is that mirror, fed by its caller.
//!
//! # Example
//!
//! ```
//! use prism_tracker::{ClockTracker, PinDecision, PinRule};
//! use prism_types::Key;
//!
//! let mut tracker = ClockTracker::new(100);
//! for id in 0..50u64 {
//!     tracker.access(&Key::from_id(id), false);
//!     // A second access promotes the key to the maximum clock value.
//!     tracker.access(&Key::from_id(id), false);
//! }
//! // With a 100% pinning threshold every tracked object may be pinned.
//! let rule = PinRule::new(tracker.clock_counts(), 1.0, tracker.len());
//! assert_eq!(rule.decision(Some(3)), PinDecision::Pin);
//! // Untracked objects are always demoted.
//! assert_eq!(rule.decision(None), PinDecision::Demote);
//! ```

mod clock;
mod mapper;
mod sketch;

pub use clock::{AccessEvent, ClockTracker, MAX_CLOCK};
pub use mapper::{Mapper, PinDecision, PinRule};
pub use sketch::FrequencySketch;

#[cfg(test)]
mod proptests {
    use super::*;
    use prism_types::Key;
    use proptest::prelude::*;
    use std::iter;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tracker never exceeds its capacity and the mapper's histogram
        /// is always the tracker's count of keys per clock value.
        #[test]
        fn capacity_and_histogram_invariants(
            capacity in 4usize..64,
            accesses in prop::collection::vec((0u64..200, prop::bool::ANY), 1..800)
        ) {
            let mut tracker = ClockTracker::new(capacity);
            let mapper = Mapper::new();
            for (id, on_flash) in accesses {
                let event = tracker.access(&Key::from_id(id), on_flash);
                mapper.apply(&event);
                prop_assert!(tracker.len() <= capacity);
                let total: u64 = mapper.histogram().iter().sum();
                prop_assert_eq!(total as usize, tracker.len());
                prop_assert_eq!(mapper.histogram(), tracker.clock_counts());
            }
        }

        /// A pin rule over the tracker's counted distribution decides as
        /// a `Mapper` does that was fed every `AccessEvent` (the benchmark
        /// probe's path) of a twin tracker, which takes each lock-free
        /// touch of a tracked key as an access.
        #[test]
        fn a_counted_pin_rule_decides_as_a_mapper_fed_every_access(
            capacity in 4usize..64,
            ops in prop::collection::vec((0u64..200, prop::bool::ANY), 1..800),
            threshold in 0.0f64..1.0
        ) {
            let mut tracker = ClockTracker::new(capacity);
            let (mut twin, mapper) = (ClockTracker::new(capacity), Mapper::new());
            for (id, touch) in ops {
                let key = Key::from_id(id);
                if touch {
                    if tracker.touch(&key, false).is_some() {
                        mapper.apply(&twin.access(&key, false));
                    }
                } else {
                    tracker.access(&key, false);
                    mapper.apply(&twin.access(&key, false));
                }
                prop_assert_eq!(tracker.clock_of(&key), twin.clock_of(&key));
                let rule = PinRule::new(tracker.clock_counts(), threshold, tracker.len());
                for clock in iter::once(None).chain((0..=MAX_CLOCK).map(Some)) {
                    let mirrored = mapper.pin_decision(clock, threshold, twin.len());
                    prop_assert_eq!(rule.decision(clock), mirrored);
                }
            }
        }

        /// `next_victim` names exactly the key the next access of an
        /// untracked key evicts, and nothing while the tracker has room,
        /// whatever mix of accesses and lock-free touches came before.
        #[test]
        fn next_victim_is_the_key_the_next_access_evicts(
            capacity in 1usize..32,
            ops in prop::collection::vec((0u64..100, prop::bool::ANY), 1..600)
        ) {
            let mut tracker = ClockTracker::new(capacity);
            for (id, touch_only) in ops {
                let key = Key::from_id(id);
                if touch_only {
                    tracker.touch(&key, false);
                    continue;
                }
                let named = tracker.next_victim().cloned();
                let untracked = tracker.clock_of(&key).is_none();
                let evicted = tracker.access(&key, false).evicted;
                if untracked {
                    prop_assert_eq!(named, evicted);
                } else {
                    prop_assert_eq!(evicted, None);
                }
            }
        }

        /// Pin decisions are monotone in the clock value: if a clock class is
        /// pinned, every hotter class is pinned too.
        #[test]
        fn pin_decisions_are_monotone(
            counts in prop::array::uniform4(0u64..1000),
            threshold in 0.0f64..1.0
        ) {
            let tracked: u64 = counts.iter().sum();
            let rule = PinRule::new(counts, threshold, tracked as usize);
            let mut seen_non_pin = false;
            for clock in (0..=MAX_CLOCK).rev() {
                let decision = rule.decision(Some(clock));
                match decision {
                    PinDecision::Pin => {
                        prop_assert!(!seen_non_pin, "a hotter class was not pinned while a colder one was");
                    }
                    _ => seen_non_pin = true,
                }
            }
        }
    }
}
