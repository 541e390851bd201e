//! Multi-tiered storage compaction (MSC).
//!
//! This crate implements the paper's primary contribution (§5): a
//! cost-benefit model and selection algorithm that decides *which key range*
//! to compact from NVM to flash.
//!
//! * **Benefit** — the sum of the *coldness* of the NVM objects in the
//!   range, where `coldness(j) = 1 / (clock_j + 1)` and untracked objects
//!   have coldness 1.
//! * **Cost** — flash I/O per migrated byte: `F · (2 − o) / (1 − p) + 1`,
//!   where `F` is the flash/NVM fanout of the range, `o` the fraction of
//!   flash objects that overlap the NVM range and `p` the fraction of
//!   popular (pinned) NVM objects.
//! * **MSC score** = benefit / cost. The range with the highest score is
//!   compacted.
//!
//! Three selection policies are provided, matching Figure 6 of the paper:
//! [`CompactionPolicy::Random`] (the strawman), [`CompactionPolicy::PreciseMsc`]
//! (exact but CPU-hungry) and [`CompactionPolicy::ApproxMsc`] (the default:
//! per-bucket statistics maintained incrementally by [`BucketMap`]).
//! Candidate ranges are sampled with power-of-`k` choices.
//!
//! The crate also contains the read-triggered compaction controller (§5.3)
//! that turns on promotion-oriented compactions for read-heavy workloads.
//!
//! # Example
//!
//! ```
//! use prism_compaction::{BucketMap, msc_score};
//!
//! let mut buckets = BucketMap::new(1024);
//! for id in 0..2000u64 {
//!     buckets.on_nvm_insert(id);
//! }
//! // Keys 0..100 are hot (recently read); the rest are cold.
//! for id in 0..100u64 {
//!     buckets.on_access(id);
//! }
//! let cold_range = buckets.estimate(1024, 2047, 0.25);
//! let hot_range = buckets.estimate(0, 1023, 0.25);
//! assert!(msc_score(&cold_range) >= msc_score(&hot_range));
//! ```

mod bucket;
mod jobs;
mod msc;
mod planner;
mod read_triggered;

pub use bucket::BucketMap;
pub use jobs::{
    execute_job, CompactionJob, DemoteEntry, ExecutedJob, JobKind, MergedEntry, MergedOrigin,
};
pub use msc::{msc_score, RangeStats, RangeStatsBuilder};
pub use planner::{CompactionConfig, CompactionPlanner, CompactionPolicy};
pub use read_triggered::{ReadTriggerPhase, ReadTriggeredController};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Bucket estimates of NVM population track the true population for
        /// whole-bucket ranges regardless of the insert/remove pattern.
        #[test]
        fn bucket_population_is_exact_for_full_buckets(
            ops in prop::collection::vec((prop::bool::ANY, 0u64..4096), 1..600)
        ) {
            let mut buckets = BucketMap::new(1024);
            let mut live: HashSet<u64> = HashSet::new();
            for (insert, id) in ops {
                if insert {
                    if live.insert(id) {
                        buckets.on_nvm_insert(id);
                    }
                } else if live.remove(&id) {
                    buckets.on_nvm_remove(id);
                }
            }
            let stats = buckets.estimate(0, 4095, 1.0);
            prop_assert!((stats.nvm_objects - live.len() as f64).abs() < 1e-6);
        }

        /// The MSC score is higher (or equal) when a range is colder, all
        /// else being equal — the core property of the benefit model.
        #[test]
        fn colder_ranges_never_score_lower(
            nvm in 1.0f64..10_000.0,
            fanout in 0.1f64..50.0,
            overlap in 0.0f64..1.0,
            popular in 0.0f64..0.95,
            cold_a in 0.0f64..1.0,
            cold_b in 0.0f64..1.0,
        ) {
            let (colder, warmer) = if cold_a >= cold_b { (cold_a, cold_b) } else { (cold_b, cold_a) };
            let mk = |cold_fraction: f64| RangeStats {
                nvm_objects: nvm,
                flash_objects: nvm * fanout,
                benefit: nvm * cold_fraction,
                popular_fraction: popular,
                overlap_fraction: overlap,
                fanout,
            };
            prop_assert!(msc_score(&mk(colder)) >= msc_score(&mk(warmer)) - 1e-12);
        }

        /// Higher flash overlap (more stale data to drop) never lowers the
        /// score, and higher fanout never raises it.
        #[test]
        fn cost_model_monotonicity(
            nvm in 1.0f64..10_000.0,
            benefit in 0.0f64..10_000.0,
            popular in 0.0f64..0.95,
            o1 in 0.0f64..1.0,
            o2 in 0.0f64..1.0,
            f1 in 0.1f64..50.0,
            f2 in 0.1f64..50.0,
        ) {
            let mk = |o: f64, f: f64| RangeStats {
                nvm_objects: nvm,
                flash_objects: nvm * f,
                benefit,
                popular_fraction: popular,
                overlap_fraction: o,
                fanout: f,
            };
            let (hi_o, lo_o) = if o1 >= o2 { (o1, o2) } else { (o2, o1) };
            prop_assert!(msc_score(&mk(hi_o, f1)) >= msc_score(&mk(lo_o, f1)) - 1e-12);
            let (hi_f, lo_f) = if f1 >= f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(msc_score(&mk(o1, lo_f)) >= msc_score(&mk(o1, hi_f)) - 1e-12);
        }
    }
}
