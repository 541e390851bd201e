//! Workload generators: YCSB, key distributions, and Twitter-trace
//! synthetics.
//!
//! The paper evaluates PrismDB with the YCSB core workloads (A–F) under
//! several Zipfian skew levels, and with three Twitter production cache
//! traces chosen for their read/write mix (write-heavy cluster 39, mixed
//! cluster 19, read-heavy cluster 51). This crate reproduces those
//! workloads as deterministic operation streams:
//!
//! * [`Distribution`] / key choosers — uniform, YCSB-style scrambled
//!   Zipfian, and "latest" (recency-skewed) request distributions,
//! * [`Workload`] — an operation mix (reads / updates / inserts /
//!   read-modify-writes / scans), a key distribution and an object size,
//!   with constructors for YCSB A–F and the Twitter clusters,
//! * [`OpStream`] — an iterator of [`prism_types::Op`] driven by a seeded
//!   RNG, plus a loader for the initial dataset.
//!
//! # Example
//!
//! ```
//! use prism_workloads::Workload;
//!
//! let workload = Workload::ycsb_a(10_000).with_zipf(0.99);
//! let ops: Vec<_> = workload.stream(42).take(1000).collect();
//! assert_eq!(ops.len(), 1000);
//! let reads = ops.iter().filter(|op| matches!(op, prism_types::Op::Read(_))).count();
//! // YCSB-A is a 50/50 read/update mix.
//! assert!(reads > 350 && reads < 650);
//! ```

mod dist;
mod spec;
mod stream;

pub use dist::Distribution;
pub use spec::{OpMix, Workload};
pub use stream::OpStream;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every generated operation targets a key inside the configured key
        /// space (inserts may extend it by exactly the number of inserts
        /// issued so far).
        #[test]
        fn ops_stay_in_key_space(keys in 100u64..5_000, seed in 0u64..1_000, theta in 0.4f64..1.2) {
            let workload = Workload::ycsb_d(keys).with_zipf(theta);
            let mut inserts = 0u64;
            for op in workload.stream(seed).take(2_000) {
                let id = op.key().id();
                prop_assert!(id < keys + inserts + 1, "key {id} outside space");
                if matches!(op, prism_types::Op::Insert(_, _)) {
                    inserts += 1;
                }
            }
        }

        /// The same seed always produces the same operation stream.
        #[test]
        fn streams_are_deterministic(seed in 0u64..10_000) {
            let workload = Workload::ycsb_b(1_000);
            let a: Vec<u64> = workload.stream(seed).take(500).map(|op| op.key().id()).collect();
            let b: Vec<u64> = workload.stream(seed).take(500).map(|op| op.key().id()).collect();
            prop_assert_eq!(a, b);
        }
    }
}
