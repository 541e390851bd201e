//! PrismDB: a key-value store for tiered NVM + flash storage.
//!
//! This crate is the core of the PrismDB reproduction (ASPLOS 2023,
//! "Efficient Compactions between Storage Tiers with PrismDB"). It combines
//! the substrate crates into the full engine:
//!
//! * all writes land in NVM slab files with in-place updates
//!   ([`prism_nvm`]),
//! * an in-memory B-tree indexes the NVM-resident objects
//!   ([`prism_index`]),
//! * cold objects are demoted to SST files in a sorted log on flash
//!   ([`prism_flash`]),
//! * a clock tracker and mapper decide which objects are hot enough to pin
//!   on NVM ([`prism_tracker`]),
//! * the multi-tiered storage compaction metric picks which key range to
//!   compact, balancing reclaimed cold data against flash I/O
//!   ([`prism_compaction`]),
//! * everything is partitioned share-nothing style, with virtual-time
//!   accounting of foreground work, background compactions and write
//!   stalls ([`prism_storage`]).
//!
//! The engine implements [`prism_types::KvStore`], the same trait as the
//! LSM baseline family in `prism-lsm`, so the benchmark harness can compare
//! them directly.
//!
//! # Quick start
//!
//! ```
//! use prism_db::{Options, PrismDb};
//! use prism_types::{Key, KvStore, Value};
//!
//! let options = Options::builder(10_000).partitions(2).build()?;
//! let mut db = PrismDb::open(options)?;
//! for id in 0..100u64 {
//!     db.put(Key::from_id(id), Value::filled(512, id as u8))?;
//! }
//! let hit = db.get(&Key::from_id(42))?;
//! assert!(hit.value.is_some());
//! let scan = db.scan(&Key::from_id(90), 5)?;
//! assert_eq!(scan.entries.len(), 5);
//! # Ok::<(), prism_types::PrismError>(())
//! ```

mod cache;
mod engine;
mod options;
mod partition;
mod sequence;
mod workers;

pub use cache::CacheStats;
pub use engine::PrismDb;
pub use options::{Options, OptionsBuilder, Partitioning};
pub use partition::ScrubReport;
// Fault-injection and integrity vocabulary, re-exported so engine users
// can configure a plan and read health/integrity state without depending
// on the substrate crates directly.
pub use prism_storage::{
    FaultCountersSnapshot, FaultMode, FaultOp, FaultPlan, FaultTier, TargetedFault, TierFaultRates,
};
// `LruCache` lives beside `Key` / `Value` (the LSM baseline shares it);
// the benchmark names it by this path.
pub use prism_types::{IntegrityStats, LruCache, PartitionHealth};

#[cfg(test)]
mod proptests {
    use super::*;
    use prism_types::{Key, KvStore, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// PrismDB behaves like a plain map under arbitrary interleavings of
        /// puts, gets and deletes, including across compactions.
        #[test]
        fn engine_matches_model(
            ops in prop::collection::vec((0u8..3, 0u64..300, 1usize..1200), 1..400)
        ) {
            let mut options = Options::scaled_default(300);
            options.num_partitions = 2;
            options.compaction.bucket_size_keys = 128;
            options.sst_target_bytes = 16 * 1024;
            // Keep NVM tiny so compactions actually happen mid-test.
            options.nvm_capacity_bytes = 96 * 1024;
            let mut db = PrismDb::open(options).unwrap();
            let mut model: HashMap<u64, usize> = HashMap::new();

            for (op, id, size) in ops {
                let key = Key::from_id(id);
                match op {
                    0 => {
                        db.put(key, Value::filled(size, id as u8)).unwrap();
                        model.insert(id, size);
                    }
                    1 => {
                        db.delete(&key).unwrap();
                        model.remove(&id);
                    }
                    _ => {
                        let got = db.get(&key).unwrap();
                        match model.get(&id) {
                            Some(expected) => {
                                let value = got.value.expect("model says the key exists");
                                prop_assert_eq!(value.len(), *expected);
                            }
                            None => prop_assert!(got.value.is_none()),
                        }
                    }
                }
            }
            // Final sweep: every model key must be readable with the right size.
            for (id, size) in &model {
                let got = db.get(&Key::from_id(*id)).unwrap();
                prop_assert_eq!(got.value.expect("key must exist").len(), *size);
            }
        }
    }
}
