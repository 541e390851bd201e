//! The leveled LSM-tree baseline family.
//!
//! The paper compares PrismDB against RocksDB and several systems built on
//! top of RocksDB-style LSM trees. This crate implements a from-scratch
//! leveled LSM engine — memtable, WAL, L0 plus leveled SST files (reusing
//! the SST format from `prism-flash`), bloom filters, a DRAM block cache,
//! leveled compaction and per-level device placement — plus configuration
//! presets reproducing each baseline used in the evaluation:
//!
//! | Preset | Paper baseline |
//! |---|---|
//! | [`LsmConfig::single_tier`] | RocksDB on a single device (NVM / TLC / QLC) |
//! | [`LsmConfig::het`] | Multi-tier RocksDB: upper levels on NVM, bottom level on flash |
//! | [`LsmConfig::l2_cache`] | `rocksdb-l2c`: all levels on flash, NVM as a second-level read cache |
//! | [`LsmConfig::read_aware`] | `rocksdb-RA`: pinned compactions that retain hot objects on NVM levels |
//! | [`LsmConfig::mutant`] | Mutant: per-SST-file placement by file access temperature |
//! | [`LsmConfig::spandb`] | SpanDB: NVM WAL with SPDK-style logging and top levels on NVM |
//!
//! All presets implement [`prism_types::KvStore`], so the benchmark harness
//! drives them exactly like PrismDB.
//!
//! The tree's shape is fixed at the paper's RocksDB setup, so it is not
//! part of [`LsmConfig`]: five levels (L0–L3 on NVM and L4 on QLC for the
//! `het` presets), an L0 compacted into L1 once it holds more than four
//! files, level size targets growing tenfold, and eight client clocks.
//! Writes take one path: a put or a delete is a write group of one entry,
//! paying the WAL append and the serialised section a batch pays once.
//! Flushes and compactions cut their sorted output into SST files through
//! [`prism_flash::write_run`], the routine PrismDB's compactions use.
//!
//! # Example
//!
//! ```
//! use prism_lsm::{LsmConfig, LsmTree};
//! use prism_types::{Key, KvStore, Value};
//!
//! let mut db = LsmTree::open(LsmConfig::het(10_000, 0.2)).unwrap();
//! db.put(Key::from_id(1), Value::filled(256, 7)).unwrap();
//! assert!(db.get(&Key::from_id(1)).unwrap().value.is_some());
//! ```

mod config;
mod engine;
mod locked;
mod memtable;

pub use config::{LsmConfig, Tier};
pub use engine::LsmTree;
pub use locked::LockedLsmTree;

#[cfg(test)]
mod proptests {
    use super::*;
    use prism_types::{Key, KvStore, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The LSM engine behaves like a plain map under arbitrary puts,
        /// deletes and gets, across flushes and compactions.
        #[test]
        fn lsm_matches_model(
            ops in prop::collection::vec((0u8..3, 0u64..200, 1usize..900), 1..300)
        ) {
            let mut config = LsmConfig::het(200, 0.2);
            config.memtable_bytes = 16 * 1024;
            config.sst_target_bytes = 16 * 1024;
            let mut db = LsmTree::open(config).unwrap();
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
                                prop_assert_eq!(got.value.expect("key must exist").len(), *expected);
                            }
                            None => prop_assert!(got.value.is_none()),
                        }
                    }
                }
            }
            for (id, size) in &model {
                let got = db.get(&Key::from_id(*id)).unwrap();
                prop_assert_eq!(got.value.expect("key must exist").len(), *size);
            }
        }
    }
}
