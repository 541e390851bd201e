//! Index structures the benchmark's probes and the microbenchmarks time.
//!
//! A PrismDB partition maps every NVM key to its slab address with an
//! off-the-shelf B-tree (§4.1, §6); the engine holds std's
//! [`std::collections::BTreeMap`] itself and does not use this
//! crate. [`BTreeIndex`] and [`Range`] name that map and its iterator,
//! and [`FastIndex`] mirrors it with one hash map ([`HashDirectory`]), a
//! second copy of every entry that bought the engine no end-to-end gain;
//! they stay for `benchmark/`'s probes.
//!
//! # Example
//!
//! ```
//! use prism_index::FastIndex;
//!
//! let mut index: FastIndex<u64, &str> = FastIndex::new();
//! index.insert(3, "c");
//! index.insert(1, "a");
//! index.insert(2, "b");
//! assert_eq!(index.get(&2), Some(&"b"));
//! let keys: Vec<u64> = index.range_from(&2).map(|(k, _)| *k).collect();
//! assert_eq!(keys, vec![2, 3]);
//! ```

mod point;

pub use point::{FastIndex, HashDirectory};
pub use std::collections::btree_map::Range;

/// The ordered index: the standard library's B-tree.
pub type BTreeIndex<K, V> = std::collections::BTreeMap<K, V>;

#[cfg(test)]
mod proptests {
    use super::{BTreeIndex, FastIndex, HashDirectory};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The combined index (tree + directory, mutations mirrored
        /// internally) behaves exactly like the ordered model for point
        /// lookups, membership, removal *and* ordered range iteration,
        /// under the churn compaction produces: keys removed and put back,
        /// and ranges resumed from a key that is gone.
        #[test]
        fn fast_index_matches_model(
            ops in prop::collection::vec((0u8..63, 0u64..200, 0u32..1000), 0..400),
            start in 0u64..200
        ) {
            let mut ours: FastIndex<u64, u32> = FastIndex::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (op, key, value) in ops {
                match op {
                    0..=27 => {
                        prop_assert_eq!(ours.insert(key, value), model.insert(key, value));
                    }
                    28..=41 => {
                        prop_assert_eq!(ours.remove(&key), model.remove(&key));
                    }
                    42..=51 => {
                        prop_assert_eq!(ours.get(&key), model.get(&key));
                        prop_assert_eq!(ours.contains_key(&key), model.contains_key(&key));
                    }
                    52..=57 => {
                        prop_assert_eq!(ours.remove(&key), model.remove(&key));
                        prop_assert_eq!(ours.insert(key, value), None);
                        model.insert(key, value);
                        prop_assert_eq!(ours.get(&key), Some(&value));
                    }
                    _ => {
                        prop_assert_eq!(ours.remove(&key), model.remove(&key));
                        let got: Vec<(u64, u32)> =
                            ours.range_from(&key).take(8).map(|(k, v)| (*k, *v)).collect();
                        let expected: Vec<(u64, u32)> =
                            model.range(key..).take(8).map(|(k, v)| (*k, *v)).collect();
                        prop_assert_eq!(got, expected);
                    }
                }
                prop_assert_eq!(ours.len(), model.len());
            }
            let got: Vec<(u64, u32)> = ours.range_from(&start).map(|(k, v)| (*k, *v)).collect();
            let expected: Vec<(u64, u32)> =
                model.range(start..).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expected);
        }

        /// The point-lookup fast path, maintained alongside the tree the
        /// way `FastIndex` maintains it (every insert/remove mirrored),
        /// never returns a stale or missing version: after any interleaving
        /// of operations, every lookup agrees with the ordered oracle.
        #[test]
        fn hash_directory_never_serves_stale_versions(
            ops in prop::collection::vec((0u8..3, 0u64..200, 0u32..1000), 0..400)
        ) {
            let mut tree: BTreeIndex<u64, u32> = BTreeIndex::new();
            let mut fast: HashDirectory<u64, u32> = HashDirectory::new();
            for (op, key, value) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(tree.insert(key, value), fast.insert(key, value));
                    }
                    1 => {
                        prop_assert_eq!(tree.remove(&key), fast.remove(&key));
                    }
                    _ => {
                        prop_assert_eq!(tree.get(&key), fast.get(&key));
                    }
                }
                prop_assert_eq!(tree.len(), fast.len());
            }
            for (key, value) in tree.iter() {
                prop_assert_eq!(fast.get(key), Some(value));
            }
        }
    }
}
