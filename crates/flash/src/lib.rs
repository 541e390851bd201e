//! Flash data layout: bloom filters, SST files and the sorted log.
//!
//! PrismDB stores cold data on flash as Sorted String Table (SST) files in a
//! log (§4.1 of the paper). Each SST file holds a disjoint key range, an
//! index of its 4 KB data blocks, and a bloom filter; the index and filter
//! are kept on NVM so that a flash I/O is only issued when the object is
//! very likely present. The same SST format is reused by the LSM baseline
//! family in `prism-lsm`, exactly as the paper's PrismDB reuses LevelDB's
//! SST format.
//!
//! The crate provides:
//!
//! * [`BloomFilter`] — a classic partitioned-hash bloom filter,
//! * [`SstBuilder`] / [`SstFile`] — building and querying immutable sorted
//!   files made of 4 KB blocks,
//! * [`SortedLog`] — the single-level, non-overlapping file log PrismDB
//!   uses by default when NVM holds ≥ 10 % of the database, and the one
//!   record of a partition's flash files: it hands out their ids, stamps
//!   each file list with a generation, and frees a file replaced by
//!   compaction once no reader holds it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use prism_flash::{SstBuilder, SstEntry, SortedLog};
//! use prism_storage::{Device, DeviceProfile};
//! use prism_types::{Key, Value};
//!
//! let flash = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
//! let mut builder = SstBuilder::new(1);
//! for id in 0..100u64 {
//!     builder.add(Key::from_id(id), SstEntry::value(Value::filled(100, 1), id));
//! }
//! let (sst, _cost) = builder.finish(&flash);
//! let mut log = SortedLog::new();
//! log.install(&[], vec![Arc::new(sst)]);
//! let hit = log.lookup(&Key::from_id(42)).unwrap();
//! assert!(hit.probe(&Key::from_id(42)).may_contain);
//! ```

mod bloom;
mod sorted_log;
mod sst;

pub use bloom::BloomFilter;
pub use sorted_log::{LogPosition, SortedLog};
pub use sst::{encoded_size, BlockProbe, FileId, SstBuilder, SstEntry, SstFile};

#[cfg(test)]
mod proptests {
    use super::*;
    use prism_storage::{Device, DeviceProfile};
    use prism_types::{Key, Value};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A bloom filter never produces a false negative.
        #[test]
        fn bloom_has_no_false_negatives(keys in prop::collection::hash_set(0u64..100_000, 1..500)) {
            let mut bloom = BloomFilter::new(keys.len(), 10);
            for &k in &keys {
                bloom.add(&Key::from_id(k));
            }
            for &k in &keys {
                prop_assert!(bloom.may_contain(&Key::from_id(k)));
            }
        }

        /// SST lookups agree with an ordered-map model for both present and
        /// absent keys.
        #[test]
        fn sst_lookup_matches_model(ids in prop::collection::btree_set(0u64..10_000, 1..400)) {
            let flash = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
            let mut builder = SstBuilder::new(7);
            let mut model = BTreeMap::new();
            for &id in &ids {
                let value = Value::filled((id % 700 + 1) as usize, id as u8);
                builder.add(Key::from_id(id), SstEntry::value(value.clone(), id));
                model.insert(id, value);
            }
            let (sst, _) = builder.finish(&flash);
            for probe_id in (0..10_000u64).step_by(53) {
                let key = Key::from_id(probe_id);
                let probe = sst.probe(&key);
                match model.get(&probe_id) {
                    Some(expected) => {
                        let entry = probe.entry.expect("present key must be found");
                        prop_assert_eq!(entry.value.as_ref().unwrap(), expected);
                        prop_assert!(probe.data_block_bytes > 0);
                    }
                    None => {
                        prop_assert!(probe.entry.is_none());
                    }
                }
            }
        }

        /// An SST record round-trips its checksum, and flipping any single
        /// bit of the stored value is always detected; tombstones catch
        /// timestamp damage the same way.
        #[test]
        fn sst_record_checksum_catches_any_single_bit_flip(
            ts in 0u64..u64::MAX,
            bytes in prop::collection::vec(0u8..255, 1..2048),
            flip_at in 0usize..usize::MAX,
            flip_bit in 0u32..8,
        ) {
            let entry = SstEntry::value(Value::from_vec(bytes.clone()), ts);
            prop_assert!(entry.verify(), "clean record must round-trip");

            let mut damaged = bytes;
            let idx = flip_at % damaged.len();
            damaged[idx] ^= 1 << flip_bit;
            let flipped = SstEntry {
                value: Some(Value::from_vec(damaged)),
                ..entry.clone()
            };
            prop_assert!(!flipped.verify(), "a single bit flip must fail the CRC");

            let tomb = SstEntry::tombstone(ts);
            prop_assert!(tomb.verify());
            let tomb_flip = SstEntry { timestamp: tomb.timestamp ^ 1, ..tomb };
            prop_assert!(!tomb_flip.verify());

            // A value record cannot masquerade as a tombstone or vice
            // versa: the CRC domain-separates the two shapes.
            let emptied = SstEntry { value: None, ..entry };
            prop_assert!(!emptied.verify());
        }

        /// A torn record whose value lost its tail (any strictly shorter
        /// prefix) is always rejected — the CRC covers the length.
        #[test]
        fn truncated_sst_records_are_rejected(
            ts in 0u64..u64::MAX,
            bytes in prop::collection::vec(0u8..255, 1..2048),
            keep in 0usize..usize::MAX,
        ) {
            let entry = SstEntry::value(Value::from_vec(bytes.clone()), ts);
            let keep = keep % bytes.len();
            let torn = SstEntry {
                value: Some(Value::from_vec(bytes[..keep].to_vec())),
                ..entry
            };
            prop_assert!(!torn.verify(), "a truncated record must fail the CRC");
        }

        /// File-level integrity: block and footer checksums chain the
        /// record CRCs, so a file built clean verifies, and damaging any
        /// one record breaks both the record and its containing block —
        /// `corrupt_keys` pinpoints exactly the damaged key.
        #[test]
        fn sst_file_checksums_localise_a_damaged_record(
            ids in prop::collection::btree_set(0u64..5_000, 2..200),
            victim in 0usize..usize::MAX,
            flip_bit in 0u32..8,
        ) {
            let flash = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
            let mut builder = SstBuilder::new(11);
            for &id in &ids {
                let value = Value::filled((id % 300 + 1) as usize, id as u8);
                builder.add(Key::from_id(id), SstEntry::value(value, id + 1));
            }
            let (sst, _) = builder.finish(&flash);
            prop_assert!(sst.verify_integrity(), "a clean file must verify");
            prop_assert!(sst.corrupt_keys().is_empty());

            // Rebuild the same file with one record bit-flipped after its
            // checksum was computed (what a write-path fault does).
            let victim_id = *ids.iter().nth(victim % ids.len()).unwrap();
            let mut builder = SstBuilder::new(12);
            for &id in &ids {
                let value = Value::filled((id % 300 + 1) as usize, id as u8);
                let mut entry = SstEntry::value(value, id + 1);
                if id == victim_id {
                    let mut damaged = entry.value.as_ref().unwrap().as_bytes().to_vec();
                    damaged[0] ^= 1 << flip_bit;
                    entry.value = Some(Value::from_vec(damaged));
                }
                builder.add(Key::from_id(id), entry);
            }
            let (damaged_sst, _) = builder.finish(&flash);
            let corrupt = damaged_sst.corrupt_keys();
            prop_assert_eq!(corrupt.len(), 1);
            prop_assert_eq!(corrupt[0].id(), victim_id);
            let probe = damaged_sst.probe(&Key::from_id(victim_id));
            prop_assert!(probe.corrupt, "the probe must withhold the damaged record");
            prop_assert!(probe.entry.is_none());
        }
    }
}
