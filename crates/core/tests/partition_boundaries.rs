//! Partition-boundary edge cases for the range-partitioned engine.
//!
//! Range partitioning assigns each partition a contiguous key-id span of
//! `expected_keys * 2 / num_partitions` ids; these tests pin the behaviour
//! exactly at those seams — scans starting on a partition's last key,
//! deletes of keys that were never inserted, and scans that must skip
//! tombstones across partition boundaries — deterministically and under a
//! property-based sweep.

use std::collections::BTreeMap;

use proptest::prelude::*;

use prism_db::{Options, Partitioning, PrismDb};
use prism_types::{Key, KvStore, Value};

const EXPECTED_KEYS: u64 = 1_200;
const PARTITIONS: usize = 3;
/// Key-id span per partition (mirrors the engine's routing arithmetic).
const SPAN: u64 = EXPECTED_KEYS * 2 / PARTITIONS as u64;

fn range_db() -> PrismDb {
    let mut options = Options::scaled_default(EXPECTED_KEYS);
    options.num_partitions = PARTITIONS;
    options.partitioning = Partitioning::Range;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // Small NVM so boundary keys regularly live on flash, not just in
    // slabs.
    options.nvm_capacity_bytes = 128 * 1024;
    PrismDb::open(options).expect("valid options")
}

#[test]
fn scan_starting_exactly_on_a_partitions_last_key_crosses_the_seam() {
    let mut db = range_db();
    for id in 0..EXPECTED_KEYS {
        db.put(Key::from_id(id), Value::filled(300, 1)).unwrap();
    }
    // SPAN - 1 is the last id routed to partition 0; SPAN the first id of
    // partition 1.
    for start in [SPAN - 1, SPAN, 2 * SPAN - 1] {
        let got = db.scan(&Key::from_id(start), 10).unwrap();
        let ids: Vec<u64> = got.entries.iter().map(|(k, _)| k.id()).collect();
        let expected: Vec<u64> = (start..start + 10)
            .filter(|id| *id < EXPECTED_KEYS)
            .collect();
        assert_eq!(ids, expected, "scan from boundary id {start}");
    }
}

#[test]
fn deletes_of_never_inserted_keys_are_harmless_noops() {
    let mut db = range_db();
    for id in (0..EXPECTED_KEYS).step_by(2) {
        db.put(Key::from_id(id), Value::filled(200, 2)).unwrap();
    }
    // Delete keys that never existed: odd ids, boundary ids outside the
    // populated set, and ids past every partition's range.
    for id in [1, 3, SPAN - 1, SPAN + 1, EXPECTED_KEYS + 5, 10 * SPAN] {
        db.delete(&Key::from_id(id)).unwrap();
        assert!(db.get(&Key::from_id(id)).unwrap().value.is_none());
    }
    // The even keys are untouched.
    for id in (0..EXPECTED_KEYS).step_by(2).take(50) {
        assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
    }
    // And scans skip the deleted ids without gaps in the even sequence.
    let got = db.scan(&Key::from_id(0), 20).unwrap();
    let ids: Vec<u64> = got.entries.iter().map(|(k, _)| k.id()).collect();
    let expected: Vec<u64> = (0..EXPECTED_KEYS).step_by(2).take(20).collect();
    assert_eq!(ids, expected);
}

#[test]
fn scans_skip_tombstones_across_partition_boundaries() {
    let mut db = range_db();
    for id in 0..EXPECTED_KEYS {
        db.put(Key::from_id(id), Value::filled(300, 3)).unwrap();
    }
    // Tombstone a window straddling the partition 0 / partition 1 seam.
    for id in SPAN - 5..SPAN + 5 {
        db.delete(&Key::from_id(id)).unwrap();
    }
    let got = db.scan(&Key::from_id(SPAN - 10), 20).unwrap();
    let ids: Vec<u64> = got.entries.iter().map(|(k, _)| k.id()).collect();
    let expected: Vec<u64> = (SPAN - 10..SPAN - 5).chain(SPAN + 5..SPAN + 20).collect();
    assert_eq!(ids, expected, "tombstoned seam window must be skipped");
    // Scan starting inside the tombstoned window.
    let got = db.scan(&Key::from_id(SPAN), 5).unwrap();
    let ids: Vec<u64> = got.entries.iter().map(|(k, _)| k.id()).collect();
    assert_eq!(ids, (SPAN + 5..SPAN + 10).collect::<Vec<u64>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random put/delete churn concentrated around partition seams, then
    /// scans from seam-adjacent starts must agree exactly with a model.
    #[test]
    fn boundary_churn_matches_model(
        ops in prop::collection::vec((0u8..2, 0u64..3, 0u64..8, 1usize..600), 1..250),
        starts in prop::collection::vec((0u64..3, 0u64..8), 1..8),
    ) {
        let mut db = range_db();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        // Baseline data so scans always have something to cross into.
        for id in (0..EXPECTED_KEYS).step_by(7) {
            db.put(Key::from_id(id), Value::filled(120, 9)).unwrap();
            model.insert(id, 120);
        }
        for (op, seam, offset, size) in ops {
            // Keys hug a partition seam: seam * SPAN + [-4, +3].
            let id = (seam * SPAN + offset).saturating_sub(4).min(EXPECTED_KEYS - 1);
            let key = Key::from_id(id);
            if op == 0 {
                db.put(key, Value::filled(size, (id % 251) as u8)).unwrap();
                model.insert(id, size);
            } else {
                db.delete(&key).unwrap();
                model.remove(&id);
            }
        }
        for (seam, offset) in starts {
            let start = (seam * SPAN + offset).saturating_sub(4).min(EXPECTED_KEYS - 1);
            let got = db.scan(&Key::from_id(start), 25).unwrap();
            let got_pairs: Vec<(u64, usize)> =
                got.entries.iter().map(|(k, v)| (k.id(), v.len())).collect();
            let expected: Vec<(u64, usize)> = model
                .range(start..)
                .take(25)
                .map(|(id, size)| (*id, *size))
                .collect();
            prop_assert_eq!(got_pairs, expected, "scan from {}", start);
            // Point reads agree at the seam keys too.
            let lookup = db.get(&Key::from_id(start)).unwrap();
            prop_assert_eq!(lookup.value.map(|v| v.len()), model.get(&start).copied());
        }
    }
}
