//! Property test for pinned-snapshot isolation.
//!
//! The contract under test: a snapshot pinned at time T observes exactly
//! the state a [`MemStore`] oracle held at T — for every key and for
//! scans — no matter how many puts, deletes, overwrites and batch
//! commits land after the pin, and no matter how many demotion/promotion
//! compactions the engine runs in between (the engine is configured with
//! NVM far smaller than the dataset, so post-pin writes force superseded
//! versions through the slab reclamation and flash demotion machinery
//! while the pin is live).

use proptest::prelude::*;

use prism_db::{Options, Partitioning, PrismDb};
use prism_types::{ConcurrentKvStore, Key, KvStore, MemStore, Value, WriteBatch};

const KEY_SPACE: u64 = 300;
const PARTITIONS: usize = 3;

fn small_db(partitioning: Partitioning) -> PrismDb {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = PARTITIONS;
    options.partitioning = partitioning;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // NVM much smaller than the dataset so the post-pin phase triggers
    // compactions that demote/reclaim versions the snapshot still needs.
    options.nvm_capacity_bytes = 96 * 1024;
    PrismDb::open(options).expect("valid options")
}

/// `(op, id, size)`: op 0 = put, 1 = delete, 2 = multi-key batch seeded
/// from (id, size).
fn op_strategy() -> impl Strategy<Value = (u8, u64, usize)> {
    (0u8..3, 0u64..KEY_SPACE, 1usize..900)
}

/// Apply one op to both the engine and the live oracle.
fn apply(db: &PrismDb, oracle: &mut MemStore, (op, id, size): (u8, u64, usize)) {
    match op {
        0 => {
            let value = Value::filled(size, id as u8);
            db.put(Key::from_id(id), value.clone()).unwrap();
            oracle.put(Key::from_id(id), value).unwrap();
        }
        1 => {
            db.delete(&Key::from_id(id)).unwrap();
            oracle.delete(&Key::from_id(id)).unwrap();
        }
        _ => {
            // A small cross-partition batch: the same key set derived
            // deterministically from (id, size).
            let mut batch = WriteBatch::new();
            let mut mem = WriteBatch::new();
            for step in 0..3u64 {
                let kid = (id + step * (KEY_SPACE / 3)) % KEY_SPACE;
                let value = Value::filled(size, kid as u8);
                batch.put(Key::from_id(kid), value.clone());
                mem.put(Key::from_id(kid), value);
            }
            ConcurrentKvStore::apply_batch(db, batch).unwrap();
            oracle.apply_batch(mem).unwrap();
        }
    }
}

fn assert_snapshot_matches_frozen_oracle(
    db: &PrismDb,
    snap: prism_types::SnapshotId,
    frozen: &MemStore,
    context: &str,
) {
    let expected: Vec<(Key, Value)> = frozen
        .entries()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for id in 0..KEY_SPACE {
        let key = Key::from_id(id);
        let got = db.snapshot_get(snap, &key).unwrap();
        let want = expected
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone());
        assert_eq!(got, want, "{context}: snapshot key {id} diverged");
    }
    let got = db
        .snapshot_scan(snap, &Key::min(), KEY_SPACE as usize + 10)
        .unwrap();
    assert_eq!(got, expected, "{context}: snapshot scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Range-partitioned engine: a pinned snapshot equals the oracle
    /// frozen at pin time, regardless of interleaved post-pin writes.
    #[test]
    fn snapshot_equals_frozen_oracle_range(
        before in prop::collection::vec(op_strategy(), 1..120),
        after in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let db = small_db(Partitioning::Range);
        let mut oracle = MemStore::default();
        for op in before {
            apply(&db, &mut oracle, op);
        }
        let snap = db.snapshot().unwrap();
        let frozen = oracle.clone();
        for op in after {
            apply(&db, &mut oracle, op);
        }
        assert_snapshot_matches_frozen_oracle(&db, snap, &frozen, "range");
        db.release_snapshot(snap);
        // Live reads meanwhile track the *live* oracle, not the frozen one.
        for id in 0..KEY_SPACE {
            let key = Key::from_id(id);
            let got = ConcurrentKvStore::get(&db, &key).unwrap().value;
            let expected = oracle.get(&key).unwrap().value;
            prop_assert_eq!(got, expected, "range: live key {} diverged", id);
        }
    }

    /// Hash-partitioned engine: same contract (scans merge-sort across
    /// all partitions, a different code path).
    #[test]
    fn snapshot_equals_frozen_oracle_hash(
        before in prop::collection::vec(op_strategy(), 1..120),
        after in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let db = small_db(Partitioning::Hash);
        let mut oracle = MemStore::default();
        for op in before {
            apply(&db, &mut oracle, op);
        }
        let snap = db.snapshot().unwrap();
        let frozen = oracle.clone();
        for op in after {
            apply(&db, &mut oracle, op);
        }
        assert_snapshot_matches_frozen_oracle(&db, snap, &frozen, "hash");
        db.release_snapshot(snap);
    }
}
