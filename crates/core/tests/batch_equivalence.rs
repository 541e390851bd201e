//! Property tests for the batched write path.
//!
//! The contract under test: `apply_batch` is observationally equivalent to
//! applying the same entries front to back with per-op `put`/`delete` —
//! for arbitrary put/delete interleavings, duplicate keys inside one
//! batch (the last entry must win) and batches straddling partition
//! seams. Only *visible state* must match (point reads over the whole key
//! universe plus scans); simulated costs legitimately differ, that being
//! the point of batching.
//!
//! The same properties also run over [`mixed_key`]s: distinct keys that
//! share their first eight bytes (and so their [`Key::id`], partition and
//! compaction bucket) are still distinct keys — a batch holding two of
//! them writes both.

use proptest::prelude::*;

use prism_db::{Options, Partitioning, PrismDb};
use prism_types::{ConcurrentKvStore, Key, KvStore, MemStore, Value, WriteBatch};

const KEY_SPACE: u64 = 400;
const PARTITIONS: usize = 3;
/// Key-id span per partition under range partitioning (mirrors the
/// engine's routing arithmetic).
const SPAN: u64 = KEY_SPACE * 2 / PARTITIONS as u64;

fn small_db(partitioning: Partitioning) -> PrismDb {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = PARTITIONS;
    options.partitioning = partitioning;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // NVM far smaller than the dataset so batches regularly trip
    // watermark compactions and forced reclamation mid-group.
    options.nvm_capacity_bytes = 96 * 1024;
    PrismDb::open(options).expect("valid options")
}

/// `(op, id, size)`: op 0 = put, 1 = delete; ids deliberately clustered
/// around partition seams (the modulo folds the upper range onto seam
/// neighbourhoods) so batches straddle partitions often.
fn op_strategy() -> impl Strategy<Value = (u8, u64, usize)> {
    (0u8..2, 0u64..KEY_SPACE, 1usize..900)
}

/// A key universe where most keys are longer than eight bytes and every
/// [`Key::id`] is shared: of four consecutive ids the first is the plain
/// 8-byte key, the next two append one byte to its bytes (still inline)
/// and the last appends twenty (spilled to the heap).
fn mixed_key(id: u64) -> Key {
    let mut bytes = (id - id % 4).to_be_bytes().to_vec();
    match id % 4 {
        0 => {}
        1 => bytes.push(b'A'),
        2 => bytes.push(b'B'),
        _ => bytes.extend_from_slice(&[0x42; 20]),
    }
    Key::from_bytes(bytes)
}

type KeyOf = fn(u64) -> Key;

fn apply_sequential(db: &mut PrismDb, ops: &[(u8, u64, usize)], key_of: KeyOf) {
    for (op, id, size) in ops {
        let key = key_of(*id);
        match op {
            0 => {
                db.put(key, Value::filled(*size, *id as u8)).unwrap();
            }
            _ => {
                db.delete(&key).unwrap();
            }
        }
    }
}

fn apply_batched(db: &PrismDb, ops: &[(u8, u64, usize)], chunk: usize, key_of: KeyOf) {
    for window in ops.chunks(chunk.max(1)) {
        let mut batch = WriteBatch::with_capacity(window.len());
        for (op, id, size) in window {
            let key = key_of(*id);
            match op {
                0 => batch.put(key, Value::filled(*size, *id as u8)),
                _ => batch.delete(key),
            }
        }
        db.apply_batch(batch).unwrap();
    }
}

/// Compare full visible state: every key in the universe point-reads
/// identically and a full scan returns identical entries.
fn assert_same_state(batched: &PrismDb, sequential: &mut PrismDb, key_of: KeyOf, context: &str) {
    for id in 0..KEY_SPACE {
        let key = key_of(id);
        let got = ConcurrentKvStore::get(batched, &key).unwrap().value;
        let expected = sequential.get(&key).unwrap().value;
        assert_eq!(got, expected, "{context}: key {id} diverged");
    }
    let got = ConcurrentKvStore::scan(batched, &Key::min(), KEY_SPACE as usize + 10)
        .unwrap()
        .entries;
    let expected = sequential
        .scan(&Key::min(), KEY_SPACE as usize + 10)
        .unwrap()
        .entries;
    assert_eq!(got, expected, "{context}: scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `apply_batch` ≡ sequential per-op application for arbitrary
    /// put/delete interleavings and chunk sizes, on the hash-partitioned
    /// engine (batches almost always span partitions).
    #[test]
    fn batched_application_matches_sequential_hash(
        ops in prop::collection::vec(op_strategy(), 1..250),
        chunk in 1usize..40,
    ) {
        let batched = small_db(Partitioning::Hash);
        let mut sequential = small_db(Partitioning::Hash);
        apply_batched(&batched, &ops, chunk, Key::from_id);
        apply_sequential(&mut sequential, &ops, Key::from_id);
        assert_same_state(&batched, &mut sequential, Key::from_id, "hash");
    }

    /// Same equivalence on the range-partitioned engine (batches mostly
    /// stay inside one partition and cross a seam now and then).
    #[test]
    fn batched_application_matches_sequential_range(
        ops in prop::collection::vec(op_strategy(), 1..250),
        chunk in 1usize..40,
    ) {
        let batched = small_db(Partitioning::Range);
        let mut sequential = small_db(Partitioning::Range);
        apply_batched(&batched, &ops, chunk, Key::from_id);
        apply_sequential(&mut sequential, &ops, Key::from_id);
        assert_same_state(&batched, &mut sequential, Key::from_id, "range");
    }

    /// The same equivalence over keys that share eight-byte prefixes,
    /// under both partitionings, checked against the `MemStore` model as
    /// well: neither engine path may fold two such keys into one.
    #[test]
    fn batched_application_matches_sequential_with_prefix_sharing_keys(
        ops in prop::collection::vec(op_strategy(), 1..250),
        chunk in 1usize..40,
    ) {
        for partitioning in [Partitioning::Hash, Partitioning::Range] {
            let batched = small_db(partitioning);
            let mut sequential = small_db(partitioning);
            apply_batched(&batched, &ops, chunk, mixed_key);
            apply_sequential(&mut sequential, &ops, mixed_key);
            assert_same_state(&batched, &mut sequential, mixed_key, "prefix-sharing");
            let mut model = MemStore::default();
            for (op, id, size) in &ops {
                match op {
                    0 => model.put(mixed_key(*id), Value::filled(*size, *id as u8)).unwrap(),
                    _ => model.delete(&mixed_key(*id)).unwrap(),
                };
            }
            let everything = KEY_SPACE as usize + 10;
            prop_assert_eq!(
                ConcurrentKvStore::scan(&batched, &Key::min(), everything).unwrap().entries,
                model.scan(&Key::min(), everything).unwrap().entries,
                "{:?}: the batched engine diverged from the model", partitioning
            );
        }
    }

    /// Duplicate keys inside one batch: the last entry must win, exactly
    /// as sequential application ends up. Keys are drawn from a tiny
    /// universe so nearly every batch has duplicates.
    #[test]
    fn duplicate_keys_in_one_batch_last_entry_wins(
        ops in prop::collection::vec((0u8..2, 0u64..12, 1usize..600), 2..120),
    ) {
        let batched = small_db(Partitioning::Hash);
        let mut sequential = small_db(Partitioning::Hash);
        // The whole op vector as ONE batch.
        apply_batched(&batched, &ops, ops.len(), Key::from_id);
        apply_sequential(&mut sequential, &ops, Key::from_id);
        assert_same_state(&batched, &mut sequential, Key::from_id, "duplicates");
        // The merge must actually have happened (duplicates guaranteed by
        // the pigeonhole when more than 12 entries).
        if ops.len() > 12 {
            prop_assert!(
                ConcurrentKvStore::stats(&batched).batch_merged_writes > 0,
                "a batch with duplicate keys must merge slab writes"
            );
        }
    }
}

/// Deterministic partition-seam case: one batch writing both sides of
/// every range seam, with in-batch overwrites and deletes of seam keys.
#[test]
fn batch_straddling_partition_seams_matches_sequential() {
    let batched = small_db(Partitioning::Range);
    let mut sequential = small_db(Partitioning::Range);
    let mut ops: Vec<(u8, u64, usize)> = Vec::new();
    for seam in [SPAN, 2 * SPAN] {
        for id in [seam - 2, seam - 1, seam, seam + 1] {
            ops.push((0, id, 300));
        }
        // Overwrite one side of the seam and delete the other inside the
        // same batch.
        ops.push((0, seam - 1, 500));
        ops.push((1, seam, 0));
    }
    apply_batched(&batched, &ops, ops.len(), Key::from_id);
    apply_sequential(&mut sequential, &ops, Key::from_id);
    assert_same_state(&batched, &mut sequential, Key::from_id, "seams");
    // Spot-check the seam semantics directly.
    let survivor = ConcurrentKvStore::get(&batched, &Key::from_id(SPAN - 1)).unwrap();
    assert_eq!(survivor.value.expect("overwritten key lives").len(), 500);
    assert!(ConcurrentKvStore::get(&batched, &Key::from_id(SPAN))
        .unwrap()
        .value
        .is_none());
    let stats = ConcurrentKvStore::stats(&batched);
    assert_eq!(
        stats.batch_groups, 3,
        "both seams touch all three partitions"
    );
    assert_eq!(stats.batch_entries, 12);
    assert_eq!(
        stats.batch_merged_writes, 4,
        "per seam, the overwrite and the put-then-delete each merge one entry"
    );
}

/// The reproduced defect: one batch writing two distinct keys that share
/// their first eight bytes acknowledged, then lost the first (it was
/// "merged" into the second as a duplicate). Both are stored, nothing is
/// counted as merged — and a real duplicate of one of them still is.
#[test]
fn a_batch_of_two_keys_sharing_an_eight_byte_prefix_stores_both() {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = 1;
    let db = PrismDb::open(options).expect("valid options");
    let a = Key::from_bytes(b"user1234A".to_vec());
    let b = Key::from_bytes(b"user1234B".to_vec());
    assert_eq!(a.id(), b.id());

    let mut batch = WriteBatch::new();
    batch.put(a.clone(), Value::filled(100, 0xAA));
    batch.put(b.clone(), Value::filled(100, 0xBB));
    db.apply_batch(batch).unwrap();
    let read = |key: &Key| ConcurrentKvStore::get(&db, key).unwrap().value;
    assert_eq!(read(&a), Some(Value::filled(100, 0xAA)));
    assert_eq!(read(&b), Some(Value::filled(100, 0xBB)));
    assert_eq!(ConcurrentKvStore::stats(&db).batch_merged_writes, 0);

    let mut batch = WriteBatch::new();
    batch.put(a.clone(), Value::filled(100, 0x01));
    batch.delete(b.clone());
    batch.put(a.clone(), Value::filled(100, 0x02));
    db.apply_batch(batch).unwrap();
    assert_eq!(read(&a), Some(Value::filled(100, 0x02)));
    assert_eq!(read(&b), None);
    assert_eq!(ConcurrentKvStore::stats(&db).batch_merged_writes, 1);
}

/// A torn cross-partition commit rolls back every key it touched: the
/// pre-image capture may not skip a key because a neighbour sharing its
/// eight-byte prefix was captured first.
#[test]
fn a_torn_commit_restores_both_of_two_prefix_sharing_keys() {
    let db = small_db(Partitioning::Hash);
    let a = mixed_key(41);
    let b = mixed_key(42);
    assert_eq!(a.id(), b.id());
    // Eight plain keys spread over the three hash partitions, so the batch
    // is a cross-partition commit whichever one `a` and `b` share.
    let mut keys = vec![a, b];
    keys.extend((0..8).map(Key::from_id));

    for key in &keys {
        db.put(key.clone(), Value::filled(200, 0x0D)).unwrap();
    }
    let mut batch = WriteBatch::new();
    for key in &keys {
        batch.put(key.clone(), Value::filled(200, 0xEE));
    }
    // Install every group but leave the record unsealed: recovery must
    // make the whole batch disappear.
    db.apply_batch_leaving_torn(batch, usize::MAX).unwrap();
    db.crash_and_recover();
    for key in &keys {
        assert_eq!(
            ConcurrentKvStore::get(&db, key).unwrap().value,
            Some(Value::filled(200, 0x0D)),
            "{key:?} kept a torn write"
        );
    }
}
