//! The DRAM cache is write-update: once a read has cached a key, every
//! write path leaves the cached value equal to what the tiers serve. A
//! snapshot read bypasses the cache, so comparing it with a live get that
//! the cache answers compares the cache with the store.

use std::sync::Arc;

use prism_db::{FaultMode, FaultOp, FaultPlan, FaultTier, Options, PrismDb, TargetedFault};
use prism_types::{ConcurrentKvStore, Key, PrismError, ReadSource, Transaction, Value, WriteBatch};

fn db_with(partitions: usize, fault_plan: Option<Arc<FaultPlan>>) -> PrismDb {
    let mut options = Options::scaled_default(4_000);
    options.num_partitions = partitions;
    options.fault_plan = fault_plan;
    PrismDb::open(options).expect("valid options")
}

/// Write `value` under `key` and read it once, so the cache holds it.
fn put_and_fill(db: &PrismDb, key: &Key, value: &Value) {
    db.put(key.clone(), value.clone()).unwrap();
    let got = db.get(key).unwrap();
    assert_ne!(got.source, ReadSource::Dram, "the first read fills");
    assert_eq!(got.value.as_ref(), Some(value));
}

/// `key` is answered by the DRAM cache with `expected`, and a snapshot
/// read of the tiers finds the same value.
fn cached_as_stored(db: &PrismDb, key: &Key, expected: &Value) {
    let got = db.get(key).unwrap();
    assert_eq!(got.source, ReadSource::Dram, "{key:?} stays cached");
    assert_eq!(got.value.as_ref(), Some(expected), "{key:?} cached value");
    let snapshot = db.snapshot().unwrap();
    let stored = db.snapshot_get(snapshot, key).unwrap();
    db.release_snapshot(snapshot);
    assert_eq!(stored.as_ref(), Some(expected), "{key:?} stored value");
}

#[test]
fn a_put_refreshes_a_cached_key_and_leaves_an_uncached_one_out() {
    let db = db_with(2, None);
    let (hot, cold) = (Key::from_id(1), Key::from_id(2));
    put_and_fill(&db, &hot, &Value::filled(300, 1));
    db.put(cold.clone(), Value::filled(300, 1)).unwrap();
    let before = db.dram_cache_stats();
    assert_eq!((before.objects, before.used_bytes), (1, 300));

    let fresh = Value::filled(300, 2);
    db.put(hot.clone(), fresh.clone()).unwrap();
    db.put(cold.clone(), fresh.clone()).unwrap();
    assert_eq!(db.dram_cache_stats().objects, 1, "a put caches nothing new");
    cached_as_stored(&db, &hot, &fresh);
    assert_eq!(db.get(&cold).unwrap().source, ReadSource::Nvm);
}

#[test]
fn a_value_of_another_length_replaces_the_cached_one() {
    let db = db_with(2, None);
    let key = Key::from_id(7);
    put_and_fill(&db, &key, &Value::filled(300, 1));
    for (len, fill) in [(900, 2), (40, 3), (0, 4), (300, 5)] {
        let value = Value::filled(len, fill);
        db.put(key.clone(), value.clone()).unwrap();
        assert_eq!(db.dram_cache_stats().used_bytes, len as u64);
        cached_as_stored(&db, &key, &value);
    }
}

#[test]
fn a_batch_group_refreshes_its_cached_keys_with_the_last_entry() {
    let db = db_with(2, None);
    let keys: Vec<Key> = (0..6u64).map(Key::from_id).collect();
    for key in &keys {
        put_and_fill(&db, key, &Value::filled(200, 1));
    }
    let mut batch = WriteBatch::new();
    for key in &keys {
        batch.put(key.clone(), Value::filled(250, 2));
    }
    // A superseded entry: the group merges it away, the last one wins.
    batch.put(keys[0].clone(), Value::filled(120, 3));
    batch.delete(keys[5].clone());
    db.apply_batch(batch).unwrap();
    assert!(ConcurrentKvStore::stats(&db).batch_merged_writes >= 1);

    cached_as_stored(&db, &keys[0], &Value::filled(120, 3));
    for key in &keys[1..5] {
        cached_as_stored(&db, key, &Value::filled(250, 2));
    }
    let deleted = db.get(&keys[5]).unwrap();
    assert_eq!(
        (deleted.source, deleted.value),
        (ReadSource::NotFound, None)
    );
}

#[test]
fn a_transaction_commit_refreshes_the_keys_it_writes() {
    let db = db_with(4, None);
    let keys: Vec<Key> = (0..8u64).map(Key::from_id).collect();
    for key in &keys {
        put_and_fill(&db, key, &Value::filled(200, 1));
    }
    let mut txn = Transaction::begin(&db).unwrap();
    assert_eq!(txn.get(&keys[0]).unwrap(), Some(Value::filled(200, 1)));
    for key in &keys {
        txn.put(key.clone(), Value::filled(220, 9));
    }
    txn.commit().unwrap();
    for key in &keys {
        cached_as_stored(&db, key, &Value::filled(220, 9));
    }
}

/// A multi-partition batch whose last group fails rolls the installed
/// groups back by writing their pre-images: the cache follows both the
/// install and the restore.
#[test]
fn a_rollback_restore_leaves_the_pre_image_cached() {
    let plan = Arc::new(FaultPlan::new(0xCAC4E));
    let db = db_with(4, Some(Arc::clone(&plan)));
    let keys: Vec<Key> = (0..40u64).map(Key::from_id).collect();
    let old = Value::filled(300, 1);
    for key in &keys {
        put_and_fill(&db, key, &old);
    }
    let last = keys.iter().map(|key| db.shard_of(key)).max().unwrap();
    assert!(keys.iter().any(|key| db.shard_of(key) < last));

    let mut batch = WriteBatch::new();
    for key in &keys {
        batch.put(key.clone(), Value::filled(400, 2));
    }
    plan.arm(TargetedFault {
        tier: FaultTier::Nvm,
        partition: Some(last),
        op: FaultOp::Write,
        mode: FaultMode::IoError,
    });
    let result = db.apply_batch(batch);
    assert!(matches!(result, Err(PrismError::Io(_))), "{result:?}");
    for key in &keys {
        cached_as_stored(&db, key, &old);
    }
}

#[test]
fn a_delete_makes_the_key_a_cache_miss() {
    let db = db_with(2, None);
    let key = Key::from_id(3);
    put_and_fill(&db, &key, &Value::filled(300, 1));
    db.delete(&key).unwrap();
    assert_eq!(db.dram_cache_stats().objects, 0);
    let got = db.get(&key).unwrap();
    assert_eq!((got.source, got.value), (ReadSource::NotFound, None));
}

#[test]
fn a_crash_empties_the_cache_and_reads_refill_it_with_the_latest_values() {
    let db = db_with(2, None);
    let keys: Vec<Key> = (0..20u64).map(Key::from_id).collect();
    for key in &keys {
        put_and_fill(&db, key, &Value::filled(300, 1));
        db.put(key.clone(), Value::filled(300, 2)).unwrap();
    }
    db.crash_and_recover();
    let cache = db.dram_cache_stats();
    assert_eq!((cache.objects, cache.used_bytes), (0, 0));
    for key in &keys {
        let got = db.get(key).unwrap();
        assert_eq!(got.source, ReadSource::Nvm);
        assert_eq!(got.value, Some(Value::filled(300, 2)));
        cached_as_stored(&db, key, &Value::filled(300, 2));
    }
}
