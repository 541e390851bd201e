//! A trivially correct in-memory engine, used as a reference oracle.
//!
//! `MemStore` keeps the whole database in one `BTreeMap` and charges flat
//! latencies. It exists so differential tests can drive a real engine and
//! the oracle with the same operation stream and compare visible state: any
//! divergence is a bug in the real engine (tombstone handling, stale flash
//! versions, cross-partition scan merges, ...), never in the oracle.

use std::collections::BTreeMap;

use crate::{
    BatchOp, EngineStats, Key, KvStore, Lookup, Nanos, ReadSource, Result, ScanResult, Value,
    WriteBatch,
};

/// An in-memory [`KvStore`] backed by a `BTreeMap`.
///
/// # Example
///
/// ```
/// use prism_types::{Key, KvStore, MemStore, Value};
///
/// let mut oracle = MemStore::default();
/// oracle.put(Key::from_id(1), Value::filled(8, 7)).unwrap();
/// assert_eq!(oracle.len(), 1);
/// assert!(oracle.get(&Key::from_id(1)).unwrap().value.is_some());
/// ```
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    map: BTreeMap<Key, Value>,
    clock: Nanos,
    stats: EngineStats,
}

impl MemStore {
    /// Latency charged per write.
    const PUT_COST: Nanos = Nanos::from_nanos(100);
    /// Latency charged per read.
    const GET_COST: Nanos = Nanos::from_nanos(50);
    /// Latency charged per delete.
    const DELETE_COST: Nanos = Nanos::from_nanos(80);
    /// Latency charged per scan.
    const SCAN_COST: Nanos = Nanos::from_nanos(500);
    /// Flat latency charged per batch (group commit), plus this much per
    /// entry — deliberately cheaper than per-op application so the oracle
    /// mirrors the amortisation real engines get from batching.
    const BATCH_BASE_COST: Nanos = Nanos::from_nanos(100);
    /// Per-entry increment of a batched write.
    const BATCH_ENTRY_COST: Nanos = Nanos::from_nanos(20);

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is live.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.map.contains_key(key)
    }

    /// The live entries in key order (the oracle's whole visible state).
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.map.iter()
    }
}

impl KvStore for MemStore {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.stats.user_bytes_written += value.len() as u64;
        self.map.insert(key, value);
        self.clock += Self::PUT_COST;
        Ok(Self::PUT_COST)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        self.clock += Self::GET_COST;
        let value = self.map.get(key).cloned();
        let source = if value.is_some() {
            self.stats.reads_from_dram += 1;
            ReadSource::Dram
        } else {
            self.stats.reads_not_found += 1;
            ReadSource::NotFound
        };
        Ok(Lookup {
            value,
            latency: Self::GET_COST,
            source,
        })
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.map.remove(key);
        self.clock += Self::DELETE_COST;
        Ok(Self::DELETE_COST)
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        self.clock += Self::SCAN_COST;
        let entries: Vec<(Key, Value)> = self
            .map
            .range(start.clone()..)
            .take(count)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Ok(ScanResult {
            entries,
            latency: Self::SCAN_COST,
        })
    }

    fn apply_batch(&mut self, batch: WriteBatch) -> Result<Nanos> {
        if batch.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let entries = batch.into_entries();
        let cost = Self::BATCH_BASE_COST + Self::BATCH_ENTRY_COST * entries.len() as u64;
        self.stats.batch_groups += 1;
        self.stats.batch_entries += entries.len() as u64;
        for op in entries {
            match op {
                BatchOp::Put(key, value) => {
                    self.stats.user_bytes_written += value.len() as u64;
                    self.map.insert(key, value);
                }
                BatchOp::Delete(key) => {
                    self.map.remove(&key);
                }
            }
        }
        self.clock += cost;
        Ok(cost)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn elapsed(&self) -> Nanos {
        self.clock
    }

    fn engine_name(&self) -> &str {
        "memstore"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_round_trip() {
        let mut store = MemStore::default();
        store.put(Key::from_id(3), Value::filled(16, 9)).unwrap();
        let got = store.get(&Key::from_id(3)).unwrap();
        assert_eq!(got.value.unwrap().as_bytes()[0], 9);
        assert_eq!(got.source, ReadSource::Dram);
        store.delete(&Key::from_id(3)).unwrap();
        assert!(store.get(&Key::from_id(3)).unwrap().value.is_none());
        assert!(store.is_empty());
        assert!(!store.contains_key(&Key::from_id(3)));
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut store = MemStore::default();
        for id in [9u64, 2, 7, 4] {
            store
                .put(Key::from_id(id), Value::filled(4, id as u8))
                .unwrap();
        }
        let res = store.scan(&Key::from_id(3), 2).unwrap();
        let ids: Vec<u64> = res.entries.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, vec![4, 7]);
        assert_eq!(store.entries().count(), 4);
    }

    #[test]
    fn batched_application_matches_sequential_and_is_cheaper() {
        let mut batched = MemStore::default();
        let mut sequential = MemStore::default();
        let mut batch = WriteBatch::new();
        for id in 0..10u64 {
            let value = Value::filled(8, id as u8);
            batch.put(Key::from_id(id), value.clone());
            sequential.put(Key::from_id(id), value).unwrap();
        }
        batch.delete(Key::from_id(3));
        sequential.delete(&Key::from_id(3)).unwrap();
        // Duplicate key inside the batch: the last entry wins.
        batch.put(Key::from_id(4), Value::filled(8, 99));
        sequential
            .put(Key::from_id(4), Value::filled(8, 99))
            .unwrap();
        let cost = batched.apply_batch(batch).unwrap();
        assert!(cost < sequential.elapsed(), "batching must amortise cost");
        let a: Vec<_> = batched.entries().collect();
        let b: Vec<_> = sequential.entries().collect();
        assert_eq!(a, b);
        assert_eq!(batched.stats().batch_groups, 1);
        assert_eq!(batched.stats().batch_entries, 12);
        assert_eq!(batched.apply_batch(WriteBatch::new()).unwrap(), Nanos::ZERO);
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut store = MemStore::default();
        store.put(Key::from_id(1), Value::filled(32, 0)).unwrap();
        store.get(&Key::from_id(1)).unwrap();
        store.get(&Key::from_id(2)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.reads_found(), 1);
        assert_eq!(stats.reads_not_found, 1);
        assert_eq!(stats.user_bytes_written, 32);
        assert!(store.elapsed() > Nanos::ZERO);
        assert_eq!(store.engine_name(), "memstore");
    }
}
