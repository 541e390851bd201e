//! The one byte-bounded LRU of whole objects.
//!
//! PrismDB uses it (sharded, in `prism-db`) to stand in for the OS page
//! cache the paper relies on (§4.1); the LSM baseline uses it for RocksDB's
//! block cache and the optional NVM second-level cache.

use std::collections::{BTreeMap, HashMap};

use crate::{Key, Value};

/// Byte-bounded least-recently-used object cache.
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    tick: u64,
    entries: HashMap<Key, (Value, u64)>,
    order: BTreeMap<u64, Key>,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Create a cache bounded to `capacity_bytes` of values.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of cached values.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &Key) -> Option<Value> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some((value, last)) => {
                self.order.remove(last);
                *last = tick;
                self.order.insert(tick, key.clone());
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// True if `key` is cached; neither recency nor the hit/miss counters
    /// move.
    pub fn contains(&self, key: &Key) -> bool {
        self.entries.contains_key(key)
    }

    /// Insert or refresh a key. An object larger than the whole cache is
    /// not cached, but still displaces the value it supersedes.
    pub fn insert(&mut self, key: Key, value: Value) {
        let size = value.len() as u64;
        self.remove(&key);
        if self.capacity_bytes == 0 || size > self.capacity_bytes {
            return;
        }
        while self.used_bytes + size > self.capacity_bytes {
            let Some((&oldest_tick, _)) = self.order.iter().next() else {
                break;
            };
            let oldest_key = self.order.remove(&oldest_tick).expect("tick present");
            if let Some((old_value, _)) = self.entries.remove(&oldest_key) {
                self.used_bytes -= old_value.len() as u64;
            }
        }
        self.tick += 1;
        self.used_bytes += size;
        self.order.insert(self.tick, key.clone());
        self.entries.insert(key, (value, self.tick));
    }

    /// Remove a key (called on updates and deletes to keep the cache
    /// consistent with the store).
    pub fn remove(&mut self, key: &Key) {
        if let Some((value, tick)) = self.entries.remove(key) {
            self.order.remove(&tick);
            self.used_bytes -= value.len() as u64;
        }
    }

    /// Drop everything (used when simulating a crash).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> Key {
        Key::from_id(id)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = LruCache::new(10_000);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Value::filled(100, 1));
        assert_eq!(cache.get(&key(1)).unwrap().len(), 100);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 100);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = LruCache::new(300);
        cache.insert(key(1), Value::filled(100, 1));
        cache.insert(key(2), Value::filled(100, 2));
        cache.insert(key(3), Value::filled(100, 3));
        // Touch key 1 so key 2 is the LRU victim.
        cache.get(&key(1));
        cache.insert(key(4), Value::filled(100, 4));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(1)));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert!(cache.get(&key(4)).is_some());
        assert!(cache.used_bytes() <= 300);
    }

    #[test]
    fn updates_replace_bytes() {
        let mut cache = LruCache::new(1000);
        cache.insert(key(1), Value::filled(400, 1));
        cache.insert(key(1), Value::filled(100, 2));
        assert_eq!(cache.used_bytes(), 100);
        assert_eq!(cache.get(&key(1)).unwrap().len(), 100);
    }

    #[test]
    fn remove_and_clear() {
        let mut cache = LruCache::new(1000);
        cache.insert(key(1), Value::filled(100, 1));
        cache.insert(key(2), Value::filled(100, 2));
        cache.remove(&key(1));
        assert!(cache.get(&key(1)).is_none());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn oversized_objects_are_not_cached() {
        let mut cache = LruCache::new(100);
        cache.insert(key(1), Value::filled(500, 1));
        assert!(cache.is_empty());
        // An oversized update must not leave the value it replaces behind.
        cache.insert(key(2), Value::filled(50, 1));
        cache.insert(key(2), Value::filled(500, 2));
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.used_bytes(), 0);
        let mut disabled = LruCache::new(0);
        disabled.insert(key(1), Value::filled(1, 1));
        assert!(disabled.is_empty());
    }
}
