//! The one byte-bounded LRU of whole objects.
//!
//! PrismDB uses it (sharded, in `prism-db`) to stand in for the OS page
//! cache the paper relies on (§4.1); the LSM baseline uses it for RocksDB's
//! block cache and the optional NVM second-level cache. Reads fill it
//! ([`LruCache::insert`]). A PrismDB update refreshes a cached key's value
//! where it sits ([`LruCache::replace`]), as a page cache keeps a written
//! page resident; the LSM's updates [`LruCache::remove`] the key.
//!
//! Recency is a doubly linked list threaded through a `Vec` of nodes by
//! index (`newer` / `older`), with the slots of removed nodes chained into
//! a free list; a `HashMap<Key, u32>` finds a key's node. A hit unlinks
//! one node and relinks it at the newest end — no allocation, no key
//! clone — and eviction walks from the oldest end, so the order is exact
//! LRU.

use std::collections::HashMap;

use crate::{Key, Value};

/// "No node": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    key: Key,
    value: Value,
    /// The next more recently used node; for a free slot, unused.
    newer: u32,
    /// The next less recently used node; for a free slot, the next free
    /// slot.
    older: u32,
}

/// Byte-bounded least-recently-used object cache.
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Where each cached key's node sits in `nodes`.
    slots: HashMap<Key, u32>,
    nodes: Vec<Node>,
    /// Head of the free-slot chain (linked through `older`).
    free: u32,
    newest: u32,
    oldest: u32,
}

impl LruCache {
    /// Create a cache bounded to `capacity_bytes` of values.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            slots: HashMap::new(),
            nodes: Vec::new(),
            free: NIL,
            newest: NIL,
            oldest: NIL,
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes of cached values.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Take node `at` out of the recency list (its own links go stale).
    fn unlink(&mut self, at: u32) {
        let node = &self.nodes[at as usize];
        let (newer, older) = (node.newer, node.older);
        match newer {
            NIL => self.newest = older,
            newer => self.nodes[newer as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            older => self.nodes[older as usize].newer = newer,
        }
    }

    /// Put node `at` at the most recently used end.
    fn link_newest(&mut self, at: u32) {
        let below = std::mem::replace(&mut self.newest, at);
        let node = &mut self.nodes[at as usize];
        node.newer = NIL;
        node.older = below;
        match below {
            NIL => self.oldest = at,
            below => self.nodes[below as usize].newer = at,
        }
    }

    /// Unlink node `at`, drop its value and chain its slot into the free
    /// list. The caller has already taken its key out of `slots`.
    fn release(&mut self, at: u32) {
        self.unlink(at);
        let node = &mut self.nodes[at as usize];
        self.used_bytes -= node.value.len() as u64;
        node.value = Value::empty();
        node.older = self.free;
        self.free = at;
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &Key) -> Option<Value> {
        let at = *self.slots.get(key)?;
        if self.newest != at {
            self.unlink(at);
            self.link_newest(at);
        }
        Some(self.nodes[at as usize].value.clone())
    }

    /// True if `key` is cached; its recency does not move.
    pub fn contains(&self, key: &Key) -> bool {
        self.slots.contains_key(key)
    }

    /// Insert or refresh a key. An object larger than the whole cache is
    /// not cached, but still displaces the value it supersedes.
    pub fn insert(&mut self, key: Key, value: Value) {
        let size = value.len() as u64;
        self.remove(&key);
        if self.capacity_bytes == 0 || size > self.capacity_bytes {
            return;
        }
        while self.used_bytes + size > self.capacity_bytes && self.oldest != NIL {
            let victim = self.oldest;
            self.slots.remove(&self.nodes[victim as usize].key);
            self.release(victim);
        }
        self.used_bytes += size;
        let node = Node {
            key: key.clone(),
            value,
            newer: NIL,
            older: NIL,
        };
        let at = match self.free {
            NIL => {
                let at = self.nodes.len();
                assert!(at < NIL as usize, "fewer than 2^32 - 1 cached objects");
                self.nodes.push(node);
                at as u32
            }
            at => {
                self.free = self.nodes[at as usize].older;
                self.nodes[at as usize] = node;
                at
            }
        };
        self.link_newest(at);
        self.slots.insert(key, at);
    }

    /// Replace the value of a cached key where its entry sits: recency
    /// does not move and no other entry is evicted. Returns true if the
    /// key was cached and now holds `value`. A key that is not cached
    /// stays uncached; one whose new value no longer fits the byte budget
    /// is removed instead.
    pub fn replace(&mut self, key: &Key, value: Value) -> bool {
        let Some(&at) = self.slots.get(key) else {
            return false;
        };
        let old = self.nodes[at as usize].value.len() as u64;
        let size = value.len() as u64;
        if self.used_bytes - old + size > self.capacity_bytes {
            self.slots.remove(key);
            self.release(at);
            return false;
        }
        self.used_bytes = self.used_bytes - old + size;
        self.nodes[at as usize].value = value;
        true
    }

    /// Remove a key: a PrismDB delete, or any LSM write, keeps the cache
    /// consistent with the store this way.
    pub fn remove(&mut self, key: &Key) {
        if let Some(at) = self.slots.remove(key) {
            self.release(at);
        }
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
    fn replace_updates_a_cached_value_in_place() {
        let mut cache = LruCache::new(300);
        assert!(!cache.replace(&key(9), Value::filled(10, 9)), "uncached");
        assert!(cache.is_empty());
        cache.insert(key(1), Value::filled(100, 1));
        cache.insert(key(2), Value::filled(100, 2));
        assert!(cache.replace(&key(1), Value::filled(150, 7)));
        assert_eq!(cache.used_bytes(), 250);
        // Recency did not move: key 1 is still the oldest, so it goes first.
        cache.insert(key(3), Value::filled(100, 3));
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.get(&key(2)).unwrap().as_bytes()[0], 2);
        // A value that no longer fits evicts nothing else: its key goes.
        assert!(!cache.replace(&key(3), Value::filled(250, 3)));
        assert!(!cache.contains(&key(3)));
        assert!(cache.contains(&key(2)));
        assert_eq!(cache.used_bytes(), 100);
    }

    #[test]
    fn remove_frees_the_entry_and_its_bytes() {
        let mut cache = LruCache::new(1000);
        cache.insert(key(1), Value::filled(100, 1));
        cache.insert(key(2), Value::filled(100, 2));
        cache.remove(&key(1));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.used_bytes(), 100);
        cache.remove(&key(2));
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

    /// The cache's keys from least to most recently used, walked through
    /// the links (so a broken link shows as a wrong or endless walk).
    fn keys_oldest_first(cache: &LruCache) -> Vec<Key> {
        let mut keys = Vec::new();
        let (mut at, mut below) = (cache.oldest, NIL);
        while at != NIL {
            let node = &cache.nodes[at as usize];
            assert_eq!(node.older, below, "back link of node {at}");
            assert!(keys.len() < cache.len(), "the recency list has a cycle");
            keys.push(node.key.clone());
            (at, below) = (node.newer, at);
        }
        assert_eq!(cache.newest, below);
        keys
    }

    /// Seeded random gets, inserts (fitting, replacing, oversized),
    /// in-place replaces and removes against a `VecDeque` kept in recency
    /// order: the same hit or miss, the same evictions, the same
    /// `used_bytes` and the same order after every step.
    #[test]
    fn matches_a_recency_queue_model_step_by_step() {
        use std::collections::VecDeque;
        for (seed, capacity, universe) in [(1u64, 1_000u64, 24u64), (2, 4_096, 64), (3, 300, 8)] {
            let mut state = seed;
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut cache = LruCache::new(capacity);
            // Front is the least recently used.
            let mut model: VecDeque<(Key, Value)> = VecDeque::new();
            for step in 0..20_000u32 {
                let k = key(next() % universe);
                let at = model.iter().position(|(cached, _)| *cached == k);
                match next() % 100 {
                    0..=44 => {
                        let expected = at.map(|at| {
                            let entry = model.remove(at).expect("position is in range");
                            model.push_back(entry.clone());
                            entry.1
                        });
                        assert_eq!(cache.get(&k), expected, "seed {seed} step {step}");
                    }
                    45..=84 => {
                        // One insert in sixteen does not fit the cache at all.
                        let len = match next() % 16 {
                            0 => capacity + 1 + next() % 64,
                            _ => next() % (capacity / 3),
                        };
                        let value = Value::filled(len as usize, next() as u8);
                        if let Some(at) = at {
                            model.remove(at);
                        }
                        if len <= capacity {
                            let used = |model: &VecDeque<(Key, Value)>| {
                                model.iter().map(|(_, v)| v.len() as u64).sum::<u64>()
                            };
                            while used(&model) + len > capacity {
                                model.pop_front().expect("an over-full model is non-empty");
                            }
                            model.push_back((k.clone(), value.clone()));
                        }
                        cache.insert(k, value);
                    }
                    85..=92 => {
                        let len = next() % (capacity / 2);
                        let value = Value::filled(len as usize, next() as u8);
                        let replaced = at.is_some_and(|at| {
                            let used: u64 = model.iter().map(|(_, v)| v.len() as u64).sum();
                            if used - model[at].1.len() as u64 + len > capacity {
                                model.remove(at);
                                return false;
                            }
                            model[at].1 = value.clone();
                            true
                        });
                        assert_eq!(
                            cache.replace(&k, value),
                            replaced,
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        if let Some(at) = at {
                            model.remove(at);
                        }
                        cache.remove(&k);
                    }
                }
                let model_keys: Vec<Key> = model.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(
                    keys_oldest_first(&cache),
                    model_keys,
                    "seed {seed} step {step}"
                );
                let used: u64 = model.iter().map(|(_, v)| v.len() as u64).sum();
                assert_eq!(cache.used_bytes(), used, "seed {seed} step {step}");
                assert_eq!(cache.len(), model.len());
                assert!(
                    cache.nodes.len() as u64 <= universe,
                    "freed slots are reused"
                );
            }
        }
    }
}
