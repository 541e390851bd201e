//! The one byte-bounded object cache: GreedyDual over two recency lanes.
//!
//! PrismDB uses it (sharded, in `prism-db`) to stand in for the OS page
//! cache the paper relies on (§4.1); the LSM baseline uses it for RocksDB's
//! block cache and the optional NVM second-level cache. Reads fill it
//! ([`LruCache::insert`], [`LruCache::insert_in`]). A PrismDB update
//! refreshes a cached key's value where it sits ([`LruCache::replace`]), as
//! a page cache keeps a written page resident; the LSM's updates
//! [`LruCache::remove`] the key.
//!
//! Each entry sits in one of two [`Lane`]s, priced by what its miss would
//! cost to refetch ([`LruCache::with_prices`]: PrismDB prices the cheap
//! lane at an NVM read, the dear lane at a flash read). This is GreedyDual
//! (Young 1994; Cao & Irani 1997) with two prices. An access — a fill, a
//! hit, a [`LruCache::reprice`] — sets the entry's priority to `floor +
//! price` and moves it to its lane's newest end. Eviction takes the
//! lower-priority of the two lanes' oldest entries, the cheap one on a
//! tie, and raises `floor` to that priority. `floor` never falls, so each
//! lane is in priority order and its oldest entry is its minimum: a dear
//! entry outlives about `dear / cheap` turnovers of the cheap lane unless
//! it is read again. [`LruCache::new`] prices both lanes at zero and
//! [`LruCache::insert`] fills the cheap lane, so a cache used that way is
//! exact LRU.
//!
//! Each lane is a doubly linked list threaded through one `Vec` of nodes
//! by index (`newer` / `older`), with the slots of removed nodes chained
//! into a free list; a `HashMap<Key, u32>` finds a key's node. An access
//! unlinks one node and relinks it at its lane's newest end — no
//! allocation, no key clone, no heap — and eviction compares the two
//! oldest ends, so every operation is O(1).

use std::collections::HashMap;

use crate::{Key, Nanos, Value};

/// "No node": the end of a lane or of the free list.
const NIL: u32 = u32::MAX;

/// The recency list an entry sits in, by what refetching it would cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Priced at the cheaper refetch (PrismDB: a value NVM serves).
    Cheap,
    /// Priced at the dearer refetch (PrismDB: a popular value on flash).
    Dear,
}

#[derive(Debug)]
struct Node {
    key: Key,
    value: Value,
    /// `floor + price` at the entry's last access.
    priority: u64,
    lane: Lane,
    /// The next more recently used node of the lane; for a free slot,
    /// unused.
    newer: u32,
    /// The next less recently used node of the lane; for a free slot, the
    /// next free slot.
    older: u32,
}

/// The two ends of one lane.
#[derive(Debug, Clone, Copy)]
struct Ends {
    newest: u32,
    oldest: u32,
}

/// Byte-bounded object cache: GreedyDual over a cheap and a dear lane,
/// exact LRU when only the cheap lane is used (see the module docs).
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Where each cached key's node sits in `nodes`.
    slots: HashMap<Key, u32>,
    nodes: Vec<Node>,
    /// Head of the free-slot chain (linked through `older`).
    free: u32,
    /// Indexed by `Lane as usize`, as `prices` is.
    lanes: [Ends; 2],
    /// Refetch price of each lane, in nanoseconds.
    prices: [u64; 2],
    /// The priority of the last eviction: no entry's is lower.
    floor: u64,
}

impl LruCache {
    /// Create an LRU cache bounded to `capacity_bytes` of values: both
    /// lanes are priced at zero.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_prices(capacity_bytes, Nanos::ZERO, Nanos::ZERO)
    }

    /// Create a cache bounded to `capacity_bytes` of values whose
    /// [`Lane::Cheap`] and [`Lane::Dear`] entries cost `cheap` and `dear`
    /// to refetch.
    pub fn with_prices(capacity_bytes: u64, cheap: Nanos, dear: Nanos) -> Self {
        let empty = Ends {
            newest: NIL,
            oldest: NIL,
        };
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            slots: HashMap::new(),
            nodes: Vec::new(),
            free: NIL,
            lanes: [empty; 2],
            prices: [cheap.as_nanos(), dear.as_nanos()],
            floor: 0,
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

    /// Take node `at` out of its lane (its own links go stale).
    fn unlink(&mut self, at: u32) {
        let node = &self.nodes[at as usize];
        let (newer, older) = (node.newer, node.older);
        let ends = &mut self.lanes[node.lane as usize];
        match newer {
            NIL => ends.newest = older,
            newer => self.nodes[newer as usize].older = older,
        }
        match older {
            NIL => ends.oldest = newer,
            older => self.nodes[older as usize].newer = newer,
        }
    }

    /// Access node `at`, unlinked: price it for `lane` and put it at that
    /// lane's newest end.
    fn link_newest(&mut self, at: u32, lane: Lane) {
        let ends = &mut self.lanes[lane as usize];
        let below = std::mem::replace(&mut ends.newest, at);
        if below == NIL {
            ends.oldest = at;
        }
        let node = &mut self.nodes[at as usize];
        node.priority = self.floor + self.prices[lane as usize];
        node.lane = lane;
        node.newer = NIL;
        node.older = below;
        if below != NIL {
            self.nodes[below as usize].newer = at;
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

    /// The node eviction takes: the lower-priority of the two lanes'
    /// oldest, the cheap one on a tie. `NIL` when nothing is cached.
    fn victim(&self) -> u32 {
        let [cheap, dear] = self.lanes.map(|ends| ends.oldest);
        match (cheap, dear) {
            (at, NIL) | (NIL, at) => at,
            _ if self.nodes[dear as usize].priority < self.nodes[cheap as usize].priority => dear,
            _ => cheap,
        }
    }

    /// Look up a key, counting a hit as an access in its lane.
    pub fn get(&mut self, key: &Key) -> Option<Value> {
        let at = *self.slots.get(key)?;
        let lane = self.nodes[at as usize].lane;
        self.unlink(at);
        self.link_newest(at, lane);
        Some(self.nodes[at as usize].value.clone())
    }

    /// True if `key` is cached; nothing moves.
    pub fn contains(&self, key: &Key) -> bool {
        self.slots.contains_key(key)
    }

    /// The lane `key` sits in, if it is cached; nothing moves.
    pub fn lane_of(&self, key: &Key) -> Option<Lane> {
        let at = *self.slots.get(key)?;
        Some(self.nodes[at as usize].lane)
    }

    /// Insert or refresh a key in the cheap lane (see
    /// [`LruCache::insert_in`]).
    pub fn insert(&mut self, key: Key, value: Value) {
        self.insert_in(key, value, Lane::Cheap);
    }

    /// Insert or refresh a key in `lane`, evicting until it fits. An
    /// object larger than the whole cache is not cached, but still
    /// displaces the value it supersedes.
    pub fn insert_in(&mut self, key: Key, value: Value, lane: Lane) {
        let size = value.len() as u64;
        self.remove(&key);
        if self.capacity_bytes == 0 || size > self.capacity_bytes {
            return;
        }
        while self.used_bytes + size > self.capacity_bytes {
            let victim = self.victim();
            self.floor = self.nodes[victim as usize].priority;
            self.slots.remove(&self.nodes[victim as usize].key);
            self.release(victim);
        }
        self.used_bytes += size;
        let node = Node {
            key: key.clone(),
            value,
            priority: 0,
            lane,
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
        self.link_newest(at, lane);
        self.slots.insert(key, at);
    }

    /// Move a cached key to `lane`, counting the move as an access (its
    /// refetch price changed: it moved between tiers). Returns true if the
    /// key was cached.
    pub fn reprice(&mut self, key: &Key, lane: Lane) -> bool {
        let Some(&at) = self.slots.get(key) else {
            return false;
        };
        self.unlink(at);
        self.link_newest(at, lane);
        true
    }

    /// Replace the value of a cached key where its entry sits: its lane,
    /// priority and recency do not move and no other entry is evicted.
    /// Returns true if the key was cached and now holds `value`. A key
    /// that is not cached stays uncached; one whose new value no longer
    /// fits the byte budget is removed instead.
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

    /// Every cached key and value, in no particular order; nothing moves.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &Value)> + '_ {
        self.slots
            .iter()
            .map(|(key, &at)| (key, &self.nodes[at as usize].value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{splitmix64, SPLITMIX64_GAMMA};

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

    /// The keys of one lane from least to most recently used, walked
    /// through the links (so a broken link shows as a wrong or endless
    /// walk).
    fn lane_oldest_first(cache: &LruCache, lane: Lane) -> Vec<Key> {
        let ends = cache.lanes[lane as usize];
        let mut keys = Vec::new();
        let (mut at, mut below) = (ends.oldest, NIL);
        while at != NIL {
            let node = &cache.nodes[at as usize];
            assert_eq!(node.older, below, "back link of node {at}");
            assert_eq!(node.lane, lane, "node {at} is linked into the other lane");
            assert!(keys.len() < cache.len(), "the recency list has a cycle");
            keys.push(node.key.clone());
            (at, below) = (node.newer, at);
        }
        assert_eq!(ends.newest, below);
        keys
    }

    /// The whole cache from least to most recently used, for a cache that
    /// only ever filled the cheap lane: the dear lane must be empty.
    fn keys_oldest_first(cache: &LruCache) -> Vec<Key> {
        assert!(lane_oldest_first(cache, Lane::Dear).is_empty());
        lane_oldest_first(cache, Lane::Cheap)
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
                let out = splitmix64(state);
                state = state.wrapping_add(SPLITMIX64_GAMMA);
                out
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

    /// A dear entry outlives the cheap lane's turnover: each eviction of a
    /// cheap entry raises the floor by at most the cheap price, so a dear
    /// entry read once stays until the floor has climbed to its priority.
    #[test]
    fn a_dear_entry_outlives_cheap_turnover_until_the_floor_reaches_it() {
        let mut cache = LruCache::with_prices(300, Nanos::from_nanos(10), Nanos::from_nanos(40));
        cache.insert_in(key(0), Value::filled(100, 0), Lane::Dear);
        assert_eq!(cache.lane_of(&key(0)), Some(Lane::Dear));
        // Priority 40; cheap fills enter at floor + 10 and the floor takes
        // each victim's priority, so it climbs 10 per two-entry turnover.
        let mut evicted_at = None;
        for id in 1..=40u64 {
            cache.insert(key(id), Value::filled(100, id as u8));
            if evicted_at.is_none() && !cache.contains(&key(0)) {
                evicted_at = Some(id);
            }
        }
        let plain = {
            let mut lru = LruCache::new(300);
            lru.insert(key(0), Value::filled(100, 0));
            (1..=40u64)
                .find(|&id| {
                    lru.insert(key(id), Value::filled(100, id as u8));
                    !lru.contains(&key(0))
                })
                .expect("an LRU evicts it")
        };
        assert_eq!(plain, 3, "as LRU, the third fill evicts it");
        // The floor climbs 10, 20, 30, 40 over fills 3–10; at 40 the tie
        // still evicts cheap entries, and fill 11 finds the dear one least.
        assert_eq!(evicted_at, Some(11));
        assert_eq!(cache.used_bytes(), 300);
    }

    /// Equal priorities evict the cheap lane's oldest first, and a
    /// re-price counts as an access in the lane it moves to.
    #[test]
    fn ties_go_to_the_cheap_lane_and_a_reprice_is_an_access() {
        let mut cache = LruCache::with_prices(200, Nanos::from_nanos(5), Nanos::from_nanos(5));
        cache.insert_in(key(1), Value::filled(100, 1), Lane::Dear);
        cache.insert(key(2), Value::filled(100, 2));
        cache.insert(key(3), Value::filled(100, 3));
        assert!(cache.contains(&key(1)) && !cache.contains(&key(2)));

        let mut cache = LruCache::with_prices(200, Nanos::from_nanos(5), Nanos::from_nanos(50));
        cache.insert(key(1), Value::filled(100, 1));
        cache.insert(key(2), Value::filled(100, 2));
        assert!(cache.reprice(&key(1), Lane::Dear));
        assert!(!cache.reprice(&key(9), Lane::Dear), "uncached");
        assert_eq!(cache.lane_of(&key(1)), Some(Lane::Dear));
        cache.insert(key(3), Value::filled(100, 3));
        assert!(cache.contains(&key(1)) && !cache.contains(&key(2)));
        // Back to the cheap lane: now the older of two cheap entries.
        assert!(cache.reprice(&key(1), Lane::Cheap));
        cache.insert(key(4), Value::filled(100, 4));
        assert!(!cache.contains(&key(3)) && cache.contains(&key(1)));
        cache.insert(key(5), Value::filled(100, 5));
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.lane_of(&key(1)), None);
    }

    /// Seeded random gets, fills in either lane (fitting, replacing,
    /// oversized), in-place replaces, re-prices and removes against a
    /// brute-force GreedyDual model: a list of `(key, value, priority,
    /// lane, access order)` whose victim is found by scanning for the
    /// least `(priority, lane, access order)`. After every step the hits,
    /// the evictions, `used_bytes` and each lane's order agree.
    #[test]
    fn matches_a_greedy_dual_model_step_by_step() {
        struct Entry {
            key: Key,
            value: Value,
            priority: u64,
            lane: Lane,
            order: u64,
        }
        let lanes = [Lane::Cheap, Lane::Dear];
        let cases = [
            (1u64, 1_000u64, 24u64, [6u64, 391u64]),
            (2, 4_096, 64, [6, 391]),
            (3, 300, 8, [1, 3]),
            (4, 1_000, 24, [7, 7]),
            (5, 2_000, 40, [0, 50]),
        ];
        for (seed, capacity, universe, prices) in cases {
            let mut state = seed;
            let mut next = move || {
                let out = splitmix64(state);
                state = state.wrapping_add(SPLITMIX64_GAMMA);
                out
            };
            let [cheap, dear] = prices.map(Nanos::from_nanos);
            let mut cache = LruCache::with_prices(capacity, cheap, dear);
            let mut model: Vec<Entry> = Vec::new();
            let (mut floor, mut tick) = (0u64, 0u64);
            let used = |model: &[Entry]| model.iter().map(|e| e.value.len() as u64).sum::<u64>();
            for step in 0..20_000u32 {
                let k = key(next() % universe);
                let at = model.iter().position(|e| e.key == k);
                let lane = lanes[(next() % 2) as usize];
                tick += 1;
                let access = |entry: &mut Entry, lane: Lane| {
                    entry.lane = lane;
                    entry.priority = floor + prices[lane as usize];
                    entry.order = tick;
                };
                match next() % 100 {
                    0..=39 => {
                        let expected = at.map(|at| {
                            let lane = model[at].lane;
                            access(&mut model[at], lane);
                            model[at].value.clone()
                        });
                        assert_eq!(cache.get(&k), expected, "seed {seed} step {step}");
                    }
                    40..=79 => {
                        // One fill in sixteen does not fit the cache at all.
                        let len = match next() % 16 {
                            0 => capacity + 1 + next() % 64,
                            _ => next() % (capacity / 3),
                        };
                        let value = Value::filled(len as usize, next() as u8);
                        if let Some(at) = at {
                            model.remove(at);
                        }
                        if len <= capacity {
                            while used(&model) + len > capacity {
                                let victim = (0..model.len())
                                    .min_by_key(|&i| {
                                        let e = &model[i];
                                        (e.priority, e.lane as usize, e.order)
                                    })
                                    .expect("an over-full model is non-empty");
                                floor = model.remove(victim).priority;
                            }
                            let mut entry = Entry {
                                key: k.clone(),
                                value: value.clone(),
                                priority: 0,
                                lane,
                                order: 0,
                            };
                            // The floor may have risen: price after evicting.
                            entry.priority = floor + prices[lane as usize];
                            entry.order = tick;
                            model.push(entry);
                        }
                        cache.insert_in(k, value, lane);
                    }
                    80..=86 => {
                        let len = next() % (capacity / 2);
                        let value = Value::filled(len as usize, next() as u8);
                        let replaced = at.is_some_and(|at| {
                            if used(&model) - model[at].value.len() as u64 + len > capacity {
                                model.remove(at);
                                return false;
                            }
                            model[at].value = value.clone();
                            true
                        });
                        assert_eq!(
                            cache.replace(&k, value),
                            replaced,
                            "seed {seed} step {step}"
                        );
                    }
                    87..=93 => {
                        if let Some(at) = at {
                            access(&mut model[at], lane);
                        }
                        assert_eq!(
                            cache.reprice(&k, lane),
                            at.is_some(),
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
                for lane in lanes {
                    let mut in_lane: Vec<&Entry> =
                        model.iter().filter(|e| e.lane == lane).collect();
                    in_lane.sort_by_key(|e| e.order);
                    let expected: Vec<Key> = in_lane.iter().map(|e| e.key.clone()).collect();
                    assert_eq!(
                        lane_oldest_first(&cache, lane),
                        expected,
                        "seed {seed} step {step} lane {lane:?}"
                    );
                }
                assert_eq!(cache.used_bytes(), used(&model), "seed {seed} step {step}");
                assert_eq!(cache.len(), model.len());
                assert_eq!(cache.floor, floor, "seed {seed} step {step}");
                assert!(
                    cache.nodes.len() as u64 <= universe,
                    "freed slots are reused"
                );
            }
        }
    }
}
