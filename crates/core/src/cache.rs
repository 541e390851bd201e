//! A sharded object cache standing in for the OS page cache.
//!
//! The paper's PrismDB deliberately has no userspace DRAM cache and relies
//! on the OS page cache for recently-read NVM and flash pages (§4.1). In
//! the simulator we model that effect with a byte-bounded cache of whole
//! objects: hits cost a DRAM access instead of an NVM/flash access.
//!
//! It keeps what is dear to refetch: each sub-shard is a GreedyDual
//! [`LruCache`] whose cheap lane is priced at an NVM read and whose dear
//! lane at a flash read (the devices' `read_latency_4k`). A read served
//! from flash of a key the clock tracker already tracks fills the dear
//! lane; every other fill — an NVM-served read, a one-off flash read of a
//! Zipf-tail key — fills the cheap lane, so a popular flash value outlives
//! many turnovers of NVM-served ones while a cold flash read does not
//! flood DRAM. A compaction install re-prices the cached keys it moves
//! (see `Partition::install_compaction`).
//!
//! It is write-update, as a page cache is: a read fills it, an update
//! replaces the value of a key that is already cached and adds nothing for
//! one that is not, and a delete removes the key. Reads are the only way a
//! key enters it. An update puts the key's newest version on NVM, so the
//! replaced entry moves to the cheap lane as an access, however it was
//! priced before: a value flash once served would otherwise hold the dear
//! lane's price for a key NVM now serves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use prism_types::{splitmix64_finalize, Key, Lane, LruCache, Nanos, Value};

/// Observed state of a DRAM object cache: occupancy plus cumulative
/// hit/miss counters (see [`crate::PrismDb::dram_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a storage tier.
    pub misses: u64,
    /// Objects currently cached.
    pub objects: usize,
    /// Bytes of cached values.
    pub used_bytes: u64,
    /// Independently locked sub-shards backing the cache.
    pub shards: usize,
}

/// Hash-sharded DRAM object cache: key-hash → sub-cache, each behind its
/// own lock, so concurrent point reads of one partition only contend when
/// they land on the same sub-shard. It holds entries only: its traffic is
/// counted by the partition's read counters and its serial time by a
/// [`SerialTally`], both of which outlive a crash that drops the entries.
#[derive(Debug)]
pub(crate) struct ShardedLruCache {
    shards: Vec<Mutex<LruCache>>,
}

impl ShardedLruCache {
    /// Create a cache of `capacity_bytes` split over (up to) `shards`
    /// sub-caches whose cheap and dear lanes cost `cheap` and `dear` to
    /// refetch. The shard count is reduced for tiny capacities so each
    /// sub-shard keeps a workable byte budget, and clamped to at least 1.
    pub fn new(capacity_bytes: u64, shards: usize, cheap: Nanos, dear: Nanos) -> Self {
        let shards = if capacity_bytes == 0 {
            1
        } else {
            shards.max(1).min((capacity_bytes / 1024).max(1) as usize)
        };
        let per_shard = capacity_bytes / shards as u64;
        ShardedLruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::with_prices(per_shard, cheap, dear)))
                .collect(),
        }
    }

    /// Number of independently locked sub-caches.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sub-shard a key maps to.
    pub(crate) fn shard_of(&self, key: &Key) -> usize {
        // The finalizer decorrelates sequential key ids, so neighbouring
        // keys spread over the sub-shards instead of clustering.
        (splitmix64_finalize(key.id()) % self.shards.len() as u64) as usize
    }

    fn lock(&self, idx: usize) -> MutexGuard<'_, LruCache> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a key in its sub-shard, refreshing recency on a hit.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.lock(self.shard_of(key)).get(key)
    }

    /// Insert or refresh a key in `lane` of its sub-shard.
    pub fn insert(&self, key: Key, value: Value, lane: Lane) {
        self.lock(self.shard_of(&key)).insert_in(key, value, lane);
    }

    /// Move a cached key to `lane` (see [`LruCache::reprice`]); a key that
    /// is not cached stays out.
    pub fn reprice(&self, key: &Key, lane: Lane) {
        self.lock(self.shard_of(key)).reprice(key, lane);
    }

    /// Replace a cached key's value and move it to `lane`, as an access,
    /// under one sub-shard lock (see [`LruCache::replace`] and
    /// [`LruCache::reprice`]); true if the key was cached and now holds
    /// `value`. Updates keep the cache consistent with the store this way,
    /// and priced at the tier that now serves the key.
    pub fn replace(&self, key: &Key, value: Value, lane: Lane) -> bool {
        let mut shard = self.lock(self.shard_of(key));
        shard.replace(key, value) && shard.reprice(key, lane)
    }

    /// Remove a key (deletes keep the cache consistent with the store).
    pub fn remove(&self, key: &Key) {
        self.lock(self.shard_of(key)).remove(key);
    }

    /// Total cached objects.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).len()).sum()
    }

    /// Total bytes of cached values.
    pub fn used_bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.lock(i).used_bytes())
            .sum()
    }

    /// Every cached key and value, shard by shard (a copy; nothing moves).
    pub(crate) fn entries(&self) -> Vec<(Key, Value)> {
        (0..self.shards.len())
            .flat_map(|i| {
                let shard = self.lock(i);
                let entries: Vec<(Key, Value)> = shard
                    .entries()
                    .map(|(key, value)| (key.clone(), value.clone()))
                    .collect();
                entries
            })
            .collect()
    }

    /// The lane a cached key sits in.
    #[cfg(test)]
    pub(crate) fn lane_of(&self, key: &Key) -> Option<Lane> {
        self.lock(self.shard_of(key)).lane_of(key)
    }
}

/// Virtual nanoseconds of serial work (probe + insert CPU cost) charged
/// against each sub-shard of a [`ShardedLruCache`], so the threaded
/// makespan model can fold the busiest sub-shard back into the run's
/// critical path: with one shard every probe serialises, with N shards
/// the residual serial work shrinks toward `total / N`.
#[derive(Debug)]
pub(crate) struct SerialTally(Vec<AtomicU64>);

impl SerialTally {
    /// A zero tally for a cache of `shards` sub-shards.
    pub fn new(shards: usize) -> Self {
        SerialTally((0..shards).map(|_| AtomicU64::new(0)).collect())
    }

    /// Charge `ns` virtual nanoseconds against sub-shard `shard`.
    pub(crate) fn charge(&self, shard: usize, ns: u64) {
        self.0[shard].fetch_add(ns, Ordering::Relaxed);
    }

    /// Serial virtual time accumulated by the busiest sub-shard — the
    /// residual serial component of the read path in the makespan model.
    pub(crate) fn busiest(&self) -> u64 {
        self.0
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> Key {
        Key::from_id(id)
    }

    /// A cache with both lanes priced at zero: plain LRU per sub-shard.
    fn lru(capacity_bytes: u64, shards: usize) -> ShardedLruCache {
        ShardedLruCache::new(capacity_bytes, shards, Nanos::ZERO, Nanos::ZERO)
    }

    #[test]
    fn sharded_cache_matches_basic_semantics() {
        let cache = lru(64 << 10, 8);
        assert_eq!(cache.shard_count(), 8);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Value::filled(100, 1), Lane::Cheap);
        assert_eq!(cache.get(&key(1)).unwrap().len(), 100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 100);
        assert!(cache.replace(&key(1), Value::filled(60, 2), Lane::Cheap));
        assert_eq!(cache.get(&key(1)).unwrap().as_bytes(), &[2; 60][..]);
        assert_eq!((cache.len(), cache.used_bytes()), (1, 60));
        assert!(!cache.replace(&key(2), Value::filled(60, 2), Lane::Cheap));
        assert_eq!(cache.len(), 1);
        cache.remove(&key(1));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!((cache.len(), cache.used_bytes()), (0, 0));
    }

    #[test]
    fn sharded_cache_spreads_keys_over_sub_shards() {
        let cache = lru(1 << 20, 8);
        let mut hit = vec![false; cache.shard_count()];
        for id in 0..256u64 {
            hit[cache.shard_of(&key(id))] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "sequential ids must spread over all sub-shards: {hit:?}"
        );
    }

    #[test]
    fn tiny_capacities_collapse_to_fewer_shards() {
        let cache = lru(2048, 8);
        assert_eq!(cache.shard_count(), 2);
        cache.insert(key(1), Value::filled(100, 1), Lane::Cheap);
        assert_eq!(cache.get(&key(1)).unwrap().len(), 100);
        let disabled = lru(0, 8);
        assert_eq!(disabled.shard_count(), 1);
        disabled.insert(key(1), Value::filled(1, 1), Lane::Cheap);
        assert_eq!(disabled.len(), 0);
    }

    #[test]
    fn single_shard_matches_the_mutexed_cache_exactly() {
        // With one sub-shard the sharded cache is the mutexed cache: a
        // deterministic trace must produce identical hits, misses and
        // evictions.
        let sharded = lru(300, 1);
        let mut plain = LruCache::new(300);
        for step in 0..200u64 {
            let id = step % 7;
            if step % 3 == 0 {
                sharded.insert(key(id), Value::filled(100, id as u8), Lane::Cheap);
                plain.insert(key(id), Value::filled(100, id as u8));
            } else {
                assert_eq!(
                    sharded.get(&key(id)).is_some(),
                    plain.get(&key(id)).is_some(),
                    "diverged at step {step}"
                );
            }
        }
        assert_eq!(sharded.len(), plain.len());
        assert_eq!(sharded.used_bytes(), plain.used_bytes());
    }

    #[test]
    fn serial_charge_tracks_the_busiest_sub_shard() {
        let cache = lru(1 << 20, 4);
        let tally = SerialTally::new(cache.shard_count());
        assert_eq!(tally.busiest(), 0);
        // Charge the same key repeatedly: one shard absorbs it all.
        for _ in 0..10 {
            tally.charge(cache.shard_of(&key(42)), 7);
        }
        assert_eq!(tally.busiest(), 70);
        // Charges to other shards don't reduce the max.
        for id in 0..64u64 {
            tally.charge(cache.shard_of(&key(id)), 1);
        }
        assert!(tally.busiest() >= 70);
    }

    #[test]
    fn sharded_cache_is_safe_under_concurrent_mixed_traffic() {
        use std::sync::Arc;
        let cache = Arc::new(lru(256 << 10, 8));
        let tally = Arc::new(SerialTally::new(cache.shard_count()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let (cache, tally) = (Arc::clone(&cache), Arc::clone(&tally));
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let id = (t * 131 + i) % 512;
                    match i % 4 {
                        0 => cache.insert(key(id), Value::filled(64, id as u8), Lane::Cheap),
                        1 => {
                            if let Some(v) = cache.get(&key(id)) {
                                // Entries are whole or absent, never torn.
                                assert_eq!(v.len(), 64);
                                assert!(v.as_bytes().iter().all(|&b| b == id as u8));
                            }
                        }
                        2 => cache.remove(&key(id)),
                        _ => tally.charge(cache.shard_of(&key(id)), 3),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.used_bytes() <= 256 << 10);
        assert!(tally.busiest() >= 3);
    }
}
