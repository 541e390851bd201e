//! The DRAM cache keeps what is dear to refetch. A value that flash
//! served to a key the clock tracker already tracks enters the cache's
//! dear lane and outlives a burst of NVM-served fills; a one-off flash
//! read enters the cheap lane with the NVM-served values and goes with
//! them; a promotion or a put moves a cached value to the cheap lane, since
//! NVM serves it from then on.

use prism_db::{Options, PrismDb};
use prism_types::{ConcurrentKvStore, Key, ReadSource, Value};

/// Keys written by [`loaded`], 1 000 bytes each.
const KEYS: u64 = 1_000;

/// An engine and 40 of its keys that NVM serves.
struct Loaded {
    db: PrismDb,
    on_nvm: Vec<Key>,
}

/// One partition whose one cache shard holds 16 values, with 512 KB of
/// NVM and one SST file, loaded with [`KEYS`] keys: about 270 of them
/// stay on NVM, the first ones written live on flash only. The tracker
/// holds 400 keys, so a flash key is untracked until it is read twice.
fn loaded() -> Loaded {
    let mut options = Options::scaled_default(2_000);
    options.num_partitions = 1;
    options.cache_shards = 1;
    options.dram_cache_bytes = 16 * 1_000;
    options.nvm_capacity_bytes = 512 * 1024;
    options.sst_target_bytes = 16 << 20;
    let db = PrismDb::open(options).expect("valid options");
    for id in 0..KEYS {
        db.put(Key::from_id(id), Value::filled(1_000, 1)).unwrap();
    }
    let newest_first = (0..KEYS).rev().map(Key::from_id);
    let on_nvm = newest_first.filter(|key| source(&db, key) == ReadSource::Nvm);
    let on_nvm = on_nvm.take(40).collect();
    Loaded { db, on_nvm }
}

fn source(db: &PrismDb, key: &Key) -> ReadSource {
    let lookup = db.get(key).unwrap();
    assert!(lookup.value.is_some(), "{key:?} was written");
    lookup.source
}

impl Loaded {
    /// Read the 40 NVM keys three times round: each read misses the
    /// 16-value cache, NVM serves it and it fills the cache.
    fn burst_of_nvm_fills(&self) {
        for _ in 0..3 {
            for key in &self.on_nvm {
                assert_eq!(source(&self.db, key), ReadSource::Nvm, "{key:?}");
            }
        }
    }

    /// Read flash-only `key` twice, each read drained by a write, which
    /// has the tracker admit it on the second; let a burst evict its cheap
    /// entry; read it again, now tracked.
    fn fill_the_dear_lane(&self, key: &Key) {
        let db = &self.db;
        assert_eq!(
            source(db, key),
            ReadSource::Flash,
            "{key:?} is on flash only"
        );
        db.put(self.on_nvm[0].clone(), Value::filled(1_000, 1))
            .unwrap();
        source(db, key);
        db.put(self.on_nvm[0].clone(), Value::filled(1_000, 1))
            .unwrap();
        self.burst_of_nvm_fills();
        assert_eq!(
            source(db, key),
            ReadSource::Flash,
            "the burst evicted {key:?}"
        );
    }
}

#[test]
fn a_popular_value_served_from_flash_outlives_a_burst_of_nvm_fills() {
    let loaded = loaded();
    let key = Key::from_id(5);
    loaded.fill_the_dear_lane(&key);
    loaded.burst_of_nvm_fills();
    // As plain LRU, the cache held the last 16 NVM-served values only.
    assert_eq!(source(&loaded.db, &key), ReadSource::Dram);
}

#[test]
fn a_one_off_flash_read_does_not_outlive_the_burst() {
    let loaded = loaded();
    let key = Key::from_id(5);
    assert_eq!(source(&loaded.db, &key), ReadSource::Flash, "untracked");
    loaded.burst_of_nvm_fills();
    assert_eq!(source(&loaded.db, &key), ReadSource::Flash);
}

/// A put writes the key's newest version to NVM, so its cached value
/// leaves the dear lane with it and goes with the next burst of
/// NVM-served fills.
#[test]
fn a_put_moves_a_cached_value_to_the_cheap_lane() {
    let loaded = loaded();
    let (db, key) = (&loaded.db, Key::from_id(5));
    loaded.fill_the_dear_lane(&key);
    assert_eq!(source(db, &key), ReadSource::Dram, "in the dear lane");
    db.put(key.clone(), Value::filled(1_000, 2)).unwrap();
    assert_eq!(source(db, &key), ReadSource::Dram, "updated in place");
    loaded.burst_of_nvm_fills();
    assert_eq!(
        source(db, &key),
        ReadSource::Nvm,
        "written, then evicted as an NVM-served value"
    );
}

/// A read-heavy phase over 100 flash keys, with a put every 20 reads so
/// the read side drains, makes the read trigger schedule a promotion. It
/// promotes the popular flash keys, the cached one among them, which then
/// goes with the next burst of NVM-served fills.
#[test]
fn a_promotion_moves_a_cached_value_to_the_cheap_lane() {
    let loaded = loaded();
    let (db, key) = (&loaded.db, Key::from_id(5));
    loaded.fill_the_dear_lane(&key);
    let promoted = |db: &PrismDb| db.stats().compaction.promoted_objects;
    let mut reads = 0u64;
    while promoted(db) == 0 {
        assert!(reads < 20_000, "no promotion after {reads} reads");
        source(db, &Key::from_id(200 + reads % 100));
        if reads.is_multiple_of(10) {
            assert_eq!(source(db, &key), ReadSource::Dram, "read {reads}");
        }
        if reads.is_multiple_of(20) {
            let nvm = loaded.on_nvm[(reads / 20 % 10) as usize].clone();
            db.put(nvm, Value::filled(1_000, 1)).unwrap();
        }
        reads += 1;
    }
    loaded.burst_of_nvm_fills();
    assert_eq!(
        source(db, &key),
        ReadSource::Nvm,
        "promoted, then evicted as an NVM-served value"
    );
}
