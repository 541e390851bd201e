//! The engine API and the adapters between its two receivers.
//!
//! [`ConcurrentKvStore`] (`&self`) is the one trait an internally-locked
//! engine implements: `Arc<Engine>` handles can be cloned into many OS
//! threads and the engine provides its own synchronisation (PrismDB locks
//! each partition separately, so operations on different partitions
//! proceed in parallel). [`crate::KvStore`] (`&mut self`) is the same
//! operations for a single-threaded driver; only engines that are
//! inherently single-threaded ([`crate::MemStore`], the LSM baseline)
//! implement it by hand.
//!
//! One adapter bridges the traits in each direction:
//!
//! * every `ConcurrentKvStore` is a [`crate::KvStore`] through one blanket
//!   impl, so single-threaded drivers (the benchmark runner, tests) drive a
//!   shared engine unchanged. A holder of an `Arc<E>` passes `&*arc`.
//! * [`MutexKv`] wraps any `impl KvStore` in one global mutex and
//!   implements [`ConcurrentKvStore`]. It is the baseline adapter: safe
//!   everywhere, parallel nowhere (a single shard), which is exactly the
//!   foil the scalability experiments compare sharded engines against.
//!
//! **Import rule: one trait per module.** `stats`, `elapsed` and
//! `engine_name` take `&self` in both traits, so with both in scope a call
//! on an engine that has both is ambiguous. Import the trait the module
//! drives engines through; where a module needs the other one for a single
//! call, import it in that function (or name it: `KvStore::stats(&db)`).

use std::sync::{Mutex, MutexGuard};

use crate::{
    BatchOp, EngineStats, Key, KvStore, Lookup, Nanos, PartitionHealth, PrismError, Result,
    ScanResult, SnapshotId, Value, WriteBatch,
};

/// A storage engine safe to drive from many threads through `&self`.
///
/// The operation contract (semantics, error cases, returned simulated
/// latencies) is identical to [`crate::KvStore`]; only the receiver
/// changes. Implementations must be internally synchronised: any number of
/// threads may call any mix of methods concurrently.
///
/// The two `shard_*` methods expose the engine's parallelism structure so
/// harnesses can model queueing per shard: operations on the same shard
/// serialise, operations on different shards proceed in parallel. A
/// coarse-grained engine (one global lock) reports a single shard.
pub trait ConcurrentKvStore: Send + Sync {
    /// Insert or update `key` with `value`. See [`crate::KvStore::put`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrismError::CapacityExceeded`] if no tier can
    /// absorb the write.
    fn put(&self, key: Key, value: Value) -> Result<Nanos>;

    /// Look up the most recent value of `key`. See [`crate::KvStore::get`].
    ///
    /// # Errors
    ///
    /// Returns an error only on internal corruption.
    fn get(&self, key: &Key) -> Result<Lookup>;

    /// Delete `key`. See [`crate::KvStore::delete`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrismError::CapacityExceeded`] if writing a
    /// tombstone is impossible.
    fn delete(&self, key: &Key) -> Result<Nanos>;

    /// Return up to `count` pairs with keys `>= start`, in key order. See
    /// [`crate::KvStore::scan`].
    ///
    /// # Errors
    ///
    /// Returns an error only on internal corruption.
    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult>;

    /// Apply a [`WriteBatch`] as a group. See [`crate::KvStore::apply_batch`]
    /// for the semantics (front-to-back equivalence, last entry per key
    /// wins). The default implementation loops over the entries per-op and
    /// makes no atomicity promise; engines with a real batched path
    /// (PrismDB) override it to install the batch atomically — each
    /// shard's write lock is taken once, and a multi-shard batch is
    /// protected by a commit-log record so crash recovery never exposes a
    /// torn batch.
    ///
    /// # Errors
    ///
    /// Returns the first per-entry error; with the default fallback,
    /// entries already applied stay applied.
    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        let mut total = Nanos::ZERO;
        for op in batch {
            total += match op {
                BatchOp::Put(key, value) => self.put(key, value)?,
                BatchOp::Delete(key) => self.delete(&key)?,
            };
        }
        Ok(total)
    }

    /// Snapshot of cumulative engine statistics.
    fn stats(&self) -> EngineStats;

    /// Total simulated time elapsed so far.
    fn elapsed(&self) -> Nanos;

    /// Short human-readable engine name.
    fn engine_name(&self) -> &str;

    /// Number of independent shards (lock domains) inside the engine.
    fn shard_count(&self) -> usize {
        1
    }

    /// The shard that serialises operations on `key` (in `0..shard_count()`).
    fn shard_of(&self, _key: &Key) -> usize {
        0
    }

    /// A conservative superset of the shards a scan starting at `start`
    /// may lock simultaneously. Harness queueing models charge a scan's
    /// latency to every shard in this range, since time spent holding
    /// several shard locks cannot be overlapped with work on any of them.
    /// The default assumes a scan may touch every shard; range-partitioned
    /// engines can narrow it to the tail starting at the routed shard.
    fn shards_for_scan(&self, _start: &Key) -> std::ops::Range<usize> {
        0..self.shard_count()
    }

    /// Whether point reads (and scans) on the *same* shard can proceed in
    /// parallel with each other. Engines that protect each shard with a
    /// reader-writer lock return `true`; engines that serialise every
    /// operation on a shard (a plain mutex per shard, or one global lock)
    /// keep the default `false`. Harness queueing models use this to decide
    /// whether read latencies count towards a shard's serial work.
    fn concurrent_reads(&self) -> bool {
        false
    }

    /// Cumulative simulated time of the jobs each background compaction
    /// worker installed, indexed by worker. Engines that compact inline on
    /// the triggering client thread (charging stalls instead) return an
    /// empty vector. Harnesses extend the makespan lower bound with the
    /// busiest worker's delta over the measured window:
    /// `max(busiest client, busiest shard, busiest background worker)`.
    fn background_worker_times(&self) -> Vec<Nanos> {
        Vec::new()
    }

    /// Cumulative *serial* read-path time accumulated by each shard's
    /// busiest internal lock domain, indexed by shard. Even when
    /// [`Self::concurrent_reads`] is `true`, a small slice of every read
    /// still serialises inside the engine (a DRAM-cache sub-shard probe,
    /// for instance); this exposes that slice so harness queueing models
    /// can charge it to the shard instead of pretending reads are free of
    /// serial work. Engines whose reads serialise entirely (already
    /// captured by `concurrent_reads() == false`) or that do not track the
    /// residue return the default empty vector.
    fn shard_read_serial_times(&self) -> Vec<Nanos> {
        Vec::new()
    }

    /// Health of one shard under corruption pressure, for health
    /// endpoints and admin planes. The default reports every shard
    /// healthy; engines with a quarantine/degraded-mode subsystem
    /// (PrismDB) override it.
    fn shard_health(&self, _shard: usize) -> PartitionHealth {
        PartitionHealth::Healthy
    }

    /// Number of objects currently quarantined (replaced by
    /// tombstone-with-error sentinels) across all shards. The default
    /// reports zero; engines with an integrity subsystem override it.
    fn quarantined_objects(&self) -> u64 {
        0
    }

    /// Write-pressure hint for one shard, used by submission front-ends
    /// to apply back-pressure *before* a write stalls inside the engine.
    /// Values at or above `1.0` mean the shard's fast tier has reached its
    /// compaction high watermark (new writes are about to trigger or queue
    /// behind demotions); the default `0.0` means "no pressure signal".
    /// Engines without per-shard capacity tracking keep the default.
    fn shard_write_pressure(&self, _shard: usize) -> f64 {
        0.0
    }

    /// Pin a consistent read snapshot: subsequent [`Self::snapshot_get`] /
    /// [`Self::snapshot_scan`] calls with the returned id observe every
    /// write committed before the pin and none committed after, while
    /// writers keep making progress. Pair with
    /// [`Self::release_snapshot`] so the engine can garbage collect
    /// superseded versions.
    ///
    /// # Errors
    ///
    /// The default returns [`PrismError::Unsupported`]; engines with
    /// sequence-stamped versions (PrismDB) override it.
    fn snapshot(&self) -> Result<SnapshotId> {
        Err(PrismError::Unsupported("snapshots"))
    }

    /// Release a snapshot pinned by [`Self::snapshot`]. Releasing an
    /// already-released snapshot is a no-op. The default does nothing.
    fn release_snapshot(&self, _snapshot: SnapshotId) {}

    /// Point read as of `snapshot` (`None` if the key was absent at the
    /// snapshot). Does not observe writes committed after the pin.
    ///
    /// # Errors
    ///
    /// The default returns [`PrismError::Unsupported`].
    fn snapshot_get(&self, _snapshot: SnapshotId, _key: &Key) -> Result<Option<Value>> {
        Err(PrismError::Unsupported("snapshots"))
    }

    /// Range scan as of `snapshot`: up to `count` pairs with keys
    /// `>= start` in key order, reflecting exactly the state at the pin.
    ///
    /// # Errors
    ///
    /// The default returns [`PrismError::Unsupported`].
    fn snapshot_scan(
        &self,
        _snapshot: SnapshotId,
        _start: &Key,
        _count: usize,
    ) -> Result<Vec<(Key, Value)>> {
        Err(PrismError::Unsupported("snapshots"))
    }

    /// Commit an optimistic transaction: verify that no key in `reads`
    /// changed after `snapshot` was pinned, then apply `writes`
    /// atomically across every partition they touch. Used by
    /// [`crate::Transaction::commit`]; the caller still owns (and must
    /// release) the snapshot.
    ///
    /// # Errors
    ///
    /// [`PrismError::TxnConflict`] if validation fails (nothing applied);
    /// the default returns [`PrismError::Unsupported`].
    fn txn_commit(
        &self,
        _snapshot: SnapshotId,
        _reads: &[Key],
        _writes: WriteBatch,
    ) -> Result<Nanos> {
        Err(PrismError::Unsupported("transactions"))
    }
}

/// The `&mut self` API of every internally-locked engine, derived: a
/// single-threaded driver written against [`KvStore`] runs an engine or a
/// `dyn ConcurrentKvStore` unchanged. Exclusive access adds nothing to a shared-reference engine,
/// so each method is the `&self` one.
impl<E: ConcurrentKvStore + ?Sized> KvStore for E {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        ConcurrentKvStore::put(self, key, value)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        ConcurrentKvStore::get(self, key)
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        ConcurrentKvStore::delete(self, key)
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        ConcurrentKvStore::scan(self, start, count)
    }

    fn apply_batch(&mut self, batch: WriteBatch) -> Result<Nanos> {
        ConcurrentKvStore::apply_batch(self, batch)
    }

    fn stats(&self) -> EngineStats {
        ConcurrentKvStore::stats(self)
    }

    fn elapsed(&self) -> Nanos {
        ConcurrentKvStore::elapsed(self)
    }

    fn engine_name(&self) -> &str {
        ConcurrentKvStore::engine_name(self)
    }
}

/// A single-threaded engine made thread-safe by one global mutex.
///
/// This is the honest adapter for engines without internal sharding (the
/// RocksDB-style LSM baselines): every operation takes the same lock, so
/// concurrent clients serialise completely and [`ConcurrentKvStore`]'s
/// shard model reports a single shard.
#[derive(Debug)]
pub struct MutexKv<E> {
    /// Engine name captured at construction (the lock guard cannot outlive
    /// a borrowed `&str` from `engine_name`).
    name: String,
    inner: Mutex<E>,
}

impl<E: KvStore> MutexKv<E> {
    /// Wrap an engine in a global lock.
    pub fn new(engine: E) -> Self {
        MutexKv {
            name: engine.engine_name().to_string(),
            inner: Mutex::new(engine),
        }
    }

    /// Lock the inner engine directly (e.g. to read engine-specific state
    /// that is not part of the trait).
    pub(crate) fn lock(&self) -> MutexGuard<'_, E> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl<E: KvStore + Send> ConcurrentKvStore for MutexKv<E> {
    fn put(&self, key: Key, value: Value) -> Result<Nanos> {
        self.lock().put(key, value)
    }

    fn get(&self, key: &Key) -> Result<Lookup> {
        self.lock().get(key)
    }

    fn delete(&self, key: &Key) -> Result<Nanos> {
        self.lock().delete(key)
    }

    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult> {
        self.lock().scan(start, count)
    }

    /// Group commit under the global lock: the lock is taken once for the
    /// whole batch, so concurrent clients pay one acquisition per group
    /// instead of one per entry (and the inner engine may further amortise
    /// via its own [`KvStore::apply_batch`], e.g. one WAL fsync per
    /// batch).
    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        self.lock().apply_batch(batch)
    }

    fn stats(&self) -> EngineStats {
        self.lock().stats()
    }

    fn elapsed(&self) -> Nanos {
        self.lock().elapsed()
    }

    fn engine_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    // One trait per module: `KvStore` is named by path where it is needed.
    use super::{ConcurrentKvStore, MutexKv};
    use crate::{
        EngineStats, Key, Lookup, MemStore, Nanos, PartitionHealth, ReadSource, Result, ScanResult,
        SnapshotId, Value, WriteBatch,
    };
    use std::sync::Arc;

    #[test]
    fn concurrent_trait_is_object_safe() {
        let store: Box<dyn ConcurrentKvStore> = Box::new(MutexKv::new(MemStore::default()));
        store.put(Key::from_id(1), Value::filled(8, 1)).unwrap();
        assert!(store.get(&Key::from_id(1)).unwrap().value.is_some());
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_of(&Key::from_id(99)), 0);
    }

    #[test]
    fn mutex_adapter_is_driveable_from_many_threads() {
        let store = Arc::new(MutexKv::new(MemStore::default()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let id = t * 1_000 + i;
                        store
                            .put(Key::from_id(id), Value::filled(16, t as u8))
                            .unwrap();
                    }
                });
            }
        });
        let scanned = store.scan(&Key::min(), 1_000).unwrap();
        assert_eq!(scanned.entries.len(), 200);
        assert_eq!(store.engine_name(), "memstore");
    }

    /// An engine that answers every defaulted method with something the
    /// default never returns, so a forwarding impl that forgets a method
    /// (and silently inherits the default) is caught.
    struct Probe;

    const PROBE_KEY: u64 = 77;

    impl ConcurrentKvStore for Probe {
        fn put(&self, _key: Key, _value: Value) -> Result<Nanos> {
            Ok(Nanos::from_nanos(1))
        }
        fn get(&self, _key: &Key) -> Result<Lookup> {
            Ok(Lookup {
                value: None,
                latency: Nanos::from_nanos(2),
                source: ReadSource::NotFound,
            })
        }
        fn delete(&self, _key: &Key) -> Result<Nanos> {
            Ok(Nanos::from_nanos(3))
        }
        fn scan(&self, _start: &Key, _count: usize) -> Result<ScanResult> {
            Ok(ScanResult {
                entries: Vec::new(),
                latency: Nanos::from_nanos(4),
            })
        }
        fn apply_batch(&self, _batch: WriteBatch) -> Result<Nanos> {
            Ok(Nanos::from_nanos(5))
        }
        fn stats(&self) -> EngineStats {
            EngineStats {
                user_bytes_written: 6,
                ..EngineStats::default()
            }
        }
        fn elapsed(&self) -> Nanos {
            Nanos::from_nanos(7)
        }
        fn engine_name(&self) -> &str {
            "probe"
        }
        fn shard_count(&self) -> usize {
            9
        }
        fn shard_of(&self, _key: &Key) -> usize {
            8
        }
        fn shards_for_scan(&self, _start: &Key) -> std::ops::Range<usize> {
            3..5
        }
        fn concurrent_reads(&self) -> bool {
            true
        }
        fn background_worker_times(&self) -> Vec<Nanos> {
            vec![Nanos::from_nanos(10)]
        }
        fn shard_read_serial_times(&self) -> Vec<Nanos> {
            vec![Nanos::from_nanos(11)]
        }
        fn shard_health(&self, _shard: usize) -> PartitionHealth {
            PartitionHealth::Degraded
        }
        fn quarantined_objects(&self) -> u64 {
            12
        }
        fn shard_write_pressure(&self, _shard: usize) -> f64 {
            1.5
        }
        fn snapshot(&self) -> Result<SnapshotId> {
            Ok(SnapshotId(13))
        }
        fn release_snapshot(&self, _snapshot: SnapshotId) {
            panic!("release_snapshot reached the probe");
        }
        fn snapshot_get(&self, _snapshot: SnapshotId, _key: &Key) -> Result<Option<Value>> {
            Ok(Some(Value::filled(14, 0)))
        }
        fn snapshot_scan(
            &self,
            _snapshot: SnapshotId,
            _start: &Key,
            _count: usize,
        ) -> Result<Vec<(Key, Value)>> {
            Ok(vec![(Key::from_id(PROBE_KEY), Value::filled(15, 0))])
        }
        fn txn_commit(
            &self,
            _snapshot: SnapshotId,
            _reads: &[Key],
            _writes: WriteBatch,
        ) -> Result<Nanos> {
            Ok(Nanos::from_nanos(16))
        }
    }

    /// Every method of the `&self` trait must reach the probe.
    fn assert_reaches_probe(store: &(impl ConcurrentKvStore + ?Sized)) {
        let key = Key::from_id(PROBE_KEY);
        let snap = SnapshotId(0);
        assert_eq!(
            store.put(key.clone(), Value::empty()).unwrap().as_nanos(),
            1
        );
        assert_eq!(store.get(&key).unwrap().latency.as_nanos(), 2);
        assert_eq!(store.delete(&key).unwrap().as_nanos(), 3);
        assert_eq!(store.scan(&key, 1).unwrap().latency.as_nanos(), 4);
        assert_eq!(store.apply_batch(WriteBatch::new()).unwrap().as_nanos(), 5);
        assert_eq!(store.stats().user_bytes_written, 6);
        assert_eq!(store.elapsed().as_nanos(), 7);
        assert_eq!(store.engine_name(), "probe");
        assert_eq!(store.shard_count(), 9);
        assert_eq!(store.shard_of(&key), 8);
        assert_eq!(store.shards_for_scan(&key), 3..5);
        assert!(store.concurrent_reads());
        assert_eq!(store.background_worker_times(), [Nanos::from_nanos(10)]);
        assert_eq!(store.shard_read_serial_times(), [Nanos::from_nanos(11)]);
        assert_eq!(store.shard_health(0), PartitionHealth::Degraded);
        assert_eq!(store.quarantined_objects(), 12);
        assert_eq!(store.shard_write_pressure(0), 1.5);
        assert_eq!(store.snapshot().unwrap(), SnapshotId(13));
        let released = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.release_snapshot(snap);
        }));
        assert!(released.is_err(), "release_snapshot fell back to the no-op");
        assert_eq!(store.snapshot_get(snap, &key).unwrap().unwrap().len(), 14);
        assert_eq!(store.snapshot_scan(snap, &key, 1).unwrap()[0].1.len(), 15);
        let committed = store.txn_commit(snap, &[], WriteBatch::new());
        assert_eq!(committed.unwrap().as_nanos(), 16);
    }

    /// The eight operations the `&mut self` trait shares must reach it too.
    fn assert_kvstore_view_reaches_probe(store: &mut (impl crate::KvStore + ?Sized)) {
        let key = Key::from_id(PROBE_KEY);
        assert_eq!(
            store.put(key.clone(), Value::empty()).unwrap().as_nanos(),
            1
        );
        assert_eq!(store.get(&key).unwrap().latency.as_nanos(), 2);
        assert_eq!(store.delete(&key).unwrap().as_nanos(), 3);
        assert_eq!(store.scan(&key, 1).unwrap().latency.as_nanos(), 4);
        assert_eq!(store.apply_batch(WriteBatch::new()).unwrap().as_nanos(), 5);
        assert_eq!(store.stats().user_bytes_written, 6);
        assert_eq!(store.elapsed().as_nanos(), 7);
        assert_eq!(store.engine_name(), "probe");
    }

    #[test]
    fn forwarding_is_total() {
        assert_reaches_probe(&Probe);
        let boxed: Box<dyn ConcurrentKvStore> = Box::new(Probe);
        assert_reaches_probe(&*boxed);

        assert_kvstore_view_reaches_probe(&mut Probe);
        let mut boxed: Box<dyn ConcurrentKvStore> = Box::new(Probe);
        assert_kvstore_view_reaches_probe(&mut *boxed);
        let mut object: Box<dyn crate::KvStore> = Box::new(Probe);
        assert_kvstore_view_reaches_probe(&mut *object);
    }
}
