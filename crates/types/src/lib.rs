//! Common types shared by every crate in the PrismDB reproduction.
//!
//! This crate defines the vocabulary of the system: [`Key`] and [`Value`]
//! types, the byte-bounded [`LruCache`] of them that both engines cache
//! objects in, the checksummed [`Version`] of a key that both storage tiers
//! hold, simulated-time units ([`Nanos`]), the engine API — the `&self`
//! [`ConcurrentKvStore`] an internally-locked engine implements, the
//! `&mut self` [`KvStore`] every such engine gets from one blanket impl and
//! single-threaded engines implement by hand, the [`MutexKv`] adapter for
//! the other direction and the [`MemStore`] reference oracle — the
//! snapshot / optimistic transaction layer ([`SnapshotId`],
//! [`Transaction`]), operation descriptions consumed by the benchmark
//! harness, the futures-free [`Completion`] / [`Ticket`] primitive used by
//! the async submission front-end (with its [`FrontendStats`]), and the
//! error type used across the workspace.
//!
//! # Example
//!
//! ```
//! use prism_types::{Key, Value, Nanos};
//!
//! let key = Key::from_id(42);
//! assert_eq!(key.id(), 42);
//! let value = Value::filled(16, 0xAB);
//! assert_eq!(value.len(), 16);
//! let t = Nanos::from_micros(6) + Nanos::from_micros(4);
//! assert_eq!(t.as_micros(), 10);
//! ```

#![deny(unsafe_code)]

mod batch;
mod cache;
pub mod checksum;
mod completion;
mod concurrent;
mod error;
mod key;
mod mem;
mod ops;
mod stats;
mod time;
mod txn;
mod value;

pub use batch::{BatchOp, WriteBatch};
pub use cache::LruCache;
pub use checksum::Version;
pub use completion::{
    completion_pair, completion_pair_gauged, Completion, Ticket, TicketGauge, WakeList,
};
pub use concurrent::{ConcurrentKvStore, MutexKv};
pub use error::{PrismError, Result};
pub use key::Key;
pub use mem::MemStore;
pub use ops::{Lookup, Op, OpKind, ReadSource, ScanResult};
pub use stats::{
    CompactionStats, CompactionStatsCells, EngineStats, EngineStatsCells, FrontendStats,
    FrontendStatsCells, IntegrityStats, IntegrityStatsCells, MetricKind, MetricVisitor, NetStats,
    NetStatsCells, PartitionHealth, TierIo, TierIoCells, TxnStats, TxnStatsCells,
};
pub use time::Nanos;
pub use txn::{run_transaction, SnapshotId, Transaction};
pub use value::Value;

/// A storage engine that the benchmark harness can drive.
///
/// Both PrismDB (`prism-db`) and the LSM baseline family (`prism-lsm`)
/// have this trait, so every experiment in the paper can be expressed
/// once and run against any engine.
///
/// All methods take `&mut self`: engines are driven by a single benchmark
/// thread and perform their own internal partitioning / background-work
/// accounting in simulated (virtual) time. Each operation returns how much
/// simulated time it consumed so the harness can build latency
/// distributions without real sleeps.
///
/// Only inherently single-threaded engines ([`MemStore`], the LSM
/// baseline) implement it by hand. An engine that supports multi-threaded
/// clients implements [`ConcurrentKvStore`], the `&self` form of the same
/// operations, and has this trait through the one blanket impl beside it —
/// as does every `Arc` clone of it, which is the per-thread handle.
pub trait KvStore {
    /// Insert or update `key` with `value`.
    ///
    /// Returns the simulated service time of the operation, including any
    /// write-stall the engine imposed (e.g. while waiting for a compaction
    /// to free space on the fast tier).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::CapacityExceeded`] if the engine cannot free
    /// enough space on any tier to absorb the write.
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos>;

    /// Look up the most recent value of `key`.
    ///
    /// The returned [`Lookup`] records where the read was served from
    /// (DRAM, NVM or flash) in addition to the value and service time.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal corruption; a missing key is
    /// reported as `Lookup { value: None, .. }`.
    fn get(&mut self, key: &Key) -> Result<Lookup>;

    /// Delete `key`. Deleting a non-existent key is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::CapacityExceeded`] if writing a tombstone to
    /// the fast tier is impossible.
    fn delete(&mut self, key: &Key) -> Result<Nanos>;

    /// Return up to `count` key-value pairs with keys `>= start`, in key
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal corruption.
    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult>;

    /// Apply a [`WriteBatch`] — equivalent to applying its entries front
    /// to back (when one key appears several times the last entry wins),
    /// but engines with a real batched path amortise per-operation
    /// overhead across the group. Returns the total simulated service
    /// time of the batch.
    ///
    /// The default implementation simply loops over the entries, so every
    /// engine supports the API; it makes no atomicity promise. Engines
    /// that override it document their own atomicity contract (PrismDB:
    /// atomic across all touched partitions, via its commit log).
    ///
    /// # Errors
    ///
    /// Returns the first per-entry error ([`PrismError::CapacityExceeded`]
    /// etc.); entries already applied by the default fallback stay
    /// applied.
    fn apply_batch(&mut self, batch: WriteBatch) -> Result<Nanos> {
        let mut total = Nanos::ZERO;
        for op in batch {
            total += match op {
                BatchOp::Put(key, value) => self.put(key, value)?,
                BatchOp::Delete(key) => self.delete(&key)?,
            };
        }
        Ok(total)
    }

    /// Snapshot of cumulative engine statistics (tier I/O, compaction work,
    /// read-source histogram).
    fn stats(&self) -> EngineStats;

    /// Total simulated wall-clock time elapsed so far: the maximum over all
    /// partitions of foreground and background completion time.
    fn elapsed(&self) -> Nanos;

    /// Short human-readable engine name used in experiment tables.
    fn engine_name(&self) -> &str;
}

/// `len` reproducible pseudo-random bytes (splitmix64) for this crate's
/// property tests, which have no `rand` to lean on.
#[cfg(test)]
pub(crate) fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&next().to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn kvstore_trait_is_object_safe() {
        let mut store: Box<dyn KvStore> = Box::new(MemStore::default());
        store.put(Key::from_id(1), Value::filled(8, 1)).unwrap();
        let got = store.get(&Key::from_id(1)).unwrap();
        assert_eq!(got.value.unwrap().len(), 8);
        assert!(store.elapsed() > Nanos::ZERO);
    }

    #[test]
    fn kvstore_scan_orders_keys() {
        let mut store = MemStore::default();
        for id in [5u64, 1, 9, 3] {
            store
                .put(Key::from_id(id), Value::filled(4, id as u8))
                .unwrap();
        }
        let res = store.scan(&Key::from_id(2), 10).unwrap();
        let ids: Vec<u64> = res.entries.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, vec![3, 5, 9]);
    }
}
