//! Read snapshots and optimistic multi-key transactions.
//!
//! Engines that support a consistent read view implement the snapshot
//! methods of [`ConcurrentKvStore`]: `snapshot()` pins a monotone commit
//! sequence, and `snapshot_get` / `snapshot_scan` answer as of that
//! sequence while concurrent writers keep making progress. [`Transaction`]
//! layers optimistic concurrency control on top: reads go through a pinned
//! snapshot and are recorded in a read set, writes are buffered locally,
//! and `commit` asks the engine to validate that no read key changed after
//! the snapshot before applying the write buffer atomically.
//!
//! A conflict surfaces as [`PrismError::TxnConflict`]; the transaction was
//! not applied and the caller retries against a fresh snapshot (see
//! [`run_transaction`] for a ready-made retry loop).

use std::collections::{HashMap, HashSet};

use crate::{ConcurrentKvStore, Key, Nanos, PrismError, Result, Value, WriteBatch};

/// A pinned read snapshot: the engine answers `snapshot_get` /
/// `snapshot_scan` as of this commit sequence.
///
/// Snapshots are engine resources; pair every successful
/// [`ConcurrentKvStore::snapshot`] with a
/// [`ConcurrentKvStore::release_snapshot`] so the engine can garbage
/// collect superseded versions ([`Transaction`] does this automatically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u64);

impl SnapshotId {
    /// The pinned commit sequence: versions with `seq <= sequence()` are
    /// visible, later writes are not.
    pub fn sequence(&self) -> u64 {
        self.0
    }
}

/// An optimistic multi-key transaction over a [`ConcurrentKvStore`].
///
/// Reads see the state at the transaction's snapshot plus the
/// transaction's own buffered writes; nothing is published until
/// [`Transaction::commit`], which applies the write buffer atomically
/// (all partitions or none) after validating the read set.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use prism_types::{ConcurrentKvStore, Key, MemStore, MutexKv, Transaction};
///
/// let engine = Arc::new(MutexKv::new(MemStore::default()));
/// // MutexKv has no snapshot support, so beginning a transaction fails
/// // with `Unsupported` — engines like PrismDB accept it.
/// assert!(Transaction::begin(engine.as_ref()).is_err());
/// ```
pub struct Transaction<'a, E: ConcurrentKvStore + ?Sized> {
    engine: &'a E,
    snapshot: SnapshotId,
    /// Keys read through the snapshot, validated at commit.
    reads: Vec<Key>,
    read_set: HashSet<Key>,
    /// Buffered writes in submission order (last write per key wins).
    writes: WriteBatch,
    /// Latest buffered write per key, for read-your-writes.
    write_tail: HashMap<Key, Option<Value>>,
    finished: bool,
}

impl<'a, E: ConcurrentKvStore + ?Sized> Transaction<'a, E> {
    /// Pin a snapshot and start a transaction.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Unsupported`] if the engine has no snapshot
    /// support.
    pub fn begin(engine: &'a E) -> Result<Self> {
        let snapshot = engine.snapshot()?;
        Ok(Transaction {
            engine,
            snapshot,
            reads: Vec::new(),
            read_set: HashSet::new(),
            writes: WriteBatch::new(),
            write_tail: HashMap::new(),
            finished: false,
        })
    }

    /// The snapshot this transaction reads through.
    pub fn snapshot(&self) -> SnapshotId {
        self.snapshot
    }

    /// Read `key`: the transaction's own buffered write if any, otherwise
    /// the value at the snapshot. The key joins the read set (unless the
    /// transaction already overwrote it) and is validated at commit.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal corruption.
    pub fn get(&mut self, key: &Key) -> Result<Option<Value>> {
        if let Some(buffered) = self.write_tail.get(key) {
            return Ok(buffered.clone());
        }
        if self.read_set.insert(key.clone()) {
            self.reads.push(key.clone());
        }
        let lookup = self.engine.snapshot_get(self.snapshot, key)?;
        Ok(lookup)
    }

    /// Buffer an insert/update of `key`.
    pub fn put(&mut self, key: Key, value: Value) {
        self.write_tail.insert(key.clone(), Some(value.clone()));
        self.writes.put(key, value);
    }

    /// Buffer a delete of `key`.
    pub fn delete(&mut self, key: Key) {
        self.write_tail.insert(key.clone(), None);
        self.writes.delete(key);
    }

    /// Validate the read set and atomically apply the buffered writes.
    ///
    /// Returns the simulated service time of the commit. On
    /// [`PrismError::TxnConflict`] nothing was applied; retry with a fresh
    /// transaction. The snapshot is released either way.
    ///
    /// # Errors
    ///
    /// [`PrismError::TxnConflict`] if a read key changed after the
    /// snapshot; write errors ([`PrismError::CapacityExceeded`], ...) are
    /// forwarded from the engine with nothing applied.
    pub fn commit(mut self) -> Result<Nanos> {
        self.finished = true;
        let writes = std::mem::take(&mut self.writes);
        let result = self.engine.txn_commit(self.snapshot, &self.reads, writes);
        self.engine.release_snapshot(self.snapshot);
        result
    }

    /// Abandon the transaction, releasing its snapshot. Buffered writes
    /// are discarded; this cannot fail.
    pub(crate) fn rollback(mut self) {
        self.finished = true;
        self.engine.release_snapshot(self.snapshot);
    }
}

impl<E: ConcurrentKvStore + ?Sized> Drop for Transaction<'_, E> {
    fn drop(&mut self) {
        if !self.finished {
            self.engine.release_snapshot(self.snapshot);
        }
    }
}

/// Run `body` inside a transaction, retrying on [`PrismError::TxnConflict`]
/// up to `max_retries` additional attempts.
///
/// `body` may return `Err` to abort (the transaction is rolled back and the
/// error forwarded). On success the transaction commits and the body's
/// value is returned.
///
/// # Errors
///
/// The last [`PrismError::TxnConflict`] once retries are exhausted, or the
/// first non-conflict error from `body` / the engine.
pub fn run_transaction<E, T, F>(engine: &E, max_retries: usize, mut body: F) -> Result<T>
where
    E: ConcurrentKvStore + ?Sized,
    F: FnMut(&mut Transaction<'_, E>) -> Result<T>,
{
    let mut attempt = 0;
    loop {
        let mut txn = Transaction::begin(engine)?;
        let out = match body(&mut txn) {
            Ok(out) => out,
            Err(err) => {
                txn.rollback();
                return Err(err);
            }
        };
        match txn.commit() {
            Ok(_) => return Ok(out),
            Err(PrismError::TxnConflict { .. }) if attempt < max_retries => {
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, MutexKv};

    #[test]
    fn unsupported_engine_rejects_transactions() {
        let engine = MutexKv::new(MemStore::default());
        match Transaction::begin(&engine) {
            Err(PrismError::Unsupported(what)) => assert_eq!(what, "snapshots"),
            Err(other) => panic!("expected Unsupported, got {other:?}"),
            Ok(_) => panic!("expected Unsupported, got a transaction"),
        }
        // The retry helper forwards the same error without looping.
        let run: Result<()> = run_transaction(&engine, 3, |_txn| Ok(()));
        assert!(matches!(run, Err(PrismError::Unsupported(_))));
    }

    #[test]
    fn snapshot_id_exposes_sequence() {
        let snap = SnapshotId(42);
        assert_eq!(snap.sequence(), 42);
    }
}
