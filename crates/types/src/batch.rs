//! Batched writes (group commit).
//!
//! A [`WriteBatch`] collects puts and deletes so an engine can install
//! them as a group instead of paying the per-operation overhead (request
//! handling, lock acquisition, tracker drains, watermark checks) once per
//! entry. Batches may span partitions; engines group the entries
//! internally. The atomicity contract is engine-specific — PrismDB
//! installs each partition's sub-batch atomically (all-or-nothing with
//! respect to concurrent readers and crash recovery) but does *not* make
//! the batch atomic across partitions.
//!
//! Entries are ordered: applying a batch is equivalent to applying its
//! entries front to back, so when one key appears several times the last
//! entry wins.

use crate::{Key, Value};

/// One entry of a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or update `key` with the value.
    Put(Key, Value),
    /// Delete `key` (deleting a non-existent key is not an error).
    Delete(Key),
}

impl BatchOp {
    /// The key this entry targets.
    pub fn key(&self) -> &Key {
        match self {
            BatchOp::Put(key, _) | BatchOp::Delete(key) => key,
        }
    }
}

/// An ordered collection of writes applied as a group.
///
/// # Example
///
/// ```
/// use prism_types::{Key, KvStore, MemStore, Value, WriteBatch};
///
/// let mut batch = WriteBatch::new();
/// batch.put(Key::from_id(1), Value::filled(8, 1));
/// batch.put(Key::from_id(2), Value::filled(8, 2));
/// batch.delete(Key::from_id(1));
/// assert_eq!(batch.len(), 3);
///
/// let mut store = MemStore::default();
/// store.apply_batch(batch).unwrap();
/// assert!(store.get(&Key::from_id(1)).unwrap().value.is_none());
/// assert!(store.get(&Key::from_id(2)).unwrap().value.is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    entries: Vec<BatchOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// An empty batch with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        WriteBatch {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Append an insert/update entry.
    pub fn put(&mut self, key: Key, value: Value) {
        self.entries.push(BatchOp::Put(key, value));
    }

    /// Append a delete entry.
    pub fn delete(&mut self, key: Key) {
        self.entries.push(BatchOp::Delete(key));
    }

    /// Append an already-constructed entry.
    pub fn push(&mut self, op: BatchOp) {
        self.entries.push(op);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the batch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in application order.
    pub fn entries(&self) -> &[BatchOp] {
        &self.entries
    }

    /// Consume the batch, yielding its entries in application order.
    pub fn into_entries(self) -> Vec<BatchOp> {
        self.entries
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl IntoIterator for WriteBatch {
    type Item = BatchOp;
    type IntoIter = std::vec::IntoIter<BatchOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl Extend<BatchOp> for WriteBatch {
    fn extend<T: IntoIterator<Item = BatchOp>>(&mut self, iter: T) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_collects_entries_in_order() {
        let mut batch = WriteBatch::with_capacity(3);
        assert!(batch.is_empty());
        batch.put(Key::from_id(1), Value::filled(4, 1));
        batch.delete(Key::from_id(2));
        batch.push(BatchOp::Put(Key::from_id(3), Value::filled(4, 3)));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.entries()[0].key(), &Key::from_id(1));
        assert!(matches!(batch.entries()[0], BatchOp::Put(..)));
        assert!(matches!(batch.entries()[1], BatchOp::Delete(_)));
        let keys: Vec<u64> = batch.clone().into_iter().map(|op| op.key().id()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let entries = batch.into_entries();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn batch_extend_and_clear() {
        let mut batch = WriteBatch::new();
        batch.extend(vec![
            BatchOp::Delete(Key::from_id(1)),
            BatchOp::Put(Key::from_id(2), Value::filled(2, 2)),
        ]);
        assert_eq!(batch.len(), 2);
        batch.clear();
        assert!(batch.is_empty());
    }
}
