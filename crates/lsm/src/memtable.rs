//! The in-memory write buffer.

use std::collections::BTreeMap;

use prism_flash::SstEntry;
use prism_types::{Key, Value};

/// A sorted in-memory write buffer, flushed to an L0 SST file when it
/// exceeds the configured size.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    map: BTreeMap<Key, (Option<Value>, u64)>,
    bytes: u64,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Insert a value (or a tombstone when `value` is `None`).
    pub fn insert(&mut self, key: Key, value: Option<Value>, timestamp: u64) {
        let added = key.len() as u64 + value.as_ref().map(|v| v.len() as u64).unwrap_or(0) + 16;
        if let Some((old, _)) = self.map.insert(key, (value, timestamp)) {
            self.bytes = self
                .bytes
                .saturating_sub(old.map(|v| v.len() as u64).unwrap_or(0));
        }
        self.bytes += added;
    }

    /// Look up a key. `Some(None)` means the key has a tombstone.
    pub fn get(&self, key: &Key) -> Option<&(Option<Value>, u64)> {
        self.map.get(key)
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over entries with keys `>= start`, ascending.
    pub fn range_from<'a>(
        &'a self,
        start: &Key,
    ) -> impl Iterator<Item = (&'a Key, &'a (Option<Value>, u64))> {
        self.map.range(start.clone()..)
    }

    /// Drain all entries as SST entries, in key order, emptying the
    /// memtable.
    pub(crate) fn drain_sorted(&mut self) -> Vec<(Key, SstEntry)> {
        let map = std::mem::take(&mut self.map);
        self.bytes = 0;
        map.into_iter()
            .map(|(key, (value, ts))| {
                let entry = match value {
                    Some(v) => SstEntry::value(v, ts),
                    None => SstEntry::tombstone(ts),
                };
                (key, entry)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_size_tracking() {
        let mut m = Memtable::new();
        m.insert(Key::from_id(1), Some(Value::filled(100, 1)), 1);
        m.insert(Key::from_id(2), None, 2);
        assert_eq!(m.len(), 2);
        assert!(m.size_bytes() > 100);
        assert!(m.get(&Key::from_id(1)).unwrap().0.is_some());
        assert!(m.get(&Key::from_id(2)).unwrap().0.is_none());
        assert!(m.get(&Key::from_id(3)).is_none());
    }

    #[test]
    fn overwrites_do_not_double_count_bytes() {
        let mut m = Memtable::new();
        m.insert(Key::from_id(1), Some(Value::filled(1000, 1)), 1);
        let after_first = m.size_bytes();
        m.insert(Key::from_id(1), Some(Value::filled(1000, 2)), 2);
        // Overhead is counted again but the old payload is released.
        assert!(m.size_bytes() < after_first + 100);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_returns_sorted_entries_and_empties() {
        let mut m = Memtable::new();
        for id in [5u64, 1, 9, 3] {
            m.insert(Key::from_id(id), Some(Value::filled(10, id as u8)), id);
        }
        m.insert(Key::from_id(9), None, 10);
        let drained = m.drain_sorted();
        assert!(m.is_empty());
        assert_eq!(m.size_bytes(), 0);
        let ids: Vec<u64> = drained.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        assert!(drained.last().unwrap().1.is_tombstone());
    }

    #[test]
    fn range_from_iterates_suffix() {
        let mut m = Memtable::new();
        for id in 0..10u64 {
            m.insert(Key::from_id(id), Some(Value::filled(4, 0)), id);
        }
        let ids: Vec<u64> = m
            .range_from(&Key::from_id(7))
            .map(|(k, _)| k.id())
            .collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }
}
