//! The single-level sorted log of SST files.

use std::sync::Arc;

use prism_types::Key;

use crate::sst::{FileId, SstEntry, SstFile};

/// A sorted, non-overlapping sequence of SST files covering the partition's
/// flash-resident key space.
///
/// When the NVM share of the database is ≥ 10 % the paper stores all flash
/// data in this single-level log; lookups binary-search the file whose key
/// range covers the key and then probe that file.
#[derive(Debug, Default, Clone)]
pub struct SortedLog {
    files: Vec<Arc<SstFile>>,
}

impl SortedLog {
    /// An empty log.
    pub fn new() -> Self {
        SortedLog { files: Vec::new() }
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// True if the log holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across all live files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size_bytes()).sum()
    }

    /// Total number of entries across all live files.
    pub fn total_entries(&self) -> usize {
        self.files.iter().map(|f| f.len()).sum()
    }

    /// The live files in key order.
    pub fn files(&self) -> &[Arc<SstFile>] {
        &self.files
    }

    /// The file whose key range covers `key`, if any.
    pub fn lookup(&self, key: &Key) -> Option<&Arc<SstFile>> {
        let idx = self.files.partition_point(|f| f.max_key() < key);
        self.files.get(idx).filter(|f| f.covers(key))
    }

    /// All files whose key ranges overlap `[start, end]` (inclusive).
    pub fn overlapping(&self, start: &Key, end: &Key) -> Vec<Arc<SstFile>> {
        self.files
            .iter()
            .filter(|f| f.overlaps(start, end))
            .cloned()
            .collect()
    }

    /// Files in a contiguous window of `width` files starting at file index
    /// `start_idx` — the paper's compaction key ranges are the key ranges of
    /// `i` consecutive SST files.
    pub fn file_window(&self, start_idx: usize, width: usize) -> &[Arc<SstFile>] {
        let end = (start_idx + width.max(1)).min(self.files.len());
        &self.files[start_idx.min(self.files.len())..end]
    }

    /// Replace the files with ids in `remove` by `add` (already sorted and
    /// non-overlapping among themselves), keeping the log sorted.
    ///
    /// Returns the removed files so the caller can hand them to the
    /// [`crate::Manifest`] for deferred reclamation.
    pub fn install(&mut self, remove: &[FileId], add: Vec<Arc<SstFile>>) -> Vec<Arc<SstFile>> {
        let mut removed = Vec::new();
        self.files.retain(|f| {
            if remove.contains(&f.id()) {
                removed.push(f.clone());
                false
            } else {
                true
            }
        });
        self.files.extend(add);
        self.files.sort_by(|a, b| a.min_key().cmp(b.min_key()));
        removed
    }

    /// Iterate over all entries of all files in ascending key order.
    ///
    /// Files are non-overlapping so concatenation in file order is globally
    /// sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &SstEntry)> {
        self.range_from(&Key::min()).map(|(k, e)| (k, e))
    }

    /// Iterate, borrowing, over every entry with a key `>= start` in
    /// ascending key order: one seek (a binary search for the file, one
    /// inside it), then sequential steps that cross file boundaries. A
    /// caller pays only for the entries it takes.
    pub fn range_from<'a>(&'a self, start: &Key) -> impl Iterator<Item = &'a (Key, SstEntry)> {
        let first = self.files.partition_point(|f| f.max_key() < start);
        let mut files = self.files[first..].iter();
        let head = files.next().map_or(&[][..], |f| f.tail_from(start));
        head.iter().chain(files.flat_map(|f| f.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::SstBuilder;
    use prism_storage::{Device, DeviceProfile};
    use prism_types::Value;

    fn file(id: FileId, ids: std::ops::Range<u64>) -> Arc<SstFile> {
        let dev = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut b = SstBuilder::new(id);
        for i in ids {
            b.add(Key::from_id(i), SstEntry::value(Value::filled(50, 0), i));
        }
        Arc::new(b.finish(&dev).0)
    }

    #[test]
    fn lookup_routes_to_covering_file() {
        let mut log = SortedLog::new();
        log.install(
            &[],
            vec![file(1, 0..100), file(2, 100..200), file(3, 200..300)],
        );
        assert_eq!(log.file_count(), 3);
        assert_eq!(log.lookup(&Key::from_id(50)).unwrap().id(), 1);
        assert_eq!(log.lookup(&Key::from_id(150)).unwrap().id(), 2);
        assert_eq!(log.lookup(&Key::from_id(299)).unwrap().id(), 3);
        assert!(log.lookup(&Key::from_id(500)).is_none());
    }

    #[test]
    fn overlapping_selects_correct_files() {
        let mut log = SortedLog::new();
        log.install(
            &[],
            vec![file(1, 0..100), file(2, 100..200), file(3, 200..300)],
        );
        let overlap = log.overlapping(&Key::from_id(150), &Key::from_id(250));
        let ids: Vec<FileId> = overlap.iter().map(|f| f.id()).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(log
            .overlapping(&Key::from_id(1000), &Key::from_id(2000))
            .is_empty());
    }

    #[test]
    fn install_replaces_files_and_keeps_order() {
        let mut log = SortedLog::new();
        log.install(&[], vec![file(2, 100..200), file(1, 0..100)]);
        let removed = log.install(&[1], vec![file(4, 0..50), file(5, 50..100)]);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].id(), 1);
        let mins: Vec<u64> = log.files().iter().map(|f| f.min_key().id()).collect();
        assert_eq!(mins, vec![0, 50, 100]);
        assert_eq!(log.total_entries(), 200);
    }

    #[test]
    fn iter_is_globally_sorted() {
        let mut log = SortedLog::new();
        log.install(&[], vec![file(2, 100..150), file(1, 0..50)]);
        let keys: Vec<u64> = log.iter().map(|(k, _)| k.id()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn range_from_seeks_once_and_crosses_files() {
        let mut log = SortedLog::new();
        // Even ids only, with a gap between the files.
        let even = |id, ids: std::ops::Range<u64>| {
            let dev = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
            let mut b = SstBuilder::new(id);
            for i in ids.filter(|i| i % 2 == 0) {
                b.add(Key::from_id(i), SstEntry::value(Value::filled(50, 0), i));
            }
            Arc::new(b.finish(&dev).0)
        };
        log.install(&[], vec![even(1, 0..50), even(2, 100..150)]);
        let from = |start: u64| -> Vec<u64> {
            log.range_from(&Key::from_id(start))
                .map(|(k, _)| k.id())
                .collect()
        };
        let all: Vec<u64> = (0..50).chain(100..150).filter(|i| i % 2 == 0).collect();
        assert_eq!(from(0), all);
        // Inside a file, on a key and between two keys.
        assert_eq!(
            from(40),
            [40, 42, 44, 46, 48]
                .into_iter()
                .chain((100..150).step_by(2))
                .collect::<Vec<_>>()
        );
        assert_eq!(from(41)[0], 42);
        // In the gap between files, on the last key, and past it.
        assert_eq!(from(60)[0], 100);
        assert_eq!(from(148), vec![148]);
        assert!(from(149).is_empty());
        assert!(SortedLog::new().range_from(&Key::min()).next().is_none());
    }

    #[test]
    fn file_window_clamps_bounds() {
        let mut log = SortedLog::new();
        log.install(&[], vec![file(1, 0..10), file(2, 10..20), file(3, 20..30)]);
        assert_eq!(log.file_window(0, 2).len(), 2);
        assert_eq!(log.file_window(2, 5).len(), 1);
        assert_eq!(log.file_window(9, 1).len(), 0);
        assert_eq!(log.file_window(1, 0).len(), 1, "width is at least one file");
    }

    #[test]
    fn empty_log_behaviour() {
        let log = SortedLog::new();
        assert!(log.is_empty());
        assert_eq!(log.total_bytes(), 0);
        assert!(log.lookup(&Key::from_id(1)).is_none());
    }
}
