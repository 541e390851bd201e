//! The single-level sorted log of SST files: the one record of which files
//! a partition's flash data lives in.
//!
//! # Owning the files
//!
//! The log hands out the ids of the files it will hold
//! ([`SortedLog::allocate_file_id`]) and is changed only by
//! [`SortedLog::install`], which swaps a compaction's victims for its
//! output. A file it takes out of the list may still be read — readers
//! hold `Arc<SstFile>` clones, so the strong count is the reference count
//! of §6 of the paper — and the log keeps it, charged to the device, until
//! [`SortedLog::reclaim`] finds the log's own reference the last one and
//! releases its space.
//!
//! # Finding a record
//!
//! The log keeps every file's largest key in one contiguous array of
//! *fences*, in file order. Files do not overlap, so the file that may
//! hold a key is the first whose fence is not below it: a binary search
//! over the fences alone, where searching the files themselves would
//! chase one `Arc` — one cold line — per step. The files are only
//! touched once the search has named one.
//!
//! # Positions and generations
//!
//! A [`LogPosition`] names one record by file index and record offset, so
//! a reader that stops and comes back — a scan between two pulls — goes on
//! from where it was without comparing a key. Indices mean something only
//! while the file list stands, so every list is stamped with a
//! *generation*: a number drawn from one process-wide counter by
//! [`SortedLog::install`], the only thing that changes the list
//! (compaction, a scrub rebuild and recovery all go through it). A
//! generation is never handed out twice, so a position taken from another
//! partition's log, from this log before its latest install, or from a
//! clone that has since gone its own way carries a number no current list
//! has, and [`SortedLog::resume`] answers it with a fresh seek by key
//! instead of honouring indices into files it was not made for. (A clone
//! shares its original's generation until either installs: until then the
//! two lists are the same list.) The same stamp dates a compaction job: a
//! job installs only into the list it was planned against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prism_storage::Device;
use prism_types::Key;

use crate::sst::{FileId, SstEntry, SstFile};

/// Source of generations: one counter for every log in the process, so no
/// two file lists ever share one. `Relaxed` — the number only has to be
/// unique; the list it stamps is published by whatever lock guards the log.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A place in a [`SortedLog`]: a record, or the end of the log. Obtained
/// from [`SortedLog::seek`] or [`SortedLog::resume`], read with
/// [`SortedLog::entry_at`], moved with [`LogPosition::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPosition {
    generation: u64,
    file: usize,
    offset: usize,
}

impl LogPosition {
    /// Step past the record this position names.
    pub fn advance(&mut self) {
        self.offset += 1;
    }
}

/// A sorted, non-overlapping sequence of SST files covering the partition's
/// flash-resident key space.
///
/// When the NVM share of the database is ≥ 10 % the paper stores all flash
/// data in this single-level log; lookups binary-search the file whose key
/// range covers the key and then probe that file.
#[derive(Debug, Default, Clone)]
pub struct SortedLog {
    files: Vec<Arc<SstFile>>,
    /// `fences[i]` is `files[i].max_key()`.
    fences: Vec<Key>,
    /// Stamp of the current file list; see the module docs.
    generation: u64,
    /// Files [`SortedLog::install`] took out of the list, still charged to
    /// the device until [`SortedLog::reclaim`] finds no reader holding them.
    retired: Vec<Arc<SstFile>>,
    /// The last id [`SortedLog::allocate_file_id`] handed out.
    last_file_id: FileId,
}

impl SortedLog {
    /// An empty log.
    pub fn new() -> Self {
        SortedLog::default()
    }

    /// True if the log holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// An id for a file this log will hold: from 1 up, never handed out
    /// twice.
    pub fn allocate_file_id(&mut self) -> FileId {
        self.last_file_id += 1;
        self.last_file_id
    }

    /// Stamp of the current file list, drawn afresh by every
    /// [`SortedLog::install`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of entries across all live files.
    pub fn total_entries(&self) -> usize {
        self.files.iter().map(|f| f.len()).sum()
    }

    /// The live files in key order.
    pub fn files(&self) -> &[Arc<SstFile>] {
        &self.files
    }

    /// Every live file's largest key, in file order.
    pub fn fences(&self) -> &[Key] {
        &self.fences
    }

    /// Index of the first file that may hold keys `>= key`.
    fn first_file_reaching(&self, key: &Key) -> usize {
        self.fences.partition_point(|fence| fence < key)
    }

    /// The file whose key range covers `key`, if any.
    pub fn lookup(&self, key: &Key) -> Option<&Arc<SstFile>> {
        // Its fence is not below the key; only its lower end is left to ask.
        self.files
            .get(self.first_file_reaching(key))
            .filter(|file| file.min_key() <= key)
    }

    /// All files whose key ranges overlap `[start, end]` (inclusive).
    pub fn overlapping(&self, start: &Key, end: &Key) -> Vec<Arc<SstFile>> {
        self.files[self.first_file_reaching(start)..]
            .iter()
            .take_while(|file| file.min_key() <= end)
            .cloned()
            .collect()
    }

    /// Replace the files with ids in `remove` by `add` (already sorted and
    /// non-overlapping among themselves), keeping the log sorted. The one
    /// mutator of the file list: rebuilds the fences and takes a new
    /// generation, which every [`LogPosition`] handed out before — and
    /// every job planned before — fails to match. The removed files are
    /// retired, not freed: see [`SortedLog::reclaim`].
    pub fn install(&mut self, remove: &[FileId], add: Vec<Arc<SstFile>>) {
        let retired = &mut self.retired;
        self.files.retain(|f| {
            let removed = remove.contains(&f.id());
            if removed {
                retired.push(f.clone());
            }
            !removed
        });
        self.files.extend(add);
        self.files.sort_by(|a, b| a.min_key().cmp(b.min_key()));
        self.fences = self.files.iter().map(|f| f.max_key().clone()).collect();
        self.generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// Release on `device` the space of every retired file no reader
    /// holds any more — the log's own reference is the last — and forget
    /// them.
    pub fn reclaim(&mut self, device: &Device) {
        self.retired.retain(|file| {
            let held = Arc::strong_count(file) > 1;
            if !held {
                device.release(file.size_bytes());
            }
            held
        });
    }

    /// Iterate over all entries of all files in ascending key order.
    ///
    /// Files are non-overlapping so concatenation in file order is globally
    /// sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &SstEntry)> {
        self.files
            .iter()
            .flat_map(|f| f.iter())
            .map(|(k, e)| (k, e))
    }

    /// The position of the first entry with a key `>= key` (the end of the
    /// log if there is none): a binary search over the fences for the file,
    /// one inside it.
    pub fn seek(&self, key: &Key) -> LogPosition {
        let file = self.first_file_reaching(key);
        LogPosition {
            generation: self.generation,
            file,
            // The file's fence is not below the key, so neither is its
            // last record: the offset names a record.
            offset: self.files.get(file).map_or(0, |f| f.lower_bound(key)),
        }
    }

    /// Go on from `position` if it was taken from the file list this log
    /// holds now; otherwise — no position, or one the list has changed
    /// under — seek `key`. The caller's contract is that an honoured
    /// position is where `seek(key)` would land.
    pub fn resume(&self, position: Option<LogPosition>, key: &Key) -> LogPosition {
        match position {
            Some(position) if position.generation == self.generation => position,
            _ => self.seek(key),
        }
    }

    /// The entry at `position`, or `None` at the end of the log. A
    /// position that has stepped off the end of its file is moved to the
    /// head of the next one.
    ///
    /// # Panics
    ///
    /// Panics if `position` belongs to another file list — positions
    /// enter a pass through [`SortedLog::seek`] or [`SortedLog::resume`].
    pub fn entry_at<'a>(&'a self, position: &mut LogPosition) -> Option<&'a (Key, SstEntry)> {
        assert!(
            position.generation == self.generation,
            "a log position outlived the file list it indexes"
        );
        loop {
            let file = self.files.get(position.file)?;
            if let Some(entry) = file.entries().get(position.offset) {
                return Some(entry);
            }
            position.file += 1;
            position.offset = 0;
        }
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
        assert_eq!(log.files().len(), 3);
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
        log.install(&[1], vec![file(4, 0..50), file(5, 50..100)]);
        let retired: Vec<FileId> = log.retired.iter().map(|f| f.id()).collect();
        assert_eq!(retired, vec![1]);
        let mins: Vec<u64> = log.files().iter().map(|f| f.min_key().id()).collect();
        assert_eq!(mins, vec![0, 50, 100]);
        assert_eq!(log.total_entries(), 200);
    }

    #[test]
    fn file_ids_are_never_reused() {
        let mut log = SortedLog::new();
        let ids: Vec<FileId> = (0..5).map(|_| log.allocate_file_id()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    /// A retired file stays charged to its device while a reader holds it,
    /// and the next reclaim after the last reader goes frees exactly it.
    #[test]
    fn reclaim_waits_for_readers() {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut log = SortedLog::new();
        let mut make = |ids: std::ops::Range<u64>| {
            let mut b = SstBuilder::new(log.allocate_file_id());
            for i in ids {
                b.add(Key::from_id(i), SstEntry::value(Value::filled(100, 0), i));
            }
            Arc::new(b.finish(&device).0)
        };
        let (a, b, c) = (make(0..50), make(50..100), make(0..100));
        let (a_bytes, b_bytes, c_bytes) = (a.size_bytes(), b.size_bytes(), c.size_bytes());
        let victims = [a.id(), b.id()];
        log.install(&[], vec![a.clone(), b]);
        assert_eq!(device.used_bytes(), a_bytes + b_bytes + c_bytes);

        // `a` is still read outside the log: only `b`'s space comes back.
        log.install(&victims, vec![c]);
        assert_eq!(device.used_bytes(), a_bytes + b_bytes + c_bytes);
        log.reclaim(&device);
        assert_eq!(device.used_bytes(), a_bytes + c_bytes);
        log.reclaim(&device);
        assert_eq!(device.used_bytes(), a_bytes + c_bytes, "a reader holds `a`");

        drop(a);
        log.reclaim(&device);
        assert_eq!(device.used_bytes(), c_bytes);
        assert!(log.retired.is_empty());
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
        let from = |start: u64| walk(&log, log.seek(&Key::from_id(start)));
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
        let empty = SortedLog::new();
        assert!(walk(&empty, empty.seek(&Key::min())).is_empty());
    }

    /// Two files of even ids 10..50 and 100..150: start keys fall below the
    /// log, between two records, in the gap between the files and past the
    /// end.
    fn gapped_log() -> SortedLog {
        let even = |id, ids: std::ops::Range<u64>| {
            let dev = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
            let mut b = SstBuilder::new(id);
            for i in ids.step_by(2) {
                b.add(Key::from_id(i), SstEntry::value(Value::filled(50, 0), i));
            }
            Arc::new(b.finish(&dev).0)
        };
        let mut log = SortedLog::new();
        log.install(&[], vec![even(1, 10..50), even(2, 100..150)]);
        log
    }

    /// Walk `position` to the end of `log`, collecting key ids.
    fn walk(log: &SortedLog, mut position: LogPosition) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some((key, _)) = log.entry_at(&mut position) {
            ids.push(key.id());
            position.advance();
        }
        ids
    }

    #[test]
    fn a_walked_position_yields_what_range_from_yields() {
        let log = gapped_log();
        // Before, on and between records, in the gap, on the last record
        // and past it.
        for start in (0..=160).map(Key::from_id).chain([Key::min()]) {
            // `iter` concatenates the files and seeks nothing.
            let want: Vec<u64> = log
                .iter()
                .filter(|(k, _)| **k >= start)
                .map(|(k, _)| k.id())
                .collect();
            let seek = log.seek(&start);
            assert_eq!(log.resume(None, &start), seek, "{start:?}");
            assert_eq!(log.resume(Some(seek), &start), seek, "{start:?}");
            assert_eq!(walk(&log, seek), want, "{start:?}");
        }
        // A position that walked off the end of the first file and one
        // that sought the gap are the same place.
        let mut walked = log.seek(&Key::from_id(48));
        walked.advance();
        assert!(log.entry_at(&mut walked).is_some());
        assert_eq!(walked, log.seek(&Key::from_id(60)));
        assert_eq!(walked, log.seek(&Key::from_id(100)));
        // The end of the log is one place too.
        let mut end = log.seek(&Key::from_id(148));
        end.advance();
        assert!(log.entry_at(&mut end).is_none());
        assert_eq!(end, log.seek(&Key::from_id(149)));

        let empty = SortedLog::new();
        let mut nowhere = empty.seek(&Key::from_id(7));
        assert_eq!(empty.resume(None, &Key::min()), nowhere);
        assert!(empty.entry_at(&mut nowhere).is_none());
    }

    #[test]
    fn a_position_is_refused_by_every_file_list_but_its_own() {
        let mut log = gapped_log();
        let start = Key::from_id(20);
        let before = log.seek(&start);
        assert_eq!(log.resume(Some(before), &start), before);

        // A clone is the same list until either side installs.
        let mut clone = log.clone();
        assert_eq!(clone.resume(Some(before), &start), before);
        clone.install(&[], vec![file(7, 200..210)]);
        assert_ne!(clone.resume(Some(before), &start), before);
        assert_eq!(log.resume(Some(before), &start), before);

        // Another log with as many installs and as many files.
        let other = gapped_log();
        assert_eq!(other.resume(Some(before), &start), other.seek(&start));
        assert_ne!(other.seek(&start), before);

        // An install — here one that shifts every index — bumps the
        // generation: the old position is answered with a seek by key.
        log.install(&[], vec![file(9, 0..4)]);
        let after = log.resume(Some(before), &start);
        assert_eq!(after, log.seek(&start));
        assert_ne!(after, before);
        assert_eq!(walk(&log, after)[..3], [20, 22, 24]);
        // Even an install that changes nothing does.
        let unchanged = log.seek(&start);
        log.install(&[], Vec::new());
        assert_ne!(log.seek(&start), unchanged);
    }

    #[test]
    #[should_panic(expected = "outlived the file list")]
    fn reading_at_a_stale_position_panics() {
        let mut log = gapped_log();
        let mut stale = log.seek(&Key::from_id(20));
        log.install(&[], Vec::new());
        log.entry_at(&mut stale);
    }

    #[test]
    fn fences_are_the_files_largest_keys() {
        let mut log = SortedLog::new();
        assert!(log.fences().is_empty());
        log.install(&[], vec![file(2, 100..200), file(1, 0..100)]);
        log.install(&[1], vec![file(4, 0..50), file(5, 50..100)]);
        let fences: Vec<u64> = log.fences().iter().map(Key::id).collect();
        assert_eq!(fences, vec![49, 99, 199]);
        let maxes: Vec<&Key> = log.files().iter().map(|f| f.max_key()).collect();
        assert_eq!(log.fences().iter().collect::<Vec<_>>(), maxes);
    }

    #[test]
    fn empty_log_behaviour() {
        let log = SortedLog::new();
        assert!(log.is_empty());
        assert!(log.lookup(&Key::from_id(1)).is_none());
    }
}
