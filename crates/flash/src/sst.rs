//! Sorted String Table (SST) files.
//!
//! # Finding a record
//!
//! A file's records are `(Key, SstEntry)` pairs 56 bytes apart, so a
//! binary search over them lands on a new cache line at nearly every step
//! to read eight bytes of it. The file therefore also keeps [`Key::id`]
//! of every record — the order-preserving eight-byte prefix — in one
//! array, eight to a line, and every search ([`SstFile::probe`], `range`,
//! a seek of [`crate::SortedLog`]) goes through the one `lower_bound`
//! over it, which starts from a guess interpolated between the file's
//! first and last ids ([`crate::search`]). Ids and not keys because an id
//! decides the search for every fixed-width key and narrows it to the run
//! of records sharing a prefix for any other; those alone are compared
//! whole, by a binary search over the run. The blocks' start offsets sit
//! in an array of their own for the same reason: a probe names the record
//! first, then asks which block it falls in.
//!
//! Both arrays are search structures of this process. They model nothing
//! a device stores: a file's on-NVM metadata is still the block index — a
//! key and a handle per block — and the bloom filter, and what a probe costs on
//! the simulated clock ([`BlockProbe`]) is what the block index
//! formulation returned, field for field.
//!
//! # Checksums
//!
//! A record is a [`Version`], the same value a slab slot holds: its
//! checksum was computed when the version was written — for a demoted
//! object, in its slab slot — and the record keeps it, so building a file
//! never reads a value to checksum it. What the file computes itself
//! covers what the record checksum does not: each block's checksum chains
//! its records' keys (length and bytes) and record checksums, and the
//! footer chains the blocks'. A record that arrives damaged keeps the
//! checksum it fails, so [`SstFile::probe`] withholds it and
//! [`SstFile::corrupt_keys`] lists it for the scrubber. An injected write
//! fault damages a record through
//! [`InjectedFault::damage`](prism_storage::InjectedFault::damage), as it
//! does a slot.

use std::sync::Arc;

use prism_storage::{Device, FaultTier};
use prism_types::checksum::Crc32;
use prism_types::{Key, Nanos, Version};

use crate::bloom::BloomFilter;
use crate::search::interpolated_partition_point;

/// Target size of one SST data block.
pub(crate) const BLOCK_SIZE: usize = 4096;

/// Identifier of an SST file, unique within one engine.
pub type FileId = u64;

/// One record stored in an SST file: a value with its logical timestamp,
/// or a delete tombstone (written when a deleted key's latest version
/// lives on flash), with the version's checksum. Verified on every probe,
/// range read, recovery scan and scrub pass (the record's key is covered
/// by its block's checksum).
pub type SstEntry = Version;

/// Size in bytes a record contributes to a data block.
pub fn encoded_size(key: &Key, entry: &SstEntry) -> usize {
    key.len() + entry.value_len() + 16
}

/// One data block's trailer. Where the block starts is in
/// [`SstFile::block_starts`], beside its neighbours'.
#[derive(Debug, Clone)]
struct BlockMeta {
    len: usize,
    bytes: u64,
    /// CRC32 chaining each record's key (length and bytes) and checksum,
    /// written in the block trailer and verified by
    /// [`SstFile::verify_integrity`].
    checksum: u32,
}

/// Result of probing an SST file for a key.
///
/// The probe itself does not charge device time; the caller decides which
/// device (and which tier) pays for the index/filter lookup and the data
/// block read, because PrismDB keeps the index and filter on NVM while the
/// LSM baselines keep them in the block cache.
#[derive(Debug, Clone)]
pub struct BlockProbe {
    /// The entry, if the key is present in the file.
    pub entry: Option<SstEntry>,
    /// True if the bloom filter could not rule the key out (so an index and
    /// data-block access was required).
    pub may_contain: bool,
    /// Bytes of data block that had to be read from flash (0 when the bloom
    /// filter rejected the key).
    pub data_block_bytes: u64,
    /// True when the key was found but its record failed the checksum;
    /// `entry` is withheld (`None`) so corrupt bytes are never served —
    /// the caller must surface `PrismError::Corruption` instead.
    pub corrupt: bool,
}

/// An immutable sorted file of key-value entries, made of ~4 KB blocks with
/// a per-file block index and bloom filter.
#[derive(Debug)]
pub struct SstFile {
    id: FileId,
    entries: Vec<(Key, SstEntry)>,
    /// [`Key::id`] of every record, in record order: what
    /// [`SstFile::lower_bound`] searches.
    ids: Vec<u64>,
    blocks: Vec<BlockMeta>,
    /// Index into `entries` of every block's first record, ascending.
    block_starts: Vec<usize>,
    bloom: BloomFilter,
    total_bytes: u64,
    min_key: Key,
    max_key: Key,
    /// CRC32 of the file footer: chains every block checksum plus the
    /// file id and size, so metadata damage is detected before any block
    /// is trusted.
    footer_checksum: u32,
}

impl SstFile {
    /// File identifier.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Smallest key in the file (recorded in the footer at build time, so
    /// no panic path even if the entry vector were damaged).
    pub fn min_key(&self) -> &Key {
        &self.min_key
    }

    /// Largest key in the file.
    pub fn max_key(&self) -> &Key {
        &self.max_key
    }

    fn compute_footer_checksum(id: FileId, total_bytes: u64, blocks: &[BlockMeta]) -> u32 {
        let mut crc = Crc32::new();
        crc.update_u64(id);
        crc.update_u64(total_bytes);
        crc.update_u64(blocks.len() as u64);
        for block in blocks {
            crc.update_u32(block.checksum);
        }
        crc.finish()
    }

    fn compute_block_checksum(entries: &[(Key, SstEntry)]) -> u32 {
        let mut crc = Crc32::new();
        for (key, entry) in entries {
            crc.update_u64(key.len() as u64);
            crc.update(key.as_bytes());
            crc.update_u32(entry.checksum);
        }
        crc.finish()
    }

    /// Walk every record and return the keys whose checksums fail.
    ///
    /// Used by the recovery scan and the scrubber; the per-read hot path
    /// only verifies the record it serves.
    pub fn corrupt_keys(&self) -> Vec<Key> {
        self.entries
            .iter()
            .filter(|(_, entry)| !entry.verify())
            .map(|(key, _)| key.clone())
            .collect()
    }

    /// True when footer, block trailers and every record all pass their
    /// checksums.
    pub fn verify_integrity(&self) -> bool {
        self.footer_checksum
            == SstFile::compute_footer_checksum(self.id, self.total_bytes, &self.blocks)
            && self
                .blocks
                .iter()
                .zip(&self.block_starts)
                .all(|(block, start)| {
                    let slice = &self.entries[*start..][..block.len];
                    SstFile::compute_block_checksum(slice) == block.checksum
                })
            && self.corrupt_keys().is_empty()
    }

    /// Number of entries in the file.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// SST files are never empty, but the conventional check is provided.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of encoded data blocks.
    pub fn size_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// True if `key` falls within the file's key range.
    pub fn covers(&self, key: &Key) -> bool {
        key >= self.min_key() && key <= self.max_key()
    }

    /// True if the file's key range overlaps `[start, end]`.
    pub fn overlaps(&self, start: &Key, end: &Key) -> bool {
        self.min_key() <= end && self.max_key() >= start
    }

    /// Index of the first record with a key `>= key` (`len()` if none).
    ///
    /// A search over the contiguous ids from a guess interpolated between
    /// the file's first and last ids ([`crate::search`]); only the records
    /// sharing the key's eight-byte prefix are compared by whole key, and
    /// those by binary search, so long keys with a common prefix stay
    /// logarithmic.
    pub(crate) fn lower_bound(&self, key: &Key) -> usize {
        self.lower_bound_between(key, (self.min_key.id(), self.max_key.id()))
    }

    /// [`SstFile::lower_bound`] with the search's guess interpolated
    /// between `ends` instead of the file's own first and last ids: a
    /// caller that holds bounds on them already (the log's fences) spares
    /// the search the lines of the file's footer keys.
    pub(crate) fn lower_bound_between(&self, key: &Key, ends: (u64, u64)) -> usize {
        let id = key.id();
        let lo = interpolated_partition_point(self.ids.len(), ends, id, |at| self.ids[at] < id);
        let tail = &self.ids[lo..];
        // Fixed-width keys have at most one record to an id: look one
        // record ahead before searching for the end of a longer run.
        let shared = if tail.get(1) == Some(&id) {
            tail.partition_point(|&other| other == id)
        } else {
            usize::from(tail.first() == Some(&id))
        };
        lo + self.entries[lo..lo + shared].partition_point(|(k, _)| k < key)
    }

    /// Index one past the last record with a key `<= key`.
    fn upper_bound(&self, key: &Key) -> usize {
        let at = self.lower_bound(key);
        at + usize::from(self.entries.get(at).is_some_and(|(k, _)| k == key))
    }

    /// Probe the file for `key`: bloom filter, then the record search,
    /// then the block index for the data block a device would have read —
    /// the one holding the last record at or below `key`.
    pub fn probe(&self, key: &Key) -> BlockProbe {
        let mut probe = BlockProbe {
            entry: None,
            may_contain: self.bloom.may_contain(key),
            data_block_bytes: 0,
            corrupt: false,
        };
        if !probe.may_contain {
            return probe;
        }
        let at = self.lower_bound(key);
        let found = self.entries.get(at).filter(|(k, _)| k == key);
        let last = match found {
            Some(_) => at,
            // Below the first key: no block to read.
            None if at == 0 => return probe,
            None => at - 1,
        };
        let block = self.block_starts.partition_point(|&start| start <= last) - 1;
        probe.data_block_bytes = self.blocks[block].bytes;
        // Verify the record before serving it: a failed checksum is
        // reported as corruption, never returned as data.
        if let Some((_, entry)) = found {
            probe.corrupt = !entry.verify();
            probe.entry = (!probe.corrupt).then(|| entry.clone());
        }
        probe
    }

    /// Iterate over all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(Key, SstEntry)> {
        self.entries.iter()
    }

    /// The record at `index` in key order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`SstFile::len`].
    pub fn record(&self, index: usize) -> &(Key, SstEntry) {
        &self.entries[index]
    }

    /// All entries in key order, for [`crate::SortedLog`] to index by
    /// position.
    pub(crate) fn entries(&self) -> &[(Key, SstEntry)] {
        &self.entries
    }

    /// Iterate over entries with keys in `[start, end]` (inclusive).
    pub fn range(&self, start: &Key, end: &Key) -> impl Iterator<Item = &(Key, SstEntry)> {
        let lo = self.lower_bound(start);
        self.entries[lo..self.upper_bound(end).max(lo)].iter()
    }
}

/// Builder producing an [`SstFile`] from entries added in ascending key
/// order.
#[derive(Debug)]
pub struct SstBuilder {
    id: FileId,
    entries: Vec<(Key, SstEntry)>,
    bytes: u64,
    partition: usize,
}

impl SstBuilder {
    /// Start building file `id`.
    pub fn new(id: FileId) -> Self {
        SstBuilder {
            id,
            entries: Vec::new(),
            bytes: 0,
            partition: 0,
        }
    }

    /// Tag the builder with the owning partition, giving the device's
    /// fault plan (if any) its targeting context.
    pub fn for_partition(mut self, partition: usize) -> Self {
        self.partition = partition;
        self
    }

    /// Append an entry. Keys must be added in strictly ascending order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if keys are added out of order.
    pub fn add(&mut self, key: Key, entry: SstEntry) {
        debug_assert!(
            self.entries.last().map(|(k, _)| k < &key).unwrap_or(true),
            "SST entries must be added in ascending key order"
        );
        self.bytes += encoded_size(&key, &entry) as u64;
        self.entries.push((key, entry));
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated encoded size so far.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Finish the file, charging one sequential flash write of its full
    /// size to `device` and returning the file plus the simulated cost.
    ///
    /// # Panics
    ///
    /// Panics if no entries were added; callers must not create empty SSTs.
    pub fn finish(self, device: &Arc<Device>) -> (SstFile, Nanos) {
        assert!(!self.entries.is_empty(), "cannot build an empty SST file");
        let mut entries = self.entries;

        // Write-path fault injection: corrupt stored bytes *after* each
        // record's checksum was computed, so a later probe or scan sees
        // content that no longer matches its checksum. Block and footer
        // checksums are computed over the (possibly damaged) stored
        // records, mirroring a trailer written from the same buffer the
        // media tore — record-level checksums carry the detection.
        if let Some(plan) = device.fault_plan() {
            for (_, entry) in entries.iter_mut() {
                let fault =
                    plan.roll_corruption(FaultTier::Flash, self.partition, entry.value_len());
                if let Some(fault) = fault {
                    fault.damage(entry);
                }
            }
        }

        let ids = entries.iter().map(|(key, _)| key.id()).collect();
        let mut blocks = Vec::new();
        let mut block_starts = Vec::new();
        let mut block_start = 0usize;
        let mut block_bytes = 0u64;
        let mut bloom = BloomFilter::new(entries.len(), 10);
        for (i, (key, entry)) in entries.iter().enumerate() {
            bloom.add(key);
            let sz = encoded_size(key, entry) as u64;
            if block_bytes + sz > BLOCK_SIZE as u64 && i > block_start {
                let slice = &entries[block_start..i];
                block_starts.push(block_start);
                blocks.push(BlockMeta {
                    len: i - block_start,
                    bytes: block_bytes,
                    checksum: SstFile::compute_block_checksum(slice),
                });
                block_start = i;
                block_bytes = 0;
            }
            block_bytes += sz;
        }
        let tail = &entries[block_start..];
        block_starts.push(block_start);
        blocks.push(BlockMeta {
            len: entries.len() - block_start,
            bytes: block_bytes,
            checksum: SstFile::compute_block_checksum(tail),
        });
        let total_bytes = self.bytes;
        let footer_checksum = SstFile::compute_footer_checksum(self.id, total_bytes, &blocks);
        let min_key = entries[0].0.clone();
        let max_key = entries[entries.len() - 1].0.clone();
        let cost = device.write_sequential(total_bytes);
        device.allocate(total_bytes);
        (
            SstFile {
                id: self.id,
                entries,
                ids,
                blocks,
                block_starts,
                bloom,
                total_bytes,
                min_key,
                max_key,
                footer_checksum,
            },
            cost,
        )
    }
}

/// Write `records` (in ascending key order) as a run of SST files on
/// `device`: a file ends at the first record that brings it to
/// `target_bytes`, the next builder comes from `next` right after each
/// cut, and a short tail still makes a file. An empty run never calls
/// `next`, so it takes no file id. Returns the files and the summed write
/// cost.
pub fn write_run(
    records: Vec<(Key, SstEntry)>,
    target_bytes: u64,
    mut next: impl FnMut() -> SstBuilder,
    device: &Arc<Device>,
) -> (Vec<Arc<SstFile>>, Nanos) {
    let mut files = Vec::new();
    let mut cost = Nanos::ZERO;
    if records.is_empty() {
        return (files, cost);
    }
    let mut seal = |builder: SstBuilder| {
        let (file, c) = builder.finish(device);
        cost += c;
        files.push(Arc::new(file));
    };
    let mut builder = next();
    for (key, entry) in records {
        builder.add(key, entry);
        if builder.size_bytes() >= target_bytes {
            seal(builder);
            builder = next();
        }
    }
    if !builder.is_empty() {
        seal(builder);
    }
    (files, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_storage::DeviceProfile;
    use prism_types::{splitmix64, Value, SPLITMIX64_GAMMA};

    fn flash() -> Arc<Device> {
        Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)))
    }

    fn build_file(ids: &[u64]) -> SstFile {
        let dev = flash();
        let mut b = SstBuilder::new(1);
        for &id in ids {
            b.add(
                Key::from_id(id),
                SstEntry::value(Value::filled(100, id as u8), id),
            );
        }
        b.finish(&dev).0
    }

    #[test]
    fn probe_finds_present_and_rejects_absent() {
        let ids: Vec<u64> = (0..500).map(|i| i * 2).collect();
        let sst = build_file(&ids);
        assert_eq!(sst.len(), 500);
        assert_eq!(sst.min_key().id(), 0);
        assert_eq!(sst.max_key().id(), 998);
        let hit = sst.probe(&Key::from_id(424));
        assert!(hit.entry.is_some());
        assert!(hit.data_block_bytes > 0);
        let miss = sst.probe(&Key::from_id(423));
        assert!(miss.entry.is_none());
    }

    #[test]
    fn bloom_avoids_block_reads_for_most_absent_keys() {
        let ids: Vec<u64> = (0..2000).collect();
        let sst = build_file(&ids);
        let mut skipped = 0;
        let mut total = 0;
        for id in 10_000..12_000u64 {
            total += 1;
            if !sst.probe(&Key::from_id(id)).may_contain {
                skipped += 1;
            }
        }
        assert!(
            skipped as f64 / total as f64 > 0.95,
            "bloom should reject most absent keys, rejected {skipped}/{total}"
        );
    }

    #[test]
    fn blocks_are_about_4k() {
        let ids: Vec<u64> = (0..1000).collect();
        let sst = build_file(&ids);
        // 100-byte values + overhead: roughly 30+ entries per 4 KB block.
        let blocks = sst.size_bytes() / BLOCK_SIZE as u64;
        let probe = sst.probe(&Key::from_id(500));
        assert!(probe.data_block_bytes <= BLOCK_SIZE as u64 + 200);
        assert!(blocks >= 20, "expected many blocks, got {blocks}");
    }

    #[test]
    fn range_and_count() {
        let ids: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let sst = build_file(&ids);
        let in_range: Vec<u64> = sst
            .range(&Key::from_id(95), &Key::from_id(250))
            .map(|(k, _)| k.id())
            .collect();
        assert_eq!(
            in_range,
            vec![100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250]
        );
        assert!(sst.covers(&Key::from_id(500)));
        assert!(!sst.covers(&Key::from_id(5000)));
        assert!(sst.overlaps(&Key::from_id(900), &Key::from_id(2000)));
        assert!(!sst.overlaps(&Key::from_id(1000), &Key::from_id(2000)));
    }

    #[test]
    fn tombstones_round_trip() {
        let dev = flash();
        let mut b = SstBuilder::new(3);
        b.add(Key::from_id(1), SstEntry::value(Value::filled(10, 0), 5));
        b.add(Key::from_id(2), SstEntry::tombstone(6));
        let (sst, _) = b.finish(&dev);
        assert!(!sst.probe(&Key::from_id(1)).entry.unwrap().is_tombstone());
        assert!(sst.probe(&Key::from_id(2)).entry.unwrap().is_tombstone());
    }

    #[test]
    fn finish_charges_sequential_write_and_allocates() {
        let dev = flash();
        let mut b = SstBuilder::new(9);
        for id in 0..100u64 {
            b.add(
                Key::from_id(id),
                SstEntry::value(Value::filled(1000, 0), id),
            );
        }
        let expected_bytes = b.size_bytes();
        let (sst, cost) = b.finish(&dev);
        assert_eq!(sst.size_bytes(), expected_bytes);
        assert!(cost > Nanos::ZERO);
        assert_eq!(dev.counters().as_tier_io().bytes_written, expected_bytes);
        assert_eq!(dev.used_bytes(), expected_bytes);
    }

    /// Writes `count` equal records with a target of `target_records`
    /// records' bytes; returns the files' lengths and how often `next`
    /// ran.
    fn cut(count: u64, target_records: f64) -> (Vec<usize>, u64) {
        let record = |id| (Key::from_id(id), SstEntry::value(Value::filled(100, 0), id));
        let records: Vec<_> = (0..count).map(record).collect();
        let (key, entry) = record(0);
        let record = encoded_size(&key, &entry) as f64;
        let mut calls = 0;
        let next = || {
            calls += 1;
            SstBuilder::new(calls)
        };
        let dev = flash();
        let (files, cost) = write_run(records, (record * target_records) as u64, next, &dev);
        let bytes: u64 = files.iter().map(|f| f.size_bytes()).sum();
        assert_eq!(dev.counters().as_tier_io().bytes_written, bytes);
        assert_eq!(cost.is_zero(), files.is_empty());
        let ids: Vec<FileId> = files.iter().map(|f| f.id()).collect();
        assert_eq!(ids, (1..=files.len() as u64).collect::<Vec<_>>());
        (files.iter().map(|f| f.len()).collect(), calls)
    }

    #[test]
    fn write_run_cuts_at_the_first_record_that_reaches_the_target() {
        assert_eq!(cut(9, 3.0), (vec![3, 3, 3], 4));
        assert_eq!(cut(9, 2.5), (vec![3, 3, 3], 4));
    }

    #[test]
    fn write_run_keeps_a_short_tail_file() {
        assert_eq!(cut(7, 3.0), (vec![3, 3, 1], 3));
        assert_eq!(cut(2, 3.0), (vec![2], 1));
    }

    #[test]
    fn write_run_never_calls_next_for_an_empty_run() {
        assert_eq!(cut(0, 3.0), (vec![], 0));
    }

    #[test]
    fn clean_files_pass_integrity_and_probe_uncorrupted() {
        let sst = build_file(&(0..300).collect::<Vec<_>>());
        assert!(sst.verify_integrity());
        assert!(sst.corrupt_keys().is_empty());
        let probe = sst.probe(&Key::from_id(123));
        assert!(!probe.corrupt);
        assert!(probe.entry.unwrap().verify());
    }

    /// A record's key is covered, whole, by its block's checksum: damage
    /// past the eighth byte leaves every record checksum intact and is
    /// still caught by the file-level integrity check.
    #[test]
    fn block_checksums_cover_every_key_byte() {
        let dev = flash();
        let mut b = SstBuilder::new(5);
        for suffix in [b'A', b'B', b'C'] {
            let key = Key::from_bytes([&b"user1234"[..], &[suffix]].concat());
            b.add(key, SstEntry::value(Value::filled(50, suffix), 1));
        }
        let (mut sst, _) = b.finish(&dev);
        assert!(sst.verify_integrity());
        let original = sst.entries[1].0.clone();
        for damaged in [&b"user1234b"[..], b"user1234B\0"] {
            sst.entries[1].0 = Key::from(damaged);
            assert_eq!(sst.entries[1].0.id(), original.id());
            assert!(sst.corrupt_keys().is_empty());
            assert!(!sst.verify_integrity(), "key damaged to {damaged:?}");
        }
        sst.entries[1].0 = original;
        assert!(sst.verify_integrity());
    }

    #[test]
    fn injected_bit_flip_is_withheld_by_probe_and_listed() {
        use prism_storage::{FaultMode, FaultOp, FaultPlan, FaultTier, TargetedFault};

        let plan = Arc::new(FaultPlan::new(77));
        let dev = Arc::new(Device::with_faults(
            DeviceProfile::qlc_flash(1 << 30),
            plan.clone(),
            FaultTier::Flash,
        ));
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: Some(4),
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        let mut b = SstBuilder::new(8).for_partition(4);
        for id in 0..50u64 {
            b.add(Key::from_id(id), SstEntry::value(Value::filled(120, 7), id));
        }
        let (sst, _) = b.finish(&dev);
        assert_eq!(plan.snapshot().bit_flips, 1);

        let corrupt = sst.corrupt_keys();
        assert_eq!(corrupt.len(), 1, "exactly one record was damaged");
        assert!(!sst.verify_integrity());

        let probe = sst.probe(&corrupt[0]);
        assert!(probe.corrupt, "probe must flag the damaged record");
        assert!(probe.entry.is_none(), "corrupt bytes are never served");
        // Every other record still probes clean.
        let clean_hits = (0..50u64)
            .map(Key::from_id)
            .filter(|k| *k != corrupt[0])
            .filter(|k| {
                let p = sst.probe(k);
                !p.corrupt && p.entry.is_some()
            })
            .count();
        assert_eq!(clean_hits, 49);
    }

    /// The stride the module's search notes rely on: a record is a key and
    /// a version, 56 bytes apart.
    #[test]
    fn a_record_is_56_bytes() {
        assert_eq!(std::mem::size_of::<(Key, SstEntry)>(), 56);
    }

    #[test]
    fn entry_checksums_catch_every_single_bit_flip() {
        let entry = SstEntry::value(Value::filled(32, 0xC3), 9);
        for byte in 0..32 {
            for bit in 0..8 {
                let mut bytes = entry.value.as_ref().unwrap().as_bytes().to_vec();
                bytes[byte] ^= 1 << bit;
                let damaged = SstEntry {
                    value: Some(Value::from_vec(bytes)),
                    ..entry.clone()
                };
                assert!(!damaged.verify(), "byte {byte} bit {bit} undetected");
            }
        }
        assert!(SstEntry::tombstone(4).verify());
    }

    /// Deterministic bytes for the key sets below (splitmix64).
    fn seeded(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                let out = splitmix64(state);
                state = state.wrapping_add(SPLITMIX64_GAMMA);
                out as u8
            })
            .collect()
    }

    /// The adversarial key set of `key.rs`' tests — every length 0..=64,
    /// so both representations and the boundary between them, half of
    /// them over the alphabet {00, 01, FF} so that keys differ by length,
    /// by a trailing zero or past the eighth byte — plus three families
    /// that share a whole eight-byte prefix (one id, up to 31 keys) under
    /// suffixes of every length 0..=30. Sorted, distinct.
    fn adversarial_keys() -> Vec<Key> {
        let narrow = |bytes: &mut Vec<u8>| {
            for b in bytes {
                *b = [0x00, 0x01, 0xFF][*b as usize % 3];
            }
        };
        let mut pool = Vec::new();
        for round in 0..6u64 {
            for len in 0..=64usize {
                let mut bytes = seeded(round * 1_000 + len as u64, len);
                if round % 2 == 0 {
                    narrow(&mut bytes);
                }
                pool.push(bytes);
            }
        }
        for (family, prefix) in [[0u8; 8], *b"user1234", [0xFF; 8]].iter().enumerate() {
            for len in 0..=30usize {
                let mut suffix = seeded(7_000 + 100 * family as u64 + len as u64, len);
                narrow(&mut suffix);
                pool.push([&prefix[..], &suffix].concat());
            }
        }
        let mut keys: Vec<Key> = pool.into_iter().map(Key::from_bytes).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// The keys next to `key`: itself, its immediate successor, and two
    /// keys just below it.
    fn neighbours(key: &Key) -> Vec<Key> {
        let bytes = key.as_bytes();
        let mut near = vec![key.clone(), Key::from_bytes([bytes, &[0]].concat())];
        if let Some((last, head)) = bytes.split_last() {
            near.push(Key::from(head));
            if *last > 0 {
                near.push(Key::from_bytes([head, &[last - 1, 0xFF]].concat()));
            }
        }
        near
    }

    /// `count` of `pool`'s keys, evenly spread, as one file of ~200-byte
    /// values (so 300 records make many blocks) with one record damaged.
    fn adversarial_file(pool: &[Key], count: usize) -> SstFile {
        let mut b = SstBuilder::new(count as u64);
        // Not the pool's first keys: some samples sort below the file.
        let spread = pool.iter().skip(5).step_by((pool.len() - 10) / count);
        for (i, key) in spread.take(count).enumerate() {
            let entry = match i % 11 {
                5 => SstEntry::tombstone(i as u64),
                _ => SstEntry::value(Value::filled(150 + i % 90, i as u8), i as u64),
            };
            b.add(key.clone(), entry);
        }
        let mut sst = b.finish(&flash()).0;
        assert_eq!(sst.len(), count);
        let damaged = count / 2;
        sst.entries[damaged].1.checksum ^= 1;
        sst
    }

    /// `probe` as it was before the id array: the block index searched by
    /// each block's first key, then the block searched by key. Kept as the
    /// reference: the simulated clock charges what this returns.
    fn probe_by_block_index(sst: &SstFile, key: &Key) -> BlockProbe {
        let absent = |may_contain| BlockProbe {
            entry: None,
            may_contain,
            data_block_bytes: 0,
            corrupt: false,
        };
        if !sst.bloom.may_contain(key) {
            return absent(false);
        }
        let first_key = |start: &usize| &sst.entries[*start].0;
        let block_idx = match sst.block_starts.partition_point(|s| first_key(s) <= key) {
            0 => return absent(true),
            n => n - 1,
        };
        let block = &sst.blocks[block_idx];
        let slice = &sst.entries[sst.block_starts[block_idx]..][..block.len];
        let entry = slice
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| slice[i].1.clone());
        let corrupt = entry.as_ref().map(|e| !e.verify()).unwrap_or(false);
        BlockProbe {
            entry: if corrupt { None } else { entry },
            may_contain: true,
            data_block_bytes: block.bytes,
            corrupt,
        }
    }

    #[test]
    fn searches_by_id_equal_searches_by_key_on_adversarial_keys() {
        let pool = adversarial_keys();
        assert!(pool.len() > 400, "{} distinct keys", pool.len());
        let (mut false_positives, mut below, mut above, mut corrupt) = (0, 0, 0, 0);
        for count in [1, 2, 7, 300] {
            let sst = adversarial_file(&pool, count);
            assert_eq!(sst.ids.len(), count);
            if count == 300 {
                assert!(sst.blocks.len() > 10, "{} blocks", sst.blocks.len());
                let longest_run = sst.ids.chunk_by(|a, b| a == b).map(<[u64]>::len).max();
                assert!(longest_run >= Some(10), "ids repeat: {longest_run:?}");
            }
            let stored: Vec<Key> = sst.iter().map(|(k, _)| k.clone()).collect();
            let samples = pool
                .iter()
                .cloned()
                .chain(stored.iter().flat_map(neighbours));
            for key in samples {
                let by_key = sst.entries.partition_point(|(k, _)| k < &key);
                assert_eq!(sst.lower_bound(&key), by_key, "{count} records, {key:?}");

                let (got, want) = (sst.probe(&key), probe_by_block_index(&sst, &key));
                assert_eq!(got.may_contain, want.may_contain, "{key:?}");
                assert_eq!(got.corrupt, want.corrupt, "{key:?}");
                assert_eq!(got.data_block_bytes, want.data_block_bytes, "{key:?}");
                match (&got.entry, &want.entry) {
                    (None, None) => {}
                    (Some(got), Some(want)) => {
                        assert_eq!(got.value, want.value, "{key:?}");
                        assert_eq!(got.timestamp, want.timestamp, "{key:?}");
                        assert_eq!(got.checksum, want.checksum, "{key:?}");
                    }
                    _ => panic!("{count} records, {key:?}: {got:?} but {want:?}"),
                }
                let is_stored = stored.binary_search(&key).is_ok();
                assert_eq!(got.entry.is_some() || got.corrupt, is_stored, "{key:?}");
                false_positives += usize::from(got.may_contain && !is_stored);
                below += usize::from(&key < sst.min_key());
                above += usize::from(&key > sst.max_key());
                corrupt += usize::from(got.corrupt);
            }
            // Inclusive ranges between sample keys, in either order.
            for (start, end) in pool.iter().step_by(7).zip(pool.iter().skip(3).step_by(5)) {
                let want: Vec<&Key> = stored.iter().filter(|k| *k >= start && *k <= end).collect();
                let got: Vec<&Key> = sst.range(start, end).map(|(k, _)| k).collect();
                assert_eq!(got, want, "[{start:?}, {end:?}]");
            }
        }
        // The cases the comparison is there for all occurred.
        assert!(
            false_positives > 0 && below > 0 && above > 0 && corrupt >= 4,
            "{false_positives} false positives, {below} below, {above} above, {corrupt} corrupt"
        );
    }

    #[test]
    #[should_panic(expected = "empty SST")]
    fn empty_builder_panics() {
        let dev = flash();
        let b = SstBuilder::new(1);
        let _ = b.finish(&dev);
    }
}
