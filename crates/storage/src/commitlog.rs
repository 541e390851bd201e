//! Commit log for cross-partition atomic batches.
//!
//! A `WriteBatch` that spans partitions is installed in several
//! per-partition steps; a crash between steps would expose half a batch.
//! The [`CommitLog`] closes that window with a write-ahead intent record:
//!
//! 1. **begin** — before installing anything, the engine persists a
//!    [`CommitRecord`] carrying the batch id, a digest of every partition
//!    group, and the pre-images of every key the batch will touch;
//! 2. the partition groups are installed;
//! 3. **seal** — the record is marked sealed.
//!
//! Recovery inspects the log: sealed records describe batches that
//! completed (their groups are durable in the NVM slabs, so replay is an
//! acknowledgement), while an *unsealed* record marks a torn batch whose
//! pre-images must be restored so the batch disappears atomically.
//!
//! The log models an NVM-resident structure: its contents survive
//! `crash_and_recover`, and every `begin`/`seal` charges a sequential
//! write to the NVM device it was built with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prism_types::checksum::Crc32;
use prism_types::{Key, Nanos, Value};

use crate::Device;

/// One partition's slice of a cross-partition commit.
#[derive(Debug, Clone)]
pub struct CommitPart {
    /// Partition the group targets.
    pub partition: usize,
    /// Number of entries in the group.
    pub entries: u64,
    /// Order-sensitive digest of the group's keys and value lengths,
    /// letting recovery (and tests) cross-check a record against the
    /// batch it described.
    pub digest: u64,
    /// State of every touched key *before* the batch: `Some(value)` to
    /// restore on rollback, `None` if the key was absent (rollback
    /// deletes it).
    pub pre_images: Vec<(Key, Option<Value>)>,
}

impl CommitPart {
    /// Approximate encoded size of the record slice, charged to NVM.
    fn encoded_size(&self) -> u64 {
        let images: u64 = self
            .pre_images
            .iter()
            .map(|(k, v)| k.len() as u64 + v.as_ref().map_or(0, |v| v.len() as u64) + 9)
            .sum();
        // partition + entry count + digest + per-image payloads.
        24 + images
    }
}

/// A persisted commit intent: unsealed records are torn commits.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Monotone batch id assigned by [`CommitLog::begin`].
    pub batch_id: u64,
    /// One slice per touched partition, ascending by partition.
    pub parts: Vec<CommitPart>,
    /// True once every partition group was installed.
    pub sealed: bool,
    /// CRC32 over the batch id and every part (partition, entries,
    /// digest, pre-images), computed at [`CommitLog::begin`]. The `sealed`
    /// flag is excluded: sealing mutates the record in place after the
    /// intent bytes were already persisted.
    pub checksum: u32,
}

impl CommitRecord {
    /// CRC32 over the record's intent content (everything but `sealed`).
    pub(crate) fn compute_checksum(batch_id: u64, parts: &[CommitPart]) -> u32 {
        let mut crc = Crc32::new();
        crc.update_u64(batch_id);
        for part in parts {
            crc.update_u64(part.partition as u64);
            crc.update_u64(part.entries);
            crc.update_u64(part.digest);
            crc.update_u64(part.pre_images.len() as u64);
            for (key, value) in &part.pre_images {
                crc.update_u64(key.len() as u64);
                crc.update(key.as_bytes());
                match value {
                    Some(v) => {
                        crc.update_u64(1 + v.len() as u64);
                        crc.update(v.as_bytes());
                    }
                    None => crc.update_u64(0),
                }
            }
        }
        crc.finish()
    }

    /// True when the stored checksum still matches the record's content.
    pub fn verify(&self) -> bool {
        self.checksum == CommitRecord::compute_checksum(self.batch_id, &self.parts)
    }
}

/// Order-sensitive digest over a partition group's keys (length and every
/// byte) and value sizes (FNV-1a). Exposed so the engine and tests derive
/// identical digests.
pub fn group_digest<'a>(entries: impl Iterator<Item = (&'a Key, Option<u64>)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u64| {
        hash ^= byte;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (key, value_len) in entries {
        mix(key.len() as u64);
        for &byte in key.as_bytes() {
            mix(u64::from(byte));
        }
        match value_len {
            Some(len) => mix(len ^ 0x5bd1_e995),
            None => mix(0xdead_beef),
        }
    }
    hash
}

/// Cumulative commit-log counters (monotone, survive crash).
#[derive(Debug, Default, Clone, Copy)]
pub struct CommitLogCounters {
    /// Intents persisted via [`CommitLog::begin`].
    pub intents: u64,
    /// Records sealed via [`CommitLog::seal`].
    pub seals: u64,
    /// Sealed records acknowledged by recovery.
    pub replayed: u64,
    /// Unsealed records handed to recovery for rollback.
    pub rolled_back: u64,
    /// Records dropped by recovery because their checksum failed: a
    /// corrupt intent can be trusted neither for replay nor rollback.
    pub corrupt_dropped: u64,
}

#[derive(Debug, Default)]
struct CommitLogInner {
    records: Vec<CommitRecord>,
    counters: CommitLogCounters,
}

/// NVM-resident intent log making multi-partition batches all-or-nothing.
#[derive(Debug)]
pub struct CommitLog {
    device: Arc<Device>,
    next_batch_id: AtomicU64,
    inner: Mutex<CommitLogInner>,
}

/// Sealed records older than the newest this many are garbage collected
/// on the next `begin`; recovery drains everything anyway, this only
/// bounds steady-state memory.
const SEALED_RETAIN: usize = 64;

impl CommitLog {
    /// Create an empty log charging its writes to `device` (the NVM tier).
    pub fn new(device: Arc<Device>) -> Self {
        CommitLog {
            device,
            next_batch_id: AtomicU64::new(1),
            inner: Mutex::new(CommitLogInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CommitLogInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Persist a commit intent for a multi-partition batch. Returns the
    /// batch id and the simulated time of the log append.
    pub fn begin(&self, parts: Vec<CommitPart>) -> (u64, Nanos) {
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        let bytes: u64 = 16 + parts.iter().map(CommitPart::encoded_size).sum::<u64>();
        let cost = self.device.write_sequential(bytes);
        let mut inner = self.lock();
        inner.counters.intents += 1;
        // Bound sealed-record retention; unsealed records are never GC'd.
        let sealed = inner.records.iter().filter(|r| r.sealed).count();
        if sealed > SEALED_RETAIN {
            let mut to_drop = sealed - SEALED_RETAIN;
            inner.records.retain(|r| {
                if r.sealed && to_drop > 0 {
                    to_drop -= 1;
                    false
                } else {
                    true
                }
            });
        }
        let checksum = CommitRecord::compute_checksum(batch_id, &parts);
        inner.records.push(CommitRecord {
            batch_id,
            parts,
            sealed: false,
            checksum,
        });
        (batch_id, cost)
    }

    /// Seal `batch_id` after every partition group installed. Returns the
    /// simulated time of the seal append; sealing an unknown id is a
    /// no-op (recovery may already have collected it).
    pub fn seal(&self, batch_id: u64) -> Nanos {
        let cost = self.device.write_sequential(16);
        let mut inner = self.lock();
        if let Some(record) = inner
            .records
            .iter_mut()
            .find(|r| r.batch_id == batch_id && !r.sealed)
        {
            record.sealed = true;
            inner.counters.seals += 1;
        }
        cost
    }

    /// Drain the log for recovery: sealed records (acknowledged, in
    /// commit order) and unsealed records (torn, to roll back — newest
    /// first, the order rollback must apply pre-images in).
    ///
    /// Every record is checksum-verified first; corrupt records are
    /// dropped and counted in [`CommitLogCounters::corrupt_dropped`]
    /// rather than replayed or rolled back from untrustworthy bytes.
    pub fn drain_for_recovery(&self) -> (Vec<CommitRecord>, Vec<CommitRecord>) {
        let mut inner = self.lock();
        let records = std::mem::take(&mut inner.records);
        let before = records.len();
        let records: Vec<CommitRecord> = records.into_iter().filter(CommitRecord::verify).collect();
        inner.counters.corrupt_dropped += (before - records.len()) as u64;
        let (sealed, mut torn): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.sealed);
        torn.sort_by_key(|record| std::cmp::Reverse(record.batch_id));
        inner.counters.replayed += sealed.len() as u64;
        inner.counters.rolled_back += torn.len() as u64;
        (sealed, torn)
    }

    /// Flip one bit in the stored pre-image bytes (or the checksum, for
    /// records without pre-image payload) of record `batch_id` —
    /// the fault-injection hook used by chaos tests to model a corrupted
    /// intent. Returns true when a record was tampered with.
    pub fn corrupt_record(&self, batch_id: u64) -> bool {
        let mut inner = self.lock();
        let Some(record) = inner.records.iter_mut().find(|r| r.batch_id == batch_id) else {
            return false;
        };
        for part in &mut record.parts {
            for (_, value) in &mut part.pre_images {
                if let Some(v) = value {
                    if !v.is_empty() {
                        let mut bytes = v.as_bytes().to_vec();
                        bytes[0] ^= 0x01;
                        *v = Value::from_vec(bytes);
                        return true;
                    }
                }
            }
        }
        record.checksum ^= 0x1;
        true
    }

    /// Number of records currently in the log (sealed + unsealed).
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of unsealed (in-flight or torn) records.
    pub fn unsealed(&self) -> usize {
        self.lock().records.iter().filter(|r| !r.sealed).count()
    }

    /// Cumulative counters.
    pub fn counters(&self) -> CommitLogCounters {
        self.lock().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceProfile;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 20)))
    }

    fn part(partition: usize) -> CommitPart {
        let key = Key::from_id(partition as u64);
        CommitPart {
            partition,
            entries: 1,
            digest: group_digest([(&key, Some(8u64))].into_iter()),
            pre_images: vec![(key, Some(Value::filled(8, 1)))],
        }
    }

    #[test]
    fn begin_seal_lifecycle_and_costs() {
        let dev = device();
        let log = CommitLog::new(dev.clone());
        let (id, begin_cost) = log.begin(vec![part(0), part(2)]);
        assert!(begin_cost > Nanos::ZERO);
        assert_eq!(log.len(), 1);
        assert_eq!(log.unsealed(), 1);
        let seal_cost = log.seal(id);
        assert!(seal_cost > Nanos::ZERO);
        assert_eq!(log.unsealed(), 0);
        assert!(dev.counters().as_tier_io().bytes_written > 0);
        let counters = log.counters();
        assert_eq!(counters.intents, 1);
        assert_eq!(counters.seals, 1);
    }

    #[test]
    fn recovery_partitions_sealed_from_torn_newest_first() {
        let log = CommitLog::new(device());
        let (a, _) = log.begin(vec![part(0)]);
        log.seal(a);
        let (b, _) = log.begin(vec![part(1)]);
        let (c, _) = log.begin(vec![part(2)]);
        let (sealed, torn) = log.drain_for_recovery();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].batch_id, a);
        let torn_ids: Vec<u64> = torn.iter().map(|r| r.batch_id).collect();
        assert_eq!(torn_ids, vec![c, b], "rollback must run newest first");
        assert!(log.is_empty());
        let counters = log.counters();
        assert_eq!(counters.replayed, 1);
        assert_eq!(counters.rolled_back, 2);
    }

    #[test]
    fn sealing_unknown_record_is_a_noop_and_digest_is_order_sensitive() {
        let log = CommitLog::new(device());
        log.seal(999);
        assert_eq!(log.counters().seals, 0);
        let k1 = Key::from_id(1);
        let k2 = Key::from_id(2);
        let ab = group_digest([(&k1, Some(4u64)), (&k2, None)].into_iter());
        let ba = group_digest([(&k2, None), (&k1, Some(4u64))].into_iter());
        assert_ne!(ab, ba);
        assert_ne!(
            group_digest([(&k1, Some(4u64))].into_iter()),
            group_digest([(&k1, Some(5u64))].into_iter()),
        );
    }

    /// The digest names whole keys: keys sharing their first eight bytes
    /// (one `Key::id`), differing past them or only in length, all differ.
    #[test]
    fn digest_covers_every_key_byte_and_the_key_length() {
        let digest = |key: &[u8]| group_digest([(&Key::from(key), Some(4u64))].into_iter());
        let keys: [&[u8]; 4] = [b"user1234A", b"user1234B", b"user1234", b"user1234A\0"];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(digest(a), digest(b), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn checksums_round_trip_and_catch_tampering() {
        let log = CommitLog::new(device());
        let (a, _) = log.begin(vec![part(0)]);
        log.seal(a);
        let (b, _) = log.begin(vec![part(1)]);
        // Sealing does not invalidate the checksum (it covers intent
        // content only); tampering with record `b`'s pre-image does.
        assert!(log.corrupt_record(b));
        let (sealed, torn) = log.drain_for_recovery();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].batch_id, a);
        assert!(sealed[0].verify());
        assert!(
            torn.is_empty(),
            "a corrupt torn record must not be rolled back"
        );
        assert_eq!(log.counters().corrupt_dropped, 1);
        assert_eq!(log.counters().rolled_back, 0);
    }

    /// The record checksum covers each pre-image key whole: a key damaged
    /// past its eighth byte would otherwise roll back a neighbour.
    #[test]
    fn record_checksum_covers_every_pre_image_key_byte() {
        let mut part = part(0);
        part.pre_images[0].0 = Key::from_bytes(b"user1234A".to_vec());
        let parts = vec![part];
        let record = CommitRecord {
            batch_id: 9,
            checksum: CommitRecord::compute_checksum(9, &parts),
            parts,
            sealed: false,
        };
        assert!(record.verify());
        let mut damaged = record.clone();
        damaged.parts[0].pre_images[0].0 = Key::from_bytes(b"user1234B".to_vec());
        assert!(!damaged.verify());
        let mut shortened = record;
        shortened.parts[0].pre_images[0].0 = Key::from_bytes(b"user1234".to_vec());
        assert!(!shortened.verify());
    }

    #[test]
    fn corrupting_unknown_record_reports_false() {
        let log = CommitLog::new(device());
        assert!(!log.corrupt_record(123));
    }

    #[test]
    fn sealed_records_are_garbage_collected_beyond_retention() {
        let log = CommitLog::new(device());
        for _ in 0..(SEALED_RETAIN + 10) {
            let (id, _) = log.begin(vec![part(0)]);
            log.seal(id);
        }
        assert!(log.len() <= SEALED_RETAIN + 1);
        assert_eq!(log.unsealed(), 0);
    }
}
