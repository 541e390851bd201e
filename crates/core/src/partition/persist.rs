//! # Persist surface
//!
//! A version reaches NVM or flash through one of three methods, and each
//! moves the DRAM mirrors with its durable write, so the index and bucket
//! map a partition keeps are the ones a crash rebuilds.
//! [`Partition::write_slot`] writes a slot and points the index at it,
//! setting the key's NVM bit when the index did not hold the key. Put,
//! the delete tombstone, promotion and a damage repair call it.
//! [`Partition::free_slot`] unlinks the index entry and the NVM bit, then
//! frees the slot: delete, demotion and a damaged slot's resolution call
//! it. [`Partition::swap_files`] writes the new files, clears the flash
//! bits of the retired files' keys, sets those of the new files' keys,
//! installs, and frees the retired files no reader holds. Compaction
//! install, the scrub rebuild and recovery's
//! generation bump call it. A write over an existing slot frees it only
//! after the new version is written (a put in the same size class
//! overwrites it in place), so a failed write leaves the old version
//! answering. A delete that must shadow a flash version writes
//! its tombstone that way; one that need not only frees the slot. Slot
//! addresses, slab growth and `CapacityExceeded` follow from that order,
//! and through them the space and throughput the benchmark measures.
//!
//! The compiler holds the rule: this module declares the slabs, the log,
//! the index and the bucket map as private fields, so only the code here
//! — the three methods, recovery's rebuild of the index and the residency
//! bits from what the tiers hold, and the tracker's popularity bits — can
//! mutate them; the sibling modules read them through `&` accessors.
//! [`Partition::check_invariants`] states what the three methods keep.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use prism_compaction::{BucketMap, CompactionPlanner, ReadTriggeredController};
use prism_flash::{FileId, SortedLog, SstBuilder, SstEntry, SstFile};
use prism_index::FastIndex;
use prism_nvm::{NvmAddress, SlabConfig, SlabStore};
use prism_storage::TieredStorage;
use prism_tracker::{ClockTracker, Mapper};
use prism_types::{Key, Nanos, PartitionHealth, Result, Value, Version};

use super::integrity::ScrubCursor;
use super::{Kept, Partition, ReadSideCounters};
use crate::cache::ShardedLruCache;
use crate::options::Options;

/// Entry in the partition's B-tree index describing the NVM-resident
/// version of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct IndexEntry {
    pub(super) addr: NvmAddress,
    pub(super) timestamp: u64,
    pub(super) tombstone: bool,
}

/// What [`Partition::write_slot`] puts in a key's slot.
#[derive(Debug, Clone)]
pub(super) enum SlotWrite {
    /// A client's value, checksummed as it is written.
    Value(Value),
    /// A version that already has its checksum — a delete tombstone, or a
    /// promoted flash record — stored as it is.
    Version(Version),
}

impl SlotWrite {
    pub(super) fn value_len(&self) -> usize {
        match self {
            SlotWrite::Value(value) => value.len(),
            SlotWrite::Version(version) => version.value_len(),
        }
    }

    fn is_tombstone(&self) -> bool {
        match self {
            SlotWrite::Value(_) => false,
            SlotWrite::Version(version) => version.is_tombstone(),
        }
    }
}

/// What the partition's NVM and flash hold: a crash leaves it as it was.
pub(super) struct Durable {
    slab: SlabStore,
    /// The flash files: their ids, their order, the generation a compaction
    /// job must match to install, and the retired ones readers still hold.
    log: SortedLog,
    /// Keys quarantined after corruption with no surviving copy: the
    /// tombstone-with-error sentinel set. Reads of these keys fail with
    /// `Corruption` (never stale data from an older tier); a successful
    /// rewrite or a repair removes the sentinel. Keyed by the whole
    /// key — a neighbour sharing its first eight bytes is a different key.
    /// Durable: it stands for sentinels persisted beside the slots, and
    /// without it an older flash version would resurface after a crash.
    pub(super) quarantined: HashSet<Key>,
    /// Read-only degraded mode flips on when quarantines cross
    /// `Options::corruption_quarantine_threshold` and back off after a
    /// clean scrub pass. Durable like the sentinels it counts: a crash
    /// does not make damaged media healthy.
    pub(super) health: PartitionHealth,
}

impl Durable {
    /// Partition `id`'s durable part when it is new: empty slabs holding
    /// its share of NVM (under the fault plan, if any), an empty log, no
    /// sentinels.
    pub(super) fn new(options: &Options, storage: &TieredStorage, id: usize) -> Result<Self> {
        let slab_config = SlabConfig {
            slot_sizes: options.slab_slot_sizes.clone(),
            capacity_bytes: (options.nvm_capacity_bytes / options.num_partitions as u64).max(4096),
        };
        let mut slab = SlabStore::new(slab_config, storage.nvm.clone())?;
        if let Some(plan) = &options.fault_plan {
            slab.attach_faults(plan.clone(), id);
        }
        Ok(Durable {
            slab,
            log: SortedLog::new(),
            quarantined: HashSet::new(),
            health: PartitionHealth::Healthy,
        })
    }

    pub(super) fn slab(&self) -> &SlabStore {
        &self.slab
    }

    pub(super) fn log(&self) -> &SortedLog {
        &self.log
    }
}

/// What the partition keeps in DRAM: recovery drops all of it and builds
/// it again from [`Durable`] through [`Volatile::new`].
pub(super) struct Volatile {
    index: FastIndex<Key, IndexEntry>,
    pub(super) tracker: ClockTracker,
    pub(super) mapper: Mapper,
    buckets: BucketMap,
    /// Rebuilt from `Options` with the partition's seed, like the read
    /// trigger: both steer future compactions and protect no data.
    pub(super) planner: CompactionPlanner,
    pub(super) read_trigger: Option<ReadTriggeredController>,
    pub(super) cache: ShardedLruCache,
    /// Structural tracker admissions buffered by `&self` reads and applied
    /// by the next writer (or an engine-forced drain): `(key,
    /// served_from_flash)` per found read of a key the clock tracker does
    /// not yet track, in arrival order. A tracked key's re-access is
    /// applied lock-free on the read path itself ([`ClockTracker::touch`]).
    pub(super) read_side: Mutex<Vec<(Key, bool)>>,
    pub(super) read_counters: ReadSideCounters,
    /// Superseded versions preserved for pinned snapshots: per key, the
    /// `(sequence, version)` pairs in the order they were superseded —
    /// ascending, but for a damaged flash record's marker at 0. Only
    /// populated while snapshots are pinned; cleared wholesale once none
    /// remain.
    pub(super) history: BTreeMap<Key, Vec<(u64, Kept)>>,
    /// Bytes currently buffered in `history` (mirrored into the shared
    /// sequencer total for lock-free engine-side cap checks).
    pub(super) history_bytes: u64,
    /// A read-triggered promotion compaction is due (set by a drain).
    pub(super) promote_pending: bool,
    /// Parked resume point of an incomplete scrub pass.
    pub(super) scrub_cursor: Option<ScrubCursor>,
}

impl Volatile {
    /// Empty DRAM state for partition `id`: what a fresh partition starts
    /// with and what recovery starts rebuilding from.
    pub(super) fn new(options: &Options, id: usize) -> Self {
        let tracker_capacity = (options.tracker_capacity() / options.num_partitions).max(8);
        let mut compaction_config = options.compaction;
        // Give each partition its own deterministic-but-distinct seed.
        compaction_config.seed = compaction_config.seed.wrapping_add(id as u64);
        Volatile {
            index: FastIndex::new(),
            tracker: ClockTracker::new(tracker_capacity),
            mapper: Mapper::new(),
            buckets: BucketMap::new(options.compaction.bucket_size_keys),
            planner: CompactionPlanner::new(compaction_config)
                .expect("Options::validate checked the compaction config"),
            // §5.3's windows, scaled down from the paper's 100 M keys.
            read_trigger: options.read_trigger.then(|| {
                ReadTriggeredController::new((100_000_000 / options.expected_keys.max(1)).max(1))
            }),
            cache: ShardedLruCache::new(
                options.dram_cache_bytes / options.num_partitions as u64,
                options.cache_shards,
            ),
            read_side: Mutex::default(),
            read_counters: ReadSideCounters::default(),
            history: BTreeMap::new(),
            history_bytes: 0,
            promote_pending: false,
            scrub_cursor: None,
        }
    }

    pub(super) fn index(&self) -> &FastIndex<Key, IndexEntry> {
        &self.index
    }

    pub(super) fn buckets(&self) -> &BucketMap {
        &self.buckets
    }

    /// Track an access with the write lock held (the caller charges its
    /// CPU cost).
    pub(super) fn observe_access(&mut self, key: &Key, on_flash: bool) {
        let event = self.tracker.access(key, on_flash);
        self.mapper.apply(&event);
        self.buckets.on_access(key.id());
        if let Some((evicted, _)) = &event.evicted {
            self.buckets.on_tracker_evict(evicted.id());
        }
    }
}

/// What a scan of the slabs finds: the newest clean slot per key, the
/// keys with a damaged slot, every other slot, and the newest sequence.
struct SlabScan {
    newest: HashMap<Key, IndexEntry>,
    corrupt: Vec<Key>,
    stale: Vec<NvmAddress>,
    max_ts: u64,
}

impl SlabScan {
    fn of(slab: &SlabStore) -> Self {
        // First pass: verify every slot. A key with *any* corrupt slot is
        // quarantined whole — a corrupt slot's timestamp cannot be
        // trusted, so newest-version selection among its siblings could
        // resurrect a superseded value. Recovery quarantines; it never
        // guesses.
        let corrupt: Vec<Key> = slab
            .scan()
            .filter(|(_, slot)| !slot.verify())
            .map(|(_, slot)| slot.key.clone())
            .collect();
        let corrupt_keys: HashSet<&Key> = corrupt.iter().collect();
        let mut newest: HashMap<Key, IndexEntry> = HashMap::new();
        let mut stale: Vec<NvmAddress> = Vec::new();
        let mut max_ts = 0u64;
        for (addr, slot) in slab.scan() {
            if corrupt_keys.contains(&slot.key) {
                // Every slot of a corrupt key is dropped, clean siblings
                // included.
                stale.push(addr);
                continue;
            }
            max_ts = max_ts.max(slot.version.timestamp);
            let entry = IndexEntry {
                addr,
                timestamp: slot.version.timestamp,
                tombstone: slot.version.is_tombstone(),
            };
            match newest.get(&slot.key) {
                Some(held) if held.timestamp >= entry.timestamp => stale.push(addr),
                _ => {
                    if let Some(old) = newest.insert(slot.key.clone(), entry) {
                        stale.push(old.addr);
                    }
                }
            }
        }
        SlabScan {
            newest,
            corrupt,
            stale,
            max_ts,
        }
    }
}

impl Partition {
    /// Write `key`'s version `ts` to its slot and point the index at it:
    /// over a live value in place (the slab moves it if its size class
    /// changes), otherwise into a fresh slot, freeing a tombstone slot it
    /// replaces only after the write succeeded, so a failed write leaves
    /// the index pointing at a live slot. A key new to the index sets its
    /// NVM bit. Returns the device write's cost.
    pub(super) fn write_slot(&mut self, key: &Key, ts: u64, write: SlotWrite) -> Result<Nanos> {
        let existing = self.volatile.index.get(key).copied();
        let tombstone = write.is_tombstone();
        let slab = &mut self.durable.slab;
        let (addr, cost) = match (write, existing) {
            (SlotWrite::Value(value), Some(old)) if !old.tombstone => {
                slab.update(old.addr, key, value, ts)?
            }
            (write, existing) => {
                let placed = match write {
                    SlotWrite::Value(value) => slab.insert(key.clone(), value, ts)?,
                    SlotWrite::Version(version) => slab.insert_version(key.clone(), version)?,
                };
                if let Some(old) = existing {
                    slab.remove(old.addr)?;
                }
                placed
            }
        };
        let entry = IndexEntry {
            addr,
            timestamp: ts,
            tombstone,
        };
        if self.volatile.index.insert(key.clone(), entry).is_none() {
            self.volatile.buckets.on_nvm_insert(key.id());
        }
        Ok(cost)
    }

    /// Take `key` off NVM: unlink its index entry and NVM bit, then free
    /// its slot. A key the index does not hold frees nothing.
    pub(super) fn free_slot(&mut self, key: &Key) -> Result<()> {
        let Some(entry) = self.volatile.index.remove(key) else {
            return Ok(());
        };
        self.volatile.buckets.on_nvm_remove(key.id());
        self.durable.slab.remove(entry.addr).map(drop)
    }

    /// Replace the flash files with ids in `retired` by `records` (in key
    /// order) written as new files: clear the flash bits of the retired
    /// files' keys, set those of the new files' keys, then install, which
    /// takes a new log generation even when both lists are empty, and
    /// reclaim every retired file no reader holds. The retired files are
    /// found in the log by id, so a caller that let go of its own handles
    /// first sees them freed here. Returns the write cost.
    pub(super) fn swap_files(
        &mut self,
        retired: &[FileId],
        records: Vec<(Key, SstEntry)>,
    ) -> Nanos {
        let (new_files, cost) = self.write_sst_files(records);
        let buckets = &mut self.volatile.buckets;
        let files = self.durable.log.files().iter();
        let leaving = files.filter(|file| retired.contains(&file.id()));
        for (key, _) in leaving.flat_map(|file| file.iter()) {
            buckets.on_flash_remove(key.id());
        }
        for (key, _) in new_files.iter().flat_map(|file| file.iter()) {
            buckets.on_flash_insert(key.id());
        }
        self.durable.log.install(retired, new_files);
        self.durable.log.reclaim(&self.flash_dev);
        cost
    }

    fn write_sst_files(&mut self, merged: Vec<(Key, SstEntry)>) -> (Vec<Arc<SstFile>>, Nanos) {
        let mut files = Vec::new();
        let mut cost = Nanos::ZERO;
        if merged.is_empty() {
            return (files, cost);
        }
        let target = self.options.sst_target_bytes;
        let mut builder =
            SstBuilder::new(self.durable.log.allocate_file_id()).for_partition(self.id);
        for (key, entry) in merged {
            builder.add(key, entry);
            if builder.size_bytes() >= target {
                let (file, c) = builder.finish(&self.flash_dev);
                cost += c;
                files.push(Arc::new(file));
                builder =
                    SstBuilder::new(self.durable.log.allocate_file_id()).for_partition(self.id);
            }
        }
        if !builder.is_empty() {
            let (file, c) = builder.finish(&self.flash_dev);
            cost += c;
            files.push(Arc::new(file));
        }
        (files, cost)
    }

    /// Recovery's rebuild of the DRAM mirrors from what the tiers hold:
    /// the index from a scan of the slabs, keeping only the newest clean
    /// slot per key, and the residency bits from the index and the log.
    /// Returns the keys of the damaged slots and of the damaged records,
    /// for [`Partition::resolve_damage`], and the newest slot sequence.
    pub(super) fn rebuild_mirrors(&mut self) -> (Vec<Key>, Vec<Key>, u64) {
        let SlabScan {
            newest,
            corrupt,
            stale,
            max_ts,
        } = SlabScan::of(&self.durable.slab);
        // Garbage-collect superseded duplicate slots (e.g. slots orphaned
        // by a bug or torn multi-slot sequence): recovery must leave
        // exactly one slot per key, or the next recovery could pick a
        // different winner.
        for addr in stale {
            self.durable
                .slab
                .remove(addr)
                .expect("recovery GC: a slot just seen by the slab scan must be removable");
        }
        for (key, entry) in newest {
            self.volatile.index.insert(key, entry);
        }
        self.volatile.buckets = self.residency();
        let records = self.durable.log.iter();
        let flash_corrupt = records.filter(|(_, entry)| !entry.verify());
        let flash_corrupt = flash_corrupt.map(|(key, _)| key.clone()).collect();
        (corrupt, flash_corrupt, max_ts)
    }

    /// The residency bits the index and the log imply: an NVM bit per
    /// indexed key and a flash bit per record. A damaged record holds its
    /// bit until a merge or a scrub drops it: the install that wrote it
    /// set the bit.
    fn residency(&self) -> BucketMap {
        let mut buckets = BucketMap::new(self.volatile.buckets.bucket_size());
        for (key, _) in self.volatile.index.range_from(&Key::min()) {
            buckets.on_nvm_insert(key.id());
        }
        for (key, _) in self.durable.log.iter() {
            buckets.on_flash_insert(key.id());
        }
        buckets
    }

    /// What the persist methods keep, checked against what a crash would
    /// rebuild; `Err` names the first clause that fails. `index`: the index
    /// holds each key's newest clean slot and no other key, and the slabs
    /// hold no older slot of it, keys with a damaged slot aside.
    /// `residency bits`: the bucket map's NVM and flash bits are those of
    /// the index's and the log's keys (popularity bits are not compared).
    /// `history`: no key keeps an empty list, and `history_bytes` is the
    /// footprint of every preserved version.
    /// Debug builds check it before and after every crash.
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        let scan = SlabScan::of(&self.durable.slab);
        let damaged: HashSet<&Key> = scan.corrupt.iter().collect();
        let index = self.volatile.index.range_from(&Key::min());
        let indexed: HashMap<Key, IndexEntry> = index
            .filter(|(key, _)| !damaged.contains(key))
            .map(|(key, entry)| (key.clone(), *entry))
            .collect();
        let mut keys = indexed.keys().chain(scan.newest.keys());
        if let Some(key) = keys.find(|key| indexed.get(*key) != scan.newest.get(*key)) {
            let (held, slot) = (indexed.get(key), scan.newest.get(key));
            return Err(format!("index: {key:?} holds {held:?}, the slabs {slot:?}"));
        }
        let slab = self.durable.slab.scan();
        let older = scan.stale.len() - slab.filter(|(_, slot)| damaged.contains(&slot.key)).count();
        if older > 0 {
            return Err(format!("index: {older} older slots are not freed"));
        }
        if !self.volatile.buckets.same_residency(&self.residency()) {
            return Err("residency bits: they differ from the index's and the log's keys".into());
        }
        let history = &self.volatile.history;
        if let Some((key, _)) = history.iter().find(|(_, list)| list.is_empty()) {
            return Err(format!("history: {key:?} keeps an empty list"));
        }
        let kept: u64 = history
            .iter()
            .flat_map(|(key, list)| {
                list.iter()
                    .map(move |(_, v)| Volatile::history_entry_bytes(key, v))
            })
            .sum();
        let counted = self.volatile.history_bytes;
        if kept != counted {
            return Err(format!("history: {counted} bytes counted, {kept} kept"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use prism_compaction::BucketMap;
    use prism_types::{Key, Value};

    use super::super::tests::{engine, partition, put};

    /// Each clause of `check_invariants` names itself when the state it
    /// covers is broken behind the persist methods' back: a slot no index
    /// entry points at, an older slot of an indexed key, and residency bits
    /// flipped both ways.
    #[test]
    fn check_invariants_names_the_clause_a_stray_mutation_breaks() {
        let engine = engine(1_000);
        let mut p = partition(&engine);
        for id in 0..100 {
            put(&engine, &mut p, Key::from_id(id), Value::filled(300, 1)).unwrap();
        }
        assert_eq!(p.check_invariants(), Ok(()));

        // A slot of a key the index does not hold, and an older slot of
        // one it does.
        let fresh = p.seq.allocate();
        let slots = [(500, fresh, "holds None"), (7, 1, "1 older slots")];
        for (id, ts, found) in slots {
            let value = Value::filled(300, 2);
            let (addr, _) = p.durable.slab.insert(Key::from_id(id), value, ts).unwrap();
            let violation = p.check_invariants().unwrap_err();
            assert!(
                violation.starts_with("index:") && violation.contains(found),
                "{violation}"
            );
            p.durable.slab.remove(addr).unwrap();
            assert_eq!(p.check_invariants(), Ok(()));
        }

        for flip in [
            |buckets: &mut BucketMap| buckets.on_flash_insert(500),
            |buckets: &mut BucketMap| buckets.on_nvm_remove(7),
        ] {
            let mut kept = p.volatile.buckets.clone();
            flip(&mut p.volatile.buckets);
            let violation = p.check_invariants().unwrap_err();
            assert!(violation.starts_with("residency bits:"), "{violation}");
            std::mem::swap(&mut kept, &mut p.volatile.buckets);
            assert_eq!(p.check_invariants(), Ok(()));
        }
    }

    /// The history clause: the byte count is the preserved versions'
    /// footprint, and a key with nothing preserved has no list.
    #[test]
    fn check_invariants_names_a_history_that_does_not_add_up() {
        let engine = engine(1_000);
        let mut p = partition(&engine);
        let pin = p.seq.pin();
        for value in [1, 2] {
            for id in 0..10 {
                put(&engine, &mut p, Key::from_id(id), Value::filled(300, value)).unwrap();
            }
        }
        assert!(p.history_bytes() > 10 * 300);
        assert_eq!(p.check_invariants(), Ok(()));

        p.volatile.history_bytes += 1;
        let violation = p.check_invariants().unwrap_err();
        assert!(violation.starts_with("history:"), "{violation}");
        p.volatile.history_bytes -= 1;
        assert_eq!(p.check_invariants(), Ok(()));

        p.volatile.history.insert(Key::from_id(500), Vec::new());
        let violation = p.check_invariants().unwrap_err();
        assert!(violation.starts_with("history:"), "{violation}");
        p.volatile.history.remove(&Key::from_id(500));
        assert_eq!(p.check_invariants(), Ok(()));
        p.seq.release(pin);
    }
}
