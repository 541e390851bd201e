//! A single shared-nothing partition of PrismDB.
//!
//! Each partition owns a disjoint slice of the key space and all the data
//! structures for it (Figure 3 of the paper): the NVM slab store and its
//! B-tree index, the flash sorted log, the clock tracker and
//! mapper, the bucket map for approx-MSC, and the compaction planner. A
//! partition also owns its virtual clocks: a foreground clock advanced by
//! client operations and a background completion time advanced by
//! compaction work, which together produce write-stall behaviour when
//! compactions cannot keep up.
//!
//! # Crash model
//!
//! A crash is a power cut, and the partition's state is split by what it
//! does to each field. [`Durable`] is what NVM and flash hold — slabs,
//! sorted log, quarantine sentinels, health — and survives. [`Volatile`]
//! is what DRAM holds and is lost: recovery replaces it with an empty one
//! from the constructor a new partition uses, then rebuilds the index and
//! bucket map from the durable part (the paper's per-partition recovery,
//! §6). [`Lifetime`] — statistics and virtual clocks — is outside the
//! model and carries on. Within an install the file swap is the commit
//! point: promoted slots and new files are written before it and demoted
//! slots freed after it (see [`Partition::install_compaction`]).
//!
//! # Persist surface
//!
//! A version reaches NVM or flash through one of three methods, and each
//! moves the DRAM mirrors with its durable write, so the index and bucket
//! map a partition keeps are the ones a crash rebuilds.
//! [`Partition::write_slot`] writes a slot and points the index at it,
//! setting the key's NVM bit when the index did not hold the key. Put,
//! the delete tombstone, promotion and a damage repair call it, and
//! recovery calls its index half for each slot the scan keeps.
//! [`Partition::free_slot`] unlinks the index entry and the NVM bit, then
//! frees the slot: delete, demotion and a damaged slot's resolution call
//! it. [`Partition::swap_files`] writes the new files, clears the flash
//! bits of the retired files' keys, sets those of the new files' keys,
//! installs, and frees the retired files no reader holds. Compaction
//! install, the scrub rebuild and recovery's
//! generation bump call it. Each call site keeps the slab order it always
//! had: a delete frees the old slot and then writes its tombstone, and a
//! put over a tombstone writes the new slot and then frees the old one.
//! Slot addresses, slab growth and `CapacityExceeded` follow from that
//! order, and through them the space and throughput the benchmark
//! measures.
//!
//! # Integrity
//!
//! What a failed checksum does is decided by [`Partition::resolve_damage`],
//! which the engine's get escalation, recovery and both scrub phases call:
//! it counts the detection and frees a damaged slot; a damaged flash
//! record a live NVM version hides is shadowed; otherwise the DRAM cache's
//! last committed value is written back, or the key goes under a durable
//! sentinel and the partition degrades at the threshold. Scans and
//! snapshot reads only judge, by one rule ([`Partition::visible_at`]): a
//! damaged version hides every older one from a reader whose pin covers
//! it — a point read errors, a scan skips and counts the key — while a
//! reader pinned before a damaged slot, whose sequence the DRAM index
//! holds, reads its preserved version. A sentinel, and a damaged flash
//! record, whose sequence is among the damaged bytes, hide the key from
//! every reader.
//!
//! # Read path vs write path
//!
//! Point reads and scans take `&self`: the engine keeps each partition
//! behind an `RwLock`, so reads on the same partition overlap with each
//! other and only serialise against writers. Whatever a read must mutate
//! is split out of the critical section — the DRAM cache is hash-sharded
//! over independently locked sub-caches ([`ShardedLruCache`]), every read
//! counter is an atomic, and the clock-tracker update for an
//! already-tracked key is a lock-free [`ClockTracker::touch`] (an atomic
//! swap on the entry's clock byte) folded into the mapper histogram with
//! an atomic [`Mapper::promote_to_max`]. Only *structural* tracker work —
//! admitting a key the tracker has never seen, which may evict another —
//! is buffered in [`Volatile`]'s read side for the next write (or an
//! engine-forced drain) to apply under the write lock. The CPU cost of
//! the tracker update is still charged to the read that caused it; only
//! structural application is deferred. Point lookups resolve the key's
//! NVM address through the index's hash-directory fast path
//! ([`prism_index::FastIndex`]) instead of a B-tree walk.
//!
//! # Compaction pipeline
//!
//! Compactions run as a *plan → execute → install* pipeline
//! (see [`prism_compaction::CompactionJob`]): planning clones the victim
//! state out under the lock, execution merges without touching the
//! partition, and installation re-validates against the live index
//! (timestamp checks per demoted object; per job, that the sorted log's
//! generation has not moved since the plan) and moves what survives into
//! the new files before swapping them in — after which the log frees
//! whichever replaced file no reader holds. No phase verifies or
//! recomputes a checksum: each version keeps the one it was written with
//! across demotion, merge and promotion, so damage stays detectable and
//! is caught by the next read, scan, recovery scan or scrub pass. A
//! partition only *plans* and *installs*; it never
//! decides when a compaction runs or who runs it. That is the engine's
//! compaction driver (`crate::workers`): it calls into a write between the
//! read-side drain and the clock advance, raises the promotion and
//! watermark requests, and runs each job either on the calling thread under
//! the write guard it already holds or on a pool worker that locks per
//! phase. The partition keeps the two clocks the driver charges: `fg`,
//! and `busy_until`, the instant its chained background work completes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use prism_compaction::{
    msc_score, BucketMap, CompactionJob, CompactionPlanner, CompactionPolicy, DemoteEntry,
    ExecutedJob, JobKind, MergedOrigin, RangeStatsBuilder, ReadTriggeredController,
};
use prism_flash::{FileId, LogPosition, SortedLog, SstBuilder, SstEntry, SstFile};
use prism_index::FastIndex;
use prism_nvm::{NvmAddress, SlabConfig, SlabStore};
use prism_storage::{CpuCosts, Device, FaultOp, FaultPlan, FaultTier, TieredStorage};
use prism_tracker::{ClockTracker, Mapper, PinDecision};
use prism_types::{
    BatchOp, EngineStats, EngineStatsCells, Key, Lookup, Nanos, PartitionHealth, PrismError,
    ReadSource, Result, Value, Version,
};

use crate::cache::{CacheStats, SerialTally, ShardedLruCache};
use crate::options::Options;
use crate::sequence::CommitSequencer;
use crate::workers::DemotionPlan;

/// Buffered read-side updates applied at the next drain (threshold for the
/// engine to force a drain with a write lock).
pub(crate) const READ_SIDE_DRAIN: usize = 64;

/// How many flash-served reads accumulate before a promotion compaction
/// runs (while read-triggered compactions are active). No experiment
/// sweeps it.
const PROMOTION_BATCH_FLASH_READS: u64 = 200;

/// Entry in the partition's B-tree index describing the NVM-resident
/// version of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    addr: NvmAddress,
    timestamp: u64,
    tombstone: bool,
}

/// Read-side counters maintained entirely with atomics: the hot read path
/// bumps these without taking any lock, and write-lock holders drain them.
#[derive(Debug, Default)]
struct ReadSideCounters {
    /// Mirrors the length of `Volatile::read_side` so drain pressure is
    /// checked without the buffer mutex.
    pending_accesses: AtomicU64,
    /// Total reads observed since the last drain.
    reads: AtomicU64,
    /// Reads served from NVM since the last drain.
    nvm_hits: AtomicU64,
    /// Reads served from flash since the last drain.
    flash_hits: AtomicU64,
    /// Flash-served reads since the last promotion compaction (persists
    /// across drains; reset when a promotion is scheduled).
    flash_reads_since_promotion: AtomicU64,
}

/// Slab device writes accumulated by one batched partition group. The
/// group's slot writes are submitted together, so instead of charging one
/// random-write latency per slot, the group pays one access latency plus a
/// bandwidth-limited transfer of the total bytes (the device I/O counters
/// are still recorded per slot by the slab store).
#[derive(Debug, Default, Clone, Copy)]
struct SlabWriteTally {
    writes: u64,
    bytes: u64,
}

/// What [`Partition::write_slot`] puts in a key's slot.
#[derive(Debug, Clone)]
enum SlotWrite {
    /// A client's value, checksummed as it is written.
    Value(Value),
    /// A version that already has its checksum — a delete tombstone, or a
    /// promoted flash record — stored as it is.
    Version(Version),
    /// A slot the recovery scan found at `addr`: nothing is written, only
    /// the index half runs.
    Scanned { addr: NvmAddress, tombstone: bool },
}

impl SlotWrite {
    fn value_len(&self) -> usize {
        match self {
            SlotWrite::Value(value) => value.len(),
            SlotWrite::Version(version) => version.value_len(),
            SlotWrite::Scanned { .. } => 0,
        }
    }

    fn is_tombstone(&self) -> bool {
        match self {
            SlotWrite::Value(_) => false,
            SlotWrite::Version(version) => version.is_tombstone(),
            SlotWrite::Scanned { tombstone, .. } => *tombstone,
        }
    }
}

/// A key's live version below the DRAM cache, as a reader found it.
enum Live {
    /// Its tier, commit sequence and value (`None` for a tombstone).
    Clean(ReadSource, u64, Option<Value>),
    /// Failed its checksum; the sequence is known for an NVM slot (the
    /// DRAM index holds it), not for a flash record.
    Damaged(Option<u64>),
}

/// How [`Partition::resolve_damage`] settled a damaged version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// A flash record a live NVM version hides.
    Shadowed,
    /// The cached value was written back, at this device cost.
    Repaired(Nanos),
    /// No clean copy survives: the key is under a sentinel.
    Quarantined,
}

/// What a write calls when a slab write finds no room: free NVM space on
/// the spot (the write lock stays held) given the operation's accrued cost,
/// and return the stall charged for it. The compaction driver supplies it
/// (`EngineShared::reclaim`).
pub(crate) type Reclaim<'a> = &'a mut dyn FnMut(&mut Partition, Nanos) -> Result<Nanos>;

/// Result of one compaction job.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CompactionOutcome {
    pub duration: Nanos,
    pub flash_time: Nanos,
    pub demoted: u64,
    pub promoted: u64,
}

/// Result of one scrub pass (see [`crate::PrismDb::scrub_partition`]):
/// a budget-bounded integrity walk over the partition's slabs and SST
/// files.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects whose checksums were verified this pass.
    pub examined: u64,
    /// Payload bytes read and verified this pass.
    pub examined_bytes: u64,
    /// Corrupt objects discovered this pass.
    pub corrupt_found: u64,
    /// Corrupt objects repaired from a surviving clean copy (a newer
    /// NVM version shadowing a corrupt flash record, or the DRAM
    /// cache's last committed value).
    pub repaired: u64,
    /// Corrupt objects with no surviving copy, quarantined instead.
    pub quarantined: u64,
    /// Whether the walk reached the end of the partition. `false` means
    /// the IO budget ran out and the pass parked a resume cursor.
    pub completed: bool,
}

impl ScrubReport {
    /// Count one corrupt object and its resolution; returns the repair's
    /// cost.
    fn note(&mut self, resolution: Resolution) -> Nanos {
        self.corrupt_found += 1;
        let (count, cost) = match resolution {
            Resolution::Shadowed => (&mut self.repaired, Nanos::ZERO),
            Resolution::Repaired(cost) => (&mut self.repaired, cost),
            Resolution::Quarantined => (&mut self.quarantined, Nanos::ZERO),
        };
        *count += 1;
        cost
    }
}

/// Resume point of a budget-bounded scrub walk: scrub verifies the NVM
/// index first, then the flash files in key order. Both phases are
/// keyed by `Key` (not slot address or file id) so a cursor survives
/// concurrent writes, compactions and file rebuilds.
#[derive(Debug, Clone)]
enum ScrubCursor {
    /// Next NVM index key to verify.
    Nvm(Key),
    /// Flash phase: next file (identified by its minimum key) to verify.
    Flash(Key),
}

/// One partition's resumable position in a scan. The engine's merge owns
/// one per partition it visits and lends it to [`Partition::scan_pull`]
/// under a short read lock; no lock is held between pulls, so the cursor
/// resumes by key, the frontier — and, while the flash log's file list
/// stands, by its position in that log instead of a second search for the
/// same key. The scan's pinned sequence makes that consistent: a
/// key's version at the pin is the same whenever, and in whichever tier,
/// it is looked up, and a key written after the pin is invisible to it.
#[derive(Debug, Default)]
pub(crate) struct ScanCursor {
    /// Lower bound of this partition's keys not yet examined; `None` once
    /// there are none.
    frontier: Option<Key>,
    /// Where the flash log's first entry at or above the frontier was when
    /// the cursor was parked: always `log.seek(frontier)` of that moment,
    /// so the next pull takes it instead of seeking. The log refuses it
    /// once a compaction, scrub rebuild or recovery has changed the list.
    flash: Option<LogPosition>,
    /// Consumption so far, charged once by [`Partition::scan_charge`].
    resolved: u64,
    emitted: u64,
    nvm_reads: u64,
    flash_bytes: u64,
}

impl ScanCursor {
    pub(crate) fn new(start: &Key) -> Self {
        ScanCursor {
            frontier: Some(start.clone()),
            ..ScanCursor::default()
        }
    }

    pub(crate) fn frontier(&self) -> Option<&Key> {
        self.frontier.as_ref()
    }
}

/// One partition: handles, then its state grouped by what a crash does to
/// it. A field joins the handles or one of the three parts, so none
/// survives a crash by accident.
pub(crate) struct Partition {
    id: usize,
    options: Arc<Options>,
    cpu: CpuCosts,
    nvm_dev: Arc<Device>,
    flash_dev: Arc<Device>,
    /// Fault plan shared with the storage layer (`None` in healthy runs).
    fault: Option<Arc<FaultPlan>>,
    /// Global commit sequencer shared by every partition of the engine:
    /// allocates the per-version timestamps (which double as commit
    /// sequences) and tracks pinned snapshots.
    seq: Arc<CommitSequencer>,
    durable: Durable,
    volatile: Volatile,
    lifetime: Lifetime,
}

/// What the partition's NVM and flash hold: a crash leaves it as it was.
struct Durable {
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
    quarantined: HashSet<Key>,
    /// Read-only degraded mode flips on when quarantines cross
    /// `Options::corruption_quarantine_threshold` and back off after a
    /// clean scrub pass. Durable like the sentinels it counts: a crash
    /// does not make damaged media healthy.
    health: PartitionHealth,
}

/// What the partition keeps in DRAM: recovery drops all of it and builds
/// it again from [`Durable`] through [`Volatile::new`].
struct Volatile {
    index: FastIndex<Key, IndexEntry>,
    tracker: ClockTracker,
    mapper: Mapper,
    buckets: BucketMap,
    /// Rebuilt from `Options` with the partition's seed, like the read
    /// trigger: both steer future compactions and protect no data.
    planner: CompactionPlanner,
    read_trigger: Option<ReadTriggeredController>,
    cache: ShardedLruCache,
    /// Structural tracker admissions buffered by `&self` reads and applied
    /// by the next writer (or an engine-forced drain): `(key,
    /// served_from_flash)` per found read of a key the clock tracker does
    /// not yet track, in arrival order. A tracked key's re-access is
    /// applied lock-free on the read path itself ([`ClockTracker::touch`]).
    read_side: Mutex<Vec<(Key, bool)>>,
    read_counters: ReadSideCounters,
    /// Superseded versions preserved for pinned snapshots: per key, the
    /// `(sequence, value)` pairs (a `None` value is a delete) in
    /// ascending sequence order. Only populated while snapshots are
    /// pinned; cleared wholesale once none remain.
    history: BTreeMap<Key, Vec<(u64, Option<Value>)>>,
    /// Bytes currently buffered in `history` (mirrored into the shared
    /// sequencer total for lock-free engine-side cap checks).
    history_bytes: u64,
    /// A read-triggered promotion compaction is due (set by a drain).
    promote_pending: bool,
    /// Parked resume point of an incomplete scrub pass.
    scrub_cursor: Option<ScrubCursor>,
}

impl Volatile {
    /// Empty DRAM state for partition `id`: what a fresh partition starts
    /// with and what recovery starts rebuilding from.
    fn new(options: &Options, id: usize) -> Self {
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
            read_trigger: options.read_trigger.map(ReadTriggeredController::new),
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

    fn lock_read_side(&self) -> MutexGuard<'_, Vec<(Key, bool)>> {
        self.read_side
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Track an access with the write lock held (the caller charges its
    /// CPU cost).
    fn observe_access(&mut self, key: &Key, on_flash: bool) {
        let event = self.tracker.access(key, on_flash);
        self.mapper.apply(&event);
        self.buckets.on_access(key.id());
        if let Some((evicted, _)) = &event.evicted {
            self.buckets.on_tracker_evict(evicted.id());
        }
    }

    /// Drain/promotion pressure from the atomic read-side counters alone:
    /// the hot read path calls this without holding any lock.
    fn read_pressure(&self) -> bool {
        let trigger_enabled = self
            .read_trigger
            .as_ref()
            .is_some_and(|ctrl| ctrl.promotions_enabled());
        self.read_counters.pending_accesses.load(Ordering::Relaxed) as usize >= READ_SIDE_DRAIN
            || (trigger_enabled
                && self
                    .read_counters
                    .flash_reads_since_promotion
                    .load(Ordering::Relaxed)
                    >= PROMOTION_BATCH_FLASH_READS)
    }

    /// Apply buffered structural tracker admissions and drain the atomic
    /// read counters into the read-trigger controller.
    fn apply_read_side(&mut self) {
        let accesses = {
            let mut rs = self.lock_read_side();
            self.read_counters
                .pending_accesses
                .store(0, Ordering::Relaxed);
            std::mem::take(&mut *rs)
        };
        let reads = self.read_counters.reads.swap(0, Ordering::Relaxed);
        let nvm_hits = self.read_counters.nvm_hits.swap(0, Ordering::Relaxed);
        let flash_hits = self.read_counters.flash_hits.swap(0, Ordering::Relaxed);
        for (key, on_flash) in &accesses {
            // Cost already charged to the read that buffered the access.
            self.observe_access(key, *on_flash);
        }
        if let Some(ctrl) = &mut self.read_trigger {
            for _ in 0..flash_hits {
                ctrl.observe_op(true, false, true);
            }
            for _ in 0..nvm_hits {
                ctrl.observe_op(true, true, false);
            }
            for _ in 0..reads.saturating_sub(nvm_hits + flash_hits) {
                ctrl.observe_op(true, false, false);
            }
        }
        self.refresh_promote_due();
    }

    /// If the read-trigger controller allows promotions and enough flash
    /// reads accumulated, mark a promotion as pending and reset the batch
    /// counter.
    fn refresh_promote_due(&mut self) {
        let enabled = self
            .read_trigger
            .as_ref()
            .is_some_and(|ctrl| ctrl.promotions_enabled());
        if !enabled {
            return;
        }
        // `&mut self` means no reader holds the partition lock, so the
        // load/store pair cannot lose a concurrent increment.
        let ctr = &self.read_counters.flash_reads_since_promotion;
        if ctr.load(Ordering::Relaxed) >= PROMOTION_BATCH_FLASH_READS {
            ctr.store(0, Ordering::Relaxed);
            self.promote_pending = true;
        }
    }

    /// Record a write for the read-trigger controller's read-ratio
    /// tracking.
    fn observe_write_op(&mut self) {
        if let Some(ctrl) = &mut self.read_trigger {
            ctrl.observe_op(false, false, false);
        }
        self.refresh_promote_due();
    }

    /// Approximate DRAM footprint of one preserved history version (key
    /// + value bytes + per-entry bookkeeping).
    fn history_entry_bytes(key: &Key, value: &Option<Value>) -> u64 {
        key.len() as u64 + value.as_ref().map(|v| v.len() as u64).unwrap_or(0) + 16
    }

    fn push_history(&mut self, seq: &CommitSequencer, key: &Key, version: (u64, Option<Value>)) {
        let list = self.history.entry(key.clone()).or_default();
        if list.last().map(|(seq, _)| *seq) != Some(version.0) {
            let bytes = Self::history_entry_bytes(key, &version.1);
            self.history_bytes += bytes;
            seq.add_history_bytes(bytes);
            list.push(version);
        }
    }

    /// Drop all preserved history and return its bytes to `seq`'s total.
    fn clear_history(&mut self, seq: &CommitSequencer) {
        self.history.clear();
        if self.history_bytes > 0 {
            seq.sub_history_bytes(std::mem::take(&mut self.history_bytes));
        }
    }

    /// Free history versions no live pin can reach: for each key, every
    /// version older than the newest one at or below `oldest_pin` is
    /// dead for all remaining pins. With no pins at all, everything
    /// goes.
    fn prune_history(&mut self, seq: &CommitSequencer, oldest_pin: Option<u64>) {
        let Some(pin) = oldest_pin else {
            self.clear_history(seq);
            return;
        };
        let mut freed = 0u64;
        self.history.retain(|key, list| {
            // Newest index with seq <= pin; everything before it is
            // unreachable by any pin >= `pin`.
            let keep_from = list.iter().rposition(|(seq, _)| *seq <= pin).unwrap_or(0);
            if keep_from > 0 {
                for (_, value) in list.drain(..keep_from) {
                    freed += Self::history_entry_bytes(key, &value);
                }
            }
            !list.is_empty()
        });
        if freed > 0 {
            self.history_bytes = self.history_bytes.saturating_sub(freed);
            seq.sub_history_bytes(freed);
        }
    }

    /// Newest preserved version of `key` with sequence `<= pinned`
    /// (flattened: `None` for "deleted or never existed at that point").
    fn history_version_at(&self, key: &Key, pinned: u64) -> Option<Value> {
        self.history
            .get(key)
            .and_then(|list| list.iter().rev().find(|(seq, _)| *seq <= pinned))
            .and_then(|(_, value)| value.clone())
    }
}

/// Counters and clocks outside the crash model: they run for the engine's
/// lifetime, so a crash neither rewinds nor resets them.
struct Lifetime {
    /// This partition's share of the engine statistics: the entries
    /// counted under the write lock.
    stats: EngineStats,
    /// The entries `&self` paths count without it (tier read counters —
    /// also the DRAM cache's hits and misses —, the engine's degraded
    /// refusals under the *read* lock, corruption seen by scans);
    /// [`Partition::stats`] merges both.
    live: EngineStatsCells,
    /// Serial virtual time charged per DRAM cache sub-shard.
    serial: SerialTally,
    /// Foreground virtual clock in nanoseconds (atomic so `&self` reads
    /// can advance it).
    fg: AtomicU64,
    /// Virtual time at which all installed compaction work completes.
    busy_until: Nanos,
}

impl Partition {
    pub(crate) fn new(
        id: usize,
        options: Arc<Options>,
        storage: &TieredStorage,
        seq: Arc<CommitSequencer>,
    ) -> Result<Self> {
        let slab_config = SlabConfig {
            slot_sizes: options.slab_slot_sizes.clone(),
            capacity_bytes: (options.nvm_capacity_bytes / options.num_partitions as u64).max(4096),
        };
        let mut slab = SlabStore::new(slab_config, storage.nvm.clone())?;
        if let Some(plan) = &options.fault_plan {
            slab.attach_faults(plan.clone(), id);
        }
        let volatile = Volatile::new(&options, id);
        Ok(Partition {
            id,
            cpu: storage.cpu,
            nvm_dev: storage.nvm.clone(),
            flash_dev: storage.flash.clone(),
            fault: options.fault_plan.clone(),
            seq,
            durable: Durable {
                slab,
                log: SortedLog::new(),
                quarantined: HashSet::new(),
                health: PartitionHealth::Healthy,
            },
            lifetime: Lifetime {
                stats: EngineStats::default(),
                live: EngineStatsCells::default(),
                serial: SerialTally::new(volatile.cache.shard_count()),
                fg: AtomicU64::new(0),
                busy_until: Nanos::ZERO,
            },
            volatile,
            options,
        })
    }

    /// Current foreground virtual time.
    pub(crate) fn fg(&self) -> Nanos {
        Nanos::from_nanos(self.lifetime.fg.load(Ordering::Relaxed))
    }

    pub(crate) fn advance_fg(&self, cost: Nanos) {
        self.lifetime
            .fg
            .fetch_add(cost.as_nanos(), Ordering::Relaxed);
    }

    /// Chain one installed job onto the background timeline: it starts no
    /// earlier than the foreground instant that triggered it and the
    /// partition's previous job. `overlapped` jobs ran while the foreground
    /// kept being served.
    pub(crate) fn chain_background(&mut self, trigger: Nanos, duration: Nanos, overlapped: bool) {
        self.lifetime.busy_until = trigger.max(self.lifetime.busy_until) + duration;
        if overlapped {
            self.lifetime.stats.compaction.overlap_time += duration;
        }
    }

    /// The foreground stall rule: an operation standing at `now` that needs
    /// the space compaction is freeing waits until `busy_until`, and the
    /// wait is charged exactly once. Returns the stall; the caller folds it
    /// into the operation's cost (or advances the clock by it).
    pub(crate) fn stall_until_idle(&mut self, now: Nanos) -> Nanos {
        let stall = self.lifetime.busy_until.saturating_sub(now);
        self.lifetime.stats.compaction.stall_time += stall;
        stall
    }

    /// Count one write that could not proceed until compaction freed NVM
    /// space (at the back-pressure ceiling, or a slab write with no room).
    pub(crate) fn note_backpressure_stall(&mut self) {
        self.lifetime.stats.compaction.backpressure_stalls += 1;
    }

    pub(crate) fn elapsed(&self) -> Nanos {
        self.fg().max(self.lifetime.busy_until)
    }

    /// This partition's statistics: the write-lock counters merged with
    /// the live cells, plus the degraded gauge.
    pub(crate) fn stats(&self) -> EngineStats {
        let mut stats = self.lifetime.stats.merged(self.lifetime.live.snapshot());
        stats.integrity.degraded_partitions =
            (self.durable.health == PartitionHealth::Degraded) as u64;
        stats
    }

    /// Serial virtual time accumulated by this partition's busiest DRAM
    /// cache sub-shard (see [`SerialTally::busiest`]): the residual
    /// single-lock component of the read path that a threaded makespan
    /// model must keep on the critical path.
    pub(crate) fn read_serial_busiest_ns(&self) -> u64 {
        self.lifetime.serial.busiest()
    }

    /// Occupancy of this partition's DRAM cache and its traffic: a get
    /// served from DRAM is a hit, any other a miss.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let reads = self.lifetime.live.snapshot();
        let cache = &self.volatile.cache;
        CacheStats {
            hits: reads.reads_from_dram,
            misses: reads.reads_found() + reads.reads_not_found - reads.reads_from_dram,
            objects: cache.len(),
            used_bytes: cache.used_bytes(),
            shards: cache.shard_count(),
        }
    }

    // ------------------------------------------------------------------
    // Integrity, quarantine, degraded mode
    // ------------------------------------------------------------------

    /// Current health (degraded = read-only until a clean scrub pass).
    pub(crate) fn health(&self) -> PartitionHealth {
        self.durable.health
    }

    /// Count one write refused with `Degraded` (called by the engine
    /// under the partition *read* lock, hence the atomic).
    pub(crate) fn note_degraded_refusal(&self) {
        self.lifetime
            .live
            .integrity
            .degraded_write_refusals
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Number of keys currently under a quarantine sentinel.
    pub(crate) fn quarantined_len(&self) -> usize {
        self.durable.quarantined.len()
    }

    fn corruption_error(&self, key: &Key) -> PrismError {
        PrismError::Corruption(format!(
            "partition {}: key {key} failed its checksum",
            self.id
        ))
    }

    /// Record one detected checksum failure: in the live cell, so readers
    /// under the read lock and writers under the write lock count alike.
    fn note_checksum_failure(&self) {
        self.lifetime
            .live
            .integrity
            .checksum_failures
            .fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.fault {
            plan.note_detected();
        }
    }

    /// Settle a version of `key` that failed its checksum on `tier`: the
    /// one routine behind every damage path (see the module docs). The
    /// cache's entry, which writes invalidate, is the last committed value.
    pub(crate) fn resolve_damage(&mut self, key: &Key, tier: FaultTier) -> Resolution {
        self.note_checksum_failure();
        if tier == FaultTier::Flash && self.volatile.index.contains_key(key) {
            self.lifetime.stats.integrity.scrub_repairs += 1;
            return Resolution::Shadowed;
        }
        if tier == FaultTier::Nvm {
            let _ = self.free_slot(key);
        }
        if let Some(value) = self.volatile.cache.get(key) {
            let ts = self.seq.allocate();
            if let Ok(cost) = self.write_slot(key, ts, SlotWrite::Value(value)) {
                self.durable.quarantined.remove(key);
                self.lifetime.stats.integrity.scrub_repairs += 1;
                return Resolution::Repaired(cost);
            }
        }
        if self.durable.quarantined.insert(key.clone()) {
            self.lifetime.stats.integrity.quarantined_objects += 1;
        }
        self.maybe_degrade();
        Resolution::Quarantined
    }

    /// The tier where `key`'s live version is still damaged with no
    /// sentinel over it: asked under the write lock, so damage a write or
    /// another reader settled since a read tripped on it is left alone.
    pub(crate) fn damaged_tier(&self, key: &Key) -> Option<FaultTier> {
        if self.durable.quarantined.contains(key) {
            return None;
        }
        let Some(entry) = self.volatile.index.get(key) else {
            let corrupt = self.durable.log.lookup(key)?.probe(key).corrupt;
            return corrupt.then_some(FaultTier::Flash);
        };
        let slot = self.durable.slab.peek(entry.addr);
        let damaged = !entry.tombstone && slot.is_none_or(|slot| !slot.verify());
        damaged.then_some(FaultTier::Nvm)
    }

    /// The reader rule of the module docs: what a reader pinned at
    /// `pinned` sees of `key` whose live version is `live`. `Err` refuses
    /// the key: a point read surfaces it, a scan skips the key.
    fn visible_at(&self, key: &Key, live: Option<Live>, pinned: u64) -> Result<Option<Value>> {
        match live {
            _ if self.durable.quarantined.contains(key) => Err(self.corruption_error(key)),
            Some(Live::Clean(_, seq, value)) if seq <= pinned => Ok(value),
            Some(Live::Damaged(seq)) if seq.is_none_or(|seq| seq <= pinned) => {
                Err(self.corruption_error(key))
            }
            _ => Ok(self.volatile.history_version_at(key, pinned)),
        }
    }

    /// Flip into read-only degraded mode once enough objects are
    /// quarantined.
    fn maybe_degrade(&mut self) {
        if self.durable.health == PartitionHealth::Healthy
            && self.durable.quarantined.len() as u64 >= self.options.corruption_quarantine_threshold
        {
            self.durable.health = PartitionHealth::Degraded;
            self.lifetime.stats.integrity.degraded_entered += 1;
        }
    }

    /// Roll the fault plan for an injected flash read error.
    fn roll_flash_read_fault(&self) -> Result<()> {
        if let Some(plan) = &self.fault {
            if plan.roll_io_error(FaultTier::Flash, self.id, FaultOp::Read) {
                return Err(PrismError::Io(format!(
                    "injected flash read error on partition {}",
                    self.id
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn nvm_object_count(&self) -> usize {
        self.durable.slab.object_count()
    }

    pub(crate) fn flash_object_count(&self) -> usize {
        self.durable.log.total_entries()
    }

    pub(crate) fn nvm_utilization(&self) -> f64 {
        self.durable.slab.usage().utilization()
    }

    pub(crate) fn clock_histogram(&self) -> [u64; 4] {
        self.volatile.mapper.histogram()
    }

    // ------------------------------------------------------------------
    // Version history for pinned snapshots
    // ------------------------------------------------------------------

    /// The key's current visible version across both tiers: the sequence
    /// it committed at and its value (`None` = the version is a delete).
    /// Returns `None` when the key has no version anywhere.
    pub(crate) fn current_version(&self, key: &Key) -> Option<(u64, Option<Value>)> {
        if let Some(entry) = self.volatile.index.get(key).copied() {
            if entry.tombstone {
                return Some((entry.timestamp, None));
            }
            // A slot failing its checksum reads as absent here: snapshot
            // history and transaction pre-images must never capture (and
            // later re-serve) damaged bytes.
            let value = self
                .durable
                .slab
                .peek(entry.addr)
                .filter(|slot| slot.verify())
                .and_then(|slot| slot.version.value.clone());
            return Some((entry.timestamp, value));
        }
        let file = self.durable.log.lookup(key)?;
        let entry = file.probe(key).entry?;
        Some((entry.timestamp, entry.value))
    }

    /// The key's current visible value (the engine's pre-image capture
    /// for commit-log records).
    pub(crate) fn current_visible(&self, key: &Key) -> Option<Value> {
        self.current_version(key).and_then(|(_, value)| value)
    }

    /// Newest sequence at which the key changed, counting full removals
    /// that only the history buffer still remembers. Used by transaction
    /// read-set validation: a value `> snapshot` means the key changed
    /// after the snapshot was pinned.
    pub(crate) fn newest_seq(&self, key: &Key) -> Option<u64> {
        let live = self.current_version(key).map(|(seq, _)| seq);
        let hist = self
            .volatile
            .history
            .get(key)
            .and_then(|list| list.last())
            .map(|(seq, _)| *seq);
        live.into_iter().chain(hist).max()
    }

    /// Called by every write *before* it mutates the key: while snapshots
    /// are pinned, preserve the version about to be superseded so pinned
    /// readers keep seeing it. Deletes additionally record a
    /// `(delete_seq, None)` marker — the live tombstone they may write is
    /// droppable by a later compaction, and without the marker an older
    /// preserved value could wrongly resurface for snapshots pinned
    /// after the delete. With no pins the whole buffer is garbage.
    ///
    /// The pin check runs after the write's sequence was allocated, and
    /// [`CommitSequencer::pin`] reads the counter inside the same mutex
    /// the check takes, so a racing snapshot either registers first (and
    /// the version is preserved) or pins a sequence that already covers
    /// the new version (see `crate::sequence`).
    fn note_supersession(&mut self, key: &Key, delete_seq: Option<u64>) {
        if !self.seq.has_pins() {
            self.volatile.clear_history(&self.seq);
            return;
        }
        if let Some(version) = self.current_version(key) {
            self.volatile.push_history(&self.seq, key, version);
        }
        if let Some(seq) = delete_seq {
            self.volatile.push_history(&self.seq, key, (seq, None));
        }
    }

    /// Free history versions no live pin can reach (see
    /// [`Volatile::prune_history`]). Called by the engine after it
    /// force-expires a pin.
    pub(crate) fn prune_history(&mut self, oldest_pin: Option<u64>) {
        self.volatile.prune_history(&self.seq, oldest_pin);
    }

    // ------------------------------------------------------------------
    // Read-side drain
    // ------------------------------------------------------------------

    /// Apply the reads' buffered state (see [`Volatile::apply_read_side`]).
    /// Requires the write lock (`&mut self`).
    pub(crate) fn apply_read_side(&mut self) {
        self.volatile.apply_read_side();
    }

    /// Consume the pending-promotion flag (the driver turns it into a
    /// promotion request).
    pub(crate) fn take_promote_pending(&mut self) -> bool {
        std::mem::take(&mut self.volatile.promote_pending)
    }

    // ------------------------------------------------------------------
    // Client operations
    // ------------------------------------------------------------------

    /// The mutation half of a put: request overhead plus the entry. The
    /// driver wraps it (`EngineShared::write_held`) with the read-side
    /// drain before and the watermark check and [`Partition::finish_write`]
    /// after.
    pub(crate) fn put(&mut self, key: Key, value: Value, reclaim: Reclaim<'_>) -> Result<Nanos> {
        let cost = self.cpu.request_overhead;
        let ts = self.seq.allocate();
        Ok(cost + self.put_entry(key, value, ts, cost, reclaim, None)?)
    }

    /// Close a write of `ops` logical operations that cost `cost` in
    /// total: feed the read-trigger controller's read/write ratio, then
    /// advance the foreground clock.
    pub(crate) fn finish_write(&mut self, ops: usize, cost: Nanos) {
        for _ in 0..ops {
            self.volatile.observe_write_op();
        }
        self.advance_fg(cost);
    }

    /// The state mutation of one put: slab write, index update, tracker
    /// access and cache invalidation, *without* the per-operation wrapper
    /// (request overhead, read-side drain, watermark check, foreground
    /// clock advance) — shared by the single-op path and the batched
    /// group path, which pays the wrapper once per group.
    ///
    /// `accrued` is the cost the enclosing operation accumulated before
    /// this entry (it positions any forced-reclamation stall on the
    /// virtual timeline). `CapacityExceeded` is resolved by `reclaim`
    /// while the write lock stays held. With a `group` tally, the slab
    /// device write is tallied for one coalesced end-of-group charge
    /// instead of being added to the returned cost.
    fn put_entry(
        &mut self,
        key: Key,
        value: Value,
        ts: u64,
        accrued: Nanos,
        reclaim: Reclaim<'_>,
        group: Option<&mut SlabWriteTally>,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.index_op;
        let value_len = value.len() as u64;

        self.note_supersession(&key, None);
        let write = SlotWrite::Value(value);
        cost += self.write_client_slot(&key, ts, write, accrued + cost, reclaim, group)?;
        // A successful rewrite heals a quarantined key: the fresh version
        // supersedes whatever was corrupt.
        self.durable.quarantined.remove(&key);
        self.volatile.observe_access(&key, false);
        cost += self.cpu.tracker_op;
        self.volatile.cache.remove(&key);
        self.lifetime.stats.user_bytes_written += value_len;
        Ok(cost)
    }

    /// Apply one partition's sub-batch of a [`prism_types::WriteBatch`]
    /// under a single write-lock hold: one read-side drain, one request
    /// overhead, one watermark check (→ at most one compaction run /
    /// enqueue per group), and one slab write per distinct key (earlier
    /// entries superseded by a later entry for the same key are merged
    /// away; the last entry wins, exactly as sequential application would
    /// end up). The group's surviving slab writes are priced as one
    /// coalesced device submission (one access latency plus a
    /// bandwidth-limited transfer of the total slot bytes) instead of one
    /// random-write latency each — the storage-level half of the
    /// group-commit win.
    ///
    /// Because the lock is held for the whole group and
    /// `crash_and_recover` serialises on the same lock, the sub-batch is
    /// atomic with respect to readers and crash recovery: afterwards
    /// either every entry or no entry of the group is visible, never a
    /// prefix.
    ///
    /// `seq` is the group's commit sequence: the engine's cross-partition
    /// atomic commit stamps every group of one batch with the *same*
    /// sequence, so a pinned snapshot sees the whole batch or none of it.
    /// Like [`Partition::put`] this is the mutation half only.
    pub(crate) fn apply_group(
        &mut self,
        entries: Vec<BatchOp>,
        seq: u64,
        reclaim: Reclaim<'_>,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.request_overhead;
        let entry_count = entries.len() as u64;

        // A later entry for the same key supersedes an earlier one: mark
        // everything but the last occurrence per key as merged.
        let mut superseded = vec![false; entries.len()];
        if entries.len() > 1 {
            let mut seen: HashSet<&Key> = HashSet::with_capacity(entries.len());
            for (i, entry) in entries.iter().enumerate().rev() {
                if !seen.insert(entry.key()) {
                    superseded[i] = true;
                }
            }
        }

        let mut merged = 0u64;
        let mut tally = SlabWriteTally::default();
        for (i, entry) in entries.into_iter().enumerate() {
            if superseded[i] {
                merged += 1;
                // The client still logically wrote these bytes; only the
                // physical slab write is saved.
                if let BatchOp::Put(_, value) = entry {
                    self.lifetime.stats.user_bytes_written += value.len() as u64;
                }
            } else {
                cost += match entry {
                    BatchOp::Put(key, value) => {
                        self.put_entry(key, value, seq, cost, reclaim, Some(&mut tally))?
                    }
                    BatchOp::Delete(key) => {
                        self.delete_entry(&key, seq, cost, reclaim, Some(&mut tally))?
                    }
                };
            }
        }
        if tally.writes > 0 {
            // One submission for the whole group's slot writes.
            cost += self.nvm_dev.write_sequential_cost(tally.bytes);
        }

        self.lifetime.stats.batch_groups += 1;
        self.lifetime.stats.batch_entries += entry_count;
        self.lifetime.stats.batch_merged_writes += merged;
        Ok(cost)
    }

    /// The slot write of one client entry ([`Partition::write_slot`]),
    /// standing at `at` on the operation's timeline; returns what it adds
    /// to the entry's cost. With a `group` tally the device write is
    /// tallied for the group's one coalesced charge instead of returned.
    fn write_client_slot(
        &mut self,
        key: &Key,
        ts: u64,
        write: SlotWrite,
        at: Nanos,
        reclaim: Reclaim<'_>,
        group: Option<&mut SlabWriteTally>,
    ) -> Result<Nanos> {
        let value_len = write.value_len();
        let (mut cost, write_cost) = match self.write_slot(key, ts, write.clone()) {
            Ok(write_cost) => (Nanos::ZERO, write_cost),
            Err(PrismError::CapacityExceeded { .. }) => {
                // Free space with forced compactions, then retry once. The
                // entry cannot proceed until space exists, so the entire
                // wait is charged as a foreground stall here — and only
                // here (the later watermark check sees `busy_until` caught
                // up).
                let stall = reclaim(self, at)?;
                (stall, self.write_slot(key, ts, write)?)
            }
            Err(err) => return Err(err),
        };
        match group {
            Some(tally) => {
                tally.writes += 1;
                tally.bytes += self.durable.slab.slot_bytes_for(value_len)?;
            }
            None => cost += write_cost,
        }
        Ok(cost)
    }

    /// The live version of `key` below the DRAM cache, adding what finding
    /// it cost to `cost`. The NVM index decides first; only a key it does
    /// not know goes to flash, whose SST index and bloom filter live on
    /// NVM. A damaged version is returned as such, for the caller's rule
    /// to judge; only an injected I/O error fails the probe.
    fn probe_tiers(&self, key: &Key, cost: &mut Nanos) -> Result<Option<Live>> {
        if let Some(entry) = self.volatile.index.get(key).copied() {
            let ts = entry.timestamp;
            if entry.tombstone {
                return Ok(Some(Live::Clean(ReadSource::Nvm, ts, None)));
            }
            let live = match self.durable.slab.read(entry.addr) {
                Ok((slot, read_cost)) => {
                    *cost += read_cost;
                    Live::Clean(ReadSource::Nvm, ts, slot.version.value.clone())
                }
                Err(PrismError::Corruption(_)) => Live::Damaged(Some(ts)),
                Err(err) => return Err(err),
            };
            return Ok(Some(live));
        }
        *cost += self.cpu.bloom_probe;
        let Some(file) = self.durable.log.lookup(key) else {
            return Ok(None);
        };
        self.roll_flash_read_fault()?;
        let probe = file.probe(key);
        if probe.may_contain {
            *cost += self.nvm_dev.read_random(512);
            if probe.data_block_bytes > 0 {
                *cost += self.flash_dev.read_random(probe.data_block_bytes);
            }
        }
        if probe.corrupt {
            self.note_checksum_failure();
            return Ok(Some(Live::Damaged(None)));
        }
        Ok(probe
            .entry
            .map(|entry| Live::Clean(ReadSource::Flash, entry.timestamp, entry.value)))
    }

    /// Point lookup without the drain-pressure signal (the engine always
    /// wants both; unit tests usually just want the lookup).
    #[cfg(test)]
    pub(crate) fn get(&self, key: &Key) -> Result<Lookup> {
        Ok(self.get_with_pressure(key)?.0)
    }

    /// Point lookup, also reporting whether enough read-side state has
    /// accumulated that the engine should take the write lock and drain it
    /// (structural tracker admissions, or a due promotion compaction).
    ///
    /// The hot path acquires no partition-wide mutex: the DRAM cache probe
    /// locks only the key's cache sub-shard, the index probe is the hash
    /// directory's `O(1)` fast path, popularity is re-heated with an atomic
    /// clock swap, and every counter (including the pressure inputs) is an
    /// atomic. Only a read of a key the tracker has never seen touches the
    /// read-side buffer mutex, to queue the structural admission.
    pub(crate) fn get_with_pressure(&self, key: &Key) -> Result<(Lookup, bool)> {
        // A quarantined key fails before any tier is consulted: an older
        // clean version on flash must never shadow the corrupt one.
        if self.durable.quarantined.contains(key) {
            return Err(self.corruption_error(key));
        }
        let mut cost = self.cpu.request_overhead + self.cpu.index_op;
        let mut source = ReadSource::NotFound;
        let mut value: Option<Value> = None;

        // The cache probe (and a later fill) is the read's only serial
        // section: charge its virtual time to the key's sub-shard so the
        // threaded makespan model sees exactly how much of the read path
        // still serialises per sub-shard. The critical section is the whole
        // probe — the hash lookup (`index_op`) and the LRU splice plus value
        // copy (`dram_hit`) both run under the sub-shard lock — so the
        // charge is their sum, not just the copy.
        let cache_serial = (self.cpu.index_op + self.cpu.dram_hit).as_nanos();
        let shard = self.volatile.cache.shard_of(key);
        let cached = self.volatile.cache.get(key);
        self.lifetime.serial.charge(shard, cache_serial);
        if let Some(cached) = cached {
            cost += self.cpu.dram_hit;
            source = ReadSource::Dram;
            value = Some(cached);
        } else {
            match self.probe_tiers(key, &mut cost)? {
                Some(Live::Clean(tier, _, Some(found))) => {
                    source = tier;
                    self.volatile.cache.insert(key.clone(), found.clone());
                    self.lifetime.serial.charge(shard, cache_serial);
                    value = Some(found);
                }
                // A live read is pinned at now, which covers any version.
                Some(Live::Damaged(_)) => return Err(self.corruption_error(key)),
                _ => {}
            }
        }

        let live = &self.lifetime.live;
        match source {
            ReadSource::Dram => live.reads_from_dram.fetch_add(1, Ordering::Relaxed),
            ReadSource::Nvm => live.reads_from_nvm.fetch_add(1, Ordering::Relaxed),
            ReadSource::Flash => live.reads_from_flash.fetch_add(1, Ordering::Relaxed),
            ReadSource::NotFound => live.reads_not_found.fetch_add(1, Ordering::Relaxed),
        };
        let volatile = &self.volatile;
        let counters = &volatile.read_counters;
        if value.is_some() {
            // The popularity update's CPU cost belongs to this read either
            // way; which path applies it depends on whether the tracker
            // already knows the key.
            cost += self.cpu.tracker_op;
            let on_flash = source == ReadSource::Flash;
            match volatile.tracker.touch(key, on_flash) {
                // Tracked: the clock byte was atomically re-heated to the
                // maximum; fold the class transition into the histogram.
                // The key's popularity bit is already set (it was set when
                // the key entered the tracker and only eviction clears it),
                // so no bucket-map update is needed.
                Some(old) => volatile.mapper.promote_to_max(old),
                // Untracked: admission may evict another key — structural
                // work for the next write-lock holder.
                None => {
                    let mut rs = volatile.lock_read_side();
                    rs.push((key.clone(), on_flash));
                    counters
                        .pending_accesses
                        .store(rs.len() as u64, Ordering::Relaxed);
                }
            }
        }
        counters.reads.fetch_add(1, Ordering::Relaxed);
        match source {
            ReadSource::Nvm => {
                counters.nvm_hits.fetch_add(1, Ordering::Relaxed);
            }
            ReadSource::Flash => {
                counters.flash_hits.fetch_add(1, Ordering::Relaxed);
                counters
                    .flash_reads_since_promotion
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let pressure = volatile.read_pressure();
        self.advance_fg(cost);
        Ok((
            Lookup {
                value,
                latency: cost,
                source,
            },
            pressure,
        ))
    }

    /// The mutation half of a delete (see [`Partition::put`]).
    pub(crate) fn delete(&mut self, key: &Key, reclaim: Reclaim<'_>) -> Result<Nanos> {
        let cost = self.cpu.request_overhead;
        let ts = self.seq.allocate();
        Ok(cost + self.delete_entry(key, ts, cost, reclaim, None)?)
    }

    /// The state mutation of one delete (see [`Partition::put_entry`] for
    /// the wrapper/entry split and the `accrued` / `reclaim` / `group`
    /// contract).
    fn delete_entry(
        &mut self,
        key: &Key,
        ts: u64,
        accrued: Nanos,
        reclaim: Reclaim<'_>,
        group: Option<&mut SlabWriteTally>,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.index_op;

        self.note_supersession(key, Some(ts));
        // Does any version of this key exist on flash? A corrupt flash
        // record counts: it must be tombstone-shadowed too, or reads
        // after the delete would keep tripping on it.
        cost += self.cpu.bloom_probe;
        let on_flash = self
            .durable
            .log
            .lookup(key)
            .map(|file| {
                let probe = file.probe(key);
                probe.entry.is_some() || probe.corrupt
            })
            .unwrap_or(false);

        // Free the key's current NVM slot whether it holds a value or an
        // old tombstone: deleting an already-tombstoned key must not orphan
        // the previous tombstone slot, or a recovery slab scan could later
        // resurrect it and shadow a newer flash version (a fresh tombstone
        // is re-written below if a flash version still needs shadowing).
        self.free_slot(key)?;

        if on_flash {
            // Write a tombstone to NVM so the flash version is hidden until
            // a compaction merges and drops both.
            let write = SlotWrite::Version(Version::tombstone(ts));
            cost += self.write_client_slot(key, ts, write, accrued + cost, reclaim, group)?;
        }

        // A delete supersedes a quarantined version: the key is now
        // legitimately absent (or tombstoned), not corrupt.
        self.durable.quarantined.remove(key);
        self.volatile.cache.remove(key);
        Ok(cost)
    }

    /// Point lookup as of a pinned snapshot sequence: the live version if
    /// it committed at or before `pinned`, otherwise the newest preserved
    /// version at `pinned` (see [`Partition::visible_at`] for damage).
    /// Bypasses the DRAM cache (which only tracks the latest version) and
    /// buffers no read-side state — snapshot reads must not perturb
    /// popularity tracking.
    pub(crate) fn snapshot_get(&self, key: &Key, pinned: u64) -> Result<(Option<Value>, Nanos)> {
        // Refused before any tier is read, as a live get is.
        if self.durable.quarantined.contains(key) {
            return Err(self.corruption_error(key));
        }
        let mut cost = self.cpu.request_overhead + self.cpu.index_op;
        let live = self.probe_tiers(key, &mut cost)?;
        let value = self.visible_at(key, live, pinned)?;
        self.advance_fg(cost);
        Ok((value, cost))
    }

    /// Advance one partition's part of a scan as of a pinned snapshot
    /// sequence: a lazy three-way merge of the NVM index, the flash log
    /// and the history buffer (keys whose only `<= pinned` version was
    /// superseded may live nowhere else), resumed at `cursor`'s frontier.
    /// Appends to `out`, in key order, each visible entry with a key
    /// `<= bound` (every remaining one when `None`) until `out` holds
    /// `limit`, then parks the frontier on the first key not examined.
    /// A record is read — checksum verified, value shared, bytes counted
    /// towards [`Partition::scan_charge`] — only when its key is taken.
    /// Takes `&self` under a single partition read lock.
    pub(crate) fn scan_pull(
        &self,
        cursor: &mut ScanCursor,
        bound: Option<&Key>,
        pinned: u64,
        limit: usize,
        out: &mut Vec<(Key, Value)>,
    ) {
        let Some(start) = cursor.frontier.take() else {
            return;
        };
        let mut nvm = self.volatile.index.range_from(&start).peekable();
        let mut flash = self.durable.log.resume(cursor.flash.take(), &start);
        let mut hist = self.volatile.history.range::<Key, _>(&start..).peekable();
        loop {
            let on_flash = self.durable.log.entry_at(&mut flash);
            let heads = [
                nvm.peek().map(|(k, _)| *k),
                on_flash.map(|e| &e.0),
                hist.peek().map(|(k, _)| *k),
            ];
            let Some(key) = heads.into_iter().flatten().min() else {
                return;
            };
            if out.len() >= limit || bound.is_some_and(|b| key > b) {
                // Every flash entry taken so far was below `key` and the
                // flash head is not: `flash` is where a seek of the new
                // frontier would land.
                cursor.frontier = Some(key.clone());
                cursor.flash = Some(flash);
                return;
            }
            cursor.resolved += 1;

            // Live version at this key: NVM wins over flash. A damaged one
            // is counted here and judged by the reader rule below.
            let mut live = None;
            let on_nvm = nvm.next_if(|(k, _)| *k == key);
            if let Some((_, entry)) = on_nvm {
                let ts = entry.timestamp;
                if entry.tombstone {
                    live = Some(Live::Clean(ReadSource::Nvm, ts, None));
                } else if let Some(slot) = self.durable.slab.peek(entry.addr) {
                    live = Some(if slot.verify() {
                        cursor.nvm_reads += 1;
                        Live::Clean(ReadSource::Nvm, ts, slot.version.value.clone())
                    } else {
                        self.note_checksum_failure();
                        Live::Damaged(Some(ts))
                    });
                }
            }
            if let Some((_, entry)) = on_flash.filter(|e| &e.0 == key) {
                flash.advance();
                if on_nvm.is_none() {
                    live = Some(if entry.verify() {
                        if let Some(v) = &entry.value {
                            cursor.flash_bytes += (v.len() + key.len()) as u64;
                        }
                        Live::Clean(ReadSource::Flash, entry.timestamp, entry.value.clone())
                    } else {
                        self.note_checksum_failure();
                        Live::Damaged(None)
                    });
                }
            }
            hist.next_if(|(k, _)| *k == key);

            // A refused key is skipped, never served from an older version.
            if let Ok(Some(value)) = self.visible_at(key, live, pinned) {
                out.push((key.clone(), value));
                cursor.emitted += 1;
            }
        }
    }

    /// Charge a finished scan for what `cursor` consumed here, once per
    /// partition per scan however many pulls it took: the request and the
    /// index seek, the NVM pages (four values to a page) and one
    /// sequential flash read of the record bytes taken, and the merge CPU
    /// per entry emitted.
    pub(crate) fn scan_charge(&self, cursor: &ScanCursor) -> Nanos {
        let mut cost = self.cpu.request_overhead + self.cpu.index_op;
        if cursor.nvm_reads > 0 {
            cost += self
                .nvm_dev
                .read_random(4096 * cursor.nvm_reads.div_ceil(4));
        }
        if cursor.flash_bytes > 0 {
            cost += self.flash_dev.read_sequential(cursor.flash_bytes);
        }
        cost += self.cpu.merge_per_object * cursor.emitted;
        self.lifetime
            .live
            .scan_entries_resolved
            .fetch_add(cursor.resolved, Ordering::Relaxed);
        self.lifetime
            .live
            .scan_entries_returned
            .fetch_add(cursor.emitted, Ordering::Relaxed);
        self.advance_fg(cost);
        cost
    }

    // ------------------------------------------------------------------
    // Compaction: planning
    // ------------------------------------------------------------------

    /// Candidate compaction key ranges: the key ranges of consecutive SST
    /// file windows, extended at both ends to cover NVM keys outside any
    /// flash file.
    fn candidate_ranges(&self) -> Vec<(Key, Key)> {
        if self.durable.log.is_empty() {
            if self.volatile.index.is_empty() {
                return Vec::new();
            }
            return vec![(Key::min(), Key::from_id(u64::MAX))];
        }
        let fences = self.durable.log.fences();
        let width = self.options.compaction.range_width_files.max(1);
        let mut ranges = Vec::new();
        // Chain the ranges so together they cover the entire key space:
        // NVM keys that fall in the gap between two flash files belong to
        // the range on their left and can still be demoted.
        let mut prev_end = Key::min();
        let mut i = 0;
        while i < fences.len() {
            let window_end = (i + width).min(fences.len());
            let start = prev_end.clone();
            let end = if window_end >= fences.len() {
                Key::from_id(u64::MAX)
            } else {
                fences[window_end - 1].clone()
            };
            prev_end = end.clone();
            ranges.push((start, end));
            i = window_end;
        }
        ranges
    }

    /// Score one candidate range according to the configured policy, adding
    /// the planning CPU time to `planning_cost`.
    fn score_candidate(&self, start: &Key, end: &Key, planning_cost: &mut Nanos) -> f64 {
        match self.options.compaction.policy {
            CompactionPolicy::Random => 0.0,
            CompactionPolicy::ApproxMsc => {
                *planning_cost += self.cpu.index_op;
                let stats = self.volatile.buckets.estimate(start.id(), end.id(), 0.25);
                msc_score(&stats)
            }
            CompactionPolicy::PreciseMsc => {
                let mut builder = RangeStatsBuilder::new();
                let tracked = self.volatile.tracker.len();
                for (key, _entry) in self
                    .volatile
                    .index
                    .range_from(start)
                    .take_while(|(k, _)| *k <= end)
                {
                    let clock = self.volatile.tracker.clock_of(key);
                    let pinned = matches!(
                        self.volatile.mapper.pin_decision(
                            clock,
                            self.options.pinning_threshold,
                            tracked
                        ),
                        PinDecision::Pin
                    );
                    builder.add_nvm_object(clock, pinned);
                }
                for file in self.durable.log.overlapping(start, end) {
                    for (key, _) in file.range(start, end) {
                        builder.add_flash_object(self.volatile.index.contains_key(key));
                    }
                }
                *planning_cost += self.cpu.merge_per_object * builder.objects_examined();
                msc_score(&builder.build())
            }
        }
    }

    /// Plan a demotion compaction: pick the best-scoring candidate range
    /// (or, for [`DemotionPlan::Everything`], the whole key space) and
    /// clone its victim state into a `Send` job. Requires the write lock;
    /// returns `None` when there is nothing to compact.
    pub(crate) fn plan_demotion(
        &mut self,
        plan: DemotionPlan,
        trigger_fg: Nanos,
    ) -> Option<CompactionJob> {
        let force = plan != DemotionPlan::Natural;
        let kind = JobKind::Demotion { force };
        if plan == DemotionPlan::Everything {
            // Sampled candidates may all have been empty of NVM objects:
            // compact the whole key space once, ignoring popularity.
            let (start, end) = (Key::min(), Key::from_id(u64::MAX));
            return self.plan_range(start, end, kind, false, Nanos::ZERO, trigger_fg);
        }
        let candidates = self.candidate_ranges();
        if candidates.is_empty() {
            return None;
        }
        let picked = self
            .volatile
            .planner
            .pick_candidate_indices(candidates.len());
        let mut planning_cost = Nanos::ZERO;
        let scored: Vec<(usize, f64)> = picked
            .iter()
            .map(|&i| {
                (
                    i,
                    self.score_candidate(&candidates[i].0, &candidates[i].1, &mut planning_cost),
                )
            })
            .collect();
        let best = self.volatile.planner.select_best(&scored)?;
        let (start, end) = candidates[best].clone();
        // Without a read trigger nothing is promoted, by hint or by job.
        let allow_promote = self.volatile.read_trigger.is_some();
        self.plan_range(start, end, kind, allow_promote, planning_cost, trigger_fg)
    }

    /// Plan a promotion compaction over the range with the most popular
    /// flash-only objects. Requires the write lock; returns `None` when no
    /// range would promote anything.
    pub(crate) fn plan_promotion(&mut self, trigger_fg: Nanos) -> Option<CompactionJob> {
        if self.durable.log.is_empty() {
            return None;
        }
        let candidates = self.candidate_ranges();
        let picked = self
            .volatile
            .planner
            .pick_candidate_indices(candidates.len());
        let scored: Vec<(usize, f64)> = picked
            .iter()
            .map(|&i| {
                let (start, end) = &candidates[i];
                (
                    i,
                    self.volatile
                        .buckets
                        .popular_flash_only_objects(start.id(), end.id()),
                )
            })
            .collect();
        let best = scored
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| *i)?;
        let (start, end) = candidates[best].clone();
        self.plan_range(
            start,
            end,
            JobKind::Promotion,
            true,
            Nanos::ZERO,
            trigger_fg,
        )
    }

    /// Clone the victim state of `[start, end]` into a self-contained
    /// [`CompactionJob`]: the NVM objects to demote (with values), the
    /// overlapping SST files, and promotion hints for popular flash-only
    /// objects.
    fn plan_range(
        &mut self,
        start: Key,
        end: Key,
        kind: JobKind,
        allow_promote: bool,
        planning_cost: Nanos,
        trigger_fg: Nanos,
    ) -> Option<CompactionJob> {
        let force = matches!(kind, JobKind::Demotion { force: true });
        let tracked = self.volatile.tracker.len();
        let pin_threshold = self.options.pinning_threshold;

        // Select the NVM objects to demote (unpopular ones, or everything
        // in forced mode). Tombstones always participate so they can be
        // merged away.
        let in_range: Vec<(Key, IndexEntry)> = self
            .volatile
            .index
            .range_from(&start)
            .take_while(|(k, _)| *k <= &end)
            .map(|(k, e)| (k.clone(), *e))
            .collect();
        let mut demote: Vec<DemoteEntry> = Vec::new();
        for (key, entry) in in_range {
            let pinned = if force || entry.tombstone {
                false
            } else {
                let clock = self.volatile.tracker.clock_of(&key);
                let decision = self
                    .volatile
                    .mapper
                    .pin_decision(clock, pin_threshold, tracked);
                decision.should_pin(self.volatile.planner.draw())
            };
            if !pinned {
                // The index points at a missing slot: nothing to demote.
                let Some(slot) = self.durable.slab.peek(entry.addr) else {
                    continue;
                };
                // Unverified: a damaged value moves with the checksum it
                // fails, and is caught on flash where it is next read.
                let version = slot.version.clone();
                debug_assert_eq!(version.timestamp, entry.timestamp, "{key:?}");
                demote.push(DemoteEntry { key, version });
            }
        }

        let files = self.durable.log.overlapping(&start, &end);
        if demote.is_empty() && files.is_empty() {
            return None;
        }

        let mut promote_hints: HashSet<u64> = HashSet::new();
        if allow_promote {
            for file in &files {
                for (key, entry) in file.iter() {
                    if entry.is_tombstone() || self.volatile.index.contains_key(key) {
                        continue;
                    }
                    let pin = matches!(
                        self.volatile.mapper.pin_decision(
                            self.volatile.tracker.clock_of(key),
                            pin_threshold,
                            tracked
                        ),
                        PinDecision::Pin
                    );
                    if pin {
                        promote_hints.insert(key.id());
                    }
                }
            }
        }

        Some(CompactionJob {
            partition: self.id,
            generation: self.durable.log.generation(),
            kind,
            trigger_fg,
            demote,
            files,
            promote_hints,
            planning_cost,
        })
    }

    // ------------------------------------------------------------------
    // Compaction: installation
    // ------------------------------------------------------------------

    /// True if the live index still carries exactly the planned version of
    /// `key` (foreground writes between plan and install bump the
    /// timestamp or remove the entry).
    fn entry_current(&self, key: &Key, timestamp: u64) -> bool {
        self.volatile
            .index
            .get(key)
            .map(|e| e.timestamp == timestamp)
            .unwrap_or(false)
    }

    /// Install an executed compaction: re-validate every NVM-origin output
    /// against the live index, apply promotions, write the output files
    /// and swap them into the log atomically (with respect to the
    /// partition lock).
    ///
    /// Persist order, so that a power cut between any two steps loses no
    /// acknowledged write: (1) [`Partition::write_slot`] writes each
    /// promoted version to a slot, (2) [`Partition::swap_files`] writes
    /// the output files and (3) swaps them in — the commit point, after
    /// which the log answers every demoted key — and frees the replaced
    /// files no reader holds, (4) [`Partition::free_slot`] frees each
    /// demoted slot. Before (3) the old files
    /// still hold every promoted version and the slots every demoted one;
    /// between (3) and (4) a version sits on both tiers, and recovery keeps
    /// the slot's. The flash bits follow the two file lists at (3): a
    /// promoted key and a version that lost its race with a foreground
    /// write leave flash with the retired files.
    ///
    /// Returns `Ok(None)` when the job is discarded: the sorted log has
    /// installed since the plan (another job, or crash recovery), so the
    /// files the merge read may no longer be the ones it would replace.
    /// Discarding is always safe — execution never mutated partition
    /// state, so the partition simply remains in its pre-job state.
    pub(crate) fn install_compaction(
        &mut self,
        exec: ExecutedJob,
    ) -> Result<Option<CompactionOutcome>> {
        if exec.generation != self.durable.log.generation() {
            return Ok(None);
        }

        let mut duration = exec.duration;
        let mut flash_time = exec.flash_time;
        let mut promoted = 0u64;
        let nvm_headroom = self.options.low_watermark;
        let mut out: Vec<(Key, SstEntry)> = Vec::with_capacity(exec.merged.len());

        for m in exec.merged {
            match m.origin {
                MergedOrigin::Nvm { timestamp } => {
                    // A foreground write (update or delete) between plan
                    // and install supersedes the demoted version: drop it
                    // so a stale value can never resurface from flash.
                    if self.entry_current(&m.key, timestamp) {
                        out.push((m.key, m.version));
                    }
                }
                MergedOrigin::Flash { promote } => {
                    let promotable = promote
                        && !self.volatile.index.contains_key(&m.key)
                        && self.durable.slab.usage().utilization() < nvm_headroom;
                    if promotable {
                        // A promotion moves the *same logical version*
                        // between tiers, so it keeps the flash entry's
                        // commit sequence: a fresh sequence would hide
                        // the key from snapshots pinned before the
                        // promotion. Safe to reuse — the key has no NVM
                        // entry (checked above) and later foreground
                        // writes allocate strictly larger sequences. Its
                        // checksum comes along too, so a record damaged on
                        // flash fails in its slot.
                        debug_assert!(!m.version.is_tombstone(), "hints never mark tombstones");
                        let write = SlotWrite::Version(m.version.clone());
                        match self.write_slot(&m.key, m.version.timestamp, write) {
                            Ok(cost) => {
                                duration += cost;
                                self.volatile.tracker.set_location(&m.key, false);
                                promoted += 1;
                            }
                            Err(PrismError::CapacityExceeded { .. }) => {
                                out.push((m.key, m.version));
                            }
                            Err(err) => return Err(err),
                        }
                    } else {
                        out.push((m.key, m.version));
                    }
                }
            }
        }

        // The commit point: from here on the log answers every demoted key.
        let write_cost = self.swap_files(&exec.old_file_ids, out);
        duration += write_cost;
        flash_time += write_cost;

        // Demoted keys leave NVM — but only the exact planned version; a
        // key rewritten by the foreground since planning stays put.
        let mut demoted = 0u64;
        for (key, timestamp, tombstone) in &exec.demote {
            if !self.entry_current(key, *timestamp) {
                continue;
            }
            debug_assert!(
                {
                    let log = &self.durable.log;
                    let held = log.lookup(key).and_then(|file| file.range(key, key).next());
                    held.map_or(*tombstone, |(_, record)| record.timestamp == *timestamp)
                },
                "partition {}: the slot of {key:?} is freed before the log holds its version",
                self.id
            );
            self.free_slot(key)?;
            if !tombstone {
                self.volatile.tracker.set_location(key, true);
                demoted += 1;
            }
        }

        let outcome = CompactionOutcome {
            duration,
            flash_time,
            demoted,
            promoted,
        };
        self.record_compaction(&outcome);
        Ok(Some(outcome))
    }

    fn record_compaction(&mut self, outcome: &CompactionOutcome) {
        if outcome.duration.is_zero() {
            return;
        }
        self.lifetime.stats.compaction.jobs += 1;
        self.lifetime.stats.compaction.total_time += outcome.duration;
        self.lifetime.stats.compaction.slow_tier_time += outcome.flash_time;
        self.lifetime.stats.compaction.fast_tier_time +=
            outcome.duration.saturating_sub(outcome.flash_time);
        self.lifetime.stats.compaction.demoted_objects += outcome.demoted;
        self.lifetime.stats.compaction.promoted_objects += outcome.promoted;
    }

    // ------------------------------------------------------------------
    // Persist surface
    // ------------------------------------------------------------------

    /// Write `key`'s version `ts` to its slot and point the index at it:
    /// over a live value in place (the slab moves it if its size class
    /// changes), otherwise into a fresh slot, freeing a tombstone slot it
    /// replaces only after the write succeeded, so a failed write leaves
    /// the index pointing at a live slot. A key new to the index sets its
    /// NVM bit. Returns the device write's cost.
    fn write_slot(&mut self, key: &Key, ts: u64, write: SlotWrite) -> Result<Nanos> {
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
                    SlotWrite::Scanned { addr, .. } => (addr, Nanos::ZERO),
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
    fn free_slot(&mut self, key: &Key) -> Result<()> {
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
    fn swap_files(&mut self, retired: &[FileId], records: Vec<(Key, SstEntry)>) -> Nanos {
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

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Simulate a crash followed by recovery. The crash drops the whole
    /// [`Volatile`] part; recovery installs an empty one and rebuilds it
    /// from the [`Durable`] part: the index from a scan of the NVM slabs,
    /// keeping only the newest timestamp per key, and the bucket map from
    /// that scan plus the sorted log's files. The [`Lifetime`] part carries
    /// on. Recovery re-installs the surviving file list, so the log takes
    /// a new generation: any in-flight background compaction job is
    /// thereby aborted (its install is a no-op), and since execution never
    /// mutates partition state the partition recovers to exactly its last
    /// installed state. Returns the simulated recovery time.
    pub(crate) fn crash_and_recover(&mut self) -> Nanos {
        // What DRAM held goes before the scan below allocates, so a lost
        // index and a rebuilt one are never held together. Its history's
        // bytes leave the sequencer's total: snapshots pinned across a
        // crash lose their preserved versions (a snapshot read may then
        // see a key as absent, never a stale value — live versions with
        // `seq <= pinned` are by definition the pinned-time state). Debug
        // builds keep the lost index, to check the rebuilt one against it.
        let fresh = Volatile::new(&self.options, self.id);
        let Volatile {
            index: lost_index,
            history_bytes,
            ..
        } = std::mem::replace(&mut self.volatile, fresh);
        let lost_index = cfg!(debug_assertions).then_some(lost_index);
        self.seq.sub_history_bytes(history_bytes);
        self.swap_files(&[], Vec::new());

        let cost = self.durable.slab.recovery_scan_cost();
        // First pass: verify every slot. A key with *any* corrupt slot is
        // quarantined whole — a corrupt slot's timestamp cannot be
        // trusted, so newest-version selection among its siblings could
        // resurrect a superseded value. Recovery quarantines; it never
        // guesses.
        let slab = &self.durable.slab;
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
        // The lost index and the slabs must agree on every clean key: the
        // same keys, each at the same slot, version and kind. A slot the
        // index forgot would otherwise come back here as a live version.
        if let Some(lost) = lost_index {
            let mut unmatched = newest.len();
            for (key, entry) in lost.range_from(&Key::min()) {
                if !corrupt_keys.contains(key) {
                    let id = self.id;
                    assert_eq!(newest.get(key), Some(entry), "partition {id}: {key:?}");
                    unmatched -= 1;
                }
            }
            assert_eq!(unmatched, 0, "partition {}: slots no index held", self.id);
        }
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
            let (addr, tombstone) = (entry.addr, entry.tombstone);
            let scanned = SlotWrite::Scanned { addr, tombstone };
            self.write_slot(&key, entry.timestamp, scanned)
                .expect("indexing a slot the scan found writes nothing");
        }
        // The cache is empty now, so no damage is repaired: a damaged slot
        // quarantines its key, a damaged record unless a slot hides it.
        for key in corrupt {
            self.resolve_damage(&key, FaultTier::Nvm);
        }
        // Every record holds flash until a merge or a scrub drops it, a
        // damaged one included: the install that wrote it set its bit.
        let mut flash_corrupt: Vec<Key> = Vec::new();
        for (key, entry) in self.durable.log.iter() {
            self.volatile.buckets.on_flash_insert(key.id());
            if !entry.verify() {
                flash_corrupt.push(key.clone());
            }
        }
        for key in flash_corrupt {
            self.resolve_damage(&key, FaultTier::Flash);
        }
        // The threshold counts durable sentinels: a partition a clean scrub
        // re-armed over as many as it allows degrades again.
        self.maybe_degrade();
        // The commit clock is rebuilt from the largest persisted
        // sequence; it never moves backwards, so sequences are not
        // reused even when flash holds later versions than the slabs.
        self.seq.advance_past(max_ts);
        self.advance_fg(cost);
        cost
    }

    // ------------------------------------------------------------------
    // Scrubbing
    // ------------------------------------------------------------------

    /// One budget-bounded scrub pass: verify NVM slots in index order,
    /// then flash files in key order, handing each corrupt object to
    /// [`Partition::resolve_damage`]. Files containing corrupt records are
    /// rewritten without them, so a later pass over the same data comes
    /// back clean. A completed pass that found no corruption re-arms a
    /// degraded partition.
    pub(crate) fn scrub_pass(&mut self, budget_bytes: u64) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut budget = budget_bytes.max(1);
        let mut cost = Nanos::ZERO;
        let mut cursor = self
            .volatile
            .scrub_cursor
            .take()
            .unwrap_or(ScrubCursor::Nvm(Key::min()));

        if let ScrubCursor::Nvm(start) = cursor.clone() {
            let mut corrupt: Vec<Key> = Vec::new();
            let mut resume: Option<Key> = None;
            let mut nvm_bytes = 0u64;
            for (key, entry) in self.volatile.index.range_from(&start) {
                if budget == 0 {
                    resume = Some(key.clone());
                    break;
                }
                report.examined += 1;
                // A dangling index entry counts as corrupt.
                let slot = self.durable.slab.peek(entry.addr);
                if slot.is_none_or(|slot| !slot.verify()) {
                    corrupt.push(key.clone());
                }
                let slot_bytes = slot.map_or(0, |slot| slot.version.value_len() as u64) + 64;
                nvm_bytes += slot_bytes;
                report.examined_bytes += slot_bytes;
                budget = budget.saturating_sub(slot_bytes);
            }
            if nvm_bytes > 0 {
                cost += self.nvm_dev.read_sequential(nvm_bytes);
            }
            for key in corrupt {
                cost += report.note(self.resolve_damage(&key, FaultTier::Nvm));
            }
            match resume {
                Some(key) => {
                    return self.finish_scrub_pass(report, cost, Some(ScrubCursor::Nvm(key)));
                }
                None => cursor = ScrubCursor::Flash(Key::min()),
            }
        }

        let ScrubCursor::Flash(start) = cursor else {
            unreachable!("the NVM phase either returned or advanced the cursor to flash");
        };
        // Snapshot the file set: rebuilds below swap files out of the
        // log mid-walk.
        let files: Vec<Arc<SstFile>> = self
            .durable
            .log
            .files()
            .iter()
            .filter(|f| f.min_key() >= &start)
            .cloned()
            .collect();
        for file in files {
            if budget == 0 {
                return self.finish_scrub_pass(
                    report,
                    cost,
                    Some(ScrubCursor::Flash(file.min_key().clone())),
                );
            }
            let bytes = file.size_bytes();
            report.examined += file.iter().count() as u64;
            report.examined_bytes += bytes;
            budget = budget.saturating_sub(bytes);
            cost += self.flash_dev.read_sequential(bytes);
            let corrupt = file.corrupt_keys();
            if corrupt.is_empty() {
                continue;
            }
            // Rewrite the file without its corrupt records so the next
            // pass over this range comes back clean.
            let keep: Vec<(Key, SstEntry)> =
                file.iter().filter(|(_, e)| e.verify()).cloned().collect();
            let old_id = file.id();
            // The walk lets go of the old file first, so it is freed now.
            drop(file);
            cost += self.swap_files(&[old_id], keep);
            // Leaving a shadowed record out of the new file repairs it.
            for key in corrupt {
                cost += report.note(self.resolve_damage(&key, FaultTier::Flash));
            }
        }
        self.finish_scrub_pass(report, cost, None)
    }

    /// Book-keep the end of a scrub pass: park (or clear) the resume
    /// cursor, charge the IO to the partition's background timeline, and
    /// re-arm a degraded partition after a completed clean pass.
    fn finish_scrub_pass(
        &mut self,
        mut report: ScrubReport,
        cost: Nanos,
        cursor: Option<ScrubCursor>,
    ) -> ScrubReport {
        report.completed = cursor.is_none();
        self.volatile.scrub_cursor = cursor;
        if !cost.is_zero() {
            self.chain_background(self.fg(), cost, false);
        }
        if report.completed {
            self.lifetime.stats.integrity.scrub_passes += 1;
            if report.corrupt_found == 0 {
                self.lifetime.stats.integrity.scrub_clean_passes += 1;
                if self.durable.health == PartitionHealth::Degraded {
                    self.durable.health = PartitionHealth::Healthy;
                    self.lifetime.stats.integrity.degraded_recovered += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineShared;
    use prism_compaction::execute_job;
    use prism_storage::DeviceProfile;
    use std::sync::RwLockWriteGuard;

    fn small_options(keys: u64) -> Options {
        let mut options = Options::scaled_default(keys);
        options.num_partitions = 1;
        options.compaction.bucket_size_keys = 256;
        options.sst_target_bytes = 32 * 1024;
        options
    }

    /// A one-partition engine state: a partition never compacts by itself,
    /// so the tests below write through the engine's compaction driver
    /// ([`put`] / [`delete`]) exactly as `PrismDb` does.
    fn engine(keys: u64) -> EngineShared {
        let options = small_options(keys);
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(options.nvm_capacity_bytes),
            DeviceProfile::qlc_flash(options.flash_capacity_bytes),
        );
        EngineShared::new(options, storage).unwrap()
    }

    fn partition(engine: &EngineShared) -> RwLockWriteGuard<'_, Partition> {
        engine.write_partition(0)
    }

    fn put(engine: &EngineShared, p: &mut Partition, key: Key, value: Value) -> Result<Nanos> {
        engine.write_held(0, p, 1, |p, reclaim| p.put(key, value, reclaim))
    }

    fn delete(engine: &EngineShared, p: &mut Partition, key: &Key) -> Result<Nanos> {
        engine.write_held(0, p, 1, |p, reclaim| p.delete(key, reclaim))
    }

    #[test]
    fn put_get_roundtrip_served_from_nvm_then_dram() {
        let engine = engine(1000);
        let mut p = partition(&engine);
        put(&engine, &mut p, Key::from_id(1), Value::filled(500, 7)).unwrap();
        // First read comes from NVM, second from the DRAM cache.
        let first = p.get(&Key::from_id(1)).unwrap();
        assert_eq!(first.source, ReadSource::Nvm);
        assert_eq!(first.value.unwrap().len(), 500);
        let second = p.get(&Key::from_id(1)).unwrap();
        assert_eq!(second.source, ReadSource::Dram);
        assert!(second.latency < first.latency);
        let missing = p.get(&Key::from_id(999)).unwrap();
        assert!(missing.value.is_none());
        assert_eq!(missing.source, ReadSource::NotFound);
    }

    #[test]
    fn updates_are_in_place_and_latest_version_wins() {
        let engine = engine(1000);
        let mut p = partition(&engine);
        put(&engine, &mut p, Key::from_id(5), Value::filled(200, 1)).unwrap();
        put(&engine, &mut p, Key::from_id(5), Value::filled(210, 2)).unwrap();
        let got = p.get(&Key::from_id(5)).unwrap();
        assert_eq!(got.value.unwrap().as_bytes()[0], 2);
        assert_eq!(p.nvm_object_count(), 1);
    }

    #[test]
    fn filling_nvm_triggers_demotion_to_flash() {
        let keys = 4_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        assert!(
            p.flash_object_count() > 0,
            "cold objects must have been demoted to flash"
        );
        assert!(p.nvm_utilization() <= 1.0);
        assert!(p.stats().compaction.jobs > 0);
        assert!(p.stats().compaction.demoted_objects > 0);
        // Every key must still be readable (from NVM or flash).
        for id in (0..keys).step_by(97) {
            let got = p.get(&Key::from_id(id)).unwrap();
            assert!(got.value.is_some(), "key {id} lost after compaction");
        }
    }

    #[test]
    fn hot_keys_stay_on_nvm_after_compactions() {
        let keys = 4_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        // Load everything once.
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        // Make keys 0..50 hot with repeated reads and updates.
        for _ in 0..20 {
            for id in 0..50u64 {
                p.get(&Key::from_id(id)).unwrap();
                put(&engine, &mut p, Key::from_id(id), Value::filled(1000, 2)).unwrap();
            }
            // Interleave cold inserts to force more compactions.
            for id in 0..200u64 {
                put(
                    &engine,
                    &mut p,
                    Key::from_id(keys + id),
                    Value::filled(1000, 3),
                )
                .unwrap();
            }
        }
        let mut hot_from_fast = 0;
        for id in 0..50u64 {
            let got = p.get(&Key::from_id(id)).unwrap();
            if got.source != ReadSource::Flash {
                hot_from_fast += 1;
            }
        }
        assert!(
            hot_from_fast >= 40,
            "most hot keys should be served from DRAM/NVM, got {hot_from_fast}/50"
        );
    }

    #[test]
    fn delete_hides_flash_versions_via_tombstones() {
        let keys = 3_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        assert!(p.flash_object_count() > 0);
        // Delete a key that was demoted to flash.
        let victim = (0..keys)
            .find(|id| !p.volatile.index.contains_key(&Key::from_id(*id)))
            .expect("some key lives only on flash");
        delete(&engine, &mut p, &Key::from_id(victim)).unwrap();
        let got = p.get(&Key::from_id(victim)).unwrap();
        assert!(got.value.is_none(), "deleted key must not be readable");
        // Deleting an NVM-only key removes it immediately.
        let nvm_key = (0..keys)
            .find(|id| {
                p.volatile
                    .index
                    .get(&Key::from_id(*id))
                    .map(|e| !e.tombstone)
                    .unwrap_or(false)
            })
            .expect("some key lives on NVM");
        delete(&engine, &mut p, &Key::from_id(nvm_key)).unwrap();
        assert!(p.get(&Key::from_id(nvm_key)).unwrap().value.is_none());
    }

    fn loaded_for_scans(engine: &EngineShared, keys: u64) -> RwLockWriteGuard<'_, Partition> {
        let mut p = partition(engine);
        for id in 0..keys {
            let value = Value::filled(1000, (id % 251) as u8);
            put(engine, &mut p, Key::from_id(id), value).unwrap();
        }
        assert!(p.nvm_object_count() > 0 && p.flash_object_count() > 0);
        p
    }

    fn ids(entries: &[(Key, Value)]) -> Vec<u64> {
        entries.iter().map(|(k, _)| k.id()).collect()
    }

    #[test]
    fn scan_merges_nvm_and_flash_in_order() {
        let engine = engine(3_000);
        let p = loaded_for_scans(&engine, 3_000);
        // An unbounded pin sees every live version: the plain merge path.
        let mut cursor = ScanCursor::new(&Key::from_id(100));
        let mut entries = Vec::new();
        p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
        assert_eq!(ids(&entries), (100..150).collect::<Vec<u64>>());
        assert_eq!(cursor.frontier(), Some(&Key::from_id(150)));
        // Only what was taken was read, and it is charged once.
        assert_eq!((cursor.resolved, cursor.emitted), (50, 50));
        let on_flash = cursor.flash_bytes / 1008;
        assert_eq!(cursor.flash_bytes % 1008, 0);
        assert_eq!(cursor.nvm_reads + on_flash, 50);
        let before = (p.nvm_dev.counters().as_tier_io(), p.fg());
        let cost = p.scan_charge(&cursor);
        let nvm = p.nvm_dev.counters().as_tier_io().delta_since(before.0);
        assert_eq!(nvm.reads, (cursor.nvm_reads > 0) as u64);
        assert_eq!(nvm.bytes_read, 4096 * cursor.nvm_reads.div_ceil(4));
        assert_eq!(p.fg(), before.1 + cost);
        assert_eq!(p.stats().scan_entries_resolved, 50);
        assert_eq!(p.stats().scan_entries_returned, 50);
    }

    #[test]
    fn a_cursor_stops_at_its_bound_and_runs_out_at_the_end() {
        let engine = engine(3_000);
        let p = loaded_for_scans(&engine, 3_000);
        let mut cursor = ScanCursor::new(&Key::from_id(2_990));
        let mut entries = Vec::new();
        // The bound is inclusive: two partitions never hold the same key.
        p.scan_pull(
            &mut cursor,
            Some(&Key::from_id(2_993)),
            u64::MAX,
            50,
            &mut entries,
        );
        assert_eq!(ids(&entries), vec![2_990, 2_991, 2_992, 2_993]);
        assert_eq!(cursor.frontier(), Some(&Key::from_id(2_994)));
        // A bound below the frontier reads nothing.
        p.scan_pull(
            &mut cursor,
            Some(&Key::from_id(5)),
            u64::MAX,
            50,
            &mut entries,
        );
        assert_eq!((entries.len(), cursor.resolved), (4, 4));
        p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
        assert_eq!(ids(&entries), (2_990..3_000).collect::<Vec<u64>>());
        assert_eq!(cursor.frontier(), None);
        p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
        assert_eq!(entries.len(), 10, "an exhausted cursor stays exhausted");
    }

    #[test]
    fn a_cursor_resumed_after_a_full_demotion_neither_repeats_nor_drops_a_key() {
        let engine = engine(3_000);
        let mut p = loaded_for_scans(&engine, 3_000);
        // The newest keys are still on NVM; start the scan among them.
        let first = (0..3_000)
            .rev()
            .take_while(|id| p.volatile.index.contains_key(&Key::from_id(*id)))
            .last()
            .expect("the last key written is on NVM");
        assert!(first < 2_960, "need a run of NVM keys to scan across");
        let pinned = p.seq.pin();
        let mut cursor = ScanCursor::new(&Key::from_id(first));
        let mut entries = Vec::new();
        p.scan_pull(
            &mut cursor,
            Some(&Key::from_id(first + 9)),
            pinned,
            40,
            &mut entries,
        );
        assert_eq!(cursor.frontier(), Some(&Key::from_id(first + 10)));
        assert_eq!(cursor.flash_bytes, 0);

        // Between the two pulls (no lock is held there) every NVM object
        // moves to flash, the frontier key included, and one key ahead of
        // the cursor is overwritten and another deleted after the pin.
        let fg = p.fg();
        let job = p
            .plan_demotion(DemotionPlan::Everything, fg)
            .expect("NVM holds objects to demote");
        let (cpu, dev) = (p.cpu, p.flash_dev.clone());
        p.install_compaction(execute_job(job, &cpu, &dev))
            .unwrap()
            .expect("same epoch: job installs");
        assert_eq!(p.nvm_object_count(), 0);
        let overwritten = Key::from_id(first + 20);
        put(&engine, &mut p, overwritten.clone(), Value::filled(700, 9)).unwrap();
        delete(&engine, &mut p, &Key::from_id(first + 21)).unwrap();

        p.scan_pull(&mut cursor, None, pinned, 40, &mut entries);
        assert_eq!(ids(&entries), (first..first + 40).collect::<Vec<u64>>());
        assert!(
            cursor.flash_bytes > 0,
            "the second pull read the demoted records"
        );
        for (key, value) in &entries {
            let want = Value::filled(1000, (key.id() % 251) as u8);
            assert_eq!(value, &want, "{key:?} must read as of the pin");
        }
        p.seq.release(pinned);
    }

    /// While no `install` intervenes a scan seeks the flash log once: every
    /// park leaves the position where a seek of the new frontier would
    /// land, so the next pull starts from it. Over keys on NVM only, on
    /// flash only, on both, and tombstones over either.
    #[test]
    fn a_parked_cursor_holds_the_flash_position_a_seek_of_its_frontier_would_find() {
        let engine = engine(3_000);
        let mut p = loaded_for_scans(&engine, 3_000);
        // Among the oldest keys — all on flash — every third is given a
        // newer NVM version, every seventh a tombstone; so are some of the
        // newest, which flash never held. A pin before a few more deletes
        // leaves versions only the history buffer holds.
        for id in (0..400).chain(2_950..3_000) {
            if id % 7 == 0 {
                delete(&engine, &mut p, &Key::from_id(id)).unwrap();
            } else if id % 3 == 0 {
                put(&engine, &mut p, Key::from_id(id), Value::filled(300, 3)).unwrap();
            }
        }
        let pinned = p.seq.pin();
        for id in [5, 6, 2_999] {
            delete(&engine, &mut p, &Key::from_id(id)).unwrap();
        }
        let on = |id: u64| {
            let key = Key::from_id(id);
            let flash = p
                .durable
                .log
                .lookup(&key)
                .is_some_and(|f| f.probe(&key).entry.is_some());
            (p.volatile.index.contains_key(&key), flash)
        };
        assert_eq!(on(3), (true, true));
        assert_eq!(on(4), (false, true));
        assert_eq!(on(2_998), (true, false));
        assert!(p
            .volatile
            .index
            .get(&Key::from_id(7))
            .is_some_and(|e| e.tombstone));

        let start = Key::min();
        let mut whole = Vec::new();
        p.scan_pull(
            &mut ScanCursor::new(&start),
            None,
            pinned,
            usize::MAX,
            &mut whole,
        );
        assert!(whole.len() > 2_500 && whole.len() < 3_000);

        let check_park = |cursor: &ScanCursor| match cursor.frontier() {
            Some(frontier) => assert_eq!(
                cursor.flash,
                Some(p.durable.log.seek(frontier)),
                "{frontier:?}"
            ),
            None => assert_eq!(cursor.flash, None),
        };
        for step in [1, 2, 3, 7] {
            let mut cursor = ScanCursor::new(&start);
            let mut entries = Vec::new();
            while cursor.frontier().is_some() {
                let limit = entries.len() + step;
                p.scan_pull(&mut cursor, None, pinned, limit, &mut entries);
                check_park(&cursor);
            }
            assert_eq!(entries, whole, "pulled {step} at a time");
        }
        // Parked by a bound instead of the limit, as the engine's merge
        // parks a cursor whose neighbour's frontier comes next.
        let mut cursor = ScanCursor::new(&start);
        let mut entries = Vec::new();
        for bound in (0..3_010).step_by(5).map(Key::from_id) {
            p.scan_pull(&mut cursor, Some(&bound), pinned, usize::MAX, &mut entries);
            check_park(&cursor);
        }
        assert_eq!(cursor.frontier(), None);
        assert_eq!(entries, whole);
        p.seq.release(pinned);
    }

    #[test]
    fn crash_recovery_rebuilds_index_from_slabs() {
        let keys = 2_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(800, 1)).unwrap();
        }
        put(&engine, &mut p, Key::from_id(3), Value::filled(800, 42)).unwrap();
        let nvm_before = p.nvm_object_count();
        let flash_before = p.flash_object_count();
        let cost = p.crash_and_recover();
        assert!(cost > Nanos::ZERO);
        assert_eq!(p.nvm_object_count(), nvm_before);
        assert_eq!(p.flash_object_count(), flash_before);
        for id in (0..keys).step_by(53) {
            assert!(p.get(&Key::from_id(id)).unwrap().value.is_some());
        }
        assert_eq!(
            p.get(&Key::from_id(3)).unwrap().value.unwrap().as_bytes()[0],
            42
        );
    }

    #[test]
    fn compaction_stats_and_write_stalls_accumulate_under_pressure() {
        let keys = 3_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for round in 0..3u64 {
            for id in 0..keys {
                put(
                    &engine,
                    &mut p,
                    Key::from_id(id),
                    Value::filled(1000, round as u8),
                )
                .unwrap();
            }
        }
        let stats = p.stats();
        assert!(stats.compaction.jobs > 0);
        assert!(stats.compaction.total_time > Nanos::ZERO);
        assert!(stats.user_bytes_written >= keys * 1000);
        assert!(p.elapsed() >= p.fg());
    }

    #[test]
    fn stall_accounting_identities_hold_under_pressure() {
        // The satellite invariants: compaction time splits exactly into
        // fast- and slow-tier time, and total foreground stalls can never
        // exceed the partition's elapsed virtual time (the fix: stalls are
        // measured from the op's position `fg + accrued`, not from `fg`,
        // so a forced reclamation and the watermark check in the same op
        // cannot double-charge the same wait).
        let keys = 3_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for round in 0..4u64 {
            for id in 0..keys {
                put(
                    &engine,
                    &mut p,
                    Key::from_id(id % (keys * 2)),
                    Value::filled(1000, round as u8),
                )
                .unwrap();
            }
        }
        let stats = p.stats().compaction;
        assert!(stats.stall_time > Nanos::ZERO, "pressure must cause stalls");
        assert_eq!(
            stats.total_time,
            stats.fast_tier_time + stats.slow_tier_time,
            "compaction time must split exactly into tier times"
        );
        assert!(
            stats.stall_time <= p.elapsed(),
            "stalls ({:?}) cannot exceed elapsed virtual time ({:?})",
            stats.stall_time,
            p.elapsed()
        );
    }

    #[test]
    fn install_skips_entries_rewritten_by_the_foreground() {
        let keys = 3_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        // Plan a forced demotion covering everything, then update one of
        // the planned victims and delete another before installing.
        let fg = p.fg();
        let job = p
            .plan_demotion(DemotionPlan::Forced, fg)
            .expect("loaded partition must yield a job");
        let updated = job.demote[0].key.clone();
        let deleted = job
            .demote
            .iter()
            .map(|d| d.key.clone())
            .find(|k| *k != updated)
            .expect("job demotes more than one key");
        let cpu = p.cpu;
        let dev = p.flash_dev.clone();
        put(&engine, &mut p, updated.clone(), Value::filled(900, 77)).unwrap();
        delete(&engine, &mut p, &deleted).unwrap();

        let exec = execute_job(job, &cpu, &dev);
        let outcome = p
            .install_compaction(exec)
            .unwrap()
            .expect("same epoch: job installs");
        assert!(outcome.duration > Nanos::ZERO);
        // The interleaved update wins and the deleted key stays dead: the
        // stale planned versions must neither clobber NVM nor resurface
        // from the rewritten flash files.
        let got = p.get(&updated).unwrap();
        assert_eq!(got.value.expect("updated key lives").as_bytes()[0], 77);
        assert!(p.get(&deleted).unwrap().value.is_none());
        // Still true after dropping all DRAM state.
        p.crash_and_recover();
        assert_eq!(
            p.get(&updated).unwrap().value.expect("survives").as_bytes()[0],
            77
        );
        assert!(p.get(&deleted).unwrap().value.is_none());
    }

    /// A one-partition engine whose devices and slabs share `plan`.
    fn faulted_engine(keys: u64, plan: &Arc<FaultPlan>) -> EngineShared {
        let mut options = small_options(keys);
        options.fault_plan = Some(plan.clone());
        options.corruption_quarantine_threshold = 100;
        let storage = TieredStorage::with_fault_plan(
            DeviceProfile::optane_nvm(options.nvm_capacity_bytes),
            DeviceProfile::qlc_flash(options.flash_capacity_bytes),
            plan.clone(),
        );
        EngineShared::new(options, storage).unwrap()
    }

    fn arm_write_flip(plan: &FaultPlan, tier: FaultTier) {
        plan.arm(prism_storage::TargetedFault {
            tier,
            partition: None,
            op: FaultOp::Write,
            mode: prism_storage::FaultMode::BitFlip,
        });
    }

    /// Plan, execute and install a demotion of every NVM object.
    fn demote_everything(p: &mut Partition) {
        let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
        let job = p.plan_demotion(DemotionPlan::Everything, fg).expect("job");
        p.install_compaction(execute_job(job, &cpu, &dev))
            .unwrap()
            .expect("nothing installed since the plan");
    }

    /// The flash record of `key`.
    fn flash_record(p: &Partition, key: &Key) -> SstEntry {
        let file = p.durable.log.lookup(key).expect("on flash");
        file.range(key, key).next().expect("held").1.clone()
    }

    /// The flash records that fail their checksums.
    fn failing_records(p: &Partition) -> Vec<Key> {
        p.durable
            .log
            .iter()
            .filter(|(_, entry)| !entry.verify())
            .map(|(key, _)| key.clone())
            .collect()
    }

    /// A record that fails its checksum is carried through a compaction as
    /// it is: neither the merge nor the install verifies, counts or drops
    /// it, so it comes out with the same bytes and the same checksum, and
    /// a read or the scrubber is what catches it. A job discarded because
    /// another installed first changes and counts nothing either.
    #[test]
    fn install_carries_a_failing_record_verbatim_and_a_discarded_job_counts_nothing() {
        let keys = 2_000u64;
        let plan = Arc::new(FaultPlan::new(0xF1A6));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        for id in 0..keys / 2 {
            put(&engine, &mut p, Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        // The next SST write damages one record after its checksum was
        // fixed; a full demotion makes that write happen now.
        arm_write_flip(&plan, FaultTier::Flash);
        demote_everything(&mut p);
        let damaged = failing_records(&p);
        assert_eq!(damaged.len(), 1, "the armed flip hit one record");
        let before = flash_record(&p, &damaged[0]);

        // Rewrite everything: a job whose merge crosses the record. Before
        // it installs, another job does — one demoting a key written since,
        // which no file covers — and the first is stale.
        let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
        let job = p.plan_demotion(DemotionPlan::Everything, fg).expect("job");
        let exec = execute_job(job, &cpu, &dev);
        let fresh = Key::from_id(keys);
        put(&engine, &mut p, fresh.clone(), Value::filled(900, 2)).unwrap();
        let force = JobKind::Demotion { force: true };
        let other = p
            .plan_range(fresh.clone(), fresh, force, false, Nanos::ZERO, fg)
            .expect("job");
        assert!(other.files.is_empty());
        p.install_compaction(execute_job(other, &cpu, &dev))
            .unwrap()
            .expect("installs");
        assert_discarded_at_install(&mut p, exec);

        demote_everything(&mut p);
        assert_eq!(failing_records(&p), damaged, "carried, not dropped");
        let after = flash_record(&p, &damaged[0]);
        assert_eq!(
            (after.value, after.checksum),
            (before.value, before.checksum),
            "the same bytes under the same checksum"
        );
        let stats = p.stats().integrity;
        assert_eq!((stats.checksum_failures, stats.quarantined_objects), (0, 0));
        assert_eq!(plan.snapshot().detected, 0);

        assert!(matches!(p.get(&damaged[0]), Err(PrismError::Corruption(_))));
        let report = p.scrub_pass(u64::MAX);
        assert_eq!((report.corrupt_found, report.quarantined), (1, 1));
        assert!(failing_records(&p).is_empty());
        assert!(matches!(p.get(&damaged[0]), Err(PrismError::Corruption(_))));
        assert_eq!(plan.snapshot().detected, 2);
    }

    /// A demotion copies each slot's version checksum into its flash
    /// record bit for bit — a damaged slot's included, which a recomputed
    /// checksum would have certified.
    #[test]
    fn a_full_demotion_carries_every_slot_checksum_bit_for_bit() {
        let keys = 1_000u64;
        let plan = Arc::new(FaultPlan::new(0xCA7));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        for id in 0..keys / 2 {
            if id % 100 == 7 {
                arm_write_flip(&plan, FaultTier::Nvm);
            }
            let value = Value::filled(700, id as u8);
            put(&engine, &mut p, Key::from_id(id), value).unwrap();
        }
        assert_eq!(plan.snapshot().bit_flips, 5);
        let slots: Vec<(Key, u32, bool)> = p
            .volatile
            .index
            .range_from(&Key::min())
            .map(|(key, entry)| {
                let slot = p.durable.slab.peek(entry.addr).expect("live slot");
                (key.clone(), slot.version.checksum, slot.verify())
            })
            .collect();
        assert_eq!(slots.iter().filter(|(_, _, ok)| !ok).count(), 5);

        demote_everything(&mut p);
        assert_eq!(p.nvm_object_count(), 0);
        for (key, checksum, ok) in &slots {
            let entry = flash_record(&p, key);
            assert_eq!(entry.checksum, *checksum, "{key:?}");
            assert_eq!(entry.verify(), *ok, "{key:?}");
        }
    }

    /// A slot damaged on NVM and then demoted is still damaged on flash: a
    /// read reports `Corruption`, never the bytes, and the scrubber takes
    /// the record out.
    #[test]
    fn a_slot_damaged_on_nvm_stays_corrupt_after_its_demotion() {
        let keys = 1_000u64;
        let plan = Arc::new(FaultPlan::new(0xD0E));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        for id in 0..keys / 4 {
            put(&engine, &mut p, Key::from_id(id), Value::filled(700, 1)).unwrap();
        }
        let victim = Key::from_id(keys / 8);
        arm_write_flip(&plan, FaultTier::Nvm);
        put(&engine, &mut p, victim.clone(), Value::filled(700, 2)).unwrap();

        demote_everything(&mut p);
        assert!(
            !p.volatile.index.contains_key(&victim),
            "demoted unverified"
        );
        assert_eq!(failing_records(&p), std::slice::from_ref(&victim));
        assert_eq!(p.stats().integrity.checksum_failures, 0);
        assert!(matches!(p.get(&victim), Err(PrismError::Corruption(_))));

        let report = p.scrub_pass(u64::MAX);
        assert_eq!((report.corrupt_found, report.quarantined), (1, 1));
        assert!(failing_records(&p).is_empty());
        assert!(matches!(p.get(&victim), Err(PrismError::Corruption(_))));
        assert_eq!(p.flash_object_count() as u64, keys / 4 - 1);
    }

    /// A record damaged on flash and then promoted takes its checksum into
    /// the slot, where it still fails: the read reports `Corruption`.
    #[test]
    fn a_record_damaged_on_flash_fails_in_its_slot_after_promotion() {
        let keys = 1_000u64;
        let plan = Arc::new(FaultPlan::new(0x9A0));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        for id in 0..keys / 4 {
            put(&engine, &mut p, Key::from_id(id), Value::filled(700, 1)).unwrap();
        }
        arm_write_flip(&plan, FaultTier::Flash);
        demote_everything(&mut p);
        let damaged = failing_records(&p);
        assert_eq!(damaged.len(), 1, "the armed flip hit one record");
        let victim = &damaged[0];
        let carried = flash_record(&p, victim).checksum;

        // Promote it through a hint, as a demotion over its range would.
        let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
        let force = JobKind::Demotion { force: true };
        let mut job = p
            .plan_range(
                victim.clone(),
                victim.clone(),
                force,
                false,
                Nanos::ZERO,
                fg,
            )
            .expect("job");
        job.promote_hints.insert(victim.id());
        let outcome = p
            .install_compaction(execute_job(job, &cpu, &dev))
            .unwrap()
            .expect("installs");
        assert_eq!(outcome.promoted, 1);

        let slot = p
            .durable
            .slab
            .peek(p.volatile.index.get(victim).expect("promoted").addr)
            .unwrap();
        assert_eq!(slot.version.checksum, carried);
        assert!(!slot.verify());
        assert!(failing_records(&p).is_empty(), "it left flash");
        assert!(matches!(p.get(victim), Err(PrismError::Corruption(_))));
    }

    /// Install `exec`, which must be discarded: no tier changes, nothing
    /// is counted, no flash space is charged or freed.
    fn assert_discarded_at_install(p: &mut Partition, exec: ExecutedJob) {
        let state = |p: &Partition| {
            let tiers = (p.nvm_object_count(), p.flash_object_count());
            (p.stats(), tiers, p.flash_dev.used_bytes())
        };
        let before = state(p);
        assert!(p.install_compaction(exec).unwrap().is_none());
        assert_eq!(state(p), before);
    }

    /// A job installs only into the file list it was planned against:
    /// crash recovery or another job's install between its plan and its
    /// install makes it stale. (Foreground writes alone do not — see
    /// `install_skips_entries_rewritten_by_the_foreground`.)
    #[test]
    fn a_job_planned_before_a_crash_or_another_install_is_discarded_at_install() {
        let keys = 2_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        let (cpu, dev) = (p.cpu, p.flash_dev.clone());
        let fg = p.fg();
        let job = p.plan_demotion(DemotionPlan::Forced, fg).expect("job");
        let exec = execute_job(job, &cpu, &dev);
        p.crash_and_recover();
        assert_discarded_at_install(&mut p, exec);

        let first = p.plan_demotion(DemotionPlan::Forced, fg).expect("job");
        let second = p.plan_demotion(DemotionPlan::Forced, fg).expect("job");
        p.install_compaction(execute_job(second, &cpu, &dev))
            .unwrap()
            .expect("nothing installed since its plan");
        assert_discarded_at_install(&mut p, execute_job(first, &cpu, &dev));
    }

    /// The flash device is charged for the files the log lists and for a
    /// replaced one only while a reader holds it: an install frees its
    /// victims at once, and a victim read outside the log keeps its own
    /// bytes charged until it is dropped and the next install reclaims.
    #[test]
    fn install_frees_a_replaced_file_once_no_reader_holds_it() {
        let keys = 3_000u64;
        let engine = engine(keys);
        let mut p = partition(&engine);
        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        assert!(p.stats().compaction.jobs > 0);
        let listed = |p: &Partition| {
            p.durable
                .log
                .files()
                .iter()
                .map(|f| f.size_bytes())
                .sum::<u64>()
        };
        assert_eq!(p.flash_dev.used_bytes(), listed(&p));

        let (cpu, dev) = (p.cpu, p.flash_dev.clone());
        let rewrite_everything = |p: &mut Partition| {
            let fg = p.fg();
            let job = p.plan_demotion(DemotionPlan::Everything, fg).expect("job");
            assert!(!job.files.is_empty());
            p.install_compaction(execute_job(job, &cpu, &dev))
                .unwrap()
                .expect("installs");
        };
        let reader = p.durable.log.files()[0].clone();
        let held = reader.size_bytes();
        rewrite_everything(&mut p);
        assert!(p
            .durable
            .log
            .files()
            .iter()
            .all(|f| !Arc::ptr_eq(f, &reader)));
        assert_eq!(dev.used_bytes(), listed(&p) + held);
        drop(reader);
        assert_eq!(dev.used_bytes(), listed(&p) + held);
        rewrite_everything(&mut p);
        assert_eq!(dev.used_bytes(), listed(&p));
    }

    /// What the bucket map says lives where, over the whole key space:
    /// NVM objects, flash objects, and the share of flash objects also on
    /// NVM.
    fn residency(p: &Partition) -> (f64, f64, f64) {
        let stats = p.volatile.buckets.estimate(0, u64::MAX, 0.25);
        (
            stats.nvm_objects,
            stats.flash_objects,
            stats.overlap_fraction,
        )
    }

    /// Every slot write, slot free and file swap moves the bucket map's
    /// residency bits with it, so the map a partition keeps is the one a
    /// crash rebuilds from its slabs and files: after inline demotions and
    /// a promotion, after a demoted version loses its install race to a
    /// foreground write, after a demotion that damages a record on its way
    /// to flash, and after a scrub drops damaged records.
    #[test]
    fn the_bucket_map_a_crash_rebuilds_is_the_one_the_partition_kept() {
        let keys = 2_000u64;
        let plan = Arc::new(FaultPlan::new(0xB17));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        let mut drifted = Vec::new();
        let mut checkpoint = |p: &mut Partition, after: &str| {
            let kept = residency(p);
            p.crash_and_recover();
            if residency(p) != kept {
                drifted.push(format!(
                    "{after}: kept {kept:?}, rebuilt {:?}",
                    residency(p)
                ));
            }
        };
        let (cpu, dev) = (p.cpu, p.flash_dev.clone());

        for id in 0..keys {
            put(&engine, &mut p, Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        assert!(p.stats().compaction.jobs > 0);
        let flash_only = |p: &Partition| {
            let mut ids = (0..keys).map(Key::from_id);
            ids.find(|key| !p.volatile.index.contains_key(key))
                .expect("inline demotions left a key on flash only")
        };
        let promoted = flash_only(&p);
        let force = JobKind::Demotion { force: true };
        let (start, end, fg) = (promoted.clone(), promoted.clone(), p.fg());
        let mut job = p
            .plan_range(start, end, force, false, Nanos::ZERO, fg)
            .expect("job");
        job.promote_hints.insert(promoted.id());
        let outcome = p.install_compaction(execute_job(job, &cpu, &dev));
        assert_eq!(outcome.unwrap().expect("installs").promoted, 1);
        checkpoint(&mut p, "inline demotions and a promotion");

        // A key on both tiers is demoted, and rewritten between the plan
        // and the install: the merge dropped its flash record for the
        // demoted version, which the install then drops too.
        let raced = flash_only(&p);
        put(&engine, &mut p, raced.clone(), Value::filled(900, 2)).unwrap();
        let fg = p.fg();
        let job = p.plan_demotion(DemotionPlan::Everything, fg).expect("job");
        let exec = execute_job(job, &cpu, &dev);
        put(&engine, &mut p, raced.clone(), Value::filled(900, 3)).unwrap();
        p.install_compaction(exec).unwrap().expect("installs");
        assert!(p
            .durable
            .log
            .lookup(&raced)
            .is_none_or(|f| f.probe(&raced).entry.is_none()));
        checkpoint(&mut p, "a demotion that lost its install race");

        arm_write_flip(&plan, FaultTier::Flash);
        demote_everything(&mut p);
        assert_eq!(
            failing_records(&p).len(),
            1,
            "the armed flip hit one record"
        );
        let rewrite_some = |p: &mut Partition| {
            for id in (0..keys).step_by(20) {
                put(&engine, p, Key::from_id(id), Value::filled(900, 4)).unwrap();
            }
        };
        rewrite_some(&mut p);
        checkpoint(&mut p, "a demotion that damaged a record");

        arm_write_flip(&plan, FaultTier::Flash);
        demote_everything(&mut p);
        rewrite_some(&mut p);
        let damaged = failing_records(&p).len();
        assert!(damaged > 0, "the armed flip hit a record");
        assert_eq!(p.scrub_pass(u64::MAX).corrupt_found, damaged as u64);
        assert!(failing_records(&p).is_empty());
        checkpoint(&mut p, "a scrub that dropped damaged records");

        assert!(drifted.is_empty(), "{drifted:#?}");
    }
}
