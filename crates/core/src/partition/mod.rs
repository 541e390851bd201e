//! A single shared-nothing partition of PrismDB.
//!
//! Each partition owns a disjoint slice of the key space and all the data
//! structures for it (Figure 3 of the paper): the NVM slab store and its
//! B-tree index, the flash sorted log, the clock tracker (whose clock
//! values each compaction plan counts into its pin rule, the paper's
//! mapper), the bucket map for approx-MSC, and the compaction planner. A
//! partition also owns its virtual clocks: a foreground clock advanced by
//! client operations and a background completion time advanced by
//! compaction work, which together produce write-stall behaviour when
//! compactions cannot keep up. Each concern has its file: `persist` (the
//! only code that can mutate the slabs, log, index and bucket map),
//! `write`, `read`, `scan`, `compaction`, `recovery` and `integrity`.
//!
//! # Crash model
//!
//! A crash is a power cut, and the partition's state is split by what it
//! does to each field. [`Durable`] is what NVM and flash hold — slabs,
//! sorted log, quarantine sentinels, health — and survives. [`Volatile`]
//! is what DRAM holds and is lost: recovery replaces it with an empty one
//! from the constructor a new partition uses, then rebuilds the index and
//! bucket map from the durable part (the paper's per-partition recovery,
//! §6). [`Lifetime`] — the virtual clocks and the cache's serial-time
//! tally — is outside the model and carries on, and so do the statistics,
//! which the partition counts into the engine's one table. Within an
//! install the file swap is the commit point: promoted slots and new
//! files are written before it and demoted slots freed after it (see
//! [`Partition::install_compaction`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

use prism_storage::{CpuCosts, Device, FaultPlan, TieredStorage};
use prism_types::{EngineStatsCells, Key, Nanos, Result, Value};

use crate::cache::SerialTally;
use crate::engine::count;
use crate::options::Options;
use crate::sequence::CommitSequencer;

mod compaction;
mod integrity;
mod persist;
mod read;
mod recovery;
mod scan;
mod write;

pub(crate) use compaction::CompactionOutcome;
pub(crate) use integrity::Resolution;
pub use integrity::ScrubReport;
use persist::{Durable, Volatile};
pub(crate) use scan::ScanCursor;
pub(crate) use write::Reclaim;

/// Buffered tracker admissions at which a read asks the engine to drain
/// the read side under the write lock.
const READ_SIDE_DRAIN: usize = 64;

/// Read-side counters maintained entirely with atomics: the hot read path
/// bumps these without taking any lock, and write-lock holders drain them.
#[derive(Debug, Default)]
struct ReadSideCounters {
    /// Total reads observed since the last drain.
    reads: AtomicU64,
    /// Reads served from NVM since the last drain.
    nvm_hits: AtomicU64,
    /// Reads served from flash since the last drain.
    flash_hits: AtomicU64,
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
    /// The engine's one statistics table, shared by every partition and
    /// the compaction scheduler: each counting site is one atomic add, so
    /// `&self` and `&mut self` paths count alike.
    stats: Arc<EngineStatsCells>,
    durable: Durable,
    volatile: Volatile,
    lifetime: Lifetime,
}

/// A superseded version as the history keeps it for pinned readers.
#[derive(Debug, Clone)]
enum Kept {
    /// Its value; `None` is a delete.
    Clean(Option<Value>),
    /// It failed its checksum: a reader whose pin covers it is refused.
    Damaged,
}

impl Volatile {
    fn lock_read_side(&self) -> MutexGuard<'_, Vec<Key>> {
        self.read_side
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Apply buffered structural tracker admissions — a read's key
    /// enters the tracker once it passes the sketch's gate — and drain
    /// the atomic read counters into the read-trigger controller as one
    /// batch.
    fn apply_read_side(&mut self) {
        let accesses = std::mem::take(&mut *self.lock_read_side());
        let reads = self.read_counters.reads.swap(0, Ordering::Relaxed);
        let nvm_hits = self.read_counters.nvm_hits.swap(0, Ordering::Relaxed);
        let flash_hits = self.read_counters.flash_hits.swap(0, Ordering::Relaxed);
        for key in accesses {
            // Cost already charged to the read that buffered the access.
            self.observe_read(key);
        }
        if let Some(ctrl) = &mut self.read_trigger {
            ctrl.observe_ops(reads, reads, nvm_hits, flash_hits);
        }
    }

    /// Record `ops` writes for the read-trigger controller's read-ratio
    /// tracking.
    fn observe_writes(&mut self, ops: u64) {
        if let Some(ctrl) = &mut self.read_trigger {
            ctrl.observe_ops(ops, 0, 0, 0);
        }
    }

    /// Approximate DRAM footprint of one preserved history version (key
    /// + value bytes + per-entry bookkeeping).
    fn history_entry_bytes(key: &Key, kept: &Kept) -> u64 {
        let value = match kept {
            Kept::Clean(Some(value)) => value.len() as u64,
            _ => 0,
        };
        key.len() as u64 + value + 16
    }

    fn push_history(&mut self, key: &Key, version: (u64, Kept)) {
        let list = self.history.entry(key.clone()).or_default();
        if list.last().map(|(seq, _)| *seq) != Some(version.0) {
            self.history_bytes += Self::history_entry_bytes(key, &version.1);
            list.push(version);
        }
    }

    /// Drop all preserved history.
    fn clear_history(&mut self) {
        self.history.clear();
        self.history_bytes = 0;
    }

    /// Free history versions no live pin can reach: for each key, every
    /// version older than the newest one at or below `oldest_pin` is
    /// dead for all remaining pins. With no pins at all, everything
    /// goes.
    fn prune_history(&mut self, oldest_pin: Option<u64>) {
        let Some(pin) = oldest_pin else {
            self.clear_history();
            return;
        };
        let mut freed = 0u64;
        self.history.retain(|key, list| {
            // Newest index with seq <= pin; everything before it is
            // unreachable by any pin >= `pin`.
            let keep_from = list.iter().rposition(|(seq, _)| *seq <= pin).unwrap_or(0);
            if keep_from > 0 {
                for (_, kept) in list.drain(..keep_from) {
                    freed += Self::history_entry_bytes(key, &kept);
                }
            }
            !list.is_empty()
        });
        self.history_bytes -= freed;
    }

    /// Newest preserved version of `key` with sequence `<= pinned`
    /// (`Clean(None)` for "deleted or never existed at that point").
    fn history_version_at(&self, key: &Key, pinned: u64) -> Kept {
        self.history
            .get(key)
            .and_then(|list| list.iter().rev().find(|(seq, _)| *seq <= pinned))
            .map_or(Kept::Clean(None), |(_, kept)| kept.clone())
    }
}

/// Clocks and tallies outside the crash model: they run for the engine's
/// lifetime, so a crash neither rewinds nor resets them. (The statistics
/// live in the engine's table, which a crash does not touch either.)
struct Lifetime {
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
        stats: Arc<EngineStatsCells>,
    ) -> Result<Self> {
        let durable = Durable::new(&options, storage, id)?;
        let volatile = Volatile::new(&options, id, &storage.nvm, &storage.flash);
        Ok(Partition {
            id,
            cpu: storage.cpu,
            nvm_dev: storage.nvm.clone(),
            flash_dev: storage.flash.clone(),
            fault: options.fault_plan.clone(),
            seq,
            stats,
            durable,
            lifetime: Lifetime {
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
            count(&self.stats.compaction.overlap_time, duration.as_nanos());
        }
    }

    /// The foreground stall rule: an operation standing at `now` that needs
    /// the space compaction is freeing waits until `busy_until`, and the
    /// wait is charged exactly once. Returns the stall; the caller folds it
    /// into the operation's cost (or advances the clock by it).
    pub(crate) fn stall_until_idle(&mut self, now: Nanos) -> Nanos {
        let stall = self.lifetime.busy_until.saturating_sub(now);
        count(&self.stats.compaction.stall_time, stall.as_nanos());
        stall
    }

    /// Count one write that could not proceed until compaction freed NVM
    /// space (at the back-pressure ceiling, or a slab write with no room).
    pub(crate) fn note_backpressure_stall(&mut self) {
        count(&self.stats.compaction.backpressure_stalls, 1);
    }

    pub(crate) fn elapsed(&self) -> Nanos {
        self.fg().max(self.lifetime.busy_until)
    }

    /// Serial virtual time accumulated by this partition's busiest DRAM
    /// cache sub-shard (see [`SerialTally::busiest`]): the residual
    /// single-lock component of the read path that a threaded makespan
    /// model must keep on the critical path.
    pub(crate) fn read_serial_busiest_ns(&self) -> u64 {
        self.lifetime.serial.busiest()
    }

    /// Occupancy of this partition's DRAM cache: objects, value bytes and
    /// sub-shards (its traffic is the engine table's tier read counters).
    pub(crate) fn cache_occupancy(&self) -> (usize, u64, usize) {
        let cache = &self.volatile.cache;
        (cache.len(), cache.used_bytes(), cache.shard_count())
    }

    pub(crate) fn nvm_object_count(&self) -> usize {
        self.durable.slab().object_count()
    }

    pub(crate) fn flash_object_count(&self) -> usize {
        self.durable.log().total_entries()
    }

    /// Bytes of this partition's files that the flash device should be
    /// charged for: see [`prism_flash::SortedLog::held_bytes`].
    pub(crate) fn flash_bytes_held(&self) -> u64 {
        self.durable.log().held_bytes()
    }

    /// Bytes of superseded versions this partition keeps for pinned
    /// snapshots.
    pub(crate) fn history_bytes(&self) -> u64 {
        self.volatile.history_bytes
    }

    pub(crate) fn nvm_utilization(&self) -> f64 {
        self.durable.slab().usage().utilization()
    }

    pub(crate) fn clock_histogram(&self) -> [u64; 4] {
        self.volatile.tracker.clock_counts()
    }

    /// Apply the reads' buffered state (see [`Volatile::apply_read_side`]).
    /// Requires the write lock (`&mut self`).
    pub(crate) fn apply_read_side(&mut self) {
        self.volatile.apply_read_side();
    }

    /// Take a due promotion job from the read-trigger controller; the
    /// driver turns it into a promotion request.
    pub(crate) fn take_promotion(&mut self) -> bool {
        let ctrl = self.volatile.read_trigger.as_mut();
        ctrl.is_some_and(|ctrl| ctrl.take_promotion())
    }
}

#[cfg(test)]
mod tests;
