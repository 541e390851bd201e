//! # Read path vs write path
//!
//! Point reads and scans take `&self`: the engine keeps each partition
//! behind an `RwLock`, so reads on the same partition overlap with each
//! other and only serialise against writers. Whatever a read must mutate
//! is split out of the critical section — the DRAM cache is hash-sharded
//! over independently locked sub-caches
//! ([`ShardedLruCache`](crate::cache::ShardedLruCache)), every read
//! counter is an atomic, and the clock-tracker update for an
//! already-tracked key is a lock-free
//! [`ClockTracker::touch`](prism_tracker::ClockTracker::touch) (an atomic
//! swap on the entry's clock byte). Nothing mirrors the clock values: a
//! compaction plan counts them once under the write lock. Only
//! *structural* tracker work — admitting a key the tracker has never
//! seen, which may evict another — is buffered in
//! [`Volatile`](super::Volatile)'s read side for the next write (or an
//! engine-forced drain) to apply under the write lock. There one gate
//! admits a read's key: the partition's
//! [`FrequencySketch`](prism_tracker::FrequencySketch) must count it at
//! least twice, so a one-off read of a tail key leaves the clock hand
//! where it was, and, once the tracker is full, more often than the key
//! the admission would evict
//! ([`ClockTracker::next_victim`](prism_tracker::ClockTracker::next_victim)),
//! so a flood of tail keys read twice does not sweep out warmer ones.
//! Every found read counts its key in the sketch, before the touch, with
//! atomic counters and no lock. A write counts and admits at once; the
//! gate is TinyLFU's, not the paper's. The CPU cost
//! of the tracker update is still charged to the read that caused it;
//! only structural application is deferred. A read asks for a drain only
//! when it can have made one due: its push fills the buffer, or its flash
//! read completes the read-trigger controller's promotion batch, counted
//! with the flash reads no drain has handed over yet.
//! Point lookups resolve the key's NVM address with one probe of the
//! partition's B-tree index.
//!
//! A live read that misses the DRAM cache fills it: reads are the only
//! way a key enters the cache. The fill's lane prices the refetch: a
//! value flash served to a key the tracker already tracked (the touch
//! runs before the fill and answers that) enters the dear lane, every
//! other value the cheap lane, so a flash read of a key the tracker has
//! not admitted yet does not crowd out popular flash values (see
//! [`crate::cache`]). The
//! cache is write-update, so a cached key always holds its newest value:
//! a put replaces the value in place (`Partition::put_entry`, charged as
//! a fill is), a delete removes the key, and a crash empties the cache;
//! `Partition::check_invariants` checks it.

use std::sync::atomic::Ordering;

use prism_storage::{FaultOp, FaultTier};
use prism_types::{Key, Lane, Lookup, Nanos, PrismError, ReadSource, Result, Value};

use super::{Kept, Partition, READ_SIDE_DRAIN};
use crate::engine::count;

/// A key's live version below the DRAM cache, as a reader found it. `V`
/// is its value; a scan judges with `()` and reads the value only when
/// its merge takes the key.
pub(super) enum Live<V = Option<Value>> {
    /// Its tier, commit sequence and value (`None` for a tombstone).
    Clean(ReadSource, u64, V),
    /// Failed its checksum; the sequence is known for an NVM slot (the
    /// DRAM index holds it), not for a flash record.
    Damaged(Option<u64>),
}

/// What the reader rule serves: the live version's value, or the version
/// the history buffer kept for the reader's pin (`None`: a delete, or
/// nothing at all).
#[derive(Debug)]
pub(super) enum Seen<V> {
    Live(V),
    Kept(Option<Value>),
}

impl Seen<Option<Value>> {
    pub(super) fn value(self) -> Option<Value> {
        match self {
            Seen::Live(value) | Seen::Kept(value) => value,
        }
    }
}

impl Partition {
    /// The reader rule of the integrity docs: what a reader pinned at
    /// `pinned` sees of `key` whose live version is `live`. `None` refuses
    /// the key: a point read surfaces it as corruption, a scan skips it.
    pub(super) fn visible_at<V>(
        &self,
        key: &Key,
        live: Option<Live<V>>,
        pinned: u64,
    ) -> Option<Seen<V>> {
        match live {
            _ if self.durable.quarantined.contains(key) => None,
            Some(Live::Clean(_, seq, value)) if seq <= pinned => Some(Seen::Live(value)),
            Some(Live::Damaged(seq)) if seq.is_none_or(|seq| seq <= pinned) => None,
            _ => match self.volatile.history_version_at(key, pinned) {
                Kept::Clean(value) => Some(Seen::Kept(value)),
                Kept::Damaged => None,
            },
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

    /// The key's current version across both tiers: the sequence it
    /// committed at and its value (`Clean(None)` = a delete), or `Damaged`
    /// — at sequence 0 for a flash record, whose sequence is among the
    /// damaged bytes, so that every pin covers it. Snapshot history and
    /// transaction pre-images never capture (and later re-serve) damaged
    /// bytes. Returns `None` when the key has no version anywhere.
    pub(super) fn current_version(&self, key: &Key) -> Option<(u64, Kept)> {
        if let Some(entry) = self.volatile.index().get(key).copied() {
            if entry.tombstone {
                return Some((entry.timestamp, Kept::Clean(None)));
            }
            let slot = self.durable.slab().peek(entry.addr);
            let kept = match slot.filter(|slot| slot.verify()) {
                Some(slot) => Kept::Clean(slot.version.value.clone()),
                None => Kept::Damaged,
            };
            return Some((entry.timestamp, kept));
        }
        let probe = self.durable.log().lookup(key)?.probe(key);
        if probe.corrupt {
            return Some((0, Kept::Damaged));
        }
        let entry = probe.entry?;
        Some((entry.timestamp, Kept::Clean(entry.value)))
    }

    /// The key's current visible value (the engine's pre-image capture
    /// for commit-log records).
    pub(crate) fn current_visible(&self, key: &Key) -> Option<Value> {
        match self.current_version(key)? {
            (_, Kept::Clean(value)) => value,
            (_, Kept::Damaged) => None,
        }
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
            .and_then(|list| list.iter().map(|(seq, _)| *seq).max());
        live.into_iter().chain(hist).max()
    }

    /// Called by every write *before* it mutates the key: while snapshots
    /// are pinned, preserve the version about to be superseded so pinned
    /// readers keep seeing it — a damaged one as a marker that refuses
    /// them, as the live version did. Deletes additionally record a
    /// `(delete_seq, Clean(None))` marker — the live tombstone they may
    /// write is droppable by a later compaction, and without the marker an
    /// older preserved value could wrongly resurface for snapshots pinned
    /// after the delete. With no pins the whole buffer is garbage.
    ///
    /// The pin check runs after the write's sequence was allocated, and
    /// [`CommitSequencer::pin`](crate::sequence::CommitSequencer::pin)
    /// reads the counter inside the same mutex the check takes, so a
    /// racing snapshot either registers first (and the version is
    /// preserved) or pins a sequence that already covers the new version
    /// (see `crate::sequence`).
    pub(super) fn note_supersession(&mut self, key: &Key, delete_seq: Option<u64>) {
        if !self.seq.has_pins() {
            self.volatile.clear_history();
            return;
        }
        if let Some(version) = self.current_version(key) {
            self.volatile.push_history(key, version);
        }
        if let Some(seq) = delete_seq {
            self.volatile.push_history(key, (seq, Kept::Clean(None)));
        }
    }

    /// Free history versions no live pin can reach (see
    /// [`Volatile::prune_history`](super::Volatile::prune_history)).
    /// Called by the engine after it force-expires a pin.
    pub(crate) fn prune_history(&mut self, oldest_pin: Option<u64>) {
        self.volatile.prune_history(oldest_pin);
    }

    /// The live version of `key` below the DRAM cache, adding what finding
    /// it cost to `cost`. The NVM index decides first; only a key it does
    /// not know goes to flash, whose SST index and bloom filter live on
    /// NVM. A damaged version is counted here and returned as such, for
    /// the caller's rule to judge; only an injected I/O error fails the
    /// probe.
    fn probe_tiers(&self, key: &Key, cost: &mut Nanos) -> Result<Option<Live>> {
        if let Some(entry) = self.volatile.index().get(key).copied() {
            let ts = entry.timestamp;
            if entry.tombstone {
                return Ok(Some(Live::Clean(ReadSource::Nvm, ts, None)));
            }
            let live = match self.durable.slab().read(entry.addr) {
                Ok((slot, read_cost)) => {
                    *cost += read_cost;
                    Live::Clean(ReadSource::Nvm, ts, slot.version.value.clone())
                }
                Err(PrismError::Corruption(_)) => {
                    self.note_checksum_failure();
                    Live::Damaged(Some(ts))
                }
                Err(err) => return Err(err),
            };
            return Ok(Some(live));
        }
        *cost += self.cpu.bloom_probe;
        let Some(file) = self.durable.log().lookup(key) else {
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

    /// Point lookup, also reporting whether the engine should take the
    /// write lock and drain the read side. Only two reads can say so: one
    /// whose push brings the admission buffer to [`READ_SIDE_DRAIN`]
    /// (measured under the buffer's mutex, which the push holds anyway),
    /// and a flash read after which the read-trigger controller, counting
    /// the flash reads not yet drained, says a promotion is due.
    ///
    /// The hot path acquires no partition-wide mutex: the DRAM cache probe
    /// locks only the key's cache sub-shard, the index probe runs under the
    /// partition read lock alone, popularity is re-heated with an atomic
    /// clock swap, and every counter is an atomic. Only a read of a key
    /// the tracker has never seen touches the read-side buffer mutex, to
    /// queue the structural admission.
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
                    value = Some(found);
                }
                // A live read is pinned at now, which covers any version.
                Some(Live::Damaged(_)) => return Err(self.corruption_error(key)),
                _ => {}
            }
        }

        let stats = &self.stats;
        let served = match source {
            ReadSource::Dram => &stats.reads_from_dram,
            ReadSource::Nvm => &stats.reads_from_nvm,
            ReadSource::Flash => &stats.reads_from_flash,
            ReadSource::NotFound => &stats.reads_not_found,
        };
        count(served, 1);
        let volatile = &self.volatile;
        let counters = &volatile.read_counters;
        let mut pressure = false;
        if let Some(found) = &value {
            // The popularity update's CPU cost belongs to this read either
            // way; which path applies it depends on whether the tracker
            // already knows the key.
            cost += self.cpu.tracker_op;
            volatile.sketch.increment(key);
            // Tracked: the clock byte was atomically re-heated to the
            // maximum. The key's popularity bit is already set (it was set
            // when the key entered the tracker and only eviction clears
            // it), so no bucket-map update is needed.
            let tracked = volatile.tracker.touch(key, false).is_some();
            if !tracked {
                // Untracked: the next write-lock holder admits the key if
                // it passes the sketch's gate — structural work, as
                // admission may evict.
                let mut rs = volatile.lock_read_side();
                rs.push(key.clone());
                pressure = rs.len() >= READ_SIDE_DRAIN;
            }
            // The fill: only a popular value that flash served is dear to
            // refetch; a one-off flash read of a tail key would otherwise
            // crowd out what DRAM is for.
            if source != ReadSource::Dram {
                let dear = tracked && source == ReadSource::Flash;
                let lane = if dear { Lane::Dear } else { Lane::Cheap };
                volatile.cache.insert(key.clone(), found.clone(), lane);
                self.lifetime.serial.charge(shard, cache_serial);
            }
        }
        counters.reads.fetch_add(1, Ordering::Relaxed);
        match source {
            ReadSource::Nvm => {
                counters.nvm_hits.fetch_add(1, Ordering::Relaxed);
            }
            ReadSource::Flash => {
                // The controller has counted the drained flash reads;
                // `flash_hits` holds the rest, this read included.
                let unobserved = counters.flash_hits.fetch_add(1, Ordering::Relaxed) + 1;
                let trigger = volatile.read_trigger.as_ref();
                pressure |= trigger.is_some_and(|ctrl| ctrl.promotion_due(unobserved));
            }
            _ => {}
        }
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
        let seen = self.visible_at(key, live, pinned);
        let value = seen.ok_or_else(|| self.corruption_error(key))?.value();
        self.advance_fg(cost);
        Ok((value, cost))
    }
}
