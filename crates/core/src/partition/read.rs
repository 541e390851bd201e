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
//! swap on the entry's clock byte) folded into the mapper histogram with
//! an atomic
//! [`Mapper::promote_to_max`](prism_tracker::Mapper::promote_to_max).
//! Only *structural* tracker work — admitting a key the tracker has never
//! seen, which may evict another — is buffered in
//! [`Volatile`](super::Volatile)'s read side for the next write (or an
//! engine-forced drain) to apply under the write lock. The CPU cost of
//! the tracker update is still charged to the read that caused it; only
//! structural application is deferred. Point lookups resolve the key's
//! NVM address through the index's hash-directory fast path
//! ([`prism_index::FastIndex`]) instead of a B-tree walk.
//!
//! A live read that misses the DRAM cache fills it: reads are the only
//! way a key enters the cache. The cache is write-update, so a cached key
//! always holds its newest value: a put replaces the value in place
//! (`Partition::put_entry`, charged as a fill is), a delete removes the
//! key, and a crash empties the cache.

use std::sync::atomic::Ordering;

use prism_storage::{FaultOp, FaultTier};
use prism_types::{Key, Lookup, Nanos, PrismError, ReadSource, Result, Value};

use super::{Kept, Partition};
use crate::engine::count;

/// A key's live version below the DRAM cache, as a reader found it.
pub(super) enum Live {
    /// Its tier, commit sequence and value (`None` for a tombstone).
    Clean(ReadSource, u64, Option<Value>),
    /// Failed its checksum; the sequence is known for an NVM slot (the
    /// DRAM index holds it), not for a flash record.
    Damaged(Option<u64>),
}

impl Partition {
    /// The reader rule of the integrity docs: what a reader pinned at
    /// `pinned` sees of `key` whose live version is `live`. `Err` refuses
    /// the key: a point read surfaces it, a scan skips the key.
    pub(super) fn visible_at(
        &self,
        key: &Key,
        live: Option<Live>,
        pinned: u64,
    ) -> Result<Option<Value>> {
        match live {
            _ if self.durable.quarantined.contains(key) => Err(self.corruption_error(key)),
            Some(Live::Clean(_, seq, value)) if seq <= pinned => Ok(value),
            Some(Live::Damaged(seq)) if seq.is_none_or(|seq| seq <= pinned) => {
                Err(self.corruption_error(key))
            }
            _ => match self.volatile.history_version_at(key, pinned) {
                Kept::Clean(value) => Ok(value),
                Kept::Damaged => Err(self.corruption_error(key)),
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
    fn current_version(&self, key: &Key) -> Option<(u64, Kept)> {
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
            self.volatile.clear_history(&self.seq);
            return;
        }
        if let Some(version) = self.current_version(key) {
            self.volatile.push_history(&self.seq, key, version);
        }
        if let Some(seq) = delete_seq {
            self.volatile
                .push_history(&self.seq, key, (seq, Kept::Clean(None)));
        }
    }

    /// Free history versions no live pin can reach (see
    /// [`Volatile::prune_history`](super::Volatile::prune_history)).
    /// Called by the engine after it force-expires a pin.
    pub(crate) fn prune_history(&mut self, oldest_pin: Option<u64>) {
        self.volatile.prune_history(&self.seq, oldest_pin);
    }

    /// The live version of `key` below the DRAM cache, adding what finding
    /// it cost to `cost`. The NVM index decides first; only a key it does
    /// not know goes to flash, whose SST index and bloom filter live on
    /// NVM. A damaged version is returned as such, for the caller's rule
    /// to judge; only an injected I/O error fails the probe.
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
                Err(PrismError::Corruption(_)) => Live::Damaged(Some(ts)),
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
}
