use std::collections::HashSet;

use prism_storage::Device;
use prism_types::{BatchOp, Key, Lane, Nanos, PrismError, Result, Value, Version};

use super::persist::SlotWrite;
use super::Partition;
use crate::engine::count;

/// The slab device writes of one partition group. One surviving write
/// pays its own cost, a random write. Two or more are submitted together:
/// they pay one access latency plus a bandwidth-limited transfer of their
/// total bytes, and every latency spike a write rolled on top of its
/// random-write price (the device I/O counters are still recorded per
/// slot by the slab store).
#[derive(Debug, Default, Clone, Copy)]
struct SlabWriteTally {
    writes: u64,
    bytes: u64,
    /// The writes' own costs, summed.
    own: Nanos,
    /// What the writes' latency spikes added to their random-write price.
    spikes: Nanos,
}

impl SlabWriteTally {
    fn price(&self, nvm: &Device) -> Nanos {
        match self.writes {
            0 | 1 => self.own,
            _ => nvm.write_sequential_cost(self.bytes) + self.spikes,
        }
    }
}

/// What a write calls when a slab write finds no room: free NVM space on
/// the spot (the write lock stays held) given the operation's accrued cost,
/// and return the stall charged for it. The compaction driver supplies it
/// (`EngineShared::reclaim`).
pub(crate) type Reclaim<'a> = &'a mut dyn FnMut(&mut Partition, Nanos) -> Result<Nanos>;

impl Partition {
    /// Close a write of `ops` logical operations that cost `cost` in
    /// total: feed the read-trigger controller's read/write ratio, then
    /// advance the foreground clock.
    pub(crate) fn finish_write(&mut self, ops: usize, cost: Nanos) {
        self.volatile.observe_writes(ops as u64);
        self.advance_fg(cost);
    }

    /// The state mutation of one put: slab write, index update, tracker
    /// access and cache refresh, *without* the wrapper that
    /// [`Partition::apply_group`] pays once per group (request overhead,
    /// read-side drain, watermark check, foreground clock advance).
    ///
    /// `accrued` is the cost the enclosing group accumulated before this
    /// entry (it positions any forced-reclamation stall on the virtual
    /// timeline). `CapacityExceeded` is resolved by `reclaim` while the
    /// write lock stays held. The slab device write goes on the group's
    /// `tally`, which prices it at the end of the group.
    fn put_entry(
        &mut self,
        key: Key,
        value: Value,
        ts: u64,
        accrued: Nanos,
        reclaim: Reclaim<'_>,
        tally: &mut SlabWriteTally,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.index_op;
        let value_len = value.len() as u64;

        self.note_supersession(&key, None);
        let write = SlotWrite::Value(value.clone());
        cost += self.write_client_slot(&key, ts, write, accrued + cost, reclaim, tally)?;
        // A successful rewrite heals a quarantined key: the fresh version
        // supersedes whatever was corrupt.
        self.durable.quarantined.remove(&key);
        self.volatile.sketch.increment(&key);
        self.volatile.observe_access(&key);
        cost += self.cpu.tracker_op;
        // Write-update: a cached key now holds the new value, an uncached
        // one stays out. NVM serves the new value, so it is cheap to
        // refetch. The replace runs under the sub-shard lock, so it is
        // charged there as a read fill is.
        if self.volatile.cache.replace(&key, value, Lane::Cheap) {
            cost += self.cpu.dram_hit;
            let shard = self.volatile.cache.shard_of(&key);
            let serial = self.cpu.index_op + self.cpu.dram_hit;
            self.lifetime.serial.charge(shard, serial.as_nanos());
        }
        count(&self.stats.user_bytes_written, value_len);
        Ok(cost)
    }

    /// Apply one partition's group of client writes — a put or a delete
    /// is a group of one, a [`prism_types::WriteBatch`] or a transaction
    /// brings one group per partition it writes — under a single
    /// write-lock hold: one read-side drain, one request overhead, one
    /// watermark check (→ at most one compaction run / enqueue per
    /// group), and one slab write per distinct key (earlier entries
    /// superseded by a later entry for the same key are merged away; the
    /// last entry wins, exactly as sequential application would end up).
    /// One surviving slab write costs its own random write; two or more
    /// are priced as one coalesced device submission (one access latency
    /// plus a bandwidth-limited transfer of the total slot bytes) plus the
    /// latency spikes they rolled — the storage-level half of the
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
    /// This is the mutation half only: `EngineShared::write_held` wraps
    /// it with the read-side drain before and the watermark check and
    /// [`Partition::finish_write`] after.
    pub(crate) fn apply_group(
        &mut self,
        entries: Vec<BatchOp>,
        seq: u64,
        reclaim: Reclaim<'_>,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.request_overhead;

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

        let mut tally = SlabWriteTally::default();
        for (i, entry) in entries.into_iter().enumerate() {
            if superseded[i] {
                // The client still logically wrote these bytes; only the
                // physical slab write is saved.
                if let BatchOp::Put(_, value) = entry {
                    count(&self.stats.user_bytes_written, value.len() as u64);
                }
            } else {
                cost += match entry {
                    BatchOp::Put(key, value) => {
                        self.put_entry(key, value, seq, cost, reclaim, &mut tally)?
                    }
                    BatchOp::Delete(key) => {
                        self.delete_entry(&key, seq, cost, reclaim, &mut tally)?
                    }
                };
            }
        }
        Ok(cost + tally.price(&self.nvm_dev))
    }

    /// The slot write of one client entry ([`Partition::write_slot`]),
    /// standing at `at` on the operation's timeline; returns what it adds
    /// to the entry's cost. The device write goes on `tally` instead.
    fn write_client_slot(
        &mut self,
        key: &Key,
        ts: u64,
        write: SlotWrite,
        at: Nanos,
        reclaim: Reclaim<'_>,
        tally: &mut SlabWriteTally,
    ) -> Result<Nanos> {
        let value_len = write.value_len();
        let (stall, write_cost) = match self.write_slot(key, ts, write.clone()) {
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
        let bytes = self.durable.slab().slot_bytes_for(value_len)?;
        tally.writes += 1;
        tally.bytes += bytes;
        tally.own += write_cost;
        tally.spikes += write_cost - self.nvm_dev.write_random_cost(bytes);
        Ok(stall)
    }

    /// The state mutation of one delete (see [`Partition::put_entry`] for
    /// the wrapper/entry split and the `accrued` / `reclaim` / `tally`
    /// contract).
    fn delete_entry(
        &mut self,
        key: &Key,
        ts: u64,
        accrued: Nanos,
        reclaim: Reclaim<'_>,
        tally: &mut SlabWriteTally,
    ) -> Result<Nanos> {
        let mut cost = self.cpu.index_op;

        self.note_supersession(key, Some(ts));
        // Does any version of this key exist on flash? A corrupt flash
        // record counts: it must be tombstone-shadowed too, or reads
        // after the delete would keep tripping on it.
        cost += self.cpu.bloom_probe;
        let on_flash = self
            .durable
            .log()
            .lookup(key)
            .map(|file| {
                let probe = file.probe(key);
                probe.entry.is_some() || probe.corrupt
            })
            .unwrap_or(false);

        if on_flash {
            // Write a tombstone to NVM so the flash version is hidden until
            // a compaction merges and drops both. `write_slot` frees the
            // key's current slot only after the tombstone is written: a
            // failed write leaves that slot in place, so the older flash
            // version cannot resurface.
            let write = SlotWrite::Version(Version::tombstone(ts));
            cost += self.write_client_slot(key, ts, write, accrued + cost, reclaim, tally)?;
        } else {
            // Free the key's current NVM slot whether it holds a value or
            // an old tombstone: deleting an already-tombstoned key must not
            // orphan the previous tombstone slot, or a recovery slab scan
            // could later resurrect it.
            self.free_slot(key)?;
        }

        // A delete supersedes a quarantined version: the key is now
        // legitimately absent (or tombstoned), not corrupt.
        self.durable.quarantined.remove(key);
        self.volatile.cache.remove(key);
        Ok(cost)
    }
}
