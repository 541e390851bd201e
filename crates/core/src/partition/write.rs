use std::collections::HashSet;

use prism_types::{BatchOp, Key, Nanos, PrismError, Result, Value, Version};

use super::persist::SlotWrite;
use super::Partition;
use crate::engine::count;

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

/// What a write calls when a slab write finds no room: free NVM space on
/// the spot (the write lock stays held) given the operation's accrued cost,
/// and return the stall charged for it. The compaction driver supplies it
/// (`EngineShared::reclaim`).
pub(crate) type Reclaim<'a> = &'a mut dyn FnMut(&mut Partition, Nanos) -> Result<Nanos>;

impl Partition {
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
        self.volatile.observe_writes(ops as u64);
        self.advance_fg(cost);
    }

    /// The state mutation of one put: slab write, index update, tracker
    /// access and cache refresh, *without* the per-operation wrapper
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
        let write = SlotWrite::Value(value.clone());
        cost += self.write_client_slot(&key, ts, write, accrued + cost, reclaim, group)?;
        // A successful rewrite heals a quarantined key: the fresh version
        // supersedes whatever was corrupt.
        self.durable.quarantined.remove(&key);
        self.volatile.observe_access(&key);
        cost += self.cpu.tracker_op;
        // Write-update: a cached key now holds the new value, an uncached
        // one stays out. The replace runs under the sub-shard lock, so it
        // is charged there as a read fill is.
        if self.volatile.cache.replace(&key, value) {
            cost += self.cpu.dram_hit;
            let shard = self.volatile.cache.shard_of(&key);
            let serial = self.cpu.index_op + self.cpu.dram_hit;
            self.lifetime.serial.charge(shard, serial.as_nanos());
        }
        count(&self.stats.user_bytes_written, value_len);
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
                    count(&self.stats.user_bytes_written, value.len() as u64);
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

        count(&self.stats.batch_groups, 1);
        count(&self.stats.batch_entries, entry_count);
        count(&self.stats.batch_merged_writes, merged);
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
                tally.bytes += self.durable.slab().slot_bytes_for(value_len)?;
            }
            None => cost += write_cost,
        }
        Ok(cost)
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
            cost += self.write_client_slot(key, ts, write, accrued + cost, reclaim, group)?;
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
