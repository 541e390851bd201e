//! # Integrity
//!
//! A damaged version is counted once, by the code that observes it: the
//! point-read probe of either tier, the scan merge, the scrub walk and
//! recovery's rebuild ([`Partition::note_checksum_failure`]). What a failed
//! checksum does is decided by [`Partition::resolve_damage`],
//! which the engine's get escalation, recovery and both scrub phases call:
//! it counts nothing and frees a damaged slot; a damaged flash
//! record a live NVM version hides is shadowed, and the next rewrite of
//! its file leaves it out, as it does every record a newer NVM version
//! hides; otherwise the DRAM cache's
//! last committed value is written back, or the key goes under a durable
//! sentinel and the partition degrades at the threshold. Scans and
//! snapshot reads only judge, by one rule ([`Partition::visible_at`]): a
//! damaged version hides every older one from a reader whose pin covers
//! it — a point read errors, a scan skips and counts the key — while a
//! reader pinned before a damaged slot, whose sequence the DRAM index
//! holds, reads its preserved version. A sentinel, and a damaged flash
//! record, whose sequence is among the damaged bytes, hide the key from
//! every reader. A damaged version a write supersedes while snapshots are
//! pinned stays in the history as a marker that refuses the same readers.

use std::sync::Arc;

use prism_flash::{SstEntry, SstFile};
use prism_storage::FaultTier;
use prism_types::{Key, Nanos, PartitionHealth, PrismError};

use super::persist::SlotWrite;
use super::Partition;
use crate::engine::count;

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

/// Result of one scrub pass (see [`crate::PrismDb::scrub`]):
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
pub(super) enum ScrubCursor {
    /// Next NVM index key to verify.
    Nvm(Key),
    /// Flash phase: next file (identified by its minimum key) to verify.
    Flash(Key),
}

impl Partition {
    /// Current health (degraded = read-only until a clean scrub pass).
    pub(crate) fn health(&self) -> PartitionHealth {
        self.durable.health
    }

    /// Count one write refused with `Degraded` (called by the engine
    /// under the partition *read* lock, hence the atomic).
    pub(crate) fn note_degraded_refusal(&self) {
        count(&self.stats.integrity.degraded_write_refusals, 1);
    }

    /// Number of keys currently under a quarantine sentinel.
    pub(crate) fn quarantined_len(&self) -> usize {
        self.durable.quarantined.len()
    }

    pub(super) fn corruption_error(&self, key: &Key) -> PrismError {
        PrismError::Corruption(format!(
            "partition {}: key {key} failed its checksum",
            self.id
        ))
    }

    /// Record one detected checksum failure (readers under the read lock
    /// and writers under the write lock count alike). Called once per
    /// damaged version a read, scan, scrub or recovery observes — never by
    /// [`Partition::resolve_damage`], which settles what was counted.
    pub(super) fn note_checksum_failure(&self) {
        count(&self.stats.integrity.checksum_failures, 1);
        if let Some(plan) = &self.fault {
            plan.note_detected();
        }
    }

    /// Settle a version of `key` that failed its checksum on `tier`: the
    /// one routine behind every damage path (see the module docs). The
    /// cache's entry, which an update refreshes and a delete removes, is
    /// the last committed value. The caller counted the detection.
    pub(crate) fn resolve_damage(&mut self, key: &Key, tier: FaultTier) -> Resolution {
        if tier == FaultTier::Flash && self.volatile.index().contains_key(key) {
            count(&self.stats.integrity.scrub_repairs, 1);
            return Resolution::Shadowed;
        }
        if tier == FaultTier::Nvm {
            let _ = self.free_slot(key);
        }
        if let Some(value) = self.volatile.cache.get(key) {
            let ts = self.seq.allocate();
            if let Ok(cost) = self.write_slot(key, ts, SlotWrite::Value(value)) {
                self.durable.quarantined.remove(key);
                count(&self.stats.integrity.scrub_repairs, 1);
                return Resolution::Repaired(cost);
            }
        }
        if self.durable.quarantined.insert(key.clone()) {
            count(&self.stats.integrity.quarantined_objects, 1);
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
        let Some(entry) = self.volatile.index().get(key) else {
            let corrupt = self.durable.log().lookup(key)?.probe(key).corrupt;
            return corrupt.then_some(FaultTier::Flash);
        };
        let slot = self.durable.slab().peek(entry.addr);
        let damaged = !entry.tombstone && slot.is_none_or(|slot| !slot.verify());
        damaged.then_some(FaultTier::Nvm)
    }

    /// Flip into read-only degraded mode once enough objects are
    /// quarantined.
    pub(super) fn maybe_degrade(&mut self) {
        if self.durable.health == PartitionHealth::Healthy
            && self.durable.quarantined.len() as u64 >= self.options.corruption_quarantine_threshold
        {
            self.durable.health = PartitionHealth::Degraded;
            count(&self.stats.integrity.degraded_entered, 1);
        }
    }

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
            for (key, entry) in self.volatile.index().range(start..) {
                if budget == 0 {
                    resume = Some(key.clone());
                    break;
                }
                report.examined += 1;
                // A dangling index entry counts as corrupt.
                let slot = self.durable.slab().peek(entry.addr);
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
                self.note_checksum_failure();
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
            .log()
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
                self.note_checksum_failure();
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
            let stats = &self.stats.integrity;
            count(&stats.scrub_passes, 1);
            if report.corrupt_found == 0 {
                count(&stats.scrub_clean_passes, 1);
                if self.durable.health == PartitionHealth::Degraded {
                    self.durable.health = PartitionHealth::Healthy;
                    count(&stats.degraded_recovered, 1);
                }
            }
        }
        report
    }
}
