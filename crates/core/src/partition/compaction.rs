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

use std::collections::HashSet;

use prism_compaction::{
    msc_score, CompactionJob, CompactionPolicy, DemoteEntry, ExecutedJob, JobKind, MergedOrigin,
    RangeStatsBuilder,
};
use prism_flash::SstEntry;
use prism_tracker::PinDecision;
use prism_types::{Key, Nanos, PrismError, Result};

use super::persist::{IndexEntry, SlotWrite};
use super::Partition;
use crate::engine::count;
use crate::workers::DemotionPlan;

/// Result of one compaction job.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CompactionOutcome {
    pub duration: Nanos,
    pub flash_time: Nanos,
    pub demoted: u64,
    pub promoted: u64,
}

impl Partition {
    /// Candidate compaction key ranges: the key range of each SST file (a
    /// range is one file wide, the paper's `i` = 1), extended at both ends
    /// to cover NVM keys outside any flash file.
    fn candidate_ranges(&self) -> Vec<(Key, Key)> {
        if self.durable.log().is_empty() {
            if self.volatile.index().is_empty() {
                return Vec::new();
            }
            return vec![(Key::min(), Key::from_id(u64::MAX))];
        }
        let fences = self.durable.log().fences();
        let mut ranges = Vec::new();
        // Chain the ranges so together they cover the entire key space:
        // NVM keys that fall in the gap between two flash files belong to
        // the range on their left and can still be demoted.
        let mut start = Key::min();
        for (i, fence) in fences.iter().enumerate() {
            let end = if i + 1 == fences.len() {
                Key::from_id(u64::MAX)
            } else {
                fence.clone()
            };
            ranges.push((start, end.clone()));
            start = end;
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
                let stats = self.volatile.buckets().estimate(start.id(), end.id(), 0.25);
                msc_score(&stats)
            }
            CompactionPolicy::PreciseMsc => {
                let mut builder = RangeStatsBuilder::new();
                let tracked = self.volatile.tracker.len();
                for (key, _entry) in self
                    .volatile
                    .index()
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
                for file in self.durable.log().overlapping(start, end) {
                    for (key, _) in file.range(start, end) {
                        builder.add_flash_object(self.volatile.index().contains_key(key));
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
        if self.durable.log().is_empty() {
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
                        .buckets()
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
    ///
    /// Hints are built only while NVM utilization is below the low
    /// watermark, since [`Partition::install_compaction`] refuses every
    /// promotion at or above it. An inline job installs with no write in
    /// between, so it promotes exactly what it would have with hints. A
    /// pool job planned at or above the watermark promotes nothing, even
    /// if the partition drops below it before the install.
    pub(super) fn plan_range(
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
            .index()
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
                let Some(slot) = self.durable.slab().peek(entry.addr) else {
                    continue;
                };
                // Unverified: a damaged value moves with the checksum it
                // fails, and is caught on flash where it is next read.
                let version = slot.version.clone();
                debug_assert_eq!(version.timestamp, entry.timestamp, "{key:?}");
                demote.push(DemoteEntry { key, version });
            }
        }

        let files = self.durable.log().overlapping(&start, &end);
        if demote.is_empty() && files.is_empty() {
            return None;
        }

        let mut promote_hints: HashSet<u64> = HashSet::new();
        let below_headroom = self.durable.slab().usage().utilization() < self.options.low_watermark;
        if allow_promote && below_headroom {
            for file in &files {
                for (key, entry) in file.iter() {
                    if entry.is_tombstone() || self.volatile.index().contains_key(key) {
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
            generation: self.durable.log().generation(),
            kind,
            trigger_fg,
            demote,
            files,
            promote_hints,
            planning_cost,
        })
    }

    /// True if the live index still carries exactly the planned version of
    /// `key` (foreground writes between plan and install bump the
    /// timestamp or remove the entry).
    fn entry_current(&self, key: &Key, timestamp: u64) -> bool {
        self.volatile
            .index()
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
        if exec.generation != self.durable.log().generation() {
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
                        && !self.volatile.index().contains_key(&m.key)
                        && self.durable.slab().usage().utilization() < nvm_headroom;
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
                    let log = &self.durable.log();
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
        let stats = &self.stats.compaction;
        let fast_time = outcome.duration.saturating_sub(outcome.flash_time);
        count(&stats.jobs, 1);
        count(&stats.total_time, outcome.duration.as_nanos());
        count(&stats.slow_tier_time, outcome.flash_time.as_nanos());
        count(&stats.fast_tier_time, fast_time.as_nanos());
        count(&stats.demoted_objects, outcome.demoted);
        count(&stats.promoted_objects, outcome.promoted);
    }
}
