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
//!
//! # Ranges
//!
//! A job works on one candidate range, and the candidate ranges tile the
//! key space one SST file each (the paper's `i` = 1): range `i` is
//! `(fence_{i-1}, fence_i]`, open below at the largest key of the file on
//! its left. A demotion job reads, merges and rewrites exactly the file
//! its range covers, with the NVM objects it demotes from that range.
//!
//! A promotion job demotes only inside its range too, but takes promotion
//! hints from, and rewrites, its left neighbour's file as well. Promotion
//! jobs limited to one file wrote 55 % less to flash on `tier_read_c` but
//! cost 3.1–3.4 % of its `sim_kops` at four seeds, and spans of two to six
//! files that also demoted across the whole span cost 2.1–2.8 %: the
//! neighbour's popular flash objects are worth promoting, its NVM objects
//! are not worth demoting.

use std::collections::HashSet;
use std::iter;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;

use prism_compaction::{
    msc_score, CompactionJob, CompactionPolicy, DemoteEntry, ExecutedJob, JobKind, MergedOrigin,
    RangeStatsBuilder,
};
use prism_flash::{FileId, SstEntry};
use prism_tracker::{PinDecision, PinRule};
use prism_types::{Key, Lane, Nanos, PrismError, Result};

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

/// A candidate range of keys, as a pair of bounds: ranges that tile the
/// key space meet at a fence without sharing it.
type KeyRange = (Bound<Key>, Bound<Key>);

/// The key ids `range` spans, for the bucket map's estimates. An id is a
/// key's first eight bytes, so a range shares the id of its excluded
/// start with the range on its left.
fn id_span(range: &KeyRange) -> (u64, u64) {
    let id = |bound: Bound<&Key>, unbounded| match bound {
        Included(key) | Excluded(key) => key.id(),
        Unbounded => unbounded,
    };
    (id(range.0.as_ref(), 0), id(range.1.as_ref(), u64::MAX))
}

impl Partition {
    /// Candidate compaction key ranges, one per SST file (a range is one
    /// file wide, the paper's `i` = 1): range `i` is `(fence_{i-1},
    /// fence_i]`, the first unbounded below and the last above. The
    /// ranges tile the key space, so NVM keys in the gap between two
    /// files belong to the range on their right, and every key — one
    /// longer than eight `0xFF` bytes too — to exactly one range.
    pub(super) fn candidate_ranges(&self) -> Vec<KeyRange> {
        let fences = self.durable.log().fences();
        let Some((_, inner)) = fences.split_last() else {
            if self.volatile.index().is_empty() {
                return Vec::new();
            }
            return vec![(Unbounded, Unbounded)];
        };
        let starts = iter::once(Unbounded).chain(inner.iter().cloned().map(Excluded));
        let ends = inner
            .iter()
            .cloned()
            .map(Included)
            .chain(iter::once(Unbounded));
        starts.zip(ends).collect()
    }

    /// Score one candidate range according to the configured policy, with
    /// `rule` deciding which NVM objects precise-MSC counts as popular, and
    /// add the planning CPU time to `planning_cost`.
    pub(super) fn score_candidate(
        &self,
        range: &KeyRange,
        rule: &PinRule,
        planning_cost: &mut Nanos,
    ) -> f64 {
        match self.options.compaction.policy {
            CompactionPolicy::Random => 0.0,
            CompactionPolicy::ApproxMsc => {
                *planning_cost += self.cpu.index_op;
                let (start, end) = id_span(range);
                let stats = self.volatile.buckets().estimate(start, end, 0.25);
                msc_score(&stats)
            }
            CompactionPolicy::PreciseMsc => {
                let range = (range.0.as_ref(), range.1.as_ref());
                let mut builder = RangeStatsBuilder::new();
                for (key, _entry) in self.volatile.index().range::<Key, _>(range) {
                    let clock = self.volatile.tracker.clock_of(key);
                    builder.add_nvm_object(clock, rule.decision(clock) == PinDecision::Pin);
                }
                for file in self.durable.log().overlapping(range) {
                    for (key, _) in file.iter().filter(|(key, _)| range.contains(key)) {
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
        let rule = self.pin_rule(kind);
        if plan == DemotionPlan::Everything {
            // Sampled candidates may all have been empty of NVM objects:
            // compact the whole key space once, ignoring popularity.
            return self.plan_range(.., kind, &rule, false, Nanos::ZERO, trigger_fg);
        }
        let mut candidates = self.candidate_ranges();
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
                let score = self.score_candidate(&candidates[i], &rule, &mut planning_cost);
                (i, score)
            })
            .collect();
        let best = self.volatile.planner.select_best(&scored)?;
        let range = candidates.swap_remove(best);
        // Without a read trigger nothing is promoted, by hint or by job.
        let allow_promote = self.volatile.read_trigger.is_some();
        self.plan_range(range, kind, &rule, allow_promote, planning_cost, trigger_fg)
    }

    /// Plan a promotion compaction over the range with the most popular
    /// flash-only objects. Requires the write lock; returns `None` when no
    /// range would promote anything.
    pub(crate) fn plan_promotion(&mut self, trigger_fg: Nanos) -> Option<CompactionJob> {
        if self.durable.log().is_empty() {
            return None;
        }
        let mut candidates = self.candidate_ranges();
        let picked = self
            .volatile
            .planner
            .pick_candidate_indices(candidates.len());
        let scored: Vec<(usize, f64)> = picked
            .iter()
            .map(|&i| {
                let (start, end) = id_span(&candidates[i]);
                let buckets = self.volatile.buckets();
                (i, buckets.popular_flash_only_objects(start, end))
            })
            .collect();
        let best = scored
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| *i)?;
        let range = candidates.swap_remove(best);
        let kind = JobKind::Promotion;
        let rule = self.pin_rule(kind);
        self.plan_range(range, kind, &rule, true, Nanos::ZERO, trigger_fg)
    }

    /// How many objects the slabs hold at the low watermark: their
    /// capacity times the watermark over the mean live slot, or no bound
    /// while they hold nothing to take the mean of.
    fn nvm_held(&self) -> usize {
        let usage = self.durable.slab().usage();
        if usage.live_objects == 0 {
            return usize::MAX;
        }
        let mean_slot = usage.live_bytes as f64 / usage.live_objects as f64;
        (usage.capacity_bytes as f64 * self.options.low_watermark / mean_slot) as usize
    }

    /// The pin rule of a job of `kind`, over one count of the tracker's
    /// clock values, filled hottest class first. A demotion job pins
    /// `Options::pinning_threshold` of what NVM holds
    /// ([`Partition::nvm_held`]), capped at the tracked keys, so the
    /// tracker's size does not set the write path's pin budget. A promotion
    /// job runs in a read-dominated phase, which needs no NVM headroom for
    /// writes: it pins all of what NVM holds, capped at the tracked keys
    /// whose clock is above 0.
    pub(super) fn pin_rule(&self, kind: JobKind) -> PinRule {
        let counts = self.volatile.tracker.clock_counts();
        let (threshold, candidates): (f64, u64) = match kind {
            JobKind::Demotion { .. } => (self.options.pinning_threshold, counts.iter().sum()),
            JobKind::Promotion => (1.0, counts[1..].iter().sum()),
        };
        PinRule::new(counts, threshold, self.nvm_held().min(candidates as usize))
    }

    /// Clone the victim state of `range` into a self-contained
    /// [`CompactionJob`]: the NVM objects to demote (with values), the
    /// SST files the range overlaps, and promotion hints for popular
    /// flash-only objects in those files, both decided by `rule`, the
    /// job's [`Partition::pin_rule`]. A promotion job also sweeps
    /// the file whose largest key is the range's excluded start, its left
    /// neighbour (see the module docs).
    ///
    /// Hints are built only while NVM utilization is below the low
    /// watermark, since [`Partition::install_compaction`] refuses every
    /// promotion at or above it. An inline job installs with no write in
    /// between, so it promotes exactly what it would have with hints. A
    /// pool job planned at or above the watermark promotes nothing, even
    /// if the partition drops below it before the install.
    pub(super) fn plan_range(
        &mut self,
        range: impl RangeBounds<Key>,
        kind: JobKind,
        rule: &PinRule,
        allow_promote: bool,
        planning_cost: Nanos,
        trigger_fg: Nanos,
    ) -> Option<CompactionJob> {
        let range = (range.start_bound(), range.end_bound());
        let force = matches!(kind, JobKind::Demotion { force: true });

        // Select the NVM objects to demote (unpopular ones, or everything
        // in forced mode). Tombstones always participate so they can be
        // merged away.
        let in_range: Vec<(Key, IndexEntry)> = self
            .volatile
            .index()
            .range::<Key, _>(range)
            .map(|(k, e)| (k.clone(), *e))
            .collect();
        let mut demote: Vec<DemoteEntry> = Vec::new();
        for (key, entry) in in_range {
            let pinned = if force || entry.tombstone {
                false
            } else {
                let decision = rule.decision(self.volatile.tracker.clock_of(&key));
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

        let files = match (kind, range) {
            (JobKind::Promotion, (Excluded(fence), end)) => {
                self.durable.log().overlapping((Included(fence), end))
            }
            _ => self.durable.log().overlapping(range),
        };
        if demote.is_empty() && files.is_empty() {
            return None;
        }

        let mut promote_hints: HashSet<Key> = HashSet::new();
        let below_headroom = self.durable.slab().usage().utilization() < self.options.low_watermark;
        if allow_promote && below_headroom {
            for file in &files {
                for (key, entry) in file.iter() {
                    if entry.is_tombstone() || self.volatile.index().contains_key(key) {
                        continue;
                    }
                    if rule.decision(self.volatile.tracker.clock_of(key)) == PinDecision::Pin {
                        promote_hints.insert(key.clone());
                    }
                }
            }
        }

        Some(CompactionJob {
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
    /// still hold every promoted version and the slots every demoted one,
    /// so a promotion that fails with an I/O error frees the slots the job
    /// wrote before it and leaves the partition as it was; between (3) and
    /// (4) a version sits on both tiers, and recovery keeps the slot's. The
    /// flash bits follow the two file lists at (3): a promoted key, a
    /// version that lost its race with a foreground write and a record a
    /// newer slot shadows leave flash with the retired files.
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
            // The install that moved the generation may have retired the
            // job's victims: let go of them and free what no reader holds.
            drop(exec);
            self.reclaim_files();
            return Ok(None);
        }

        let mut duration = exec.duration;
        let mut flash_time = exec.flash_time;
        let mut promoted: Vec<Key> = Vec::new();
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
                                promoted.push(m.key);
                            }
                            Err(PrismError::CapacityExceeded { .. }) => {
                                out.push((m.key, m.version));
                            }
                            Err(err) => {
                                // The old files still hold every version
                                // promoted so far: free their slots, or each
                                // would sit beside its record at the same
                                // sequence after the job is dropped.
                                for key in &promoted {
                                    self.free_slot(key)?;
                                }
                                return Err(err);
                            }
                        }
                    } else {
                        out.push((m.key, m.version));
                    }
                }
            }
        }

        for key in &promoted {
            // NVM serves it now: cheap to refetch.
            self.volatile.cache.reprice(key, Lane::Cheap);
        }

        // The commit point: from here on the log answers every demoted key.
        // The job lets go of its victims first, so the swap frees them.
        let victims: Vec<FileId> = exec.files.iter().map(|file| file.id()).collect();
        drop(exec.files);
        let write_cost = self.swap_files(&victims, out);
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
                demoted += 1;
                // Flash serves it now: dear to refetch if it is popular.
                if self.volatile.tracker.clock_of(key).is_some() {
                    self.volatile.cache.reprice(key, Lane::Dear);
                }
            }
        }

        let outcome = CompactionOutcome {
            duration,
            flash_time,
            demoted,
            promoted: promoted.len() as u64,
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
