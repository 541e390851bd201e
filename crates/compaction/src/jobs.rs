//! Compaction jobs as plain `Send` values.
//!
//! Splitting a compaction into *plan → execute → install* lets the
//! expensive middle phase (reading the victim SST files and merge-sorting
//! them against the demoted NVM objects) run without holding the
//! partition's lock — on a dedicated background worker thread, or inline
//! for engines configured without workers. The phases are:
//!
//! 1. **Plan** (under the partition lock): pick the victim key range, clone
//!    out the NVM objects to demote (keys and slot [`Version`]s, *values*
//!    included), snapshot the overlapping SST files (`Arc` clones) and
//!    pre-compute promotion hints. The resulting
//!    [`CompactionJob`] owns everything it needs and is `Send`.
//! 2. **Execute** (no lock): [`execute_job`] merges the two sorted streams
//!    into a [`MergedEntry`] list, tagging each output entry with its
//!    origin so the installer can re-validate it, and charges the flash
//!    read plus merge CPU to the job's duration.
//! 3. **Install** (under the partition lock again): the engine re-checks
//!    each NVM-origin entry against the live index (a foreground write
//!    between plan and install invalidates that entry only), applies
//!    promotions, writes the output files and swaps them into the log.
//!    The output leaves out every record whose key NVM holds at a
//!    strictly newer timestamp: a merge drops the versions a newer one
//!    obsoletes, and here the newer one may stay pinned on NVM instead of
//!    joining the merge. A demoted record carries its slot's timestamp,
//!    so it stays.
//!    A job installs only into the file list it was planned against: if
//!    the log's generation moved (another job installed, or crash
//!    recovery re-installed the list) the whole job is discarded, so a
//!    job's effects are all-or-nothing with respect to the partition's
//!    visible state.
//!
//! No phase reads a value to checksum it. The unit a compaction moves is
//! one [`Version`] — value or tombstone, timestamp and the checksum it was
//! given when it was written — and every phase moves it whole: a demoted
//! slot's version becomes the flash record, a victim-file record is
//! carried over as it is, and a promoted one goes back into a slot as it
//! is. Damage picked up on the way therefore stays damage — a record that
//! fails its checksum before the merge fails it after — and is caught
//! where bytes are trusted: a read, a scan, the recovery scan, the
//! scrubber.

use std::collections::HashSet;
use std::sync::Arc;

use prism_flash::SstFile;
use prism_storage::{CpuCosts, Device};
use prism_types::{Key, Nanos, Version};

/// What a compaction job is trying to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Free NVM space by moving cold objects down to flash. `force`
    /// ignores popularity pins (emergency space reclamation).
    Demotion {
        /// Demote everything in range, ignoring pins.
        force: bool,
    },
    /// Pull popular flash-only objects up to NVM (read-triggered).
    Promotion,
}

/// One NVM object selected for demotion, cloned out under the partition
/// lock so the merge can run without it.
#[derive(Debug, Clone)]
pub struct DemoteEntry {
    /// The object's key.
    pub key: Key,
    /// The slot's version at plan time, which becomes the flash record as
    /// it is (a tombstone leaves no record). The installer only removes
    /// the NVM object if the live index still carries exactly its
    /// timestamp.
    pub version: Version,
}

/// A planned compaction, self-contained and `Send`.
#[derive(Debug, Clone)]
pub struct CompactionJob {
    /// Generation of the partition's sorted log at plan time; install
    /// discards the job if the log has installed anything since.
    pub generation: u64,
    /// What the job does.
    pub kind: JobKind,
    /// Foreground virtual time at which the job was triggered; background
    /// schedulers use it as the earliest virtual start time.
    pub trigger_fg: Nanos,
    /// NVM objects to demote (cloned under the lock), in key order.
    pub demote: Vec<DemoteEntry>,
    /// The overlapping SST files being rewritten.
    pub files: Vec<Arc<SstFile>>,
    /// Keys of flash-only objects the planner decided to promote to NVM
    /// (popularity pin at plan time; capacity is re-checked at install).
    pub promote_hints: HashSet<Key>,
    /// CPU time spent scoring candidate ranges for this job.
    pub planning_cost: Nanos,
}

/// Where a merged output entry came from — the installer re-validates
/// NVM-origin entries against the live index before writing them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergedOrigin {
    /// Demoted from NVM; valid only while the index still holds this
    /// timestamp for the key.
    Nvm {
        /// Timestamp of the demoted version.
        timestamp: u64,
    },
    /// Carried over (or promoted) from the victim flash files.
    Flash {
        /// The planner flagged this object for promotion to NVM.
        promote: bool,
    },
}

/// One entry of the merged output stream.
#[derive(Debug, Clone)]
pub struct MergedEntry {
    /// The key.
    pub key: Key,
    /// The surviving version, as the slot or the victim record held it.
    pub version: Version,
    /// Provenance, for install-time revalidation.
    pub origin: MergedOrigin,
}

/// The result of executing a [`CompactionJob`] outside the partition lock.
#[derive(Debug, Clone)]
pub struct ExecutedJob {
    /// Log generation copied from the job (checked at install).
    pub generation: u64,
    /// The victim files to retire at install, held until then so that
    /// the installer, under the partition lock, lets go of them last.
    pub files: Vec<Arc<SstFile>>,
    /// Planned demotions (metadata only; values live in `merged`). The
    /// installer removes each from NVM only if its timestamp still
    /// matches the live index.
    pub demote: Vec<(Key, u64, bool)>,
    /// Merged output in key order.
    pub merged: Vec<MergedEntry>,
    /// Simulated time consumed so far (planning + flash read + merge CPU);
    /// the installer adds promotion writes and output-file writes.
    pub duration: Nanos,
    /// Portion of `duration` spent on the flash device.
    pub flash_time: Nanos,
}

/// Merge the job's demotion stream against its flash files. Pure with
/// respect to the owning partition: only the simulated flash device's
/// read counters are touched, so a discarded job leaves partition state
/// untouched.
///
/// The merge compares keys and moves versions; it reads no value byte. A
/// demoted object's record is its slot's version and a surviving
/// victim-file record is itself, damaged or not.
pub fn execute_job(job: CompactionJob, cpu: &CpuCosts, flash_dev: &Arc<Device>) -> ExecutedJob {
    let mut duration = job.planning_cost;
    let mut flash_time = Nanos::ZERO;

    let flash_bytes: u64 = job.files.iter().map(|f| f.size_bytes()).sum();
    if flash_bytes > 0 {
        let t = flash_dev.read_sequential(flash_bytes);
        duration += t;
        flash_time += t;
    }
    let flash_len: usize = job.files.iter().map(|f| f.len()).sum();
    duration += cpu.merge_per_object * (job.demote.len() as u64 + flash_len as u64);

    let mut merged: Vec<MergedEntry> = Vec::with_capacity(job.demote.len() + flash_len);
    let mut demoted: Vec<(Key, u64, bool)> = Vec::with_capacity(job.demote.len());
    // The victim files are borrowed, never copied: a record is cloned only
    // if it survives into the output.
    let mut flash = job.files.iter().flat_map(|f| f.iter()).peekable();
    let mut nvm = job.demote.into_iter().peekable();
    loop {
        let take_nvm = match (nvm.peek(), flash.peek()) {
            (Some(d), Some((fk, _))) => d.key <= *fk,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_nvm {
            let d = nvm.next().expect("peeked");
            // The flash version of the same key is stale: drop it by
            // advancing past it.
            flash.next_if(|(fk, _)| *fk == d.key);
            let timestamp = d.version.timestamp;
            demoted.push((d.key.clone(), timestamp, d.version.is_tombstone()));
            // A tombstone leaves no record: the key is deleted everywhere
            // once the merge completes.
            if !d.version.is_tombstone() {
                merged.push(MergedEntry {
                    key: d.key,
                    version: d.version,
                    origin: MergedOrigin::Nvm { timestamp },
                });
            }
        } else {
            let (key, entry) = flash.next().expect("peeked");
            if entry.is_tombstone() {
                // Single-level log: a tombstone with no newer version can
                // be dropped entirely.
                continue;
            }
            merged.push(MergedEntry {
                key: key.clone(),
                version: entry.clone(),
                origin: MergedOrigin::Flash {
                    promote: job.promote_hints.contains(key),
                },
            });
        }
    }
    drop(flash);

    ExecutedJob {
        generation: job.generation,
        files: job.files,
        demote: demoted,
        merged,
        duration,
        flash_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_flash::{FileId, SstBuilder, SstEntry};
    use prism_storage::DeviceProfile;
    use prism_types::Value;

    fn flash() -> Arc<Device> {
        Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)))
    }

    fn file(entries: &[(u64, Option<u8>)], id: FileId, dev: &Arc<Device>) -> Arc<SstFile> {
        let mut builder = SstBuilder::new(id);
        for (kid, fill) in entries {
            let entry = match fill {
                Some(f) => SstEntry::value(Value::filled(64, *f), 1),
                None => SstEntry::tombstone(1),
            };
            builder.add(Key::from_id(*kid), entry);
        }
        let (sst, _) = builder.finish(dev);
        Arc::new(sst)
    }

    fn demote(kid: u64, ts: u64, fill: Option<u8>) -> DemoteEntry {
        let version = match fill {
            Some(f) => Version::value(Value::filled(64, f), ts),
            None => Version::tombstone(ts),
        };
        DemoteEntry {
            key: Key::from_id(kid),
            version,
        }
    }

    fn job(demote: Vec<DemoteEntry>, files: Vec<Arc<SstFile>>) -> CompactionJob {
        CompactionJob {
            generation: 0,
            kind: JobKind::Demotion { force: false },
            trigger_fg: Nanos::ZERO,
            demote,
            files,
            promote_hints: HashSet::new(),
            planning_cost: Nanos::ZERO,
        }
    }

    #[test]
    fn merge_prefers_nvm_versions_and_drops_tombstones() {
        let dev = flash();
        // Flash: 1 (stale value), 2 (tombstone), 4 (live value).
        let f = file(&[(1, Some(9)), (2, None), (4, Some(4))], 1, &dev);
        // NVM: newer 1, tombstone for 4, fresh 3.
        let d = vec![
            demote(1, 7, Some(1)),
            demote(3, 8, Some(3)),
            demote(4, 9, None),
        ];
        let exec = execute_job(job(d, vec![f]), &CpuCosts::default(), &dev);

        let keys: Vec<u64> = exec.merged.iter().map(|m| m.key.id()).collect();
        assert_eq!(keys, vec![1, 3], "stale flash 1 dropped, 4 deleted, 2 gc'd");
        assert!(matches!(
            exec.merged[0].origin,
            MergedOrigin::Nvm { timestamp: 7 }
        ));
        assert_eq!(
            exec.merged[0].version.value.as_ref().unwrap().as_bytes()[0],
            1
        );
        assert!(exec.duration > Nanos::ZERO);
        assert!(exec.flash_time > Nanos::ZERO);
        let victims: Vec<FileId> = exec.files.iter().map(|f| f.id()).collect();
        assert_eq!(victims, vec![1]);
    }

    #[test]
    fn promote_hints_are_tagged_on_flash_survivors() {
        let dev = flash();
        let f = file(&[(10, Some(1)), (11, Some(2))], 2, &dev);
        let mut j = job(Vec::new(), vec![f]);
        j.promote_hints.insert(Key::from_id(11));
        let exec = execute_job(j, &CpuCosts::default(), &dev);
        assert_eq!(exec.merged.len(), 2);
        assert_eq!(
            exec.merged[0].origin,
            MergedOrigin::Flash { promote: false }
        );
        assert_eq!(exec.merged[1].origin, MergedOrigin::Flash { promote: true });
    }

    /// The merge carries checksums, it does not compute them: every output
    /// record holds, bit for bit, the checksum of the version it came from
    /// — the slot's for a demoted object, the record's own for a victim
    /// one. So a record damaged on flash and an object damaged in its slot
    /// both come out failing, next to clean neighbours that pass, and a
    /// damaged record shadowed by a demotion never reaches the output.
    #[test]
    fn a_checksum_failing_record_is_carried_verbatim_by_the_merge() {
        use prism_storage::{FaultMode, FaultOp, FaultPlan, FaultTier, TargetedFault};

        let plan = Arc::new(FaultPlan::new(5));
        let dev = Arc::new(Device::with_faults(
            DeviceProfile::qlc_flash(1 << 30),
            plan.clone(),
            FaultTier::Flash,
        ));
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        let f = file(&[(1, Some(1)), (2, Some(2)), (3, Some(3))], 1, &dev);
        let damaged = f.corrupt_keys();
        assert_eq!(damaged.len(), 1, "the armed flip hit one record");

        // An object whose slot bytes were damaged after its checksum was
        // taken, beside a clean one.
        let mut torn = demote(6, 9, Some(6));
        torn.version.value = Some(Value::filled(63, 6));
        let demoted = [demote(5, 9, Some(5)), torn];
        let exec = execute_job(
            job(demoted.to_vec(), vec![f.clone()]),
            &CpuCosts::default(),
            &dev,
        );
        assert_eq!(exec.merged.len(), 5);
        for m in &exec.merged {
            let (checksum, value) = match m.origin {
                MergedOrigin::Nvm { .. } => {
                    let d = demoted.iter().find(|d| d.key == m.key).expect("demoted");
                    (d.version.checksum, d.version.value.clone())
                }
                MergedOrigin::Flash { .. } => {
                    let (_, record) = f.iter().find(|(k, _)| *k == m.key).expect("victim");
                    (record.checksum, record.value.clone())
                }
            };
            assert_eq!(m.version.checksum, checksum, "{:?}", m.key);
            assert_eq!(m.version.value, value, "{:?}", m.key);
        }
        let failing: Vec<u64> = exec
            .merged
            .iter()
            .filter(|m| !m.version.verify())
            .map(|m| m.key.id())
            .collect();
        assert_eq!(failing, [damaged[0].id(), 6]);

        let shadow = demote(damaged[0].id(), 9, Some(7));
        let exec = execute_job(job(vec![shadow], vec![f]), &CpuCosts::default(), &dev);
        assert_eq!(exec.merged.len(), 3);
        assert!(exec.merged.iter().all(|m| m.version.verify()));
    }

    #[test]
    fn jobs_are_send_values() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<CompactionJob>();
        assert_send::<ExecutedJob>();
    }
}
