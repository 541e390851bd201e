use super::*;
use crate::engine::EngineShared;
use crate::workers::DemotionPlan;
use prism_compaction::{execute_job, CompactionPolicy, ExecutedJob, JobKind};
use prism_flash::SstEntry;
use prism_storage::{DeviceProfile, FaultOp, FaultTier};
use prism_tracker::{PinDecision, PinRule, MAX_CLOCK};
use prism_types::{BatchOp, Lane, Lookup, PrismError, ReadSource};
use std::collections::HashSet;
use std::ops::Bound::Unbounded;
use std::ops::RangeBounds;
use std::sync::RwLockWriteGuard;

impl Partition {
    /// Point lookup without the drain-pressure signal (the engine always
    /// wants both; unit tests usually just want the lookup).
    pub(super) fn get(&self, key: &Key) -> Result<Lookup> {
        Ok(self.get_with_pressure(key)?.0)
    }
}

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
pub(super) fn engine(keys: u64) -> EngineShared {
    let options = small_options(keys);
    let storage = TieredStorage::new(
        DeviceProfile::optane_nvm(options.nvm_capacity_bytes),
        DeviceProfile::qlc_flash(options.flash_capacity_bytes),
    );
    EngineShared::new(options, storage).unwrap()
}

pub(super) fn partition(engine: &EngineShared) -> RwLockWriteGuard<'_, Partition> {
    engine.write_partition(0)
}

pub(super) fn put(
    engine: &EngineShared,
    p: &mut Partition,
    key: Key,
    value: Value,
) -> Result<Nanos> {
    write(engine, p, BatchOp::Put(key, value))
}

pub(super) fn delete(engine: &EngineShared, p: &mut Partition, key: &Key) -> Result<Nanos> {
    write(engine, p, BatchOp::Delete(key.clone()))
}

/// One client write, a one-entry group, as `PrismDb::put` and
/// `PrismDb::delete` send it.
fn write(engine: &EngineShared, p: &mut Partition, op: BatchOp) -> Result<Nanos> {
    engine.write_held(0, p, 1, |p, reclaim| {
        let seq = p.seq.allocate();
        p.apply_group(vec![op], seq, reclaim)
    })
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

/// A put over a cached key replaces the cached value and pays what a
/// read fill pays: `dram_hit` on its latency, `index_op + dram_hit` on
/// its sub-shard's serial tally. A put over an uncached key pays neither.
#[test]
fn a_put_over_a_cached_key_is_charged_as_a_fill() {
    // One key: every charge lands on its sub-shard, the busiest.
    let put_cost = |cached: bool| {
        let engine = engine(1000);
        let mut p = partition(&engine);
        let key = Key::from_id(4);
        put(&engine, &mut p, key.clone(), Value::filled(300, 1)).unwrap();
        if cached {
            p.get(&key).unwrap();
        }
        let serial = p.read_serial_busiest_ns();
        let cost = put(&engine, &mut p, key.clone(), Value::filled(300, 2)).unwrap();
        let serial = p.read_serial_busiest_ns() - serial;
        let got = p.get(&key).unwrap();
        assert_eq!(got.value.unwrap().as_bytes()[0], 2);
        assert_eq!(got.source == ReadSource::Dram, cached);
        (cost, serial, p.cpu)
    };
    let (uncached, uncached_serial, cpu) = put_cost(false);
    let (cached, cached_serial, _) = put_cost(true);
    assert_eq!(cached, uncached + cpu.dram_hit);
    assert_eq!(uncached_serial, 0);
    assert_eq!(cached_serial, (cpu.index_op + cpu.dram_hit).as_nanos());
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
    assert!(p.stats.snapshot().compaction.jobs > 0);
    assert!(p.stats.snapshot().compaction.demoted_objects > 0);
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
        .find(|id| !p.volatile.index().contains_key(&Key::from_id(*id)))
        .expect("some key lives only on flash");
    delete(&engine, &mut p, &Key::from_id(victim)).unwrap();
    let got = p.get(&Key::from_id(victim)).unwrap();
    assert!(got.value.is_none(), "deleted key must not be readable");
    // Deleting an NVM-only key removes it immediately.
    let nvm_key = (0..keys)
        .find(|id| {
            p.volatile
                .index()
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
    p.scan_pull(&mut cursor, u64::MAX, 50);
    assert_eq!(cursor.frontier(), Some(&Key::from_id(150)));
    assert_eq!(cursor.resolved, 0, "nothing is charged before it is taken");
    cursor.take_all(&mut entries);
    assert_eq!(ids(&entries), (100..150).collect::<Vec<u64>>());
    // Only what was taken was read, and it is charged once.
    assert_eq!((cursor.resolved, cursor.emitted), (50, 50));
    let on_flash = cursor.flash_bytes / 1008;
    assert_eq!(cursor.flash_bytes % 1008, 0);
    assert_eq!(cursor.nvm_reads + on_flash, 50);
    let before = (p.nvm_dev.counters().as_tier_io(), p.fg());
    let charge = p.scan_charge(&mut cursor);
    let nvm = p.nvm_dev.counters().as_tier_io().delta_since(before.0);
    assert_eq!(nvm.reads, (cursor.nvm_reads > 0) as u64);
    assert_eq!(nvm.bytes_read, 4096 * cursor.nvm_reads.div_ceil(4));
    // The CPU part is the request, the seek and the merge; the device
    // part is the rest, and the clock advances by both.
    let cpu = p.cpu.request_overhead + p.cpu.index_op + p.cpu.merge_per_object * 50;
    assert_eq!(charge.cpu, cpu);
    assert!(charge.device > Nanos::ZERO);
    assert_eq!(p.fg(), before.1 + charge.cpu + charge.device);
    assert_eq!(p.stats.snapshot().scan_entries_resolved, 50);
    assert_eq!(p.stats.snapshot().scan_entries_returned, 50);
}

#[test]
fn a_cursor_stops_at_its_bound_and_runs_out_at_the_end() {
    let engine = engine(3_000);
    let p = loaded_for_scans(&engine, 3_000);
    let mut cursor = ScanCursor::new(&Key::from_id(2_990));
    let mut entries = Vec::new();
    // The limit counts keys; the pull parks on the first one it leaves.
    p.scan_pull(&mut cursor, u64::MAX, 4);
    cursor.take_all(&mut entries);
    assert_eq!(ids(&entries), vec![2_990, 2_991, 2_992, 2_993]);
    assert_eq!(cursor.frontier(), Some(&Key::from_id(2_994)));
    // A pull with no room reads nothing.
    p.scan_pull(&mut cursor, u64::MAX, 0);
    cursor.take_all(&mut entries);
    assert_eq!((entries.len(), cursor.resolved), (4, 4));
    assert_eq!(cursor.frontier(), Some(&Key::from_id(2_994)));
    p.scan_pull(&mut cursor, u64::MAX, 50);
    cursor.take_all(&mut entries);
    assert_eq!(ids(&entries), (2_990..3_000).collect::<Vec<u64>>());
    assert_eq!(cursor.frontier(), None);
    p.scan_pull(&mut cursor, u64::MAX, 50);
    cursor.take_all(&mut entries);
    assert_eq!(entries.len(), 10, "an exhausted cursor stays exhausted");
}

#[test]
fn a_cursor_resumed_after_a_full_demotion_neither_repeats_nor_drops_a_key() {
    let engine = engine(3_000);
    let mut p = loaded_for_scans(&engine, 3_000);
    // The newest keys are still on NVM; start the scan among them.
    let first = (0..3_000)
        .rev()
        .take_while(|id| p.volatile.index().contains_key(&Key::from_id(*id)))
        .last()
        .expect("the last key written is on NVM");
    assert!(first < 2_960, "need a run of NVM keys to scan across");
    let pinned = p.seq.pin();
    let mut cursor = ScanCursor::new(&Key::from_id(first));
    let mut entries = Vec::new();
    p.scan_pull(&mut cursor, pinned, 10);
    cursor.take_all(&mut entries);
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

    p.scan_pull(&mut cursor, pinned, 30);
    cursor.take_all(&mut entries);
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
            .log()
            .lookup(&key)
            .is_some_and(|f| f.probe(&key).entry.is_some());
        (p.volatile.index().contains_key(&key), flash)
    };
    assert_eq!(on(3), (true, true));
    assert_eq!(on(4), (false, true));
    assert_eq!(on(2_998), (true, false));
    assert!(p
        .volatile
        .index()
        .get(&Key::from_id(7))
        .is_some_and(|e| e.tombstone));

    let start = Key::min();
    let mut whole = Vec::new();
    let mut cursor = ScanCursor::new(&start);
    p.scan_pull(&mut cursor, pinned, usize::MAX);
    cursor.take_all(&mut whole);
    assert!(whole.len() > 2_500 && whole.len() < 3_000);

    let check_park = |cursor: &ScanCursor| match cursor.frontier() {
        Some(frontier) => assert_eq!(
            cursor.flash,
            Some(p.durable.log().seek(frontier)),
            "{frontier:?}"
        ),
        None => assert_eq!(cursor.flash, None),
    };
    for step in [1, 2, 3, 7] {
        let mut cursor = ScanCursor::new(&start);
        let mut entries = Vec::new();
        while cursor.frontier().is_some() {
            p.scan_pull(&mut cursor, pinned, step);
            check_park(&cursor);
            cursor.take_all(&mut entries);
        }
        assert_eq!(entries, whole, "pulled {step} keys at a time");
    }
    // Limits that change from pull to pull, as the engine's refills do.
    let mut cursor = ScanCursor::new(&start);
    let mut entries = Vec::new();
    for limit in (1..10).cycle() {
        if cursor.frontier().is_none() {
            break;
        }
        p.scan_pull(&mut cursor, pinned, limit);
        check_park(&cursor);
        cursor.take_all(&mut entries);
    }
    assert_eq!(entries, whole);
    p.seq.release(pinned);
}

/// A cursor holds the flash files of the records it pulled until it is
/// charged, so a file an install retires under it stays charged to the
/// device and readable; the cursor lets go of it under the write lock,
/// where the log reclaims it, and the device is charged for the log again.
#[test]
fn a_cursor_lets_go_of_a_file_an_install_retired_under_it() {
    let engine = engine(3_000);
    let mut p = loaded_for_scans(&engine, 3_000);
    let mut cursor = ScanCursor::new(&Key::min());
    p.scan_pull(&mut cursor, u64::MAX, 10);
    assert!(cursor.holds_files(), "the oldest keys are on flash");
    // Newer versions of the first keys, merged into the file the cursor
    // reads: the install retires it.
    for id in 0..5 {
        put(&engine, &mut p, Key::from_id(id), Value::filled(300, 7)).unwrap();
    }
    demote_everything(&mut p);
    assert!(p.durable.log().has_retired());
    assert_eq!(p.flash_dev.used_bytes(), p.flash_bytes_held());

    let mut entries = Vec::new();
    cursor.take_all(&mut entries);
    assert_eq!(ids(&entries), (0..10).collect::<Vec<u64>>());
    assert_eq!(entries[0].1, Value::filled(1000, 0), "the pulled version");
    p.scan_charge(&mut cursor);
    assert!(
        cursor.holds_files(),
        "a retired file is let go of only here"
    );
    p.scan_release(&mut cursor);
    assert!(!cursor.holds_files() && !p.durable.log().has_retired());
    assert_eq!(p.flash_dev.used_bytes(), p.flash_bytes_held());
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
    let stats = p.stats.snapshot();
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
    let stats = p.stats.snapshot().compaction;
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

/// A pull reads no record: a damaged version is counted only when the
/// merge takes its key — once, when the cursor is charged — and the key
/// is skipped, while one a pull resolved past where the scan ended is
/// dropped unseen. On both tiers.
#[test]
fn a_cursor_counts_damage_only_when_the_merge_takes_it() {
    for tier in [FaultTier::Nvm, FaultTier::Flash] {
        let keys = 1_000u64;
        let plan = Arc::new(FaultPlan::new(0x5EE));
        let engine = faulted_engine(keys, &plan);
        let mut p = partition(&engine);
        for id in 0..keys / 4 {
            put(&engine, &mut p, Key::from_id(id), Value::filled(700, 1)).unwrap();
        }
        // A slot damaged on NVM, demoted as it is for the flash case.
        let damaged = Key::from_id(keys / 8);
        arm_write_flip(&plan, FaultTier::Nvm);
        put(&engine, &mut p, damaged.clone(), Value::filled(700, 2)).unwrap();
        if tier == FaultTier::Flash {
            demote_everything(&mut p);
            assert_eq!(failing_records(&p), std::slice::from_ref(&damaged));
        }
        let id = damaged.id();
        let seen = || {
            let failures = p.stats.snapshot().integrity.checksum_failures;
            (failures, plan.snapshot().detected)
        };

        // The scan ends on the key before the damaged one: the pull went
        // past it, the merge did not.
        let mut cursor = ScanCursor::new(&Key::from_id(id - 5));
        let mut entries = Vec::new();
        p.scan_pull(&mut cursor, u64::MAX, 10);
        for _ in 0..5 {
            let (key, value) = cursor.take().expect("buffered");
            entries.extend(value.map(|value| (key, value)));
        }
        p.scan_charge(&mut cursor);
        assert_eq!(ids(&entries), (id - 5..id).collect::<Vec<u64>>());
        assert_eq!(seen(), (0, 0), "{tier:?}: resolved, never read");
        assert_eq!(p.stats.snapshot().scan_entries_resolved, 5);

        // A scan that takes the damaged key counts it once and skips it.
        let mut cursor = ScanCursor::new(&Key::from_id(id - 5));
        let mut entries = Vec::new();
        p.scan_pull(&mut cursor, u64::MAX, 8);
        cursor.take_all(&mut entries);
        p.scan_charge(&mut cursor);
        assert_eq!(seen(), (1, 1), "{tier:?}: counted once");
        let skipped: Vec<u64> = (id - 5..id + 3).filter(|i| *i != id).collect();
        assert_eq!(
            ids(&entries),
            skipped,
            "{tier:?}: the damaged key is skipped"
        );
    }
}

/// Plan, execute and install a demotion of every NVM object.
pub(super) fn demote_everything(p: &mut Partition) {
    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let job = p.plan_demotion(DemotionPlan::Everything, fg).expect("job");
    p.install_compaction(execute_job(job, &cpu, &dev))
        .unwrap()
        .expect("nothing installed since the plan");
}

/// A delete that must shadow a flash version writes its tombstone before
/// it frees the key's newer slot: when that write fails, the slot still
/// answers and the older flash version stays hidden.
#[test]
fn a_failed_tombstone_write_keeps_the_newer_slot() {
    let plan = Arc::new(FaultPlan::new(0xDE1));
    let engine = faulted_engine(1_000, &plan);
    let mut p = partition(&engine);
    let key = Key::from_id(5);
    put(&engine, &mut p, key.clone(), Value::filled(300, 1)).unwrap();
    demote_everything(&mut p);
    put(&engine, &mut p, key.clone(), Value::filled(300, 2)).unwrap();
    plan.arm(prism_storage::TargetedFault {
        tier: FaultTier::Nvm,
        partition: None,
        op: FaultOp::Write,
        mode: prism_storage::FaultMode::IoError,
    });
    let failed = delete(&engine, &mut p, &key);
    assert!(matches!(failed, Err(PrismError::Io(_))), "{failed:?}");
    let got = p.get(&key).unwrap();
    assert_eq!(got.source, ReadSource::Nvm);
    assert_eq!(got.value.unwrap().as_bytes()[0], 2);
    p.check_invariants().unwrap();

    delete(&engine, &mut p, &key).unwrap();
    assert!(p.get(&key).unwrap().value.is_none());
    assert_eq!(
        p.volatile.index().get(&key).map(|e| e.tombstone),
        Some(true)
    );
    p.check_invariants().unwrap();
}

/// The flash record of `key`.
fn flash_record(p: &Partition, key: &Key) -> SstEntry {
    let file = p.durable.log().lookup(key).expect("on flash");
    file.range(key, key).next().expect("held").1.clone()
}

/// The flash records that fail their checksums.
fn failing_records(p: &Partition) -> Vec<Key> {
    p.durable
        .log()
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
    let rule = p.pin_rule(force);
    let other = p
        .plan_range(fresh.clone()..=fresh, force, &rule, false, Nanos::ZERO, fg)
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
    let stats = p.stats.snapshot().integrity;
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
        .index()
        .iter()
        .map(|(key, entry)| {
            let slot = p.durable.slab().peek(entry.addr).expect("live slot");
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
        !p.volatile.index().contains_key(&victim),
        "demoted unverified"
    );
    assert_eq!(failing_records(&p), std::slice::from_ref(&victim));
    assert_eq!(p.stats.snapshot().integrity.checksum_failures, 0);
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
    let rule = p.pin_rule(force);
    let range = victim.clone()..=victim.clone();
    let mut job = p
        .plan_range(range, force, &rule, false, Nanos::ZERO, fg)
        .expect("job");
    job.promote_hints.insert(victim.clone());
    let outcome = p
        .install_compaction(execute_job(job, &cpu, &dev))
        .unwrap()
        .expect("installs");
    assert_eq!(outcome.promoted, 1);

    let slot = p
        .durable
        .slab()
        .peek(p.volatile.index().get(victim).expect("promoted").addr)
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
        (p.stats.snapshot(), tiers, p.flash_dev.used_bytes())
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
    assert!(p.stats.snapshot().compaction.jobs > 0);
    let listed = |p: &Partition| {
        p.durable
            .log()
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
    let reader = p.durable.log().files()[0].clone();
    let held = reader.size_bytes();
    rewrite_everything(&mut p);
    assert!(p
        .durable
        .log()
        .files()
        .iter()
        .all(|f| !Arc::ptr_eq(f, &reader)));
    assert_eq!(dev.used_bytes(), listed(&p) + held);
    drop(reader);
    assert_eq!(dev.used_bytes(), listed(&p) + held);
    rewrite_everything(&mut p);
    assert_eq!(dev.used_bytes(), listed(&p));
}

/// Keys `0..100`, 300 bytes filled with 1, written and demoted: each has a
/// flash record and no slot.
fn loaded_on_flash(engine: &EngineShared, p: &mut Partition) {
    for id in 0..100 {
        put(engine, p, Key::from_id(id), Value::filled(300, 1)).unwrap();
    }
    demote_everything(p);
    assert_eq!((p.nvm_object_count(), p.flash_object_count()), (0, 100));
}

/// Update key 7 of [`loaded_on_flash`] to a value filled with 2, then
/// rewrite its file in a demotion job that pins every tracked key, so the
/// key, which the put admitted, stays on NVM and its old record goes.
fn shadow_and_rewrite(engine: &EngineShared, p: &mut Partition) -> Key {
    let key = Key::from_id(7);
    put(engine, p, key.clone(), Value::filled(300, 2)).unwrap();
    let kind = JobKind::Demotion { force: false };
    let rule = PinRule::new(p.clock_histogram(), 1.0, usize::MAX);
    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let range = key.clone()..=key.clone();
    let job = p.plan_range(range, kind, &rule, false, Nanos::ZERO, fg);
    let job = job.expect("the range covers a file");
    assert!(job.demote.is_empty(), "{key:?} stays pinned");
    p.install_compaction(execute_job(job, &cpu, &dev))
        .unwrap()
        .expect("nothing installed since the plan");
    assert_eq!(p.flash_object_count(), 99, "the old record is left out");
    key
}

fn first_byte(value: Option<Value>) -> u8 {
    value.expect("a value").as_bytes()[0]
}

/// A file rewrite leaves out the record of a key NVM holds at a newer
/// timestamp: after an update of a flash-resident key, a demotion over
/// its range that keeps it pinned drops its old record, and a get reads
/// the new value.
#[test]
fn a_rewrite_leaves_out_a_record_its_keys_newer_slot_shadows() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    loaded_on_flash(&engine, &mut p);
    let key = shadow_and_rewrite(&engine, &mut p);
    assert_eq!(p.nvm_object_count(), 1);
    assert_eq!(first_byte(p.get(&key).unwrap().value), 2);
    assert_eq!(p.check_invariants(), Ok(()));
}

/// A snapshot pinned before the update reads the value it superseded
/// from the history, which the update filled, once the old record has
/// left flash.
#[test]
fn a_snapshot_pinned_before_an_update_reads_the_old_value_after_the_rewrite() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    loaded_on_flash(&engine, &mut p);
    let pin = p.seq.pin();
    let key = shadow_and_rewrite(&engine, &mut p);
    assert_eq!(first_byte(p.snapshot_get(&key, pin).unwrap().0), 1);
    assert_eq!(first_byte(p.get(&key).unwrap().value), 2);
    p.seq.release(pin);
}

/// A crash after the rewrite rebuilds the index from the slot that holds
/// the update: the get after recovery reads the new value.
#[test]
fn a_crash_after_the_rewrite_keeps_the_new_value() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    loaded_on_flash(&engine, &mut p);
    let key = shadow_and_rewrite(&engine, &mut p);
    p.crash_and_recover();
    assert_eq!(p.flash_object_count(), 99);
    assert_eq!(first_byte(p.get(&key).unwrap().value), 2);
}

/// Once the old record is gone, damage to the key's slot with the key out
/// of the cache leaves no clean copy: the key goes under a sentinel, and
/// a get errors — before and after a crash — instead of returning an
/// older value.
#[test]
fn a_damaged_slot_over_a_dropped_record_quarantines_its_key() {
    let plan = Arc::new(FaultPlan::new(0x5AD));
    let engine = faulted_engine(1_000, &plan);
    let mut p = partition(&engine);
    loaded_on_flash(&engine, &mut p);
    let key = shadow_and_rewrite(&engine, &mut p);
    arm_write_flip(&plan, FaultTier::Nvm);
    put(&engine, &mut p, key.clone(), Value::filled(300, 3)).unwrap();
    let cached = p.volatile.cache.get(&key);
    assert!(cached.is_none(), "never read, never cached");
    assert!(matches!(p.get(&key), Err(PrismError::Corruption(_))));
    assert_eq!(
        p.resolve_damage(&key, FaultTier::Nvm),
        Resolution::Quarantined
    );
    assert!(matches!(p.get(&key), Err(PrismError::Corruption(_))));
    p.crash_and_recover();
    assert!(matches!(p.get(&key), Err(PrismError::Corruption(_))));
}

/// A demoted record carries its slot's timestamp, which the index still
/// holds when the files are swapped in: equal is not newer, so every
/// record stays.
#[test]
fn a_demoted_record_carries_its_slots_timestamp_and_stays() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    for id in 0..100 {
        put(&engine, &mut p, Key::from_id(id), Value::filled(300, 1)).unwrap();
    }
    let slots: Vec<(Key, u64)> = p
        .volatile
        .index()
        .iter()
        .map(|(key, slot)| (key.clone(), slot.timestamp))
        .collect();
    demote_everything(&mut p);
    assert_eq!(p.flash_object_count(), 100);
    for (key, timestamp) in slots {
        assert_eq!(flash_record(&p, &key).timestamp, timestamp, "{key:?}");
    }
}

/// The scrub's rewrite of a file with a damaged record leaves out a
/// record a newer slot shadows too.
#[test]
fn a_scrub_rewrite_leaves_out_a_shadowed_record() {
    let plan = Arc::new(FaultPlan::new(0x5CB));
    let engine = faulted_engine(1_000, &plan);
    let mut p = partition(&engine);
    for id in 0..100 {
        put(&engine, &mut p, Key::from_id(id), Value::filled(300, 1)).unwrap();
    }
    arm_write_flip(&plan, FaultTier::Flash);
    demote_everything(&mut p);
    let damaged = failing_records(&p);
    assert_eq!(damaged.len(), 1, "the armed flip hit one record");
    let file = p.durable.log().lookup(&damaged[0]).expect("a file");
    let neighbour = file.iter().find(|(key, _)| *key != damaged[0]);
    let key = neighbour.expect("two records").0.clone();
    put(&engine, &mut p, key.clone(), Value::filled(300, 2)).unwrap();

    let report = p.scrub_pass(u64::MAX);
    assert!(report.completed);
    assert_eq!(report.corrupt_found, 1);
    assert_eq!(p.flash_object_count(), 98, "the damaged and the shadowed");
    assert_eq!(first_byte(p.get(&key).unwrap().value), 2);
    assert_eq!(p.check_invariants(), Ok(()));
}

/// A promotion that fails with an I/O error frees the slots its job had
/// already promoted: the old files still hold those versions, and a slot
/// left beside its record at the same sequence would outlive the dropped
/// job. A latency spike takes the first promotion's write, the error the
/// second's.
#[test]
fn a_promotion_failing_mid_job_frees_the_slots_it_already_wrote() {
    let plan = Arc::new(FaultPlan::new(0x10E));
    let engine = faulted_engine(1_000, &plan);
    let mut p = partition(&engine);
    loaded_on_flash(&engine, &mut p);
    let (first, second) = (Key::from_id(3), Key::from_id(4));
    let kind = JobKind::Demotion { force: true };
    let rule = p.pin_rule(kind);
    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let range = first.clone()..=second.clone();
    let mut job = p
        .plan_range(range, kind, &rule, false, Nanos::ZERO, fg)
        .expect("the range covers a file");
    job.promote_hints.extend([first.clone(), second.clone()]);
    for mode in [
        prism_storage::FaultMode::LatencySpike,
        prism_storage::FaultMode::IoError,
    ] {
        plan.arm(prism_storage::TargetedFault {
            tier: FaultTier::Nvm,
            partition: None,
            op: FaultOp::Write,
            mode,
        });
    }
    let installed = p.install_compaction(execute_job(job, &cpu, &dev));
    assert!(matches!(installed, Err(PrismError::Io(_))), "{installed:?}");
    assert_eq!(plan.snapshot().io_errors, 1);
    assert_eq!((p.nvm_object_count(), p.flash_object_count()), (0, 100));
    assert_eq!(p.check_invariants(), Ok(()));
    for key in [first, second] {
        assert_eq!(first_byte(p.get(&key).unwrap().value), 1);
    }
}

/// Every slot write, slot free and file swap moves the index and the
/// bucket map's residency bits with it, so the partition's invariants —
/// the index and the bits a crash would rebuild from its slabs and files —
/// hold, and the crash that follows rebuilds them: after inline demotions
/// and a promotion, after a demoted version loses its install race to a
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
        let kept = p.check_invariants().map_err(|v| format!("{after}: {v}"));
        let rebuilt = kept.and_then(|()| {
            p.crash_and_recover();
            p.check_invariants()
                .map_err(|v| format!("{after}, rebuilt: {v}"))
        });
        drifted.extend(rebuilt.err());
    };
    let (cpu, dev) = (p.cpu, p.flash_dev.clone());

    for id in 0..keys {
        put(&engine, &mut p, Key::from_id(id), Value::filled(900, 1)).unwrap();
    }
    assert!(p.stats.snapshot().compaction.jobs > 0);
    let flash_only = |p: &Partition| {
        let mut ids = (0..keys).map(Key::from_id);
        ids.find(|key| !p.volatile.index().contains_key(key))
            .expect("inline demotions left a key on flash only")
    };
    let promoted = flash_only(&p);
    let force = JobKind::Demotion { force: true };
    let (range, rule, fg) = (
        promoted.clone()..=promoted.clone(),
        p.pin_rule(force),
        p.fg(),
    );
    let mut job = p
        .plan_range(range, force, &rule, false, Nanos::ZERO, fg)
        .expect("job");
    job.promote_hints.insert(promoted.clone());
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
        .log()
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

/// The cache's lane follows what a refetch would cost: a read NVM serves
/// fills the cheap lane, a flash read of a key the tracker tracks fills
/// the dear lane and one of a key it does not track the cheap lane; an
/// install moves a cached promoted key to the cheap lane and a cached,
/// tracked demoted key to the dear lane.
#[test]
fn cache_lanes_follow_the_refetch_price() {
    let keys = 1_000u64;
    let engine = engine(keys);
    let mut p = partition(&engine);
    // Twice the 200 keys the tracker holds, so some are not tracked.
    let written = 400;
    for id in 0..written {
        put(&engine, &mut p, Key::from_id(id), Value::filled(700, 1)).unwrap();
    }
    let ids = || (0..written).map(Key::from_id);
    let tracked = |p: &Partition, key: &Key| p.volatile.tracker.clock_of(key).is_some();
    let nvm_read = ids().find(|key| tracked(&p, key)).expect("a tracked key");
    let lookup = p.get(&nvm_read).unwrap();
    assert_eq!(lookup.source, ReadSource::Nvm);
    assert_eq!(p.volatile.cache.lane_of(&nvm_read), Some(Lane::Cheap));

    demote_everything(&mut p);
    assert_eq!(
        p.volatile.cache.lane_of(&nvm_read),
        Some(Lane::Dear),
        "a tracked key demoted while cached"
    );
    let popular = ids().find(|key| *key != nvm_read && tracked(&p, key));
    let tail = ids().find(|key| !tracked(&p, key));
    let (popular, tail) = (popular.expect("tracked"), tail.expect("untracked"));
    for (key, lane) in [(&popular, Lane::Dear), (&tail, Lane::Cheap)] {
        assert_eq!(p.get(key).unwrap().source, ReadSource::Flash);
        assert_eq!(p.volatile.cache.lane_of(key), Some(lane), "{key:?}");
    }

    // Promote the popular key through a hint, as a demotion over its
    // range would.
    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let force = JobKind::Demotion { force: true };
    let rule = p.pin_rule(force);
    let range = popular.clone()..=popular.clone();
    let mut job = p
        .plan_range(range, force, &rule, false, Nanos::ZERO, fg)
        .expect("job");
    job.promote_hints.insert(popular.clone());
    let outcome = p
        .install_compaction(execute_job(job, &cpu, &dev))
        .unwrap()
        .expect("installs");
    assert_eq!(outcome.promoted, 1);
    assert_eq!(p.volatile.cache.lane_of(&popular), Some(Lane::Cheap));
    assert_eq!(p.get(&popular).unwrap().source, ReadSource::Dram);
    assert_eq!(p.check_invariants(), Ok(()));
}

fn tracked(p: &Partition, key: &Key) -> bool {
    p.volatile.tracker.clock_of(key).is_some()
}

/// Keys `0..written` after `written` puts of 300 bytes that the tracker
/// (capacity 200) no longer tracks.
fn untracked_after(engine: &EngineShared, p: &mut Partition, written: u64) -> Vec<Key> {
    for id in 0..written {
        put(engine, p, Key::from_id(id), Value::filled(300, 1)).unwrap();
    }
    let keys = (0..written).map(Key::from_id);
    keys.filter(|key| !tracked(p, key)).collect()
}

/// Keys `0..400`, written as [`untracked_after`] does, that the tracker
/// no longer tracks and whose puts have faded from the sketch: one
/// halving period of reads of a tracked key came after them.
fn faded_untracked(engine: &EngineShared, p: &mut Partition) -> Vec<Key> {
    let untracked = untracked_after(engine, p, 400);
    let hot = Key::from_id(399);
    assert!(tracked(p, &hot));
    for _ in 0..10 * p.volatile.tracker.capacity() {
        p.get(&hot).unwrap();
    }
    untracked
}

/// One found read and the drain after it.
fn read_once(p: &mut Partition, key: &Key) {
    assert!(p.get(key).unwrap().value.is_some());
    p.apply_read_side();
}

/// A read admits a key the sketch counts at least twice. A key whose put
/// has faded from the sketch stays untracked on its first read and enters
/// at clock 0 on its second; a put admits a key at once; a crash forgets
/// the counts, so a key read once before it stays untracked on its next
/// read.
#[test]
fn a_read_admits_a_key_on_its_second_read_and_a_put_at_once() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    let untracked = faded_untracked(&engine, &mut p);
    let [read, written, lost] = [0, 1, 2].map(|i| untracked[i].clone());

    read_once(&mut p, &read);
    assert!(!tracked(&p, &read));
    read_once(&mut p, &read);
    assert_eq!(p.volatile.tracker.clock_of(&read), Some(0));

    put(&engine, &mut p, written.clone(), Value::filled(300, 2)).unwrap();
    assert!(tracked(&p, &written));
    let new = Key::from_id(1_000);
    put(&engine, &mut p, new.clone(), Value::filled(300, 2)).unwrap();
    assert!(tracked(&p, &new));

    read_once(&mut p, &lost);
    assert!(!tracked(&p, &lost));
    assert_eq!(p.check_invariants(), Ok(()));
    p.crash_and_recover();
    read_once(&mut p, &lost);
    assert!(!tracked(&p, &lost), "the crash forgot its first read");
}

/// A drain replays its buffered reads in order, so where a key read
/// twice enters the tracker depends on the drains between its reads: read
/// twice before one drain, its first replay admits it (the sketch already
/// counts both reads) and its second re-heats it to the top clock; read
/// once in each of two drain windows, it enters at clock 0.
#[test]
fn a_key_read_twice_in_one_drain_window_enters_hot_and_across_two_cold() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    let untracked = faded_untracked(&engine, &mut p);
    let [within, across] = [0, 1].map(|i| untracked[i].clone());

    for _ in 0..2 {
        assert!(p.get(&within).unwrap().value.is_some());
    }
    assert!(!tracked(&p, &within));
    p.apply_read_side();
    assert_eq!(p.volatile.tracker.clock_of(&within), Some(MAX_CLOCK));

    read_once(&mut p, &across);
    assert!(!tracked(&p, &across));
    read_once(&mut p, &across);
    assert_eq!(p.volatile.tracker.clock_of(&across), Some(0));
    assert_eq!(p.check_invariants(), Ok(()));
}

/// A read asks for a drain only when it can have made one due: the read
/// whose push fills the admission buffer, and a flash read that completes
/// a promotion batch while promotions are enabled. The reads before each
/// do not ask, and the drain after the batch yields one promotion.
#[test]
fn a_read_asks_for_a_drain_when_it_fills_the_buffer_or_completes_a_promotion_batch() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    let untracked = untracked_after(&engine, &mut p, 400);
    demote_everything(&mut p);
    let batch = prism_compaction::PROMOTION_BATCH_FLASH_READS as usize;
    let drain = READ_SIDE_DRAIN;
    assert!(untracked.len() >= drain + batch);
    let pressure = |p: &Partition, key: &Key| {
        let (lookup, pressure) = p.get_with_pressure(key).unwrap();
        assert_eq!(lookup.source, ReadSource::Flash);
        pressure
    };

    // Every read queues an admission and is a flash read, but promotions
    // are off: the writes left the read trigger detecting.
    for (i, key) in untracked[..drain].iter().enumerate() {
        assert_eq!(pressure(&p, key), i + 1 == drain, "read {i}");
    }
    // The drain hands the controller a read-only, all-flash window, which
    // enables promotions with `drain` flash reads counted.
    p.apply_read_side();
    assert!(!p.take_promotion());

    // The rest of the batch queues fewer admissions than a drain.
    let rest = &untracked[drain..batch];
    for (i, key) in rest.iter().enumerate() {
        assert_eq!(pressure(&p, key), i + 1 == rest.len(), "read {i}");
    }
    p.apply_read_side();
    assert!(p.take_promotion());
    assert!(!p.take_promotion(), "one drain, one promotion");
    assert!(!pressure(&p, &untracked[batch]));
}

/// Keys read every round stay tracked through a flood of tail keys that
/// are each read twice: two reads bring every tail key to the sketch
/// count of two that admission asks for, and the gate then refuses the
/// ones that would evict a key counted more often. Each round's flood is
/// four tracker capacities, so admitting it all would sweep the clock
/// hand past every hot key more than three times and evict it.
#[test]
fn keys_read_every_round_stay_tracked_through_a_flood_of_twice_read_tail_keys() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    let flood = 4 * p.volatile.tracker.capacity() as u64;
    let rounds = 3;
    let hot: Vec<Key> = (0..20).map(Key::from_id).collect();
    let tail = |round: u64, i: u64| Key::from_id(1_000 + round * flood + i);
    let value = || Value::filled(100, 1);
    for round in 0..rounds {
        for i in 0..flood {
            put(&engine, &mut p, tail(round, i), value()).unwrap();
        }
    }
    for key in &hot {
        put(&engine, &mut p, key.clone(), value()).unwrap();
    }
    for round in 0..rounds {
        for _ in 0..8 {
            for key in &hot {
                p.get(key).unwrap();
            }
        }
        for i in 0..flood {
            let key = tail(round, i);
            for _ in 0..2 {
                assert!(p.get(&key).unwrap().value.is_some());
            }
        }
        p.apply_read_side();
        let lost: Vec<u64> = hot
            .iter()
            .filter(|key| !tracked(&p, key))
            .map(Key::id)
            .collect();
        assert!(
            lost.is_empty(),
            "round {round}: hot keys {lost:?} untracked"
        );
    }
    assert_eq!(p.check_invariants(), Ok(()));
}

/// 201 keys of `value_len` bytes, 200 of them tracked: keys 0..140 at
/// clock 3, 140..150 at clock 2 and 50 at clock 0. Puts fill the tracker
/// in key order, reads heat keys 0..150, and a 201st put sweeps the clock
/// hand over them once — each cools to 2 — before it evicts key 150.
fn warmed(engine: &EngineShared, value_len: usize) -> RwLockWriteGuard<'_, Partition> {
    let mut p = partition(engine);
    assert_eq!(p.volatile.tracker.capacity(), 200);
    let write =
        |p: &mut Partition, id| put(engine, p, Key::from_id(id), Value::filled(value_len, 1));
    for id in 0..200 {
        write(&mut p, id).unwrap();
    }
    for id in 0..150 {
        p.get(&Key::from_id(id)).unwrap();
    }
    write(&mut p, 200).unwrap();
    for id in 0..140 {
        p.get(&Key::from_id(id)).unwrap();
    }
    assert_eq!(p.clock_histogram(), [50, 0, 10, 140]);
    p
}

/// A promotion job pins the hottest keys up to what NVM holds at the low
/// watermark, capped at the keys whose clock is above 0; a demotion job
/// pins `pinning_threshold` (0.7) of the same, capped at the tracked keys
/// instead. Over 140 keys at clock 3 and 10 at clock 2 of 200 tracked, a
/// demotion job pins the 140 and a promotion job all 150 while NVM has
/// room for them; with slots so large that NVM holds fewer, the slots are
/// the budget of both, and a demotion job keeps a key of the hottest
/// class with the chance 0.7 of them over that class's 140.
#[test]
fn a_promotion_job_pins_what_nvm_holds_and_a_demotion_job_its_threshold() {
    let engine = engine(1_000);
    let mut p = warmed(&engine, 300);
    let pinned = |p: &mut Partition, kind| {
        let (rule, fg) = (p.pin_rule(kind), p.fg());
        let job = p.plan_range(.., kind, &rule, false, Nanos::ZERO, fg);
        p.nvm_object_count() - job.expect("job").demote.len()
    };
    assert_eq!(p.nvm_object_count(), 201);
    assert_eq!(pinned(&mut p, JobKind::Demotion { force: false }), 140);
    let counts = p.clock_histogram();
    assert_eq!(
        p.pin_rule(JobKind::Promotion),
        PinRule::new(counts, 1.0, 150)
    );
    assert_eq!(pinned(&mut p, JobKind::Promotion), 150);
    drop(p);

    let engine = self::engine(1_000);
    let mut p = warmed(&engine, 3_000);
    let usage = p.durable.slab().usage();
    let slot = p.durable.slab().slot_bytes_for(3_000).unwrap();
    assert_eq!(usage.live_bytes, slot * usage.live_objects as u64);
    let held = (usage.capacity_bytes as f64 * p.options.low_watermark / slot as f64) as usize;
    assert!(held < 150, "NVM holds {held} slots");
    let counts = p.clock_histogram();
    assert_eq!(
        p.pin_rule(JobKind::Promotion),
        PinRule::new(counts, 1.0, held)
    );
    // 0.7 × `held` is below the 140 keys at clock 3, so a demotion job
    // keeps each of those that NVM holds with that share of 140.
    let share = 0.7 * held as f64 / 140.0;
    let index = p.volatile.index().keys();
    let hot = index.filter(|key| p.volatile.tracker.clock_of(key) == Some(3));
    let expected = share * hot.count() as f64;
    let demotion = pinned(&mut p, JobKind::Demotion { force: false }) as f64;
    assert!(
        (demotion - expected).abs() < 0.25 * expected,
        "a demotion job pinned {demotion}, expected about {expected}"
    );
}

/// Precise-MSC counts as popular the NVM objects its job's own pin rule
/// pins. With slots so large that NVM holds fewer objects than the
/// tracker tracks, a demotion job pins 0.7 of what NVM holds, fewer than
/// the 140 keys at clock 3: that class is sampled, so no object counts as
/// popular. Scoring with 0.7 of the 200 tracked keys instead would pin
/// all 140 and score the range lower.
#[test]
fn precise_msc_counts_as_popular_what_its_jobs_rule_pins() {
    let engine = engine(1_000);
    let mut p = warmed(&engine, 3_000);
    Arc::make_mut(&mut p.options).compaction.policy = CompactionPolicy::PreciseMsc;
    // Flash objects, without which the popular share moves no cost.
    let version = SstEntry::value(Value::filled(300, 1), p.seq.allocate());
    let records = (1_000..1_100).map(|id| (Key::from_id(id), version.clone()));
    p.swap_files(&[], records.collect());

    let rule = p.pin_rule(JobKind::Demotion { force: false });
    let mut clocks = p
        .volatile
        .index()
        .keys()
        .map(|key| p.volatile.tracker.clock_of(key));
    assert!(clocks.all(|clock| rule.decision(clock) != PinDecision::Pin));
    let all = (Unbounded, Unbounded);
    let mut cost = Nanos::ZERO;
    let mut score = |rule: &PinRule| p.score_candidate(&all, rule, &mut cost);
    let counts = p.clock_histogram();
    assert_eq!(score(&rule), score(&PinRule::new(counts, 0.0, 0)));
    assert!(score(&PinRule::new(counts, 0.7, 200)) < score(&rule));
}

/// A promotion hint names a whole key: of two flash keys that share
/// their first eight bytes, a promotion job promotes the one its rule
/// pins and leaves its cold neighbour on flash.
#[test]
fn a_promotion_hint_promotes_its_key_and_not_one_sharing_its_id() {
    let engine = engine(1_000);
    let mut p = partition(&engine);
    let hot = Key::from_id(5);
    let cold = Key::from_bytes([hot.as_bytes(), &[1]].concat());
    assert_eq!(hot.id(), cold.id());
    for key in [&hot, &cold] {
        put(&engine, &mut p, key.clone(), Value::filled(300, 1)).unwrap();
    }
    demote_everything(&mut p);
    assert_eq!(p.nvm_object_count(), 0);
    p.get(&hot).unwrap();
    assert_eq!(p.volatile.tracker.clock_of(&hot), Some(MAX_CLOCK));
    assert_eq!(p.volatile.tracker.clock_of(&cold), Some(0));

    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let rule = p.pin_rule(JobKind::Promotion);
    let job = p.plan_range(.., JobKind::Promotion, &rule, true, Nanos::ZERO, fg);
    let job = job.expect("flash holds both keys");
    assert_eq!(job.promote_hints, HashSet::from([hot.clone()]));
    let outcome = p.install_compaction(execute_job(job, &cpu, &dev));
    assert_eq!(outcome.unwrap().expect("installs").promoted, 1);
    assert!(p.volatile.index().contains_key(&hot));
    assert!(!p.volatile.index().contains_key(&cold));
    assert_eq!(p.check_invariants(), Ok(()));
}

/// A partition whose 200 keys — even ids 0 to 398, 1 000 bytes each —
/// were all demoted into at least three 32 KB flash files, and nothing
/// since.
fn tiled(engine: &EngineShared) -> RwLockWriteGuard<'_, Partition> {
    let mut p = partition(engine);
    for id in (0..400).step_by(2) {
        put(engine, &mut p, Key::from_id(id), Value::filled(1_000, 1)).unwrap();
    }
    demote_everything(&mut p);
    assert_eq!(p.nvm_object_count(), 0);
    assert!(p.durable.log().files().len() >= 3);
    p
}

fn file_ids(files: &[Arc<prism_flash::SstFile>]) -> Vec<u64> {
    files.iter().map(|file| file.id()).collect()
}

/// The candidate ranges tile the key space: every key lies in exactly one
/// of them, each file's keys all in the same one, in file order, and a key
/// above `Key::from_id(u64::MAX)` in the last.
#[test]
fn candidate_ranges_tile_the_key_space() {
    let engine = engine(1_000);
    let p = tiled(&engine);
    let ranges = p.candidate_ranges();
    let holding = |key: &Key| -> Vec<usize> {
        let holds = ranges
            .iter()
            .enumerate()
            .filter(|(_, range)| range.contains(key));
        holds.map(|(i, _)| i).collect()
    };
    let files = p.durable.log().files();
    assert_eq!(ranges.len(), files.len());
    for (i, file) in files.iter().enumerate() {
        for (key, _) in file.iter() {
            assert_eq!(holding(key), [i], "{key:?}");
        }
    }
    let above = Key::from_bytes([[0xFF; 8], 7u64.to_be_bytes()].concat());
    assert!(above > Key::from_id(u64::MAX));
    let keys = (0..=400).map(Key::from_id);
    for key in keys.chain([Key::min(), Key::from_id(u64::MAX), above.clone()]) {
        assert_eq!(holding(&key).len(), 1, "{key:?}");
    }
    assert_eq!(holding(&above), [ranges.len() - 1]);
}

/// A demotion job over a candidate range reads and rewrites the one file
/// the range covers — not also the file on its left, whose largest key
/// the range starts after — and demotes only keys inside the range.
#[test]
fn a_demotion_job_plans_the_one_file_its_range_covers() {
    let engine = engine(1_000);
    let mut p = tiled(&engine);
    // New versions on NVM in every range: odd ids fall between records
    // and between files.
    for id in (0..400).step_by(9) {
        put(&engine, &mut p, Key::from_id(id), Value::filled(1_000, 2)).unwrap();
    }
    let files = p.durable.log().files().to_vec();
    let ranges = p.candidate_ranges();
    let force = JobKind::Demotion { force: true };
    for (range, file) in ranges.iter().zip(&files) {
        let (rule, fg) = (p.pin_rule(force), p.fg());
        let job = p.plan_range(range.clone(), force, &rule, false, Nanos::ZERO, fg);
        let job = job.expect("the range covers a file");
        assert_eq!(file_ids(&job.files), [file.id()], "{range:?}");
        assert!(!job.demote.is_empty(), "{range:?}");
        assert!(job.demote.iter().all(|entry| range.contains(&entry.key)));
    }
    // So does a job the planner picks.
    for _ in 0..8 {
        let fg = p.fg();
        let job = p.plan_demotion(DemotionPlan::Natural, fg).expect("job");
        assert_eq!(job.files.len(), 1);
    }
}

/// A promotion job over range `i` takes promotion hints from, and
/// rewrites, file `i` and its left neighbour, but demotes NVM keys only
/// inside range `i`: not the neighbour's, and not the neighbour's largest
/// key, which the range starts after.
#[test]
fn a_promotion_job_sweeps_its_left_neighbour_and_demotes_only_its_range() {
    let engine = engine(1_000);
    let mut p = tiled(&engine);
    let files = p.durable.log().files().to_vec();
    let (left, file) = (&files[1], &files[2]);
    // Tombstones on NVM (the keys have flash versions), which every job
    // demotes: the neighbour's first and last key, and one of file 2's.
    let inside = file.min_key().clone();
    for key in [left.min_key(), left.max_key(), &inside] {
        delete(&engine, &mut p, key).unwrap();
    }
    let range = p.candidate_ranges().swap_remove(2);
    let (cpu, dev, fg) = (p.cpu, p.flash_dev.clone(), p.fg());
    let rule = p.pin_rule(JobKind::Promotion);
    let job = p.plan_range(range, JobKind::Promotion, &rule, true, Nanos::ZERO, fg);
    let job = job.expect("the range covers a file");
    assert_eq!(file_ids(&job.files), [left.id(), file.id()]);
    let demoted: Vec<&Key> = job.demote.iter().map(|entry| &entry.key).collect();
    assert_eq!(demoted, [&inside]);

    p.install_compaction(execute_job(job, &cpu, &dev))
        .unwrap()
        .expect("nothing installed since the plan");
    assert_eq!(p.nvm_object_count(), 2, "the neighbour's tombstones stay");
    for key in [left.min_key(), left.max_key(), &inside] {
        assert!(p.get(key).unwrap().value.is_none(), "{key:?}");
    }
    assert_eq!(p.check_invariants(), Ok(()));
}
