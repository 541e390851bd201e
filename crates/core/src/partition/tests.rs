use super::*;
use crate::engine::EngineShared;
use crate::workers::DemotionPlan;
use prism_compaction::{execute_job, ExecutedJob, JobKind};
use prism_flash::SstEntry;
use prism_storage::{DeviceProfile, FaultOp, FaultTier};
use prism_types::{Lookup, PrismError, ReadSource};
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
    engine.write_held(0, p, 1, |p, reclaim| p.put(key, value, reclaim))
}

fn delete(engine: &EngineShared, p: &mut Partition, key: &Key) -> Result<Nanos> {
    engine.write_held(0, p, 1, |p, reclaim| p.delete(key, reclaim))
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
    p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
    assert_eq!(ids(&entries), (100..150).collect::<Vec<u64>>());
    assert_eq!(cursor.frontier(), Some(&Key::from_id(150)));
    // Only what was taken was read, and it is charged once.
    assert_eq!((cursor.resolved, cursor.emitted), (50, 50));
    let on_flash = cursor.flash_bytes / 1008;
    assert_eq!(cursor.flash_bytes % 1008, 0);
    assert_eq!(cursor.nvm_reads + on_flash, 50);
    let before = (p.nvm_dev.counters().as_tier_io(), p.fg());
    let charge = p.scan_charge(&cursor);
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
    // The bound is inclusive: two partitions never hold the same key.
    p.scan_pull(
        &mut cursor,
        Some(&Key::from_id(2_993)),
        u64::MAX,
        50,
        &mut entries,
    );
    assert_eq!(ids(&entries), vec![2_990, 2_991, 2_992, 2_993]);
    assert_eq!(cursor.frontier(), Some(&Key::from_id(2_994)));
    // A bound below the frontier reads nothing.
    p.scan_pull(
        &mut cursor,
        Some(&Key::from_id(5)),
        u64::MAX,
        50,
        &mut entries,
    );
    assert_eq!((entries.len(), cursor.resolved), (4, 4));
    p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
    assert_eq!(ids(&entries), (2_990..3_000).collect::<Vec<u64>>());
    assert_eq!(cursor.frontier(), None);
    p.scan_pull(&mut cursor, None, u64::MAX, 50, &mut entries);
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
    p.scan_pull(
        &mut cursor,
        Some(&Key::from_id(first + 9)),
        pinned,
        40,
        &mut entries,
    );
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

    p.scan_pull(&mut cursor, None, pinned, 40, &mut entries);
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
    p.scan_pull(
        &mut ScanCursor::new(&start),
        None,
        pinned,
        usize::MAX,
        &mut whole,
    );
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
            let limit = entries.len() + step;
            p.scan_pull(&mut cursor, None, pinned, limit, &mut entries);
            check_park(&cursor);
        }
        assert_eq!(entries, whole, "pulled {step} at a time");
    }
    // Parked by a bound instead of the limit, as the engine's merge
    // parks a cursor whose neighbour's frontier comes next.
    let mut cursor = ScanCursor::new(&start);
    let mut entries = Vec::new();
    for bound in (0..3_010).step_by(5).map(Key::from_id) {
        p.scan_pull(&mut cursor, Some(&bound), pinned, usize::MAX, &mut entries);
        check_park(&cursor);
    }
    assert_eq!(cursor.frontier(), None);
    assert_eq!(entries, whole);
    p.seq.release(pinned);
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

/// Plan, execute and install a demotion of every NVM object.
fn demote_everything(p: &mut Partition) {
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
    let other = p
        .plan_range(fresh.clone(), fresh, force, false, Nanos::ZERO, fg)
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
        .range_from(&Key::min())
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
    let mut job = p
        .plan_range(
            victim.clone(),
            victim.clone(),
            force,
            false,
            Nanos::ZERO,
            fg,
        )
        .expect("job");
    job.promote_hints.insert(victim.id());
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
    let (start, end, fg) = (promoted.clone(), promoted.clone(), p.fg());
    let mut job = p
        .plan_range(start, end, force, false, Nanos::ZERO, fg)
        .expect("job");
    job.promote_hints.insert(promoted.id());
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
