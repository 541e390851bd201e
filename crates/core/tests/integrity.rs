//! End-to-end integrity batteries: targeted fault injection must be
//! detected 100% of the time, corruption must quarantine (never
//! resurrect), degraded partitions must serve reads / refuse writes /
//! re-arm after a clean scrub, and a stuck snapshot pin must not grow
//! history without bound.

use std::sync::Arc;

use prism_db::{
    FaultMode, FaultOp, FaultPlan, FaultTier, Options, PartitionHealth, PrismDb, TargetedFault,
};
use prism_obs::{trace::category, ObsHub};
use prism_types::{ConcurrentKvStore, Key, PrismError, Value};

fn faulted_db(partitions: usize, plan: &Arc<FaultPlan>, threshold: u64) -> PrismDb {
    let mut options = Options::scaled_default(512);
    options.num_partitions = partitions;
    options.fault_plan = Some(Arc::clone(plan));
    options.corruption_quarantine_threshold = threshold;
    PrismDb::open(options).expect("valid options")
}

fn arm_nvm_write_flip(plan: &FaultPlan) {
    plan.arm(TargetedFault {
        tier: FaultTier::Nvm,
        partition: None,
        op: FaultOp::Write,
        mode: FaultMode::BitFlip,
    });
}

/// The CI chaos gate: every deliberately injected NVM bit flip must be
/// caught by a slab checksum on the very next read of that key — a 100%
/// detection rate, not a statistical one.
#[test]
fn every_injected_nvm_bit_flip_is_detected() {
    const FLIPS: u64 = 32;
    let plan = Arc::new(FaultPlan::new(0xB17));
    // Threshold above FLIPS: the battery measures detection, not
    // degradation, so the partition must keep serving.
    let db = faulted_db(2, &plan, FLIPS + 1);

    for id in 0..FLIPS {
        arm_nvm_write_flip(&plan);
        db.put(Key::from_id(id), Value::filled(300, id as u8))
            .expect("a bit flip is silent at write time");
    }
    assert_eq!(plan.snapshot().bit_flips, FLIPS, "every armed flip fired");

    for id in 0..FLIPS {
        let err = db.get(&Key::from_id(id)).expect_err("flip must be caught");
        assert!(
            matches!(err, PrismError::Corruption(_)),
            "key {id} surfaced {err} instead of Corruption"
        );
    }
    let snap = plan.snapshot();
    assert!(
        snap.detected >= FLIPS,
        "only {} of {FLIPS} injected flips were detected",
        snap.detected
    );
    let stats = ConcurrentKvStore::stats(&db);
    assert!(stats.integrity.checksum_failures >= FLIPS);
    assert_eq!(db.quarantined_objects(), FLIPS);
}

/// Bit flips injected while records are demoted to flash are all caught:
/// a full scrub pass finds every corrupt SST record, and no probe ever
/// returns damaged bytes.
#[test]
fn every_injected_flash_bit_flip_is_detected() {
    const FLIPS: u64 = 3;
    const KEYS: u64 = 200;
    let plan = Arc::new(FaultPlan::new(0xF1A5));
    let mut options = Options::scaled_default(KEYS);
    options.num_partitions = 1;
    // NVM far smaller than the dataset: inline demotions must run.
    options.nvm_capacity_bytes = 32 * 1024;
    options.sst_target_bytes = 8 * 1024;
    options.compaction.bucket_size_keys = 64;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 100;
    let db = PrismDb::open(options).expect("valid options");

    for id in 0..KEYS {
        db.put(Key::from_id(id), Value::filled(600, id as u8))
            .expect("clean warm-up writes");
    }
    for _ in 0..FLIPS {
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
    }
    // Overwrite everything once more: the armed flips fire inside the
    // demotion SST writes this churn forces.
    for id in 0..KEYS {
        db.put(Key::from_id(id), Value::filled(600, (id + 1) as u8))
            .expect("writes stay silent under flash write flips");
    }
    assert_eq!(plan.snapshot().bit_flips, FLIPS, "every armed flip fired");

    // Under churn a flipped record can also be *superseded*: a later
    // compaction merges a newer version over it and drops the damaged
    // record unread, so it never persists and there is nothing left to
    // detect. The engine contract is therefore: every flip is either
    // detected (by a reader: here only the scrub reads) or provably gone —
    // after a full scrub no corrupt record survives anywhere. With this
    // seed all three flips are superseded before the scrub runs, so
    // nothing need be detected; the next test is the case where no flip
    // can be superseded.
    let report = db.scrub();
    assert!(report.completed);
    let second = db.scrub();
    assert_eq!(
        second.corrupt_found, 0,
        "a corrupt record survived scrubbing (first report {report:?})"
    );
    let snap = plan.snapshot();
    assert_eq!(
        snap.detected, report.corrupt_found,
        "compaction detected (or dropped as detected) a flip nobody read"
    );

    // And no probe anywhere returns damaged bytes.
    for id in 0..KEYS {
        match db.get(&Key::from_id(id)) {
            Ok(lookup) => {
                let value = lookup.value.expect("no deletes in this battery");
                assert_eq!(value, Value::filled(600, (id + 1) as u8), "key {id}");
            }
            Err(PrismError::Corruption(_)) => {}
            Err(err) => panic!("key {id} surfaced {err}"),
        }
    }
}

/// Bit flips injected into the SST writes of one demotion, with nothing
/// written after it, cannot be superseded: every damaged record is still
/// on flash, carried with the checksum it fails. One scrub pass finds
/// exactly the injected flips, and each damaged key then reads
/// `Corruption`, never its bytes, while every other key reads its value.
#[test]
fn every_flash_bit_flip_of_one_demotion_is_found_by_the_scrub() {
    const FLIPS: u64 = 3;
    const KEYS: u64 = 200;
    let plan = Arc::new(FaultPlan::new(0xF1A7));
    let mut options = Options::scaled_default(KEYS);
    options.num_partitions = 1;
    options.nvm_capacity_bytes = 64 * 1024;
    options.sst_target_bytes = 8 * 1024;
    options.compaction.bucket_size_keys = 64;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 100;
    let db = PrismDb::open(options).expect("valid options");

    // Armed before any write: they wait for the first SST write, which
    // the first demotion makes. Writing stops right after it.
    for _ in 0..FLIPS {
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
    }
    let mut written = 0;
    while db.flash_object_count() == 0 {
        assert!(written < KEYS, "no demotion after {KEYS} writes");
        db.put(Key::from_id(written), Value::filled(600, written as u8))
            .expect("writes stay silent under flash write flips");
        written += 1;
    }
    assert_eq!(plan.snapshot().bit_flips, FLIPS, "every armed flip fired");
    assert_eq!(plan.snapshot().detected, 0, "nothing has read a record yet");

    let report = db.scrub();
    assert!(report.completed);
    assert_eq!(report.corrupt_found, FLIPS, "report {report:?}");
    assert_eq!(plan.snapshot().detected, FLIPS);
    assert_eq!(db.scrub().corrupt_found, 0);

    let mut corrupt = 0;
    for id in 0..written {
        match db.get(&Key::from_id(id)) {
            Ok(lookup) => assert_eq!(lookup.value, Some(Value::filled(600, id as u8)), "key {id}"),
            Err(PrismError::Corruption(_)) => corrupt += 1,
            Err(err) => panic!("key {id} surfaced {err}"),
        }
    }
    assert_eq!(corrupt, FLIPS);
    assert_eq!(db.quarantined_objects(), FLIPS);
}

/// One routine damages both tiers: the same injected fault — armed on two
/// plans with one seed, so both draw the same byte, bit or kept length —
/// leaves a slab slot's version and an SST record's version identical
/// byte for byte, and both fail their checksums. Values with bytes and
/// without (where the checksum takes the damage) alike.
#[test]
fn one_injected_fault_damages_a_slot_and_an_sst_record_alike() {
    use prism_flash::{SstBuilder, SstEntry};
    use prism_nvm::{SlabConfig, SlabStore};
    use prism_storage::{Device, DeviceProfile};

    let key = Key::from_id(3);
    for mode in [FaultMode::BitFlip, FaultMode::TornWrite] {
        for value in [Value::filled(300, 0x5A), Value::empty()] {
            let armed = |tier| {
                let plan = Arc::new(FaultPlan::new(0xDA3));
                plan.arm(TargetedFault {
                    tier,
                    partition: None,
                    op: FaultOp::Write,
                    mode,
                });
                plan
            };
            let nvm = Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 20)));
            let mut slab = SlabStore::new(SlabConfig::small_objects(1 << 20), nvm).unwrap();
            slab.attach_faults(armed(FaultTier::Nvm), 0);
            let (addr, _) = slab.insert(key.clone(), value.clone(), 9).unwrap();
            let slot = slab.peek(addr).expect("written");

            let profile = DeviceProfile::qlc_flash(1 << 30);
            let flash = Arc::new(Device::with_faults(
                profile,
                armed(FaultTier::Flash),
                FaultTier::Flash,
            ));
            let mut builder = SstBuilder::new(1);
            builder.add(key.clone(), SstEntry::value(value.clone(), 9));
            let (sst, _) = builder.finish(&flash);
            let (_, record) = sst.iter().next().expect("one record");

            assert_eq!(&slot.version, record, "{mode:?} on {value:?}");
            assert!(!slot.verify() && !record.verify(), "{mode:?} on {value:?}");
        }
    }
}

/// A slot damaged as it is written, while the DRAM cache holds its key:
/// the update refreshed the cached value, so a get serves the
/// acknowledged value without reading the slot, and a scrub still finds
/// the damage and writes the cached value back.
#[test]
fn a_slot_damaged_under_a_cached_key_serves_the_acknowledged_value() {
    let plan = Arc::new(FaultPlan::new(0xCAC));
    let db = faulted_db(2, &plan, 4);
    let key = Key::from_id(11);
    db.put(key.clone(), Value::filled(300, 1)).unwrap();
    db.get(&key).unwrap();
    arm_nvm_write_flip(&plan);
    let acknowledged = Value::filled(300, 2);
    db.put(key.clone(), acknowledged.clone())
        .expect("a bit flip is silent at write time");
    assert_eq!(plan.snapshot().bit_flips, 1);

    let got = db.get(&key).unwrap();
    assert_eq!(got.source, prism_types::ReadSource::Dram);
    assert_eq!(got.value, Some(acknowledged.clone()));
    assert_eq!(plan.snapshot().detected, 0, "the damaged slot was not read");

    let report = db.scrub();
    assert!(report.completed);
    assert_eq!(
        (report.corrupt_found, report.repaired),
        (1, 1),
        "{report:?}"
    );
    assert_eq!(db.quarantined_objects(), 0);
    db.crash_and_recover();
    let got = db.get(&key).unwrap();
    assert_eq!(got.source, prism_types::ReadSource::Nvm);
    assert_eq!(got.value, Some(acknowledged));
}

/// The quarantine -> degraded -> scrub -> healthy lifecycle: a degraded
/// partition keeps serving clean reads, refuses writes with the
/// retryable `Degraded` error, re-arms after a clean scrub pass, and a
/// rewrite of a quarantined key heals it.
#[test]
fn degraded_partition_serves_reads_refuses_writes_and_rearms() {
    let plan = Arc::new(FaultPlan::new(0xDE6));
    let db = faulted_db(1, &plan, 2);

    db.put(Key::from_id(1), Value::filled(100, 1)).unwrap();
    for id in [2u64, 3] {
        arm_nvm_write_flip(&plan);
        db.put(Key::from_id(id), Value::filled(100, id as u8))
            .unwrap();
    }
    for id in [2u64, 3] {
        assert!(matches!(
            db.get(&Key::from_id(id)),
            Err(PrismError::Corruption(_))
        ));
    }
    assert_eq!(db.shard_health(0), PartitionHealth::Degraded);

    // Reads of clean keys still land; writes are refused retryably.
    assert_eq!(
        db.get(&Key::from_id(1)).unwrap().value,
        Some(Value::filled(100, 1))
    );
    match db.put(Key::from_id(4), Value::filled(100, 4)) {
        Err(PrismError::Degraded { partition }) => assert_eq!(partition, 0),
        other => panic!("degraded write returned {other:?}"),
    }
    // Scans skip the quarantined keys instead of erroring.
    let entries = db.scan(&Key::from_id(0), 16).unwrap().entries;
    assert_eq!(entries.len(), 1, "only the clean key is visible");
    assert_eq!(entries[0].0.id(), 1);

    // The quarantined slots were dropped, so the next full scrub pass is
    // clean and re-arms the partition.
    let report = db.scrub();
    assert_eq!(report.corrupt_found, 0);
    assert_eq!(db.shard_health(0), PartitionHealth::Healthy);
    db.put(Key::from_id(4), Value::filled(100, 4))
        .expect("healthy again");

    // A rewrite supersedes the quarantine sentinel entirely.
    db.put(Key::from_id(2), Value::filled(100, 22)).unwrap();
    assert_eq!(
        db.get(&Key::from_id(2)).unwrap().value,
        Some(Value::filled(100, 22))
    );

    let stats = ConcurrentKvStore::stats(&db);
    assert_eq!(stats.integrity.degraded_entered, 1);
    assert_eq!(stats.integrity.degraded_recovered, 1);
    assert!(stats.integrity.degraded_write_refusals >= 1);
    assert_eq!(stats.integrity.degraded_partitions, 0);
}

/// Health is durable: a degraded partition is still degraded after a
/// crash — entered once, not again — and still refuses writes, and a
/// clean scrub pass afterwards re-arms it.
#[test]
fn a_degraded_partition_stays_degraded_across_a_crash_until_a_clean_scrub() {
    let plan = Arc::new(FaultPlan::new(0xDE7));
    let db = faulted_db(1, &plan, 2);
    for id in [1u64, 2] {
        arm_nvm_write_flip(&plan);
        db.put(Key::from_id(id), Value::filled(100, id as u8))
            .unwrap();
        assert!(matches!(
            db.get(&Key::from_id(id)),
            Err(PrismError::Corruption(_))
        ));
    }
    assert_eq!(db.shard_health(0), PartitionHealth::Degraded);

    db.crash_and_recover();
    assert_eq!(db.shard_health(0), PartitionHealth::Degraded);
    assert!(matches!(
        db.put(Key::from_id(3), Value::filled(100, 3)),
        Err(PrismError::Degraded { partition: 0 })
    ));
    assert_eq!(ConcurrentKvStore::stats(&db).integrity.degraded_entered, 1);

    assert_eq!(db.scrub().corrupt_found, 0);
    assert_eq!(db.shard_health(0), PartitionHealth::Healthy);
    db.put(Key::from_id(3), Value::filled(100, 3))
        .expect("healthy again");
    assert_eq!(
        db.get(&Key::from_id(3)).unwrap().value,
        Some(Value::filled(100, 3))
    );
}

/// Every path that degrades a partition traces it, not the read alone: a
/// recovery scan or a scrub pass that quarantines past the threshold
/// records `degraded` as a quarantining read does.
#[test]
fn a_partition_degraded_by_recovery_or_a_scrub_is_traced() {
    for crash in [true, false] {
        let plan = Arc::new(FaultPlan::new(0xDE8));
        let hub = Arc::new(ObsHub::new());
        let mut options = Options::scaled_default(512);
        options.num_partitions = 1;
        options.fault_plan = Some(Arc::clone(&plan));
        options.corruption_quarantine_threshold = 2;
        options.obs = Some(Arc::clone(&hub));
        let db = PrismDb::open(options).expect("valid options");
        for id in [1u64, 2] {
            arm_nvm_write_flip(&plan);
            db.put(Key::from_id(id), Value::filled(100, id as u8))
                .unwrap();
        }
        // Nothing has read the damaged slots yet.
        assert!(hub.trace.in_category(category::DEGRADED).is_empty());
        if crash {
            db.crash_and_recover();
        } else {
            db.scrub();
        }
        assert_eq!(db.shard_health(0), PartitionHealth::Degraded);
        let degraded = hub.trace.in_category(category::DEGRADED);
        assert_eq!(degraded.len(), 1, "crash={crash}: {degraded:?}");
        assert_eq!(degraded[0].partition, Some(0));
    }
}

/// Crash recovery over a slab holding a corrupt slot quarantines the key
/// rather than resurrecting any version of it — neither the damaged
/// bytes nor a stale clean sibling may come back.
#[test]
fn recovery_over_a_corrupted_slab_quarantines_not_resurrects() {
    let plan = Arc::new(FaultPlan::new(0xEC0));
    let db = faulted_db(1, &plan, 16);

    db.put(Key::from_id(1), Value::filled(200, 1)).unwrap();
    db.put(Key::from_id(2), Value::filled(200, 2)).unwrap();
    // Overwrite key 1 with a silently-corrupted version.
    arm_nvm_write_flip(&plan);
    db.put(Key::from_id(1), Value::filled(200, 11)).unwrap();

    db.crash_and_recover();

    // The corrupt key is quarantined: reads error, they do not serve the
    // damaged new version or resurrect the superseded old one.
    assert!(matches!(
        db.get(&Key::from_id(1)),
        Err(PrismError::Corruption(_))
    ));
    // The untouched sibling survived recovery.
    assert_eq!(
        db.get(&Key::from_id(2)).unwrap().value,
        Some(Value::filled(200, 2))
    );
    // Scans skip the quarantined key.
    let entries = db.scan(&Key::from_id(0), 16).unwrap().entries;
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0.id(), 2);
    assert!(db.quarantined_objects() >= 1);

    // A fresh write heals it.
    db.put(Key::from_id(1), Value::filled(200, 111)).unwrap();
    assert_eq!(
        db.get(&Key::from_id(1)).unwrap().value,
        Some(Value::filled(200, 111))
    );
    assert_eq!(db.quarantined_objects(), 0);
}

/// A quarantine names one key. A neighbour sharing its first eight bytes
/// (and so its [`Key::id`], partition and bucket) neither trips on it nor
/// heals it — before and after a crash — and only a write of the
/// quarantined key itself lifts the sentinel.
#[test]
fn a_quarantine_is_neither_triggered_nor_healed_by_a_prefix_sharing_neighbour() {
    let plan = Arc::new(FaultPlan::new(0x9E16));
    let db = faulted_db(1, &plan, 16);
    let a = Key::from_bytes(b"user1234A".to_vec());
    let b = Key::from_bytes(b"user1234B".to_vec());
    assert_eq!(a.id(), b.id());
    let a_is_quarantined = || {
        assert!(matches!(db.get(&a), Err(PrismError::Corruption(_))));
        assert_eq!(db.quarantined_objects(), 1);
    };

    arm_nvm_write_flip(&plan);
    db.put(a.clone(), Value::filled(200, 0xAA)).unwrap();
    a_is_quarantined();

    // Reads, writes and deletes of the neighbour leave the sentinel alone.
    assert_eq!(db.get(&b).unwrap().value, None, "never written");
    a_is_quarantined();
    db.put(b.clone(), Value::filled(200, 0xBB)).unwrap();
    a_is_quarantined();
    assert_eq!(db.get(&b).unwrap().value, Some(Value::filled(200, 0xBB)));
    let pin = db.snapshot().unwrap();
    assert_eq!(
        db.snapshot_get(pin, &b).unwrap(),
        Some(Value::filled(200, 0xBB))
    );
    db.release_snapshot(pin);
    let scanned = db.scan(&Key::min(), 16).unwrap().entries;
    assert_eq!(scanned, vec![(b.clone(), Value::filled(200, 0xBB))]);

    db.crash_and_recover();
    a_is_quarantined();
    assert_eq!(db.get(&b).unwrap().value, Some(Value::filled(200, 0xBB)));
    db.delete(&b).unwrap();
    assert_eq!(db.get(&b).unwrap().value, None);
    a_is_quarantined();

    // Its own rewrite heals it.
    db.put(a.clone(), Value::filled(200, 0xA2)).unwrap();
    assert_eq!(db.get(&a).unwrap().value, Some(Value::filled(200, 0xA2)));
    assert_eq!(db.quarantined_objects(), 0);
}

/// Recovery quarantines a key with a corrupt slot *whole*, clean siblings
/// included — siblings of that key, not of every key sharing its first
/// eight bytes: the neighbour's acknowledged write survives the crash.
#[test]
fn recovery_keeps_the_clean_slot_of_a_prefix_sharing_neighbour() {
    let plan = Arc::new(FaultPlan::new(0x9E17));
    let db = faulted_db(1, &plan, 16);
    let a = Key::from_bytes(b"user1234A".to_vec());
    let b = Key::from_bytes(b"user1234B".to_vec());

    db.put(b.clone(), Value::filled(200, 0xBB)).unwrap();
    arm_nvm_write_flip(&plan);
    db.put(a.clone(), Value::filled(200, 0xAA)).unwrap();
    // Nothing has read `a` yet: the recovery scan is what finds the slot.
    db.crash_and_recover();

    assert_eq!(db.get(&b).unwrap().value, Some(Value::filled(200, 0xBB)));
    assert!(matches!(db.get(&a), Err(PrismError::Corruption(_))));
    assert_eq!(db.quarantined_objects(), 1);
}

/// In background mode a corruption-triggered scrub request re-arms the
/// degraded partition without any foreground help.
#[test]
fn background_scrubber_rearms_a_degraded_partition() {
    let plan = Arc::new(FaultPlan::new(0xBC6));
    let mut options = Options::scaled_default(512);
    options.num_partitions = 1;
    options.compaction_workers = 1;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 1;
    let db = PrismDb::open(options).expect("valid options");

    db.put(Key::from_id(1), Value::filled(100, 1)).unwrap();
    arm_nvm_write_flip(&plan);
    db.put(Key::from_id(2), Value::filled(100, 2)).unwrap();
    assert!(matches!(
        db.get(&Key::from_id(2)),
        Err(PrismError::Corruption(_))
    ));
    // The failed read queued a scrub job; the worker pool's clean pass
    // must flip the partition back to healthy on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if db.shard_health(0) == PartitionHealth::Healthy {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background scrub never re-armed the partition"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = ConcurrentKvStore::stats(&db);
    assert!(stats.integrity.scrub_passes >= 1);
    assert!(stats.integrity.degraded_recovered >= 1);
}

/// Satellite regression: a stuck snapshot pin cannot hold unbounded
/// history. Exceeding `max_history_bytes` force-expires the oldest pin,
/// caps DRAM held by superseded versions, and the abandoned handle
/// surfaces `SnapshotExpired`.
#[test]
fn a_stuck_pin_cannot_grow_history_unboundedly() {
    const CAP: u64 = 32 * 1024;
    let mut options = Options::scaled_default(512);
    options.num_partitions = 2;
    options.max_history_bytes = CAP;
    let db = PrismDb::open(options).expect("valid options");
    let key = Key::from_id(7);
    db.put(key.clone(), Value::filled(1024, 0)).unwrap();

    let pin = db.snapshot().expect("pin");
    assert_eq!(db.active_snapshots(), 1);
    // A stuck reader while a hot key churns: unbounded history would
    // retain ~100 KiB here. One entry of slack covers the version that
    // trips the cap before enforcement runs.
    for round in 0..100u64 {
        db.put(key.clone(), Value::filled(1024, round as u8))
            .unwrap();
        assert!(
            db.snapshot_history_bytes() <= CAP + 2048,
            "history grew to {} bytes under a {} byte cap",
            db.snapshot_history_bytes(),
            CAP
        );
    }
    assert_eq!(db.active_snapshots(), 0, "the stuck pin was force-expired");
    assert!(matches!(
        db.snapshot_get(pin, &key),
        Err(PrismError::SnapshotExpired)
    ));
    let stats = ConcurrentKvStore::stats(&db);
    assert_eq!(stats.integrity.snapshots_expired, 1);

    // Fresh pins still work after the expiry.
    let pin2 = db.snapshot().expect("pin");
    assert_eq!(
        db.snapshot_get(pin2, &key).unwrap(),
        Some(Value::filled(1024, 99))
    );
    db.release_snapshot(pin2);
}

/// Same cap family, age-based: a pin older than `max_pin_age_ops`
/// commits is aborted even if its history footprint is small.
#[test]
fn an_overaged_pin_is_expired_by_the_op_cap() {
    let mut options = Options::scaled_default(512);
    options.num_partitions = 2;
    options.max_pin_age_ops = 50;
    let db = PrismDb::open(options).expect("valid options");
    let pin = db.snapshot().expect("pin");
    // Distinct keys: no version is superseded, history stays empty, only
    // the age cap can trip.
    for id in 0..60u64 {
        db.put(Key::from_id(id), Value::filled(64, id as u8))
            .unwrap();
    }
    assert!(matches!(
        db.snapshot_scan(pin, &Key::from_id(0), 10),
        Err(PrismError::SnapshotExpired)
    ));
    assert_eq!(db.active_snapshots(), 0);
    assert_eq!(ConcurrentKvStore::stats(&db).integrity.snapshots_expired, 1);
}
