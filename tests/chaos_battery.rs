//! Chaos smoke battery: the release-mode CI gate behind the
//! `chaos-smoke` job.
//!
//! Four phases, all assertion-gated on every run:
//!
//! 1. **Detection gate** — a deterministic targeted-flip sweep on NVM:
//!    every single injected bit flip must be caught by a slab checksum
//!    on the next read, a 100% detection rate (not a statistical one).
//! 2. **Scrub convergence** — flash write flips land corrupt records in
//!    SST files under demotion churn; the scrubber must converge to a
//!    clean completed pass, and the wall-clock time to get there is the
//!    battery's scrub-repair latency measurement.
//! 3. **Degraded re-arm** — a hair-trigger partition is corrupted into
//!    read-only mode and the time for scrubbing to return it to
//!    `Healthy` is measured.
//! 4. **Fault storm** — a seeded random op mix under low-rate
//!    probabilistic faults (I/O errors, bit flips, torn writes, latency
//!    spikes) with a mid-run crash/recovery; the counters prove every
//!    fault class actually fired and was observed.
//!
//! With `PRISM_CHAOS_BENCH=1` the battery also writes `BENCH_chaos.json`
//! (fault counts, the detection rate, scrub/re-arm latencies) for CI
//! trend tracking; the correctness claims — the engine never *serves*
//! damaged bytes — are enforced by the differential suite's fault
//! column, which this battery complements rather than repeats.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prismdb::db::{
    FaultMode, FaultOp, FaultPlan, FaultTier, Options, PartitionHealth, PrismDb, TargetedFault,
    TierFaultRates,
};
use prismdb::types::{ConcurrentKvStore, Key, Nanos, PrismError, Value};

/// Targeted flips armed in the NVM detection-gate phase.
const NVM_FLIPS: u64 = 64;
/// Targeted flips armed in the flash scrub-convergence phase.
const FLASH_FLIPS: u64 = 3;
/// Keys written in the flash phase (sized so inline demotions must run).
const FLASH_KEYS: u64 = 200;
/// Operations driven in the fault-storm phase.
const STORM_OPS: u64 = 6_000;
/// Key space of the fault-storm phase.
const STORM_KEY_SPACE: u64 = 2_048;

fn arm(plan: &FaultPlan, tier: FaultTier) {
    plan.arm(TargetedFault {
        tier,
        partition: None,
        op: FaultOp::Write,
        mode: FaultMode::BitFlip,
    });
}

/// Phase 1: every injected NVM bit flip is detected on the next read.
/// Returns (injected, detected-by-read).
fn detection_gate() -> (u64, u64) {
    let plan = Arc::new(FaultPlan::new(0xC0A5));
    let mut options = Options::scaled_default(NVM_FLIPS * 8);
    options.num_partitions = 2;
    options.fault_plan = Some(Arc::clone(&plan));
    // Well above the flip count: this phase measures detection, not
    // degradation, so both partitions must keep serving throughout.
    options.corruption_quarantine_threshold = NVM_FLIPS + 1;
    let db = PrismDb::open(options).expect("valid options");

    for id in 0..NVM_FLIPS {
        arm(&plan, FaultTier::Nvm);
        db.put(Key::from_id(id), Value::filled(300, id as u8))
            .expect("a bit flip is silent at write time");
    }
    assert_eq!(plan.snapshot().bit_flips, NVM_FLIPS, "every flip fired");

    let mut caught = 0u64;
    for id in 0..NVM_FLIPS {
        match db.get(&Key::from_id(id)) {
            Err(PrismError::Corruption(_)) => caught += 1,
            Ok(_) => panic!("key {id} served a bit-flipped slot as clean"),
            Err(err) => panic!("key {id} surfaced {err} instead of Corruption"),
        }
    }
    assert_eq!(caught, NVM_FLIPS, "detection rate must be 100%");
    // One read, one detection: a double count would pass `>=` at half
    // the detection rate.
    assert_eq!(plan.snapshot().detected, NVM_FLIPS);
    (NVM_FLIPS, caught)
}

/// Phase 2: flash corruption under churn; scrub until a completed clean
/// pass and time it. Returns (elapsed µs, passes, repaired, quarantined).
fn scrub_convergence() -> (u128, u64, u64, u64) {
    let plan = Arc::new(FaultPlan::new(0xC0A6));
    let mut options = Options::scaled_default(FLASH_KEYS);
    options.num_partitions = 1;
    // NVM far smaller than the dataset: inline demotions must run, so
    // the armed flips land inside SST builds.
    options.nvm_capacity_bytes = 32 * 1024;
    options.sst_target_bytes = 8 * 1024;
    options.compaction.bucket_size_keys = 64;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 100;
    let db = PrismDb::open(options).expect("valid options");

    for id in 0..FLASH_KEYS {
        db.put(Key::from_id(id), Value::filled(600, id as u8))
            .expect("clean warm-up writes");
    }
    for _ in 0..FLASH_FLIPS {
        arm(&plan, FaultTier::Flash);
    }
    for id in 0..FLASH_KEYS {
        db.put(Key::from_id(id), Value::filled(600, (id + 1) as u8))
            .expect("writes stay silent under flash write flips");
    }
    assert_eq!(plan.snapshot().bit_flips, FLASH_FLIPS, "every flip fired");

    let start = Instant::now();
    let mut passes = 0u64;
    let mut repaired = 0u64;
    let mut quarantined = 0u64;
    loop {
        let report = db.scrub();
        passes += 1;
        repaired += report.repaired;
        quarantined += report.quarantined;
        assert!(report.completed, "engine scrub drives complete passes");
        if report.corrupt_found == 0 {
            break;
        }
        assert!(passes < 32, "scrubbing never converged to a clean pass");
    }
    let elapsed = start.elapsed().as_micros();

    // No probe anywhere returns damaged bytes afterwards.
    for id in 0..FLASH_KEYS {
        match db.get(&Key::from_id(id)) {
            Ok(lookup) => {
                let value = lookup.value.expect("no deletes in this phase");
                assert_eq!(value, Value::filled(600, (id + 1) as u8), "key {id}");
            }
            Err(PrismError::Corruption(_)) => {}
            Err(err) => panic!("key {id} surfaced {err}"),
        }
    }
    (elapsed, passes, repaired, quarantined)
}

/// Phase 3: corrupt a hair-trigger partition into degraded mode, then
/// time the scrub passes that re-arm it. Returns elapsed µs.
fn degraded_rearm() -> u128 {
    let plan = Arc::new(FaultPlan::new(0xC0A7));
    let mut options = Options::scaled_default(256);
    options.num_partitions = 1;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 2;
    let db = PrismDb::open(options).expect("valid options");

    for id in 0..2u64 {
        arm(&plan, FaultTier::Nvm);
        db.put(Key::from_id(id), Value::filled(200, id as u8))
            .expect("silent damage");
        assert!(matches!(
            db.get(&Key::from_id(id)),
            Err(PrismError::Corruption(_))
        ));
    }
    assert_eq!(db.shard_health(0), PartitionHealth::Degraded);
    assert!(matches!(
        db.put(Key::from_id(9), Value::filled(10, 9)),
        Err(PrismError::Degraded { partition: 0 })
    ));

    let start = Instant::now();
    let mut rounds = 0;
    while db.shard_health(0) != PartitionHealth::Healthy {
        db.scrub();
        rounds += 1;
        assert!(rounds < 32, "scrubbing never re-armed the partition");
    }
    let elapsed = start.elapsed().as_micros();
    db.put(Key::from_id(9), Value::filled(10, 9))
        .expect("a re-armed partition accepts writes again");
    elapsed
}

/// Outcome counters of the fault-storm phase.
struct StormOutcome {
    io_errors: u64,
    bit_flips: u64,
    torn_writes: u64,
    latency_spikes: u64,
    checksum_failures: u64,
    quarantined: u64,
    scrub_repairs: u64,
    degraded_entered: u64,
    degraded_recovered: u64,
}

/// Phase 4: seeded random ops under probabilistic faults with a mid-run
/// crash. Errors are tolerated (the differential fault column proves
/// they are *honest*); this phase proves every fault class fires and
/// the counters move.
fn fault_storm() -> StormOutcome {
    let seed = 0xC0A8u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = Arc::new(FaultPlan::new(seed).with_rates(TierFaultRates {
        io_error: 0.0015,
        bit_flip: 0.004,
        torn_write: 0.0015,
        latency_spike: 0.005,
        spike: Nanos::from_micros(400),
    }));
    let mut options = Options::scaled_default(STORM_KEY_SPACE);
    options.num_partitions = 3;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    options.nvm_capacity_bytes = 256 * 1024;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 3;
    options.scrub_io_budget_bytes = 64 * 1024;
    let db = PrismDb::open(options).expect("valid options");

    for op in 0..STORM_OPS {
        let id = rng.gen_range(0..STORM_KEY_SPACE);
        let key = Key::from_id(id);
        match rng.gen_range(0u32..10) {
            0..=5 => {
                let value = Value::filled(rng.gen_range(64usize..800), id as u8);
                match db.put(key, value) {
                    Ok(_) | Err(PrismError::Degraded { .. }) | Err(PrismError::Io(_)) => {}
                    Err(other) => panic!("storm write failed with {other}"),
                }
            }
            6..=8 => match db.get(&key) {
                Ok(_) | Err(PrismError::Corruption(_)) | Err(PrismError::Io(_)) => {}
                Err(other) => panic!("storm read failed with {other}"),
            },
            _ => {
                let _ = db.scan(&key, 32);
            }
        }
        if op == STORM_OPS / 2 {
            db.crash_and_recover();
        }
        if op % 500 == 499 {
            db.scrub();
        }
    }
    // Converge: scrubbing must drain all surviving corruption.
    let mut rounds = 0;
    loop {
        let report = db.scrub();
        if report.corrupt_found == 0 {
            break;
        }
        rounds += 1;
        assert!(rounds < 32, "storm scrubbing never converged");
    }

    let snap = plan.snapshot();
    let stats = ConcurrentKvStore::stats(&db);
    assert!(snap.io_errors > 0, "the storm never injected an I/O error");
    assert!(
        snap.bit_flips + snap.torn_writes > 0,
        "the storm never injected corruption"
    );
    assert!(
        stats.integrity.checksum_failures > 0,
        "injected corruption was never caught by a checksum"
    );
    StormOutcome {
        io_errors: snap.io_errors,
        bit_flips: snap.bit_flips,
        torn_writes: snap.torn_writes,
        latency_spikes: snap.latency_spikes,
        checksum_failures: stats.integrity.checksum_failures,
        quarantined: stats.integrity.quarantined_objects,
        scrub_repairs: stats.integrity.scrub_repairs,
        degraded_entered: stats.integrity.degraded_entered,
        degraded_recovered: stats.integrity.degraded_recovered,
    }
}

/// One test drives all four phases in order so `BENCH_chaos.json` is
/// written exactly once, with every number coming from the same run.
#[test]
fn chaos_battery() {
    let (injected, detected) = detection_gate();
    let (scrub_us, scrub_passes, repaired, quarantined) = scrub_convergence();
    let rearm_us = degraded_rearm();
    let storm = fault_storm();

    if std::env::var("PRISM_CHAOS_BENCH").as_deref() == Ok("1") {
        let body = format!(
            "{{\n  \"benchmark\": \"chaos_battery\",\n  \
             \"nvm_flips_injected\": {injected},\n  \
             \"nvm_flips_detected\": {detected},\n  \
             \"nvm_detection_rate\": {:.3},\n  \
             \"flash_flips_injected\": {FLASH_FLIPS},\n  \
             \"scrub_time_to_clean_us\": {scrub_us},\n  \
             \"scrub_passes_to_clean\": {scrub_passes},\n  \
             \"scrub_repaired\": {repaired},\n  \
             \"scrub_quarantined\": {quarantined},\n  \
             \"degraded_rearm_us\": {rearm_us},\n  \
             \"storm_ops\": {STORM_OPS},\n  \
             \"storm_io_errors\": {},\n  \
             \"storm_bit_flips\": {},\n  \
             \"storm_torn_writes\": {},\n  \
             \"storm_latency_spikes\": {},\n  \
             \"storm_checksum_failures\": {},\n  \
             \"storm_quarantined\": {},\n  \
             \"storm_scrub_repairs\": {},\n  \
             \"storm_degraded_entered\": {},\n  \
             \"storm_degraded_recovered\": {}\n}}\n",
            detected as f64 / injected as f64,
            storm.io_errors,
            storm.bit_flips,
            storm.torn_writes,
            storm.latency_spikes,
            storm.checksum_failures,
            storm.quarantined,
            storm.scrub_repairs,
            storm.degraded_entered,
            storm.degraded_recovered,
        );
        std::fs::write("BENCH_chaos.json", body).expect("write bench json");
    }
}
