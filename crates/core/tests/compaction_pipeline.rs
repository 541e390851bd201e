//! The compaction pipeline behaves the same whichever way its requests are
//! dispatched: run on the caller (`compaction_workers = 0`) or queued to
//! the worker pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_db::{Options, PrismDb};
use prism_obs::{trace::category, ObsHub};
use prism_types::{ConcurrentKvStore, Key, Value};

/// One partition with a 256 KB NVM tier, so a few hundred 1 KB values
/// cross the watermarks.
fn small_nvm_options(workers: usize) -> Options {
    let mut options = Options::scaled_default(2_000);
    options.num_partitions = 1;
    options.compaction_workers = workers;
    options.nvm_capacity_bytes = 256 * 1024;
    options.sst_target_bytes = 32 * 1024;
    options
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Regression: a pool worker used to end a demotion run when the natural
/// plan came back empty, where a caller-run demotion escalates to the
/// forced plan. A young partition holding only pinned keys and no SST file
/// has exactly that empty natural plan, so with workers it sat above the
/// high watermark — the worker spinning on request → nothing → re-request —
/// until the foreground gave up waiting at the ceiling.
#[test]
fn a_pool_worker_escalates_past_an_empty_natural_plan() {
    let mut options = small_nvm_options(1);
    // Every tracked key pins, and all keys fit the tracker (400 entries).
    options.pinning_threshold = 1.0;
    options.high_watermark = 0.9;
    options.low_watermark = 0.7;
    let (high, low) = (options.high_watermark, options.low_watermark);
    let db = PrismDb::open(options).expect("valid options");

    // 1 KB slots in 256 KB: 225 keys stay below the high watermark.
    let mut keys = 0u64..;
    for id in keys.by_ref().take(225) {
        db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
    }
    for id in 0..225 {
        db.get(&Key::from_id(id)).unwrap();
    }
    assert!(db.partition_utilization(0) < high);
    assert_eq!(db.flash_object_count(), 0, "no SST file exists yet");
    assert_eq!(db.stats().compaction.enqueued_jobs, 0);

    // Cross the high watermark (well below the 0.995 ceiling). The write
    // that crosses it raises the demotion request, and the writes stop
    // there: re-reading utilisation instead races the worker, which may
    // already be back under the watermark — the loop then wrote on into
    // the run, and a run cut short between the watermarks is not retried
    // (this failed 1–3 runs in 30).
    let mut crossed = 225;
    while db.stats().compaction.enqueued_jobs == 0 {
        let id = keys.next().expect("endless");
        db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
        crossed = id + 1;
    }
    wait_until("the pool demotes to the low watermark", || {
        db.partition_utilization(0) <= low
    });
    let stats = db.stats();
    assert_eq!(stats.compaction.backpressure_stalls, 0);
    assert!(stats.compaction.demoted_objects > 0);
    for id in 0..crossed {
        assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
    }
}

/// Compaction is visible in both dispatch modes: every installed job is
/// one `engine_compaction_job_ns` sample, and the trace ring holds its
/// plan → execute → install events under one job id.
#[test]
fn compaction_jobs_are_recorded_and_traced_in_both_modes() {
    for workers in [0, 2] {
        let hub = Arc::new(ObsHub::new());
        let mut options = small_nvm_options(workers);
        options.obs = Some(Arc::clone(&hub));
        let db = PrismDb::open(options).expect("valid options");
        for round in 0..3u8 {
            for id in 0..600u64 {
                db.put(Key::from_id(id), Value::filled(1000, round))
                    .unwrap();
            }
        }
        // Let the pool go quiet so the two counts are read at rest.
        wait_until("the compaction pool is idle", || {
            db.stats().compaction.queue_depth == 0
                && db.parked_compaction_workers() == workers as u64
        });

        let jobs = db.stats().compaction.jobs;
        assert!(jobs > 0, "workers={workers}: the load must compact");
        let samples = hub.registry.histogram("engine_compaction_job_ns").count();
        assert_eq!(samples, jobs, "workers={workers}: one sample per job");

        let install = hub
            .trace
            .in_category(category::COMPACTION_INSTALL)
            .pop()
            .unwrap_or_else(|| panic!("workers={workers}: no install event"));
        let seq_of = |cat: &str| {
            hub.trace
                .in_category(cat)
                .iter()
                .find(|event| event.id == install.id)
                .unwrap_or_else(|| panic!("workers={workers}: no {cat} for job {}", install.id))
                .seq
        };
        let (plan, execute) = (
            seq_of(category::COMPACTION_PLAN),
            seq_of(category::COMPACTION_EXECUTE),
        );
        assert!(plan < execute && execute < install.seq);
    }
}
