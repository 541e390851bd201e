//! Concurrent stress testing of `Arc<PrismDb>`.
//!
//! N OS threads hammer one shared engine with overlapping key ranges and a
//! mixed workload (put/get/delete/scan/RMW) while other threads run
//! cross-partition scans. Afterwards the tests check linearizability-lite
//! invariants — the surviving value of every key must be the final write
//! of *some* thread that touched it — plus engine invariants (object
//! counts vs a full scan, NVM utilisation, scan ordering), and that a
//! crash + recovery after the concurrent workload reproduces exactly the
//! pre-crash visible state. The tests finishing at all is itself the
//! no-deadlock check for concurrent cross-partition scans.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prismdb::db::{Options, Partitioning, PrismDb};
use prismdb::types::{ConcurrentKvStore, Key, Value, WriteBatch};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 4_000;
const KEY_SPACE: u64 = 1_200;

/// A value is tagged with the writing thread and a per-thread sequence
/// number so the final state can be matched against per-thread write logs:
/// length encodes the thread, fill byte the sequence.
fn tagged_value(thread: usize, seq: usize) -> Value {
    Value::filled(64 + thread, (seq % 251) as u8)
}

/// What one thread last did to one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastWrite {
    Put { len: usize, fill: u8 },
    Delete,
}

fn stress_db() -> Arc<PrismDb> {
    stress_db_with_workers(0)
}

fn stress_db_with_workers(workers: usize) -> Arc<PrismDb> {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = 4;
    // Range partitioning so scans genuinely cross partition lock
    // boundaries while writers hold individual partition locks.
    options.partitioning = Partitioning::Range;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // NVM far smaller than the dataset: compactions run under concurrency.
    options.nvm_capacity_bytes = 192 * 1024;
    options.compaction_workers = workers;
    Arc::new(PrismDb::open(options).expect("valid options"))
}

/// Run the mixed workload from `THREADS` threads over overlapping keys;
/// returns each thread's log of final writes per key.
fn run_stress(db: &Arc<PrismDb>) -> Vec<HashMap<u64, LastWrite>> {
    let mut logs: Vec<HashMap<u64, LastWrite>> = Vec::with_capacity(THREADS);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(THREADS);
        for t in 0..THREADS {
            let db = Arc::clone(db);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0DE + t as u64);
                let mut last: HashMap<u64, LastWrite> = HashMap::new();
                for seq in 0..OPS_PER_THREAD {
                    let id = rng.gen_range(0u64..KEY_SPACE);
                    let key = Key::from_id(id);
                    match rng.gen_range(0u32..100) {
                        // Writes dominate so every key sees many writers.
                        0..=44 => {
                            let value = tagged_value(t, seq);
                            let (len, fill) = (value.len(), value.as_bytes()[0]);
                            db.put(key, value).expect("put");
                            last.insert(id, LastWrite::Put { len, fill });
                        }
                        45..=59 => {
                            db.delete(&key).expect("delete");
                            last.insert(id, LastWrite::Delete);
                        }
                        60..=74 => {
                            // Reads must always see a well-formed tagged
                            // value (or nothing) — never a torn one.
                            if let Some(value) = db.get(&key).expect("get").value {
                                let thread = value.len().checked_sub(64).expect("tag");
                                assert!(thread < THREADS, "untagged value length");
                                assert!(
                                    value.as_bytes().iter().all(|b| *b == value.as_bytes()[0]),
                                    "torn value observed"
                                );
                            }
                        }
                        75..=89 => {
                            // Cross-partition scans concurrent with writes:
                            // results must stay strictly ordered.
                            let start = rng.gen_range(0u64..KEY_SPACE);
                            let scanned = db.scan(&Key::from_id(start), 64).expect("scan").entries;
                            assert!(
                                scanned.windows(2).all(|w| w[0].0 < w[1].0),
                                "scan returned unordered or duplicate keys"
                            );
                            assert!(scanned.iter().all(|(k, _)| k.id() >= start));
                        }
                        _ => {
                            // Read-modify-write.
                            let _ = db.get(&key).expect("rmw read");
                            let value = tagged_value(t, seq);
                            let (len, fill) = (value.len(), value.as_bytes()[0]);
                            db.put(key, value).expect("rmw write");
                            last.insert(id, LastWrite::Put { len, fill });
                        }
                    }
                }
                last
            }));
        }
        for handle in handles {
            logs.push(handle.join().expect("stress thread panicked"));
        }
    });
    logs
}

/// The surviving state of `key` must equal the final write of one of the
/// threads that wrote it (or, if no thread wrote it, be absent).
fn assert_explained_by_logs(
    observed: &Option<(usize, u8)>,
    id: u64,
    logs: &[HashMap<u64, LastWrite>],
    context: &str,
) {
    let candidates: Vec<LastWrite> = logs
        .iter()
        .filter_map(|log| log.get(&id).copied())
        .collect();
    match observed {
        None => {
            let explained = candidates.is_empty() || candidates.contains(&LastWrite::Delete);
            assert!(
                explained,
                "{context}: key {id} is absent but no thread's last op was a delete \
                 (candidates {candidates:?})"
            );
        }
        Some((len, fill)) => {
            let explained = candidates.iter().any(|c| {
                *c == LastWrite::Put {
                    len: *len,
                    fill: *fill,
                }
            });
            assert!(
                explained,
                "{context}: key {id} holds (len {len}, fill {fill}) which no thread's \
                 final write produced (candidates {candidates:?})"
            );
        }
    }
}

fn visible_state(db: &Arc<PrismDb>) -> Vec<Option<(usize, u8)>> {
    (0..KEY_SPACE)
        .map(|id| {
            db.get(&Key::from_id(id))
                .expect("get")
                .value
                .map(|v| (v.len(), v.as_bytes()[0]))
        })
        .collect()
}

#[test]
fn overlapping_writers_leave_explainable_state_and_sane_invariants() {
    let db = stress_db();
    let logs = run_stress(&db);

    // Every key's survivor must be some thread's final write.
    let state = visible_state(&db);
    let mut live = 0usize;
    for (id, observed) in state.iter().enumerate() {
        if observed.is_some() {
            live += 1;
        }
        assert_explained_by_logs(observed, id as u64, &logs, "after stress");
    }
    assert!(live > 0, "the write-heavy mix must leave live keys");

    // A full scan agrees with point reads: same live key count, strictly
    // ordered, and every scanned value is also log-explainable.
    let scanned = db
        .scan(&Key::min(), KEY_SPACE as usize + 10)
        .expect("scan")
        .entries;
    assert_eq!(
        scanned.len(),
        live,
        "scan and point reads disagree on live keys"
    );
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    for (key, value) in &scanned {
        assert_explained_by_logs(
            &Some((value.len(), value.as_bytes()[0])),
            key.id(),
            &logs,
            "scan after stress",
        );
    }

    // Engine invariants: the object count across tiers covers at least
    // every live key (flash may additionally hold not-yet-compacted stale
    // versions), and NVM never overfills.
    let objects = db.nvm_object_count() + db.flash_object_count();
    assert!(
        objects >= live,
        "{objects} objects across tiers cannot cover {live} live keys"
    );
    assert!(db.nvm_utilization() <= 1.0 + 1e-9);
    assert!(db.nvm_utilization() >= 0.0);
}

#[test]
fn crash_recovery_after_concurrent_workload_restores_visible_state() {
    let db = stress_db();
    let logs = run_stress(&db);

    let before = visible_state(&db);
    let recovery_time = db.crash_and_recover();
    assert!(recovery_time > prismdb::types::Nanos::ZERO);
    let after = visible_state(&db);

    for (id, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        assert_eq!(
            b, a,
            "key {id} changed across crash_and_recover (before {b:?}, after {a:?})"
        );
        assert_explained_by_logs(a, id as u64, &logs, "after recovery");
    }

    // Recovery rebuilds per-key NVM state exactly: one slot per live NVM
    // object, so a second crash/recovery is idempotent.
    let first = db.nvm_object_count();
    db.crash_and_recover();
    assert_eq!(first, db.nvm_object_count());
    let again = visible_state(&db);
    assert_eq!(after, again, "second recovery changed visible state");
}

#[test]
fn background_compaction_workers_survive_concurrent_stress() {
    // Same mixed workload, but demotions/promotions now run on two
    // background worker threads racing the four client threads: last-
    // writer-wins, torn-value, scan-ordering and utilisation invariants
    // must all hold, and recovery (which aborts any in-flight job by
    // moving the sorted log's generation) must reproduce the visible state
    // exactly.
    let db = stress_db_with_workers(2);
    let logs = run_stress(&db);

    let state = visible_state(&db);
    let mut live = 0usize;
    for (id, observed) in state.iter().enumerate() {
        if observed.is_some() {
            live += 1;
        }
        assert_explained_by_logs(observed, id as u64, &logs, "after background stress");
    }
    assert!(live > 0, "the write-heavy mix must leave live keys");
    let scanned = db
        .scan(&Key::min(), KEY_SPACE as usize + 10)
        .expect("scan")
        .entries;
    assert_eq!(scanned.len(), live, "scan and point reads disagree");
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(db.nvm_utilization() <= 1.0 + 1e-9);

    // The workers must actually have taken compaction work off the
    // foreground path during the stress run.
    use prismdb::types::ConcurrentKvStore as _;
    let stats = db.stats();
    assert!(stats.compaction.jobs > 0, "stress must compact");
    assert!(
        stats.compaction.overlap_time > prismdb::types::Nanos::ZERO,
        "background workers must have overlapped compaction work"
    );

    // Crash with the queue likely non-empty, then verify state.
    let before = visible_state(&db);
    db.crash_and_recover();
    let after = visible_state(&db);
    for (id, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        assert_eq!(b, a, "key {id} changed across crash_and_recover");
        assert_explained_by_logs(a, id as u64, &logs, "after background recovery");
    }
}

/// Two adjacent key ids per partition that routes any traffic, used as
/// torn-batch sentinels: every batch that touches a partition writes both
/// members of its pair with the same tag, inside that partition's
/// sub-batch. Since a sub-batch installs under one continuous write-lock
/// hold, any reader snapshot must see the pair equal — seeing them differ
/// (or only one present) means a torn batch.
fn sentinel_pairs(db: &PrismDb) -> Vec<(usize, u64)> {
    let mut pairs: Vec<(usize, u64)> = Vec::new();
    for id in 0..KEY_SPACE - 1 {
        let shard = db.shard_of(&Key::from_id(id));
        if pairs.iter().any(|(p, _)| *p == shard) {
            continue;
        }
        if db.shard_of(&Key::from_id(id + 1)) == shard {
            pairs.push((shard, id));
        }
    }
    pairs
}

#[test]
fn concurrent_multi_partition_batches_are_atomic_per_partition() {
    const BATCHES_PER_THREAD: usize = 250;
    let db = stress_db_with_workers(2);
    let pairs = sentinel_pairs(&db);
    assert!(
        pairs.len() >= 2,
        "the key space must span several partitions"
    );
    let sentinel_ids: Vec<u64> = pairs.iter().flat_map(|(_, a)| [*a, *a + 1]).collect();

    let mut logs: Vec<HashMap<u64, LastWrite>> = Vec::with_capacity(THREADS);
    std::thread::scope(|scope| {
        // Writers: overlapping multi-partition batches. Each batch draws
        // 6..12 random entries (sentinel ids excluded), then appends both
        // sentinels of every partition the batch touches, tagged with the
        // batch's (thread, seq) value.
        let mut handles = Vec::with_capacity(THREADS);
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            let pairs = pairs.clone();
            let sentinel_ids = sentinel_ids.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBA7C + t as u64);
                let mut last: HashMap<u64, LastWrite> = HashMap::new();
                for seq in 0..BATCHES_PER_THREAD {
                    let mut batch = WriteBatch::new();
                    let mut touched: Vec<usize> = Vec::new();
                    let entries = rng.gen_range(6usize..12);
                    for _ in 0..entries {
                        let id = rng.gen_range(0u64..KEY_SPACE);
                        if sentinel_ids.contains(&id) {
                            continue;
                        }
                        let key = Key::from_id(id);
                        let shard = db.shard_of(&key);
                        if !touched.contains(&shard) {
                            touched.push(shard);
                        }
                        if rng.gen_range(0u32..100) < 75 {
                            let value = tagged_value(t, seq);
                            last.insert(
                                id,
                                LastWrite::Put {
                                    len: value.len(),
                                    fill: value.as_bytes()[0],
                                },
                            );
                            batch.put(key, value);
                        } else {
                            last.insert(id, LastWrite::Delete);
                            batch.delete(key);
                        }
                    }
                    let tag = tagged_value(t, seq);
                    for (shard, a) in &pairs {
                        if touched.contains(shard) {
                            for id in [*a, *a + 1] {
                                last.insert(
                                    id,
                                    LastWrite::Put {
                                        len: tag.len(),
                                        fill: tag.as_bytes()[0],
                                    },
                                );
                                batch.put(Key::from_id(id), tag.clone());
                            }
                        }
                    }
                    db.apply_batch(batch).expect("apply_batch");
                }
                last
            }));
        }
        // Readers: snapshot sentinel pairs while batches race. A scan of
        // 2 keys starting at the pair's first id stays within one
        // partition read-lock hold, so it is atomic with respect to that
        // partition's sub-batch installs.
        for r in 0..2usize {
            let db = Arc::clone(&db);
            let pairs = pairs.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5EED + r as u64);
                for _ in 0..400 {
                    let (_, a) = pairs[rng.gen_range(0usize..pairs.len())];
                    let entries = db.scan(&Key::from_id(a), 2).expect("scan").entries;
                    let first = entries.iter().find(|(k, _)| k.id() == a);
                    let second = entries.iter().find(|(k, _)| k.id() == a + 1);
                    match (first, second) {
                        (None, None) => {} // no batch has touched the partition yet
                        (Some((_, va)), Some((_, vb))) => {
                            assert_eq!(
                                (va.len(), va.as_bytes()[0]),
                                (vb.len(), vb.as_bytes()[0]),
                                "torn batch: sentinel pair at {a} observed with \
                                 different tags"
                            );
                        }
                        _ => panic!(
                            "torn batch: only one sentinel of the pair at {a} is \
                             visible"
                        ),
                    }
                }
            });
        }
        for handle in handles {
            logs.push(handle.join().expect("batch writer panicked"));
        }
    });

    // Last-writer-wins per key: every survivor must be some thread's
    // final write, exactly as in the per-op stress tests.
    let state = visible_state(&db);
    let mut live = 0usize;
    for (id, observed) in state.iter().enumerate() {
        if observed.is_some() {
            live += 1;
        }
        assert_explained_by_logs(observed, id as u64, &logs, "after batch stress");
    }
    assert!(live > 0, "the write-heavy mix must leave live keys");

    // The usual engine invariants, plus batch counters proving the
    // batched path ran and merged duplicates.
    let scanned = db
        .scan(&Key::min(), KEY_SPACE as usize + 10)
        .expect("scan")
        .entries;
    assert_eq!(scanned.len(), live, "scan and point reads disagree");
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    let objects = db.nvm_object_count() + db.flash_object_count();
    assert!(objects >= live, "tier objects cannot cover live keys");
    assert!(db.nvm_utilization() <= 1.0 + 1e-9);
    let stats = db.stats();
    assert!(stats.batch_groups > 0, "batches must have installed groups");
    assert!(stats.batch_entries > stats.batch_groups);
    assert!(stats.compaction.jobs > 0, "the stress must compact");

    // Crash with the queue likely non-empty: recovery must reproduce the
    // visible state exactly (whole sub-batches, never a prefix).
    let before = visible_state(&db);
    db.crash_and_recover();
    let after = visible_state(&db);
    for (id, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        assert_eq!(b, a, "key {id} changed across crash_and_recover");
        assert_explained_by_logs(a, id as u64, &logs, "after batch recovery");
    }
}

/// 256 logical clients multiplexed on 2 submitter OS threads, serviced
/// by a 2-executor async front-end over an engine with 2 background
/// compaction workers: write coalescing, executor scheduling, demotions
/// and the foreground all race. Afterwards the usual invariants hold —
/// every surviving value is some logical client's final write (a logical
/// client keeps one op in flight, so its writes are ordered; the
/// globally-last write to a key is necessarily its client's last),
/// reads are never torn, scans stay ordered, and crash recovery
/// reproduces the visible state.
#[test]
fn async_frontend_multiplexes_256_logical_clients_under_stress() {
    use prismdb::frontend::{Frontend, FrontendOptions, WriteTicket};

    const SUBMITTERS: usize = 2;
    const CLIENTS_PER_SUBMITTER: usize = 128;
    const OPS_PER_CLIENT: usize = 60;

    let db = stress_db_with_workers(2);
    let frontend = Frontend::start(
        Arc::clone(&db),
        FrontendOptions {
            executors: 2,
            queue_capacity: 256,
        },
    )
    .expect("valid frontend options");
    let frontend = &frontend;

    // One log per *logical* client (the last-writer argument needs the
    // per-client write order, not the per-OS-thread one).
    let mut logs: Vec<HashMap<u64, LastWrite>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(SUBMITTERS);
        for s in 0..SUBMITTERS {
            handles.push(scope.spawn(move || {
                struct Client {
                    rng: StdRng,
                    issued: usize,
                    in_flight: Option<WriteTicket>,
                    log: HashMap<u64, LastWrite>,
                    tag: usize,
                }
                let mut clients: Vec<Client> = (0..CLIENTS_PER_SUBMITTER)
                    .map(|c| Client {
                        rng: StdRng::seed_from_u64(0xA57C + (s * CLIENTS_PER_SUBMITTER + c) as u64),
                        issued: 0,
                        in_flight: None,
                        log: HashMap::new(),
                        tag: s * CLIENTS_PER_SUBMITTER + c,
                    })
                    .collect();
                let mut open = clients.len();
                while open > 0 {
                    let mut progressed = false;
                    for client in clients.iter_mut() {
                        if let Some(ticket) = client.in_flight.as_mut() {
                            match ticket.poll() {
                                Some(result) => {
                                    result.expect("async write must ack");
                                    client.in_flight = None;
                                    progressed = true;
                                    if client.issued == OPS_PER_CLIENT {
                                        open -= 1;
                                        continue;
                                    }
                                }
                                None => continue,
                            }
                        } else if client.issued == OPS_PER_CLIENT {
                            continue;
                        }
                        // Issue the client's next op. Writes dominate and
                        // go through the queue; reads/scans are checked
                        // inline for tearing and ordering.
                        let id = client.rng.gen_range(0u64..KEY_SPACE);
                        let key = Key::from_id(id);
                        match client.rng.gen_range(0u32..100) {
                            0..=54 => {
                                // Unique per logical client: length encodes
                                // the client id, fill the sequence number.
                                let value =
                                    Value::filled(64 + client.tag, (client.issued % 251) as u8);
                                client.log.insert(
                                    id,
                                    LastWrite::Put {
                                        len: value.len(),
                                        fill: value.as_bytes()[0],
                                    },
                                );
                                client.in_flight =
                                    Some(frontend.submit_put(key, value).expect("submit"));
                            }
                            55..=69 => {
                                client.log.insert(id, LastWrite::Delete);
                                client.in_flight =
                                    Some(frontend.submit_delete(&key).expect("submit"));
                            }
                            70..=84 => {
                                let got = frontend
                                    .submit_get(&key)
                                    .expect("submit")
                                    .wait()
                                    .expect("read");
                                if let Some(value) = got.value {
                                    assert!(
                                        value.as_bytes().iter().all(|b| *b == value.as_bytes()[0]),
                                        "torn value observed through the frontend"
                                    );
                                }
                            }
                            _ => {
                                let start = client.rng.gen_range(0u64..KEY_SPACE);
                                let scanned = frontend
                                    .submit_scan(&Key::from_id(start), 32)
                                    .expect("submit")
                                    .wait()
                                    .expect("scan")
                                    .entries;
                                assert!(
                                    scanned.windows(2).all(|w| w[0].0 < w[1].0),
                                    "frontend scan returned unordered keys"
                                );
                            }
                        }
                        client.issued += 1;
                        progressed = true;
                        if client.in_flight.is_none() && client.issued == OPS_PER_CLIENT {
                            open -= 1;
                        }
                    }
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
                clients.into_iter().map(|c| c.log).collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            logs.extend(handle.join().expect("submitter thread panicked"));
        }
    });

    // Every submission acked, queues empty, and pressure really produced
    // coalesced group commits.
    let frontend_stats = frontend.stats();
    assert_eq!(frontend_stats.submitted, frontend_stats.completed);
    assert_eq!(frontend_stats.queue_depth, 0);
    assert!(frontend_stats.coalesced_groups > 0);
    assert!(
        frontend_stats.mean_coalesce_width() > 1.0,
        "256 clients on 2 executors must coalesce writes (width {})",
        frontend_stats.mean_coalesce_width()
    );

    // Last-writer-wins per key, scan/point-read agreement, engine
    // invariants, and compaction overlap — as in the raw stress tests.
    let state = visible_state(&db);
    let mut live = 0usize;
    for (id, observed) in state.iter().enumerate() {
        if observed.is_some() {
            live += 1;
        }
        assert_explained_by_logs(observed, id as u64, &logs, "after async stress");
    }
    assert!(live > 0, "the write-heavy mix must leave live keys");
    let scanned = db
        .scan(&Key::min(), KEY_SPACE as usize + 10)
        .expect("scan")
        .entries;
    assert_eq!(scanned.len(), live, "scan and point reads disagree");
    assert!(db.nvm_utilization() <= 1.0 + 1e-9);
    use prismdb::types::ConcurrentKvStore as _;
    let stats = db.stats();
    assert!(stats.compaction.jobs > 0, "the stress must compact");
    assert!(
        stats.batch_groups > 0,
        "coalesced groups must have installed"
    );

    // Crash with the compaction queue likely non-empty: recovery must
    // reproduce the visible state exactly.
    let before = visible_state(&db);
    db.crash_and_recover();
    let after = visible_state(&db);
    for (id, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        assert_eq!(b, a, "key {id} changed across crash_and_recover");
        assert_explained_by_logs(a, id as u64, &logs, "after async recovery");
    }
}
