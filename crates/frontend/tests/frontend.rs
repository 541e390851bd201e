//! Frontend subsystem tests: coalescing, back-pressure, shutdown and the
//! ack/durability contract against a real PrismDB engine.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use prism_db::{Options, PrismDb};
use prism_frontend::{Frontend, FrontendOptions};
use prism_types::{
    ConcurrentKvStore, EngineStats, Key, Lookup, MemStore, Nanos, PrismError, Result, ScanResult,
    Ticket, Value, WriteBatch,
};

/// A single-shard engine whose `apply_batch` can be blocked by holding
/// [`GatedEngine::hold`]: while the gate is held the executor is stuck
/// mid-install, so subsequent submissions pile up in the partition queue
/// — a deterministic way to create queue pressure. A settable pressure
/// flag drives the watermark back-pressure hint.
struct GatedEngine {
    inner: Mutex<MemStore>,
    gate: Mutex<()>,
    pressured: AtomicBool,
}

impl GatedEngine {
    fn new() -> Self {
        GatedEngine {
            inner: Mutex::new(MemStore::default()),
            gate: Mutex::new(()),
            pressured: AtomicBool::new(false),
        }
    }

    /// Hold the install gate: every `apply_batch` blocks until the guard
    /// drops.
    fn hold(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn set_pressure(&self, on: bool) {
        self.pressured.store(on, Ordering::Relaxed);
    }

    fn store(&self) -> MutexGuard<'_, MemStore> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl ConcurrentKvStore for GatedEngine {
    fn put(&self, key: Key, value: Value) -> Result<Nanos> {
        prism_types::KvStore::put(&mut *self.store(), key, value)
    }

    fn get(&self, key: &Key) -> Result<Lookup> {
        prism_types::KvStore::get(&mut *self.store(), key)
    }

    fn delete(&self, key: &Key) -> Result<Nanos> {
        prism_types::KvStore::delete(&mut *self.store(), key)
    }

    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult> {
        prism_types::KvStore::scan(&mut *self.store(), start, count)
    }

    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        let _gate = self.hold();
        // Whole-batch pre-validation, like PrismDB's batched path: one
        // oversized value rejects the group before anything applies.
        for op in batch.entries() {
            if let prism_types::BatchOp::Put(_, value) = op {
                if value.len() > 4096 {
                    return Err(PrismError::ObjectTooLarge {
                        size: value.len(),
                        max: 4096,
                    });
                }
            }
        }
        prism_types::KvStore::apply_batch(&mut *self.store(), batch)
    }

    fn stats(&self) -> EngineStats {
        prism_types::KvStore::stats(&*self.store())
    }

    fn elapsed(&self) -> Nanos {
        prism_types::KvStore::elapsed(&*self.store())
    }

    fn engine_name(&self) -> &str {
        "gated-memstore"
    }

    fn shard_write_pressure(&self, _shard: usize) -> f64 {
        if self.pressured.load(Ordering::Relaxed) {
            1.5
        } else {
            0.0
        }
    }
}

fn prism_frontend(keys: u64, executors: usize) -> Frontend<PrismDb> {
    let mut options = Options::scaled_default(keys);
    options.num_partitions = 4;
    let engine = Arc::new(PrismDb::open(options).expect("valid options"));
    Frontend::start(
        engine,
        FrontendOptions {
            executors,
            ..FrontendOptions::default()
        },
    )
    .expect("valid frontend options")
}

#[test]
fn submissions_round_trip_through_the_queue() {
    let frontend = prism_frontend(1_000, 2);
    assert_eq!(frontend.executor_count(), 2);
    let mut writes = Vec::new();
    for id in 0..200u64 {
        writes.push(
            frontend
                .submit_put(Key::from_id(id), Value::filled(128, id as u8))
                .expect("submit"),
        );
    }
    for ticket in writes {
        assert!(ticket.wait().expect("write acked") >= Nanos::ZERO);
    }
    let lookup = frontend
        .submit_get(&Key::from_id(7))
        .expect("submit")
        .wait()
        .expect("read");
    assert_eq!(lookup.value.expect("key 7 present").as_bytes()[0], 7);
    let scan = frontend
        .submit_scan(&Key::from_id(0), 50)
        .expect("submit")
        .wait()
        .expect("scan");
    assert_eq!(scan.entries.len(), 50);
    assert!(scan.entries.windows(2).all(|w| w[0].0 < w[1].0));
    frontend
        .submit_delete(&Key::from_id(7))
        .expect("submit")
        .wait()
        .expect("delete acked");
    let lookup = frontend
        .submit_get(&Key::from_id(7))
        .expect("submit")
        .wait()
        .expect("read");
    assert!(lookup.value.is_none());
    let stats = frontend.stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(stats.submitted, 204);
    assert!(stats.coalesced_entries >= 201);
}

#[test]
fn queue_pressure_produces_write_coalescing() {
    let engine = Arc::new(GatedEngine::new());
    let frontend = Frontend::start(Arc::clone(&engine), FrontendOptions::default())
        .expect("valid frontend options");
    let mut tickets = Vec::new();
    {
        // While the gate is held the executor is stuck installing the
        // first group, so the remaining writes pile up and must coalesce
        // into at most one more group (plus chunking).
        let _gate = engine.hold();
        for id in 0..17u64 {
            tickets.push(
                frontend
                    .submit_put(Key::from_id(id), Value::filled(64, id as u8))
                    .expect("submit"),
            );
        }
    }
    for ticket in tickets {
        ticket.wait().expect("write acked");
    }
    let stats = frontend.stats();
    assert_eq!(stats.coalesced_entries, 17);
    assert!(
        stats.coalesced_groups <= 2,
        "blocked executor must coalesce the backlog into at most two \
         groups, got {}",
        stats.coalesced_groups
    );
    assert!(stats.mean_coalesce_width() > 1.0);
    // All writes really landed.
    for id in 0..17u64 {
        assert!(engine.get(&Key::from_id(id)).expect("get").value.is_some());
    }
}

#[test]
fn try_submit_reports_backpressure_on_a_full_queue() {
    let engine = Arc::new(GatedEngine::new());
    let frontend = Frontend::start(
        Arc::clone(&engine),
        FrontendOptions {
            queue_capacity: 2,
            ..FrontendOptions::default()
        },
    )
    .expect("valid frontend options");
    let gate = engine.hold();
    let first = frontend
        .submit_put(Key::from_id(0), Value::filled(8, 0))
        .expect("submit");
    // Wait until the executor has drained the first write (and is now
    // blocked on the gate), so the queue bound below is exact.
    while frontend.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    let second = frontend
        .submit_put(Key::from_id(1), Value::filled(8, 1))
        .expect("submit");
    let third = frontend
        .submit_put(Key::from_id(2), Value::filled(8, 2))
        .expect("submit");
    let err = frontend
        .try_submit_put(&Key::from_id(3), &Value::filled(8, 3))
        .expect_err("full queue must reject");
    assert!(matches!(
        err,
        PrismError::Backpressure {
            partition: 0,
            depth: 2
        }
    ));
    assert_eq!(frontend.stats().rejected, 1);
    drop(gate);
    for ticket in [first, second, third] {
        ticket.wait().expect("write acked");
    }
    // With space available again the retry goes through.
    frontend
        .try_submit_put(&Key::from_id(3), &Value::filled(8, 3))
        .expect("retry accepted")
        .wait()
        .expect("write acked");
}

#[test]
fn watermark_pressure_hint_shrinks_the_effective_capacity() {
    let engine = Arc::new(GatedEngine::new());
    let frontend = Frontend::start(
        Arc::clone(&engine),
        FrontendOptions {
            queue_capacity: 8,
            ..FrontendOptions::default()
        },
    )
    .expect("valid frontend options");
    // The hint is sampled at the end of each drain: raise the engine's
    // pressure, then let one write drain so the executor caches it.
    engine.set_pressure(true);
    frontend
        .submit_put(Key::from_id(0), Value::filled(8, 0))
        .expect("submit")
        .wait()
        .expect("write acked");
    // Block the executor and pile writes up to the *halved* bound (4 of
    // 8): the fifth try_submit bounces while a read still gets the full
    // bound.
    let gate = engine.hold();
    let mut tickets = vec![frontend
        .submit_put(Key::from_id(1), Value::filled(8, 1))
        .expect("submit")];
    while frontend.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    for id in 2..=4u64 {
        tickets.push(
            frontend
                .try_submit_put(&Key::from_id(id), &Value::filled(8, id as u8))
                .expect("below the halved bound"),
        );
    }
    tickets.push(
        frontend
            .try_submit_put(&Key::from_id(5), &Value::filled(8, 5))
            .expect("fills the halved bound"),
    );
    let err = frontend
        .try_submit_put(&Key::from_id(6), &Value::filled(8, 6))
        .expect_err("pressured partition must reject early");
    assert!(matches!(err, PrismError::Backpressure { depth: 4, .. }));
    let read = frontend
        .try_submit_get(&Key::from_id(0))
        .expect("reads keep the full bound");
    // Drop the pressure and release the executor: the next drain
    // refreshes the cached hint, restoring the full write bound.
    engine.set_pressure(false);
    drop(gate);
    for ticket in tickets {
        ticket.wait().expect("write acked");
    }
    read.wait().expect("read served");
    // One synchronous round-trip: it is serviced by a *later* drain,
    // which only starts after the previous drain's end-of-drain refresh
    // stored the lifted pressure — so the halved bound is
    // deterministically gone before the submissions below.
    frontend
        .submit_put(Key::from_id(20), Value::filled(8, 0))
        .expect("submit")
        .wait()
        .expect("write acked");
    tickets = Vec::new();
    for id in 6..=11u64 {
        tickets.push(
            frontend
                .try_submit_put(&Key::from_id(id), &Value::filled(8, id as u8))
                .expect("full bound restored after the refreshing drain"),
        );
    }
    for ticket in tickets {
        ticket.wait().expect("write acked");
    }
}

#[test]
fn shutdown_drains_queued_requests_and_errors_stragglers() {
    let engine = Arc::new(GatedEngine::new());
    let mut frontend = Frontend::start(Arc::clone(&engine), FrontendOptions::default())
        .expect("valid frontend options");
    let mut tickets = Vec::new();
    {
        let gate = engine.hold();
        for id in 0..12u64 {
            tickets.push(
                frontend
                    .submit_put(Key::from_id(id), Value::filled(16, id as u8))
                    .expect("submit"),
            );
        }
        // Start shutdown on another thread while the executor is still
        // blocked mid-install, then release the gate: shutdown really
        // overlaps in-flight work and must drain the backlog.
        std::thread::scope(|scope| {
            let frontend = &mut frontend;
            scope.spawn(move || frontend.shutdown());
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(gate);
        });
    }
    // Everything queued before shutdown was drained, not dropped.
    for ticket in tickets {
        ticket.wait().expect("queued write must drain on shutdown");
    }
    for id in 0..12u64 {
        assert!(engine.get(&Key::from_id(id)).expect("get").value.is_some());
    }
    // Stragglers after shutdown are refused.
    let err = frontend
        .submit_put(Key::from_id(99), Value::filled(8, 9))
        .expect_err("straggler must be refused");
    assert!(matches!(err, PrismError::ShuttingDown));
    let err = frontend
        .try_submit_get(&Key::from_id(0))
        .expect_err("straggler read must be refused");
    assert!(matches!(err, PrismError::ShuttingDown));
}

#[test]
fn cross_partition_batches_resolve_with_one_ticket() {
    let frontend = prism_frontend(2_000, 2);
    let mut batch = WriteBatch::new();
    for id in 0..100u64 {
        batch.put(Key::from_id(id * 17 % 2_000), Value::filled(64, id as u8));
    }
    batch.delete(Key::from_id(17));
    let latency = frontend
        .submit_batch(batch)
        .expect("submit")
        .wait()
        .expect("batch acked");
    assert!(latency > Nanos::ZERO);
    let miss = frontend
        .submit_get(&Key::from_id(17))
        .expect("submit")
        .wait()
        .expect("read");
    assert!(miss.value.is_none());
    let hit = frontend
        .submit_get(&Key::from_id(34))
        .expect("submit")
        .wait()
        .expect("read");
    assert!(hit.value.is_some());
    // An empty batch resolves immediately.
    assert_eq!(
        frontend
            .submit_batch(WriteBatch::new())
            .expect("submit")
            .wait()
            .expect("empty batch"),
        Nanos::ZERO
    );
}

#[test]
fn write_errors_stay_scoped_to_the_failing_request() {
    let engine = Arc::new(GatedEngine::new());
    let frontend = Frontend::start(Arc::clone(&engine), FrontendOptions::default())
        .expect("valid frontend options");
    // Pile up a good write and an oversized one behind the gate so they
    // coalesce into one group; the group fails wholesale, the retry
    // isolates the offender.
    let (good, bad) = {
        let _gate = engine.hold();
        let good = frontend
            .submit_put(Key::from_id(1), Value::filled(64, 1))
            .expect("submit");
        let bad = frontend
            .submit_put(Key::from_id(2), Value::filled(8192, 2))
            .expect("submit");
        (good, bad)
    };
    good.wait().expect("the innocent write must succeed");
    let err = bad.wait().expect_err("the oversized write must fail");
    assert!(matches!(err, PrismError::ObjectTooLarge { .. }));
    assert!(engine.get(&Key::from_id(1)).expect("get").value.is_some());
    assert!(engine.get(&Key::from_id(2)).expect("get").value.is_none());
}

/// The durability half of the crash contract: an *acked* op was installed
/// through `apply_batch` (PrismDB persists to NVM synchronously), so it
/// must survive `crash_and_recover`. The in-queue-but-unacked half is
/// exercised by the differential suite's racing crash column.
#[test]
fn acked_ops_survive_crash_and_recover() {
    let frontend = prism_frontend(2_000, 2);
    let mut tickets = Vec::new();
    for id in 0..500u64 {
        tickets.push(
            frontend
                .submit_put(Key::from_id(id), Value::filled(256, (id % 251) as u8))
                .expect("submit"),
        );
    }
    tickets.push(frontend.submit_delete(&Key::from_id(123)).expect("submit"));
    for ticket in tickets {
        ticket.wait().expect("acked");
    }
    frontend.engine().crash_and_recover();
    for id in 0..500u64 {
        let lookup = frontend
            .submit_get(&Key::from_id(id))
            .expect("submit")
            .wait()
            .expect("read");
        if id == 123 {
            assert!(lookup.value.is_none(), "acked delete must survive");
        } else {
            let value = lookup
                .value
                .unwrap_or_else(|| panic!("acked put of key {id} lost by crash"));
            assert_eq!(value.as_bytes()[0], (id % 251) as u8);
        }
    }
}

#[test]
fn many_logical_clients_multiplex_on_one_submitter_thread() {
    let frontend = prism_frontend(4_000, 2);
    const CLIENTS: usize = 128;
    const OPS_PER_CLIENT: usize = 40;
    // Each logical client keeps one op in flight; one OS thread (this
    // one) round-robins over the outstanding tickets.
    let mut in_flight: Vec<Option<prism_frontend::WriteTicket>> = Vec::new();
    for client in 0..CLIENTS {
        let key = Key::from_id((client * OPS_PER_CLIENT) as u64);
        in_flight.push(Some(
            frontend
                .submit_put(key, Value::filled(64, client as u8))
                .expect("submit"),
        ));
    }
    let mut issued = vec![1usize; CLIENTS];
    let mut done = 0;
    while done < CLIENTS {
        for client in 0..CLIENTS {
            let Some(ticket) = in_flight[client].as_mut() else {
                continue;
            };
            if ticket.poll().is_none() {
                continue;
            }
            if issued[client] == OPS_PER_CLIENT {
                in_flight[client] = None;
                done += 1;
                continue;
            }
            let key = Key::from_id((client * OPS_PER_CLIENT + issued[client]) as u64);
            in_flight[client] = Some(
                frontend
                    .submit_put(key, Value::filled(64, client as u8))
                    .expect("submit"),
            );
            issued[client] += 1;
        }
        std::thread::yield_now();
    }
    let stats = frontend.stats();
    assert_eq!(stats.submitted, (CLIENTS * OPS_PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.submitted);
    for client in (0..CLIENTS).step_by(13) {
        for op in (0..OPS_PER_CLIENT).step_by(7) {
            let key = Key::from_id((client * OPS_PER_CLIENT + op) as u64);
            let lookup = frontend
                .submit_get(&key)
                .expect("submit")
                .wait()
                .expect("read");
            assert_eq!(lookup.value.expect("written").as_bytes()[0], client as u8);
        }
    }
    // Executors did real virtual-time work and report it.
    assert!(frontend.executor_times().iter().any(|t| *t > Nanos::ZERO));
    assert!(frontend
        .shard_serial_times()
        .iter()
        .any(|t| *t > Nanos::ZERO));
}

#[test]
fn gauge_counts_outstanding_tickets_and_drain_quiesces() {
    let frontend = prism_frontend(2_000, 2);
    assert_eq!(frontend.outstanding_tickets(), 0);
    let mut tickets = Vec::new();
    for id in 0..120u64 {
        tickets.push(
            frontend
                .submit_put(Key::from_id(id), Value::filled(32, id as u8))
                .expect("submit"),
        );
    }
    // Quiesce without shutting down: afterwards nothing is queued or
    // outstanding, and the front-end still accepts work.
    frontend.drain();
    assert_eq!(frontend.outstanding_tickets(), 0);
    assert_eq!(frontend.stats().outstanding_tickets, 0);
    assert_eq!(frontend.stats().queue_depth, 0);
    for ticket in tickets {
        ticket.wait().expect("write acked");
    }
    // Dropping an unread ticket must not leak a gauge count: the gauge
    // tracks the completion side, which already fired.
    drop(
        frontend
            .submit_get(&Key::from_id(3))
            .expect("still accepting after drain"),
    );
    frontend.drain();
    assert_eq!(frontend.outstanding_tickets(), 0);
}

/// A sharded engine (`shard_of = id % shards`) that checks the front-end's
/// dispatch invariant from below. It panics if two calls for one shard
/// ever overlap (one executor services a partition at a time) or if a
/// key's sequence values ([`seq_value`]) are written out of order (two
/// drains of one partition never reorder). `apply_batch` blocks on a gate
/// for batches touching shard 0, so an executor can be wedged on that
/// partition deterministically. Drive it with single-key requests only:
/// they reach the engine from their own shard's queue.
struct ExclusiveEngine {
    inner: Mutex<MemStore>,
    gate: Mutex<()>,
    busy: Vec<AtomicBool>,
    last_seq: Mutex<HashMap<u64, u64>>,
    /// Makes every `get` take a couple of milliseconds, so that a waiter
    /// woken after one answer would be seen running before the next.
    slow_reads: AtomicBool,
}

/// Marks a shard busy for the length of one engine call.
struct Entered<'a>(&'a AtomicBool);

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn seq_value(seq: u64) -> Value {
    Value::from_vec(seq.to_le_bytes().to_vec())
}

fn seq_of(value: &Value) -> u64 {
    u64::from_le_bytes(value.as_bytes().try_into().expect("a sequence value"))
}

impl ExclusiveEngine {
    fn new(shards: usize) -> Self {
        ExclusiveEngine {
            inner: Mutex::new(MemStore::default()),
            gate: Mutex::new(()),
            busy: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            last_seq: Mutex::new(HashMap::new()),
            slow_reads: AtomicBool::new(false),
        }
    }

    fn hold(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn store(&self) -> MutexGuard<'_, MemStore> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn enter(&self, key: &Key) -> Entered<'_> {
        let shard = self.shard_of(key);
        assert!(
            !self.busy[shard].swap(true, Ordering::SeqCst),
            "two engine calls for shard {shard} overlap"
        );
        Entered(&self.busy[shard])
    }
}

impl ConcurrentKvStore for ExclusiveEngine {
    fn put(&self, key: Key, value: Value) -> Result<Nanos> {
        prism_types::KvStore::put(&mut *self.store(), key, value)
    }

    fn get(&self, key: &Key) -> Result<Lookup> {
        let _entered = self.enter(key);
        if self.slow_reads.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(2));
        }
        prism_types::KvStore::get(&mut *self.store(), key)
    }

    fn delete(&self, key: &Key) -> Result<Nanos> {
        prism_types::KvStore::delete(&mut *self.store(), key)
    }

    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult> {
        prism_types::KvStore::scan(&mut *self.store(), start, count)
    }

    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        let home = batch.entries().first().expect("no empty groups").key();
        let _entered = self.enter(home);
        let _gate = (self.shard_of(home) == 0).then(|| self.hold());
        {
            let mut last_seq = self.last_seq.lock().unwrap_or_else(|p| p.into_inner());
            for op in batch.entries() {
                assert_eq!(self.shard_of(op.key()), self.shard_of(home));
                if let prism_types::BatchOp::Put(key, value) = op {
                    let last = last_seq.entry(key.id()).or_insert(0);
                    let seq = seq_of(value);
                    assert!(seq > *last, "key {}: {seq} after {last}", key.id());
                    *last = seq;
                }
            }
        }
        prism_types::KvStore::apply_batch(&mut *self.store(), batch)
    }

    fn stats(&self) -> EngineStats {
        prism_types::KvStore::stats(&*self.store())
    }

    fn elapsed(&self) -> Nanos {
        prism_types::KvStore::elapsed(&*self.store())
    }

    fn engine_name(&self) -> &str {
        "exclusive-memstore"
    }

    fn shard_count(&self) -> usize {
        self.busy.len()
    }

    fn shard_of(&self, key: &Key) -> usize {
        (key.id() % self.busy.len() as u64) as usize
    }
}

fn exclusive_frontend(shards: usize, executors: usize) -> Frontend<ExclusiveEngine> {
    Frontend::start(
        Arc::new(ExclusiveEngine::new(shards)),
        FrontendOptions {
            executors,
            ..FrontendOptions::default()
        },
    )
    .expect("valid frontend options")
}

const STRANDED_AFTER: Duration = Duration::from_secs(30);

/// Poll a ticket until it resolves. A stranded request fails the test
/// after `STRANDED_AFTER` instead of hanging it (and an executor that
/// panicked shows up as the ticket's abandonment panic); the clock runs
/// per wait, so a slow host only makes the test slow.
fn await_ticket<T>(mut ticket: Ticket<T>) -> T {
    let started = Instant::now();
    loop {
        if let Some(result) = ticket.poll() {
            return result;
        }
        assert!(
            started.elapsed() < STRANDED_AFTER,
            "request stranded: its ticket is still unresolved"
        );
        std::thread::yield_now();
    }
}

/// Two executors over four shards. One is wedged inside an install on
/// partition 0: every other partition keeps being served by the executor
/// that is left, in submission order, while partition 0's own backlog
/// waits for the wedged drain to finish.
#[test]
fn a_wedged_executor_blocks_only_the_partition_it_holds() {
    let frontend = exclusive_frontend(4, 2);
    let engine = Arc::clone(frontend.engine());
    let gate = engine.hold();
    let wedged = frontend
        .submit_put(Key::from_id(0), seq_value(1))
        .expect("submit");
    // Wait until an executor has taken the write and is blocked inside
    // apply_batch on the held gate.
    while frontend.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    let behind_the_wedge = frontend
        .submit_put(Key::from_id(4), seq_value(1))
        .expect("submit");
    // 60 writes over partitions 1..=3, twenty rounds per key.
    let mut elsewhere = Vec::new();
    for seq in 1..=20u64 {
        for id in 1..=3u64 {
            elsewhere.push(
                frontend
                    .submit_put(Key::from_id(id), seq_value(seq))
                    .expect("submit"),
            );
        }
    }
    for ticket in elsewhere {
        await_ticket(ticket).expect("other partitions are served while one is wedged");
    }
    // The gate is still held, so partition 0 has not moved.
    assert!(!wedged.is_done() && !behind_the_wedge.is_done());
    for id in 1..=3u64 {
        let lookup = await_ticket(frontend.submit_get(&Key::from_id(id)).expect("submit"));
        assert_eq!(seq_of(&lookup.expect("read").value.expect("written")), 20);
    }
    drop(gate);
    await_ticket(wedged).expect("wedged write completes once released");
    await_ticket(behind_the_wedge).expect("its backlog follows");
    frontend.drain();
    assert_eq!(frontend.outstanding_tickets(), 0);
}

/// One executor over four shards, wedged inside an install on partition 0
/// while nine gets for one registered thread queue up on partitions 1–3.
/// Released, the executor works through the backlog in one pass and owes
/// that thread one unpark, fired when it finds the ready list empty — by
/// which time every answer is published. The reads are slowed only so
/// that an unpark per answer would show: the thread would return from
/// `park` with most of its tickets still open. Nothing the assertion
/// needs depends on the pause.
#[test]
fn a_backlogged_pass_wakes_its_waiter_once_with_every_answer() {
    let frontend = exclusive_frontend(4, 1);
    let engine = Arc::clone(frontend.engine());
    engine.slow_reads.store(true, Ordering::Relaxed);
    let gate = engine.hold();
    let wedged = frontend
        .submit_put(Key::from_id(0), seq_value(1))
        .expect("submit");
    while frontend.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    let mut tickets: Vec<_> = (0..9u64)
        .map(|i| {
            let ticket = frontend
                .submit_get(&Key::from_id(1 + i % 3))
                .expect("submit");
            assert!(!ticket.register(std::thread::current()));
            ticket
        })
        .collect();
    drop(gate);
    let deadline = Instant::now() + STRANDED_AFTER;
    std::thread::park_timeout(deadline.saturating_duration_since(Instant::now()));
    assert!(Instant::now() < deadline, "never woken for the answers");
    for ticket in &mut tickets {
        let lookup = ticket.poll().expect("every answer precedes the one wake");
        assert_eq!(lookup.expect("read").value, None);
    }
    await_ticket(wedged).expect("the wedged write completed");
    frontend.drain();
    assert_eq!(frontend.outstanding_tickets(), 0);
}

/// 4 submitter threads x 4 executors x 8 shards, every thread pipelining
/// increasing sequence values onto its own keys (which cover every
/// shard). The engine panics on overlapping calls for one shard or on a
/// key written out of order, so this passing is the dispatch invariant
/// holding under contention.
#[test]
fn one_executor_at_a_time_services_a_partition_in_submission_order() {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 16;
    const ROUNDS: u64 = 150;
    let frontend = exclusive_frontend(8, 4);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let frontend = &frontend;
            scope.spawn(move || {
                let keys = || (0..KEYS_PER_THREAD).map(|k| Key::from_id(thread * 1_000 + k));
                let mut tickets = VecDeque::new();
                for seq in 1..=ROUNDS {
                    for key in keys() {
                        tickets
                            .push_back(frontend.submit_put(key, seq_value(seq)).expect("submit"));
                        // Keep a bounded window of unanswered writes.
                        if tickets.len() > 48 {
                            await_ticket(tickets.pop_front().expect("non-empty")).expect("write");
                        }
                    }
                    // A read queued behind this round's write of its key
                    // sees exactly that write.
                    let probe = Key::from_id(thread * 1_000 + seq % KEYS_PER_THREAD);
                    let lookup = await_ticket(frontend.submit_get(&probe).expect("submit"));
                    assert_eq!(seq_of(&lookup.expect("read").value.expect("written")), seq);
                }
                for ticket in tickets {
                    await_ticket(ticket).expect("write");
                }
                for key in keys() {
                    let lookup = await_ticket(frontend.submit_get(&key).expect("submit"));
                    assert_eq!(
                        seq_of(&lookup.expect("read").value.expect("written")),
                        ROUNDS
                    );
                }
            });
        }
    });
    let stats = frontend.stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(frontend.outstanding_tickets(), 0);
}

/// Window-1 ping-pong: every request finds the executors idle (or about
/// to be), which is exactly where a lost wake-up would strand it.
#[test]
fn window_one_round_trips_never_strand() {
    const ROUND_TRIPS: u64 = 50_000;
    let frontend = exclusive_frontend(8, 4);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for trip in 1..=ROUND_TRIPS {
        // xorshift64: a cheap, seeded walk over the partitions.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let key = Key::from_id(rng % 64);
        if trip % 2 == 0 {
            await_ticket(frontend.submit_get(&key).expect("submit")).expect("read");
        } else {
            await_ticket(frontend.submit_put(key, seq_value(trip)).expect("submit"))
                .expect("write");
        }
    }
    let stats = frontend.stats();
    assert_eq!(stats.submitted, ROUND_TRIPS);
    assert_eq!(stats.completed, ROUND_TRIPS);
    assert_eq!(frontend.outstanding_tickets(), 0);
}

/// Four submitters pipeline writes over eight partitions right up to a
/// shutdown and past it (`shutdown` takes `&mut self`, so they reach the
/// front-end through an `RwLock` and no submission overlaps the call
/// itself). Every ticket is answered — accepted requests complete, later
/// submissions are refused — and none is left outstanding.
#[test]
fn shutdown_with_requests_racing_in_answers_every_ticket() {
    let frontend = RwLock::new(exclusive_frontend(8, 4));
    let answered: u64 = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4u64)
            .map(|thread| {
                let frontend = &frontend;
                scope.spawn(move || {
                    let mut answered = 0u64;
                    let mut resolve = |ticket| match await_ticket(ticket) {
                        Ok(_) | Err(PrismError::ShuttingDown) => answered += 1,
                        Err(err) => panic!("unexpected failure: {err}"),
                    };
                    let mut window = VecDeque::new();
                    for seq in 1u64.. {
                        let key = Key::from_id(thread * 1_000 + seq % 32);
                        let submitted = frontend
                            .read()
                            .expect("lock")
                            .try_submit_put(&key, &seq_value(seq));
                        match submitted {
                            Ok(ticket) => window.push_back(ticket),
                            Err(PrismError::ShuttingDown) => break,
                            Err(err) => panic!("unexpected refusal: {err}"),
                        }
                        if window.len() == 16 {
                            resolve(window.pop_front().expect("non-empty"));
                        }
                    }
                    window.into_iter().for_each(&mut resolve);
                    answered
                })
            })
            .collect();
        // Shut down under load: the pipelines are full by the time a
        // thousand requests have completed.
        let started = Instant::now();
        while frontend.read().expect("lock").stats().completed < 1_000 {
            assert!(started.elapsed() < STRANDED_AFTER, "no progress");
            std::thread::yield_now();
        }
        frontend.write().expect("lock").shutdown();
        // Each submitter runs until its first refused submission.
        submitters
            .into_iter()
            .map(|handle| handle.join().expect("submitter"))
            .sum()
    });
    let frontend = frontend.into_inner().expect("lock");
    let stats = frontend.stats();
    assert_eq!(frontend.outstanding_tickets(), 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(stats.completed, answered);
}

#[test]
fn try_submit_scan_and_batch_round_trip() {
    let frontend = prism_frontend(2_000, 2);
    let mut batch = WriteBatch::new();
    for id in 300..340u64 {
        batch.put(Key::from_id(id), Value::filled(16, id as u8));
    }
    frontend
        .try_submit_batch(&batch)
        .expect("submit")
        .wait()
        .expect("batch acked");
    // An empty batch resolves immediately with zero latency.
    assert_eq!(
        frontend
            .try_submit_batch(&WriteBatch::new())
            .expect("submit")
            .wait()
            .expect("empty batch"),
        Nanos::ZERO
    );
    let scan = frontend
        .try_submit_scan(&Key::from_id(300), 25)
        .expect("submit")
        .wait()
        .expect("scan");
    assert_eq!(scan.entries.len(), 25);
    assert!(scan.entries.iter().all(|(k, _)| k.id() >= 300));
    frontend.drain();
    assert_eq!(frontend.outstanding_tickets(), 0);
}
