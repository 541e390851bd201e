//! Differential (model-based) testing: PrismDB (hash- and range-
//! partitioned, with inline and background compaction), the multi-tier
//! LSM baseline and the `MemStore` oracle are driven with the same seeded
//! random mixed operation stream, and their visible state (point lookups
//! and range scans) must be identical after every batch. Any divergence —
//! tombstones resurfacing, stale flash versions winning a merge,
//! cross-partition scans dropping or duplicating keys, a background
//! compaction job clobbering a foreground write it raced with — fails
//! deterministically with the seed printed in the assertion.
//!
//! The background-compaction engine is crashed *mid-run* (while its job
//! queue and workers are busy): recovery must land on exactly the
//! oracle's state, proving an interrupted plan/execute/install pipeline
//! recovers to either the old or the new state, never a half-compacted
//! one.
//!
//! A fifth column drives the *batched* write path: the identical op
//! stream with its writes chunked into [`WriteBatch`]es (flushed before
//! every read/scan so read-your-writes holds for the comparisons). Its
//! engine is crash-recovered mid-run with entries still buffered
//! client-side, and once more *while a multi-partition batch is in
//! flight* on another thread — per-partition sub-batches must be
//! all-or-nothing after recovery, so the final state must still equal
//! the oracle's exactly.
//!
//! A sixth column drives the *async submission front-end*: writes are
//! submitted onto the per-partition queues without waiting (tickets
//! accumulate client-side) and every read/scan first waits all pending
//! acks, so read-your-writes holds and executor-coalesced group commits
//! are compared against the oracle exactly. Its engine is crash-recovered
//! mid-run *while submissions are still in flight* in the queues (acked
//! ops must survive; queued ops drain through the executors and
//! reconverge), and once more with unacked tickets outstanding.
//!
//! A seventh column drives the *transaction API*: writes commit through
//! optimistic multi-key transactions (each buffered key is read inside
//! the transaction first, so commits validate real read sets). Mid-run a
//! multi-partition commit is deliberately left *torn* — intent persisted,
//! one partition group installed, never sealed — and the engine is
//! crash-recovered: the commit-log rollback must make the torn commit
//! vanish atomically while every sealed transaction survives, so the
//! column must still equal the oracle exactly.
//!
//! An eighth column drives the *network serving layer* end to end: every
//! operation is encoded onto the wire, carried over the in-process
//! duplex-pipe transport, decoded by the multiplexing server, executed
//! through the submission front-end, and the response decoded back —
//! writes pipeline (a bounded window of unacknowledged frames), reads
//! wait the window first so read-your-writes holds. Mid-run the engine
//! is crashed underneath the live server while frames are in flight, and
//! later the *whole server* is torn down mid-pipeline: the shutdown
//! drain acks everything submitted, the client resolves every in-flight
//! frame against the old connection (landed / refused / lost), the
//! engine is crash-recovered, a fresh server is started, and the client
//! reconnects and replays exactly the unlanded frames in order — so the
//! column must still equal the oracle exactly.
//!
//! A ninth column replays the same op stream under a seeded low-rate
//! *storage fault plan* (injected I/O errors, bit flips and torn writes
//! on both tiers). Exact equality is impossible — failed writes leave a
//! key in one of a small acceptable-state set — so this column runs an
//! uncertainty-aware oracle with a different contract: the engine may
//! *error* (corruption is detected and surfaced, degraded partitions
//! refuse writes) but may never *lie* — every value a read or scan
//! returns must be a state some legal execution could hold. It is
//! crash-recovered mid-run with corrupt slots live (recovery must
//! quarantine, never resurrect), and after a final heal-and-scrub phase
//! it must converge to the oracle exactly.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prismdb::db::{FaultPlan, Options, PartitionHealth, Partitioning, PrismDb, TierFaultRates};
use prismdb::frontend::{Frontend, FrontendOptions, WriteTicket};
use prismdb::lsm::{LsmConfig, LsmTree};
use prismdb::net::protocol::{Request, Status};
use prismdb::net::transport::duplex_listener;
use prismdb::net::{NetClient, NetServer, ServerOptions};
use prismdb::types::{
    run_transaction, BatchOp, ConcurrentKvStore, EngineStats, Key, KvStore, Lookup, MemStore,
    Nanos, Op, PrismError, Result, ScanResult, Value, WriteBatch,
};

/// Key-id universe. Small enough that keys are updated/deleted/re-inserted
/// many times per run, which is what shakes out version/tombstone bugs.
const KEY_SPACE: u64 = 1_500;
/// Operations per seed.
const OPS_PER_SEED: usize = 10_000;
/// Visible state is compared after every batch this size (and once at the
/// end).
const BATCH: usize = 1_000;

fn prism_engine(partitioning: Partitioning) -> PrismDb {
    prism_engine_with_workers(partitioning, 0)
}

fn prism_engine_with_workers(partitioning: Partitioning, workers: usize) -> PrismDb {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = 3;
    options.partitioning = partitioning;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // Keep NVM small relative to the dataset so demotion compactions (and
    // on read-heavy phases, promotions) run constantly mid-test.
    options.nvm_capacity_bytes = 256 * 1024;
    options.compaction_workers = workers;
    PrismDb::open(options).expect("valid options")
}

fn lsm_engine() -> LsmTree {
    LsmTree::open(LsmConfig::het(KEY_SPACE, 1.0 / 6.0)).expect("valid config")
}

/// How many write entries the batched column buffers before submitting
/// one [`WriteBatch`].
const BATCH_CHUNK: usize = 16;

/// A client-side batching adapter over a shared PrismDB: writes buffer
/// into a [`WriteBatch`] submitted every [`BATCH_CHUNK`] entries, and any
/// read or scan flushes first so read-your-writes holds and every
/// comparison against the oracle is exact.
struct BatchingKv {
    db: Arc<PrismDb>,
    pending: WriteBatch,
}

impl BatchingKv {
    fn new(db: PrismDb) -> Self {
        BatchingKv {
            db: Arc::new(db),
            pending: WriteBatch::with_capacity(BATCH_CHUNK),
        }
    }

    fn flush(&mut self) -> Result<Nanos> {
        if self.pending.is_empty() {
            return Ok(Nanos::ZERO);
        }
        self.db.apply_batch(std::mem::take(&mut self.pending))
    }

    /// Crash the underlying engine. Deliberately does NOT flush: entries
    /// still buffered client-side are not yet submitted, survive the
    /// crash in the client, and reach the engine with a later flush —
    /// mirroring a client whose group commit had not been issued yet.
    fn crash_and_recover(&self) -> Nanos {
        self.db.crash_and_recover()
    }

    fn engine(&self) -> Arc<PrismDb> {
        Arc::clone(&self.db)
    }
}

impl KvStore for BatchingKv {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.pending.put(key, value);
        if self.pending.len() >= BATCH_CHUNK {
            return self.flush();
        }
        Ok(Nanos::ZERO)
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.pending.delete(key.clone());
        if self.pending.len() >= BATCH_CHUNK {
            return self.flush();
        }
        Ok(Nanos::ZERO)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        self.flush()?;
        ConcurrentKvStore::get(&self.db, key)
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        self.flush()?;
        ConcurrentKvStore::scan(&self.db, start, count)
    }

    fn stats(&self) -> EngineStats {
        ConcurrentKvStore::stats(&self.db)
    }

    fn elapsed(&self) -> Nanos {
        ConcurrentKvStore::elapsed(&self.db)
    }

    fn engine_name(&self) -> &str {
        "prismdb-batched"
    }
}

/// How many write entries the transactional column buffers before
/// committing one optimistic transaction. Smaller than [`BATCH_CHUNK`] so
/// commits span partitions often without every commit being huge.
const TXN_CHUNK: usize = 8;

/// The transactional column: writes buffer client-side and commit through
/// an optimistic [`Transaction`](prismdb::types::Transaction) — every
/// buffered key is first *read* inside the transaction (so the commit
/// validates a real read set) and then written, making each flush a
/// multi-key, usually multi-partition, atomic commit. Reads and scans
/// flush first so read-your-writes holds for the oracle comparisons.
struct TxnKv {
    db: Arc<PrismDb>,
    pending: WriteBatch,
}

impl TxnKv {
    fn new(db: PrismDb) -> Self {
        TxnKv {
            db: Arc::new(db),
            pending: WriteBatch::with_capacity(TXN_CHUNK),
        }
    }

    fn flush(&mut self) -> Result<Nanos> {
        if self.pending.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let ops = std::mem::take(&mut self.pending).into_entries();
        run_transaction(&*self.db, 3, |txn| {
            // Read every key first: the commit then validates that none
            // of them changed after the snapshot (trivially true in this
            // single-threaded column, but it drives the whole OCC path).
            for op in &ops {
                txn.get(op.key())?;
            }
            for op in ops.iter().cloned() {
                match op {
                    BatchOp::Put(key, value) => txn.put(key, value),
                    BatchOp::Delete(key) => txn.delete(key),
                }
            }
            Ok(())
        })?;
        Ok(Nanos::ZERO)
    }

    /// Crash the underlying engine (client-buffered entries survive in
    /// the client and commit with a later flush).
    fn crash_and_recover(&self) -> Nanos {
        self.db.crash_and_recover()
    }

    fn engine(&self) -> Arc<PrismDb> {
        Arc::clone(&self.db)
    }
}

impl KvStore for TxnKv {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.pending.put(key, value);
        if self.pending.len() >= TXN_CHUNK {
            return self.flush();
        }
        Ok(Nanos::ZERO)
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.pending.delete(key.clone());
        if self.pending.len() >= TXN_CHUNK {
            return self.flush();
        }
        Ok(Nanos::ZERO)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        self.flush()?;
        ConcurrentKvStore::get(&*self.db, key)
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        self.flush()?;
        ConcurrentKvStore::scan(&*self.db, start, count)
    }

    fn stats(&self) -> EngineStats {
        ConcurrentKvStore::stats(&*self.db)
    }

    fn elapsed(&self) -> Nanos {
        ConcurrentKvStore::elapsed(&*self.db)
    }

    fn engine_name(&self) -> &str {
        "prismdb-txn"
    }
}

/// The async column: a client of the submission front-end that fires
/// writes without waiting (the tickets pile up client-side, so the
/// engine-side queues really hold in-flight work) and waits all pending
/// acks before any read or scan, so every comparison against the oracle
/// is exact.
struct FrontendKv {
    frontend: Frontend<PrismDb>,
    pending: Vec<WriteTicket>,
}

impl FrontendKv {
    fn new(db: PrismDb) -> Self {
        FrontendKv {
            frontend: Frontend::start(
                Arc::new(db),
                FrontendOptions {
                    executors: 2,
                    ..FrontendOptions::default()
                },
            )
            .expect("valid frontend options"),
            pending: Vec::new(),
        }
    }

    /// Wait every outstanding write ack.
    fn flush(&mut self) {
        for ticket in self.pending.drain(..) {
            ticket.wait().expect("async write must ack");
        }
    }

    /// Crash the engine underneath the (still running) front-end.
    /// Deliberately does NOT flush: submissions still queued are in
    /// flight across the crash and drain through the executors afterwards.
    fn crash_and_recover(&self) -> Nanos {
        self.frontend.engine().crash_and_recover()
    }

    fn engine(&self) -> Arc<PrismDb> {
        Arc::clone(self.frontend.engine())
    }

    fn frontend_stats(&self) -> prismdb::types::FrontendStats {
        self.frontend.stats()
    }
}

impl KvStore for FrontendKv {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.pending.push(self.frontend.submit_put(key, value)?);
        Ok(Nanos::ZERO)
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.pending.push(self.frontend.submit_delete(key)?);
        Ok(Nanos::ZERO)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        self.flush();
        self.frontend.submit_get(key)?.wait()
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        self.flush();
        self.frontend.submit_scan(start, count)?.wait()
    }

    fn stats(&self) -> EngineStats {
        ConcurrentKvStore::stats(&**self.frontend.engine())
    }

    fn elapsed(&self) -> Nanos {
        ConcurrentKvStore::elapsed(&**self.frontend.engine())
    }

    fn engine_name(&self) -> &str {
        "prismdb-async"
    }
}

/// How many unacknowledged frames the wire column pipelines before
/// waiting. Kept below the front-end's per-partition queue capacity so a
/// back-pressure refusal (which would reorder a retried write behind a
/// later same-key write) can never occur in this single-client column —
/// the client is configured to fail loudly if one does.
const NET_WINDOW: usize = 16;

/// The wire column: every operation travels the full network path —
/// encoded, framed, carried over the in-process duplex transport, decoded
/// by the server, executed through the submission front-end, and the
/// response decoded back. Writes pipeline up to [`NET_WINDOW`] frames;
/// reads and scans wait the window first so read-your-writes holds.
struct NetKv {
    db: Arc<PrismDb>,
    server: Option<NetServer<PrismDb>>,
    client: NetClient,
    /// Sent but not yet acknowledged frames, in send order, kept so a
    /// server teardown can replay exactly the ones that never landed.
    in_flight: Vec<(u64, Request)>,
    /// Wire frames received across all server incarnations.
    total_frames: u64,
    /// Server restarts performed (the mid-run teardown plus the final one).
    restarts: u64,
}

impl NetKv {
    fn server_options() -> ServerOptions {
        ServerOptions {
            frontend: FrontendOptions {
                executors: 2,
                ..FrontendOptions::default()
            },
            ..ServerOptions::default()
        }
    }

    fn new(db: PrismDb) -> Self {
        let db = Arc::new(db);
        let (listener, connector) = duplex_listener();
        let server = NetServer::start(Arc::clone(&db), Arc::new(listener), Self::server_options())
            .expect("valid server options");
        let mut client = NetClient::new(connector.connect().expect("dial"));
        // A back-pressure refusal retried out of order would let a later
        // same-key write lose to the retry; the window makes refusals
        // impossible, and this makes any bug there a loud failure.
        client.max_retries = 0;
        NetKv {
            db,
            server: Some(server),
            client,
            in_flight: Vec::new(),
            total_frames: 0,
            restarts: 0,
        }
    }

    /// Wait every pipelined frame; all must have landed.
    fn flush(&mut self) {
        for (id, request) in self.in_flight.drain(..) {
            let response = self.client.wait(id).expect("wire response");
            assert_eq!(
                response.status,
                Status::Ok,
                "pipelined {request:?} refused outside a teardown: {}",
                response.message
            );
        }
    }

    fn send(&mut self, request: Request) {
        let id = self.client.send(&request).expect("wire send");
        self.in_flight.push((id, request));
        if self.in_flight.len() >= NET_WINDOW {
            self.flush();
        }
    }

    fn engine(&self) -> Arc<PrismDb> {
        Arc::clone(&self.db)
    }

    /// Tear the whole server down mid-pipeline, crash-recover the engine,
    /// start a fresh server, reconnect, and replay exactly the in-flight
    /// frames that never landed.
    ///
    /// The shutdown drain guarantees every *submitted* request's response
    /// is already buffered in the old connection, so each in-flight frame
    /// resolves deterministically: answered `Ok` means it landed and must
    /// not be replayed; answered with a refusal, or never answered (the
    /// reader EOF'd before the frame was decoded), means it did not land
    /// and must be. Replays preserve the original send order, which
    /// preserves same-key write order.
    fn crash_and_restart(&mut self) {
        let mut server = self.server.take().expect("server running");
        server.shutdown();
        self.total_frames += server.stats().frames_received;
        assert_eq!(server.stats().protocol_errors, 0);
        assert_eq!(server.outstanding_tickets(), 0);
        let mut unlanded: Vec<Request> = Vec::new();
        for (id, request) in self.in_flight.drain(..) {
            match self.client.wait(id) {
                Ok(response) if response.status == Status::Ok => {}
                Ok(_refused) => unlanded.push(request),
                Err(PrismError::Disconnected) => unlanded.push(request),
                Err(err) => panic!("teardown resolution failed: {err}"),
            }
        }
        drop(server);
        self.db.crash_and_recover();
        let (listener, connector) = duplex_listener();
        self.server = Some(
            NetServer::start(
                Arc::clone(&self.db),
                Arc::new(listener),
                Self::server_options(),
            )
            .expect("valid server options"),
        );
        self.client = NetClient::new(connector.connect().expect("re-dial"));
        self.client.max_retries = 0;
        self.restarts += 1;
        for request in unlanded {
            self.send(request);
        }
        self.flush();
    }

    /// End-of-run accounting: the column really travelled the wire and
    /// stranded nothing.
    fn assert_clean(&mut self, seed: u64) {
        self.flush();
        let server = self.server.as_ref().expect("server running");
        let stats = server.stats();
        assert_eq!(
            stats.protocol_errors, 0,
            "the wire column hit protocol errors (seed {seed})"
        );
        assert_eq!(
            server.outstanding_tickets(),
            0,
            "the wire column stranded tickets (seed {seed})"
        );
        let frontend = server.frontend_stats();
        assert_eq!(
            frontend.submitted, frontend.completed,
            "wire submissions were stranded (seed {seed})"
        );
        assert!(
            self.total_frames + stats.frames_received > OPS_PER_SEED as u64,
            "the wire column barely used the wire (seed {seed})"
        );
        assert!(
            self.restarts >= 1,
            "the wire column never survived a server teardown (seed {seed})"
        );
    }
}

impl KvStore for NetKv {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.send(Request::Put { key, value });
        Ok(Nanos::ZERO)
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.send(Request::Delete { key: key.clone() });
        Ok(Nanos::ZERO)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        self.flush();
        let value = self.client.get(key.clone())?;
        Ok(Lookup {
            value,
            latency: Nanos::ZERO,
            source: prismdb::types::ReadSource::NotFound,
        })
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        self.flush();
        let entries = self.client.scan(start.clone(), count as u32)?;
        Ok(ScanResult {
            entries,
            latency: Nanos::ZERO,
        })
    }

    fn stats(&self) -> EngineStats {
        ConcurrentKvStore::stats(&*self.db)
    }

    fn elapsed(&self) -> Nanos {
        ConcurrentKvStore::elapsed(&*self.db)
    }

    fn engine_name(&self) -> &str {
        "prismdb-net"
    }
}

/// One random operation over the bounded key space. Weights favour writes
/// and deletes so state churns; scans exercise the cross-partition merge.
fn random_op(rng: &mut StdRng) -> Op {
    let draw = rng.gen_range(0u32..100);
    let key = Key::from_id(rng.gen_range(0u64..KEY_SPACE));
    match draw {
        0..=29 => {
            let value = Value::filled(rng_len(rng), rng.gen::<u8>());
            Op::Update(key, value)
        }
        30..=44 => {
            let value = Value::filled(rng_len(rng), rng.gen::<u8>());
            Op::Insert(key, value)
        }
        45..=59 => Op::Delete(key),
        60..=69 => {
            let value = Value::filled(rng_len(rng), rng.gen::<u8>());
            Op::ReadModifyWrite(key, value)
        }
        70..=79 => {
            let count = rng_scan_len(rng);
            Op::Scan(key, count)
        }
        _ => Op::Read(key),
    }
}

/// Value lengths, empty values included: an empty value is a value, not a
/// delete, on every path and across every crash.
fn rng_len(rng: &mut StdRng) -> usize {
    rng.gen_range(0usize..=1_024)
}

fn rng_scan_len(rng: &mut StdRng) -> usize {
    rng.gen_range(1usize..=48)
}

/// Apply `op` to one engine; read-type results are returned so the caller
/// can compare them across engines.
fn apply(engine: &mut dyn KvStore, op: &Op) -> (Option<Value>, Option<Vec<(Key, Value)>>) {
    match op {
        Op::Read(key) => (engine.get(key).expect("get must not fail").value, None),
        Op::Update(key, value) | Op::Insert(key, value) => {
            engine
                .put(key.clone(), value.clone())
                .expect("put must not fail");
            (None, None)
        }
        Op::ReadModifyWrite(key, value) => {
            let read = engine.get(key).expect("rmw read must not fail").value;
            engine
                .put(key.clone(), value.clone())
                .expect("rmw write must not fail");
            (read, None)
        }
        Op::Scan(key, count) => (
            None,
            Some(
                engine
                    .scan(key, *count)
                    .expect("scan must not fail")
                    .entries,
            ),
        ),
        Op::Delete(key) => {
            engine.delete(key).expect("delete must not fail");
            (None, None)
        }
    }
}

/// Compare the full visible state of every engine against the oracle:
/// every key in the universe point-reads identically, and scans from a few
/// representative starts return identical entry lists.
fn assert_state_matches(
    engines: &mut [(&str, &mut dyn KvStore)],
    oracle: &mut MemStore,
    seed: u64,
    ops_done: usize,
) {
    for id in 0..KEY_SPACE {
        let key = Key::from_id(id);
        let expected = oracle.get(&key).expect("oracle get").value;
        for (name, engine) in engines.iter_mut() {
            let got = engine.get(&key).expect("engine get").value;
            assert_eq!(
                got, expected,
                "{name} diverged from oracle on key {id} (seed {seed}, after {ops_done} ops)"
            );
        }
    }
    for start in [0, KEY_SPACE / 3, KEY_SPACE / 2, KEY_SPACE - 40] {
        let key = Key::from_id(start);
        let expected = oracle.scan(&key, 64).expect("oracle scan").entries;
        for (name, engine) in engines.iter_mut() {
            let got = engine.scan(&key, 64).expect("engine scan").entries;
            assert_eq!(
                got, expected,
                "{name} scan from {start} diverged (seed {seed}, after {ops_done} ops)"
            );
        }
    }
}

/// Generate a burst of 64 writes for the racing mid-batch crash: applied
/// per-op to the oracle and to every non-batched engine, and returned as
/// one multi-partition [`WriteBatch`] for the batched engine.
fn crash_burst(rng: &mut StdRng, engines: &mut [(&str, &mut dyn KvStore)]) -> WriteBatch {
    let mut batch = WriteBatch::with_capacity(64);
    for _ in 0..64 {
        let key = Key::from_id(rng.gen_range(0u64..KEY_SPACE));
        if rng.gen_range(0u32..100) < 80 {
            let value = Value::filled(rng_len(rng), rng.gen::<u8>());
            for (_, engine) in engines.iter_mut() {
                engine.put(key.clone(), value.clone()).expect("burst put");
            }
            batch.put(key, value);
        } else {
            for (_, engine) in engines.iter_mut() {
                engine.delete(&key).expect("burst delete");
            }
            batch.delete(key);
        }
    }
    batch
}

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prism_hash = prism_engine(Partitioning::Hash);
    let mut prism_range = prism_engine(Partitioning::Range);
    // The background-compaction engine sees the *identical* op stream:
    // demotions/promotions race the foreground on real worker threads, yet
    // visible state must stay equal to the inline engines and the oracle.
    let mut prism_bg = prism_engine_with_workers(Partitioning::Hash, 2);
    // The batched column: same op stream, writes chunked into batches.
    let mut prism_batched = BatchingKv::new(prism_engine(Partitioning::Hash));
    // The async column: same op stream submitted through the front-end's
    // per-partition queues, acks awaited before every read.
    let mut prism_async = FrontendKv::new(prism_engine(Partitioning::Hash));
    // The transactional column: same op stream committed through
    // optimistic multi-key transactions.
    let mut prism_txn = TxnKv::new(prism_engine(Partitioning::Hash));
    // The wire column: same op stream through the network serving layer
    // end to end (duplex-pipe transport, real server and client).
    let mut prism_net = NetKv::new(prism_engine(Partitioning::Hash));
    let mut lsm = lsm_engine();
    let mut oracle = MemStore::default();

    for ops_done in 0..OPS_PER_SEED {
        let op = random_op(&mut rng);
        let (oracle_read, oracle_scan) = apply(&mut oracle, &op);
        let mut engines: [(&str, &mut dyn KvStore); 8] = [
            ("prismdb-hash", &mut prism_hash),
            ("prismdb-range", &mut prism_range),
            ("prismdb-bg", &mut prism_bg),
            ("prismdb-batched", &mut prism_batched),
            ("prismdb-async", &mut prism_async),
            ("prismdb-txn", &mut prism_txn),
            ("prismdb-net", &mut prism_net),
            ("rocksdb-het", &mut lsm),
        ];
        for (name, engine) in engines.iter_mut() {
            let (read, scan) = apply(*engine, &op);
            assert_eq!(
                read, oracle_read,
                "{name} read result diverged on {op:?} (seed {seed}, op {ops_done})"
            );
            assert_eq!(
                scan, oracle_scan,
                "{name} scan result diverged on {op:?} (seed {seed}, op {ops_done})"
            );
        }
        if (ops_done + 1) % BATCH == 0 {
            assert_state_matches(&mut engines, &mut oracle, seed, ops_done + 1);
        }
        if (ops_done + 1) == OPS_PER_SEED / 2 {
            // Crash the background engine mid-run: with constant pressure
            // the job queue / workers are likely mid-job, so this
            // exercises recovery with compactions in flight (jobs planned
            // before it must be discarded, not half-applied).
            prism_bg.crash_and_recover();
            // The fault injection proper: crash the batched engine *while
            // a 64-entry multi-partition batch is applying* on this
            // thread. The client buffer is flushed first — the preceding
            // state check's reads just emptied it anyway, and a pending
            // entry flushed *after* the burst would replay a stale value
            // over a burst key. Each partition's sub-batch applies under
            // a continuous write-lock hold that recovery serialises with,
            // so whatever interleaving the race produces, recovery lands
            // on whole sub-batches — and since `apply_batch` finishes
            // after the crash, the final state must equal the oracle's
            // (the state checks above and below prove it).
            prism_batched.flush().expect("pre-burst flush");
            // The async column takes the burst *through its queues*: the
            // submissions below are in flight (unacked) while the crash
            // races the executors on other threads.
            let mut burst_targets: [(&str, &mut dyn KvStore); 8] = [
                ("oracle", &mut oracle),
                ("prismdb-hash", &mut prism_hash),
                ("prismdb-range", &mut prism_range),
                ("prismdb-bg", &mut prism_bg),
                ("prismdb-async", &mut prism_async),
                ("prismdb-txn", &mut prism_txn),
                ("prismdb-net", &mut prism_net),
                ("rocksdb-het", &mut lsm),
            ];
            let burst = crash_burst(&mut rng, &mut burst_targets);
            let db = prism_batched.engine();
            let async_db = prism_async.engine();
            let net_db = prism_net.engine();
            std::thread::scope(|scope| {
                let crasher = Arc::clone(&db);
                scope.spawn(move || {
                    crasher.crash_and_recover();
                });
                // Crash the async engine while its executors are still
                // draining the burst submissions: acked ops must survive,
                // queued ops drain afterwards, so the column reconverges.
                let async_crasher = Arc::clone(&async_db);
                scope.spawn(move || {
                    async_crasher.crash_and_recover();
                });
                // Crash the wire column's engine underneath its *live*
                // server, with the burst's tail frames still unacked in
                // its pipeline (the window leaves up to NET_WINDOW-1 in
                // flight): the server keeps serving across the recovery
                // and the column reconverges.
                let net_crasher = Arc::clone(&net_db);
                scope.spawn(move || {
                    net_crasher.crash_and_recover();
                });
                db.apply_batch(burst).expect("mid-crash batch");
            });
        }
        if (ops_done + 1) == OPS_PER_SEED / 2 + 37 {
            // Off the state-check boundary, so the client buffer most
            // likely holds un-submitted entries: crash the batched engine
            // with writes still buffered client-side. The buffer survives
            // in the client and flushes later, so the column must
            // reconverge to the oracle. The async engine crashes with
            // unacked tickets outstanding for the same reason.
            prism_batched.crash_and_recover();
            prism_async.crash_and_recover();
            // The wire column's hardest fault: tear down the WHOLE
            // server — off the state-check boundary, so frames are most
            // likely still pipelined — crash-recover the engine, restart
            // the server, reconnect, and replay exactly the frames the
            // teardown refused or dropped.
            prism_net.crash_and_restart();
        }
        if (ops_done + 1) == OPS_PER_SEED / 2 + 101 {
            // The transactional column's fault injection: a
            // multi-partition commit is left *torn* — intent persisted,
            // only the first partition group installed, never sealed —
            // exactly the window a crash between install steps leaves
            // behind. The oracle never sees this batch, so recovery must
            // make it vanish atomically; every transaction committed
            // before it must survive. The state checks after this point
            // prove both.
            prism_txn.flush().expect("pre-torn flush");
            let db = prism_txn.engine();
            let mut torn = WriteBatch::new();
            let mut shards_seen = vec![false; ConcurrentKvStore::shard_count(&*db)];
            let mut distinct = 0;
            while distinct < 2 || torn.len() < 6 {
                let id = rng.gen_range(0u64..KEY_SPACE);
                let shard = ConcurrentKvStore::shard_of(&*db, &Key::from_id(id));
                if !shards_seen[shard] {
                    shards_seen[shard] = true;
                    distinct += 1;
                }
                torn.put(Key::from_id(id), Value::filled(rng_len(&mut rng), 0xAA));
            }
            db.apply_batch_leaving_torn(torn, 1)
                .expect("torn batch install");
            assert_eq!(
                db.torn_commit_records(),
                1,
                "the torn commit must be visible in the log (seed {seed})"
            );
            db.crash_and_recover();
            assert_eq!(
                db.torn_commit_records(),
                0,
                "recovery must resolve the torn commit (seed {seed})"
            );
        }
    }

    // Final sweep, including after a crash of every PrismDB instance:
    // recovery must reproduce exactly the oracle's state.
    prism_hash.crash_and_recover();
    prism_range.crash_and_recover();
    prism_bg.crash_and_recover();
    prism_batched.crash_and_recover();
    prism_async.flush();
    prism_async.crash_and_recover();
    prism_txn.flush().expect("final txn flush");
    prism_txn.crash_and_recover();
    prism_net.crash_and_restart();
    let mut engines: [(&str, &mut dyn KvStore); 8] = [
        ("prismdb-hash (recovered)", &mut prism_hash),
        ("prismdb-range (recovered)", &mut prism_range),
        ("prismdb-bg (recovered)", &mut prism_bg),
        ("prismdb-batched (recovered)", &mut prism_batched),
        ("prismdb-async (recovered)", &mut prism_async),
        ("prismdb-txn (recovered)", &mut prism_txn),
        ("prismdb-net (recovered)", &mut prism_net),
        ("rocksdb-het", &mut lsm),
    ];
    assert_state_matches(&mut engines, &mut oracle, seed, OPS_PER_SEED);

    // The batched column must really have exercised the batched path.
    let batched_stats = KvStore::stats(&prism_batched);
    assert!(
        batched_stats.batch_groups > 0,
        "the batched column never installed a group (seed {seed})"
    );
    assert!(batched_stats.batch_entries >= batched_stats.batch_groups);

    // The async column must really have gone through the queues: every
    // submission acked, groups installed, no stranded requests.
    let frontend_stats = prism_async.frontend_stats();
    assert!(
        frontend_stats.coalesced_groups > 0,
        "the async column never installed a coalesced group (seed {seed})"
    );
    assert_eq!(
        frontend_stats.submitted, frontend_stats.completed,
        "async submissions were stranded (seed {seed})"
    );
    assert_eq!(frontend_stats.queue_depth, 0);

    // The transactional column must really have committed transactions,
    // pinned snapshots and rolled back its torn commit.
    let txn_stats = KvStore::stats(&prism_txn).txn;
    assert!(
        txn_stats.txn_commits > 0,
        "the txn column never committed a transaction (seed {seed})"
    );
    assert!(
        txn_stats.snapshots > 0,
        "the txn column never pinned a snapshot (seed {seed})"
    );
    assert!(
        txn_stats.commit_rolled_back >= 1,
        "the torn commit was never rolled back (seed {seed})"
    );

    // The wire column must really have travelled the wire, survived its
    // server teardown, and stranded nothing.
    prism_net.assert_clean(seed);
}

// ---------------------------------------------------------------------
// The ninth column: the same op stream under a seeded low-rate storage
// fault plan (injected I/O errors, bit flips, torn writes, latency
// spikes on both tiers). Faults make exact oracle equality impossible —
// a failed write leaves the engine in one of two legitimate states, a
// corrupt object must *error*, not compare — so this column carries its
// own uncertainty-aware oracle and a different contract:
//
//   1. The engine never returns wrong data. Every successful read or
//      scan entry must equal a state some legal fault-free/faulted
//      execution could hold: the committed value, or — for a key whose
//      write failed ambiguously — one of its acceptable states. Errors
//      are allowed; silent corruption is not.
//   2. A key a scan omits must be provably corrupt (probe reads error
//      with `Corruption`) or still correct under a point read (the scan
//      skipped a corrupt storage copy the read served from DRAM).
//   3. Crash-recovery under faults quarantines rather than resurrects,
//      and after quarantined keys are rewritten (healed) and scrub
//      passes come back clean, the engine converges to the oracle
//      EXACTLY — point reads and scans.
// ---------------------------------------------------------------------

/// The fault column's oracle: definite state plus, for keys whose write
/// failed ambiguously (an injected I/O error can strike before or after
/// the slab install, e.g. in an inline compaction the write triggered),
/// the set of states the engine may legitimately hold. A successful
/// read collapses the ambiguity to the observed state.
struct FaultOracle {
    /// Definite state: key id -> value (absent = deleted/never written).
    committed: std::collections::BTreeMap<u64, Value>,
    /// Keys in ambiguous state -> every value (or absence) the engine
    /// may legitimately report for them.
    suspects: std::collections::HashMap<u64, Vec<Option<Value>>>,
}

impl FaultOracle {
    fn new() -> Self {
        FaultOracle {
            committed: std::collections::BTreeMap::new(),
            suspects: std::collections::HashMap::new(),
        }
    }

    /// A write landed: the state is definite again.
    fn write_ok(&mut self, id: u64, value: Option<Value>) {
        match value {
            Some(v) => {
                self.committed.insert(id, v);
            }
            None => {
                self.committed.remove(&id);
            }
        }
        self.suspects.remove(&id);
    }

    /// A write failed ambiguously: the engine now holds any previously
    /// acceptable state, or the attempted one.
    fn write_ambiguous(&mut self, id: u64, attempted: Option<Value>) {
        let states = self.suspects.entry(id).or_default();
        if states.is_empty() {
            states.push(self.committed.get(&id).cloned());
        }
        if !states.contains(&attempted) {
            states.push(attempted);
        }
    }

    /// A read succeeded: the observed state must be acceptable, and it
    /// collapses any ambiguity (single-threaded column — what was read
    /// is what is stored).
    fn observe(&mut self, id: u64, observed: &Option<Value>, seed: u64, at: &str) {
        if let Some(states) = self.suspects.remove(&id) {
            assert!(
                states.contains(observed),
                "fault column read a value outside the acceptable set for \
                 key {id} ({at}, seed {seed})"
            );
            match observed {
                Some(v) => {
                    self.committed.insert(id, v.clone());
                }
                None => {
                    self.committed.remove(&id);
                }
            }
        } else {
            let expected = self.committed.get(&id).cloned();
            if observed != &expected {
                let diff = match (observed, &expected) {
                    (Some(o), Some(e)) if o.len() == e.len() => format!(
                        "{} differing bytes of {} (obs[0]={:#04x} exp[0]={:#04x})",
                        o.as_bytes()
                            .iter()
                            .zip(e.as_bytes())
                            .filter(|(a, b)| a != b)
                            .count(),
                        o.len(),
                        o.as_bytes()[0],
                        e.as_bytes()[0],
                    ),
                    (o, e) => format!(
                        "lengths {:?} vs {:?}",
                        o.as_ref().map(Value::len),
                        e.as_ref().map(Value::len)
                    ),
                };
                panic!("fault column served WRONG DATA for key {id} ({at}, seed {seed}): {diff}");
            }
        }
    }

    fn is_suspect(&self, id: u64) -> bool {
        self.suspects.contains_key(&id)
    }

    /// The state to (re)write when healing a quarantined key: the last
    /// attempted value for suspects, the committed one otherwise.
    fn heal_target(&self, id: u64) -> Option<Value> {
        match self.suspects.get(&id) {
            Some(states) => states.last().cloned().expect("suspect sets are non-empty"),
            None => self.committed.get(&id).cloned(),
        }
    }
}

/// Point read with retry across transient injected I/O errors.
/// Corruption is returned immediately (it is persistent until healed).
fn faulted_get(db: &PrismDb, key: &Key) -> Result<Option<Value>> {
    let mut last = PrismError::Io("unreachable: no read attempted".into());
    for _ in 0..64 {
        match db.get(key) {
            Ok(lookup) => return Ok(lookup.value),
            Err(err @ PrismError::Corruption(_)) => return Err(err),
            Err(err @ PrismError::Io(_)) => last = err,
            Err(other) => panic!("fault column get failed with {other}"),
        }
    }
    Err(last)
}

/// Scan with retry across transient injected I/O errors.
fn faulted_scan(db: &PrismDb, start: &Key, count: usize) -> Vec<(Key, Value)> {
    let mut last = String::new();
    for _ in 0..64 {
        match db.scan(start, count) {
            Ok(result) => return result.entries,
            Err(err) => last = err.to_string(),
        }
    }
    panic!("fault column scan failed persistently: {last}");
}

/// Apply one write (put or delete) to the engine and record the outcome
/// in the oracle. Degraded refusals change nothing (the gate runs before
/// any mutation); injected I/O errors leave the key ambiguous.
fn faulted_write(
    db: &PrismDb,
    oracle: &mut FaultOracle,
    key: Key,
    value: Option<Value>,
    refusals: &mut u64,
    write_faults: &mut u64,
) {
    let id = key.id();
    let result = match &value {
        Some(v) => db.put(key, v.clone()),
        None => db.delete(&key),
    };
    match result {
        Ok(_) => oracle.write_ok(id, value),
        Err(PrismError::Degraded { .. }) => *refusals += 1,
        Err(PrismError::Io(_)) => {
            *write_faults += 1;
            oracle.write_ambiguous(id, value);
        }
        Err(other) => panic!("fault column write failed with {other}"),
    }
}

/// Check one scan against the oracle: every returned entry must be an
/// acceptable state, and every committed key the scan silently omitted
/// must be provably corrupt (or still correct under a point read, which
/// can serve from DRAM a copy whose storage version the scan skipped).
fn check_faulted_scan(
    db: &PrismDb,
    oracle: &mut FaultOracle,
    start: &Key,
    count: usize,
    seed: u64,
    ops_done: usize,
) {
    let entries = faulted_scan(db, start, count);
    for (key, value) in &entries {
        oracle.observe(key.id(), &Some(value.clone()), seed, "scan entry");
    }
    let returned: std::collections::HashSet<u64> = entries.iter().map(|(k, _)| k.id()).collect();
    let window_end = if entries.len() < count {
        u64::MAX
    } else {
        entries.last().map(|(k, _)| k.id()).unwrap_or(u64::MAX)
    };
    let missing: Vec<u64> = oracle
        .committed
        .range(start.id()..=window_end)
        .map(|(id, _)| *id)
        .filter(|id| !returned.contains(id) && !oracle.is_suspect(*id))
        .collect();
    for id in missing {
        match faulted_get(db, &Key::from_id(id)) {
            // The scan skipped a corrupt storage copy; the point read
            // served a verified one (DRAM holds the last committed
            // value). Still not wrong data.
            Ok(observed) => oracle.observe(id, &observed, seed, "scan-omission probe"),
            Err(PrismError::Corruption(_)) => {} // provably corrupt: a legal omission
            Err(err) => panic!(
                "scan-omission probe for key {id} failed with {err} \
                 (seed {seed}, op {ops_done})"
            ),
        }
    }
}

/// Scrub every partition until a full pass finds nothing corrupt and all
/// partitions are healthy again. Returns the number of passes.
fn scrub_until_clean(db: &PrismDb, seed: u64) -> u32 {
    for pass in 1..=32u32 {
        let report = db.scrub();
        let all_healthy = (0..ConcurrentKvStore::shard_count(db))
            .all(|p| db.partition_health(p) == PartitionHealth::Healthy);
        if report.corrupt_found == 0 && all_healthy {
            return pass;
        }
    }
    panic!("scrub never came back clean (seed {seed})");
}

fn run_fault_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = Arc::new(FaultPlan::new(seed ^ 0xFA17).with_rates(TierFaultRates {
        io_error: 0.0015,
        bit_flip: 0.004,
        torn_write: 0.0015,
        latency_spike: 0.005,
        spike: Nanos::from_micros(400),
    }));
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = 3;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    options.nvm_capacity_bytes = 256 * 1024;
    options.fault_plan = Some(Arc::clone(&plan));
    // Hair-trigger degraded mode so the run exercises the full
    // quarantine -> read-only -> scrub -> re-arm lifecycle.
    options.corruption_quarantine_threshold = 3;
    options.scrub_io_budget_bytes = 64 * 1024;
    let db = PrismDb::open(options).expect("valid options");
    let mut oracle = FaultOracle::new();
    let mut refusals = 0u64;
    let mut write_faults = 0u64;
    let mut corruption_reads = 0u64;

    for ops_done in 0..OPS_PER_SEED {
        match random_op(&mut rng) {
            Op::Update(key, value) | Op::Insert(key, value) => faulted_write(
                &db,
                &mut oracle,
                key,
                Some(value),
                &mut refusals,
                &mut write_faults,
            ),
            Op::Delete(key) => faulted_write(
                &db,
                &mut oracle,
                key,
                None,
                &mut refusals,
                &mut write_faults,
            ),
            Op::Read(key) => match faulted_get(&db, &key) {
                Ok(observed) => oracle.observe(key.id(), &observed, seed, "point read"),
                Err(PrismError::Corruption(_)) => corruption_reads += 1,
                Err(PrismError::Io(_)) => {} // persistently unlucky: still not wrong data
                Err(err) => panic!("fault column read failed with {err}"),
            },
            Op::ReadModifyWrite(key, value) => {
                match faulted_get(&db, &key) {
                    Ok(observed) => oracle.observe(key.id(), &observed, seed, "rmw read"),
                    Err(PrismError::Corruption(_)) => corruption_reads += 1,
                    Err(PrismError::Io(_)) => {}
                    Err(err) => panic!("fault column rmw read failed with {err}"),
                }
                faulted_write(
                    &db,
                    &mut oracle,
                    key,
                    Some(value),
                    &mut refusals,
                    &mut write_faults,
                );
            }
            Op::Scan(key, count) => {
                check_faulted_scan(&db, &mut oracle, &key, count, seed, ops_done);
            }
        }
        if (ops_done + 1) % BATCH == 0 {
            // Periodic scrub: repairs what has a surviving copy,
            // quarantines what does not, re-arms degraded partitions.
            db.scrub();
        }
        if (ops_done + 1) == OPS_PER_SEED / 2 {
            // Crash mid-run with corrupt slots likely present: recovery
            // must quarantine them, never resurrect or serve them.
            db.crash_and_recover();
        }
    }

    // Final convergence. Crash once more, then heal: every key must read
    // back an acceptable state or a provable Corruption; quarantined
    // keys are rewritten (a fresh write supersedes the corrupt version).
    // Healing writes roll new faults, so iterate to a fixed point.
    db.crash_and_recover();
    let mut healed = false;
    for _round in 0..32 {
        scrub_until_clean(&db, seed);
        let mut dirty = false;
        for id in 0..KEY_SPACE {
            let key = Key::from_id(id);
            match faulted_get(&db, &key) {
                Ok(observed) => oracle.observe(id, &observed, seed, "final sweep"),
                Err(_) => {
                    dirty = true;
                    let target = oracle.heal_target(id);
                    faulted_write(
                        &db,
                        &mut oracle,
                        key,
                        target,
                        &mut refusals,
                        &mut write_faults,
                    );
                }
            }
        }
        if !dirty {
            // The sweep itself reads every key, and a read can trip a
            // read-triggered compaction whose demotion writes roll fresh
            // faults — silently corrupting a newly demoted copy while
            // the DRAM cache keeps serving the clean value, so the point
            // reads above would never notice. Converged means *storage*
            // is clean too: one more full scrub must find nothing (and
            // repairs what it does find for the next round).
            if db.scrub().corrupt_found == 0 {
                healed = true;
                break;
            }
        }
    }
    assert!(healed, "healing never reached a fixed point (seed {seed})");
    assert!(
        oracle.suspects.is_empty(),
        "the full healed sweep must collapse every ambiguous key (seed {seed})"
    );

    // Converged: the engine now equals the oracle EXACTLY — point reads
    // did above (final sweep), scans here.
    for start in [0, KEY_SPACE / 3, KEY_SPACE / 2, KEY_SPACE - 40] {
        let entries = faulted_scan(&db, &Key::from_id(start), 64);
        let expected: Vec<(Key, Value)> = oracle
            .committed
            .range(start..)
            .take(64)
            .map(|(id, v)| (Key::from_id(*id), v.clone()))
            .collect();
        assert_eq!(
            entries, expected,
            "healed scan from {start} diverged (seed {seed})"
        );
    }

    // The column must genuinely have been under fire, and every
    // corruption that reached a read must have been caught by a
    // checksum (that is what made the reads error instead of lie).
    let snap = plan.snapshot();
    assert!(
        snap.bit_flips + snap.torn_writes > 0,
        "the fault plan never injected corruption (seed {seed})"
    );
    assert!(
        snap.io_errors > 0,
        "the fault plan never injected an I/O error (seed {seed})"
    );
    let stats = ConcurrentKvStore::stats(&db);
    assert!(
        stats.integrity.checksum_failures > 0,
        "no injected corruption was ever caught by a checksum (seed {seed})"
    );
    assert!(
        stats.integrity.scrub_passes > 0 && stats.integrity.scrub_clean_passes > 0,
        "the scrubber never completed a pass (seed {seed})"
    );
    // Quarantines happened and were healed: nothing is quarantined now.
    assert!(
        stats.integrity.quarantined_objects > 0,
        "corruption never led to a quarantine (seed {seed})"
    );
    assert_eq!(
        db.quarantined_object_count(),
        0,
        "healing must clear every quarantine sentinel (seed {seed})"
    );
    let _ = (refusals, write_faults, corruption_reads);
}

#[test]
fn faulted_engine_never_serves_wrong_data_seed_1() {
    run_fault_seed(0xFA17_0001);
}

#[test]
fn faulted_engine_never_serves_wrong_data_seed_2() {
    run_fault_seed(0xFA17_0002);
}

#[test]
fn faulted_engine_never_serves_wrong_data_seed_3() {
    run_fault_seed(0xFA17_0003);
}

#[test]
fn engines_match_oracle_seed_1() {
    run_seed(0xD1FF_0001);
}

#[test]
fn engines_match_oracle_seed_2() {
    run_seed(0xD1FF_0002);
}

#[test]
fn engines_match_oracle_seed_3() {
    run_seed(0xD1FF_0003);
}
