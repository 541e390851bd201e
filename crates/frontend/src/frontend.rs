//! The submission subsystem: bounded per-partition queues, the one ready
//! list the executor pool pops from, and the coalescing drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use prism_obs::{LatencyHistogram, ObsHub};
use prism_types::{
    completion_pair_gauged, BatchOp, Completion, ConcurrentKvStore, FrontendStats,
    FrontendStatsCells, Key, Lookup, Nanos, PrismError, Result, ScanResult, Ticket, TicketGauge,
    Value, WakeList, WriteBatch,
};

use crate::options::FrontendOptions;

/// Most write entries installed as one coalesced group. A drain with more
/// pending writes installs several groups back to back (whole requests are
/// never split across groups).
const MAX_COALESCE: usize = 128;

/// Request class a per-stage histogram is keyed by. Writes with one op
/// are `put`, multi-op writes are `batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Get = 0,
    Put = 1,
    Batch = 2,
    Scan = 3,
}

const OP_CLASSES: [(&str, OpClass); 4] = [
    ("get", OpClass::Get),
    ("put", OpClass::Put),
    ("batch", OpClass::Batch),
    ("scan", OpClass::Scan),
];

/// Wall-clock per-stage histograms the front-end records into: for each
/// op class, the time a request waited in its partition queue
/// (`frontend_queue_wait_*_ns`), the wall time the engine call took
/// (`frontend_service_*_ns`), and the end-to-end submission→completion
/// latency (`frontend_e2e_*_ns`); plus whole-drain durations. All
/// instruments live in the shared [`ObsHub`] registry, so the admin plane
/// serves them by name.
struct FrontendObs {
    hub: Arc<ObsHub>,
    queue_wait: [Arc<LatencyHistogram>; 4],
    service: [Arc<LatencyHistogram>; 4],
    e2e: [Arc<LatencyHistogram>; 4],
    drain: Arc<LatencyHistogram>,
}

impl FrontendObs {
    fn new(hub: Arc<ObsHub>) -> Self {
        let stage = |stage: &str| -> [Arc<LatencyHistogram>; 4] {
            OP_CLASSES.map(|(class, _)| {
                hub.registry
                    .histogram(&format!("frontend_{stage}_{class}_ns"))
            })
        };
        FrontendObs {
            queue_wait: stage("queue_wait"),
            service: stage("service"),
            e2e: stage("e2e"),
            drain: hub.registry.histogram("frontend_drain_ns"),
            hub,
        }
    }

    #[inline]
    fn record_stage(&self, stage: &[Arc<LatencyHistogram>; 4], class: OpClass, took: Duration) {
        stage[class as usize].record(clamp_u64(took));
    }
}

#[inline]
fn clamp_u64(took: Duration) -> u64 {
    took.as_nanos().min(u64::MAX as u128) as u64
}

fn timed<T>(call: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = call();
    (out, start.elapsed())
}

/// Ticket for a submitted write (put, delete or batch): resolves to the
/// simulated latency of the group that installed it.
pub type WriteTicket = Ticket<Result<Nanos>>;
/// Ticket for a submitted point read.
pub type ReadTicket = Ticket<Result<Lookup>>;
/// Ticket for a submitted scan.
pub type ScanTicket = Ticket<Result<ScanResult>>;

/// The answering half of a queued request: the completion its ticket
/// waits on, plus the class and enqueue instant the drain needs to
/// decompose latency into queue-wait / service / end-to-end.
struct Reply<T> {
    completion: Completion<Result<T>>,
    class: OpClass,
    enqueued_at: Instant,
}

/// One queued request.
enum Request {
    /// Coalescable write work: the ops of one submission, in order.
    Write(Vec<BatchOp>, Reply<Nanos>),
    Get(Key, Reply<Lookup>),
    Scan(Key, usize, Reply<ScanResult>),
}

impl Request {
    fn class_and_enqueue_instant(&self) -> (OpClass, Instant) {
        match self {
            Request::Write(_, reply) => (reply.class, reply.enqueued_at),
            Request::Get(_, reply) => (reply.class, reply.enqueued_at),
            Request::Scan(_, _, reply) => (reply.class, reply.enqueued_at),
        }
    }
}

/// What a submission does when its partition's queue is full.
#[derive(Clone, Copy)]
enum Admit {
    /// Wait for a drain to free space.
    Block,
    /// Refuse with [`PrismError::Backpressure`]; writes are refused at the
    /// bound shrunk by the engine's watermark hint.
    Reject,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Request>,
    /// True exactly while the partition is on the ready list or held by
    /// the executor that popped it. Set by the enqueue that finds it
    /// clear, cleared by the drain that leaves `items` empty — both under
    /// this state's lock, so queued work is always scheduled and at most
    /// one executor services a partition at a time.
    scheduled: bool,
    /// Submitters waiting on [`PartitionQueue::not_full`].
    blocked_submitters: usize,
}

#[derive(Default)]
struct PartitionQueue {
    state: Mutex<QueueState>,
    /// Signalled after a drain frees queue space, if a submitter is
    /// counted blocked.
    not_full: Condvar,
}

/// The ready list and who is waiting for it.
#[derive(Default)]
struct ReadyList {
    /// Scheduled partitions no executor holds yet, oldest first. Popping
    /// the front is the front-end's one scheduling decision.
    partitions: VecDeque<usize>,
    /// Executors waiting on [`Shared::work`] that no push has signalled
    /// yet: raised by the executor before it waits, lowered by the push
    /// that signals. At zero every executor is running and re-reads the
    /// list before it waits, so a push signals nobody. (A spurious wake
    /// leaves it one too high until a push spends a signal on nobody.)
    idle_executors: usize,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct Shared<E> {
    engine: Arc<E>,
    queue_capacity: usize,
    queues: Vec<PartitionQueue>,
    ready: Mutex<ReadyList>,
    /// Signalled by a push onto `ready` that finds an executor idle.
    work: Condvar,
    shutdown: AtomicBool,
    concurrent_reads: bool,
    /// Counts tickets handed out but not yet completed/abandoned; every
    /// completion pair this front-end creates is gauged on it, so a zero
    /// reading after a drain proves no client request was stranded.
    gauge: TicketGauge,
    /// Cached per-partition watermark hint, refreshed by the executor at
    /// the end of each drain (writes only enter the engine through
    /// drains, so that is exactly when pressure rises; a background
    /// compaction lowering it is picked up one drain later). Submitters
    /// read this flag instead of querying the engine, keeping
    /// `try_submit` free of engine-lock traffic.
    pressured: Vec<AtomicBool>,
    /// Live statistics cells. The two ticket entries stay zero here:
    /// `gauge` is their source (see [`Shared::stats_snapshot`]).
    stats: FrontendStatsCells,
    /// Per-stage wall-clock histograms and the shared observability hub.
    obs: FrontendObs,
    /// Virtual-time accounting for the benchmark harness: simulated time
    /// each executor spent servicing requests (one clock per executor
    /// thread), and the serial (write) work charged to each engine shard.
    exec_clocks: Vec<AtomicU64>,
    shard_serial: Vec<AtomicU64>,
}

impl<E: ConcurrentKvStore> Shared<E> {
    /// Put a partition on the ready list and wake an idle executor, if
    /// there is one. The caller passes in the partition's queue lock,
    /// held with `scheduled` set; it is released once the partition is on
    /// the list.
    fn schedule(&self, partition: usize, state: MutexGuard<'_, QueueState>) {
        let wake = {
            let mut ready = lock(&self.ready);
            ready.partitions.push_back(partition);
            let idle = ready.idle_executors > 0;
            if idle {
                ready.idle_executors -= 1;
            }
            idle
        };
        drop(state);
        if wake {
            self.work.notify_one();
        }
    }

    /// Enqueue onto a partition queue and schedule the partition if it
    /// was idle. A full queue blocks or rejects according to `admit`.
    fn enqueue(&self, partition: usize, admit: Admit, request: Request) -> Result<()> {
        let capacity = match (admit, &request) {
            (Admit::Reject, Request::Write(..)) => self.effective_write_capacity(partition),
            _ => self.queue_capacity,
        };
        let queue = &self.queues[partition];
        let mut state = lock(&queue.state);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(PrismError::ShuttingDown);
            }
            let depth = state.items.len();
            if depth < capacity {
                break;
            }
            match admit {
                Admit::Block => {
                    state.blocked_submitters += 1;
                    state = queue
                        .not_full
                        .wait(state)
                        .unwrap_or_else(|poison| poison.into_inner());
                    state.blocked_submitters -= 1;
                }
                Admit::Reject => {
                    drop(state);
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(PrismError::Backpressure { partition, depth });
                }
            }
        }
        state.items.push_back(request);
        // Count while still holding the queue lock: a drain that can
        // already see the item must never decrement `depth` (or complete
        // the request) before these increments land.
        let total = self.stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats
            .max_total_queue_depth
            .fetch_max(total, Ordering::Relaxed);
        self.stats
            .max_queue_depth
            .fetch_max(state.items.len() as u64, Ordering::Relaxed);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if !std::mem::replace(&mut state.scheduled, true) {
            self.schedule(partition, state);
        }
        Ok(())
    }

    /// The queue bound `try_submit` enforces for writes: halved while the
    /// partition's cached watermark hint reports it at or past its
    /// compaction high watermark, so admission slows down *before* writes
    /// start stalling inside the engine. Reads the per-drain cache, never
    /// the engine, so the submit path stays non-blocking.
    fn effective_write_capacity(&self, partition: usize) -> usize {
        if self.pressured[partition].load(Ordering::Relaxed) {
            (self.queue_capacity / 2).max(1)
        } else {
            self.queue_capacity
        }
    }

    /// The one engine write call: install `ops` as a single batch and
    /// charge its simulated latency to the shard and to `total`.
    fn install(
        &self,
        partition: usize,
        entries: usize,
        ops: impl Iterator<Item = BatchOp>,
        total: &mut Nanos,
    ) -> (Result<Nanos>, Duration) {
        let mut batch = WriteBatch::with_capacity(entries);
        batch.extend(ops);
        let (result, service) = timed(|| self.engine.apply_batch(batch));
        if let Ok(latency) = result {
            self.shard_serial[partition].fetch_add(latency.as_nanos(), Ordering::Relaxed);
            *total += latency;
        }
        (result, service)
    }

    /// Answer one request — the result is published now, its waiter's
    /// unpark joins `wakes` — and record its service and end-to-end times.
    fn finish<T>(
        &self,
        reply: Reply<T>,
        result: Result<T>,
        service: Duration,
        wakes: &mut WakeList,
    ) {
        // Count before completing: a client that just saw its ticket
        // resolve must never observe `completed < submitted` for it.
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        wakes.push(reply.completion.complete_deferred(result));
        self.obs
            .record_stage(&self.obs.service, reply.class, service);
        self.obs
            .record_stage(&self.obs.e2e, reply.class, reply.enqueued_at.elapsed());
    }

    /// Install pending writes as coalesced groups of at most
    /// [`MAX_COALESCE`] entries (whole submissions are never split). On a
    /// group error the group is retried submission by submission so only
    /// the failing requests observe the error. Returns the summed
    /// simulated latency of the installed groups (the executor's serial
    /// work).
    fn flush_writes(
        &self,
        partition: usize,
        mut parts: Vec<(Vec<BatchOp>, Reply<Nanos>)>,
        wakes: &mut WakeList,
    ) -> Nanos {
        let mut total = Nanos::ZERO;
        while !parts.is_empty() {
            let mut take = 0;
            let mut entries = 0;
            for (ops, _) in &parts {
                if take > 0 && entries + ops.len() > MAX_COALESCE {
                    break;
                }
                take += 1;
                entries += ops.len();
            }
            let group: Vec<_> = parts.drain(..take).collect();
            self.stats.coalesced_groups.fetch_add(1, Ordering::Relaxed);
            self.stats
                .coalesced_entries
                .fetch_add(entries as u64, Ordering::Relaxed);
            if group.len() > 1 {
                // Cloned, because a failing group is retried below.
                let ops = group.iter().flat_map(|(ops, _)| ops.iter().cloned());
                let (result, service) = self.install(partition, entries, ops, &mut total);
                if let Ok(latency) = result {
                    // The group installed as one engine call; every part
                    // shares the group's wall-clock service time.
                    for (_, reply) in group {
                        self.finish(reply, Ok(latency), service, wakes);
                    }
                    continue;
                }
                // Shared fate would fail innocent bystanders (e.g. one
                // client's oversized value rejecting the whole group):
                // fall through and install each part alone.
            }
            for (ops, reply) in group {
                let (result, service) =
                    self.install(partition, ops.len(), ops.into_iter(), &mut total);
                self.finish(reply, result, service, wakes);
            }
        }
        total
    }

    /// Service everything queued on a partition this executor popped off
    /// the ready list, then hand the partition on. Writes install first
    /// (all coalesced), then the drained reads run against the resulting
    /// state — see the crate-level ordering contract. Every answer is
    /// published as it is produced; the unparks they owe collect in
    /// `wakes` for the caller to fire.
    fn drain_partition(&self, exec_id: usize, partition: usize, wakes: &mut WakeList) {
        let queue = &self.queues[partition];
        let (drained, submitter_blocked) = {
            let mut state = lock(&queue.state);
            (
                std::mem::take(&mut state.items),
                state.blocked_submitters > 0,
            )
        };
        if submitter_blocked {
            queue.not_full.notify_all();
        }
        if exec_id != partition % self.exec_clocks.len() {
            self.stats.stolen_drains.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .queue_depth
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        // Queue-wait ends here for everything in this batch: each request
        // waited from its enqueue instant to the moment the drain picked
        // it up.
        let drain_start = Instant::now();
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for request in drained {
            let (class, enqueued_at) = request.class_and_enqueue_instant();
            let waited = drain_start.saturating_duration_since(enqueued_at);
            self.obs.record_stage(&self.obs.queue_wait, class, waited);
            match request {
                Request::Write(ops, reply) => writes.push((ops, reply)),
                read => reads.push(read),
            }
        }
        let mut exec_time = self.flush_writes(partition, writes, wakes);
        for request in reads {
            match request {
                Request::Write(..) => unreachable!("writes were split off above"),
                Request::Get(key, reply) => {
                    let (result, service) = timed(|| self.engine.get(&key));
                    if let Ok(lookup) = &result {
                        exec_time += lookup.latency;
                        if !self.concurrent_reads {
                            self.shard_serial[partition]
                                .fetch_add(lookup.latency.as_nanos(), Ordering::Relaxed);
                        }
                    }
                    self.finish(reply, result, service, wakes);
                }
                Request::Scan(start, count, reply) => {
                    let (result, service) = timed(|| self.engine.scan(&start, count));
                    if let Ok(scan) = &result {
                        exec_time += scan.latency;
                        if !self.concurrent_reads {
                            // A scan may hold several shard locks at once.
                            for shard in self.engine.shards_for_scan(&start) {
                                self.shard_serial[shard]
                                    .fetch_add(scan.latency.as_nanos(), Ordering::Relaxed);
                            }
                        }
                    }
                    self.finish(reply, result, service, wakes);
                }
            }
        }
        self.obs.drain.record(clamp_u64(drain_start.elapsed()));
        self.exec_clocks[exec_id].fetch_add(exec_time.as_nanos(), Ordering::Relaxed);
        // Refresh the partition's watermark hint now that this drain's
        // writes are installed (the executor may briefly take the
        // engine's read lock here — the submitters never do).
        self.pressured[partition].store(
            self.engine.shard_write_pressure(partition) >= 1.0,
            Ordering::Relaxed,
        );
        // Requests enqueued while this drain ran saw `scheduled` set and
        // left the partition to us: pass it on, or mark it idle so the
        // next enqueue schedules it.
        let mut state = lock(&queue.state);
        if state.items.is_empty() {
            state.scheduled = false;
        } else {
            self.schedule(partition, state);
        }
    }

    /// Wait for the next ready partition; `None` once the front-end is
    /// shut down and the list is empty.
    fn wait_for_work(&self) -> Option<usize> {
        let mut ready = lock(&self.ready);
        loop {
            if let Some(partition) = ready.partitions.pop_front() {
                return Some(partition);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            ready.idle_executors += 1;
            ready = self
                .work
                .wait(ready)
                .unwrap_or_else(|poison| poison.into_inner());
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Main loop of one executor thread: service the oldest ready
    /// partition, wait while there is none, and exit once the front-end
    /// is shut down and the ready list is empty (every partition with
    /// queued work is on the list or held by a running executor, which
    /// re-checks the list before it exits).
    ///
    /// The waiters of the answers a drain produced are unparked when the
    /// ready list is found empty — so before this executor waits, and
    /// with an idle executor right after the one drain — or after
    /// `queues.len()` drains at the latest: under backlog one unpark per
    /// waiter carries every answer of the pass. `wakes` fires on drop, so
    /// leaving this loop by unwinding wakes them too.
    fn executor_loop(&self, exec_id: usize) {
        let mut wakes = WakeList::default();
        let mut drains_unfired = 0;
        loop {
            let next = lock(&self.ready).partitions.pop_front();
            if next.is_none() || drains_unfired == self.queues.len() {
                wakes.fire();
                drains_unfired = 0;
            }
            let Some(partition) = next.or_else(|| self.wait_for_work()) else {
                return;
            };
            self.drain_partition(exec_id, partition, &mut wakes);
            drains_unfired += 1;
        }
    }

    /// Snapshot of the cumulative statistics (also served through the
    /// registry's frontend source, so `GET /stats.json` and
    /// [`Frontend::stats`] read the same numbers).
    fn stats_snapshot(&self) -> FrontendStats {
        let mut stats = self.stats.snapshot();
        stats.outstanding_tickets = self.gauge.outstanding();
        stats.max_outstanding_tickets = self.gauge.high_water();
        stats
    }

    /// Fail every request still queued (used after the executors exited:
    /// requests that raced shutdown must not strand their clients).
    fn fail_stragglers(&self) {
        for queue in &self.queues {
            let stragglers = std::mem::take(&mut lock(&queue.state).items);
            self.stats
                .queue_depth
                .fetch_sub(stragglers.len() as u64, Ordering::Relaxed);
            for request in stragglers {
                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                let refused = PrismError::ShuttingDown;
                match request {
                    Request::Write(_, reply) => reply.completion.complete(Err(refused)),
                    Request::Get(_, reply) => reply.completion.complete(Err(refused)),
                    Request::Scan(_, _, reply) => reply.completion.complete(Err(refused)),
                }
            }
        }
    }
}

/// The async submission front-end over a shared engine. See the crate
/// docs for the full contract; construct with [`Frontend::start`].
pub struct Frontend<E: ConcurrentKvStore + 'static> {
    shared: Arc<Shared<E>>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl<E: ConcurrentKvStore + 'static> Frontend<E> {
    /// Spawn the executor pool over `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if `options` fail validation.
    pub fn start(engine: Arc<E>, options: FrontendOptions) -> Result<Self> {
        Frontend::start_with_obs(engine, options, None)
    }

    /// [`Frontend::start`] recording into a shared observability hub: the
    /// per-stage latency histograms land in `obs.registry` and the hub's
    /// frontend stats source is installed (over a weak handle, so the
    /// hub never keeps a stopped front-end alive). With `None` a private
    /// hub is created — instrumentation always runs, it is just not
    /// externally visible.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if `options` fail validation.
    pub fn start_with_obs(
        engine: Arc<E>,
        options: FrontendOptions,
        obs: Option<Arc<ObsHub>>,
    ) -> Result<Self> {
        options.validate()?;
        let hub = obs.unwrap_or_default();
        let partitions = engine.shard_count().max(1);
        let executors = options.resolved_executors(partitions);
        let concurrent_reads = engine.concurrent_reads();
        let shared = Arc::new(Shared {
            engine,
            queue_capacity: options.queue_capacity,
            queues: (0..partitions).map(|_| PartitionQueue::default()).collect(),
            ready: Mutex::new(ReadyList::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            concurrent_reads,
            gauge: TicketGauge::new(),
            pressured: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
            stats: FrontendStatsCells::default(),
            obs: FrontendObs::new(Arc::clone(&hub)),
            exec_clocks: (0..executors).map(|_| AtomicU64::new(0)).collect(),
            shard_serial: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
        });
        let weak = Arc::downgrade(&shared);
        hub.registry.set_frontend_source(Box::new(move || {
            weak.upgrade().map(|shared| shared.stats_snapshot())
        }));
        let handles = (0..executors)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("prism-frontend-{id}"))
                    .spawn(move || shared.executor_loop(id))
                    .expect("spawning a frontend executor thread")
            })
            .collect();
        Ok(Frontend {
            shared,
            executors: handles,
        })
    }

    /// The engine behind this front-end.
    pub fn engine(&self) -> &Arc<E> {
        &self.shared.engine
    }

    /// Number of executor threads.
    pub fn executor_count(&self) -> usize {
        self.shared.exec_clocks.len()
    }

    fn partition_of(&self, key: &Key) -> usize {
        self.shared.engine.shard_of(key)
    }

    /// Hand out a ticket and enqueue the request that will answer it.
    fn submit<T>(
        &self,
        partition: usize,
        admit: Admit,
        class: OpClass,
        request: impl FnOnce(Reply<T>) -> Request,
    ) -> Result<Ticket<Result<T>>> {
        let enqueued_at = Instant::now();
        let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
        let reply = Reply {
            completion,
            class,
            enqueued_at,
        };
        self.shared.enqueue(partition, admit, request(reply))?;
        Ok(ticket)
    }

    /// Submit the ops of one write, whole, to the partition of its first
    /// key; an empty write resolves immediately.
    fn submit_write(&self, admit: Admit, ops: Vec<BatchOp>) -> Result<WriteTicket> {
        let Some(home) = ops.first().map(|op| self.partition_of(op.key())) else {
            let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
            completion.complete(Ok(Nanos::ZERO));
            return Ok(ticket);
        };
        let class = if ops.len() == 1 {
            OpClass::Put
        } else {
            OpClass::Batch
        };
        self.submit(home, admit, class, |reply| Request::Write(ops, reply))
    }

    fn submit_read(&self, admit: Admit, key: &Key) -> Result<ReadTicket> {
        self.submit(self.partition_of(key), admit, OpClass::Get, |reply| {
            Request::Get(key.clone(), reply)
        })
    }

    fn submit_range(&self, admit: Admit, start: &Key, count: usize) -> Result<ScanTicket> {
        self.submit(self.partition_of(start), admit, OpClass::Scan, |reply| {
            Request::Scan(start.clone(), count, reply)
        })
    }

    /// Submit an insert/update; blocks only while the partition's queue
    /// is full.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_put(&self, key: Key, value: Value) -> Result<WriteTicket> {
        self.submit_write(Admit::Block, vec![BatchOp::Put(key, value)])
    }

    /// Submit a delete; blocks only while the partition's queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_delete(&self, key: &Key) -> Result<WriteTicket> {
        self.submit_write(Admit::Block, vec![BatchOp::Delete(key.clone())])
    }

    /// Submit a pre-built [`WriteBatch`].
    ///
    /// A batch confined to one partition is enqueued on that partition's
    /// queue. A batch that spans partitions is enqueued *whole* on the
    /// first touched partition's queue: the engine's cross-partition
    /// commit protocol makes the installation all-or-nothing, so splitting
    /// it into independently-installed per-partition parts would forfeit
    /// exactly the atomicity the engine guarantees. The ticket resolves
    /// once the batch has installed.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_batch(&self, batch: WriteBatch) -> Result<WriteTicket> {
        self.submit_write(Admit::Block, batch.into_entries())
    }

    /// Submit a point read; blocks only while the partition's queue is
    /// full. The read observes at least every write acked before this
    /// call (see the crate-level ordering contract).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_get(&self, key: &Key) -> Result<ReadTicket> {
        self.submit_read(Admit::Block, key)
    }

    /// Submit a range scan (routed to the start key's partition queue).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_scan(&self, start: &Key, count: usize) -> Result<ScanTicket> {
        self.submit_range(Admit::Block, start, count)
    }

    /// Non-blocking [`Frontend::submit_put`]: never waits for queue
    /// space. The caller keeps ownership of its data — arguments are
    /// borrowed and cloned into the request before the queue bound is
    /// checked, so a rejection costs the clone — and a rejected submission
    /// can simply be retried.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] if the partition's queue is at its
    /// effective capacity — the configured bound, *halved* while the
    /// engine's [`ConcurrentKvStore::shard_write_pressure`] reported the
    /// partition at or past its compaction high watermark (the hint is
    /// sampled at the end of each drain, so it may lag the engine by one
    /// drain); [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn try_submit_put(&self, key: &Key, value: &Value) -> Result<WriteTicket> {
        self.submit_write(
            Admit::Reject,
            vec![BatchOp::Put(key.clone(), value.clone())],
        )
    }

    /// Non-blocking [`Frontend::submit_delete`] (same back-pressure
    /// contract as [`Frontend::try_submit_put`]).
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_delete(&self, key: &Key) -> Result<WriteTicket> {
        self.submit_write(Admit::Reject, vec![BatchOp::Delete(key.clone())])
    }

    /// Non-blocking [`Frontend::submit_get`]. Reads are not subject to
    /// the watermark hint: only the queue bound itself rejects.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_get(&self, key: &Key) -> Result<ReadTicket> {
        self.submit_read(Admit::Reject, key)
    }

    /// Non-blocking [`Frontend::submit_scan`]. Like reads, scans are not
    /// subject to the watermark hint.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_scan(&self, start: &Key, count: usize) -> Result<ScanTicket> {
        self.submit_range(Admit::Reject, start, count)
    }

    /// Non-blocking [`Frontend::submit_batch`]: the batch is routed whole
    /// to its home (first touched) partition with the same back-pressure
    /// contract as [`Frontend::try_submit_put`]. The batch is borrowed
    /// (and cloned before the queue bound is checked, accepted or not) so
    /// a rejected submission can be retried.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_batch(&self, batch: &WriteBatch) -> Result<WriteTicket> {
        self.submit_write(Admit::Reject, batch.entries().to_vec())
    }

    /// Reset the per-partition queue-depth high-water mark to the current
    /// total depth. `FrontendStats::max_queue_depth` is a cumulative
    /// `fetch_max` gauge, so a measurement harness that wants a
    /// *phase-scoped* high-water (e.g. excluding warm-up pressure) calls
    /// this at the phase boundary.
    pub fn reset_max_queue_depth(&self) {
        // The gauge tracks the highest *single-partition* depth, so the
        // reset floor is the deepest queue right now, not the global sum.
        let deepest = self
            .shared
            .queues
            .iter()
            .map(|queue| lock(&queue.state).items.len() as u64)
            .max()
            .unwrap_or(0);
        self.shared
            .stats
            .max_queue_depth
            .store(deepest, Ordering::Relaxed);
    }

    /// Snapshot of the front-end's cumulative statistics.
    pub fn stats(&self) -> FrontendStats {
        self.shared.stats_snapshot()
    }

    /// The observability hub this front-end records into (the one passed
    /// to [`Frontend::start_with_obs`], or a private hub for
    /// [`Frontend::start`]).
    pub fn obs_hub(&self) -> &Arc<ObsHub> {
        &self.shared.obs.hub
    }

    /// Number of tickets handed out by this front-end that are neither
    /// completed nor abandoned yet. Zero once every client request has
    /// been answered (or its ticket dropped) — the disconnect tests use
    /// this to prove a vanished client strands nothing.
    pub fn outstanding_tickets(&self) -> u64 {
        self.shared.gauge.outstanding()
    }

    /// Block until every queued request has been serviced and every
    /// handed-out ticket completed (or abandoned by its holder). Unlike
    /// [`Frontend::shutdown`] this keeps the front-end open for new
    /// submissions — it is a quiesce point, not a teardown: a server
    /// calls it between "stop reading new frames" and "ack what is in
    /// flight, then exit".
    pub fn drain(&self) {
        loop {
            let idle = self.shared.stats.queue_depth.load(Ordering::Relaxed) == 0
                && self.shared.gauge.outstanding() == 0;
            if idle {
                return;
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// Cumulative simulated time each executor thread spent servicing
    /// requests (group installs and reads). The busiest executor bounds
    /// the front-end's makespan exactly like a busiest client does in the
    /// thread-per-client model.
    pub fn executor_times(&self) -> Vec<Nanos> {
        self.shared
            .exec_clocks
            .iter()
            .map(|clock| Nanos::from_nanos(clock.load(Ordering::Relaxed)))
            .collect()
    }

    /// Cumulative serial work charged to each engine shard by this
    /// front-end: installed write groups always, plus reads/scans for
    /// engines without concurrent reads.
    pub fn shard_serial_times(&self) -> Vec<Nanos> {
        self.shared
            .shard_serial
            .iter()
            .map(|shard| Nanos::from_nanos(shard.load(Ordering::Relaxed)))
            .collect()
    }

    /// Graceful shutdown: new submissions fail with
    /// [`PrismError::ShuttingDown`], executors drain what is already
    /// queued, and any request that raced past them is failed (never
    /// stranded). Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // Set under the ready lock: an executor is either before its
        // shutdown check or already waiting, so the wake-up cannot be
        // lost between the two.
        {
            let _ready = lock(&self.shared.ready);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work.notify_all();
        for queue in &self.shared.queues {
            queue.not_full.notify_all();
        }
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        self.shared.fail_stragglers();
    }
}

impl<E: ConcurrentKvStore + 'static> Drop for Frontend<E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
