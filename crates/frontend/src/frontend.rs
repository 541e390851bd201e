//! The submission subsystem: bounded per-partition queues, the executor
//! pool, and the coalescing drain loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use prism_obs::{LatencyHistogram, ObsHub};
use prism_types::{
    completion_pair_gauged, BatchOp, Completion, ConcurrentKvStore, FrontendStats,
    FrontendStatsCells, Key, Lookup, Nanos, PrismError, Result, ScanResult, Ticket, TicketGauge,
    Value, WriteBatch,
};

use crate::options::FrontendOptions;

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
/// latency (`frontend_e2e_*_ns`); plus the steal-latency histogram (age
/// of the oldest request in a stolen drain) and whole-drain durations.
/// All instruments live in the shared [`ObsHub`] registry, so the admin
/// plane serves them by name.
struct FrontendObs {
    hub: Arc<ObsHub>,
    queue_wait: [Arc<LatencyHistogram>; 4],
    service: [Arc<LatencyHistogram>; 4],
    e2e: [Arc<LatencyHistogram>; 4],
    steal_latency: Arc<LatencyHistogram>,
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
            steal_latency: hub.registry.histogram("frontend_steal_latency_ns"),
            drain: hub.registry.histogram("frontend_drain_ns"),
            hub,
        }
    }

    #[inline]
    fn record_stage(&self, stage: &[Arc<LatencyHistogram>; 4], class: OpClass, ns: u128) {
        stage[class as usize].record(clamp_u64(ns));
    }
}

#[inline]
fn clamp_u64(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}

/// Ticket for a submitted write (put, delete or batch): resolves to the
/// simulated latency of the group(s) that installed it.
pub type WriteTicket = Ticket<Result<Nanos>>;
/// Ticket for a submitted point read.
pub type ReadTicket = Ticket<Result<Lookup>>;
/// Ticket for a submitted scan.
pub type ScanTicket = Ticket<Result<ScanResult>>;

/// Aggregates the per-partition parts of one write submission: a single
/// put/delete has one part, a cross-partition batch one part per touched
/// partition. The last part to finish completes the client's ticket with
/// the slowest part's latency (parts install on different partitions in
/// parallel) or the first error observed.
struct WriteAgg {
    remaining: AtomicUsize,
    latency: Mutex<Nanos>,
    error: Mutex<Option<PrismError>>,
    completion: Mutex<Option<Completion<Result<Nanos>>>>,
}

impl WriteAgg {
    fn new(parts: usize, gauge: &TicketGauge) -> (Arc<Self>, WriteTicket) {
        let (completion, ticket) = completion_pair_gauged(gauge);
        (
            Arc::new(WriteAgg {
                remaining: AtomicUsize::new(parts),
                latency: Mutex::new(Nanos::ZERO),
                error: Mutex::new(None),
                completion: Mutex::new(Some(completion)),
            }),
            ticket,
        )
    }

    fn finish(&self, result: Result<Nanos>) {
        match result {
            Ok(latency) => {
                let mut slowest = lock(&self.latency);
                *slowest = (*slowest).max(latency);
            }
            Err(err) => {
                lock(&self.error).get_or_insert(err);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let completion = lock(&self.completion)
                .take()
                .expect("a write aggregate completes exactly once");
            let result = match lock(&self.error).take() {
                Some(err) => Err(err),
                None => Ok(*lock(&self.latency)),
            };
            completion.complete(result);
        }
    }
}

/// One queued request. Every variant carries its enqueue instant so the
/// drain can decompose latency into queue-wait / service / end-to-end.
enum Request {
    /// Coalescable write work: the ops of one part, in submission order.
    Write(Vec<BatchOp>, Arc<WriteAgg>, Instant),
    Get(Key, Completion<Result<Lookup>>, Instant),
    Scan(Key, usize, Completion<Result<ScanResult>>, Instant),
}

impl Request {
    fn enqueued_at(&self) -> Instant {
        match self {
            Request::Write(_, _, at) | Request::Get(_, _, at) | Request::Scan(_, _, _, at) => *at,
        }
    }

    fn class(&self) -> OpClass {
        match self {
            Request::Write(ops, ..) if ops.len() == 1 => OpClass::Put,
            Request::Write(..) => OpClass::Batch,
            Request::Get(..) => OpClass::Get,
            Request::Scan(..) => OpClass::Scan,
        }
    }
}

struct PartitionQueue {
    items: Mutex<VecDeque<Request>>,
    /// Signalled after a drain frees queue space, for blocked submitters.
    not_full: Condvar,
    /// Serialises whole drains (swap + service) of this partition, so a
    /// stealing executor and the owner can never interleave two drained
    /// batches — the per-partition submission-order contract survives
    /// work stealing. Always `try_lock`ed: a held lock means someone is
    /// already servicing the partition, so the contender moves on.
    drain_lock: Mutex<()>,
}

/// Wake-up channel of one executor thread.
struct ExecSignal {
    pending: Mutex<bool>,
    cv: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct Shared<E> {
    engine: Arc<E>,
    queue_capacity: usize,
    max_coalesce: usize,
    /// Queue depth at which an enqueue also wakes a helper executor (see
    /// [`FrontendOptions::steal_help_depth`]; `0` disables).
    steal_help_depth: usize,
    queues: Vec<PartitionQueue>,
    signals: Vec<ExecSignal>,
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
    /// Rotates which peer a helper wake-up targets, so one hot partition
    /// spreads its overflow across every other executor instead of
    /// pinning a single neighbour.
    help_rr: AtomicUsize,
    /// Rotates the start index of the idle steal sweep, so contending
    /// idle executors fan out across the foreign queues instead of all
    /// scanning from partition 0 and colliding on the same drain locks.
    steal_rr: AtomicUsize,
    /// Per-stage wall-clock histograms and the shared observability hub.
    obs: FrontendObs,
    /// Virtual-time accounting for the benchmark harness: simulated time
    /// each executor spent servicing requests, and the serial (write)
    /// work charged to each engine shard.
    exec_clocks: Vec<AtomicU64>,
    shard_serial: Vec<AtomicU64>,
}

impl<E: ConcurrentKvStore> Shared<E> {
    fn executor_of(&self, partition: usize) -> usize {
        partition % self.signals.len()
    }

    fn signal(&self, partition: usize) {
        self.signal_executor(self.executor_of(partition));
    }

    fn signal_executor(&self, exec_id: usize) {
        let signal = &self.signals[exec_id];
        *lock(&signal.pending) = true;
        signal.cv.notify_one();
    }

    /// Wake one executor that does *not* own `partition`, rotating the
    /// choice, so an idle peer steal-sweeps its backlog. No-op with a
    /// single executor.
    fn signal_helper(&self, partition: usize) {
        let executors = self.signals.len();
        if executors < 2 {
            return;
        }
        let owner = self.executor_of(partition);
        let offset = self.help_rr.fetch_add(1, Ordering::Relaxed) % (executors - 1);
        self.signal_executor((owner + 1 + offset) % executors);
    }

    fn signal_all(&self) {
        for signal in &self.signals {
            *lock(&signal.pending) = true;
            signal.cv.notify_all();
        }
        for queue in &self.queues {
            queue.not_full.notify_all();
        }
    }

    /// Enqueue onto a partition queue, blocking while it is full.
    fn enqueue(&self, partition: usize, request: Request) -> Result<()> {
        let queue = &self.queues[partition];
        let depth;
        {
            let mut items = lock(&queue.items);
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    return Err(PrismError::ShuttingDown);
                }
                if items.len() < self.queue_capacity {
                    break;
                }
                items = queue
                    .not_full
                    .wait(items)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            items.push_back(request);
            // Count while still holding the queue lock: a drain that can
            // already see the item must never decrement `depth` (or
            // complete the request) before these increments land.
            depth = items.len();
            self.note_enqueued(depth);
        }
        self.signal(partition);
        if self.steal_help_depth != 0 && depth >= self.steal_help_depth {
            self.signal_helper(partition);
        }
        Ok(())
    }

    /// Enqueue without blocking; reports back-pressure when the queue is
    /// at `effective_capacity` (shrunk by the engine's watermark hint for
    /// writes).
    fn try_enqueue(
        &self,
        partition: usize,
        effective_capacity: usize,
        request: Request,
    ) -> Result<()> {
        let queue = &self.queues[partition];
        let help_depth;
        {
            let mut items = lock(&queue.items);
            if self.shutdown.load(Ordering::Acquire) {
                return Err(PrismError::ShuttingDown);
            }
            if items.len() >= effective_capacity {
                let depth = items.len();
                drop(items);
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(PrismError::Backpressure { partition, depth });
            }
            items.push_back(request);
            // See `enqueue`: counters move under the queue lock.
            help_depth = items.len();
            self.note_enqueued(help_depth);
        }
        self.signal(partition);
        if self.steal_help_depth != 0 && help_depth >= self.steal_help_depth {
            self.signal_helper(partition);
        }
        Ok(())
    }

    /// Caller holds the partition's queue lock with the request pushed.
    fn note_enqueued(&self, partition_depth: usize) {
        let total = self.stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats
            .max_total_queue_depth
            .fetch_max(total, Ordering::Relaxed);
        self.stats
            .max_queue_depth
            .fetch_max(partition_depth as u64, Ordering::Relaxed);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
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

    /// Install pending write parts as coalesced groups of at most
    /// `max_coalesce` entries (whole parts are never split). On a group
    /// error the group is retried part by part so only the failing
    /// requests observe the error. Returns the summed simulated latency
    /// of the installed groups (the executor's serial work).
    fn flush_writes(
        &self,
        partition: usize,
        parts: &mut Vec<(Vec<BatchOp>, Arc<WriteAgg>, Instant)>,
    ) -> Nanos {
        let mut total = Nanos::ZERO;
        while !parts.is_empty() {
            let mut take = 0;
            let mut entries = 0;
            for (ops, _, _) in parts.iter() {
                if take > 0 && entries + ops.len() > self.max_coalesce {
                    break;
                }
                take += 1;
                entries += ops.len();
            }
            let mut group: Vec<(Vec<BatchOp>, Arc<WriteAgg>, Instant)> =
                parts.drain(..take).collect();
            self.stats.coalesced_groups.fetch_add(1, Ordering::Relaxed);
            self.stats
                .coalesced_entries
                .fetch_add(entries as u64, Ordering::Relaxed);
            // Count before completing: a client that just saw its ticket
            // resolve must never observe `completed < submitted` for it.
            self.stats
                .completed
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            if group.len() == 1 {
                // The common light-pressure case: a per-part retry cannot
                // differ from the group, so move the payload instead of
                // cloning it.
                let (ops, agg, enqueued_at) = group.pop().expect("one part");
                let class = if ops.len() == 1 {
                    OpClass::Put
                } else {
                    OpClass::Batch
                };
                let mut batch = WriteBatch::with_capacity(ops.len());
                batch.extend(ops);
                let service_start = Instant::now();
                let result = self.engine.apply_batch(batch);
                let service = service_start.elapsed();
                if let Ok(latency) = result {
                    self.charge_write(partition, latency);
                    total += latency;
                }
                agg.finish(result);
                self.obs
                    .record_stage(&self.obs.service, class, service.as_nanos());
                self.obs
                    .record_stage(&self.obs.e2e, class, enqueued_at.elapsed().as_nanos());
                continue;
            }
            let mut batch = WriteBatch::with_capacity(entries);
            for (ops, _, _) in &group {
                batch.extend(ops.iter().cloned());
            }
            let service_start = Instant::now();
            match self.engine.apply_batch(batch) {
                Ok(latency) => {
                    // The group installed as one engine call; every part
                    // shares the group's wall-clock service time.
                    let service = service_start.elapsed();
                    self.charge_write(partition, latency);
                    total += latency;
                    for (ops, agg, enqueued_at) in group {
                        let class = if ops.len() == 1 {
                            OpClass::Put
                        } else {
                            OpClass::Batch
                        };
                        agg.finish(Ok(latency));
                        self.obs
                            .record_stage(&self.obs.service, class, service.as_nanos());
                        self.obs.record_stage(
                            &self.obs.e2e,
                            class,
                            enqueued_at.elapsed().as_nanos(),
                        );
                    }
                }
                Err(_) => {
                    // Shared fate would fail innocent bystanders (e.g. one
                    // client's oversized value rejecting the whole group):
                    // retry each part alone.
                    for (ops, agg, enqueued_at) in group {
                        let class = if ops.len() == 1 {
                            OpClass::Put
                        } else {
                            OpClass::Batch
                        };
                        let mut batch = WriteBatch::with_capacity(ops.len());
                        batch.extend(ops);
                        let service_start = Instant::now();
                        let result = self.engine.apply_batch(batch);
                        let service = service_start.elapsed();
                        if let Ok(latency) = result {
                            self.charge_write(partition, latency);
                            total += latency;
                        }
                        agg.finish(result);
                        self.obs
                            .record_stage(&self.obs.service, class, service.as_nanos());
                        self.obs.record_stage(
                            &self.obs.e2e,
                            class,
                            enqueued_at.elapsed().as_nanos(),
                        );
                    }
                }
            }
        }
        total
    }

    fn charge_write(&self, partition: usize, latency: Nanos) {
        self.shard_serial[partition].fetch_add(latency.as_nanos(), Ordering::Relaxed);
    }

    /// Drain and service one partition queue. Writes install first (all
    /// coalesced), then the drained reads run against the resulting state
    /// — see the crate-level ordering contract. `stolen` marks a drain by
    /// an executor that does not own the partition (statistics only; the
    /// drain lock is what keeps stealing safe).
    fn drain_partition(&self, exec_id: usize, partition: usize, stolen: bool) -> bool {
        // Peek before taking the drain lock: an idle sweep must never hold
        // it, or an owner woken for a fresh enqueue bounces off a lock
        // whose holder has nothing to service and will not re-arm.
        if lock(&self.queues[partition].items).is_empty() {
            return false;
        }
        // Hold the drain lock across swap *and* service: two executors
        // interleaving "swap batch A / swap batch B / service B / service
        // A" would reorder writes across drains. `try_lock` because a
        // held lock means the partition is already being serviced.
        let _draining = match self.queues[partition].drain_lock.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poison)) => poison.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return false,
        };
        let drained = std::mem::take(&mut *lock(&self.queues[partition].items));
        if drained.is_empty() {
            // Another executor drained between the peek and the lock. A
            // request enqueued since may have bounced its owner off the
            // lock held here, so release through the same re-arm.
            drop(_draining);
            self.rearm(partition);
            return false;
        }
        if stolen {
            self.stats.stolen_drains.fetch_add(1, Ordering::Relaxed);
        }
        self.queues[partition].not_full.notify_all();
        self.stats
            .queue_depth
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        // Queue-wait ends here for everything in this batch: each request
        // waited from its enqueue instant to the moment the drain picked
        // it up. A stolen drain additionally records the age of its
        // oldest request as the steal latency — how stale a foreign
        // backlog was before an idle peer got to it.
        let drain_start = Instant::now();
        let mut oldest_wait_ns: u128 = 0;
        for request in &drained {
            let waited = drain_start
                .saturating_duration_since(request.enqueued_at())
                .as_nanos();
            oldest_wait_ns = oldest_wait_ns.max(waited);
            self.obs
                .record_stage(&self.obs.queue_wait, request.class(), waited);
        }
        if stolen {
            self.obs.steal_latency.record(clamp_u64(oldest_wait_ns));
        }
        let mut exec_time = Nanos::ZERO;
        let mut writes: Vec<(Vec<BatchOp>, Arc<WriteAgg>, Instant)> = Vec::new();
        let mut reads: Vec<Request> = Vec::new();
        for request in drained {
            match request {
                Request::Write(ops, agg, at) => writes.push((ops, agg, at)),
                read => reads.push(read),
            }
        }
        exec_time += self.flush_writes(partition, &mut writes);
        for request in reads {
            match request {
                Request::Write(..) => unreachable!("writes were split off above"),
                Request::Get(key, completion, enqueued_at) => {
                    let service_start = Instant::now();
                    let result = self.engine.get(&key);
                    let service = service_start.elapsed();
                    if let Ok(lookup) = &result {
                        exec_time += lookup.latency;
                        if !self.concurrent_reads {
                            self.charge_write(partition, lookup.latency);
                        }
                    }
                    self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    completion.complete(result);
                    self.obs
                        .record_stage(&self.obs.service, OpClass::Get, service.as_nanos());
                    self.obs.record_stage(
                        &self.obs.e2e,
                        OpClass::Get,
                        enqueued_at.elapsed().as_nanos(),
                    );
                }
                Request::Scan(start, count, completion, enqueued_at) => {
                    let service_start = Instant::now();
                    let result = self.engine.scan(&start, count);
                    let service = service_start.elapsed();
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
                    self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    completion.complete(result);
                    self.obs
                        .record_stage(&self.obs.service, OpClass::Scan, service.as_nanos());
                    self.obs.record_stage(
                        &self.obs.e2e,
                        OpClass::Scan,
                        enqueued_at.elapsed().as_nanos(),
                    );
                }
            }
        }
        self.obs
            .drain
            .record(clamp_u64(drain_start.elapsed().as_nanos()));
        self.exec_clocks[exec_id].fetch_add(exec_time.as_nanos(), Ordering::Relaxed);
        // Refresh the partition's watermark hint now that this drain's
        // writes are installed (the executor may briefly take the
        // engine's read lock here — the submitters never do).
        self.pressured[partition].store(
            self.engine.shard_write_pressure(partition) >= 1.0,
            Ordering::Relaxed,
        );
        // Release the drain lock *before* re-arming: requests enqueued
        // while we serviced did signal the owner, but the owner may have
        // bounced off the held drain lock and parked again — re-signal so
        // nothing strands until the next enqueue.
        drop(_draining);
        self.rearm(partition);
        true
    }

    /// After releasing a partition's drain lock: wake the owner if the
    /// queue is non-empty.
    fn rearm(&self, partition: usize) {
        if !lock(&self.queues[partition].items).is_empty() {
            self.signal(partition);
        }
    }

    /// Main loop of one executor thread: sweep the owned partitions,
    /// steal-sweep everyone else's when the owned sweep found nothing,
    /// and park on the wake-up signal only when the whole pool's queues
    /// look empty. Stealing means a Zipfian-hot partition is served by
    /// every idle executor, not just its owner — the drain lock in
    /// [`Shared::drain_partition`] keeps per-partition ordering intact.
    fn executor_loop(&self, exec_id: usize) {
        let executors = self.signals.len();
        loop {
            let mut busy = false;
            let mut partition = exec_id;
            while partition < self.queues.len() {
                busy |= self.drain_partition(exec_id, partition, false);
                partition += executors;
            }
            if !busy && executors > 1 {
                // Rotate the sweep's start index so simultaneously idle
                // executors fan out over the foreign queues instead of
                // all contending for partition 0's drain lock first.
                let partitions = self.queues.len();
                let start = self.steal_rr.fetch_add(1, Ordering::Relaxed) % partitions;
                for i in 0..partitions {
                    let partition = (start + i) % partitions;
                    if partition % executors != exec_id {
                        busy |= self.drain_partition(exec_id, partition, true);
                    }
                }
            }
            if busy {
                continue;
            }
            let signal = &self.signals[exec_id];
            let mut pending = lock(&signal.pending);
            if !*pending {
                if self.shutdown.load(Ordering::Acquire) {
                    // Queues were empty on the last sweep and no new
                    // signal arrived: drained.
                    return;
                }
                pending = signal
                    .cv
                    .wait(pending)
                    .unwrap_or_else(|poison| poison.into_inner());
                self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            *pending = false;
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
            let stragglers = std::mem::take(&mut *lock(&queue.items));
            self.stats
                .queue_depth
                .fetch_sub(stragglers.len() as u64, Ordering::Relaxed);
            for request in stragglers {
                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                match request {
                    Request::Write(_, agg, _) => agg.finish(Err(PrismError::ShuttingDown)),
                    Request::Get(_, completion, _) => {
                        completion.complete(Err(PrismError::ShuttingDown));
                    }
                    Request::Scan(_, _, completion, _) => {
                        completion.complete(Err(PrismError::ShuttingDown));
                    }
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
            max_coalesce: options.max_coalesce,
            steal_help_depth: options.steal_help_depth,
            queues: (0..partitions)
                .map(|_| PartitionQueue {
                    items: Mutex::new(VecDeque::new()),
                    not_full: Condvar::new(),
                    drain_lock: Mutex::new(()),
                })
                .collect(),
            signals: (0..executors)
                .map(|_| ExecSignal {
                    pending: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            concurrent_reads,
            gauge: TicketGauge::new(),
            pressured: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
            stats: FrontendStatsCells::default(),
            help_rr: AtomicUsize::new(0),
            steal_rr: AtomicUsize::new(0),
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
        self.shared.signals.len()
    }

    fn partition_of(&self, key: &Key) -> usize {
        self.shared.engine.shard_of(key)
    }

    /// Submit an insert/update; blocks only while the partition's queue
    /// is full.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_put(&self, key: Key, value: Value) -> Result<WriteTicket> {
        let partition = self.partition_of(&key);
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        self.shared.enqueue(
            partition,
            Request::Write(vec![BatchOp::Put(key, value)], agg, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Submit a delete; blocks only while the partition's queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_delete(&self, key: &Key) -> Result<WriteTicket> {
        let partition = self.partition_of(key);
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        self.shared.enqueue(
            partition,
            Request::Write(vec![BatchOp::Delete(key.clone())], agg, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Submit a pre-built [`WriteBatch`].
    ///
    /// A batch confined to one partition is enqueued on that partition's
    /// queue. A batch that spans partitions is enqueued *whole* on the
    /// first touched partition's queue: the engine's cross-partition
    /// commit protocol makes the installation all-or-nothing, so splitting
    /// it into independently-installed per-partition parts (the old
    /// behaviour) would forfeit exactly the atomicity the engine now
    /// guarantees. The ticket resolves once the batch has installed.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_batch(&self, batch: WriteBatch) -> Result<WriteTicket> {
        let home = batch
            .entries()
            .first()
            .map(|op| self.shared.engine.shard_of(op.key()));
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        let Some(home) = home else {
            agg.finish(Ok(Nanos::ZERO));
            return Ok(ticket);
        };
        self.shared.enqueue(
            home,
            Request::Write(batch.into_entries(), agg, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Submit a point read; blocks only while the partition's queue is
    /// full. The read observes at least every write acked before this
    /// call (see the crate-level ordering contract).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_get(&self, key: &Key) -> Result<ReadTicket> {
        let partition = self.partition_of(key);
        let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
        self.shared.enqueue(
            partition,
            Request::Get(key.clone(), completion, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Submit a range scan (routed to the start key's partition queue).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ShuttingDown`] after [`Frontend::shutdown`].
    pub fn submit_scan(&self, start: &Key, count: usize) -> Result<ScanTicket> {
        let partition = self.partition_of(start);
        let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
        self.shared.enqueue(
            partition,
            Request::Scan(start.clone(), count, completion, Instant::now()),
        )?;
        Ok(ticket)
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
        let partition = self.partition_of(key);
        let capacity = self.shared.effective_write_capacity(partition);
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        self.shared.try_enqueue(
            partition,
            capacity,
            Request::Write(
                vec![BatchOp::Put(key.clone(), value.clone())],
                agg,
                Instant::now(),
            ),
        )?;
        Ok(ticket)
    }

    /// Non-blocking [`Frontend::submit_delete`] (same back-pressure
    /// contract as [`Frontend::try_submit_put`]).
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_delete(&self, key: &Key) -> Result<WriteTicket> {
        let partition = self.partition_of(key);
        let capacity = self.shared.effective_write_capacity(partition);
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        self.shared.try_enqueue(
            partition,
            capacity,
            Request::Write(vec![BatchOp::Delete(key.clone())], agg, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Non-blocking [`Frontend::submit_get`]. Reads are not subject to
    /// the watermark hint: only the queue bound itself rejects.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_get(&self, key: &Key) -> Result<ReadTicket> {
        let partition = self.partition_of(key);
        let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
        self.shared.try_enqueue(
            partition,
            self.shared.queue_capacity,
            Request::Get(key.clone(), completion, Instant::now()),
        )?;
        Ok(ticket)
    }

    /// Non-blocking [`Frontend::submit_scan`]. Like reads, scans are not
    /// subject to the watermark hint.
    ///
    /// # Errors
    ///
    /// [`PrismError::Backpressure`] or [`PrismError::ShuttingDown`].
    pub fn try_submit_scan(&self, start: &Key, count: usize) -> Result<ScanTicket> {
        let partition = self.partition_of(start);
        let (completion, ticket) = completion_pair_gauged(&self.shared.gauge);
        self.shared.try_enqueue(
            partition,
            self.shared.queue_capacity,
            Request::Scan(start.clone(), count, completion, Instant::now()),
        )?;
        Ok(ticket)
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
        let home = batch
            .entries()
            .first()
            .map(|op| self.shared.engine.shard_of(op.key()));
        let (agg, ticket) = WriteAgg::new(1, &self.shared.gauge);
        let Some(home) = home else {
            agg.finish(Ok(Nanos::ZERO));
            return Ok(ticket);
        };
        let capacity = self.shared.effective_write_capacity(home);
        self.shared.try_enqueue(
            home,
            capacity,
            Request::Write(batch.entries().to_vec(), agg, Instant::now()),
        )?;
        Ok(ticket)
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
            .map(|queue| lock(&queue.items).len() as u64)
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

    /// The gauge behind [`Frontend::outstanding_tickets`], for callers
    /// (e.g. a network server) that want to count their own wrappers on
    /// the same meter.
    pub fn ticket_gauge(&self) -> &TicketGauge {
        &self.shared.gauge
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
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.signal_all();
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
