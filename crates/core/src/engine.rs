//! The PrismDB engine: partition routing, per-partition locking and the
//! [`ConcurrentKvStore`] implementation. Compaction is driven from
//! `crate::workers`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use prism_obs::{trace::category, LatencyHistogram, ObsHub, TraceBuffer};
use prism_storage::{group_digest, CommitLog, CommitPart, DeviceProfile, TieredStorage};
use prism_types::{
    BatchOp, ConcurrentKvStore, EngineStats, EngineStatsCells, Key, Lookup, Nanos, PartitionHealth,
    PrismError, ReadSource, Result, ScanResult, SnapshotId, Value, WriteBatch,
};

use crate::options::{Options, Partitioning};
use crate::partition::{Partition, Reclaim, Resolution, ScanCursor, ScrubReport};
use crate::sequence::CommitSequencer;
use crate::workers::{worker_loop, Scheduler};

/// The writes that put a commit's pre-images back (an absent pre-image is
/// a delete).
fn restore_ops(pre_images: &[(Key, Option<Value>)]) -> Vec<BatchOp> {
    pre_images
        .iter()
        .map(|(key, image)| match image {
            Some(value) => BatchOp::Put(key.clone(), value.clone()),
            None => BatchOp::Delete(key.clone()),
        })
        .collect()
}

/// Add `n` to one cell of the engine's statistics table (the one way a
/// count is taken: no counter orders other memory).
pub(crate) fn count(cell: &AtomicU64, n: u64) {
    cell.fetch_add(n, Ordering::Relaxed);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Engine-side observability: per-tier read and per-op-class latency
/// histograms (simulated-nanosecond domain, unlike the front-end's
/// wall-clock stage timers), compaction/scrub duration histograms and the
/// shared trace buffer. The histograms live in the hub's registry, so an
/// admin plane over the same hub serves them by name; the engine's counts
/// reach it through the registry's engine source (`EngineStats`).
pub(crate) struct EngineObs {
    pub(crate) hub: Arc<ObsHub>,
    get_dram: Arc<LatencyHistogram>,
    get_nvm: Arc<LatencyHistogram>,
    get_flash: Arc<LatencyHistogram>,
    put: Arc<LatencyHistogram>,
    scan: Arc<LatencyHistogram>,
    batch: Arc<LatencyHistogram>,
    txn_commit: Arc<LatencyHistogram>,
    /// Simulated duration of each installed compaction job.
    pub(crate) compaction_job: Arc<LatencyHistogram>,
    /// Wall-clock duration of each scrub pass slice.
    pub(crate) scrub_pass: Arc<LatencyHistogram>,
    /// Allocates job ids tying a compaction's plan → execute → install
    /// trace events together.
    job_ids: AtomicU64,
}

impl EngineObs {
    fn new(hub: Arc<ObsHub>) -> Self {
        let h = |name: &str| hub.registry.histogram(name);
        EngineObs {
            get_dram: h("engine_get_dram_ns"),
            get_nvm: h("engine_get_nvm_ns"),
            get_flash: h("engine_get_flash_ns"),
            put: h("engine_put_ns"),
            scan: h("engine_scan_ns"),
            batch: h("engine_batch_ns"),
            txn_commit: h("engine_txn_commit_ns"),
            compaction_job: h("engine_compaction_job_ns"),
            scrub_pass: h("engine_scrub_pass_ns"),
            job_ids: AtomicU64::new(0),
            hub,
        }
    }

    fn record_get(&self, lookup: &Lookup) {
        let hist = match lookup.source {
            ReadSource::Dram => &self.get_dram,
            ReadSource::Nvm => &self.get_nvm,
            ReadSource::Flash => &self.get_flash,
            ReadSource::NotFound => return,
        };
        hist.record(lookup.latency.as_nanos());
    }

    /// Allocate the next compaction job id (1-based; 0 means "no job").
    pub(crate) fn next_job_id(&self) -> u64 {
        self.job_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn trace(&self) -> &TraceBuffer {
        &self.hub.trace
    }
}

/// Engine state shared between client handles and background worker
/// threads.
pub(crate) struct EngineShared {
    pub(crate) options: Arc<Options>,
    pub(crate) storage: TieredStorage,
    partitions: Vec<RwLock<Partition>>,
    /// Key-id span covered by each partition.
    partition_span: u64,
    /// The compaction pool's scheduler; `None` runs every compaction
    /// request on the thread that raised it (see `crate::workers`).
    pub(crate) sched: Option<Scheduler>,
    /// Global commit sequencer: allocates version timestamps and tracks
    /// pinned snapshots (shared with every partition).
    seq: Arc<CommitSequencer>,
    /// NVM-resident intent log making multi-partition batches atomic.
    commit_log: CommitLog,
    /// The engine's one statistics table: every partition (handed a clone,
    /// like `seq`), the compaction scheduler and the engine itself count
    /// into it. Engine-lifetime, like the device counters: it survives
    /// `crash_and_recover`.
    pub(crate) stats: Arc<EngineStatsCells>,
    pub(crate) obs: EngineObs,
}

impl EngineShared {
    /// Build the engine state over `storage`; spawns nothing.
    pub(crate) fn new(options: Options, storage: TieredStorage) -> Result<Self> {
        options.validate()?;
        let options = Arc::new(options);
        let seq = Arc::new(CommitSequencer::new());
        let stats = Arc::new(EngineStatsCells::default());
        let mut partitions = Vec::with_capacity(options.num_partitions);
        for id in 0..options.num_partitions {
            partitions.push(RwLock::new(Partition::new(
                id,
                options.clone(),
                &storage,
                seq.clone(),
                stats.clone(),
            )?));
        }
        // Leave headroom above the expected key count so freshly inserted
        // keys (YCSB-D style) still route to the last partition's range
        // rather than overflowing.
        let span = (options.expected_keys * 2 / options.num_partitions as u64).max(1);
        let sched = (options.compaction_workers > 0)
            .then(|| Scheduler::new(options.num_partitions, options.compaction_workers));
        let commit_log = CommitLog::new(storage.nvm.clone());
        Ok(EngineShared {
            storage,
            partitions,
            partition_span: span,
            sched,
            seq,
            commit_log,
            stats,
            obs: EngineObs::new(options.obs.clone().unwrap_or_default()),
            options,
        })
    }

    /// Lock one partition for reading. A poisoned lock (a client thread
    /// panicked while holding it) is entered anyway: partition state is
    /// append/replace structured, and [`PrismDb::crash_and_recover`]
    /// exists precisely to rebuild DRAM state from the persistent layers.
    pub(crate) fn read_partition(&self, idx: usize) -> RwLockReadGuard<'_, Partition> {
        self.partitions[idx]
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Lock one partition for writing (same poison policy).
    pub(crate) fn write_partition(&self, idx: usize) -> RwLockWriteGuard<'_, Partition> {
        self.partitions[idx]
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    pub(crate) fn scheduler(&self) -> &Scheduler {
        self.sched
            .as_ref()
            .expect("only pool workers ask for the scheduler")
    }

    /// Run `op` on partition `idx`, write-locked as `p`, and trace the
    /// health flip it causes — `degraded` on a read, a scrub pass or a
    /// recovery alike, `rearm` when a clean scrub pass lifted it.
    pub(crate) fn health_traced<T>(
        &self,
        idx: usize,
        p: &mut Partition,
        op: impl FnOnce(&mut Partition) -> T,
    ) -> T {
        let was = p.health();
        let out = op(p);
        if p.health() != was {
            let (category, detail) = match was {
                PartitionHealth::Healthy => (category::DEGRADED, "quarantine threshold crossed"),
                PartitionHealth::Degraded => {
                    (category::REARM, "clean scrub pass re-armed the partition")
                }
            };
            self.obs
                .trace()
                .record(category, Some(idx as u32), 0, detail);
        }
        out
    }

    /// Run one budgeted scrub slice against a partition, recording its
    /// wall duration, a `scrub_pass` trace event, and any health flip.
    /// Every scrub path (inline and background) funnels through here so
    /// the trace sees all of them.
    pub(crate) fn scrub_pass_traced(&self, idx: usize, budget_bytes: u64) -> ScrubReport {
        let start = Instant::now();
        let scrub = |p: &mut Partition| p.scrub_pass(budget_bytes);
        let report = self.health_traced(idx, &mut self.write_partition(idx), scrub);
        let wall = start.elapsed().as_nanos();
        self.obs
            .scrub_pass
            .record(wall.min(u64::MAX as u128) as u64);
        self.obs.trace().record(
            category::SCRUB_PASS,
            Some(idx as u32),
            0,
            format!(
                "examined={} corrupt={} repaired={} quarantined={} completed={}",
                report.examined,
                report.corrupt_found,
                report.repaired,
                report.quarantined,
                report.completed
            ),
        );
        report
    }

    /// Engine statistics (also served through the hub's engine source,
    /// so `GET /stats.json` and [`ConcurrentKvStore::stats`] read the same
    /// numbers): the table, plus what the devices and the commit log count
    /// themselves, plus the degraded-partition gauge.
    pub(crate) fn stats_snapshot(&self) -> EngineStats {
        let mut stats = EngineStats {
            nvm_io: self.storage.nvm_io(),
            flash_io: self.storage.flash_io(),
            ..self.stats.snapshot()
        };
        let log = self.commit_log.counters();
        stats.txn.commit_intents = log.intents;
        stats.txn.commit_seals = log.seals;
        stats.txn.commit_replayed = log.replayed;
        stats.txn.commit_rolled_back = log.rolled_back;
        // A commit record that failed its checksum is a detected failure.
        stats.integrity.checksum_failures += log.corrupt_dropped;
        let degraded = (0..self.partitions.len())
            .filter(|&i| self.read_partition(i).health() == PartitionHealth::Degraded);
        stats.integrity.degraded_partitions = degraded.count() as u64;
        stats
    }
}

/// PrismDB: a two-tier key-value store with popularity-aware multi-tiered
/// storage compaction.
///
/// The engine is partitioned: each partition owns a contiguous slice of the
/// key-id space along with its NVM slab store, B-tree index, flash sorted
/// log, popularity tracker and compaction state (Figure 3 of the paper).
/// All client operations are routed by key.
///
/// # Scans
///
/// A scan is one bounded merge across partitions. Each partition lends
/// the merge a lazy, resumable cursor over its NVM index, its flash
/// sorted log and its snapshot history; a round advances the cursor
/// standing on the lowest key up to the next-lowest cursor's key, appends
/// what it yields to the result, and the scan stops at `count`. A record
/// is read — checksum verified, value shared, bytes counted — only when
/// it is returned, so a scan costs what it returns whichever
/// [`Partitioning`] is chosen (`engine_scan_entries_resolved` over
/// `engine_scan_entries_returned` is its read amplification). Under
/// `Hash` every partition's cursor is open from the first round; under
/// `Range` partitions are ordered by key and the next one is opened when
/// those before it run out. Each partition charges what it contributed
/// once, at the end: one request, its NVM pages, one sequential flash
/// read.
///
/// # Concurrency
///
/// Every partition sits behind its own [`RwLock`], so an `Arc<PrismDb>` can
/// be driven from many OS threads through the [`ConcurrentKvStore`] trait:
/// operations on different partitions proceed in parallel, writes on the
/// same partition serialise, and *reads on the same partition overlap with
/// each other* — the read path defers its tracker/clock updates into a
/// buffer that the next writer drains. Single-key operations take exactly
/// one partition lock. Scans read through a pinned snapshot sequence and
/// hold one short read lock at a time — a cursor resumes by key after the
/// lock is released, which the pin makes consistent — so a long scan never
/// serialises writers; the only multi-lock paths are the multi-key commit
/// (`apply_batch` and `txn_commit`, one routine) and crash recovery, which
/// acquire write locks in ascending partition order — a single global
/// order, so lock-order deadlocks are ruled out. Single-threaded callers
/// use the same path through `prism_types::KvStore`, which every
/// [`ConcurrentKvStore`] has by a blanket impl.
///
/// # Snapshots and transactions
///
/// [`ConcurrentKvStore::snapshot`] pins the engine's global commit
/// sequence; `snapshot_get`/`snapshot_scan` then see exactly the versions
/// committed at pin time, regardless of concurrent writes or compactions
/// (writers preserve superseded versions in a per-partition history buffer
/// while pins are live). [`ConcurrentKvStore::txn_commit`] adds optimistic
/// multi-key transactions on top: reads are validated against the snapshot
/// sequence at commit, and cross-partition write sets run the commit-log
/// protocol so they are atomic even across a crash.
///
/// # Compaction
///
/// One pipeline (*plan → execute → install*) with one driver
/// (`workers.rs`) serves every compaction. A write that pushes NVM to the
/// high watermark raises a demotion request; with
/// `Options::compaction_workers > 0` the request is queued to a pool of
/// worker threads — the worker clones the victim state out under the
/// partition lock, merges without the lock and installs the result with
/// per-object version checks, so foreground progress overlaps with
/// compaction and the foreground only stalls when NVM reaches
/// `Options::backpressure_ceiling`. With `compaction_workers == 0` (the
/// default) the same request runs on the triggering client thread under
/// the lock it holds, reproducing the paper's write-stall behaviour.
///
/// # Example
///
/// ```
/// use prism_db::{Options, PrismDb};
/// use prism_types::{Key, KvStore, Value};
///
/// let options = Options::builder(10_000).partitions(2).build().unwrap();
/// let mut db = PrismDb::open(options).unwrap();
/// db.put(Key::from_id(7), Value::filled(256, 1)).unwrap();
/// let found = db.get(&Key::from_id(7)).unwrap();
/// assert_eq!(found.value.unwrap().len(), 256);
/// ```
///
/// Driving the same engine from multiple threads:
///
/// ```
/// use std::sync::Arc;
/// use prism_db::{Options, PrismDb};
/// use prism_types::{ConcurrentKvStore, Key, Value};
///
/// let db = Arc::new(PrismDb::open(Options::scaled_default(1_000)).unwrap());
/// std::thread::scope(|scope| {
///     for t in 0..2u64 {
///         let db = Arc::clone(&db);
///         scope.spawn(move || {
///             for i in 0..20 {
///                 db.put(Key::from_id(t * 100 + i), Value::filled(64, t as u8)).unwrap();
///             }
///         });
///     }
/// });
/// assert_eq!(db.scan(&Key::min(), 100).unwrap().entries.len(), 40);
/// ```
pub struct PrismDb {
    shared: Arc<EngineShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

// `Arc<PrismDb>` handles are shared across client threads; fail the build
// rather than a downstream user if a non-Send type ever sneaks into a
// partition.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PrismDb>();
};

impl PrismDb {
    /// Open a database with the given options, creating the simulated
    /// storage devices — Optane-class NVM, QLC-class flash — at the
    /// configured tier capacities.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if the options fail validation.
    pub fn open(options: Options) -> Result<Self> {
        options.validate()?;
        // One source of truth per tier: the capacity that sizes the slabs
        // also sizes the device, so utilisation and cost follow it.
        let nvm = DeviceProfile::optane_nvm(options.nvm_capacity_bytes);
        let flash = DeviceProfile::qlc_flash(options.flash_capacity_bytes);
        // A configured fault plan is threaded through the devices (latency
        // spikes) and the data-owning layers (torn writes, bit flips, I/O
        // errors) so the whole stack shares one deterministic schedule.
        let storage = match &options.fault_plan {
            Some(plan) => TieredStorage::with_fault_plan(nvm, flash, Arc::clone(plan)),
            None => TieredStorage::new(nvm, flash),
        };
        let shared = Arc::new(EngineShared::new(options, storage)?);
        // The hub serves typed engine stats through a weak handle, so a
        // long-lived hub never keeps a dropped engine alive.
        let weak = Arc::downgrade(&shared);
        shared.obs.hub.registry.set_engine_source(Box::new(move || {
            weak.upgrade().map(|shared| shared.stats_snapshot())
        }));
        let workers = (0..shared.options.compaction_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("prism-compact-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning a compaction worker thread")
            })
            .collect();
        Ok(PrismDb { shared, workers })
    }

    /// The engine's configuration.
    pub fn options(&self) -> &Options {
        &self.shared.options
    }

    /// The simulated storage devices backing the engine.
    pub fn storage(&self) -> &TieredStorage {
        &self.shared.storage
    }

    /// Blended storage cost per gigabyte of the configured tiers.
    pub fn cost_per_gb(&self) -> f64 {
        self.shared.storage.cost_per_gb()
    }

    /// `read` of every partition in turn, each under its own read lock.
    fn each_partition<'a, T: 'a>(
        &'a self,
        read: impl Fn(&Partition) -> T + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        (0..self.shard_count()).map(move |i| read(&self.shared.read_partition(i)))
    }

    /// Total live objects currently resident on NVM across partitions.
    pub fn nvm_object_count(&self) -> usize {
        self.each_partition(Partition::nvm_object_count).sum()
    }

    /// Total objects currently resident on flash across partitions
    /// (including stale versions not yet compacted away).
    pub fn flash_object_count(&self) -> usize {
        self.each_partition(Partition::flash_object_count).sum()
    }

    /// Aggregate clock-value histogram across partitions (index = clock
    /// value), as plotted in Figure 5 of the paper.
    pub fn clock_histogram(&self) -> [u64; 4] {
        let mut total = [0u64; 4];
        for h in self.each_partition(Partition::clock_histogram) {
            for (slot, value) in total.iter_mut().zip(h) {
                *slot += value;
            }
        }
        total
    }

    /// NVM utilisation of one partition (`0.0..=1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn partition_utilization(&self, idx: usize) -> f64 {
        self.shared.read_partition(idx).nvm_utilization()
    }

    /// Number of background compaction worker threads currently parked
    /// waiting for work (0 in inline-compaction mode). The worker pool is
    /// adaptive: a drained queue parks every worker, and light steady
    /// load keeps all but the first parked — see
    /// `Options::compaction_workers`.
    pub fn parked_compaction_workers(&self) -> u64 {
        self.shared
            .sched
            .as_ref()
            .map_or(0, |sched| sched.parked_workers())
    }

    /// Mean NVM utilisation across partitions.
    pub fn nvm_utilization(&self) -> f64 {
        self.each_partition(Partition::nvm_utilization).sum::<f64>() / self.shard_count() as f64
    }

    /// Simulate a crash that loses all DRAM state, then recover every
    /// partition in parallel (recovery time is the maximum over partitions,
    /// since partitions recover independently, §6 of the paper), and
    /// finally replay the NVM-resident commit log: sealed records are
    /// acknowledged (their batches are durable), while an unsealed record
    /// marks a batch torn mid-install — its pre-images are restored so
    /// the batch disappears atomically. Returns the total recovery time.
    ///
    /// Takes `&self` so recovery can be exercised on a shared
    /// `Arc<PrismDb>`. Every partition's write lock is acquired (in
    /// ascending order, like the cross-partition commit protocol) and
    /// held from before the first partition's recovery through the
    /// commit-log replay: concurrent operations observe either pre-crash
    /// or post-recovery state, never a half-rebuilt one, and a
    /// multi-partition commit can never be caught mid-protocol — it
    /// holds its touched locks from persisted intent to seal, so by the
    /// time recovery drains the log every record is either sealed
    /// (durable, kept) or genuinely torn by the simulated power cut
    /// (rolled back). Without the continuous hold, recovery could drain
    /// an in-flight record as "torn", then block on the committer's
    /// locks and roll back a batch that sealed — and was acknowledged —
    /// in the meantime. Each partition's recovery re-installs its sorted
    /// log's file list, and the new generation aborts any background
    /// compaction job in flight against it: the job's install becomes a
    /// no-op, exactly as if the crash had interrupted it, so
    /// recovery always lands on the last installed (old or new) state —
    /// never a half-compacted one.
    pub fn crash_and_recover(&self) -> Nanos {
        let all: Vec<usize> = (0..self.shard_count()).collect();
        let mut guards = self.lock_partitions(&all);
        // With every write lock held no write moves the sequencer's history
        // total, which is the partitions' bytes; the crash drops them all.
        let kept = |guards: &[(usize, RwLockWriteGuard<'_, Partition>)]| {
            guards.iter().map(|(_, p)| p.history_bytes()).sum::<u64>()
        };
        debug_assert_eq!(self.shared.seq.history_bytes(), kept(&guards));
        // Recovery time is still max-over-partitions: the serial loop is
        // an artefact of the simulation, not of the modelled hardware.
        let per_partition = guards
            .iter_mut()
            .map(|(idx, p)| {
                self.shared
                    .health_traced(*idx, p, Partition::crash_and_recover)
            })
            .fold(Nanos::ZERO, Nanos::max);
        debug_assert_eq!((self.shared.seq.history_bytes(), kept(&guards)), (0, 0));
        per_partition + self.replay_commit_log(&mut guards)
    }

    /// Drain the commit log after per-partition recovery: roll torn
    /// records back newest-first by restoring their pre-images into the
    /// still-locked partitions (`guards` holds every partition, so a
    /// partition's guard sits at its own index). Restoring a group that
    /// never installed re-writes identical state (a no-op for readers), so
    /// rollback needs no knowledge of how far the torn batch got.
    fn replay_commit_log(&self, guards: &mut [(usize, RwLockWriteGuard<'_, Partition>)]) -> Nanos {
        let (_sealed, torn) = self.shared.commit_log.drain_for_recovery();
        let mut cost = Nanos::ZERO;
        for record in torn {
            for part in &record.parts {
                let (idx, guard) = &mut guards[part.partition];
                cost += self
                    .write_group(*idx, guard, restore_ops(&part.pre_images), None)
                    .expect(
                        "rollback restores values that fit before; \
                         the group path reclaims space on this thread",
                    );
            }
        }
        cost
    }

    /// Fault-injection hook for crash testing: run the cross-partition
    /// commit protocol for `batch` but "lose power" mid-install — the
    /// commit intent is persisted, only the first `install_groups`
    /// partition groups are installed, and the record is left unsealed.
    /// The engine is deliberately left in the torn state; the next
    /// [`PrismDb::crash_and_recover`] must make the batch disappear
    /// atomically by restoring the record's pre-images. (The real commit
    /// path cannot be observed torn — every touched write lock is held
    /// from intent to seal — so recovery's rollback is only reachable
    /// through a simulated power cut like this one.)
    ///
    /// Returns the commit-log batch id.
    ///
    /// # Errors
    ///
    /// Forwards partition write errors; nothing is rolled back (that is
    /// the point).
    ///
    /// # Panics
    ///
    /// Panics if the batch touches fewer than two partitions — a
    /// single-partition group installs under one lock hold and cannot be
    /// torn.
    pub fn apply_batch_leaving_torn(
        &self,
        batch: WriteBatch,
        install_groups: usize,
    ) -> Result<u64> {
        let (mut groups, touched) = self.group_by_partition(batch);
        assert!(
            touched.len() >= 2,
            "a torn commit needs at least two partition groups"
        );
        let mut guards = self.lock_partitions(&touched);
        let (batch_id, _cost) =
            self.install_groups_with_intent(&mut groups, &mut guards, false, install_groups)?;
        Ok(batch_id)
    }

    /// Number of unsealed (in-flight or torn) commit-log records.
    pub fn torn_commit_records(&self) -> usize {
        self.shared.commit_log.unsealed()
    }

    /// Number of currently pinned snapshots.
    pub fn active_snapshots(&self) -> u64 {
        self.shared.seq.active_pins()
    }

    /// Approximate DRAM bytes currently held by snapshot version history
    /// across all partitions. Bounded by `Options::max_history_bytes`
    /// when that cap is set.
    pub fn snapshot_history_bytes(&self) -> u64 {
        self.shared.seq.history_bytes()
    }

    /// Occupancy and hit/miss counters of the DRAM object caches,
    /// aggregated across partitions (`shards` sums every partition's
    /// independently locked sub-shards). The hit rate here is the
    /// cache-level complement of `EngineStats`' tier read counters: a
    /// sharded and a mutexed cache configuration must converge to the
    /// same rate on the same trace — only their lock contention differs —
    /// which is what the read-path scalability sweep relies on.
    pub fn dram_cache_stats(&self) -> crate::cache::CacheStats {
        let reads = self.shared.stats.snapshot();
        let mut stats = crate::cache::CacheStats {
            hits: reads.reads_from_dram,
            misses: reads.reads_from_nvm + reads.reads_from_flash + reads.reads_not_found,
            ..Default::default()
        };
        for (objects, used_bytes, shards) in self.each_partition(Partition::cache_occupancy) {
            stats.objects += objects;
            stats.used_bytes += used_bytes;
            stats.shards += shards;
        }
        stats
    }

    /// Drive one complete scrub pass over every partition (in budget
    /// slices of `Options::scrub_io_budget_bytes`), returning the
    /// aggregated report. A pass that still found corruption usually
    /// warrants a second call: the follow-up pass coming back clean is
    /// what returns a degraded partition to [`PartitionHealth::Healthy`].
    pub fn scrub(&self) -> ScrubReport {
        let budget = self.shared.options.scrub_io_budget_bytes.max(1);
        let mut total = ScrubReport {
            completed: true,
            ..ScrubReport::default()
        };
        for idx in 0..self.shard_count() {
            loop {
                let report = self.shared.scrub_pass_traced(idx, budget);
                total.examined += report.examined;
                total.examined_bytes += report.examined_bytes;
                total.corrupt_found += report.corrupt_found;
                total.repaired += report.repaired;
                total.quarantined += report.quarantined;
                if report.completed {
                    break;
                }
            }
        }
        total
    }

    /// Reject writes routed to a degraded (read-only) partition with the
    /// retryable [`PrismError::Degraded`] before taking its write lock.
    /// The check is advisory — a partition degrading between the check
    /// and the write is indistinguishable from the write racing ahead of
    /// the degradation, which is fine either way.
    fn check_writable(&self, idx: usize) -> Result<()> {
        let p = self.shared.read_partition(idx);
        if p.health() == PartitionHealth::Degraded {
            p.note_degraded_refusal();
            return Err(PrismError::Degraded { partition: idx });
        }
        Ok(())
    }

    /// Count an injected I/O error surfaced to a caller.
    fn note_io_fault(&self, err: &PrismError) {
        if matches!(err, PrismError::Io(_)) {
            count(&self.shared.stats.integrity.io_errors, 1);
        }
    }

    /// The tail shared by every write path, run once the write has
    /// released its guard(s) (the back-pressure hold re-locks partitions):
    /// take the foreground's side of back-pressure on each of the
    /// `written` partitions, then the bookkeeping — a successful write
    /// enforces the snapshot-history caps and lands in `latency`, a failed
    /// one feeds the I/O-fault counter.
    fn finish_write(
        &self,
        applied: Result<Nanos>,
        written: &[usize],
        latency: &LatencyHistogram,
    ) -> Result<Nanos> {
        let result = applied.and_then(|mut total| {
            for &idx in written {
                total += self.shared.hold_at_ceiling(idx)?;
            }
            Ok(total)
        });
        match &result {
            Ok(total) => {
                self.enforce_snapshot_caps();
                self.shared.tick_scrub_cadence();
                latency.record(total.as_nanos());
            }
            Err(err) => self.note_io_fault(err),
        }
        result
    }

    /// Enforce `Options::{max_pin_age_ops, max_history_bytes}`: while the
    /// oldest pinned snapshot is older than the age cap or the preserved
    /// history exceeds the byte cap, force-expire the oldest pin (its
    /// handles fail with [`PrismError::SnapshotExpired`]) and prune every
    /// partition's history down to what the surviving pins can reach.
    fn enforce_snapshot_caps(&self) {
        let age_cap = self.shared.options.max_pin_age_ops;
        let bytes_cap = self.shared.options.max_history_bytes;
        if age_cap == 0 && bytes_cap == 0 {
            return;
        }
        loop {
            let Some(oldest) = self.shared.seq.oldest_pin() else {
                return;
            };
            let over_age =
                age_cap > 0 && self.shared.seq.current().saturating_sub(oldest) > age_cap;
            let over_bytes = bytes_cap > 0 && self.shared.seq.history_bytes() > bytes_cap;
            if !over_age && !over_bytes {
                return;
            }
            let Some((seq, handles)) = self.shared.seq.expire_oldest() else {
                return;
            };
            self.shared.obs.trace().record(
                category::SNAPSHOT_EXPIRED,
                None,
                seq,
                format!("handles={handles}"),
            );
            count(&self.shared.stats.integrity.snapshots_expired, handles);
            // Prune before re-checking, so the byte cap observes the
            // space the expiry actually freed.
            let survivor = self.shared.seq.oldest_pin();
            for idx in 0..self.shard_count() {
                self.shared.write_partition(idx).prune_history(survivor);
            }
        }
    }

    fn partition_for(&self, key: &Key) -> usize {
        match self.shared.options.partitioning {
            Partitioning::Hash => (splitmix64(key.id()) % self.shard_count() as u64) as usize,
            Partitioning::Range => {
                let idx = (key.id() / self.shared.partition_span) as usize;
                idx.min(self.shard_count() - 1)
            }
        }
    }

    /// One single-key write: lock, `write` through the compaction driver,
    /// unlock, finish. Returns the op's full charged latency.
    fn write_one(
        &self,
        idx: usize,
        write: impl FnOnce(&mut Partition, Reclaim<'_>) -> Result<Nanos>,
    ) -> Result<Nanos> {
        self.check_writable(idx)?;
        let applied = self
            .shared
            .write_held(idx, &mut self.shared.write_partition(idx), 1, write);
        self.finish_write(applied, &[idx], &self.shared.obs.put)
    }

    /// Apply one partition's sub-batch under the held guard `p` with a
    /// fresh commit sequence unless the caller stamps one. The sub-batch
    /// applies under one continuous write-lock hold; capacity shortfalls
    /// mid-group are reclaimed on this thread (never by unlocking and
    /// waiting), which preserves the all-or-nothing contract per
    /// partition, and the group makes one watermark check → at most one
    /// demotion request per touched partition.
    fn write_group(
        &self,
        idx: usize,
        p: &mut Partition,
        entries: Vec<BatchOp>,
        seq: Option<u64>,
    ) -> Result<Nanos> {
        if entries.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let seq = seq.unwrap_or_else(|| self.shared.seq.allocate());
        self.shared.write_held(idx, p, entries.len(), |p, reclaim| {
            p.apply_group(entries, seq, reclaim)
        })
    }

    /// Split a batch into one sub-batch per partition (indexed by
    /// partition; entries keep their relative order, so a later entry for
    /// a key still wins), with the ascending list of partitions that
    /// received entries.
    fn group_by_partition(&self, batch: WriteBatch) -> (Vec<Vec<BatchOp>>, Vec<usize>) {
        let mut groups: Vec<Vec<BatchOp>> = vec![Vec::new(); self.shard_count()];
        for op in batch {
            groups[self.partition_for(op.key())].push(op);
        }
        let touched = (0..groups.len())
            .filter(|&idx| !groups[idx].is_empty())
            .collect();
        (groups, touched)
    }

    /// Write-lock `parts` in the order given. Every multi-lock path passes
    /// ascending partitions — one global order, so lock-order deadlocks
    /// are ruled out.
    fn lock_partitions(&self, parts: &[usize]) -> Vec<(usize, RwLockWriteGuard<'_, Partition>)> {
        parts
            .iter()
            .map(|&idx| (idx, self.shared.write_partition(idx)))
            .collect()
    }

    /// The one multi-key write path: apply `writes` atomically, provided
    /// no key of `reads` changed after the sequence `pinned`.
    /// [`ConcurrentKvStore::apply_batch`] is the case of no snapshot and an
    /// empty read set; [`ConcurrentKvStore::txn_commit`] passes both, which
    /// adds the read keys' partitions to the lock set and a validation
    /// step under the locks.
    ///
    /// 1. Size-check every value, so an oversized one cannot leave the
    ///    commit half-applied. The bound is the engine's *configured*
    ///    largest slot class, which may be tighter than the global cap.
    /// 2. Group the writes by partition. Degraded partitions refuse writes
    ///    up front, so a commit touching one rejects whole with the
    ///    retryable error.
    /// 3. Write-lock the union of written and read partitions, ascending.
    /// 4. First-committer-wins validation: a read key whose newest version
    ///    (live or preserved-for-snapshots) postdates the pinned sequence
    ///    means a concurrent commit overlapped — abort, nothing applied.
    /// 5. Install: nothing for a read-only set; one partition's group is
    ///    already atomic under its single write-lock hold; several run the
    ///    commit-log protocol ([`Self::install_groups_with_intent`]).
    /// 6. Release the locks, then [`Self::finish_write`] (its back-pressure
    ///    hold re-locks partitions, so it must run after the multi-lock
    ///    hold is released).
    ///
    /// A commit that reads and writes nothing returns before any check or
    /// lock and records nothing; any other success lands in `latency`.
    fn commit(
        &self,
        writes: WriteBatch,
        reads: &[Key],
        pinned: u64,
        latency: &LatencyHistogram,
    ) -> Result<Nanos> {
        let max_slot = self
            .shared
            .options
            .slab_slot_sizes
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as usize;
        let max_value = max_slot.min(prism_nvm::MAX_OBJECT_SIZE);
        for op in writes.entries() {
            if let BatchOp::Put(_, value) = op {
                if value.len() > max_value {
                    return Err(PrismError::ObjectTooLarge {
                        size: value.len(),
                        max: max_value,
                    });
                }
            }
        }
        let (mut groups, write_parts) = self.group_by_partition(writes);
        let mut touched = write_parts.clone();
        touched.extend(reads.iter().map(|key| self.partition_for(key)));
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return Ok(Nanos::ZERO);
        }
        for &idx in &write_parts {
            self.check_writable(idx)?;
        }
        let mut guards = self.lock_partitions(&touched);
        let guard_of = |idx: usize| {
            touched
                .binary_search(&idx)
                .expect("read and write partitions are in the touched set")
        };
        for key in reads {
            let newest = guards[guard_of(self.partition_for(key))].1.newest_seq(key);
            if newest.is_some_and(|seq| seq > pinned) {
                count(&self.shared.stats.txn.txn_conflicts, 1);
                return Err(PrismError::TxnConflict { key: key.id() });
            }
        }
        let installed = match write_parts[..] {
            [] => Ok(Nanos::ZERO),
            [idx] => {
                let entries = std::mem::take(&mut groups[idx]);
                self.write_group(idx, &mut guards[guard_of(idx)].1, entries, None)
            }
            _ => self
                .install_groups_with_intent(&mut groups, &mut guards, true, usize::MAX)
                .map(|(_batch_id, cost)| cost),
        };
        drop(guards);
        self.finish_write(installed, &write_parts, latency)
    }

    /// The cross-partition commit protocol, run under an already-held set
    /// of ascending partition write `guards` covering every non-empty
    /// group of `groups` (read-only guards with empty groups are allowed
    /// and ignored):
    ///
    /// 1. capture pre-images and persist a [`CommitLog`] intent record,
    /// 2. allocate **one** commit sequence for the whole batch,
    /// 3. install every group on the held guards (stopping after
    ///    `install_limit` groups — the fault-injection hook's lever),
    /// 4. seal the record (skipped when `seal` is false).
    ///
    /// Because every touched lock stays held from intent to seal, no
    /// reader or snapshot can observe a partially installed batch. A
    /// runtime error mid-install rolls the already-installed groups back
    /// to their pre-images (locks still held) and seals the record as
    /// resolved, so the failed batch is all-or-nothing too.
    ///
    /// Returns the commit-log batch id and the total charged latency.
    fn install_groups_with_intent(
        &self,
        groups: &mut [Vec<BatchOp>],
        guards: &mut [(usize, RwLockWriteGuard<'_, Partition>)],
        seal: bool,
        install_limit: usize,
    ) -> Result<(u64, Nanos)> {
        let active: Vec<usize> = guards
            .iter()
            .enumerate()
            .filter(|(_, (idx, _))| !groups[*idx].is_empty())
            .map(|(pos, _)| pos)
            .collect();

        let mut parts = Vec::with_capacity(active.len());
        let mut rollback: Vec<Vec<(Key, Option<Value>)>> = Vec::with_capacity(active.len());
        for &pos in &active {
            let (idx, guard) = &guards[pos];
            let entries = &groups[*idx];
            let mut seen: HashSet<&Key> = HashSet::with_capacity(entries.len());
            let mut pre_images = Vec::new();
            for op in entries {
                if seen.insert(op.key()) {
                    pre_images.push((op.key().clone(), guard.current_visible(op.key())));
                }
            }
            let digest = group_digest(entries.iter().map(|op| match op {
                BatchOp::Put(key, value) => (key, Some(value.len() as u64)),
                BatchOp::Delete(key) => (key, None),
            }));
            rollback.push(pre_images.clone());
            parts.push(CommitPart {
                partition: *idx,
                entries: entries.len() as u64,
                digest,
                pre_images,
            });
        }
        let (batch_id, mut total) = self.shared.commit_log.begin(parts);

        // One sequence for the whole batch: a pinned snapshot sees every
        // group or none (it cannot observe mid-install state either way,
        // since all touched write locks are held until the seal).
        let seq = self.shared.seq.allocate();
        let mut installed = 0usize;
        let mut failure: Option<PrismError> = None;
        for (step, &pos) in active.iter().enumerate() {
            if step >= install_limit {
                break;
            }
            let (idx, guard) = &mut guards[pos];
            let entries = std::mem::take(&mut groups[*idx]);
            match self.write_group(*idx, guard, entries, Some(seq)) {
                Ok(cost) => {
                    total += cost;
                    installed = step + 1;
                }
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }

        if let Some(err) = failure {
            // Restore the pre-images of every installed group newest-
            // first while all locks are still held, then seal the record
            // as resolved: recovery must not roll it back again.
            for step in (0..installed).rev() {
                let (idx, guard) = &mut guards[active[step]];
                self.write_group(*idx, guard, restore_ops(&rollback[step]), None)?;
            }
            self.shared.commit_log.seal(batch_id);
            return Err(err);
        }

        if seal {
            total += self.shared.commit_log.seal(batch_id);
        }
        Ok((batch_id, total))
    }

    /// Collect a scan as of a pinned sequence: one bounded merge over the
    /// partitions' [`ScanCursor`]s. Each round advances the cursor with the
    /// lowest frontier up to the next-lowest one — two partitions never
    /// hold the same key, so everything it yields goes straight onto the
    /// result in order — and the scan stops at `count`: a partition reads
    /// only the records it contributes. Hash partitioning scatters the key
    /// range, so every cursor is open from the first round; range
    /// partitioning orders the partitions by key, so the next one is
    /// opened when those before it run out. One short read lock at a time
    /// — never a multi-lock hold.
    ///
    /// The charge is per partition, at the end, and the cursors opened in
    /// one round are one wave: their device reads are in flight together,
    /// so a wave waits for its slowest. The scan's latency is the sum of
    /// every partition's CPU part (one thread runs the merge) plus, per
    /// wave, the largest device part. A `Hash` scan is one wave; a `Range`
    /// scan is a wave per partition, the sum of their whole charges.
    fn snapshot_scan_parts(&self, pinned: u64, start: &Key, count: usize) -> ScanResult {
        // `open` grows by `wave` cursors a round, so its chunks of `wave`
        // are the waves.
        let (mut unopened, wave) = match self.shared.options.partitioning {
            Partitioning::Hash => (0..self.shard_count(), self.shard_count()),
            Partitioning::Range => (self.partition_for(start)..self.shard_count(), 1),
        };
        let mut open: Vec<(usize, ScanCursor)> = Vec::new();
        let mut entries = Vec::new();
        while entries.len() < count {
            let lowest = (0..open.len())
                .filter(|&i| open[i].1.frontier().is_some())
                .min_by_key(|&i| open[i].1.frontier());
            let Some(lowest) = lowest else {
                if unopened.is_empty() {
                    break;
                }
                let next = unopened.by_ref().take(wave);
                open.extend(next.map(|idx| (idx, ScanCursor::new(start))));
                continue;
            };
            let (before, rest) = open.split_at_mut(lowest);
            let ((idx, cursor), after) = rest.split_first_mut().expect("lowest indexes open");
            let bound = before
                .iter()
                .chain(after.iter())
                .filter_map(|(_, other)| other.frontier())
                .min();
            self.shared
                .read_partition(*idx)
                .scan_pull(cursor, bound, pinned, count, &mut entries);
        }
        let mut latency = Nanos::ZERO;
        for cursors in open.chunks(wave) {
            let mut slowest = Nanos::ZERO;
            for (idx, cursor) in cursors {
                let charge = self.shared.read_partition(*idx).scan_charge(cursor);
                latency += charge.cpu;
                slowest = slowest.max(charge.device);
            }
            latency += slowest;
        }
        ScanResult { entries, latency }
    }

    /// Drain read-side pressure on a partition after a read: apply the
    /// buffered tracker updates and request any promotion compaction they
    /// made due.
    fn drain_reads(&self, idx: usize) -> Result<()> {
        self.shared
            .drain_held(idx, &mut self.shared.write_partition(idx))
    }
}

impl Drop for PrismDb {
    fn drop(&mut self) {
        if let Some(sched) = &self.shared.sched {
            sched.shutdown();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ConcurrentKvStore for PrismDb {
    fn put(&self, key: Key, value: Value) -> Result<Nanos> {
        if value.len() > prism_nvm::MAX_OBJECT_SIZE {
            return Err(PrismError::ObjectTooLarge {
                size: value.len(),
                max: prism_nvm::MAX_OBJECT_SIZE,
            });
        }
        self.write_one(self.partition_for(&key), |p, reclaim| {
            p.put(key, value, reclaim)
        })
    }

    fn get(&self, key: &Key) -> Result<Lookup> {
        let idx = self.partition_for(key);
        // Bind before matching: a match on the locking expression would
        // keep the read guard alive into the Corruption arm, which needs
        // the write lock on the same partition.
        let result = self.shared.read_partition(idx).get_with_pressure(key);
        let (lookup, pressure) = match result {
            Ok(found) => found,
            Err(err @ PrismError::Corruption(_)) => {
                // Escalate: resolve the damage so it is never read again,
                // and get a scrub pass going.
                let resolve = |p: &mut Partition| {
                    let tier = p.damaged_tier(key)?;
                    Some(p.resolve_damage(key, tier))
                };
                // The guard is a temporary: the write lock goes with this
                // statement, before `request_scrub` takes the read lock.
                let resolution =
                    self.shared
                        .health_traced(idx, &mut self.shared.write_partition(idx), resolve);
                if resolution == Some(Resolution::Quarantined) {
                    self.shared.obs.trace().record(
                        category::QUARANTINE,
                        Some(idx as u32),
                        key.id(),
                        "checksum failure on read",
                    );
                }
                self.shared.request_scrub(idx);
                return Err(err);
            }
            Err(err) => {
                self.note_io_fault(&err);
                return Err(err);
            }
        };
        if pressure {
            self.drain_reads(idx)?;
        }
        self.shared.tick_scrub_cadence();
        self.shared.obs.record_get(&lookup);
        Ok(lookup)
    }

    fn delete(&self, key: &Key) -> Result<Nanos> {
        self.write_one(self.partition_for(key), |p, reclaim| p.delete(key, reclaim))
    }

    /// Apply a [`WriteBatch`] with per-partition group commit.
    ///
    /// Entries are grouped by partition (preserving their relative order,
    /// so a later entry for the same key wins) and each group installs
    /// under a single continuous write-lock hold: one read-side
    /// tracker/CLOCK drain, one request overhead, merged slab writes for
    /// duplicate keys, and one watermark check — hence at most one
    /// compaction run (inline) or demotion enqueue (background) per
    /// touched partition per batch.
    ///
    /// # Atomicity
    ///
    /// The whole batch is all-or-nothing, across partitions. A
    /// single-partition batch installs under one continuous write-lock
    /// hold (recovery takes the same lock, so it observes the group
    /// either fully applied — and durable, writes persist to NVM
    /// synchronously — or not at all). A multi-partition batch runs the
    /// commit-log protocol: every touched partition's write lock is
    /// acquired in ascending order and held from the persisted commit
    /// intent through group installation to the seal, and all groups
    /// share one commit sequence — so concurrent readers, pinned
    /// snapshots and [`PrismDb::crash_and_recover`] (which rolls unsealed
    /// records back to their pre-images) never observe a torn batch.
    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        self.commit(batch, &[], 0, &self.shared.obs.batch)
    }

    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult> {
        // Scans read through a pinned snapshot sequence instead of
        // holding partition locks for their whole duration: the pin
        // freezes which versions are visible, each partition is then
        // visited with a short per-partition read lock, and writers on
        // partitions the scan is not currently touching proceed
        // unimpeded (they preserve superseded versions for the pin).
        // This removes the engine's former ordered-lock scan hold — a
        // long scan no longer serialises the write path.
        let pinned = self.shared.seq.pin();
        let result = self.snapshot_scan_parts(pinned, start, count);
        self.shared.seq.release(pinned);
        self.shared.obs.scan.record(result.latency.as_nanos());
        Ok(result)
    }

    fn stats(&self) -> EngineStats {
        self.shared.stats_snapshot()
    }

    fn elapsed(&self) -> Nanos {
        self.each_partition(Partition::elapsed)
            .fold(Nanos::ZERO, Nanos::max)
    }

    fn engine_name(&self) -> &str {
        "prismdb"
    }

    fn shard_count(&self) -> usize {
        self.shared.partitions.len()
    }

    fn shard_of(&self, key: &Key) -> usize {
        self.partition_for(key)
    }

    fn shards_for_scan(&self, start: &Key) -> std::ops::Range<usize> {
        match self.shared.options.partitioning {
            // A hash-partitioned scan visits every partition.
            Partitioning::Hash => 0..self.shard_count(),
            // A range-partitioned scan walks ascending partitions from the
            // start key's partition; it may stop early once `count`
            // entries are found, so this is a conservative superset.
            Partitioning::Range => self.partition_for(start)..self.shard_count(),
        }
    }

    fn concurrent_reads(&self) -> bool {
        // Partitions sit behind reader-writer locks: point reads and scans
        // on the same partition overlap with each other.
        true
    }

    fn background_worker_times(&self) -> Vec<Nanos> {
        match &self.shared.sched {
            Some(sched) => sched.worker_times(),
            None => Vec::new(),
        }
    }

    fn shard_read_serial_times(&self) -> Vec<Nanos> {
        // Even with reader-writer partition locks, each read serialises
        // briefly inside one DRAM-cache sub-shard mutex; expose the
        // busiest sub-shard's cumulative time per partition so harness
        // queueing models can charge that residue to the shard.
        self.each_partition(|p| Nanos::from_nanos(p.read_serial_busiest_ns()))
            .collect()
    }

    /// The partition's NVM utilisation over the compaction high
    /// watermark: `1.0` means the next write trips (or queues behind) a
    /// demotion compaction.
    fn shard_write_pressure(&self, shard: usize) -> f64 {
        self.partition_utilization(shard) / self.shared.options.high_watermark
    }

    /// Pin a read snapshot at the current commit sequence. Until the
    /// snapshot is released, writers preserve any version they supersede
    /// so snapshot reads stay frozen at pin time.
    fn snapshot(&self) -> Result<SnapshotId> {
        count(&self.shared.stats.txn.snapshots, 1);
        Ok(SnapshotId(self.shared.seq.pin()))
    }

    fn release_snapshot(&self, snapshot: SnapshotId) {
        self.shared.seq.release(snapshot.0);
    }

    fn snapshot_get(&self, snapshot: SnapshotId, key: &Key) -> Result<Option<Value>> {
        if self.shared.seq.is_expired(snapshot.sequence()) {
            return Err(PrismError::SnapshotExpired);
        }
        let idx = self.partition_for(key);
        let (value, _cost) = self
            .shared
            .read_partition(idx)
            .snapshot_get(key, snapshot.sequence())?;
        Ok(value)
    }

    fn snapshot_scan(
        &self,
        snapshot: SnapshotId,
        start: &Key,
        count: usize,
    ) -> Result<Vec<(Key, Value)>> {
        if self.shared.seq.is_expired(snapshot.sequence()) {
            return Err(PrismError::SnapshotExpired);
        }
        Ok(self
            .snapshot_scan_parts(snapshot.sequence(), start, count)
            .entries)
    }

    /// Optimistic multi-key commit: lock the union of read and write
    /// partitions in ascending order, validate that no key in the read
    /// set changed after the snapshot was pinned, then install the write
    /// set — through the commit-log protocol when it spans partitions,
    /// so the transaction is atomic even across a crash.
    fn txn_commit(&self, snapshot: SnapshotId, reads: &[Key], writes: WriteBatch) -> Result<Nanos> {
        if self.shared.seq.is_expired(snapshot.sequence()) {
            return Err(PrismError::SnapshotExpired);
        }
        let result = self.commit(
            writes,
            reads,
            snapshot.sequence(),
            &self.shared.obs.txn_commit,
        );
        if result.is_ok() {
            count(&self.shared.stats.txn.txn_commits, 1);
        }
        result
    }

    fn shard_health(&self, shard: usize) -> PartitionHealth {
        self.shared.read_partition(shard).health()
    }

    fn quarantined_objects(&self) -> u64 {
        self.each_partition(Partition::quarantined_len)
            .sum::<usize>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_types::ReadSource;

    fn small_db(keys: u64, partitions: usize) -> PrismDb {
        PrismDb::open(small_options(keys, partitions)).unwrap()
    }

    fn small_options(keys: u64, partitions: usize) -> Options {
        let mut options = Options::scaled_default(keys);
        options.num_partitions = partitions;
        options.compaction.bucket_size_keys = 512;
        options.sst_target_bytes = 32 * 1024;
        options
    }

    fn background_db(keys: u64, partitions: usize, workers: usize) -> PrismDb {
        let mut options = small_options(keys, partitions);
        options.compaction_workers = workers;
        PrismDb::open(options).unwrap()
    }

    #[test]
    fn routing_covers_all_partitions() {
        let db = small_db(10_000, 4);
        for id in (0..10_000u64).step_by(101) {
            db.put(Key::from_id(id), Value::filled(200, 1)).unwrap();
        }
        for id in (0..10_000u64).step_by(101) {
            assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
        }
        assert_eq!(db.shard_count(), 4);
        assert!(db.nvm_object_count() > 0);
    }

    #[test]
    fn oversized_values_are_rejected_at_the_engine_boundary() {
        let db = small_db(1_000, 2);
        let err = db.put(Key::from_id(1), Value::filled(8192, 0)).unwrap_err();
        assert!(matches!(err, PrismError::ObjectTooLarge { .. }));
    }

    #[test]
    fn cross_partition_scan_returns_keys_in_order() {
        let db = small_db(4_000, 4);
        for id in 0..4_000u64 {
            db.put(Key::from_id(id), Value::filled(300, 1)).unwrap();
        }
        // Start near the end of one partition so the scan must spill into
        // the next partition.
        let span = 4_000 * 2 / 4;
        let start = span - 20;
        let result = db.scan(&Key::from_id(start), 60).unwrap();
        let ids: Vec<u64> = result.entries.iter().map(|(k, _)| k.id()).collect();
        let expected: Vec<u64> = (start..start + 60).collect();
        assert_eq!(ids, expected);
    }

    /// Every partition's foreground clock, in partition order.
    fn partition_clocks(db: &PrismDb) -> Vec<Nanos> {
        db.each_partition(Partition::fg).collect()
    }

    /// A `Hash` scan opens every partition in its first round, so their
    /// device reads are one wave: the scan pays every partition's CPU part
    /// and the slowest device part, while each partition's clock and the
    /// devices' counters still move by the whole of what it read.
    #[test]
    fn a_hash_scan_waits_for_its_slowest_partition_read() {
        let db = small_db(4_000, 4);
        for id in 0..4_000u64 {
            let value = Value::filled(1000, (id % 251) as u8);
            db.put(Key::from_id(id), value).unwrap();
        }
        let storage = db.storage();
        // NVM reads and bytes, then flash reads and bytes.
        let io = || {
            let nvm = storage.nvm.counters().as_tier_io();
            let flash = storage.flash.counters().as_tier_io();
            [nvm.reads, nvm.bytes_read, flash.reads, flash.bytes_read]
        };
        let delta = |after: [u64; 4], before: [u64; 4]| -> [u64; 4] {
            std::array::from_fn(|i| after[i] - before[i])
        };
        let start = Key::from_id(0);
        let (io_before, clocks_before) = (io(), partition_clocks(&db));
        let scan = db.scan(&start, 100).unwrap();
        let (io_after, clocks_after) = (io(), partition_clocks(&db));
        assert_eq!(scan.entries.len(), 100);

        // Replay each partition's share alone to learn its two parts and
        // the reads behind them.
        let (mut cpu, mut slowest, mut whole) = (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
        let (mut reads, mut from_flash) = ([0; 4], 0);
        for idx in 0..db.shard_count() {
            let share: Vec<(Key, Value)> = scan
                .entries
                .iter()
                .filter(|(key, _)| db.partition_for(key) == idx)
                .cloned()
                .collect();
            let p = db.shared.read_partition(idx);
            let mut cursor = ScanCursor::new(&start);
            let mut replayed = Vec::new();
            p.scan_pull(&mut cursor, None, u64::MAX, share.len(), &mut replayed);
            assert_eq!(replayed, share);
            let before = io();
            let charge = p.scan_charge(&cursor);
            let read = delta(io(), before);
            let parts = charge.cpu + charge.device;
            assert_eq!(clocks_after[idx], clocks_before[idx] + parts);
            cpu += charge.cpu;
            slowest = slowest.max(charge.device);
            whole += parts;
            reads = std::array::from_fn(|i| reads[i] + read[i]);
            from_flash += u64::from(read[2] > 0);
        }
        assert!(from_flash >= 2, "{from_flash} partitions read flash");
        assert_eq!(scan.latency, cpu + slowest);
        assert!(scan.latency < whole);
        // The same reads as one partition after another would issue.
        assert_eq!(delta(io_after, io_before), reads);
    }

    /// A `Range` scan opens the next partition only once those before it
    /// ran out, so each is its own wave: a scan across a boundary pays
    /// each partition's whole charge in turn.
    #[test]
    fn a_range_scan_pays_each_partition_in_turn() {
        let mut options = small_options(4_000, 4);
        options.partitioning = Partitioning::Range;
        let db = PrismDb::open(options).unwrap();
        for id in 0..4_000u64 {
            let value = Value::filled(1000, (id % 251) as u8);
            db.put(Key::from_id(id), value).unwrap();
        }
        let clocks_before = partition_clocks(&db);
        // Partitions span 2 000 keys each.
        let scan = db.scan(&Key::from_id(1_990), 30).unwrap();
        let clocks_after = partition_clocks(&db);
        let ids: Vec<u64> = scan.entries.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, (1_990..2_020).collect::<Vec<u64>>());
        let charged: Vec<Nanos> = clocks_after
            .iter()
            .zip(&clocks_before)
            .map(|(after, before)| *after - *before)
            .collect();
        assert!(charged[0] > Nanos::ZERO && charged[1] > Nanos::ZERO);
        assert_eq!(charged[2..], [Nanos::ZERO; 2]);
        assert_eq!(scan.latency, charged.iter().copied().sum());
    }

    #[test]
    fn stats_aggregate_partitions_and_devices() {
        let db = small_db(5_000, 2);
        for id in 0..5_000u64 {
            db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        for id in (0..5_000u64).step_by(7) {
            db.get(&Key::from_id(id)).unwrap();
        }
        let stats = db.stats();
        assert!(stats.user_bytes_written >= 5_000 * 1000);
        assert!(stats.nvm_io.bytes_written > 0);
        assert!(stats.reads_found() > 0);
        assert!(db.elapsed() > Nanos::ZERO);
        assert!(db.cost_per_gb() > 0.0);
        assert_eq!(db.engine_name(), "prismdb");
        // The inline engine reports no virtual background workers and the
        // compaction time identity holds.
        assert!(db.background_worker_times().is_empty());
        assert_eq!(
            stats.compaction.total_time,
            stats.compaction.fast_tier_time + stats.compaction.slow_tier_time
        );
        // Stalls are summed across partitions while elapsed is the max
        // over partitions, so the aggregate bound is per-partition.
        assert!(stats.compaction.stall_time <= db.elapsed() * 2);
    }

    #[test]
    fn engine_crash_recovery_preserves_data() {
        let db = small_db(3_000, 2);
        for id in 0..3_000u64 {
            db.put(Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        db.put(Key::from_id(11), Value::filled(900, 99)).unwrap();
        db.delete(&Key::from_id(12)).unwrap();
        let recovery = db.crash_and_recover();
        assert!(recovery > Nanos::ZERO);
        assert_eq!(
            db.get(&Key::from_id(11)).unwrap().value.unwrap().as_bytes()[0],
            99
        );
        assert!(db.get(&Key::from_id(12)).unwrap().value.is_none());
        for id in (0..3_000u64).step_by(41) {
            if id == 12 {
                continue;
            }
            assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
        }
    }

    /// An empty value is a value, not a delete: acknowledged by a single
    /// put, it is still there after a crash (recovery reads the slot's
    /// tombstone flag, not the value's length).
    #[test]
    fn an_empty_value_survives_a_crash() {
        let db = small_db(1_000, 2);
        let key = Key::from_id(5);
        db.put(key.clone(), Value::empty()).unwrap();
        assert_eq!(db.get(&key).unwrap().value, Some(Value::empty()));
        db.crash_and_recover();
        assert_eq!(db.get(&key).unwrap().value, Some(Value::empty()));
    }

    /// The same through the batched path, beside a delete in the same
    /// batch that must stay one.
    #[test]
    fn an_empty_value_in_a_batch_survives_a_crash() {
        let db = small_db(1_000, 2);
        let (empty, gone) = (Key::from_id(5), Key::from_id(6));
        db.put(gone.clone(), Value::filled(64, 6)).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(empty.clone(), Value::empty());
        batch.delete(gone.clone());
        db.apply_batch(batch).unwrap();
        db.crash_and_recover();
        assert_eq!(db.get(&empty).unwrap().value, Some(Value::empty()));
        assert_eq!(db.get(&gone).unwrap().value, None);
    }

    /// A delete of a key whose only version is on flash writes a tombstone
    /// slot; recovery must read it back as a tombstone, neither as an
    /// empty value nor as nothing (which would expose the flash version).
    #[test]
    fn a_delete_over_flash_survives_a_crash_as_a_tombstone() {
        let db = small_db(3_000, 2);
        for id in 0..3_000u64 {
            db.put(Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        let victim = (0..3_000u64)
            .map(Key::from_id)
            .find(|key| db.get(key).unwrap().source == ReadSource::Flash)
            .expect("some key lives only on flash");
        db.delete(&victim).unwrap();
        db.crash_and_recover();
        assert_eq!(db.get(&victim).unwrap().value, None);
        let scanned = db.scan(&victim, 1).unwrap().entries;
        assert!(scanned.iter().all(|(key, _)| *key != victim));
    }

    /// Snapshot history is DRAM: a crash drops it, and its bytes leave the
    /// engine's total with it, though the pin itself is still registered.
    #[test]
    fn a_crash_drops_snapshot_history_and_its_bytes() {
        let db = small_db(1_000, 2);
        for id in 0..20u64 {
            db.put(Key::from_id(id), Value::filled(300, 1)).unwrap();
        }
        let pin = db.snapshot().unwrap();
        for id in 0..20u64 {
            db.put(Key::from_id(id), Value::filled(300, 2)).unwrap();
        }
        assert!(db.snapshot_history_bytes() > 20 * 300);
        db.crash_and_recover();
        assert_eq!(db.snapshot_history_bytes(), 0);
        assert_eq!(db.active_snapshots(), 1);
        // Overwritten after the pin and no longer preserved: absent for
        // the pin, never the newer value.
        assert_eq!(db.snapshot_get(pin, &Key::from_id(3)).unwrap(), None);
        db.release_snapshot(pin);
    }

    /// A second crash finds the state the first recovery left and rebuilds
    /// the same DRAM state from it: after the same follow-up ops every
    /// statistic matches a single crash, apart from the NVM reads of the
    /// second recovery itself.
    #[test]
    fn crashing_twice_accounts_as_crashing_once() {
        let run = |crashes: usize| {
            let db = small_db(3_000, 2);
            for id in 0..3_000u64 {
                db.put(Key::from_id(id), Value::filled(900, 1)).unwrap();
            }
            for id in (0..3_000u64).step_by(3) {
                db.get(&Key::from_id(id)).unwrap();
            }
            let mut last_recovery = prism_types::TierIo::default();
            for _ in 0..crashes {
                let before = db.stats().nvm_io;
                db.crash_and_recover();
                last_recovery = db.stats().nvm_io.delta_since(before);
            }
            for id in (0..3_000u64).step_by(5) {
                db.get(&Key::from_id(id)).unwrap();
                db.put(Key::from_id(id), Value::filled(900, 2)).unwrap();
            }
            (db.stats(), last_recovery)
        };
        let (once, _) = run(1);
        let (mut twice, second) = run(2);
        assert!(once.compaction.jobs > 0, "the follow-up ops compact");
        assert_eq!(
            (second.reads, second.writes),
            (2, 0),
            "one scan per partition"
        );
        twice.nvm_io = twice.nvm_io.delta_since(second);
        assert_eq!(twice, once);
    }

    /// The DRAM cache's entries are volatile, its traffic and serial time
    /// are not: a crash empties the cache and leaves the counters where
    /// they were.
    #[test]
    fn cache_traffic_and_serial_time_outlive_a_crash() {
        let db = small_db(2_000, 2);
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
        }
        for _ in 0..2 {
            for id in 0..500u64 {
                db.get(&Key::from_id(id)).unwrap();
            }
        }
        let (cache, serial) = (db.dram_cache_stats(), db.shard_read_serial_times());
        assert!(cache.hits > 0 && cache.misses > 0 && cache.objects > 0);
        db.crash_and_recover();
        let after = db.dram_cache_stats();
        assert_eq!((after.hits, after.misses), (cache.hits, cache.misses));
        assert_eq!((after.objects, after.used_bytes), (0, 0));
        assert_eq!(db.shard_read_serial_times(), serial);
    }

    #[test]
    fn read_heavy_workload_keeps_hot_reads_fast() {
        let db = small_db(4_000, 2);
        for id in 0..4_000u64 {
            db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        // Zipf-like hot set: read keys 0..100 repeatedly.
        for _ in 0..30 {
            for id in 0..100u64 {
                db.get(&Key::from_id(id)).unwrap();
            }
        }
        let mut fast = 0;
        for id in 0..100u64 {
            let got = db.get(&Key::from_id(id)).unwrap();
            if matches!(got.source, ReadSource::Dram | ReadSource::Nvm) {
                fast += 1;
            }
        }
        assert!(fast >= 90, "hot reads should avoid flash, {fast}/100 fast");
    }

    #[test]
    fn shared_handles_drive_the_engine_from_many_threads() {
        let db = Arc::new(small_db(6_000, 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..300u64 {
                        let id = t * 1_500 + i;
                        db.put(Key::from_id(id), Value::filled(256, t as u8))
                            .unwrap();
                        if i % 3 == 0 {
                            let got = db.get(&Key::from_id(id)).unwrap();
                            assert_eq!(got.value.unwrap().as_bytes()[0], t as u8);
                        }
                    }
                });
            }
        });
        let db = Arc::into_inner(db).expect("all worker handles dropped");
        for t in 0..4u64 {
            let got = db.get(&Key::from_id(t * 1_500)).unwrap();
            assert_eq!(got.value.unwrap().as_bytes()[0], t as u8);
        }
        assert_eq!(db.engine_name(), "prismdb");
        assert_eq!(db.shard_count(), 4);
        assert!(db.concurrent_reads());
    }

    #[test]
    fn concurrent_scans_and_writes_do_not_deadlock() {
        let mut options = Options::scaled_default(4_000);
        options.num_partitions = 4;
        options.partitioning = Partitioning::Range;
        let db = Arc::new(PrismDb::open(options).unwrap());
        for id in 0..4_000u64 {
            db.put(Key::from_id(id), Value::filled(128, 1)).unwrap();
        }
        std::thread::scope(|scope| {
            // Scanners repeatedly cross partition boundaries while writers
            // mutate every partition.
            for s in 0..2u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for round in 0..60u64 {
                        let start = (s * 900 + round * 37) % 3_500;
                        let result = db.scan(&Key::from_id(start), 200).unwrap();
                        let ids: Vec<u64> = result.entries.iter().map(|(k, _)| k.id()).collect();
                        assert!(ids.windows(2).all(|w| w[0] < w[1]), "scan out of order");
                    }
                });
            }
            for t in 0..2u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..600u64 {
                        let id = (t * 2_000 + i * 7) % 4_000;
                        db.put(Key::from_id(id), Value::filled(128, 2)).unwrap();
                    }
                });
            }
        });
        assert!(db.nvm_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let db = small_db(2_000, 4);
        for id in 0..2_000u64 {
            let shard = db.shard_of(&Key::from_id(id));
            assert!(shard < db.shard_count());
            assert_eq!(shard, db.shard_of(&Key::from_id(id)));
        }
    }

    #[test]
    fn background_engine_keeps_all_data_and_reports_worker_time() {
        let keys = 6_000u64;
        let db = background_db(keys, 4, 2);
        for round in 0..2u8 {
            for id in 0..keys {
                db.put(Key::from_id(id), Value::filled(1000, round))
                    .unwrap();
            }
        }
        for id in (0..keys).step_by(53) {
            let got = db.get(&Key::from_id(id)).unwrap();
            assert_eq!(
                got.value
                    .unwrap_or_else(|| panic!("key {id} lost"))
                    .as_bytes()[0],
                1
            );
        }
        let worker_times = db.background_worker_times();
        assert_eq!(worker_times.len(), 2);
        assert!(
            worker_times.iter().any(|t| *t > Nanos::ZERO),
            "sustained writes must have produced background compactions"
        );
        let stats = db.stats();
        assert!(stats.compaction.jobs > 0);
        assert!(stats.compaction.overlap_time > Nanos::ZERO);
        assert_eq!(
            stats.compaction.total_time,
            stats.compaction.fast_tier_time + stats.compaction.slow_tier_time
        );
        // Stalls are summed across the 4 partitions; elapsed is the max.
        assert!(stats.compaction.stall_time <= db.elapsed() * 4);
        assert!(db.nvm_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn background_engine_survives_crash_recovery_mid_queue() {
        let keys = 4_000u64;
        let db = background_db(keys, 4, 2);
        for id in 0..keys {
            db.put(Key::from_id(id), Value::filled(1000, 7)).unwrap();
        }
        // Crash while the queue/workers are likely mid-job, then verify
        // and keep writing.
        db.crash_and_recover();
        for id in (0..keys).step_by(31) {
            assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
        }
        for id in 0..keys / 2 {
            db.put(Key::from_id(id), Value::filled(1000, 8)).unwrap();
        }
        db.crash_and_recover();
        for id in (0..keys / 2).step_by(17) {
            assert_eq!(
                db.get(&Key::from_id(id)).unwrap().value.unwrap().as_bytes()[0],
                8
            );
        }
    }

    #[test]
    fn apply_batch_groups_by_partition_and_matches_per_op_semantics() {
        let db = small_db(2_000, 4);
        let mut batch = WriteBatch::new();
        for id in 0..200u64 {
            batch.put(Key::from_id(id * 7 % 2_000), Value::filled(256, id as u8));
        }
        batch.delete(Key::from_id(7));
        let cost = db.apply_batch(batch).unwrap();
        assert!(cost > Nanos::ZERO);
        assert!(db.get(&Key::from_id(7)).unwrap().value.is_none());
        assert!(db.get(&Key::from_id(14)).unwrap().value.is_some());
        let stats = db.stats();
        assert!(stats.batch_groups >= 1 && stats.batch_groups <= 4);
        assert_eq!(stats.batch_entries, 201);
        // An empty batch is free; an oversized value rejects the whole
        // batch before anything applies.
        assert_eq!(db.apply_batch(WriteBatch::new()).unwrap(), Nanos::ZERO);
        let mut bad = WriteBatch::new();
        bad.put(Key::from_id(1_999), Value::filled(100, 1));
        bad.put(Key::from_id(1_998), Value::filled(8192, 1));
        let err = db.apply_batch(bad).unwrap_err();
        assert!(matches!(err, PrismError::ObjectTooLarge { .. }));
        assert!(
            db.get(&Key::from_id(1_999)).unwrap().value.is_none(),
            "a rejected batch must not be half-applied"
        );
        // The pre-validation bound is the engine's *configured* largest
        // slot class, not just the global object cap: a value that fits
        // the cap but no configured slot must reject the whole batch up
        // front rather than fail mid-group.
        let mut options = small_options(500, 2);
        options.slab_slot_sizes = vec![128, 256];
        let narrow = PrismDb::open(options).unwrap();
        let mut bad = WriteBatch::new();
        bad.put(Key::from_id(1), Value::filled(100, 1));
        bad.put(Key::from_id(2), Value::filled(1_000, 1));
        let err = narrow.apply_batch(bad).unwrap_err();
        assert!(matches!(err, PrismError::ObjectTooLarge { max: 256, .. }));
        assert!(
            narrow.get(&Key::from_id(1)).unwrap().value.is_none(),
            "config-oversized batches must reject before applying anything"
        );
    }

    /// The batched-path stall-accounting identities: even when batches
    /// trip the back-pressure ceiling (or exhaust NVM mid-group and
    /// reclaim inline), compaction time still splits exactly into tier
    /// times and foreground stalls never exceed elapsed virtual time.
    #[test]
    fn batched_backpressure_keeps_stall_accounting_identities() {
        let mut options = small_options(2_000, 1);
        options.compaction_workers = 1;
        options.nvm_capacity_bytes = 128 * 1024;
        options.high_watermark = 0.6;
        options.low_watermark = 0.5;
        options.backpressure_ceiling = 0.8;
        let db = PrismDb::open(options).unwrap();
        for round in 0..8u64 {
            let mut batch = WriteBatch::new();
            for i in 0..50u64 {
                batch.put(
                    Key::from_id(round * 50 + i),
                    Value::filled(1000, round as u8),
                );
            }
            db.apply_batch(batch).unwrap();
        }
        let stats = db.stats();
        assert!(
            stats.compaction.backpressure_stalls > 0,
            "the batches must have hit the ceiling or reclaimed inline"
        );
        assert!(stats.compaction.stall_time > Nanos::ZERO);
        assert_eq!(
            stats.compaction.total_time,
            stats.compaction.fast_tier_time + stats.compaction.slow_tier_time,
            "compaction time must split exactly into tier times"
        );
        // One partition: the engine's elapsed is that partition's elapsed.
        assert!(
            stats.compaction.stall_time <= db.elapsed(),
            "stalls ({:?}) cannot exceed elapsed ({:?})",
            stats.compaction.stall_time,
            db.elapsed()
        );
        // All 400 keys must still be readable after the pressure.
        for id in (0..400u64).step_by(23) {
            assert!(db.get(&Key::from_id(id)).unwrap().value.is_some());
        }
    }

    /// Regression: one batch runs one watermark check per touched
    /// partition, so it accepts at most one demotion enqueue per touched
    /// partition — never one per entry.
    #[test]
    fn a_batch_enqueues_at_most_one_compaction_job_per_touched_partition() {
        let mut options = small_options(400, 2);
        options.partitioning = Partitioning::Range;
        options.compaction_workers = 1;
        options.nvm_capacity_bytes = 512 * 1024; // 256 KB per partition
        options.high_watermark = 0.9;
        options.low_watermark = 0.7;
        let db = PrismDb::open(options).unwrap();
        // Load partition 0 (ids 0..400 under range partitioning) to ~78 %
        // utilisation: below the high watermark, so nothing enqueues.
        for id in 0..200u64 {
            db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        assert_eq!(db.stats().compaction.enqueued_jobs, 0);
        // One 40-entry batch into the same partition pushes it past the
        // high watermark (~94 %) but below the ceiling.
        let mut batch = WriteBatch::new();
        for id in 200..240u64 {
            batch.put(Key::from_id(id), Value::filled(1000, 2));
        }
        db.apply_batch(batch).unwrap();
        let enqueued = db.stats().compaction.enqueued_jobs;
        assert!(
            enqueued <= 1,
            "a single-partition batch must accept at most one demotion \
             enqueue, got {enqueued}"
        );
        assert_eq!(enqueued, 1, "crossing the watermark must enqueue the job");
    }

    /// The adaptive-pool contract at engine level: once the compaction
    /// queue drains, every background worker parks (none spins), and an
    /// inline engine reports no workers at all.
    #[test]
    fn a_drained_compaction_queue_parks_all_workers() {
        let db = background_db(3_000, 4, 3);
        for id in 0..3_000u64 {
            db.put(Key::from_id(id), Value::filled(1000, 1)).unwrap();
        }
        // Workers may still be draining demotions; once the queue and the
        // in-flight jobs are done, all 3 workers must be parked.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.parked_compaction_workers() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers failed to park after the queue drained \
                 (parked {}, queue depth {})",
                db.parked_compaction_workers(),
                db.stats().compaction.queue_depth
            );
            std::thread::yield_now();
        }
        // Reaching 3 above is the assertion; `parked` transiently dips on
        // spurious condvar wakeups, so an equality re-read would be racy.
        assert_eq!(db.stats().compaction.queue_depth, 0);
        // Inline engines have no workers to park.
        assert_eq!(small_db(500, 2).parked_compaction_workers(), 0);
    }

    #[test]
    fn background_workers_shut_down_cleanly_on_drop() {
        let db = background_db(1_000, 2, 3);
        for id in 0..1_000u64 {
            db.put(Key::from_id(id), Value::filled(800, 1)).unwrap();
        }
        drop(db); // must not hang joining the worker threads
    }

    #[test]
    fn torn_multi_partition_batch_rolls_back_on_recovery() {
        let db = small_db(4_000, 4);
        // One baseline key per partition quadrant; the batch overwrites
        // two of them, deletes one and inserts one fresh key.
        let span = 1_000u64;
        for q in 0..4u64 {
            db.put(Key::from_id(q * span), Value::filled(300, q as u8 + 1))
                .unwrap();
        }
        let mut batch = WriteBatch::new();
        batch.put(Key::from_id(0), Value::filled(400, 101));
        batch.put(Key::from_id(span), Value::filled(400, 102));
        batch.delete(Key::from_id(2 * span));
        batch.put(Key::from_id(3 * span + 7), Value::filled(400, 103));
        // Crash after installing only the first of four groups.
        db.apply_batch_leaving_torn(batch, 1).unwrap();
        assert_eq!(db.torn_commit_records(), 1);
        db.crash_and_recover();
        assert_eq!(db.torn_commit_records(), 0);
        // Every key is back to its pre-batch state: the batch vanished
        // atomically.
        for q in 0..4u64 {
            let got = db.get(&Key::from_id(q * span)).unwrap();
            let value = got.value.expect("baseline keys survive rollback");
            assert_eq!(value.len(), 300);
            assert_eq!(value.as_bytes()[0], q as u8 + 1);
        }
        assert!(db.get(&Key::from_id(3 * span + 7)).unwrap().value.is_none());
        let stats = db.stats();
        assert_eq!(stats.txn.commit_intents, 1);
        assert_eq!(stats.txn.commit_rolled_back, 1);
        assert_eq!(stats.txn.commit_seals, 0);
    }

    /// A torn record whose checksum fails is dropped by recovery: it can
    /// be trusted for neither replay nor rollback, and it is counted as a
    /// detected checksum failure.
    #[test]
    fn a_corrupt_commit_record_is_a_checksum_failure() {
        let db = small_db(4_000, 4);
        let mut batch = WriteBatch::new();
        for q in 0..4u64 {
            batch.put(Key::from_id(q * 1_000), Value::filled(400, 9));
        }
        let batch_id = db.apply_batch_leaving_torn(batch, 1).unwrap();
        assert!(db.shared.commit_log.corrupt_record(batch_id));
        db.crash_and_recover();
        let stats = db.stats();
        assert_eq!(stats.integrity.checksum_failures, 1);
        assert_eq!(stats.txn.commit_rolled_back, 0);
        assert_eq!(db.torn_commit_records(), 0);
    }

    #[test]
    fn sealed_multi_partition_batch_survives_recovery() {
        let db = small_db(4_000, 4);
        let mut batch = WriteBatch::new();
        for q in 0..4u64 {
            batch.put(Key::from_id(q * 1_000), Value::filled(256, 7));
        }
        db.apply_batch(batch).unwrap();
        assert_eq!(db.torn_commit_records(), 0);
        db.crash_and_recover();
        for q in 0..4u64 {
            let got = db.get(&Key::from_id(q * 1_000)).unwrap();
            assert_eq!(got.value.expect("sealed batch is durable").len(), 256);
        }
        let stats = db.stats();
        assert_eq!(stats.txn.commit_seals, 1);
        assert_eq!(stats.txn.commit_replayed, 1);
        assert_eq!(stats.txn.commit_rolled_back, 0);
    }

    #[test]
    fn snapshot_reads_are_frozen_at_pin_time() {
        let db = small_db(2_000, 2);
        db.put(Key::from_id(5), Value::filled(100, 1)).unwrap();
        db.put(Key::from_id(1_500), Value::filled(100, 2)).unwrap();
        let snap = db.snapshot().unwrap();
        assert_eq!(db.active_snapshots(), 1);
        // Overwrite, delete and insert behind the snapshot's back.
        db.put(Key::from_id(5), Value::filled(200, 9)).unwrap();
        db.delete(&Key::from_id(1_500)).unwrap();
        db.put(Key::from_id(42), Value::filled(100, 3)).unwrap();
        // The snapshot still sees exactly the pin-time state.
        let v5 = db.snapshot_get(snap, &Key::from_id(5)).unwrap();
        assert_eq!(v5.expect("key 5 existed at pin time").len(), 100);
        let v1500 = db.snapshot_get(snap, &Key::from_id(1_500)).unwrap();
        assert_eq!(v1500.expect("key 1500 existed at pin time").len(), 100);
        assert!(db.snapshot_get(snap, &Key::from_id(42)).unwrap().is_none());
        let scan = db.snapshot_scan(snap, &Key::min(), 10).unwrap();
        let ids: Vec<u64> = scan.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, vec![5, 1_500]);
        // Live reads see the new state all along.
        assert_eq!(db.get(&Key::from_id(5)).unwrap().value.unwrap().len(), 200);
        assert!(db.get(&Key::from_id(1_500)).unwrap().value.is_none());
        db.release_snapshot(snap);
        assert_eq!(db.active_snapshots(), 0);
        let stats = db.stats();
        assert_eq!(stats.txn.snapshots, 1);
    }

    #[test]
    fn txn_commit_validates_reads_and_installs_writes() {
        let db = small_db(4_000, 4);
        db.put(Key::from_id(10), Value::filled(100, 1)).unwrap();
        db.put(Key::from_id(2_010), Value::filled(100, 2)).unwrap();

        // A clean transaction: read both keys, write across partitions.
        let snap = db.snapshot().unwrap();
        let mut writes = WriteBatch::new();
        writes.put(Key::from_id(10), Value::filled(150, 3));
        writes.put(Key::from_id(3_010), Value::filled(150, 4));
        let reads = [Key::from_id(10), Key::from_id(2_010)];
        db.txn_commit(snap, &reads, writes).unwrap();
        db.release_snapshot(snap);
        assert_eq!(db.get(&Key::from_id(10)).unwrap().value.unwrap().len(), 150);

        // A conflicted transaction: the read key changes after the pin.
        let snap = db.snapshot().unwrap();
        db.put(Key::from_id(2_010), Value::filled(120, 5)).unwrap();
        let mut writes = WriteBatch::new();
        writes.put(Key::from_id(10), Value::filled(175, 6));
        let err = db
            .txn_commit(snap, &[Key::from_id(2_010)], writes)
            .unwrap_err();
        assert!(matches!(err, PrismError::TxnConflict { key: 2_010 }));
        db.release_snapshot(snap);
        // The conflicted write set must not have installed.
        assert_eq!(db.get(&Key::from_id(10)).unwrap().value.unwrap().len(), 150);

        let stats = db.stats();
        assert_eq!(stats.txn.txn_commits, 1);
        assert_eq!(stats.txn.txn_conflicts, 1);
    }

    /// A transaction's write buffer and read set are keyed by the whole
    /// key: a buffered write of one key is not read back as its
    /// prefix-sharing neighbour's, and a read of the neighbour joins the
    /// read set (and is validated) even after the first key did.
    #[test]
    fn a_transaction_tells_prefix_sharing_keys_apart() {
        use prism_types::Transaction;
        let db = small_db(4_000, 4);
        let a = Key::from_bytes(b"user1234A".to_vec());
        let b = Key::from_bytes(b"user1234B".to_vec());
        db.put(b.clone(), Value::filled(100, 0xB0)).unwrap();

        let mut txn = Transaction::begin(&db).unwrap();
        txn.put(a.clone(), Value::filled(100, 0xA1));
        assert_eq!(txn.get(&a).unwrap(), Some(Value::filled(100, 0xA1)));
        assert_eq!(txn.get(&b).unwrap(), Some(Value::filled(100, 0xB0)));
        txn.commit().unwrap();

        let mut txn = Transaction::begin(&db).unwrap();
        assert!(txn.get(&a).unwrap().is_some());
        assert!(txn.get(&b).unwrap().is_some());
        // `b` changes under the transaction: its commit must conflict.
        db.put(b.clone(), Value::filled(100, 0xB1)).unwrap();
        txn.put(a.clone(), Value::filled(100, 0xA2));
        assert!(matches!(txn.commit(), Err(PrismError::TxnConflict { .. })));
        assert_eq!(db.get(&a).unwrap().value, Some(Value::filled(100, 0xA1)));
    }

    /// Elapsed time plus every stats entry except the snapshot and
    /// transaction counters, which only the transaction entry moves.
    fn accounting_without_txn_counters(db: &PrismDb) -> Vec<(String, u64)> {
        let mut out = vec![("elapsed_ns".to_string(), db.elapsed().as_nanos())];
        db.stats().visit("engine_", &mut |name, _, _, value| {
            if !name.starts_with("engine_txn_") && name != "engine_snapshots" {
                out.push((name.to_string(), value));
            }
        });
        out
    }

    /// A batch is a commit with no snapshot and an empty read set: through
    /// either entry the same writes charge the same simulated time and
    /// count the same work, under compaction pressure.
    #[test]
    fn apply_batch_and_a_commit_without_reads_account_identically() {
        let mut options = small_options(2_000, 4);
        options.nvm_capacity_bytes = 256 * 1024;
        let batched = PrismDb::open(options.clone()).unwrap();
        let committed = PrismDb::open(options).unwrap();
        for round in 0..300u64 {
            let mut batch = WriteBatch::new();
            // Every seventh round stays on one key (the one-partition
            // install); the others span partitions, with deletes.
            if round % 7 != 0 {
                for i in 0..12u64 {
                    let key = Key::from_id((round * 37 + i * 211) % 2_000);
                    if i % 5 == 4 {
                        batch.delete(key);
                    } else {
                        batch.put(key, Value::filled(600, round as u8));
                    }
                }
            }
            // A duplicate key, so the merge runs.
            batch.put(Key::from_id(round), Value::filled(300, 1));
            batch.put(Key::from_id(round), Value::filled(500, 2));

            let as_batch = batched.apply_batch(batch.clone()).unwrap();
            let snap = committed.snapshot().unwrap();
            let as_commit = committed.txn_commit(snap, &[], batch).unwrap();
            committed.release_snapshot(snap);
            assert_eq!(as_batch, as_commit, "round {round}");
        }
        assert_eq!(
            accounting_without_txn_counters(&batched),
            accounting_without_txn_counters(&committed)
        );
        let stats = batched.stats();
        assert!(stats.compaction.jobs > 0, "the writes must compact");
        assert!(stats.txn.commit_intents > 200 && stats.batch_merged_writes >= 300);
        assert_eq!(committed.stats().txn.txn_commits, 300);
    }

    /// A multi-partition commit that fails mid-install rolls its installed
    /// groups back under the locks it holds and seals its record: through
    /// either entry nothing of it is visible, nothing is left for recovery
    /// to roll back, and the caller sees the I/O error.
    #[test]
    fn a_failed_multi_partition_commit_leaves_no_torn_record() {
        use prism_storage::{FaultMode, FaultOp, FaultPlan, FaultTier, TargetedFault};
        let plan = Arc::new(FaultPlan::new(0xC0117));
        let mut options = small_options(4_000, 4);
        options.fault_plan = Some(Arc::clone(&plan));
        let db = PrismDb::open(options).unwrap();
        let keys: Vec<Key> = (0..40u64).map(Key::from_id).collect();
        for key in &keys {
            db.put(key.clone(), Value::filled(300, 1)).unwrap();
        }
        let last = keys.iter().map(|key| db.shard_of(key)).max().unwrap();
        assert!(keys.iter().any(|key| db.shard_of(key) < last));

        for through_txn in [false, true] {
            let mut writes = WriteBatch::new();
            for key in &keys {
                writes.put(key.clone(), Value::filled(400, 2));
            }
            // The last group's first slab write fails, after every lower
            // partition's group has installed.
            plan.arm(TargetedFault {
                tier: FaultTier::Nvm,
                partition: Some(last),
                op: FaultOp::Write,
                mode: FaultMode::IoError,
            });
            let result = if through_txn {
                let snap = db.snapshot().unwrap();
                let result = db.txn_commit(snap, &keys[..1], writes);
                db.release_snapshot(snap);
                result
            } else {
                db.apply_batch(writes)
            };
            assert!(matches!(result, Err(PrismError::Io(_))), "{result:?}");
            assert_eq!(db.torn_commit_records(), 0);
            for key in &keys {
                let value = db.get(key).unwrap().value.expect("pre-image restored");
                assert_eq!(value.len(), 300, "through_txn={through_txn}");
            }
        }
        let stats = db.stats();
        assert_eq!(stats.txn.commit_intents, 2);
        assert_eq!(stats.txn.commit_seals, 2);
        assert_eq!(stats.txn.txn_commits, 0);
        assert_eq!(stats.integrity.io_errors, 2);
        // Nothing for recovery to do either.
        db.crash_and_recover();
        assert_eq!(db.stats().txn.commit_rolled_back, 0);
    }

    /// One capacity per tier: it sizes the slabs *and* the device, so
    /// utilisation and cost follow an assignment to the capacity field
    /// alone.
    #[test]
    fn tier_capacity_fields_size_the_devices() {
        let base = small_db(1_000, 2);
        let mut options = small_options(1_000, 2);
        options.nvm_capacity_bytes *= 2;
        options.flash_capacity_bytes *= 3;
        let grown = PrismDb::open(options.clone()).unwrap();
        let (nvm, flash) = (&grown.storage().nvm, &grown.storage().flash);
        assert_eq!(nvm.profile().capacity_bytes, options.nvm_capacity_bytes);
        assert_eq!(flash.profile().capacity_bytes, options.flash_capacity_bytes);
        // Flash is the cheap tier: tripling it against doubled NVM lowers
        // the blended price.
        assert!(grown.cost_per_gb() < base.cost_per_gb());
    }

    #[test]
    fn the_engine_is_usable_as_a_kvstore_object() {
        let mut store: Box<dyn prism_types::KvStore> = Box::new(small_db(1_000, 2));
        store.put(Key::from_id(1), Value::filled(64, 1)).unwrap();
        assert!(store.get(&Key::from_id(1)).unwrap().found());
        assert_eq!(store.engine_name(), "prismdb");
    }

    /// The steady scrubber cadence: with a short `scrub_interval_ops`, a
    /// read-only workload against an idle background pool keeps enqueuing
    /// scrub jobs, and the workers complete passes without any corruption
    /// having been detected.
    #[test]
    fn scrub_cadence_runs_steady_passes_on_idle_background_pool() {
        let mut options = small_options(2_000, 2);
        options.compaction_workers = 2;
        options.scrub_interval_ops = 100;
        let db = PrismDb::open(options).unwrap();
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(500, 1)).unwrap();
        }
        // Drive reads until the cadence has fired and a worker has
        // finished at least one pass per partition (round-robin covers
        // both partitions well within the deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut reads = 0u64;
        loop {
            let scrubs = db.stats().integrity.scrub_passes;
            if scrubs >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cadence produced only {scrubs} scrub passes after {reads} reads"
            );
            for id in 0..500u64 {
                db.get(&Key::from_id(id)).unwrap();
                reads += 1;
            }
        }
        // Cadence scrubbing is maintenance, not corruption response: the
        // store stays healthy and nothing was quarantined.
        assert_eq!(db.quarantined_objects(), 0);
        for idx in 0..db.shard_count() {
            assert_eq!(db.shard_health(idx), PartitionHealth::Healthy);
        }
    }

    /// `scrub_interval_ops == 0` disables the cadence entirely, and the
    /// inline engine (no pool) never schedules cadence scrubs regardless
    /// of the interval.
    #[test]
    fn scrub_cadence_can_be_disabled() {
        let mut options = small_options(1_000, 2);
        options.compaction_workers = 2;
        options.scrub_interval_ops = 0;
        let db = PrismDb::open(options).unwrap();
        for id in 0..1_000u64 {
            db.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
        }
        for _ in 0..5 {
            for id in 0..1_000u64 {
                db.get(&Key::from_id(id)).unwrap();
            }
        }
        assert_eq!(db.stats().integrity.scrub_passes, 0);

        let mut options = small_options(1_000, 2);
        options.scrub_interval_ops = 10;
        let inline = PrismDb::open(options).unwrap();
        for id in 0..1_000u64 {
            inline.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
        }
        for id in 0..1_000u64 {
            inline.get(&Key::from_id(id)).unwrap();
        }
        assert_eq!(inline.stats().integrity.scrub_passes, 0);
    }

    /// `dram_cache_stats` aggregates real occupancy and hit/miss traffic,
    /// and — the property the read-path scalability sweep stands on — a
    /// sharded cache and a single-mutex cache converge to the *same* hit
    /// rate on the same trace: sharding changes lock contention, never
    /// what is cached at this trace's access pattern.
    #[test]
    fn dram_cache_stats_report_traffic_and_sharding_parity() {
        let run_trace = |cache_shards: usize| {
            let mut options = small_options(2_000, 2);
            options.cache_shards = cache_shards;
            let db = PrismDb::open(options).unwrap();
            for id in 0..2_000u64 {
                db.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
            }
            // Two passes over a slice of the keyspace: pass one fills the
            // cache (misses), pass two hits what stayed resident.
            for _ in 0..2 {
                for id in 0..500u64 {
                    db.get(&Key::from_id(id)).unwrap();
                }
            }
            db.dram_cache_stats()
        };
        let sharded = run_trace(8);
        assert!(sharded.shards > 2, "two partitions of several sub-shards");
        assert!(sharded.hits > 0, "second pass must hit: {sharded:?}");
        assert!(sharded.misses > 0, "first pass must miss: {sharded:?}");
        assert!(sharded.objects > 0);
        assert!(sharded.used_bytes >= 400 * sharded.objects as u64);
        assert!(sharded.hit_rate() > 0.0 && sharded.hit_rate() < 1.0);

        let mutexed = run_trace(1);
        assert_eq!(mutexed.shards, 2, "one sub-shard per partition");
        assert_eq!(
            sharded.hits + sharded.misses,
            mutexed.hits + mutexed.misses,
            "identical traces probe the cache identically"
        );
        // Splitting capacity over sub-shards can shift *which* keys stay
        // resident, but at this sizing both configurations cache the whole
        // touched slice, so the rates must match exactly.
        assert_eq!(sharded.hits, mutexed.hits);
        assert_eq!(sharded.misses, mutexed.misses);
    }

    /// The per-shard serial read-time export: writes of uncached keys
    /// charge nothing (an update only replaces a value a read cached),
    /// reads accumulate busiest-sub-shard time in every partition they
    /// touch, and the vector always has one slot per partition.
    #[test]
    fn shard_read_serial_times_track_read_traffic() {
        let db = small_db(2_000, 2);
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(500, 1)).unwrap();
        }
        let after_writes = db.shard_read_serial_times();
        assert_eq!(after_writes.len(), 2);
        assert!(after_writes.iter().all(|t| t.is_zero()));
        for id in 0..2_000u64 {
            db.get(&Key::from_id(id)).unwrap();
        }
        let after_reads = db.shard_read_serial_times();
        assert_eq!(after_reads.len(), 2);
        assert!(
            after_reads.iter().all(|t| *t > Nanos::ZERO),
            "every partition served reads, so every partition must have \
             accumulated serial cache time: {after_reads:?}"
        );
        // The serial residue is a small slice of each read, not the whole
        // read path: it must stay below the engine's total elapsed time.
        let busiest = after_reads.iter().copied().fold(Nanos::ZERO, Nanos::max);
        assert!(busiest < db.elapsed());
    }

    /// Four threads put, get and scan across every partition at once: the
    /// one shared table loses no count, and a crash leaves every entry but
    /// the device I/O where it was (statistics outlive a crash).
    #[test]
    fn concurrent_clients_count_exactly_into_the_one_table() {
        let db = small_db(4_000, 4);
        let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u64)
                .map(|t| {
                    let db = &db;
                    scope.spawn(move || {
                        let (mut bytes, mut gets, mut returned) = (0, 0, 0);
                        for i in 0..500u64 {
                            let key = Key::from_id(t * 1_000 + i);
                            let len = 100 + (i % 7) as usize * 50 + t as usize;
                            db.put(key, Value::filled(len, t as u8)).unwrap();
                            bytes += len as u64;
                            // Every other get asks for a key no one writes.
                            db.get(&Key::from_id(t * 1_000 + i / 2 + (i % 2) * 600))
                                .unwrap();
                            gets += 1;
                            if i % 25 == 0 {
                                returned +=
                                    db.scan(&Key::from_id(t * 1_000), 10).unwrap().entries.len();
                            }
                        }
                        (bytes, gets, returned as u64)
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!((0..db.shard_count()).all(|idx| db.partition_utilization(idx) > 0.0));
        let stats = db.stats();
        let sum = |pick: fn(&(u64, u64, u64)) -> u64| per_thread.iter().map(pick).sum::<u64>();
        assert_eq!(stats.user_bytes_written, sum(|c| c.0));
        assert_eq!(stats.reads_found() + stats.reads_not_found, sum(|c| c.1));
        assert!(stats.reads_not_found > 0);
        assert_eq!(stats.scan_entries_returned, sum(|c| c.2));

        let rows = |stats: EngineStats| {
            let mut rows = Vec::new();
            stats.visit("", &mut |name, _, _, value| {
                if !name.starts_with("nvm_") && !name.starts_with("flash_") {
                    rows.push((name.to_string(), value));
                }
            });
            rows
        };
        db.crash_and_recover();
        assert_eq!(rows(db.stats()), rows(stats));
    }
}
