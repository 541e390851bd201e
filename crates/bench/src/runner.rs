//! Driving an engine with a workload and collecting results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prism_frontend::{Frontend, FrontendOptions, ReadTicket, ScanTicket, WriteTicket};
use prism_obs::{HistogramSnapshot, LatencyHistogram};
use prism_types::{
    ConcurrentKvStore, EngineStats, FrontendStats, Key, Nanos, Op, OpKind, PrismError, Result,
    Value, WriteBatch,
};
use prism_workloads::{OpStream, Workload};

/// Sizing of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of keys loaded before the measured phase.
    pub record_count: u64,
    /// Warm-up operations (executed but not measured).
    pub warmup_ops: u64,
    /// Measured operations.
    pub measure_ops: u64,
    /// RNG seed for the operation stream.
    pub seed: u64,
    /// Number of measurement windows for time-series experiments
    /// (Figure 14b); 1 means a single aggregate window.
    pub windows: usize,
}

impl RunConfig {
    /// A configuration proportional to the key count: warm-up equal to the
    /// key count and twice as many measured operations.
    pub fn scaled(record_count: u64) -> Self {
        RunConfig {
            record_count,
            warmup_ops: record_count,
            measure_ops: record_count * 2,
            seed: 42,
            windows: 1,
        }
    }

    /// A small configuration for tests.
    pub fn quick(record_count: u64) -> Self {
        RunConfig {
            record_count,
            warmup_ops: record_count / 2,
            measure_ops: record_count,
            seed: 42,
            windows: 1,
        }
    }

    /// Use `windows` measurement windows (for time-series plots).
    pub fn with_windows(mut self, windows: usize) -> Self {
        self.windows = windows.max(1);
        self
    }
}

/// One measurement window of a run.
#[derive(Debug, Clone)]
pub struct Window {
    /// Throughput in thousands of operations per simulated second.
    pub throughput_kops: f64,
    /// Fraction of found reads served from DRAM or NVM during the window.
    pub fast_read_ratio: f64,
}

/// The outcome of driving one engine with one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Overall throughput in thousands of operations per simulated second.
    pub throughput_kops: f64,
    /// Mean operation latency in microseconds.
    pub mean_us: f64,
    /// Median operation latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile operation latency in microseconds.
    pub p99_us: f64,
    /// Per-operation-kind latency percentiles (microseconds).
    pub per_kind: HashMap<OpKind, KindLatency>,
    /// Engine statistics accumulated during the measured window only.
    pub stats: EngineStats,
    /// Simulated time spent in the measured window.
    pub elapsed: Nanos,
    /// Blended storage cost of the engine's devices.
    pub cost_per_gb: f64,
    /// Per-window results (length = `RunConfig::windows`).
    pub windows: Vec<Window>,
    /// All measured operation latencies, sorted ascending, in microseconds.
    /// Kept as the exact sorted-vec oracle for the bucketed
    /// [`RunResult::latency_hist`] the reported percentiles come from.
    pub read_latencies_us: Vec<f64>,
    /// Shared log-bucketed histogram of every measured latency (ns); the
    /// source of `p50_us`/`p99_us` and the Figure 14a CDF, and the same
    /// [`prism_obs::LatencyHistogram`] type the frontend and engine
    /// record into at runtime.
    pub latency_hist: HistogramSnapshot,
}

/// Latency summary for one operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindLatency {
    /// Number of operations of this kind.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

/// Exact nearest-rank percentile of a sorted nanosecond slice, in µs.
///
/// This is the *oracle*: reported percentiles now come from the shared
/// [`prism_obs::LatencyHistogram`] (same nearest-rank definition,
/// log-bucketed), and the regression tests pin the bucketed estimate to
/// this exact value within one bucket's relative error.
#[cfg(test)]
pub(crate) fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1_000.0
}

/// Rank-`q` percentile of a histogram snapshot, in µs.
pub(crate) fn hist_percentile_us(snap: &HistogramSnapshot, q: f64) -> f64 {
    snap.percentile(q) / 1_000.0
}

/// Drives engines through load, warm-up and measurement phases.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    config: RunConfig,
}

impl Runner {
    /// Create a runner.
    pub fn new(config: RunConfig) -> Self {
        Runner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    fn apply<E: prism_types::KvStore + ?Sized>(engine: &mut E, op: &Op) -> Result<(Nanos, OpKind)> {
        let kind = op.kind();
        let latency = match op {
            Op::Read(key) => engine.get(key)?.latency,
            Op::Update(key, value) | Op::Insert(key, value) => {
                engine.put(key.clone(), value.clone())?
            }
            Op::ReadModifyWrite(key, value) => {
                let read = engine.get(key)?.latency;
                let write = engine.put(key.clone(), value.clone())?;
                read + write
            }
            Op::Scan(key, count) => engine.scan(key, *count)?.latency,
            Op::Delete(key) => engine.delete(key)?,
        };
        Ok((latency, kind))
    }

    /// Run the workload against `engine` and collect results.
    ///
    /// # Panics
    ///
    /// Panics if the engine returns an error (experiments are expected to be
    /// configured within capacity limits).
    pub fn run<E: prism_types::KvStore + ?Sized>(
        &self,
        engine: &mut E,
        workload: &Workload,
        cost_per_gb: f64,
    ) -> RunResult {
        let spec = Workload {
            record_count: self.config.record_count,
            ..workload.clone()
        };
        let mut stream: OpStream = spec.stream(self.config.seed);

        // Load phase.
        for op in stream.load_ops() {
            Self::apply(engine, &op).expect("load phase must not fail");
        }
        // Warm-up phase.
        for _ in 0..self.config.warmup_ops {
            let op = stream.next().expect("stream is infinite");
            Self::apply(engine, &op).expect("warm-up must not fail");
        }

        // Measured phase, possibly split into windows. Every latency is
        // recorded twice: into the exact sorted-vec oracle (kept on the
        // result for CDF regression tests) and into the shared
        // log-bucketed histogram the reported percentiles come from.
        let mut latencies: Vec<u64> = Vec::with_capacity(self.config.measure_ops as usize);
        let hist = LatencyHistogram::new();
        let mut by_kind: HashMap<OpKind, LatencyHistogram> = HashMap::new();
        let mut windows = Vec::with_capacity(self.config.windows);
        let start_stats = engine.stats();
        let start_elapsed = engine.elapsed();
        let ops_per_window = (self.config.measure_ops / self.config.windows as u64).max(1);

        let mut window_stats = start_stats;
        let mut window_elapsed = start_elapsed;
        for w in 0..self.config.windows {
            for _ in 0..ops_per_window {
                let op = stream.next().expect("stream is infinite");
                let (latency, kind) = Self::apply(engine, &op).expect("measured ops must not fail");
                latencies.push(latency.as_nanos());
                hist.record(latency.as_nanos());
                by_kind.entry(kind).or_default().record(latency.as_nanos());
            }
            let now_stats = engine.stats();
            let now_elapsed = engine.elapsed();
            let delta = now_stats.delta_since(&window_stats);
            let took = now_elapsed.saturating_sub(window_elapsed);
            windows.push(Window {
                throughput_kops: if took.is_zero() {
                    0.0
                } else {
                    ops_per_window as f64 / took.as_secs_f64() / 1_000.0
                },
                fast_read_ratio: delta.fast_read_ratio(),
            });
            window_stats = now_stats;
            window_elapsed = now_elapsed;
            let _ = w;
        }

        let stats = engine.stats().delta_since(&start_stats);
        let elapsed = engine.elapsed().saturating_sub(start_elapsed);
        let measured_ops = ops_per_window * self.config.windows as u64;

        latencies.sort_unstable();
        let latency_hist = hist.snapshot();
        let per_kind = by_kind
            .into_iter()
            .map(|(kind, h)| {
                let snap = h.snapshot();
                (
                    kind,
                    KindLatency {
                        count: snap.count(),
                        mean_us: snap.mean() / 1_000.0,
                        p50_us: hist_percentile_us(&snap, 0.5),
                        p99_us: hist_percentile_us(&snap, 0.99),
                    },
                )
            })
            .collect();

        let read_latencies_us: Vec<f64> = latencies.iter().map(|ns| *ns as f64 / 1_000.0).collect();

        RunResult {
            engine: engine.engine_name().to_string(),
            workload: spec.name.clone(),
            throughput_kops: if elapsed.is_zero() {
                0.0
            } else {
                measured_ops as f64 / elapsed.as_secs_f64() / 1_000.0
            },
            mean_us: latency_hist.mean() / 1_000.0,
            p50_us: hist_percentile_us(&latency_hist, 0.5),
            p99_us: hist_percentile_us(&latency_hist, 0.99),
            per_kind,
            stats,
            elapsed,
            cost_per_gb,
            windows,
            read_latencies_us,
            latency_hist,
        }
    }
}

/// The outcome of driving one engine from several client threads.
///
/// Produced by [`Runner::run_threaded`]. Throughput is computed in the
/// same simulated-time domain as the single-threaded results, but under a
/// closed-loop multi-client model (see `run_threaded`), so it reflects how
/// the engine's internal sharding converts added client threads into
/// parallelism — independent of how many physical cores the host happens
/// to have (individual latencies still vary slightly run-to-run because
/// thread interleaving affects shared engine state such as cache contents
/// and compaction timing).
#[derive(Debug, Clone)]
pub struct ThreadedRunResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Number of client threads.
    pub threads: usize,
    /// Client write-batch size (1 = per-op submission).
    pub batch_size: usize,
    /// Total operations measured across all threads.
    pub measured_ops: u64,
    /// Aggregate throughput in thousands of operations per simulated
    /// second (total ops divided by [`ThreadedRunResult::elapsed`]).
    pub throughput_kops: f64,
    /// Simulated makespan of the measured phase:
    /// `max(busiest client clock, busiest shard's serial work, busiest
    /// background compaction worker)`. For engines whose reads overlap on
    /// a shard ([`ConcurrentKvStore::concurrent_reads`]), only write-class
    /// operations count towards a shard's serial work — plus the engine's
    /// own reported serial read residue
    /// ([`ConcurrentKvStore::shard_read_serial_times`]): the slice of each
    /// read that still serialises inside the shard (e.g. one DRAM-cache
    /// sub-shard mutex), which shrinks as the engine shards its cache.
    pub elapsed: Nanos,
    /// The makespan under the old serialise-everything shard model (every
    /// operation, reads included, charged to its shard). Comparing this to
    /// [`ThreadedRunResult::elapsed`] isolates the win from reader-writer
    /// partition locks on read-heavy mixes; for engines without concurrent
    /// reads the two are identical.
    pub elapsed_serial_reads: Nanos,
    /// Simulated time of the jobs the busiest background compaction
    /// worker installed during the measured phase (zero for inline
    /// engines).
    pub background_time: Nanos,
    /// Real wall-clock time of the measured phase (informational; on a
    /// single-core host this mostly reflects lock overhead, not scaling).
    pub wall: std::time::Duration,
    /// Engine statistics accumulated during the measured phase.
    pub stats: EngineStats,
}

impl Runner {
    fn apply_shared<E: ConcurrentKvStore + ?Sized>(engine: &E, op: &Op) -> Result<Nanos> {
        Ok(match op {
            Op::Read(key) => engine.get(key)?.latency,
            Op::Update(key, value) | Op::Insert(key, value) => {
                engine.put(key.clone(), value.clone())?
            }
            Op::ReadModifyWrite(key, value) => {
                let read = engine.get(key)?.latency;
                let write = engine.put(key.clone(), value.clone())?;
                read + write
            }
            Op::Scan(key, count) => engine.scan(key, *count)?.latency,
            Op::Delete(key) => engine.delete(key)?,
        })
    }

    /// A per-thread RNG seed: deterministic, well-spread, and disjoint from
    /// the single-threaded stream seeded with `seed` itself.
    fn thread_seed(seed: u64, thread: usize, phase: u64) -> u64 {
        seed ^ (0x517c_c1b7_2722_0a95u64
            .wrapping_mul(thread as u64 + 1)
            .wrapping_add(phase.wrapping_mul(0x2545_f491_4f6c_dd1d)))
    }

    /// Drive `engine` from `threads` OS threads, each with its own
    /// operation stream, and measure aggregate throughput.
    ///
    /// The engine really is driven concurrently — every thread calls
    /// [`ConcurrentKvStore`] methods on the shared reference, so lock
    /// contention, routing and cross-partition scans are all exercised for
    /// real. Throughput, however, is accounted in *simulated* time with a
    /// closed-loop client model, mirroring how the rest of the harness
    /// works (and keeping results independent of host core count):
    ///
    /// * each client thread sums the simulated latency of its own
    ///   operations (a closed-loop client issues the next operation when
    ///   the previous one completes);
    /// * each engine shard (see [`ConcurrentKvStore::shard_of`]) sums the
    ///   simulated latency of every operation routed to it that needs
    ///   exclusive access — operations serialising on a shard's lock are
    ///   time that cannot be overlapped no matter how many clients there
    ///   are. For engines whose reads overlap on a shard
    ///   ([`ConcurrentKvStore::concurrent_reads`]), point reads and scans
    ///   are excluded from this serial tally (the serialise-everything
    ///   tally is still reported as
    ///   [`ThreadedRunResult::elapsed_serial_reads`]). Scans are charged
    ///   to every shard in [`ConcurrentKvStore::shards_for_scan`] — the
    ///   shards whose locks a cross-partition scan may hold simultaneously
    ///   (a conservative superset);
    /// * each background compaction worker's clock
    ///   ([`ConcurrentKvStore::background_worker_times`]) accumulates the
    ///   jobs that worker installed, so the busiest worker bounds the
    ///   makespan by at least `total compaction / W` with `W` workers, and
    ///   by more when the jobs fall unevenly across the threads.
    ///
    /// The simulated makespan is the classic schedule lower bound
    /// `max(busiest client, busiest shard, busiest background worker)`,
    /// and aggregate throughput is `total ops / makespan`. Adding client
    /// threads divides per-client work but leaves per-shard work
    /// unchanged, so throughput grows until the busiest shard dominates: a
    /// well-sharded engine scales to about its shard count, while a
    /// coarse-locked engine (one shard, whose work equals the whole run)
    /// cannot scale at all — exactly like its real counterpart on
    /// sufficient cores.
    ///
    /// # Panics
    ///
    /// Panics if the engine returns an error or `threads` is zero
    /// (experiments are expected to be configured within capacity limits).
    pub fn run_threaded<E: ConcurrentKvStore>(
        &self,
        engine: &E,
        workload: &Workload,
        threads: usize,
    ) -> ThreadedRunResult {
        self.run_threaded_batched(engine, workload, threads, 1)
    }

    /// [`Runner::run_threaded`] with client-side write batching: each
    /// client buffers write-class operations (updates, inserts, deletes,
    /// the write half of RMWs) into a [`WriteBatch`] and submits it via
    /// [`ConcurrentKvStore::apply_batch`] once `batch_size` entries have
    /// accumulated (reads and scans are issued immediately). With
    /// `batch_size <= 1` this is exactly the per-op model.
    ///
    /// Semantics: batched writes are *write-behind* — a read issued while
    /// writes are still buffered does not see them. YCSB's write-class
    /// operations are blind, so the measured mixes are unaffected, but
    /// recency-skewed reads (YCSB-D) may miss freshly inserted keys; the
    /// correctness of `apply_batch` itself is pinned by the differential
    /// and property-test suites, which chunk op streams with
    /// read-your-writes flushes.
    ///
    /// Accounting: a batch's simulated latency is charged once to the
    /// submitting client's closed-loop clock, and to the shards it
    /// touched proportionally to each shard's share of the batch entries
    /// (the engine applies one serial group per shard; the proportional
    /// split attributes the group-commit amortisation to the shards that
    /// earned it). Batched writes always count as exclusive shard work.
    ///
    /// # Panics
    ///
    /// Panics if the engine returns an error or `threads` is zero.
    pub fn run_threaded_batched<E: ConcurrentKvStore>(
        &self,
        engine: &E,
        workload: &Workload,
        threads: usize,
        batch_size: usize,
    ) -> ThreadedRunResult {
        assert!(threads > 0, "at least one client thread is required");
        let batch_size = batch_size.max(1);
        let spec = Workload {
            record_count: self.config.record_count,
            ..workload.clone()
        };

        // Load phase: sequential inserts, one thread.
        let load_stream = spec.stream(self.config.seed);
        for op in load_stream.load_ops() {
            Self::apply_shared(engine, &op).expect("load phase must not fail");
        }

        // Warm-up phase: all threads, no accounting.
        let warmup_per_thread = self.config.warmup_ops / threads as u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let spec = &spec;
                let seed = Self::thread_seed(self.config.seed, t, 1);
                scope.spawn(move || {
                    let mut stream = spec.stream(seed);
                    for _ in 0..warmup_per_thread {
                        let op = stream.next().expect("stream is infinite");
                        Self::apply_shared(engine, &op).expect("warm-up must not fail");
                    }
                });
            }
        });

        // Measured phase. Two shard-work tallies are kept: `shard_all`
        // charges every operation to its shard (the serialise-everything
        // model), `shard_excl` charges only operations that need exclusive
        // access. Engines with reader-writer shard locks are bounded by
        // the latter; mutex-per-shard engines by the former.
        let ops_per_thread = (self.config.measure_ops / threads as u64).max(1);
        let shard_count = engine.shard_count().max(1);
        let shard_all: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(0)).collect();
        let shard_excl: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(0)).collect();
        let concurrent_reads = engine.concurrent_reads();
        let bg_start = engine.background_worker_times();
        let read_serial_start = engine.shard_read_serial_times();
        let start_stats = engine.stats();
        let started = std::time::Instant::now();
        let mut client_clocks: Vec<Nanos> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let spec = &spec;
                let shard_all = &shard_all;
                let shard_excl = &shard_excl;
                let seed = Self::thread_seed(self.config.seed, t, 2);
                handles.push(scope.spawn(move || {
                    let mut stream = spec.stream(seed);
                    let mut clock = 0u64;
                    // Pending client-side write batch and the shard of
                    // each buffered entry (parallel to the batch).
                    let mut batch = WriteBatch::with_capacity(batch_size);
                    let mut batch_shard_ops: Vec<u64> = vec![0; shard_count];
                    let flush = |batch: &mut WriteBatch,
                                 batch_shard_ops: &mut Vec<u64>,
                                 clock: &mut u64| {
                        if batch.is_empty() {
                            return;
                        }
                        let entries = batch.len() as u64;
                        let latency = engine
                            .apply_batch(std::mem::take(batch))
                            .expect("batched writes must not fail")
                            .as_nanos();
                        *clock += latency;
                        // Charge each shard its proportional share of
                        // the batch's serial work; writes are always
                        // exclusive.
                        for (s, count) in batch_shard_ops.iter_mut().enumerate() {
                            if *count == 0 {
                                continue;
                            }
                            let share = latency * *count / entries;
                            shard_all[s].fetch_add(share, Ordering::Relaxed);
                            shard_excl[s].fetch_add(share, Ordering::Relaxed);
                            *count = 0;
                        }
                    };
                    for _ in 0..ops_per_thread {
                        let op = stream.next().expect("stream is infinite");
                        let shard = engine.shard_of(op.key());
                        if batch_size > 1 {
                            // Buffer write-class work; RMW reads fall
                            // through to the immediate path below.
                            let buffered = match &op {
                                Op::Update(key, value) | Op::Insert(key, value) => {
                                    batch.put(key.clone(), value.clone());
                                    true
                                }
                                Op::Delete(key) => {
                                    batch.delete(key.clone());
                                    true
                                }
                                Op::ReadModifyWrite(key, value) => {
                                    let read = engine
                                        .get(key)
                                        .expect("rmw read must not fail")
                                        .latency
                                        .as_nanos();
                                    clock += read;
                                    shard_all[shard].fetch_add(read, Ordering::Relaxed);
                                    if !concurrent_reads {
                                        shard_excl[shard].fetch_add(read, Ordering::Relaxed);
                                    }
                                    batch.put(key.clone(), value.clone());
                                    true
                                }
                                Op::Read(_) | Op::Scan(_, _) => false,
                            };
                            if buffered {
                                batch_shard_ops[shard] += 1;
                                if batch.len() >= batch_size {
                                    flush(&mut batch, &mut batch_shard_ops, &mut clock);
                                }
                                continue;
                            }
                        }
                        let is_scan = matches!(op, Op::Scan(_, _));
                        let is_read = matches!(op, Op::Read(_));
                        let latency = Self::apply_shared(engine, &op)
                            .expect("measured ops must not fail")
                            .as_nanos();
                        clock += latency;
                        // Reads and scans only hold shard read locks on a
                        // concurrent-reads engine: they overlap with each
                        // other, so they do not add to serial shard work.
                        let exclusive = !(concurrent_reads && (is_read || is_scan));
                        if is_scan {
                            // A cross-partition scan holds several shard
                            // locks at once; its time cannot be overlapped
                            // with work on any shard it may lock.
                            for s in engine.shards_for_scan(op.key()) {
                                shard_all[s].fetch_add(latency, Ordering::Relaxed);
                                if exclusive {
                                    shard_excl[s].fetch_add(latency, Ordering::Relaxed);
                                }
                            }
                        } else {
                            shard_all[shard].fetch_add(latency, Ordering::Relaxed);
                            if exclusive {
                                shard_excl[shard].fetch_add(latency, Ordering::Relaxed);
                            }
                        }
                    }
                    flush(&mut batch, &mut batch_shard_ops, &mut clock);
                    Nanos::from_nanos(clock)
                }));
            }
            for handle in handles {
                client_clocks.push(handle.join().expect("client thread panicked"));
            }
        });
        let wall = started.elapsed();

        // Makespan lower bound: no schedule can finish before the busiest
        // closed-loop client, the busiest (serial) shard, or the busiest
        // background compaction worker.
        let busiest = |work: &[AtomicU64]| {
            work.iter()
                .map(|w| Nanos::from_nanos(w.load(Ordering::Relaxed)))
                .fold(Nanos::ZERO, Nanos::max)
        };
        let busiest_client = client_clocks.iter().copied().fold(Nanos::ZERO, Nanos::max);
        let bg_end = engine.background_worker_times();
        let background_time = bg_end
            .iter()
            .enumerate()
            .map(|(i, end)| end.saturating_sub(bg_start.get(i).copied().unwrap_or(Nanos::ZERO)))
            .fold(Nanos::ZERO, Nanos::max);
        let floor = busiest_client.max(background_time);
        // Concurrent-reads engines exclude reads from serial shard work,
        // but a slice of every read still serialises inside the shard
        // (the engine reports it per shard); add each shard's measured
        // residue before taking the max, so a coarse internal cache
        // (one sub-shard) correctly caps read scaling while a sharded
        // one frees it. The residue is a subset of read latency already
        // charged to `shard_all`, so the serialise-everything tally is
        // left untouched.
        let read_serial_end = if concurrent_reads {
            engine.shard_read_serial_times()
        } else {
            Vec::new()
        };
        let busiest_excl = shard_excl
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let residue = read_serial_end
                    .get(i)
                    .copied()
                    .unwrap_or(Nanos::ZERO)
                    .saturating_sub(read_serial_start.get(i).copied().unwrap_or(Nanos::ZERO));
                Nanos::from_nanos(w.load(Ordering::Relaxed)) + residue
            })
            .fold(Nanos::ZERO, Nanos::max);
        let elapsed = floor.max(busiest_excl);
        let elapsed_serial_reads = floor.max(busiest(&shard_all));
        let measured_ops = ops_per_thread * threads as u64;
        ThreadedRunResult {
            engine: engine.engine_name().to_string(),
            workload: spec.name.clone(),
            threads,
            batch_size,
            measured_ops,
            throughput_kops: if elapsed.is_zero() {
                0.0
            } else {
                measured_ops as f64 / elapsed.as_secs_f64() / 1_000.0
            },
            elapsed,
            elapsed_serial_reads,
            background_time,
            wall,
            stats: engine.stats().delta_since(&start_stats),
        }
    }
}

/// The outcome of driving one engine through the async submission
/// front-end with many multiplexed logical clients.
///
/// Produced by [`Runner::run_async_frontend`]. Unlike the
/// thread-per-client model there is no per-client clock: logical clients
/// spend most of their life waiting in queues by design, so the makespan
/// is bounded by whoever actually does the work — the busiest executor
/// thread, the busiest engine shard, or the busiest background
/// compaction worker.
#[derive(Debug, Clone)]
pub struct AsyncRunResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Number of multiplexed logical clients (each keeps one op in
    /// flight).
    pub logical_clients: usize,
    /// Number of front-end executor threads.
    pub executors: usize,
    /// Total operations measured across all logical clients.
    pub measured_ops: u64,
    /// Aggregate throughput in thousands of operations per simulated
    /// second (total ops divided by [`AsyncRunResult::elapsed`]).
    pub throughput_kops: f64,
    /// Simulated makespan of the measured phase:
    /// `max(busiest executor, busiest shard's serial work, busiest
    /// background compaction worker)`.
    pub elapsed: Nanos,
    /// Simulated time consumed by the busiest executor thread.
    pub busiest_executor: Nanos,
    /// Serial work of the busiest engine shard (front-end-charged).
    pub busiest_shard: Nanos,
    /// Simulated time of the jobs the busiest background compaction
    /// worker installed during the measured phase (zero for inline
    /// engines).
    pub background_time: Nanos,
    /// Real wall-clock time of the measured phase (informational).
    pub wall: std::time::Duration,
    /// Engine statistics accumulated during the measured phase.
    pub stats: EngineStats,
    /// Front-end statistics accumulated during the measured phase
    /// (coalesce width, queue depths, back-pressure rejections).
    pub frontend: FrontendStats,
}

/// One logical client's in-flight request, polled by the driver thread.
enum InFlight {
    Idle,
    /// Rejected with back-pressure: retry this op on the next pass.
    Retry(Op),
    Write(WriteTicket),
    Read(ReadTicket),
    Scan(ScanTicket),
    /// The read half of an RMW finished next submits the write half.
    RmwRead(ReadTicket, Key, Value),
    RmwWrite(WriteTicket),
}

impl Runner {
    /// Drive `engine` through a [`Frontend`] with `logical_clients`
    /// closed-loop clients multiplexed on **one** submitter OS thread,
    /// serviced by `executors` executor threads.
    ///
    /// Each logical client keeps exactly one operation in flight: the
    /// driver round-robins over the clients, submitting via the
    /// non-blocking `try_submit` path (a back-pressure rejection parks
    /// the op until the next pass — exactly how an async server sheds
    /// load) and polling tickets without blocking. Because hundreds of
    /// clients share a few executors, writes pile up in the partition
    /// queues between drains and the front-end coalesces them into
    /// group commits — the client-visible effect this experiment
    /// measures.
    ///
    /// The simulated makespan is `max(busiest executor, busiest shard,
    /// busiest background worker)`: executor clocks accumulate the
    /// simulated time of the groups they install and the reads they
    /// answer, shard clocks accumulate each shard's serial (write) work,
    /// and background workers are unchanged from
    /// [`Runner::run_threaded`]. There is no busiest-client term — the
    /// whole point of the front-end is that client scheduling stops
    /// being the bottleneck.
    ///
    /// # Panics
    ///
    /// Panics if the engine returns an operation error, or if
    /// `logical_clients` or `executors` is zero.
    pub fn run_async_frontend<E: ConcurrentKvStore + 'static>(
        &self,
        engine: Arc<E>,
        workload: &Workload,
        logical_clients: usize,
        executors: usize,
    ) -> AsyncRunResult {
        assert!(logical_clients > 0, "at least one logical client");
        assert!(executors > 0, "at least one executor");
        let spec = Workload {
            record_count: self.config.record_count,
            ..workload.clone()
        };

        // Load phase: sequential inserts directly on the engine.
        for op in spec.stream(self.config.seed).load_ops() {
            Self::apply_shared(&*engine, &op).expect("load phase must not fail");
        }

        let frontend = Frontend::start(
            Arc::clone(&engine),
            FrontendOptions {
                executors,
                // Queues must be able to hold the whole client population
                // of a partition, or closed-loop clients would serialise
                // on back-pressure instead of multiplexing.
                queue_capacity: logical_clients.max(64),
            },
        )
        .expect("valid frontend options");

        // Warm-up phase: same multiplexed model, not measured.
        let warmup_per_client = (self.config.warmup_ops / logical_clients as u64).max(1);
        Self::drive_clients(
            &frontend,
            &spec,
            self.config.seed,
            1,
            logical_clients,
            warmup_per_client,
        );

        // Phase boundary: the high-water gauge is cumulative, and the
        // measured row must not inherit warm-up queue spikes.
        frontend.reset_max_queue_depth();
        let frontend_start = frontend.stats();
        let exec_start = frontend.executor_times();
        let shard_start = frontend.shard_serial_times();
        let bg_start = engine.background_worker_times();
        let start_stats = engine.stats();
        let started = std::time::Instant::now();

        let ops_per_client = (self.config.measure_ops / logical_clients as u64).max(1);
        Self::drive_clients(
            &frontend,
            &spec,
            self.config.seed,
            2,
            logical_clients,
            ops_per_client,
        );
        let wall = started.elapsed();

        let busiest_delta = |now: &[Nanos], then: &[Nanos]| {
            now.iter()
                .enumerate()
                .map(|(i, t)| t.saturating_sub(then.get(i).copied().unwrap_or(Nanos::ZERO)))
                .fold(Nanos::ZERO, Nanos::max)
        };
        let busiest_executor = busiest_delta(&frontend.executor_times(), &exec_start);
        let busiest_shard = busiest_delta(&frontend.shard_serial_times(), &shard_start);
        let background_time = busiest_delta(&engine.background_worker_times(), &bg_start);
        let elapsed = busiest_executor.max(busiest_shard).max(background_time);
        let measured_ops = ops_per_client * logical_clients as u64;
        AsyncRunResult {
            engine: engine.engine_name().to_string(),
            workload: spec.name.clone(),
            logical_clients,
            executors,
            measured_ops,
            throughput_kops: if elapsed.is_zero() {
                0.0
            } else {
                measured_ops as f64 / elapsed.as_secs_f64() / 1_000.0
            },
            elapsed,
            busiest_executor,
            busiest_shard,
            background_time,
            wall,
            stats: engine.stats().delta_since(&start_stats),
            frontend: frontend.stats().delta_since(frontend_start),
        }
    }

    /// Submit one op for a logical client, preferring the non-blocking
    /// `try_submit` path; a back-pressure rejection parks the op as
    /// [`InFlight::Retry`]. Scans and the (rare) op kinds without a `try`
    /// variant use the blocking path — with queues sized to the client
    /// population they do not actually block.
    fn submit_async<E: ConcurrentKvStore + 'static>(frontend: &Frontend<E>, op: Op) -> InFlight {
        let backpressured = |err: &PrismError| matches!(err, PrismError::Backpressure { .. });
        match op {
            Op::Read(ref key) => match frontend.try_submit_get(key) {
                Ok(ticket) => InFlight::Read(ticket),
                Err(ref err) if backpressured(err) => InFlight::Retry(op),
                Err(err) => panic!("async submit must not fail: {err}"),
            },
            Op::Update(ref key, ref value) | Op::Insert(ref key, ref value) => {
                match frontend.try_submit_put(key, value) {
                    Ok(ticket) => InFlight::Write(ticket),
                    Err(ref err) if backpressured(err) => InFlight::Retry(op),
                    Err(err) => panic!("async submit must not fail: {err}"),
                }
            }
            Op::Delete(ref key) => match frontend.try_submit_delete(key) {
                Ok(ticket) => InFlight::Write(ticket),
                Err(ref err) if backpressured(err) => InFlight::Retry(op),
                Err(err) => panic!("async submit must not fail: {err}"),
            },
            Op::ReadModifyWrite(ref key, ref value) => match frontend.try_submit_get(key) {
                Ok(ticket) => InFlight::RmwRead(ticket, key.clone(), value.clone()),
                Err(ref err) if backpressured(err) => InFlight::Retry(op),
                Err(err) => panic!("async submit must not fail: {err}"),
            },
            Op::Scan(ref key, count) => InFlight::Scan(
                frontend
                    .submit_scan(key, count)
                    .expect("async scan submit must not fail"),
            ),
        }
    }

    /// Round-robin `clients` logical clients to completion on the calling
    /// OS thread: submit via `try_submit` (back-pressured ops retry on the
    /// next pass), poll tickets non-blocking, issue `ops_per_client`
    /// operations each.
    fn drive_clients<E: ConcurrentKvStore + 'static>(
        frontend: &Frontend<E>,
        spec: &Workload,
        seed: u64,
        phase: u64,
        clients: usize,
        ops_per_client: u64,
    ) {
        let mut streams: Vec<OpStream> = (0..clients)
            .map(|c| spec.stream(Self::thread_seed(seed, c, phase)))
            .collect();
        let mut in_flight: Vec<InFlight> = (0..clients).map(|_| InFlight::Idle).collect();
        // Ops still to *complete* per client (an op counts when its final
        // ticket resolves, so the RMW write half belongs to the same op).
        let mut remaining: Vec<u64> = vec![ops_per_client; clients];
        let mut open = clients;
        while open > 0 {
            let mut progressed = false;
            for c in 0..clients {
                if remaining[c] == 0 {
                    continue;
                }
                // One op of this client just completed: count it and, if
                // the client still has budget, issue its next op.
                let completed_one =
                    |remaining: &mut Vec<u64>, open: &mut usize, streams: &mut Vec<OpStream>| {
                        remaining[c] -= 1;
                        if remaining[c] == 0 {
                            *open -= 1;
                            return InFlight::Idle;
                        }
                        let op = streams[c].next().expect("stream is infinite");
                        Self::submit_async(frontend, op)
                    };
                let (next, did) = match std::mem::replace(&mut in_flight[c], InFlight::Idle) {
                    InFlight::Idle => {
                        let op = streams[c].next().expect("stream is infinite");
                        let next = Self::submit_async(frontend, op);
                        let accepted = !matches!(next, InFlight::Retry(_));
                        (next, accepted)
                    }
                    InFlight::Retry(op) => {
                        let next = Self::submit_async(frontend, op);
                        let accepted = !matches!(next, InFlight::Retry(_));
                        (next, accepted)
                    }
                    InFlight::Write(mut ticket) => match ticket.poll() {
                        Some(result) => {
                            result.expect("async write must not fail");
                            (completed_one(&mut remaining, &mut open, &mut streams), true)
                        }
                        None => (InFlight::Write(ticket), false),
                    },
                    InFlight::RmwWrite(mut ticket) => match ticket.poll() {
                        Some(result) => {
                            result.expect("async rmw write must not fail");
                            (completed_one(&mut remaining, &mut open, &mut streams), true)
                        }
                        None => (InFlight::RmwWrite(ticket), false),
                    },
                    InFlight::Read(mut ticket) => match ticket.poll() {
                        Some(result) => {
                            result.expect("async read must not fail");
                            (completed_one(&mut remaining, &mut open, &mut streams), true)
                        }
                        None => (InFlight::Read(ticket), false),
                    },
                    InFlight::Scan(mut ticket) => match ticket.poll() {
                        Some(result) => {
                            result.expect("async scan must not fail");
                            (completed_one(&mut remaining, &mut open, &mut streams), true)
                        }
                        None => (InFlight::Scan(ticket), false),
                    },
                    InFlight::RmwRead(mut ticket, key, value) => match ticket.poll() {
                        Some(result) => {
                            result.expect("async rmw read must not fail");
                            // The write half; back-pressure re-parks it as
                            // a plain update (the read half already ran).
                            match frontend.try_submit_put(&key, &value) {
                                Ok(write) => (InFlight::RmwWrite(write), true),
                                Err(PrismError::Backpressure { .. }) => {
                                    (InFlight::Retry(Op::Update(key, value)), true)
                                }
                                Err(err) => panic!("async submit must not fail: {err}"),
                            }
                        }
                        None => (InFlight::RmwRead(ticket, key, value), false),
                    },
                };
                in_flight[c] = next;
                progressed |= did;
            }
            if !progressed {
                // Every client is waiting on an executor: give the
                // executor threads the core.
                std::thread::yield_now();
            }
        }
    }
}

impl RunResult {
    /// Latency summary for one operation kind (zeroes if that kind never
    /// ran).
    pub fn kind(&self, kind: OpKind) -> KindLatency {
        self.per_kind.get(&kind).copied().unwrap_or_default()
    }

    /// Fraction of found reads served without touching flash.
    pub fn fast_read_ratio(&self) -> f64 {
        self.stats.fast_read_ratio()
    }

    /// A percentile (0.0–1.0) of the measured per-operation latencies, in
    /// microseconds, read from the shared log-bucketed histogram (the
    /// estimate is within one bucket — ×√2 — of the exact order
    /// statistic; see [`RunResult::latency_hist`]).
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        hist_percentile_us(&self.latency_hist, p.clamp(0.0, 1.0))
    }

    /// The exact sorted-vec percentile in µs, kept as the oracle the
    /// histogram-backed [`RunResult::latency_percentile_us`] is
    /// regression-tested against.
    pub fn oracle_percentile_us(&self, p: f64) -> f64 {
        if self.read_latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((self.read_latencies_us.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.read_latencies_us[idx.min(self.read_latencies_us.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;
    use prism_workloads::Workload;

    #[test]
    fn percentiles_are_monotone() {
        let sorted = vec![100, 200, 300, 400, 1_000_000];
        assert!(percentile(&sorted, 0.5) <= percentile(&sorted, 0.99));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// Old-vs-new regression: the reported (histogram-bucketed)
    /// percentiles must agree with the sorted-vec oracle within one
    /// bucket's relative error — the oracle value lies inside the
    /// reported bucket's bounds, and the midpoint estimate is within ×√2.
    #[test]
    fn histogram_percentiles_match_sorted_oracle_within_one_bucket() {
        let runner = Runner::new(RunConfig::quick(1_500));
        let mut db = engines::prismdb(1_500);
        let cost = db.cost_per_gb();
        let result = runner.run(&mut db, &Workload::ycsb_b(1_500), cost);
        assert_eq!(
            result.latency_hist.count() as usize,
            result.read_latencies_us.len(),
            "every measured op must be in the histogram"
        );
        for q in [0.10, 0.50, 0.90, 0.99, 0.999] {
            let oracle_us = result.oracle_percentile_us(q);
            let reported_us = result.latency_percentile_us(q);
            let (lo, hi) = result.latency_hist.percentile_bounds(q);
            let oracle_ns = (oracle_us * 1_000.0).round() as u64;
            assert!(
                lo <= oracle_ns && oracle_ns <= hi,
                "q={q}: oracle {oracle_ns}ns outside reported bucket [{lo}, {hi}]"
            );
            assert!(
                reported_us >= oracle_us / 1.45 && reported_us <= oracle_us * 1.45,
                "q={q}: reported {reported_us}us vs oracle {oracle_us}us exceeds one-bucket error"
            );
        }
        // The overall p50/p99 fields come from the same histogram.
        assert_eq!(result.p50_us, result.latency_percentile_us(0.50));
        assert_eq!(result.p99_us, result.latency_percentile_us(0.99));
    }

    #[test]
    fn threaded_run_measures_aggregate_throughput() {
        let runner = Runner::new(RunConfig::quick(1_000));
        let db = engines::prismdb(1_000);
        let result = runner.run_threaded(&db, &Workload::ycsb_c(1_000), 2);
        assert_eq!(result.threads, 2);
        assert!(result.measured_ops >= 1_000);
        assert!(result.throughput_kops > 0.0);
        assert!(result.elapsed > prism_types::Nanos::ZERO);
        assert!(result.stats.reads_found() > 0);
        assert_eq!(result.engine, "prismdb");
    }

    #[test]
    fn windows_split_the_measurement() {
        let config = RunConfig::quick(800).with_windows(4);
        let runner = Runner::new(config);
        let mut db = engines::prismdb(800);
        let cost = db.cost_per_gb();
        let result = runner.run(&mut db, &Workload::ycsb_b(800), cost);
        assert_eq!(result.windows.len(), 4);
        assert!(result.windows.iter().all(|w| w.throughput_kops >= 0.0));
        assert!(result.kind(prism_types::OpKind::Read).count > 0);
        assert!(result.latency_percentile_us(0.9) >= result.latency_percentile_us(0.1));
    }
}
