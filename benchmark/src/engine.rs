//! The three engine workloads: one thread calling `PrismDb` directly, in a
//! closed loop, with every result checked against the oracle.

use std::sync::Arc;
use std::time::Instant;

use prism_db::{CacheStats, PrismDb};
use prism_lsm::{LsmConfig, LsmTree};
use prism_types::{ConcurrentKvStore, EngineStats, Nanos, Op, ReadSource};
use prism_workloads::OpStream;

use crate::budget::{self, substrate_rows, Row};
use crate::measure::{summarize, trace_overhead_pct, ClientLog};
use crate::oracle::Oracle;
use crate::probes::ProbeInput;
use crate::spec::{Outcome, Spec, SEGMENTS, SETUP_REPEATS};
use crate::stats::{mean, median, percentile_of, vm_hwm_mb};
use crate::trace::{SpanName, Tracer};

/// Simulated CPU time the engine charges a DRAM-hit get: `request_overhead`
/// + `index_op` + `dram_hit` + `tracker_op` of `prism_storage::CpuCosts`.
const DRAM_HIT_CHARGE_NS: f64 = 1_400.0;

/// A loaded, warmed-up engine and the model of what it holds.
struct Ready {
    db: Arc<PrismDb>,
    stream: OpStream,
    oracle: Oracle,
}

/// Open, load every key, and run the warm-up ops (unmeasured, but their
/// writes enter the oracle).
fn set_up(spec: &Spec, seed: u64) -> Ready {
    let db = Arc::new(PrismDb::open(spec.options(None)).expect("options are valid"));
    let mut stream = spec.ycsb().stream(seed);
    let mut oracle = Oracle::default();
    let load: Vec<Op> = stream.load_ops().collect();
    for op in load.into_iter().chain(stream.by_ref().take(spec.warm_ops)) {
        match op {
            Op::Read(key) => drop(db.get(&key).expect("warm-up read")),
            Op::Scan(key, count) => drop(db.scan(&key, count).expect("warm-up scan")),
            Op::Update(key, value) | Op::Insert(key, value) => {
                oracle.put(&key, &value);
                db.put(key, value)
                    .expect("load and warm-up writes fit the tiers");
            }
            Op::ReadModifyWrite(..) | Op::Delete(..) => unreachable!("not in YCSB A, B, C or E"),
        }
    }
    Ready { db, stream, oracle }
}

/// Set up [`SETUP_REPEATS`] times (each from scratch, the previous engine
/// dropped first) and keep the last; returns it with the median set-up time.
pub fn set_up_repeatedly<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(set_up());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        ready.expect("SETUP_REPEATS is at least one"),
        median(&times),
    )
}

/// `(total wall ns, calls)` of gets, by the tier `Lookup::source` names:
/// DRAM, NVM, flash.
#[derive(Default)]
pub struct GetTimes([(u64, u64); 3]);

impl GetTimes {
    pub fn record(&mut self, source: ReadSource, wall_ns: u64) {
        let slot = match source {
            ReadSource::Dram => 0,
            ReadSource::Nvm => 1,
            ReadSource::Flash => 2,
            ReadSource::NotFound => return,
        };
        self.0[slot].0 += wall_ns;
        self.0[slot].1 += 1;
    }

    /// Gets served by each tier.
    pub fn counts(&self) -> [u64; 3] {
        self.0.map(|(_, calls)| calls)
    }

    /// Set `core.get_*_ns` and the model check built on the DRAM-hit mean.
    pub fn report(&self, out: &mut Outcome) {
        let [dram, nvm, flash] = self.0.map(|(ns, calls)| mean(ns, calls));
        out.set("core.get_dram_ns", dram);
        out.set("core.get_nvm_ns", nvm);
        out.set("core.get_flash_ns", flash);
        out.set("core.sim_cpu_charge_ratio", dram / DRAM_HIT_CHARGE_NS);
    }
}

/// Wall time of the engine calls of the measured phase, split the ways the
/// per-layer metrics need.
#[derive(Default)]
struct CallTimes {
    gets: GetTimes,
    scan: (u64, u64),
    puts: Vec<u64>,
}

/// Run `ops` measured ops of a warmed-up engine. With a tracer, the phase
/// is cut into twice as many segments and every second one records spans,
/// so one run yields both sides of `trace.overhead_pct`.
fn measure(
    ready: &mut Ready,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
) -> (ClientLog, CallTimes) {
    let Ready {
        db, stream, oracle, ..
    } = ready;
    let segments = if tracer.is_some() {
        2 * SEGMENTS
    } else {
        SEGMENTS
    };
    let per_segment = ops.div_ceil(segments);
    let mut log = ClientLog::default();
    let mut calls = CallTimes::default();
    let mut req = 0u64;
    for segment in 0..segments {
        let tracing = tracer.is_some() && segment % 2 == 1;
        let in_segment = per_segment.min(ops - (req as usize).min(ops));
        let segment_start = log.start_segment(in_segment, tracing);
        for _ in 0..in_segment {
            let drawn_at = Instant::now();
            let op = stream.next().expect("the stream is endless");
            log.attempted += 1;
            let (called_at, returned_at, span, ok) = match op {
                Op::Read(key) => {
                    let t0 = Instant::now();
                    let result = db.get(&key);
                    let t1 = Instant::now();
                    let ok = match result {
                        Ok(lookup) => {
                            log.sim_read.push(lookup.latency.as_nanos());
                            calls
                                .gets
                                .record(lookup.source, (t1 - t0).as_nanos() as u64);
                            oracle.check_get(&key, lookup.value.as_ref())
                        }
                        Err(_) => false,
                    };
                    (t0, t1, SpanName::CoreGet, ok)
                }
                Op::Scan(key, count) => {
                    let t0 = Instant::now();
                    let result = db.scan(&key, count);
                    let t1 = Instant::now();
                    calls.scan.0 += (t1 - t0).as_nanos() as u64;
                    calls.scan.1 += 1;
                    let ok = match result {
                        Ok(scan) => {
                            log.sim_read.push(scan.latency.as_nanos());
                            oracle.check_scan(&key, count, &scan.entries)
                        }
                        Err(_) => false,
                    };
                    (t0, t1, SpanName::CoreScan, ok)
                }
                Op::Update(key, value) | Op::Insert(key, value) => {
                    let (put_key, put_value) = (key.clone(), value.clone());
                    let t0 = Instant::now();
                    let result = db.put(put_key, put_value);
                    let t1 = Instant::now();
                    calls.puts.push((t1 - t0).as_nanos() as u64);
                    let ok = match result {
                        Ok(latency) => {
                            log.sim_write.push(latency.as_nanos());
                            oracle.put(&key, &value);
                            true
                        }
                        Err(_) => false,
                    };
                    (t0, t1, SpanName::CorePut, ok)
                }
                Op::ReadModifyWrite(..) | Op::Delete(..) => {
                    unreachable!("not in YCSB A, B, C or E")
                }
            };
            log.failed += !ok as u64;
            log.sample((returned_at - called_at).as_nanos() as u64);
            if tracing {
                let tracer = tracer.as_deref_mut().expect("tracing implies a tracer");
                let request = Some(SpanName::Request);
                tracer.span(req, SpanName::WorkloadsNextOp, request, drawn_at, called_at);
                tracer.span(req, span, request, called_at, returned_at);
                tracer.span(req, SpanName::Request, None, drawn_at, Instant::now());
            }
            req += 1;
        }
        log.finish_segment(segment_start);
    }
    (log, calls)
}

/// Crash, recover, and re-read every key the oracle holds: an acknowledged
/// write that is missing or stale afterwards is a failed op.
pub fn crash_and_verify(db: &PrismDb, oracles: &[&Oracle], out: &mut Outcome) {
    let started = Instant::now();
    let sim = db.crash_and_recover();
    out.set(
        "core.recover_wall_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    out.set("core.recover_sim_ms", sim.as_nanos() as f64 / 1e6);
    for oracle in oracles {
        for id in oracle.live_ids() {
            let key = prism_types::Key::from_id(id);
            let intact = db
                .get(&key)
                .is_ok_and(|lookup| oracle.check_get(&key, lookup.value.as_ref()));
            out.attempted += 1;
            out.failed += !intact as u64;
        }
    }
}

/// The engine's cumulative counters when the measured phase starts.
pub struct Baseline {
    stats: EngineStats,
    cache: CacheStats,
}

impl Baseline {
    pub fn of(db: &PrismDb) -> Baseline {
        Baseline {
            stats: db.stats(),
            cache: db.dram_cache_stats(),
        }
    }
}

/// The metrics read from the engine's public counters over the measured
/// phase (`before` → now) and from its state at the end of it.
pub fn engine_counters(db: &PrismDb, before: &Baseline, live_bytes: u64, out: &mut Outcome) {
    let stats = db.stats().delta_since(&before.stats);
    out.set("fast_read_ratio", stats.fast_read_ratio());
    out.set("flash_write_amp", stats.flash_write_amplification());
    let storage = db.storage();
    let stored = storage.nvm.used_bytes() + storage.flash.used_bytes();
    out.set("space_amp", stored as f64 / live_bytes.max(1) as f64);

    out.set("storage.nvm_reads", stats.nvm_io.reads as f64);
    out.set("storage.nvm_writes", stats.nvm_io.writes as f64);
    out.set("storage.nvm_bytes_read", stats.nvm_io.bytes_read as f64);
    out.set(
        "storage.nvm_bytes_written",
        stats.nvm_io.bytes_written as f64,
    );
    out.set("storage.flash_reads", stats.flash_io.reads as f64);
    out.set("storage.flash_writes", stats.flash_io.writes as f64);
    out.set("storage.flash_bytes_read", stats.flash_io.bytes_read as f64);
    out.set(
        "storage.flash_bytes_written",
        stats.flash_io.bytes_written as f64,
    );
    out.set("nvm.utilization", db.nvm_utilization());
    out.set("nvm.object_count", db.nvm_object_count() as f64);
    out.set("flash.object_count", db.flash_object_count() as f64);
    // `PrismDb` does not expose its sorted log; the file count is what the
    // flash tier's allocated bytes come to at the SST target size.
    out.set(
        "flash.file_count",
        storage
            .flash
            .used_bytes()
            .div_ceil(db.options().sst_target_bytes) as f64,
    );
    let clocks = db.clock_histogram();
    let tracked = clocks.iter().sum::<u64>().max(1) as f64;
    for (name, count) in [
        "tracker.clock0_frac",
        "tracker.clock1_frac",
        "tracker.clock2_frac",
        "tracker.clock3_frac",
    ]
    .into_iter()
    .zip(clocks)
    {
        out.set(name, count as f64 / tracked);
    }

    let compaction = stats.compaction;
    out.set("compaction.jobs", compaction.jobs as f64);
    out.set(
        "compaction.sim_busy_ms",
        compaction.total_time.as_nanos() as f64 / 1e6,
    );
    out.set(
        "compaction.sim_stall_ms",
        compaction.stall_time.as_nanos() as f64 / 1e6,
    );
    out.set(
        "compaction.demoted_objects",
        compaction.demoted_objects as f64,
    );
    out.set(
        "compaction.promoted_objects",
        compaction.promoted_objects as f64,
    );
    out.set(
        "compaction.flash_bytes_per_demoted_object",
        mean(stats.flash_io.bytes_written, compaction.demoted_objects),
    );
    // Exact: total ÷ jobs. (The registry's `engine_compaction_job_ns`
    // histogram is fed by background workers only, and compaction is inline.)
    out.set(
        "compaction.job_sim_us_mean",
        mean(compaction.total_time.as_nanos(), compaction.jobs) / 1e3,
    );

    out.set("core.reads_dram", stats.reads_from_dram as f64);
    out.set("core.reads_nvm", stats.reads_from_nvm as f64);
    out.set("core.reads_flash", stats.reads_from_flash as f64);
    out.set("core.reads_not_found", stats.reads_not_found as f64);
    let cache = db.dram_cache_stats();
    let hits = cache.hits - before.cache.hits;
    out.set(
        "core.cache_hit_rate",
        mean(hits, hits + cache.misses - before.cache.misses),
    );
}

/// Run one engine workload: `ops` measured ops from `seed`.
pub fn run(spec: &Spec, seed: u64, ops: usize, traced: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let (mut ready, setup_s) = set_up_repeatedly(|| set_up(spec, seed));
    out.set("setup_s", setup_s);

    let before = Baseline::of(&ready.db);
    let mut tracer = traced.then(Tracer::default);
    let (log, mut calls) = measure(&mut ready, ops, tracer.as_mut());
    let mut logs = [log];
    out.set("trace.overhead_pct", trace_overhead_pct(&logs));
    summarize(&mut logs, &mut out);

    engine_counters(&ready.db, &before, ready.oracle.live_bytes(), &mut out);
    calls.gets.report(&mut out);
    out.set("core.scan_ns", mean(calls.scan.0, calls.scan.1));
    out.set(
        "core.put_ns",
        mean(calls.puts.iter().sum(), calls.puts.len() as u64),
    );
    out.set(
        "core.put_wall_p999_us",
        percentile_of(&mut calls.puts, 0.999) as f64 / 1e3,
    );
    // The puts that ran a compaction inline are the slowest ones: as many
    // of them as there were jobs.
    let jobs = (out.get("compaction.jobs") as usize).min(calls.puts.len());
    let slowest = &calls.puts[calls.puts.len() - jobs..];
    out.set(
        "compaction.trigger_put_wall_us",
        mean(slowest.iter().sum(), jobs as u64) / 1e3,
    );

    crash_and_verify(&ready.db, &[&ready.oracle], &mut out);

    if let Some(tracer) = &tracer {
        out.set("trace.spans", tracer.span_count() as f64);
        let next_op = tracer.total(SpanName::WorkloadsNextOp);
        out.set("workloads.gen_ns_per_op", next_op.mean_ns());
        // The probes replay the stream from its start: load-free, so a
        // fresh stream with the same seed yields the same ops.
        let mut replay = spec.ycsb().stream(seed);
        for (name, value) in ProbeInput::draw(&mut replay, spec.warm_ops + ops).run() {
            out.set(name, value);
        }
        if spec.workload == crate::catalog::W::TierWriteA {
            lsm_baseline(spec, seed, ops, &mut out);
        }
        let [dram, nvm, flash] = calls.gets.counts();
        let per_op = |count: u64| count as f64 / ops.max(1) as f64;
        let row = |call, count: u64, metric: &str| Row {
            call,
            per_op: per_op(count),
            ns_per_call: out.get(metric),
        };
        let mut rows = vec![
            row("workloads.next_op", ops as u64, "workloads.gen_ns_per_op"),
            row("core.get (dram)", dram, "core.get_dram_ns"),
            row("core.get (nvm)", nvm, "core.get_nvm_ns"),
            row("core.get (flash)", flash, "core.get_flash_ns"),
            row("core.put", calls.puts.len() as u64, "core.put_ns"),
            row("core.scan", calls.scan.1, "core.scan_ns"),
        ];
        rows.extend(substrate_rows(&out, ops.max(1) as f64));
        budget::print(spec.workload.name(), &out, &rows);
    }
    out.set("peak_rss_mb", vm_hwm_mb());
    (out, tracer)
}

/// Share of the measured ops the LSM baseline replays.
const LSM_OPS_SHARE: usize = 5;

/// The multi-tier LSM baseline (`LsmConfig::het`, 1/6 NVM) on the first
/// fifth of the same measured ops: keeps the paper's headline ratio in
/// view, so that a slower baseline can never pass for a gain.
fn lsm_baseline(spec: &Spec, seed: u64, ops: usize, out: &mut Outcome) {
    // `LsmTree` is driven through the single-threaded trait; in scope only
    // here, because `PrismDb` implements both and the calls would clash.
    use prism_types::KvStore;
    let mut lsm = LsmTree::open(LsmConfig::het(spec.keys, 1.0 / 6.0)).expect("a valid config");
    let mut stream = spec.ycsb().stream(seed);
    let load: Vec<Op> = stream.load_ops().collect();
    for op in load.into_iter().chain(stream.by_ref().take(spec.warm_ops)) {
        match op {
            Op::Read(key) => drop(lsm.get(&key).expect("baseline read")),
            Op::Update(key, value) | Op::Insert(key, value) => {
                lsm.put(key, value).expect("baseline write");
            }
            _ => unreachable!("tier_write_a is reads and updates"),
        }
    }
    let before = lsm.stats();
    let mut sim_total = Nanos::ZERO;
    let mut sim_reads = Vec::new();
    let replayed = ops / LSM_OPS_SHARE;
    for op in stream.take(replayed) {
        sim_total += match op {
            Op::Read(key) => {
                let latency = lsm.get(&key).expect("baseline read").latency;
                sim_reads.push(latency.as_nanos());
                latency
            }
            Op::Update(key, value) | Op::Insert(key, value) => {
                lsm.put(key, value).expect("baseline write")
            }
            _ => unreachable!("tier_write_a is reads and updates"),
        };
    }
    let stats = lsm.stats().delta_since(&before);
    out.set(
        "lsm.sim_kops",
        replayed as f64 / (sim_total.as_nanos().max(1) as f64 / 1e9) / 1e3,
    );
    out.set(
        "lsm.sim_read_p99_us",
        percentile_of(&mut sim_reads, 0.99) as f64 / 1e3,
    );
    out.set("lsm.flash_write_amp", stats.flash_write_amplification());
}
