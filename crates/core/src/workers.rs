//! The compaction driver: one pipeline, two ways of dispatching it.
//!
//! Every compaction in the engine goes through this module. The *trigger*
//! ([`EngineShared::compact_if_due`]) runs under the partition's write
//! guard after a read-side drain and after a write's mutation: a due
//! promotion raises a promotion request, utilisation at or above the high
//! watermark raises a demotion request. The *dispatcher* then either
//! enqueues the request (`Options::compaction_workers > 0`: a pool worker
//! picks it up, the write returns, and only a write that reaches
//! `Options::backpressure_ceiling` stalls) or runs it on the calling thread
//! under the guard it already holds (`compaction_workers == 0`, the paper's
//! write stalls). Either way the request is served by the same
//! [`DemotionRun`] escalation and the same job runner ([`run_job`]: *plan →
//! execute → install*, the partition's `busy_until` chain, the
//! `engine_compaction_job_ns` histogram and the `compaction.*` trace
//! events), and the foreground stall is the same rule: wait until
//! `busy_until`, charge it once.
//!
//! No foreground path waits on a worker or a timer. A write that needs
//! space now — its slab has no room, or a pool has let utilisation reach
//! the ceiling — runs the urgent escalation on its own thread
//! ([`EngineShared::reclaim`]) under the partition's write guard.
//!
//! A pool worker locks the partition only for the plan and install phases.
//! At most one worker operates on a given partition at a time, so pool jobs
//! for a partition are serialised. What can still land between a pool
//! job's plan and its install — a write reclaiming space on its own thread,
//! or crash recovery — installs into the partition's sorted log and so
//! moves its generation, and a job installs only if the generation it was
//! planned against still stands.
//!
//! Virtual-time accounting mirrors the real thread structure: the
//! scheduler keeps one clock per worker, and each job is charged to the
//! clock of the worker that installed it. The busiest worker's clock
//! becomes the third term of the benchmark harness's makespan lower bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use prism_compaction::{execute_job, CompactionJob, JobKind};
use prism_obs::trace::category;
use prism_types::{EngineStatsCells, Nanos, PrismError, Result};

use crate::engine::{count, EngineShared};
use crate::partition::{CompactionOutcome, Partition, Reclaim};

/// A request for background work on one partition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRequest {
    /// Partition to work on.
    pub partition: usize,
    /// What to do.
    pub kind: RequestKind,
    /// Foreground virtual time when the request was raised.
    pub trigger_fg: Nanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestKind {
    /// Free NVM space (watermark tripped).
    Demote,
    /// Read-triggered promotion compaction.
    Promote,
    /// Integrity scrub walk (corruption detected, or periodic repair).
    Scrub,
}

struct SchedState {
    /// Requests in arrival order, at most one per `(partition, kind)`.
    queue: VecDeque<JobRequest>,
    /// Partitions a worker is serving (at most one worker each).
    busy: Vec<bool>,
    /// Workers waiting in [`Scheduler::next_request`].
    parked: u64,
    shutdown: bool,
}

/// Steady-cadence scrubber state: a foreground-operation counter that
/// paces scrub requests and a round-robin cursor over partitions so every
/// partition gets scrubbed in turn.
#[derive(Debug, Default)]
struct ScrubCadence {
    ops: AtomicU64,
    next_partition: AtomicU64,
}

/// The pool's one queue: any idle worker takes the oldest request whose
/// partition no other worker holds.
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    /// Wakes one parked worker: a request was queued or a partition freed.
    work_cv: Condvar,
    /// Simulated time of the jobs each worker installed, in nanoseconds.
    clocks: Vec<AtomicU64>,
    scrub: ScrubCadence,
}

impl Scheduler {
    pub(crate) fn new(partitions: usize, workers: usize) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                busy: vec![false; partitions],
                parked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            clocks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            scrub: ScrubCadence::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue a request unless one for the same partition and kind is
    /// already queued. The queue's entries of the engine's table —
    /// `queue_depth`, its high-water mark and `enqueued_jobs` (counted
    /// after dedup: the batched write path's regression tests pin "at most
    /// one demotion enqueue per touched partition per batch" against it) —
    /// move under the queue's lock, here and in
    /// [`Scheduler::next_request`].
    pub(crate) fn enqueue(&self, req: JobRequest, stats: &EngineStatsCells) {
        let mut state = self.lock();
        let same = |r: &JobRequest| r.partition == req.partition && r.kind == req.kind;
        if state.shutdown || state.queue.iter().any(same) {
            return;
        }
        state.queue.push_back(req);
        let stats = &stats.compaction;
        let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        stats.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        count(&stats.enqueued_jobs, 1);
        self.work_cv.notify_one();
    }

    /// Block until a request for a partition no other worker holds is
    /// queued, and take the oldest; `None` on shutdown.
    fn next_request(&self, stats: &EngineStatsCells) -> Option<JobRequest> {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(pos) = state.queue.iter().position(|r| !state.busy[r.partition]) {
                let req = state.queue.remove(pos).expect("position just found");
                state.busy[req.partition] = true;
                stats.compaction.queue_depth.fetch_sub(1, Ordering::Relaxed);
                return Some(req);
            }
            state.parked += 1;
            state = self.work_cv.wait(state).unwrap_or_else(|p| p.into_inner());
            state.parked -= 1;
        }
    }

    /// Free a partition its worker is done with, and wake a worker if a
    /// request for that partition waited on it.
    fn finish(&self, partition: usize) {
        let mut state = self.lock();
        state.busy[partition] = false;
        if state.queue.iter().any(|r| r.partition == partition) {
            self.work_cv.notify_one();
        }
    }

    /// Number of worker threads currently parked in [`Scheduler::next_request`].
    pub(crate) fn parked_workers(&self) -> u64 {
        self.lock().parked
    }

    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Cumulative virtual time per background worker: the durations of the
    /// jobs each one installed. The clocks only sum work; the order of one
    /// partition's jobs lives on that partition's `busy_until` timeline.
    pub(crate) fn worker_times(&self) -> Vec<Nanos> {
        let load = |c: &AtomicU64| Nanos::from_nanos(c.load(Ordering::Relaxed));
        self.clocks.iter().map(load).collect()
    }
}

/// One rung of the demotion escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DemotionPlan {
    /// The best-scoring sampled range, unpopular objects only.
    Natural,
    /// The best-scoring sampled range, ignoring popularity pins.
    Forced,
    /// The whole key space, ignoring popularity pins.
    Everything,
}

impl DemotionPlan {
    fn label(self) -> &'static str {
        match self {
            DemotionPlan::Natural => "kind=demote",
            DemotionPlan::Forced => "kind=forced-demote",
            DemotionPlan::Everything => "kind=forced-demote-everything",
        }
    }
}

/// The one demotion escalation, as a steppable state: ask it for the
/// [`next plan`](DemotionRun::next_plan), run that, tell it the
/// [`outcome`](DemotionRun::note_outcome).
///
/// A run is a sequence of rounds. A round climbs the ladder until a job
/// demotes something: an empty plan, or one whose victims were all
/// rewritten underneath it, counts as "demoted 0" and escalates. The run
/// ends once utilisation is at or below the low watermark, once a round's
/// last rung demoted nothing, or when its rounds run out.
///
/// * A *watermark* run (utilisation reached the high watermark) climbs
///   natural → forced, for at most 128 rounds after the first.
/// * An *urgent* run (a write cannot proceed until space exists) skips the
///   natural plan and climbs forced → everything; if 8 forced rounds did
///   not reach the low watermark it finishes with everything.
#[derive(Debug)]
pub(crate) struct DemotionRun {
    urgent: bool,
    rounds: u32,
    next: Option<DemotionPlan>,
}

impl DemotionRun {
    pub(crate) fn new(urgent: bool) -> Self {
        DemotionRun {
            urgent,
            rounds: 0,
            next: Some(Self::first(urgent)),
        }
    }

    /// The rung every round starts on.
    fn first(urgent: bool) -> DemotionPlan {
        if urgent {
            DemotionPlan::Forced
        } else {
            DemotionPlan::Natural
        }
    }

    /// The plan to run next; `None` once the run is over.
    pub(crate) fn next_plan(&self) -> Option<DemotionPlan> {
        self.next
    }

    /// Record what the plan just handed out demoted and whether that left
    /// utilisation at or below the low watermark.
    pub(crate) fn note_outcome(&mut self, demoted: u64, at_low_watermark: bool) {
        let plan = self.next.expect("an outcome follows a plan");
        self.next = if demoted == 0 {
            // Climb one rung; falling off the ladder ends the run.
            match plan {
                DemotionPlan::Natural => Some(DemotionPlan::Forced),
                DemotionPlan::Forced if self.urgent => Some(DemotionPlan::Everything),
                _ => None,
            }
        } else {
            self.rounds += 1;
            if at_low_watermark || plan == DemotionPlan::Everything {
                None
            } else if self.rounds == if self.urgent { 8 } else { 129 } {
                self.urgent.then_some(DemotionPlan::Everything)
            } else {
                Some(Self::first(self.urgent))
            }
        };
    }
}

/// Where a request is served.
enum Site<'a> {
    /// On the thread that raised it, under the write guard it holds.
    Caller(&'a mut Partition),
    /// On pool worker `w`, which takes the partition's lock for the plan
    /// and install phases only, so the foreground interleaves with the
    /// job's merge.
    Worker(usize),
}

/// Run `f` on the partition a request is being served against.
fn with_partition<R>(
    shared: &EngineShared,
    idx: usize,
    site: &mut Site<'_>,
    f: impl FnOnce(&mut Partition) -> R,
) -> R {
    match site {
        Site::Caller(p) => f(p),
        Site::Worker(_) => f(&mut shared.write_partition(idx)),
    }
}

/// The one job runner: plan, execute and install a single compaction job,
/// chain it onto the partition's background timeline and record it. The
/// only caller of [`execute_job`] and [`Partition::install_compaction`].
///
/// Returns the outcome — an empty plan is a job that moved nothing — or
/// `None` if the partition discarded the job at install (its sorted log
/// installed since the plan), which only a pool worker can see.
fn run_job(
    shared: &EngineShared,
    idx: usize,
    site: &mut Site<'_>,
    label: &'static str,
    plan: impl FnOnce(&mut Partition) -> Option<CompactionJob>,
) -> Result<Option<CompactionOutcome>> {
    let Some(job) = with_partition(shared, idx, site, plan) else {
        return Ok(Some(CompactionOutcome::default()));
    };
    let (trace, part, job_id) = (
        shared.obs.trace(),
        Some(idx as u32),
        shared.obs.next_job_id(),
    );
    trace.record(category::COMPACTION_PLAN, part, job_id, label);
    let trigger = job.trigger_fg;
    // A job overlaps foreground service unless its caller stalls for it:
    // pool jobs do, and so do promotions run on the caller (they only
    // extend the background timeline).
    let overlapped = matches!(site, Site::Worker(_)) || job.kind == JobKind::Promotion;
    trace.record(
        category::COMPACTION_EXECUTE,
        part,
        job_id,
        "executing planned job",
    );
    let exec = execute_job(job, &shared.storage.cpu, &shared.storage.flash);
    let installed = with_partition(shared, idx, site, |p| {
        let installed = p.install_compaction(exec)?;
        if let Some(outcome) = &installed {
            p.chain_background(trigger, outcome.duration, overlapped);
        }
        Ok(installed)
    })?;
    match &installed {
        Some(outcome) => {
            shared
                .obs
                .compaction_job
                .record(outcome.duration.as_nanos());
            trace.record(
                category::COMPACTION_INSTALL,
                part,
                job_id,
                format!(
                    "demoted={} promoted={} duration_ns={}",
                    outcome.demoted,
                    outcome.promoted,
                    outcome.duration.as_nanos()
                ),
            );
        }
        None => {
            trace.record(
                category::COMPACTION_DISCARD,
                part,
                job_id,
                "the sorted log installed since the plan",
            );
        }
    }
    if let Site::Worker(w) = site {
        let sched = shared.scheduler();
        match &installed {
            Some(outcome) => {
                let clock = &sched.clocks[*w];
                clock.fetch_add(outcome.duration.as_nanos(), Ordering::Relaxed);
            }
            None => count(&shared.stats.compaction.install_discards, 1),
        }
    }
    Ok(installed)
}

/// Serve a demotion request: step `run` until it is over. A discarded job
/// ends the run early — the partition changed underneath it, and the
/// worker loop's watermark re-check asks again against the new state.
fn run_demotion(
    shared: &EngineShared,
    idx: usize,
    trigger: Nanos,
    mut run: DemotionRun,
    site: &mut Site<'_>,
) -> Result<()> {
    while let Some(plan) = run.next_plan() {
        let planner = |p: &mut Partition| p.plan_demotion(plan, trigger);
        let Some(outcome) = run_job(shared, idx, site, plan.label(), planner)? else {
            break;
        };
        let utilization = with_partition(shared, idx, site, |p| p.nvm_utilization());
        run.note_outcome(outcome.demoted, utilization <= shared.options.low_watermark);
    }
    Ok(())
}

/// Serve one compaction request.
fn run_request(shared: &EngineShared, req: JobRequest, site: &mut Site<'_>) -> Result<()> {
    let (idx, trigger) = (req.partition, req.trigger_fg);
    match req.kind {
        RequestKind::Demote => run_demotion(shared, idx, trigger, DemotionRun::new(false), site),
        RequestKind::Promote => {
            let planner = |p: &mut Partition| p.plan_promotion(trigger);
            run_job(shared, idx, site, "kind=promote", planner).map(drop)
        }
        RequestKind::Scrub => {
            debug_assert!(matches!(site, Site::Worker(_)), "scrubs are queued");
            run_scrub(shared, req);
            Ok(())
        }
    }
}

/// The trigger, the dispatcher and the foreground's side of back-pressure.
impl EngineShared {
    /// Apply one foreground write of `ops` logical operations under the
    /// held write guard `p`, in the order the simulated clock depends on:
    /// read-side drain (and any promotion it made due), the mutation, the
    /// watermark check at `fg + accrued cost`, then the read/write-ratio
    /// bookkeeping and the clock advance. Returns the charged latency.
    pub(crate) fn write_held(
        &self,
        idx: usize,
        p: &mut Partition,
        ops: usize,
        mutate: impl FnOnce(&mut Partition, Reclaim<'_>) -> Result<Nanos>,
    ) -> Result<Nanos> {
        self.drain_held(idx, p)?;
        let mut cost = mutate(p, &mut |p: &mut Partition, accrued| {
            self.reclaim(idx, p, accrued)
        })?;
        cost += self.compact_if_due(idx, p, cost, true)?;
        p.finish_write(ops, cost);
        Ok(cost)
    }

    /// Apply buffered read-side state under the held write guard and raise
    /// the promotion request it may have made due.
    pub(crate) fn drain_held(&self, idx: usize, p: &mut Partition) -> Result<()> {
        p.apply_read_side();
        self.compact_if_due(idx, p, Nanos::ZERO, false).map(drop)
    }

    /// The one compaction trigger: promotion due → request it; the caller
    /// `grew` NVM and utilisation is at or above the high watermark →
    /// request demotion. `accrued` positions the caller on the foreground
    /// timeline (`fg + accrued`). Returns the stall the caller owes.
    fn compact_if_due(
        &self,
        idx: usize,
        p: &mut Partition,
        accrued: Nanos,
        grew: bool,
    ) -> Result<Nanos> {
        let trigger_fg = p.fg() + accrued;
        let request = |kind| JobRequest {
            partition: idx,
            kind,
            trigger_fg,
        };
        if p.take_promotion() {
            self.dispatch(request(RequestKind::Promote), p)?;
        }
        if grew && p.nvm_utilization() >= self.options.high_watermark {
            return self.dispatch(request(RequestKind::Demote), p);
        }
        Ok(Nanos::ZERO)
    }

    /// The dispatcher: with a pool the request is enqueued and the caller
    /// owes nothing yet (see [`EngineShared::hold_at_ceiling`]); without
    /// one it runs right here under the caller's guard, and a caller that
    /// asked for space waits for it — until `busy_until`, charged once.
    /// Promotions only extend the background timeline.
    fn dispatch(&self, req: JobRequest, p: &mut Partition) -> Result<Nanos> {
        if let Some(sched) = &self.sched {
            sched.enqueue(req, &self.stats);
            return Ok(Nanos::ZERO);
        }
        run_request(self, req, &mut Site::Caller(p))?;
        Ok(match req.kind {
            RequestKind::Demote => p.stall_until_idle(req.trigger_fg),
            _ => Nanos::ZERO,
        })
    }

    /// A write cannot proceed until NVM space exists: free it with an
    /// urgent demotion run on this thread, under the guard the write holds
    /// — in either mode, because a batch group that unlocked to wait for
    /// the pool would give up its per-partition atomicity. A job the pool
    /// planned before this run installs no more once the run installs one
    /// of its own. Returns the stall, charged like any other wait for
    /// space.
    pub(crate) fn reclaim(&self, idx: usize, p: &mut Partition, accrued: Nanos) -> Result<Nanos> {
        let now = p.fg() + accrued;
        p.note_backpressure_stall();
        run_demotion(self, idx, now, DemotionRun::new(true), &mut Site::Caller(p))?;
        Ok(p.stall_until_idle(now))
    }

    /// The foreground's side of back-pressure, called after a write has
    /// released its guard(s). Only a pool leaves anything to do here: its
    /// demotion request may still be queued or running. A write that left
    /// utilisation at or above `Options::backpressure_ceiling` does not
    /// wait for a worker: under the partition's write guard it re-checks
    /// and, still at the ceiling, frees the space on its own thread
    /// ([`EngineShared::reclaim`]); if another thread freed it first, the
    /// write is charged the wait for the partition's background timeline —
    /// until `busy_until`, once. Returns the stall charged.
    pub(crate) fn hold_at_ceiling(&self, idx: usize) -> Result<Nanos> {
        let ceiling = self.options.backpressure_ceiling;
        if self.sched.is_none() || self.read_partition(idx).nvm_utilization() < ceiling {
            return Ok(Nanos::ZERO);
        }
        let mut p = self.write_partition(idx);
        let utilization = p.nvm_utilization();
        let stall = if utilization >= ceiling {
            let detail = format!("util={utilization:.3}");
            let trace = self.obs.trace();
            trace.record(category::BACKPRESSURE, Some(idx as u32), 0, detail);
            self.reclaim(idx, &mut p, Nanos::ZERO)?
        } else {
            let now = p.fg();
            let stall = p.stall_until_idle(now);
            if !stall.is_zero() {
                p.note_backpressure_stall();
            }
            stall
        };
        p.advance_fg(stall);
        Ok(stall)
    }

    /// Ask the pool for a scrub slice of partition `idx` (the response to
    /// detected corruption). Without a pool nothing is queued: callers
    /// scrub explicitly via `PrismDb::scrub`.
    pub(crate) fn request_scrub(&self, idx: usize) {
        if let Some(sched) = &self.sched {
            let trigger_fg = self.read_partition(idx).fg();
            let req = JobRequest {
                partition: idx,
                kind: RequestKind::Scrub,
                trigger_fg,
            };
            sched.enqueue(req, &self.stats);
        }
    }

    /// Steady scrubber cadence: every `Options::scrub_interval_ops`
    /// foreground operations, queue one scrub slice for the next partition
    /// in round-robin order — but only when the pool's queue is idle, so
    /// scrubbing spends spare background budget and never queues ahead of
    /// (or behind) demotion work the foreground is waiting on. The idle
    /// check runs *after* the interval fires: a busy pool slips that
    /// interval's scrub entirely rather than accumulating debt. There is
    /// no cadence without a pool.
    pub(crate) fn tick_scrub_cadence(&self) {
        let interval = self.options.scrub_interval_ops;
        let Some(sched) = &self.sched else {
            return;
        };
        if interval == 0 {
            return;
        }
        let n = sched.scrub.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let queued = self.stats.compaction.queue_depth.load(Ordering::Relaxed);
        if n % interval != 0 || queued != 0 {
            return;
        }
        let turn = sched.scrub.next_partition.fetch_add(1, Ordering::Relaxed);
        self.request_scrub((turn % self.options.num_partitions as u64) as usize);
    }
}

/// Run one budgeted scrub slice and keep the pass going: a parked cursor
/// (budget exhausted mid-walk) or a completed pass that still found
/// corruption re-enqueues, so the partition keeps scrubbing until a full
/// pass comes back clean (which re-arms a degraded partition).
fn run_scrub(shared: &EngineShared, req: JobRequest) {
    let budget = shared.options.scrub_io_budget_bytes.max(1);
    let report = shared.scrub_pass_traced(req.partition, budget);
    if !report.completed || report.corrupt_found > 0 {
        shared.request_scrub(req.partition);
    }
}

/// Frees a partition (and wakes a worker waiting on it) when dropped, so
/// even a panicking job cannot leave the partition permanently marked busy
/// — which would silently disable background compaction for it.
struct FinishGuard<'a> {
    sched: &'a Scheduler,
    partition: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.sched.finish(self.partition);
    }
}

/// Main loop of background worker `worker`. A job that fails (an injected
/// I/O error) fails as it would on the caller, which gets the error back:
/// the worker counts and traces it, drops the request and keeps serving.
pub(crate) fn worker_loop(shared: Arc<EngineShared>, worker: usize) {
    let sched = shared.scheduler();
    while let Some(req) = sched.next_request(&shared.stats) {
        let finish = FinishGuard {
            sched,
            partition: req.partition,
        };
        if let Err(err) = run_request(&shared, req, &mut Site::Worker(worker)) {
            if matches!(err, PrismError::Io(_)) {
                count(&shared.stats.integrity.io_errors, 1);
            }
            let (trace, part) = (shared.obs.trace(), Some(req.partition as u32));
            let detail = format!("{:?} request dropped: {err}", req.kind);
            trace.record(category::COMPACTION_FAILED, part, 0, detail);
        }
        drop(finish);
        // Requests raised while this partition was in flight were deduped
        // away, and a failed job freed nothing; re-check the watermark so
        // pressure is never dropped.
        let (util, fg) = {
            let p = shared.read_partition(req.partition);
            (p.nvm_utilization(), p.fg())
        };
        if util >= shared.options.high_watermark {
            let req = JobRequest {
                partition: req.partition,
                kind: RequestKind::Demote,
                trigger_fg: fg,
            };
            sched.enqueue(req, &shared.stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use super::*;
    use prism_storage::{DeviceProfile, TieredStorage};
    use prism_types::{BatchOp, Key, MetricKind, Value};

    use crate::Options;

    fn demote(partition: usize) -> JobRequest {
        JobRequest {
            partition,
            kind: RequestKind::Demote,
            trigger_fg: Nanos::ZERO,
        }
    }

    /// Spin until `workers` workers are parked. Reaching the count is the
    /// assertion: `parked` dips on (possibly spurious) condvar wakeups, so
    /// an equality re-read afterwards would be racy.
    fn wait_parked(sched: &Scheduler, workers: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.parked_workers() < workers {
            assert!(Instant::now() < deadline, "{workers} workers must park");
            std::thread::yield_now();
        }
    }

    /// A worker thread of `sched` that takes one request and returns it.
    fn spawn_worker(
        sched: &Arc<Scheduler>,
        stats: &Arc<EngineStatsCells>,
    ) -> JoinHandle<Option<JobRequest>> {
        let (sched, stats) = (Arc::clone(sched), Arc::clone(stats));
        std::thread::spawn(move || sched.next_request(&stats))
    }

    /// Join `worker` once it has returned, failing after five seconds.
    fn join_within(worker: JoinHandle<Option<JobRequest>>) -> Option<JobRequest> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !worker.is_finished() {
            assert!(Instant::now() < deadline, "the worker must return");
            std::thread::yield_now();
        }
        worker.join().expect("worker thread")
    }

    /// An idle worker parks, and shutdown releases it with `None`.
    #[test]
    fn an_idle_worker_parks_and_shutdown_releases_it() {
        let sched = Arc::new(Scheduler::new(4, 1));
        let worker = spawn_worker(&sched, &Arc::new(EngineStatsCells::default()));
        wait_parked(&sched, 1);
        sched.shutdown();
        assert!(join_within(worker).is_none(), "released empty");
    }

    /// A request for a partition another worker holds waits in the queue,
    /// and that worker's `finish` hands it to a parked worker. The parked
    /// worker spends the enqueue's one wake finding the partition busy
    /// (given the 50 ms to do so), so only `finish`'s own wake can deliver
    /// the request.
    #[test]
    fn a_request_for_a_held_partition_is_taken_after_its_finish() {
        let sched = Arc::new(Scheduler::new(4, 2));
        let stats = Arc::new(EngineStatsCells::default());
        sched.enqueue(demote(0), &stats);
        let held = sched.next_request(&stats).expect("partition 0 is free");
        let worker = spawn_worker(&sched, &stats);
        wait_parked(&sched, 1);
        sched.enqueue(demote(0), &stats);
        std::thread::sleep(Duration::from_millis(50));
        assert!(!worker.is_finished(), "partition 0 is held");
        sched.finish(held.partition);
        let taken = join_within(worker).expect("finish wakes the parked worker");
        assert_eq!(taken.partition, 0);
        assert_eq!(stats.compaction.queue_depth.load(Ordering::Relaxed), 0);
    }

    /// A request equal in partition and kind to a queued one is dropped
    /// and not counted; once taken, the same request queues again.
    #[test]
    fn a_duplicate_request_is_queued_and_counted_once() {
        let (sched, stats) = (Scheduler::new(2, 1), EngineStatsCells::default());
        let promote = JobRequest {
            kind: RequestKind::Promote,
            ..demote(0)
        };
        for req in [demote(0), demote(0), promote, promote, demote(1)] {
            sched.enqueue(req, &stats);
        }
        let counted = || stats.compaction.enqueued_jobs.load(Ordering::Relaxed);
        let queued = || stats.compaction.queue_depth.load(Ordering::Relaxed);
        assert_eq!((counted(), queued()), (3, 3));
        let taken = sched.next_request(&stats).expect("queued");
        assert_eq!((taken.partition, taken.kind), (0, RequestKind::Demote));
        sched.enqueue(demote(0), &stats);
        assert_eq!((counted(), queued()), (4, 3));
    }

    /// An engine whose `partitions` partitions hold 64 keys each, and
    /// whose scheduler has `workers` clocks but no threads.
    fn loaded_shared(partitions: usize, workers: usize) -> Arc<EngineShared> {
        let mut options = Options::scaled_default(1_000);
        options.num_partitions = partitions;
        options.compaction_workers = workers;
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(options.nvm_capacity_bytes),
            DeviceProfile::qlc_flash(options.flash_capacity_bytes),
        );
        let shared = Arc::new(EngineShared::new(options, storage).unwrap());
        let weak = Arc::downgrade(&shared);
        shared.obs.hub.registry.set_engine_source(Box::new(move || {
            weak.upgrade().map(|shared| shared.stats_snapshot())
        }));
        for idx in 0..partitions {
            let mut p = shared.write_partition(idx);
            for id in 0..64 {
                let mut no_reclaim = |_: &mut Partition, _| unreachable!("the slabs have room");
                let put = BatchOp::Put(Key::from_id(id), Value::filled(100, 1));
                let seq = shared.seq.allocate();
                p.apply_group(vec![put], seq, &mut no_reclaim).unwrap();
            }
        }
        shared
    }

    /// Each job is charged to the clock of the worker that installed it,
    /// by exactly its duration.
    #[test]
    fn each_worker_clock_counts_the_jobs_it_installed() {
        let shared = loaded_shared(2, 2);
        let everything = |p: &mut Partition| p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
        let run = |idx, worker| {
            let outcome = run_job(&shared, idx, &mut Site::Worker(worker), "test", everything);
            let duration = outcome.unwrap().expect("installed").duration;
            assert!(!duration.is_zero(), "partition {idx} demotes its keys");
            duration
        };
        let clocks = || shared.scheduler().worker_times();
        let first = run(0, 1);
        assert_eq!(clocks(), [Nanos::ZERO, first]);
        let second = run(1, 1);
        assert_eq!(clocks(), [Nanos::ZERO, first + second]);
        // A job run on its caller is charged to no worker.
        let on_caller = {
            let mut p = shared.write_partition(0);
            let put = BatchOp::Put(Key::from_id(0), Value::filled(100, 2));
            let seq = shared.seq.allocate();
            let mut no_reclaim = |_: &mut Partition, _| unreachable!("the slabs have room");
            p.apply_group(vec![put], seq, &mut no_reclaim).unwrap();
            run_job(&shared, 0, &mut Site::Caller(&mut p), "test", everything)
        };
        assert!(on_caller.unwrap().expect("installed").demoted > 0);
        assert_eq!(clocks(), [Nanos::ZERO, first + second]);
    }

    /// A job run on its caller overlaps foreground service only if it is a
    /// promotion: a demotion is waited for, so it adds nothing to
    /// `overlap_time`; a promotion only extends the background timeline, so
    /// it adds exactly its duration.
    #[test]
    fn a_caller_run_promotion_overlaps_and_a_caller_run_demotion_does_not() {
        let shared = loaded_shared(1, 0);
        let overlap = || shared.stats.compaction.overlap_time.load(Ordering::Relaxed);
        let mut p = shared.write_partition(0);
        let everything = |p: &mut Partition| p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
        let demotion = run_job(&shared, 0, &mut Site::Caller(&mut p), "test", everything);
        assert_eq!(demotion.unwrap().expect("installed").demoted, 64);
        assert_eq!(overlap(), 0, "a caller-run demotion stalls its caller");

        // Reading keys on flash heats their clocks, so a promotion picks them.
        for id in 0..8 {
            p.get_with_pressure(&Key::from_id(id)).unwrap();
        }
        let fg = p.fg();
        let promote = |p: &mut Partition| p.plan_promotion(fg);
        let promotion = run_job(&shared, 0, &mut Site::Caller(&mut p), "test", promote);
        let promotion = promotion.unwrap().expect("installed");
        assert!(promotion.promoted > 0, "the read keys are popular on flash");
        assert_eq!(overlap(), promotion.duration.as_nanos());
    }

    /// With a pool that serves nothing, a write that leaves its partition
    /// at the back-pressure ceiling frees the space on its own thread: it
    /// returns at or below the low watermark, counted and traced once,
    /// charged the wait until the partition's background timeline is idle.
    #[test]
    fn a_write_at_the_ceiling_reclaims_on_its_own_thread() {
        let shared = loaded_shared(1, 1);
        let ceiling = shared.options.backpressure_ceiling;
        let compaction = &shared.stats.compaction;
        let stalls = || compaction.backpressure_stalls.load(Ordering::Relaxed);
        let mut id = 64;
        loop {
            let put = BatchOp::Put(Key::from_id(id), Value::filled(100, 1));
            let seq = shared.seq.allocate();
            let mut p = shared.write_partition(0);
            let held = shared.write_held(0, &mut p, 1, |p, reclaim| {
                p.apply_group(vec![put], seq, reclaim)
            });
            held.unwrap();
            if p.nvm_utilization() >= ceiling {
                break;
            }
            drop(p);
            assert_eq!(shared.hold_at_ceiling(0).unwrap(), Nanos::ZERO);
            id += 1;
        }
        assert_eq!(stalls(), 0, "no write has waited for space yet");
        let fg = shared.read_partition(0).fg();

        let stall = shared.hold_at_ceiling(0).unwrap();
        let p = shared.read_partition(0);
        assert!(p.nvm_utilization() <= shared.options.low_watermark);
        assert_eq!(stalls(), 1);
        let trace = shared.obs.trace();
        assert_eq!(trace.in_category(category::BACKPRESSURE).len(), 1);
        assert!(!stall.is_zero(), "the write waits for the urgent run");
        assert_eq!(stall, p.elapsed() - fg, "until the timeline is idle");
        assert_eq!(p.fg(), fg + stall);
    }

    /// A pool job whose partition installed another job between its plan
    /// and its install is discarded, and the discard is counted in the
    /// compaction stats the registry exports.
    #[test]
    fn a_job_overtaken_before_install_is_discarded_and_counted() {
        let shared = loaded_shared(1, 1);

        // Plan job A, then plan, execute and install job B on the same
        // partition before handing A back: A's install must see B's.
        let plan_a_then_install_b = |p: &mut Partition| {
            let a = p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
            let b = p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
            let exec = execute_job(b.expect("B"), &shared.storage.cpu, &shared.storage.flash);
            assert!(p.install_compaction(exec).unwrap().is_some(), "B installs");
            a
        };
        let worker = &mut Site::Worker(0);
        let outcome = run_job(&shared, 0, worker, "test", plan_a_then_install_b);
        assert!(outcome.unwrap().is_none(), "A is discarded");
        assert_eq!(shared.scheduler().worker_times(), [Nanos::ZERO]);

        assert_eq!(shared.stats_snapshot().compaction.install_discards, 1);
        let trace = shared.obs.trace();
        assert_eq!(trace.in_category(category::COMPACTION_DISCARD).len(), 1);
        let snap = shared.obs.hub.registry.snapshot();
        let series = snap.series["engine_compaction_install_discards"];
        assert_eq!(series.value, 1);
        assert_eq!(series.kind, MetricKind::Counter);
        assert!(!series.help.is_empty());
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE engine_compaction_install_discards counter\n"));
        assert!(text.contains("# HELP engine_compaction_install_discards Compaction jobs"));
        assert!(text.contains("\nengine_compaction_install_discards 1\n"));
    }
}
