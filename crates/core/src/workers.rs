//! The compaction driver: one pipeline, two ways of dispatching it.
//!
//! Every compaction in the engine goes through this module. The *trigger*
//! ([`EngineShared::compact_if_due`]) runs under the partition's write
//! guard after a read-side drain and after a write's mutation: a due
//! promotion raises a promotion request, utilisation at or above the high
//! watermark raises a demotion request. The *dispatcher* then either
//! enqueues the request (`Options::compaction_workers > 0`: a pool worker
//! picks it up, the write returns, and the foreground only waits at
//! `Options::backpressure_ceiling`) or runs it on the calling thread under
//! the guard it already holds (`compaction_workers == 0`, the paper's
//! write stalls). Either way the request is served by the same
//! [`DemotionRun`] escalation and the same job runner ([`run_job`]: *plan →
//! execute → install*, the partition's `busy_until` chain, the
//! `engine_compaction_job_ns` histogram and the `compaction.*` trace
//! events), and the foreground stall is the same rule: wait until
//! `busy_until`, charge it once.
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
//! scheduler keeps one virtual clock per worker, and each job a worker
//! installs is tallied onto the least-loaded virtual worker. The busiest
//! virtual worker becomes the third term of the benchmark harness's
//! makespan lower bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use prism_compaction::{execute_job, CompactionJob, JobKind};
use prism_obs::trace::category;
use prism_types::{EngineStatsCells, Nanos, Result};

use crate::engine::{count, EngineShared};
use crate::partition::{CompactionOutcome, Partition, Reclaim};

/// How many background progress generations a back-pressured write waits
/// for before it stops waiting and reclaims space on its own thread.
const BACKPRESSURE_WAITS: usize = 64;
/// Bound on each individual wait, so a stuck worker can never hang the
/// foreground (the waiter re-checks and eventually compacts itself).
const WAIT_SLICE: Duration = Duration::from_millis(100);

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

/// Queued/in-flight flags per partition (dedup: at most one queued request
/// per kind, at most one worker per partition).
#[derive(Debug, Default, Clone, Copy)]
struct Pending {
    demote_queued: bool,
    promote_queued: bool,
    scrub_queued: bool,
    inflight: bool,
}

struct SchedState {
    queue: VecDeque<JobRequest>,
    pending: Vec<Pending>,
    /// Number of partitions currently being worked on.
    inflight: usize,
    shutdown: bool,
}

impl SchedState {
    /// The adaptive worker-pool target: enough workers for the demand the
    /// scheduler can see (queued requests plus in-flight jobs), clamped to
    /// `1..=workers`. Worker `w` only dequeues while `w < effective`, so a
    /// drained queue keeps surplus workers parked and a deepening queue
    /// grows the effective pool one wakeup at a time.
    fn effective_pool(&self, workers: usize) -> usize {
        (self.queue.len() + self.inflight).clamp(1, workers.max(1))
    }
}

/// Steady-cadence scrubber state: a foreground-operation counter that
/// paces scrub requests and a round-robin cursor over partitions so every
/// partition gets scrubbed in turn.
#[derive(Debug, Default)]
struct ScrubCadence {
    ops: AtomicU64,
    next_partition: AtomicU64,
}

pub(crate) struct Scheduler {
    /// Size of the configured worker pool (the adaptive ceiling).
    workers: usize,
    state: Mutex<SchedState>,
    work_cv: Condvar,
    /// Number of worker threads currently parked waiting for work (either
    /// no eligible request, or the adaptive pool target excludes them).
    parked: AtomicU64,
    /// Progress generation: bumped after every install attempt so
    /// foreground waiters (back-pressure, capacity retries) can sleep
    /// until "some background progress happened".
    generation: Mutex<u64>,
    generation_cv: Condvar,
    /// One virtual clock per worker; compaction durations are packed onto
    /// the least-loaded clock at install time.
    virtual_clocks: Mutex<Vec<Nanos>>,
    scrub: ScrubCadence,
}

impl Scheduler {
    pub(crate) fn new(partitions: usize, workers: usize) -> Self {
        Scheduler {
            workers,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                pending: vec![Pending::default(); partitions],
                inflight: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            parked: AtomicU64::new(0),
            generation: Mutex::new(0),
            generation_cv: Condvar::new(),
            virtual_clocks: Mutex::new(vec![Nanos::ZERO; workers.max(1)]),
            scrub: ScrubCadence::default(),
        }
    }

    /// Enqueue a request unless an identical one is already queued. The
    /// queue's entries of the engine's table — `queue_depth`, its
    /// high-water mark and `enqueued_jobs` (counted after dedup: the
    /// batched write path's regression tests pin "at most one demotion
    /// enqueue per touched partition per batch" against it) — move under
    /// the queue's lock, here and in [`Scheduler::next_request`].
    pub(crate) fn enqueue(&self, req: JobRequest, stats: &EngineStatsCells) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.shutdown {
            return;
        }
        let pending = &mut state.pending[req.partition];
        let already = match req.kind {
            RequestKind::Demote => pending.demote_queued,
            RequestKind::Promote => pending.promote_queued,
            RequestKind::Scrub => pending.scrub_queued,
        };
        if already {
            return;
        }
        match req.kind {
            RequestKind::Demote => pending.demote_queued = true,
            RequestKind::Promote => pending.promote_queued = true,
            RequestKind::Scrub => pending.scrub_queued = true,
        }
        state.queue.push_back(req);
        let stats = &stats.compaction;
        let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        stats.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        count(&stats.enqueued_jobs, 1);
        // A deeper queue may have grown the effective pool, making workers
        // that were adaptively parked eligible again — wake them all and
        // let `next_request`'s eligibility check sort it out.
        self.work_cv.notify_all();
    }

    /// Block until a request for a partition nobody else is working on is
    /// available *and* the adaptive pool target admits this worker;
    /// `None` on shutdown.
    fn next_request(&self, worker_id: usize, stats: &EngineStatsCells) -> Option<JobRequest> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if state.shutdown {
                return None;
            }
            if worker_id < state.effective_pool(self.workers) {
                let pos = state
                    .queue
                    .iter()
                    .position(|r| !state.pending[r.partition].inflight);
                if let Some(pos) = pos {
                    let req = state.queue.remove(pos).expect("position just found");
                    let pending = &mut state.pending[req.partition];
                    match req.kind {
                        RequestKind::Demote => pending.demote_queued = false,
                        RequestKind::Promote => pending.promote_queued = false,
                        RequestKind::Scrub => pending.scrub_queued = false,
                    }
                    pending.inflight = true;
                    state.inflight += 1;
                    let depth = &stats.compaction.queue_depth;
                    depth.fetch_sub(1, Ordering::Relaxed);
                    return Some(req);
                }
            }
            self.parked.fetch_add(1, Ordering::Relaxed);
            state = self.work_cv.wait(state).unwrap_or_else(|p| p.into_inner());
            self.parked.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Mark a partition's in-flight work finished and wake workers in
    /// case requests for that partition were skipped while it ran.
    fn finish(&self, partition: usize) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.pending[partition].inflight = false;
        state.inflight = state.inflight.saturating_sub(1);
        if state.queue.iter().any(|r| r.partition == partition) {
            self.work_cv.notify_all();
        }
    }

    /// The adaptive worker-pool target right now (see
    /// [`SchedState::effective_pool`]).
    pub(crate) fn effective_pool(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .effective_pool(self.workers)
    }

    /// Number of worker threads currently parked in [`Scheduler::next_request`].
    pub(crate) fn parked_workers(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }

    pub(crate) fn shutdown(&self) {
        {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            state.shutdown = true;
        }
        self.work_cv.notify_all();
        self.bump_generation();
    }

    pub(crate) fn generation(&self) -> u64 {
        *self.generation.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn bump_generation(&self) {
        let mut gen = self.generation.lock().unwrap_or_else(|p| p.into_inner());
        *gen += 1;
        self.generation_cv.notify_all();
    }

    /// Wait (bounded) until the progress generation moves past `seen`.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut gen = self.generation.lock().unwrap_or_else(|p| p.into_inner());
        while *gen <= seen {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .generation_cv
                .wait_timeout(gen, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            gen = guard;
        }
    }

    /// Charge `duration` of compaction work to the least-loaded virtual
    /// worker *within the adaptive pool target at install time*. The
    /// clocks are pure load tallies: with an effective pool of `k` the
    /// busiest clock approaches `total compaction work / k`, which is the
    /// schedule lower bound the benchmark harness folds into its makespan
    /// — and matches what the adaptive scaling really allows (surplus
    /// workers the demand never woke must not absorb virtual work).
    /// Partition-local ordering (jobs of one partition serialise) is
    /// expressed on the partition's own `busy_until` timeline instead —
    /// mixing per-partition virtual instants onto shared clocks would
    /// compare unsynchronised timelines.
    fn tally_virtual(&self, duration: Nanos) {
        let effective = self.effective_pool();
        let mut clocks = self
            .virtual_clocks
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let pool = effective.min(clocks.len()).max(1);
        let idx = clocks[..pool]
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("at least one virtual worker");
        clocks[idx] += duration;
    }

    /// Cumulative virtual time per background worker.
    pub(crate) fn worker_times(&self) -> Vec<Nanos> {
        self.virtual_clocks
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
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

/// Run `f` on the partition a request is being served against: the write
/// guard its caller already holds (requests run on the caller), or — for a
/// pool worker, `held` empty — the partition's lock, taken for just this
/// phase so the foreground interleaves with the job's merge.
fn with_partition<R>(
    shared: &EngineShared,
    idx: usize,
    held: &mut Option<&mut Partition>,
    f: impl FnOnce(&mut Partition) -> R,
) -> R {
    match held {
        Some(p) => f(p),
        None => f(&mut shared.write_partition(idx)),
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
    held: &mut Option<&mut Partition>,
    label: &'static str,
    plan: impl FnOnce(&mut Partition) -> Option<CompactionJob>,
) -> Result<Option<CompactionOutcome>> {
    let Some(job) = with_partition(shared, idx, held, plan) else {
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
    let overlapped = held.is_none() || job.kind == JobKind::Promotion;
    trace.record(
        category::COMPACTION_EXECUTE,
        part,
        job_id,
        "executing planned job",
    );
    let exec = execute_job(job, &shared.storage.cpu, &shared.storage.flash);
    let installed = with_partition(shared, idx, held, |p| {
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
    if held.is_none() {
        let sched = shared.scheduler();
        match &installed {
            Some(outcome) => sched.tally_virtual(outcome.duration),
            None => {
                count(&shared.stats.compaction.install_discards, 1);
            }
        }
        sched.bump_generation();
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
    held: &mut Option<&mut Partition>,
) -> Result<()> {
    while let Some(plan) = run.next_plan() {
        let planner = |p: &mut Partition| p.plan_demotion(plan, trigger);
        let Some(outcome) = run_job(shared, idx, held, plan.label(), planner)? else {
            break;
        };
        let utilization = with_partition(shared, idx, held, |p| p.nvm_utilization());
        run.note_outcome(outcome.demoted, utilization <= shared.options.low_watermark);
    }
    Ok(())
}

/// Serve one compaction request, on a pool worker (`held` empty) or on the
/// caller that raised it.
fn run_request(
    shared: &EngineShared,
    req: JobRequest,
    held: &mut Option<&mut Partition>,
) -> Result<()> {
    let (idx, trigger) = (req.partition, req.trigger_fg);
    match req.kind {
        RequestKind::Demote => run_demotion(shared, idx, trigger, DemotionRun::new(false), held),
        RequestKind::Promote => {
            let planner = |p: &mut Partition| p.plan_promotion(trigger);
            run_job(shared, idx, held, "kind=promote", planner).map(drop)
        }
        RequestKind::Scrub => {
            debug_assert!(held.is_none(), "scrubs are only ever queued");
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
        run_request(self, req, &mut Some(&mut *p))?;
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
        run_demotion(self, idx, now, DemotionRun::new(true), &mut Some(&mut *p))?;
        Ok(p.stall_until_idle(now))
    }

    /// The foreground's side of back-pressure, called after a write has
    /// released its guard(s). Only a pool leaves anything to do here: its
    /// demotion request is still queued or running, so while utilisation
    /// sits at or above `Options::backpressure_ceiling` the caller blocks
    /// (for real) until a worker makes progress, then charges the virtual
    /// wait — until `busy_until`, once. Returns the stall charged.
    pub(crate) fn hold_at_ceiling(&self, idx: usize) -> Result<Nanos> {
        let Some(sched) = &self.sched else {
            return Ok(Nanos::ZERO);
        };
        let ceiling = self.options.backpressure_ceiling;
        let (utilization, fg) = {
            let p = self.read_partition(idx);
            (p.nvm_utilization(), p.fg())
        };
        if utilization < ceiling {
            return Ok(Nanos::ZERO);
        }
        self.obs.trace().record(
            category::BACKPRESSURE,
            Some(idx as u32),
            0,
            format!("util={utilization:.3}"),
        );
        for waits in 0..=BACKPRESSURE_WAITS {
            let seen = sched.generation();
            if self.read_partition(idx).nvm_utilization() < ceiling {
                let mut p = self.write_partition(idx);
                let now = p.fg();
                let stall = p.stall_until_idle(now);
                if !stall.is_zero() {
                    p.note_backpressure_stall();
                    p.advance_fg(stall);
                }
                return Ok(stall);
            }
            let req = JobRequest {
                partition: idx,
                kind: RequestKind::Demote,
                trigger_fg: fg,
            };
            sched.enqueue(req, &self.stats);
            if waits < BACKPRESSURE_WAITS {
                sched.wait_past(seen, WAIT_SLICE);
            }
        }
        // Workers are not keeping up (or died): reclaim on this thread.
        let mut p = self.write_partition(idx);
        let stall = self.reclaim(idx, &mut p, Nanos::ZERO)?;
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
    shared.scheduler().bump_generation();
    if !report.completed || report.corrupt_found > 0 {
        shared.request_scrub(req.partition);
    }
}

/// Clears a partition's in-flight flag (and wakes waiters) when dropped,
/// so even a panicking job cannot leave the partition permanently marked
/// busy — which would silently disable background compaction for it.
struct FinishGuard<'a> {
    sched: &'a Scheduler,
    partition: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.sched.finish(self.partition);
        self.sched.bump_generation();
    }
}

/// Main loop of one background worker thread. `worker_id` feeds the
/// adaptive pool gate: low-id workers serve steady light load alone while
/// high-id workers stay parked until queue depth demands them.
pub(crate) fn worker_loop(shared: Arc<EngineShared>, worker_id: usize) {
    let sched = shared.scheduler();
    while let Some(req) = sched.next_request(worker_id, &shared.stats) {
        let finish = FinishGuard {
            sched,
            partition: req.partition,
        };
        run_request(&shared, req, &mut None)
            .expect("background install must not corrupt partition state");
        drop(finish);
        // Requests raised while this partition was in flight were deduped
        // away; re-check the watermark so pressure is never dropped.
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

    /// The adaptive pool target follows queue depth + in-flight jobs,
    /// clamped to `1..=workers`.
    #[test]
    fn effective_pool_tracks_demand() {
        let (sched, stats) = (Scheduler::new(8, 4), EngineStatsCells::default());
        let queued = || stats.compaction.queue_depth.load(Ordering::Relaxed);
        assert_eq!(sched.effective_pool(), 1, "idle pool shrinks to one");
        sched.enqueue(demote(0), &stats);
        assert_eq!(sched.effective_pool(), 1);
        sched.enqueue(demote(1), &stats);
        sched.enqueue(demote(2), &stats);
        assert_eq!(sched.effective_pool(), 3);
        for p in 3..8 {
            sched.enqueue(demote(p), &stats);
        }
        assert_eq!(sched.effective_pool(), 4, "target is clamped to workers");
        // Dequeuing keeps the in-flight jobs in the demand signal.
        let req = sched.next_request(0, &stats).expect("request available");
        assert_eq!(sched.effective_pool(), 4);
        sched.finish(req.partition);
        // Draining everything shrinks the target back to one.
        for id in 0..4 {
            while let Some(req) = {
                (queued() != 0)
                    .then(|| sched.next_request(id, &stats))
                    .flatten()
            } {
                sched.finish(req.partition);
            }
        }
        assert_eq!(queued(), 0);
        assert_eq!(sched.effective_pool(), 1);
    }

    /// With demand for a single worker, a surplus (high-id) worker parks
    /// even though the queue is non-empty, while worker 0 gets the job; a
    /// deepening queue then wakes the surplus worker.
    #[test]
    fn surplus_workers_park_until_queue_depth_demands_them() {
        let sched = Arc::new(Scheduler::new(4, 2));
        let stats = Arc::new(EngineStatsCells::default());
        sched.enqueue(demote(0), &stats);
        assert_eq!(sched.effective_pool(), 1);

        let surplus = {
            let (sched, stats) = (Arc::clone(&sched), Arc::clone(&stats));
            std::thread::spawn(move || sched.next_request(1, &stats))
        };
        // The surplus worker must park, not grab the only request. The
        // spin reaching a parked count is itself the assertion: `parked`
        // transiently dips on (possibly spurious) condvar wakeups, so an
        // equality re-read after the loop would be racy.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.parked_workers() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            Instant::now() < deadline,
            "worker 1 must park on light load"
        );
        let req = sched
            .next_request(0, &stats)
            .expect("worker 0 takes the job");
        assert_eq!(req.partition, 0);

        // Two more queued requests push the target past 1: worker 1 wakes
        // and dequeues.
        sched.enqueue(demote(1), &stats);
        sched.enqueue(demote(2), &stats);
        let woken = surplus.join().expect("surplus worker");
        assert!(woken.is_some(), "deep queue must wake the surplus worker");
        sched.finish(req.partition);
        sched.finish(woken.expect("request").partition);

        // Shutdown releases any parked worker with `None`.
        let parked = {
            let (sched, stats) = (Arc::clone(&sched), Arc::clone(&stats));
            std::thread::spawn(move || sched.next_request(1, &stats))
        };
        // (worker 1 is over the drained queue's target again, so it parks
        // until shutdown — exactly the "drained queue parks surplus
        // workers" contract.)
        while sched.parked_workers() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        sched.shutdown();
        assert!(parked.join().expect("parked worker").is_none());
    }

    /// Virtual compaction time only spreads across the clocks the
    /// adaptive pool target admits: serial light load lands on one clock.
    #[test]
    fn virtual_time_packs_onto_the_effective_pool() {
        let (sched, stats) = (Scheduler::new(4, 4), EngineStatsCells::default());
        // Idle scheduler: target 1, so repeated tallies pile onto clock 0.
        sched.tally_virtual(Nanos::from_micros(5));
        sched.tally_virtual(Nanos::from_micros(5));
        let clocks = sched.worker_times();
        assert_eq!(clocks[0], Nanos::from_micros(10));
        assert!(clocks[1..].iter().all(|c| c.is_zero()));
        // Deep queue: target grows, the next tally takes the least-loaded
        // clock inside the wider pool.
        sched.enqueue(demote(0), &stats);
        sched.enqueue(demote(1), &stats);
        sched.enqueue(demote(2), &stats);
        sched.tally_virtual(Nanos::from_micros(5));
        let clocks = sched.worker_times();
        assert_eq!(clocks[0], Nanos::from_micros(10));
        assert_eq!(clocks[1], Nanos::from_micros(5));
    }

    /// A pool job whose partition installed another job between its plan
    /// and its install is discarded, and the discard is counted in the
    /// compaction stats the registry exports.
    #[test]
    fn a_job_overtaken_before_install_is_discarded_and_counted() {
        let mut options = Options::scaled_default(1_000);
        options.num_partitions = 1;
        options.compaction_workers = 1;
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(options.nvm_capacity_bytes),
            DeviceProfile::qlc_flash(options.flash_capacity_bytes),
        );
        let shared = Arc::new(EngineShared::new(options, storage).unwrap());
        let weak = Arc::downgrade(&shared);
        shared.obs.hub.registry.set_engine_source(Box::new(move || {
            weak.upgrade().map(|shared| shared.stats_snapshot())
        }));
        {
            let mut p = shared.write_partition(0);
            for id in 0..64 {
                let mut no_reclaim = |_: &mut Partition, _| unreachable!("the slabs have room");
                let put = BatchOp::Put(Key::from_id(id), Value::filled(100, 1));
                let seq = shared.seq.allocate();
                p.apply_group(vec![put], seq, &mut no_reclaim).unwrap();
            }
        }

        // Plan job A, then plan, execute and install job B on the same
        // partition before handing A back: A's install must see B's.
        let plan_a_then_install_b = |p: &mut Partition| {
            let a = p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
            let b = p.plan_demotion(DemotionPlan::Everything, Nanos::ZERO);
            let exec = execute_job(b.expect("B"), &shared.storage.cpu, &shared.storage.flash);
            assert!(p.install_compaction(exec).unwrap().is_some(), "B installs");
            a
        };
        let outcome = run_job(&shared, 0, &mut None, "test", plan_a_then_install_b).unwrap();
        assert!(outcome.is_none(), "A is discarded");

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
