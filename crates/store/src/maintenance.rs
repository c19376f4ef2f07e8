//! Background maintenance: one runner that every long-running store
//! job — one-shot scrub, continuous scrub, and the reshape driver,
//! which the blocking [`BlockStore::add_disks`] and
//! [`BlockStore::remove_disks`] run too — is pumped by.
//!
//! # The runner
//!
//! A job is a small state machine behind the crate-private `Job`
//! interface: `step` does one bounded piece of work (a scrub batch, a
//! migration batch) and says what happens next — `Done`,
//! `Again` after a sleep, or `Yield` — and `checkpoint` makes the
//! job's progress durable when it is stopped. Everything else exists
//! exactly once, here:
//!
//! - **one pump loop** (`pump`): stop requested → `checkpoint` →
//!   return; otherwise `step`, then a stop-aware sleep (a stop lands
//!   within about a millisecond however long the pacing sleep or the
//!   continuous scrub's idle interval is);
//! - **one admission helper** (`Admitted::claim`): a compare-and-swap
//!   on the job family's flag, released by the one drop guard however
//!   the job ends — return, error, or panic — so a failed job never
//!   wedges its slot. A second scrub of any flavor
//!   is refused with [`StoreError::ScrubInProgress`], a second
//!   reshape driver with [`StoreError::ReshapeDriverInProgress`];
//! - **one thread spawn** for background jobs. The thread holds only
//!   a [`Weak`] store reference and upgrades it per step, so dropping
//!   every strong `Arc` ends the job instead of leaking the store;
//! - **one handle type**, [`JobHandle`], to stop or join a background
//!   job.
//!
//! # The one arbitration rule
//!
//! **Scrub yields to reshape.** Stripe indices change meaning across
//! worlds, so a reshape resets the scrub cursor when it begins and a
//! scrub's `step` answers `Yield` while one is active: the runner
//! counts it in [`MaintenanceStateSnapshot::scrub_yields`] and retries
//! a couple of milliseconds later. (A foreground [`BlockStore::scrub`]
//! has nobody to stop it, so there the runner fails the job with
//! [`StoreError::ReshapeInProgress`] instead of parking its caller.)
//! Nothing else is arbitrated: neither job blocks the other's
//! admission, and clients outrank both through pacing alone — the
//! reshape driver by its configured sleep, the scrubber by the
//! `ScrubPacer`'s load budget. Every pacing decision is published in
//! [`MaintenanceStateSnapshot`] (via [`BlockStore::stats`]).
//!
//! [`crate::Rebuilder`] is deliberately *not* a job: it is a scoped
//! worker pool with no pacing, and giving it any is a behaviour
//! change of its own.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::Backend;
use crate::error::StoreError;
use crate::meta::Record;
use crate::obs::Metrics;
use crate::reshape::ReshapeReport;
use crate::scrub::{ScrubConfig, ScrubJob, ScrubReport};
use crate::store::BlockStore;

/// What a job's `step` asks the runner to do next.
pub(crate) enum Step {
    /// The job is finished; the runner returns.
    Done,
    /// More work remains: sleep (stop-aware) this long, then step
    /// again.
    Again {
        /// The job's own pacing; zero runs flat out.
        sleep: Duration,
    },
    /// The job must not run right now — a scrub while a reshape is
    /// active. A stoppable job parks: counted in `scrub_yields` and
    /// retried after [`YIELD_SLEEP`]. One nobody can stop fails with
    /// [`StoreError::ReshapeInProgress`] rather than park its caller
    /// for as long as the reshape takes.
    Yield,
}

/// How long a yielding job parks before the runner asks it again.
const YIELD_SLEEP: Duration = Duration::from_millis(2);
/// Longest the runner sleeps between looks at a stop flag.
const STOP_POLL: Duration = Duration::from_millis(1);

/// A maintenance job the runner can pump.
pub(crate) trait Job<B: Backend> {
    /// What the job hands back when it finishes or is stopped.
    type Report;
    /// Does one bounded piece of work.
    fn step(&mut self, store: &BlockStore<B>) -> Result<Step, StoreError>;
    /// Makes the job's progress durable; called exactly once, when a
    /// stop request ends the job early.
    fn checkpoint(&mut self, store: &BlockStore<B>) -> Result<(), StoreError>;
    /// The work done so far.
    fn into_report(self) -> Self::Report;
}

/// The one pump loop. `acquire` produces the store for one step — the
/// caller's `&BlockStore` in the foreground, a per-step
/// [`Weak::upgrade`] on a background thread — and the job ends when it
/// reports `Done`, when `stop` is raised (after one `checkpoint`), or
/// when the store is gone.
pub(crate) fn pump<B, J, S>(
    acquire: impl Fn() -> Option<S>,
    job: &mut J,
    stop: Option<&AtomicBool>,
) -> Result<(), StoreError>
where
    B: Backend,
    J: Job<B>,
    S: Deref<Target = BlockStore<B>>,
{
    let stopped = || stop.is_some_and(|s| s.load(Ordering::Acquire));
    loop {
        let Some(store) = acquire() else { return Ok(()) };
        if stopped() {
            return job.checkpoint(&store);
        }
        let sleep = match job.step(&store)? {
            Step::Done => return Ok(()),
            Step::Again { sleep } => sleep,
            Step::Yield if stop.is_none() => return Err(StoreError::ReshapeInProgress),
            Step::Yield => {
                store.maint.scrub_yields.fetch_add(1, Ordering::Relaxed);
                YIELD_SLEEP
            }
        };
        drop(store);
        let until = Instant::now() + sleep;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || stopped() {
                break;
            }
            std::thread::sleep(if stop.is_some() { left.min(STOP_POLL) } else { left });
        }
    }
}

/// Handle to a background maintenance job ([`BlockStore::start_scrub`],
/// [`BlockStore::start_continuous_scrub`],
/// [`BlockStore::start_reshape_driver`]).
#[derive(Debug)]
pub struct JobHandle<R> {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<R, StoreError>>,
}

impl<R> JobHandle<R> {
    /// Asks the job to stop at its next step boundary (or mid-sleep).
    /// Its progress is checkpointed (file-backed stores), so a later
    /// job — or a reopen — resumes from it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Waits for the job to finish and returns its report. A panicked
    /// job thread propagates the panic.
    pub fn join(self) -> Result<R, StoreError> {
        match self.thread.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Whether the job thread has exited (the `join` will not block).
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// A claimed admission flag (one job per flag at a time); dropping it
/// frees the slot however the owning job ends — success, error, or
/// panic — so a failed job never wedges the scheduler.
#[derive(Debug)]
pub(crate) struct Admitted(Arc<AtomicBool>);

impl Admitted {
    /// The one admission point: claims `flag` or fails with `busy`.
    pub(crate) fn claim(flag: &Arc<AtomicBool>, busy: StoreError) -> Result<Self, StoreError> {
        match flag.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Ok(Admitted(flag.clone())),
            Err(_) => Err(busy),
        }
    }
}

impl Drop for Admitted {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Tuning for a reshape driver ([`BlockStore::drive_reshape`],
/// [`BlockStore::start_reshape_driver`]). The default — one target
/// copy per step, no sleep — is what [`BlockStore::add_disks`] and
/// [`BlockStore::remove_disks`] drive with.
#[derive(Clone, Debug, Default)]
pub struct ReshapeDriverConfig {
    /// Target stripes migrated per step, each step one
    /// [`BlockStore::reshape_step`] batch ending in one checkpoint.
    /// `0` means one full target copy.
    pub stripes_per_step: usize,
    /// Microseconds slept between steps — the rate limit. `0` drives
    /// the migration flat out.
    pub sleep_us: u64,
}

/// What a reshape driver run did.
#[derive(Clone, Debug)]
pub struct ReshapeDriverReport {
    /// Migration cursor (target stripes already done) when the driver
    /// attached — non-zero when resuming a checkpointed reshape.
    pub resumed_from: u64,
    /// `reshape_step` calls the driver made.
    pub steps: u64,
    /// The commit report, or `None` when the driver was stopped
    /// before migration finished (the cursor was checkpointed; a
    /// later driver — or a reopen — resumes from it).
    pub report: Option<ReshapeReport>,
}

/// Tuning for load-aware (paced) and continuous scrubbing.
#[derive(Clone, Debug)]
pub struct ContinuousScrubConfig {
    /// Per-pass tuning. `stripes_per_step` seeds the pacer's step
    /// width; `sleep_us` is a floor under the pacer's adaptive sleep.
    pub pass: ScrubConfig,
    /// Milliseconds to idle between a completed pass and the
    /// auto-restarted next one.
    pub idle_ms: u64,
    /// Fraction of wall-clock time the scrubber may consume while
    /// clients are active (`0.2` = scrub at most ~20% duty cycle).
    /// Values are clamped to at least 0.01. When the store is idle
    /// the budget is ignored and the scrub runs flat out.
    pub load_budget: f64,
}

impl Default for ContinuousScrubConfig {
    fn default() -> Self {
        ContinuousScrubConfig { pass: ScrubConfig::default(), idle_ms: 1000, load_budget: 0.2 }
    }
}

/// Accumulated totals across every pass of a continuous scrub run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContinuousScrubReport {
    /// Full passes completed.
    pub passes: u64,
    /// Stripes verified across all passes (including a final partial
    /// pass).
    pub stripes: u64,
    /// Units rewritten for checksum mismatches, summed over passes.
    pub checksum_repairs: u64,
    /// Parity units recomputed, summed over passes.
    pub parity_repairs: u64,
    /// Times the scrubber woke from the idle interval to start
    /// another pass.
    pub idle_restarts: u64,
}

impl ContinuousScrubReport {
    fn absorb(&mut self, pass: &ScrubReport) {
        self.stripes += pass.stripes;
        self.checksum_repairs += pass.checksum_repairs;
        self.parity_repairs += pass.parity_repairs;
        if pass.completed {
            self.passes += 1;
        }
    }
}

/// Live maintenance state owned by the store: the admission flags
/// (each behind its own `Arc`, so an [`Admitted`] guard can move to a
/// job thread that holds the store only weakly) plus lock-free
/// counters written by the jobs and snapshotted by
/// [`BlockStore::stats`].
#[derive(Debug, Default)]
pub(crate) struct MaintState {
    /// A scrub of any flavor — foreground, background, paced, or
    /// continuous — is running.
    scrub_active: Arc<AtomicBool>,
    /// A continuous scrub loop is running (implies `scrub_active`).
    continuous_scrub_active: Arc<AtomicBool>,
    /// A reshape driver is running.
    reshape_driver_active: Arc<AtomicBool>,
    /// Steps a scrubber parked because a reshape was active.
    pub(crate) scrub_yields: AtomicU64,
    /// Reshape driver runs that reached commit (blocking reshapes
    /// included).
    driver_runs: AtomicU64,
    /// `reshape_step` calls made by drivers (blocking reshapes
    /// included).
    driver_steps: AtomicU64,
    /// Driver runs that attached to a non-zero migration cursor.
    driver_resumes: AtomicU64,
    /// Scrub passes completed under pacing (continuous or
    /// [`BlockStore::scrub_paced`]).
    pub(crate) paced_passes: AtomicU64,
    /// Scrub passes completed by continuous-scrub loops.
    continuous_passes: AtomicU64,
    /// Idle intervals after which a continuous scrub restarted.
    idle_restarts: AtomicU64,
    /// Latest pacer step width (stripes per batch).
    paced_step: AtomicU64,
    /// Latest pacer inter-batch sleep in microseconds.
    paced_sleep_us: AtomicU64,
}

impl MaintState {
    pub(crate) fn snapshot(&self) -> MaintenanceStateSnapshot {
        MaintenanceStateSnapshot {
            continuous_scrub_active: self.continuous_scrub_active.load(Ordering::Acquire),
            reshape_driver_active: self.reshape_driver_active.load(Ordering::Acquire),
            scrub_yields: self.scrub_yields.load(Ordering::Relaxed),
            driver_runs: self.driver_runs.load(Ordering::Relaxed),
            driver_steps: self.driver_steps.load(Ordering::Relaxed),
            driver_resumes: self.driver_resumes.load(Ordering::Relaxed),
            paced_passes: self.paced_passes.load(Ordering::Relaxed),
            continuous_passes: self.continuous_passes.load(Ordering::Relaxed),
            idle_restarts: self.idle_restarts.load(Ordering::Relaxed),
            paced_step: self.paced_step.load(Ordering::Relaxed),
            paced_sleep_us: self.paced_sleep_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the maintenance scheduler, embedded in
/// [`crate::StatsSnapshot`].
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize, PartialEq, Eq)]
pub struct MaintenanceStateSnapshot {
    /// A continuous scrub loop is running.
    pub continuous_scrub_active: bool,
    /// A background reshape driver is running.
    pub reshape_driver_active: bool,
    /// Steps a scrubber parked because a reshape was active (the one
    /// arbitration rule: scrub yields to reshape).
    pub scrub_yields: u64,
    /// Reshape driver runs that reached commit. The blocking
    /// [`BlockStore::add_disks`] and [`BlockStore::remove_disks`] run a
    /// driver too, so they count here.
    pub driver_runs: u64,
    /// `reshape_step` calls made by drivers, blocking reshapes
    /// included.
    pub driver_steps: u64,
    /// Driver runs that attached to a non-zero (resumed) cursor.
    pub driver_resumes: u64,
    /// Scrub passes completed under load-aware pacing.
    pub paced_passes: u64,
    /// Scrub passes completed by continuous-scrub loops.
    pub continuous_passes: u64,
    /// Idle intervals after which a continuous scrub restarted.
    pub idle_restarts: u64,
    /// Latest pacer step width (stripes per batch).
    pub paced_step: u64,
    /// Latest pacer inter-batch sleep in microseconds.
    pub paced_sleep_us: u64,
}

/// Adaptive scrub pacing: widens batches when the store is idle,
/// narrows them and inserts sleeps when clients are active.
///
/// The client op rate is sampled from [`Metrics::client_ops`].
#[derive(Debug)]
pub(crate) struct ScrubPacer {
    budget: f64,
    last_check: Instant,
    last_ops: u64,
    busy: bool,
    /// Current step width in stripes.
    pub(crate) step: usize,
    sleep_us: u64,
    /// EWMA of per-stripe scrub cost in nanoseconds.
    per_stripe_ns: f64,
}

/// Narrowest step the pacer shrinks to under load.
const MIN_STEP: usize = 1;
/// Widest step the pacer grows to when idle.
const MAX_STEP: usize = 256;
/// Client ops/sec below which the store counts as idle.
const IDLE_OPS_PER_SEC: f64 = 50.0;
/// Cap on the pacer's inter-batch sleep.
const MAX_SLEEP_US: u64 = 20_000;
/// Target duration of one scrub burst while throttled. The cycle
/// granularity matters as much as the duty ratio: micro-bursts with
/// micro-sleeps spend more CPU on context switches than on scrubbing
/// (measured ~25% client loss at a 10% budget on a single-core host),
/// while over-long bursts stream enough data to evict the clients'
/// working set from cache on every cycle. ~250µs bursts sit between
/// the two failure modes: switch overhead is amortized to noise and
/// a burst touches well under a megabyte.
const TARGET_BURST_NS: f64 = 250_000.0;

impl ScrubPacer {
    pub(crate) fn new(cfg: &ContinuousScrubConfig) -> Self {
        ScrubPacer {
            budget: cfg.load_budget.clamp(0.01, 1.0),
            last_check: Instant::now(),
            last_ops: 0,
            // Presume loaded until the first rate sample proves
            // otherwise: starting flat-out would let the opening
            // burst (or, on a single core, the whole pass — the
            // clients may not have been scheduled yet) evade the
            // budget. One throttled cycle on a truly idle store
            // costs at most `MAX_SLEEP_US`.
            busy: true,
            step: cfg.pass.stripes_per_step.clamp(MIN_STEP, MAX_STEP),
            sleep_us: 0,
            per_stripe_ns: 0.0,
        }
    }

    /// Re-arms the rate sampler for a new pass, back to the
    /// presumed-loaded state.
    pub(crate) fn reset_pass(&mut self, metrics: &Metrics) {
        self.last_check = Instant::now();
        self.last_ops = metrics.client_ops();
        self.busy = true;
    }

    /// Called after each scrub batch: updates the cost model, samples
    /// the client op rate, and returns `(next_step, sleep_us)` for
    /// the next batch. Publishes both into `maint` for observability.
    pub(crate) fn pace(
        &mut self,
        metrics: &Metrics,
        maint: &MaintState,
        batch_ns: u64,
        batch_stripes: u64,
    ) -> (usize, u64) {
        if batch_stripes > 0 {
            let cost = batch_ns as f64 / batch_stripes as f64;
            self.per_stripe_ns = if self.per_stripe_ns == 0.0 {
                cost
            } else {
                self.per_stripe_ns * 0.7 + cost * 0.3
            };
        }
        // Sample the client op rate at most once per millisecond so a
        // fast batch loop doesn't divide by near-zero intervals.
        let now = Instant::now();
        let dt = now.duration_since(self.last_check);
        if dt >= Duration::from_millis(1) {
            let ops = metrics.client_ops();
            let rate = (ops.saturating_sub(self.last_ops)) as f64 / dt.as_secs_f64();
            self.busy = rate >= IDLE_OPS_PER_SEC;
            self.last_ops = ops;
            self.last_check = now;
        }
        if !self.busy || self.budget >= 1.0 {
            self.step = (self.step * 2).clamp(MIN_STEP, MAX_STEP);
            self.sleep_us = 0;
        } else {
            // Duty-cycle throttle in coarse bursts: size the step so
            // one burst lasts about [`TARGET_BURST_NS`], then sleep
            // long enough that scrub time is `budget` of the
            // scrub+sleep window (the sleep is computed from the
            // burst just measured, so a mis-sized step self-corrects
            // one cycle later).
            let per = self.per_stripe_ns.max(1.0);
            self.step = ((TARGET_BURST_NS / per) as usize).clamp(MIN_STEP, MAX_STEP);
            let sleep_ns = batch_ns as f64 * (1.0 - self.budget) / self.budget;
            self.sleep_us = ((sleep_ns / 1_000.0) as u64).min(MAX_SLEEP_US);
        }
        maint.paced_step.store(self.step as u64, Ordering::Relaxed);
        maint.paced_sleep_us.store(self.sleep_us, Ordering::Relaxed);
        (self.step, self.sleep_us)
    }
}

/// Pumps the active reshape to its commit: every driver's job,
/// foreground or background.
pub(crate) struct ReshapeJob {
    stripes: usize,
    sleep: Duration,
    report: ReshapeDriverReport,
}

impl ReshapeJob {
    /// Attaches to the active reshape at its current cursor.
    pub(crate) fn attach<B: Backend>(
        store: &BlockStore<B>,
        cfg: &ReshapeDriverConfig,
    ) -> Result<Self, StoreError> {
        let resumed_from = match &store.state_read().reshape {
            Some(rs) => rs.cursor.load(Ordering::Acquire),
            None => return Err(StoreError::NoActiveReshape),
        };
        if resumed_from > 0 {
            store.maint.driver_resumes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ReshapeJob {
            stripes: cfg.stripes_per_step,
            sleep: Duration::from_micros(cfg.sleep_us),
            report: ReshapeDriverReport { resumed_from, steps: 0, report: None },
        })
    }
}

impl<B: Backend> Job<B> for ReshapeJob {
    type Report = ReshapeDriverReport;

    fn step(&mut self, store: &BlockStore<B>) -> Result<Step, StoreError> {
        let done = store.reshape_step(self.stripes)?;
        self.report.steps += 1;
        store.maint.driver_steps.fetch_add(1, Ordering::Relaxed);
        if !done {
            return Ok(Step::Again { sleep: self.sleep });
        }
        self.report.report = Some(store.complete_reshape()?);
        store.maint.driver_runs.fetch_add(1, Ordering::Relaxed);
        Ok(Step::Done)
    }

    /// Makes the live cursor durable, so the next driver (or a reopen)
    /// resumes here.
    fn checkpoint(&mut self, store: &BlockStore<B>) -> Result<(), StoreError> {
        store.persist(Record::Progress(&store.state_read()))
    }

    fn into_report(self) -> ReshapeDriverReport {
        self.report
    }
}

/// Pass after pass of paced scrubbing with an idle interval between
/// them: a [`ScrubJob`] restarted each time it reports `Done`.
struct ContinuousScrubJob {
    pass: ScrubJob,
    idle: Duration,
    /// The last pass completed and was absorbed; the next step opens
    /// a new one.
    idling: bool,
    report: ContinuousScrubReport,
    /// Advertises the loop in stats for as long as the job lives.
    _advertised: Admitted,
}

impl ContinuousScrubJob {
    fn new<B: Backend>(
        store: &BlockStore<B>,
        cfg: &ContinuousScrubConfig,
    ) -> Result<Self, StoreError> {
        Ok(ContinuousScrubJob {
            _advertised: Admitted::claim(
                &store.maint.continuous_scrub_active,
                StoreError::ScrubInProgress,
            )?,
            pass: ScrubJob::new(store, cfg.pass.clone(), Some(ScrubPacer::new(cfg))),
            idle: Duration::from_millis(cfg.idle_ms),
            idling: false,
            report: ContinuousScrubReport::default(),
        })
    }
}

impl<B: Backend> Job<B> for ContinuousScrubJob {
    type Report = ContinuousScrubReport;

    fn step(&mut self, store: &BlockStore<B>) -> Result<Step, StoreError> {
        if self.idling {
            self.idling = false;
            self.report.idle_restarts += 1;
            store.maint.idle_restarts.fetch_add(1, Ordering::Relaxed);
            self.pass.begin_pass(store);
        }
        match self.pass.step(store)? {
            Step::Done => {
                self.report.absorb(&self.pass.report);
                store.maint.continuous_passes.fetch_add(1, Ordering::Relaxed);
                self.idling = true;
                Ok(Step::Again { sleep: self.idle })
            }
            other => Ok(other),
        }
    }

    fn checkpoint(&mut self, store: &BlockStore<B>) -> Result<(), StoreError> {
        self.pass.checkpoint(store)
    }

    fn into_report(mut self) -> ContinuousScrubReport {
        if !self.idling {
            // Stopped mid-pass: count the partial pass's work too.
            self.report.absorb(&self.pass.report);
        }
        self.report
    }
}

impl<B: Backend> BlockStore<B> {
    /// Claims the scrub slot: one scrub of any flavor at a time.
    pub(crate) fn admit_scrub(&self) -> Result<Admitted, StoreError> {
        Admitted::claim(&self.maint.scrub_active, StoreError::ScrubInProgress)
    }

    /// Claims the reshape-driver slot.
    fn admit_driver(&self) -> Result<Admitted, StoreError> {
        Admitted::claim(&self.maint.reshape_driver_active, StoreError::ReshapeDriverInProgress)
    }

    /// Pumps `job` on the calling thread until it is done or `stop`
    /// is raised.
    pub(crate) fn run_job<J: Job<B>>(
        &self,
        mut job: J,
        stop: Option<&AtomicBool>,
    ) -> Result<J::Report, StoreError> {
        pump(|| Some(self), &mut job, stop)?;
        Ok(job.into_report())
    }

    /// Pumps `job` on a named background thread that owns `admitted`
    /// and holds the store only weakly.
    pub(crate) fn spawn_job<J>(
        self: &Arc<Self>,
        name: &str,
        admitted: Admitted,
        mut job: J,
    ) -> JobHandle<J::Report>
    where
        B: 'static,
        J: Job<B> + Send + 'static,
        J::Report: Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let (weak, stop_t): (Weak<Self>, _) = (Arc::downgrade(self), stop.clone());
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let _admitted = admitted;
                pump(|| weak.upgrade(), &mut job, Some(&stop_t))?;
                Ok(job.into_report())
            })
            .expect("spawn maintenance thread");
        JobHandle { stop, thread }
    }

    /// Drives the active reshape to completion on the calling thread:
    /// pumps [`BlockStore::reshape_step`] with the configured pacing
    /// and commits when migration finishes. Requires a reshape begun
    /// via [`BlockStore::begin_add_disks`] /
    /// [`BlockStore::begin_remove_disks`] (errors with
    /// [`StoreError::NoActiveReshape`] otherwise); errors with
    /// [`StoreError::ReshapeDriverInProgress`] if a driver is already
    /// attached.
    pub fn drive_reshape(
        &self,
        cfg: &ReshapeDriverConfig,
    ) -> Result<ReshapeDriverReport, StoreError> {
        let _admitted = self.admit_driver()?;
        self.run_job(ReshapeJob::attach(self, cfg)?, None)
    }

    /// Starts a background reshape driver and returns a handle to
    /// stop or join it; a stopped driver checkpoints the live cursor.
    /// Same admission errors as [`BlockStore::drive_reshape`].
    pub fn start_reshape_driver(
        self: &Arc<Self>,
        cfg: ReshapeDriverConfig,
    ) -> Result<JobHandle<ReshapeDriverReport>, StoreError>
    where
        B: 'static,
    {
        let admitted = self.admit_driver()?;
        Ok(self.spawn_job("pdl-reshape", admitted, ReshapeJob::attach(self, &cfg)?))
    }

    /// Runs one load-aware paced scrub pass on the calling thread:
    /// like [`BlockStore::scrub`], but batch width and inter-batch
    /// sleep adapt to the client op rate per `cfg`'s budget. Same
    /// admission errors as `scrub`.
    pub fn scrub_paced(&self, cfg: &ContinuousScrubConfig) -> Result<ScrubReport, StoreError> {
        let _admitted = self.admit_scrub()?;
        let pacer = Some(ScrubPacer::new(cfg));
        self.run_job(ScrubJob::new(self, cfg.pass.clone(), pacer), None)
    }

    /// Runs the continuous scrub loop on the calling thread until
    /// `stop` is raised: paced pass, idle interval, paced pass, …
    /// Errors with [`StoreError::ScrubInProgress`] if any scrub is
    /// already running.
    pub fn run_continuous_scrub(
        &self,
        cfg: &ContinuousScrubConfig,
        stop: &AtomicBool,
    ) -> Result<ContinuousScrubReport, StoreError> {
        let _admitted = self.admit_scrub()?;
        self.run_job(ContinuousScrubJob::new(self, cfg)?, Some(stop))
    }

    /// Starts a continuous scrub on a background thread and returns a
    /// handle to stop or join it.
    pub fn start_continuous_scrub(
        self: &Arc<Self>,
        cfg: ContinuousScrubConfig,
    ) -> Result<JobHandle<ContinuousScrubReport>, StoreError>
    where
        B: 'static,
    {
        let admitted = self.admit_scrub()?;
        Ok(self.spawn_job("pdl-scrub-cont", admitted, ContinuousScrubJob::new(self, &cfg)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use pdl_core::RingLayout;

    fn store() -> Arc<BlockStore<MemBackend>> {
        let layout = RingLayout::for_v_k(5, 3).layout().clone();
        let backend = MemBackend::new(6, 4 * layout.size(), 64);
        Arc::new(BlockStore::new(layout, backend).unwrap())
    }

    /// A scripted job: `script(n)` decides what step `n` does; steps
    /// and checkpoints are counted where the test can see them.
    struct Scripted {
        script: fn(u64) -> Result<Step, StoreError>,
        steps: Arc<AtomicU64>,
        checkpoints: Arc<AtomicU64>,
    }

    impl Scripted {
        fn new(script: fn(u64) -> Result<Step, StoreError>) -> Self {
            Scripted { script, steps: Arc::default(), checkpoints: Arc::default() }
        }
    }

    impl<B: Backend> Job<B> for Scripted {
        type Report = u64;
        fn step(&mut self, _: &BlockStore<B>) -> Result<Step, StoreError> {
            (self.script)(self.steps.fetch_add(1, Ordering::AcqRel))
        }
        fn checkpoint(&mut self, _: &BlockStore<B>) -> Result<(), StoreError> {
            self.checkpoints.fetch_add(1, Ordering::AcqRel);
            Ok(())
        }
        fn into_report(self) -> u64 {
            self.steps.load(Ordering::Acquire)
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// (a) A stop lands mid-sleep — a minute-long pacing sleep or a
    /// minute-long idle interval — within milliseconds, and the job is
    /// checkpointed exactly once.
    #[test]
    fn stop_cuts_a_long_sleep_short_and_checkpoints_once() {
        let store = store();
        let job = Scripted::new(|_| Ok(Step::Again { sleep: Duration::from_secs(60) }));
        let (steps, checkpoints) = (job.steps.clone(), job.checkpoints.clone());
        let handle = store.spawn_job("test-sleeper", store.admit_scrub().unwrap(), job);
        wait_until("the first step", || steps.load(Ordering::Acquire) == 1);
        let t = Instant::now();
        handle.stop();
        assert_eq!(handle.join().unwrap(), 1, "no second step after the stop");
        assert!(t.elapsed() < Duration::from_secs(5), "stop waited out the sleep");
        assert_eq!(checkpoints.load(Ordering::Acquire), 1);

        let cfg = ContinuousScrubConfig { idle_ms: 60_000, ..ContinuousScrubConfig::default() };
        let handle = store.start_continuous_scrub(cfg).unwrap();
        wait_until("the first pass", || store.stats().maintenance.continuous_passes == 1);
        let t = Instant::now();
        handle.stop();
        let report = handle.join().unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "stop waited out the idle interval");
        assert_eq!((report.passes, report.idle_restarts), (1, 0));
    }

    /// (b) A job that fails or panics frees its slot: `join` surfaces
    /// the error / re-raises the panic, and the next admission works.
    #[test]
    fn failed_or_panicked_job_frees_its_slot() {
        let store = store();
        let failing = Scripted::new(|_| Err(StoreError::Corrupt("scripted failure".into())));
        let handle = store.spawn_job("test-failing", store.admit_scrub().unwrap(), failing);
        assert!(matches!(handle.join(), Err(StoreError::Corrupt(m)) if m == "scripted failure"));
        assert!(store.scrub(&ScrubConfig::default()).unwrap().completed, "slot free after Err");

        let panicking = Scripted::new(|_| panic!("scripted panic"));
        let handle = store.spawn_job("test-panicking", store.admit_scrub().unwrap(), panicking);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        let payload = raised.expect_err("join re-raises the job's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"scripted panic"));
        assert!(store.scrub(&ScrubConfig::default()).unwrap().completed, "slot free after panic");

        // The foreground path releases through the same guard.
        let admitted = store.admit_driver().unwrap();
        let failing = Scripted::new(|_| Err(StoreError::NoActiveReshape));
        assert!(store.run_job(failing, None).is_err());
        drop(admitted);
        drop(store.admit_driver().expect("driver slot free again"));
    }

    /// (c) A second admission while a job runs is refused with the
    /// slot's own error and leaves the running job alone.
    #[test]
    fn second_admission_is_refused_without_disturbing_the_first() {
        let store = store();
        let busy = |_| Ok(Step::Again { sleep: Duration::from_micros(100) });

        let job = Scripted::new(busy);
        let steps = job.steps.clone();
        let handle = store.spawn_job("test-scrub", store.admit_scrub().unwrap(), job);
        assert!(matches!(store.scrub(&ScrubConfig::default()), Err(StoreError::ScrubInProgress)));
        assert!(matches!(
            store.start_scrub(ScrubConfig::default()),
            Err(StoreError::ScrubInProgress)
        ));
        assert!(matches!(
            store.start_continuous_scrub(ContinuousScrubConfig::default()),
            Err(StoreError::ScrubInProgress)
        ));
        let seen = steps.load(Ordering::Acquire);
        wait_until("the scrub-slot job to keep stepping", || steps.load(Ordering::Acquire) > seen);
        handle.stop();
        assert!(handle.join().unwrap() > seen);

        let job = Scripted::new(busy);
        let steps = job.steps.clone();
        let handle = store.spawn_job("test-driver", store.admit_driver().unwrap(), job);
        assert!(matches!(
            store.drive_reshape(&ReshapeDriverConfig::default()),
            Err(StoreError::ReshapeDriverInProgress)
        ));
        assert!(matches!(
            store.start_reshape_driver(ReshapeDriverConfig::default()),
            Err(StoreError::ReshapeDriverInProgress)
        ));
        // The two slots are independent: a scrub is admitted meanwhile.
        assert!(store.scrub(&ScrubConfig::default()).unwrap().completed);
        let seen = steps.load(Ordering::Acquire);
        wait_until("the driver-slot job to keep stepping", || steps.load(Ordering::Acquire) > seen);
        handle.stop();
        assert!(handle.join().unwrap() > seen);
    }

    /// (d) A background job holds the store only weakly: dropping the
    /// last strong `Arc` ends it, without a stop and without a
    /// checkpoint.
    #[test]
    fn dropping_every_strong_arc_ends_a_spawned_job() {
        let store = store();
        let job = Scripted::new(|_| Ok(Step::Again { sleep: Duration::from_micros(100) }));
        let (steps, checkpoints) = (job.steps.clone(), job.checkpoints.clone());
        let handle = store.spawn_job("test-orphan", store.admit_scrub().unwrap(), job);
        wait_until("the job to run", || steps.load(Ordering::Acquire) > 2);
        drop(store);
        wait_until("the orphaned job to end", || handle.is_finished());
        assert!(handle.join().unwrap() > 2);
        assert_eq!(checkpoints.load(Ordering::Acquire), 0);

        let store = self::store();
        let handle = store
            .start_continuous_scrub(ContinuousScrubConfig {
                idle_ms: 1,
                ..ContinuousScrubConfig::default()
            })
            .unwrap();
        wait_until("a continuous pass", || store.stats().maintenance.continuous_passes >= 1);
        drop(store);
        wait_until("the orphaned scrubber to end", || handle.is_finished());
        assert!(handle.join().unwrap().passes >= 1);
    }
}
