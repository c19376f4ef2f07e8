//! Background maintenance: one runner that every long-running store
//! job is pumped by — the scrub (one foreground pass, or paced passes
//! back to back in the background; see [`crate::scrub`]) and the
//! reshape driver, which the blocking [`BlockStore::add_disks`] and
//! [`BlockStore::remove_disks`] run too.
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
//!   rest between background scrub passes is);
//! - **one admission helper** (`Admitted::claim`): a compare-and-swap
//!   on the job family's flag, released by the one drop guard however
//!   the job ends — return, error, or panic — so a failed job never
//!   wedges its slot. A second scrub is refused with
//!   [`StoreError::ScrubInProgress`], a second reshape driver with
//!   [`StoreError::ReshapeDriverInProgress`];
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
//! reshape driver by its configured sleep, the background scrubber by
//! its pacer's load budget. What the jobs did is counted in
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
use crate::reshape::ReshapeReport;
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

/// Live maintenance state owned by the store: the admission flags
/// (each behind its own `Arc`, so an [`Admitted`] guard can move to a
/// job thread that holds the store only weakly) plus lock-free
/// counters written by the jobs and snapshotted by
/// [`BlockStore::stats`].
#[derive(Debug, Default)]
pub(crate) struct MaintState {
    /// A scrub — a foreground pass or a background loop — is running.
    scrub_active: Arc<AtomicBool>,
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
    /// Rests after which a background scrub started its next pass.
    pub(crate) idle_restarts: AtomicU64,
}

impl MaintState {
    pub(crate) fn snapshot(&self) -> MaintenanceStateSnapshot {
        MaintenanceStateSnapshot {
            scrub_active: self.scrub_active.load(Ordering::Acquire),
            reshape_driver_active: self.reshape_driver_active.load(Ordering::Acquire),
            scrub_yields: self.scrub_yields.load(Ordering::Relaxed),
            driver_runs: self.driver_runs.load(Ordering::Relaxed),
            driver_steps: self.driver_steps.load(Ordering::Relaxed),
            driver_resumes: self.driver_resumes.load(Ordering::Relaxed),
            idle_restarts: self.idle_restarts.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the maintenance scheduler, embedded in
/// [`crate::StatsSnapshot`].
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize, PartialEq, Eq)]
pub struct MaintenanceStateSnapshot {
    /// A scrub — a foreground pass or a background loop — holds the
    /// scrub slot.
    pub scrub_active: bool,
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
    /// Rests after which a background scrub started its next pass.
    /// (Finished passes, foreground or background, are
    /// [`crate::IntegrityStatsSnapshot::scrub_passes`].)
    pub idle_restarts: u64,
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

impl<B: Backend> BlockStore<B> {
    /// Claims the scrub slot: one scrub at a time.
    pub(crate) fn admit_scrub(&self) -> Result<Admitted, StoreError> {
        Admitted::claim(&self.maint.scrub_active, StoreError::ScrubInProgress)
    }

    /// Claims the reshape-driver slot.
    fn admit_driver(&self) -> Result<Admitted, StoreError> {
        Admitted::claim(&self.maint.reshape_driver_active, StoreError::ReshapeDriverInProgress)
    }

    /// Pumps `job` on the calling thread until it is done; nobody can
    /// stop it, so a `Yield` fails it.
    pub(crate) fn run_job<J: Job<B>>(&self, mut job: J) -> Result<J::Report, StoreError> {
        pump(|| Some(self), &mut job, None)?;
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
        self.run_job(ReshapeJob::attach(self, cfg)?)
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

    /// (a) A stop lands mid-sleep — a minute-long pacing sleep, or a
    /// background scrub's rest between passes — within milliseconds,
    /// and the job is checkpointed exactly once.
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

        let handle = store.start_scrub().unwrap();
        wait_until("the first pass", || store.stats().integrity.scrub_passes == 1);
        let t = Instant::now();
        handle.stop();
        let report = handle.join().unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "stop waited out the rest");
        assert!(report.completed && report.passes >= 1);
    }

    /// (b) A job that fails or panics frees its slot: `join` surfaces
    /// the error / re-raises the panic, and the next admission works.
    #[test]
    fn failed_or_panicked_job_frees_its_slot() {
        let store = store();
        let failing = Scripted::new(|_| Err(StoreError::Corrupt("scripted failure".into())));
        let handle = store.spawn_job("test-failing", store.admit_scrub().unwrap(), failing);
        assert!(matches!(handle.join(), Err(StoreError::Corrupt(m)) if m == "scripted failure"));
        assert!(store.scrub().unwrap().completed, "slot free after Err");

        let panicking = Scripted::new(|_| panic!("scripted panic"));
        let handle = store.spawn_job("test-panicking", store.admit_scrub().unwrap(), panicking);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        let payload = raised.expect_err("join re-raises the job's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"scripted panic"));
        assert!(store.scrub().unwrap().completed, "slot free after panic");

        // The foreground path releases through the same guard.
        let admitted = store.admit_driver().unwrap();
        let failing = Scripted::new(|_| Err(StoreError::NoActiveReshape));
        assert!(store.run_job(failing).is_err());
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
        assert!(matches!(store.scrub(), Err(StoreError::ScrubInProgress)));
        assert!(matches!(store.start_scrub(), Err(StoreError::ScrubInProgress)));
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
        assert!(store.scrub().unwrap().completed);
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
        let handle = store.start_scrub().unwrap();
        wait_until("a background pass", || store.stats().integrity.scrub_passes >= 1);
        drop(store);
        wait_until("the orphaned scrubber to end", || handle.is_finished());
        assert!(handle.join().unwrap().passes >= 1);
    }
}
