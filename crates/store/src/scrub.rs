//! Scrubbing: a walk over every stripe that verifies unit checksums
//! *and* parity consistency, repairing what it finds via erasure
//! decode (see `BlockStore::repair_stripe_locked`'s read-repair
//! machinery).
//!
//! Latent sector errors are the quiet failure mode of disk arrays:
//! a corrupt unit that nobody reads stays corrupt until the disk
//! holding a *different* unit of its stripe fails — at which point
//! the rebuild decodes from the corrupt survivor and the damage
//! becomes permanent. A periodic scrub converts latent errors into
//! repaired ones while full redundancy still exists, which is why
//! the declustered layouts this crate reproduces (Schwabe & Sutherland,
//! SPAA '94) assume one runs.
//!
//! Scrub is one `ScrubJob` pumped by the maintenance runner
//! ([`crate::maintenance`]), which owns admission (one scrub at a
//! time, else [`StoreError::ScrubInProgress`]), the background thread,
//! stopping, and sleeping. It has two entry points and no settings:
//!
//! - [`BlockStore::scrub`] runs one pass on the calling thread, flat
//!   out, [`STEP_STRIPES`] stripes a step;
//! - [`BlockStore::start_scrub`] runs paced passes back to back on a
//!   background thread until stopped. The `ScrubPacer` alone sizes
//!   each step and the sleep after it, so the scrub takes at most
//!   [`LOAD_BUDGET`] of wall time while clients are active; between
//!   passes the loop rests the same share of the pass just finished
//!   (at most [`MAX_REST`]).
//!
//! Either way:
//!
//! - **Races live traffic safely.** Each stripe is verified under its
//!   exclusive stripe shard lock — the same lock writers take — so a
//!   scrub never sees a half-written stripe. Between stripes the
//!   scrubber holds only the shared array-state guard, so reads and
//!   writes proceed concurrently.
//! - **Yields to reshape** — the runner's one arbitration rule. Stripe
//!   indices change meaning across worlds, so a reshape resets the
//!   scrub cursor and a step taken while one is active answers
//!   `Yield`: the background loop parks until the reshape commits, a
//!   foreground pass (which nobody could stop) fails with
//!   [`StoreError::ReshapeInProgress`].
//! - **Crash-resumable.** Every [`CHECKPOINT_STRIPES`] stripes, at pass
//!   end, and when stopped, the store's durability barrier syncs the
//!   repairs, persists the checksum sidecar and then records the
//!   cursor and the lifetime pass count in the `scrub` section of
//!   [`crate::StoreMeta`];
//!   [`crate::meta::open_file_store`] restores both, and the next
//!   pass resumes where the stopped or crashed one left off. The
//!   section rides in every document the store writes, so it
//!   survives a reshape's checkpoints and commit too.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::Backend;
use crate::error::StoreError;
use crate::maintenance::{Job, JobHandle, Step};
use crate::meta::Record;
use crate::obs::{Event, Metrics, OpKind};
use crate::store::BlockStore;

/// Stripes a foreground pass verifies per step, and the width a
/// background pass's pacer starts from. Each stripe is locked on its
/// own, so this bounds bookkeeping, not lock hold time.
const STEP_STRIPES: u64 = 64;
/// Stripes between durable cursor checkpoints (stores without an array
/// directory have nothing to checkpoint).
const CHECKPOINT_STRIPES: u64 = 512;
/// Share of wall time a background scrub may take: of the time it runs
/// while clients are active, and of the time between passes.
const LOAD_BUDGET: f64 = 0.2;
/// Longest rest between two background passes.
const MAX_REST: Duration = Duration::from_secs(1);

/// What a scrub did: one foreground pass, or every pass of a
/// background loop up to its stop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Global stripe cursor the first pass started from (`0` for a
    /// fresh pass, non-zero when resuming after a crash or stop).
    pub resumed_from: u64,
    /// Full passes finished: 1 for a foreground pass.
    pub passes: u64,
    /// Stripes verified, summed over passes (a stopped partial pass
    /// included).
    pub stripes: u64,
    /// Units rewritten because their bytes failed the recorded
    /// checksum (latent corruption repaired by erasure decode).
    pub checksum_repairs: u64,
    /// Parity units recomputed because the parity equations did not
    /// hold over verified data.
    pub parity_repairs: u64,
    /// Whether at least one full pass finished (`false` when stopped
    /// earlier via [`JobHandle::stop`]).
    pub completed: bool,
}

/// The idle time after `d` of work that makes the work [`LOAD_BUDGET`]
/// of the whole, `d × (1 − budget) / budget`: the sleep after a paced
/// step, and the rest after a background pass.
fn budget_rest(d: Duration) -> Duration {
    d.mul_f64((1.0 - LOAD_BUDGET) / LOAD_BUDGET)
}

/// The rest between background passes after one that took `pass`.
fn rest_after(pass: Duration) -> Duration {
    budget_rest(pass).min(MAX_REST)
}

/// Narrowest step the pacer shrinks to under load.
const MIN_STEP: u64 = 1;
/// Widest step the pacer grows to when idle.
const MAX_STEP: u64 = 256;
/// Client ops/sec below which the store counts as idle.
const IDLE_OPS_PER_SEC: f64 = 50.0;
/// Cap on the pacer's sleep after a step.
const MAX_SLEEP: Duration = Duration::from_millis(20);
/// Target duration of one scrub burst while throttled. The cycle
/// granularity matters as much as the duty ratio: micro-bursts with
/// micro-sleeps spend more CPU on context switches than on scrubbing
/// (measured ~25% client loss at a 10% budget on a single-core host),
/// while over-long bursts stream enough data to evict the clients'
/// working set from cache on every cycle. ~250µs bursts sit between
/// the two failure modes: switch overhead is amortized to noise and
/// a burst touches well under a megabyte.
const TARGET_BURST_NS: f64 = 250_000.0;

/// Load-aware pacing of a background scrub: widens steps when the
/// store is idle, narrows them and sleeps the duty-cycle complement
/// when clients are active. The client op rate is sampled from
/// [`Metrics::client_ops`].
#[derive(Debug)]
struct ScrubPacer {
    last_check: Instant,
    last_ops: u64,
    busy: bool,
    /// Current step width in stripes.
    step: u64,
    /// EWMA of per-stripe scrub cost in nanoseconds.
    per_stripe_ns: f64,
}

impl ScrubPacer {
    fn new() -> Self {
        ScrubPacer {
            last_check: Instant::now(),
            last_ops: 0,
            busy: true,
            step: STEP_STRIPES,
            per_stripe_ns: 0.0,
        }
    }

    /// Re-arms the rate sampler for a new pass, presuming the store
    /// loaded until the first rate sample proves otherwise: starting
    /// flat-out would let the opening burst (or, on a single core, the
    /// whole pass — the clients may not have been scheduled yet) evade
    /// the budget. One throttled cycle on a truly idle store costs at
    /// most [`MAX_SLEEP`].
    fn reset_pass(&mut self, metrics: &Metrics) {
        self.last_check = Instant::now();
        self.last_ops = metrics.client_ops();
        self.busy = true;
    }

    /// Called after each step: updates the cost model, samples the
    /// client op rate, and returns the next step's width and the sleep
    /// before it.
    fn pace(&mut self, metrics: &Metrics, batch_ns: u64, batch_stripes: u64) -> (u64, Duration) {
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
        if !self.busy {
            self.step = (self.step * 2).clamp(MIN_STEP, MAX_STEP);
            return (self.step, Duration::ZERO);
        }
        // Duty-cycle throttle in coarse bursts: size the step so one
        // burst lasts about [`TARGET_BURST_NS`], then sleep long enough
        // that scrub time is the budget's share of the scrub+sleep
        // window (the sleep is computed from the burst just measured,
        // so a mis-sized step self-corrects one cycle later).
        let per = self.per_stripe_ns.max(1.0);
        self.step = ((TARGET_BURST_NS / per) as u64).clamp(MIN_STEP, MAX_STEP);
        (self.step, budget_rest(Duration::from_nanos(batch_ns)).min(MAX_SLEEP))
    }
}

/// The scrub as a maintenance job: each step verifies one batch of
/// stripes from the store's scrub cursor. A foreground job ends with
/// its pass; a background one (`pacer` set) rests and starts the next.
#[derive(Debug)]
pub(crate) struct ScrubJob {
    pacer: Option<ScrubPacer>,
    step: u64,
    since_ckpt: u64,
    /// When the current pass began, and the report as it stood then.
    pass_start: (Instant, ScrubReport),
    /// A background pass finished; the next step opens a new one.
    resting: bool,
    report: ScrubReport,
}

impl ScrubJob {
    /// Opens the first pass at the store's scrub cursor (non-zero when
    /// the previous pass was stopped or crashed). The caller holds the
    /// scrub admission.
    fn new<B: Backend>(store: &BlockStore<B>, pacer: Option<ScrubPacer>) -> Self {
        let resumed_from = store.scrub_cursor.load(Ordering::Acquire);
        let report = ScrubReport { resumed_from, ..ScrubReport::default() };
        let pass_start = (Instant::now(), report);
        let mut job = ScrubJob {
            pacer,
            step: STEP_STRIPES,
            since_ckpt: 0,
            pass_start,
            resting: false,
            report,
        };
        job.begin_pass(store);
        job
    }

    /// Opens a pass at the store's scrub cursor and announces it.
    fn begin_pass<B: Backend>(&mut self, store: &BlockStore<B>) {
        if let Some(p) = &mut self.pacer {
            p.reset_pass(&store.metrics);
            self.step = p.step;
        }
        self.since_ckpt = 0;
        self.pass_start = (Instant::now(), self.report);
        let cursor = store.scrub_cursor.load(Ordering::Acquire);
        store.events.emit(|| Event::ScrubStarted { cursor });
    }
}

impl<B: Backend> Job<B> for ScrubJob {
    type Report = ScrubReport;

    fn step(&mut self, store: &BlockStore<B>) -> Result<Step, StoreError> {
        if self.resting {
            self.resting = false;
            store.maint.idle_restarts.fetch_add(1, Ordering::Relaxed);
            self.begin_pass(store);
        }
        let st = store.state_read();
        if st.reshape.is_some() {
            // The cursor was reset when the reshape began; stripe
            // indices mean nothing until it commits or aborts.
            return Ok(Step::Yield);
        }
        // Holding the shared state guard blocks a reshape from
        // *beginning* (it takes the write guard), so the batch below
        // and its checkpoint see a stable world.
        let spc = st.world.layout.stripes().len() as u64;
        let total = st.world.copies as u64 * spc;
        let cur = store.scrub_cursor.load(Ordering::Acquire);
        if cur >= total {
            // Pass complete: bump the pass counter, rewind the
            // cursor, and make both durable with the sums.
            store.integrity.scrub_passes.fetch_add(1, Ordering::AcqRel);
            store.scrub_cursor.store(0, Ordering::Release);
            store.persist(Record::Progress(&st))?;
            drop(st);
            self.report.passes += 1;
            self.report.completed = true;
            let ((t0, at), r) = (self.pass_start, self.report);
            store.events.emit(|| Event::ScrubCompleted {
                stripes: r.stripes - at.stripes,
                checksum_repairs: r.checksum_repairs - at.checksum_repairs,
                parity_repairs: r.parity_repairs - at.parity_repairs,
            });
            if store.integrity.health.has_pending() {
                store.apply_pending_health();
            }
            if self.pacer.is_none() {
                return Ok(Step::Done);
            }
            self.resting = true;
            return Ok(Step::Again { sleep: rest_after(t0.elapsed()) });
        }
        let end = (cur + self.step).min(total);
        let batch_t0 = Instant::now();
        for t in cur..end {
            let (copy, si) = ((t / spc) as usize, (t % spc) as usize);
            let shard = store.locks.shard_of(copy, si);
            let t0 = Instant::now();
            let (c, p) = {
                let (_g, _) = store.locks.lock_one_counting(shard);
                store.repair_stripe_locked(&st, copy, si)?
            };
            store.metrics.record_op(
                OpKind::ScrubRead,
                st.world.layout.stripes()[si].len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
            self.report.checksum_repairs += u64::from(c);
            self.report.parity_repairs += u64::from(p);
        }
        let batch_ns = batch_t0.elapsed().as_nanos() as u64;
        store.scrub_cursor.store(end, Ordering::Release);
        self.report.stripes += end - cur;
        self.since_ckpt += end - cur;
        if self.since_ckpt >= CHECKPOINT_STRIPES {
            store.persist(Record::Progress(&st))?;
            self.since_ckpt = 0;
        }
        drop(st);
        if store.integrity.health.has_pending() {
            store.apply_pending_health();
        }
        let sleep = match &mut self.pacer {
            Some(p) => {
                let (next_step, sleep) = p.pace(&store.metrics, batch_ns, end - cur);
                self.step = next_step;
                sleep
            }
            None => Duration::ZERO,
        };
        Ok(Step::Again { sleep })
    }

    fn checkpoint(&mut self, store: &BlockStore<B>) -> Result<(), StoreError> {
        store.persist(Record::Progress(&store.state_read()))
    }

    fn into_report(self) -> ScrubReport {
        self.report
    }
}

impl<B: Backend> BlockStore<B> {
    /// Runs one full scrub pass on the calling thread: every stripe
    /// of every layout copy is read, checksum-verified, checked for
    /// parity consistency, and repaired in place where possible (see
    /// the module docs). Resumes from a persisted cursor if the
    /// previous pass was stopped or crashed. Errors with
    /// [`StoreError::ScrubInProgress`] if another scrub is running and
    /// [`StoreError::ReshapeInProgress`] if a reshape is active.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let _admitted = self.admit_scrub()?;
        self.run_job(ScrubJob::new(self, None))
    }

    /// Starts scrubbing on a background thread — paced passes back to
    /// back, each resuming at the store's cursor, parking while a
    /// reshape runs — and returns a handle to stop or join it. A stop
    /// checkpoints the cursor, so a later scrub resumes from it. Same
    /// admission error as [`BlockStore::scrub`].
    pub fn start_scrub(self: &Arc<Self>) -> Result<JobHandle<ScrubReport>, StoreError>
    where
        B: 'static,
    {
        let admitted = self.admit_scrub()?;
        Ok(self.spawn_job("pdl-scrub", admitted, ScrubJob::new(self, Some(ScrubPacer::new()))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rest between background passes is the pass's wall time
    /// stretched to the load budget, and never more than a second.
    #[test]
    fn rest_is_the_budget_share_of_the_pass_capped_at_a_second() {
        let ratio = (1.0 - LOAD_BUDGET) / LOAD_BUDGET;
        for ms in [0u64, 1, 10, 100, 249, 250] {
            let pass = Duration::from_millis(ms);
            let rest = rest_after(pass);
            assert_eq!(rest, pass.mul_f64(ratio), "pass of {ms} ms");
            assert!(rest <= MAX_REST, "pass of {ms} ms");
        }
        assert_eq!(rest_after(Duration::from_millis(10)), Duration::from_millis(40));
        for ms in [251u64, 1_000, 60_000] {
            assert_eq!(rest_after(Duration::from_millis(ms)), MAX_REST, "pass of {ms} ms");
        }
    }
}
