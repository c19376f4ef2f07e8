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
//! A scrub pass is a `ScrubJob` pumped by the maintenance runner
//! ([`crate::maintenance`]), which owns admission (one scrub of any
//! flavor at a time, else [`StoreError::ScrubInProgress`]), the
//! background thread, stopping, and sleeping. This module is the job
//! itself — one step is one batch of stripes:
//!
//! - **Races live traffic safely.** Each stripe is verified under its
//!   exclusive stripe shard lock — the same lock writers take — so a
//!   scrub never sees a half-written stripe. Between stripes the
//!   scrubber holds only the shared array-state guard, so reads and
//!   writes proceed concurrently; an optional per-batch sleep (fixed,
//!   or adapted to client load by the maintenance pacer) bounds the
//!   bandwidth it steals.
//! - **Yields to reshape** — the runner's one arbitration rule. Stripe
//!   indices change meaning across worlds, so a reshape resets the
//!   scrub cursor and a step taken while one is active answers
//!   `Yield`: a stoppable pass parks until the reshape commits, a
//!   foreground [`BlockStore::scrub`] (which nobody could stop) fails
//!   with [`StoreError::ReshapeInProgress`].
//! - **Crash-resumable.** Every `checkpoint_stripes` stripes, at pass
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
use crate::maintenance::{Job, JobHandle, ScrubPacer, Step};
use crate::meta::Record;
use crate::obs::{Event, OpKind};
use crate::store::BlockStore;

/// Tuning for a scrub pass.
#[derive(Clone, Debug)]
pub struct ScrubConfig {
    /// Stripes verified per batch (between rate-limit sleeps and
    /// stop-flag checks). Each stripe is locked individually, so this
    /// bounds bookkeeping, not lock hold time.
    pub stripes_per_step: usize,
    /// Microseconds slept between batches — the rate limit. `0`
    /// scrubs flat out.
    pub sleep_us: u64,
    /// Stripes between durable cursor checkpoints (`store.json` plus
    /// the checksum sidecar). `0` checkpoints only at pass end.
    /// Ignored for stores without an array directory (memory-backed
    /// stores have nothing to checkpoint).
    pub checkpoint_stripes: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig { stripes_per_step: 64, sleep_us: 0, checkpoint_stripes: 512 }
    }
}

/// What a completed (or stopped) scrub pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Global stripe cursor the pass started from (`0` for a fresh
    /// pass, non-zero when resuming after a crash or stop).
    pub resumed_from: u64,
    /// Stripes verified by this pass.
    pub stripes: u64,
    /// Units rewritten because their bytes failed the recorded
    /// checksum (latent corruption repaired by erasure decode).
    pub checksum_repairs: u64,
    /// Parity units recomputed because the parity equations did not
    /// hold over verified data.
    pub parity_repairs: u64,
    /// Whether the pass walked every stripe (`false` when stopped
    /// early via [`JobHandle::stop`]).
    pub completed: bool,
}

/// One scrub pass as a maintenance job: each step verifies one batch
/// of stripes from the store's scrub cursor.
#[derive(Debug)]
pub(crate) struct ScrubJob {
    cfg: ScrubConfig,
    /// Load-aware pacing (see [`crate::maintenance`]): resizes the
    /// batch and sets the sleep after each one.
    pacer: Option<ScrubPacer>,
    step: u64,
    since_ckpt: u64,
    /// What the current pass has done so far.
    pub(crate) report: ScrubReport,
}

impl ScrubJob {
    /// Opens a pass at the store's scrub cursor (non-zero when the
    /// previous pass was stopped or crashed). The caller holds the
    /// scrub admission.
    pub(crate) fn new<B: Backend>(
        store: &BlockStore<B>,
        cfg: ScrubConfig,
        pacer: Option<ScrubPacer>,
    ) -> Self {
        let report = ScrubReport::default();
        let mut job = ScrubJob { cfg, pacer, step: 1, since_ckpt: 0, report };
        job.begin_pass(store);
        job
    }

    /// Starts the next pass (a continuous scrub reuses the job, and
    /// with it the pacer's cost model, pass after pass).
    pub(crate) fn begin_pass<B: Backend>(&mut self, store: &BlockStore<B>) {
        self.step = match &mut self.pacer {
            Some(p) => {
                p.reset_pass(&store.metrics);
                p.step
            }
            None => self.cfg.stripes_per_step,
        }
        .max(1) as u64;
        self.since_ckpt = 0;
        let cursor = store.scrub_cursor.load(Ordering::Acquire);
        self.report = ScrubReport { resumed_from: cursor, ..ScrubReport::default() };
        store.events.emit(|| Event::ScrubStarted { cursor });
    }
}

impl<B: Backend> Job<B> for ScrubJob {
    type Report = ScrubReport;

    fn step(&mut self, store: &BlockStore<B>) -> Result<Step, StoreError> {
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
            if self.pacer.is_some() {
                store.maint.paced_passes.fetch_add(1, Ordering::Relaxed);
            }
            store.scrub_cursor.store(0, Ordering::Release);
            store.persist(Record::Progress(&st))?;
            self.report.completed = true;
            drop(st);
            let r = self.report;
            store.events.emit(|| Event::ScrubCompleted {
                stripes: r.stripes,
                checksum_repairs: r.checksum_repairs,
                parity_repairs: r.parity_repairs,
            });
            if store.integrity.health.has_pending() {
                store.apply_pending_health();
            }
            return Ok(Step::Done);
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
        if self.cfg.checkpoint_stripes > 0 && self.since_ckpt >= self.cfg.checkpoint_stripes {
            store.persist(Record::Progress(&st))?;
            self.since_ckpt = 0;
        }
        drop(st);
        if store.integrity.health.has_pending() {
            store.apply_pending_health();
        }
        let mut sleep_us = self.cfg.sleep_us;
        if let Some(p) = &mut self.pacer {
            let (next_step, pace_sleep_us) =
                p.pace(&store.metrics, &store.maint, batch_ns, end - cur);
            self.step = next_step.max(1) as u64;
            sleep_us = sleep_us.max(pace_sleep_us);
        }
        Ok(Step::Again { sleep: Duration::from_micros(sleep_us) })
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
    /// previous pass crashed. Errors with
    /// [`StoreError::ScrubInProgress`] if another pass is running and
    /// [`StoreError::ReshapeInProgress`] if a reshape is active.
    pub fn scrub(&self, cfg: &ScrubConfig) -> Result<ScrubReport, StoreError> {
        let _admitted = self.admit_scrub()?;
        self.run_job(ScrubJob::new(self, cfg.clone(), None), None)
    }

    /// Starts a scrub pass on a background thread and returns a
    /// handle to stop or join it; a stopped pass checkpoints its
    /// cursor, so a later pass resumes from it.
    pub fn start_scrub(
        self: &Arc<Self>,
        cfg: ScrubConfig,
    ) -> Result<JobHandle<ScrubReport>, StoreError>
    where
        B: 'static,
    {
        let admitted = self.admit_scrub()?;
        Ok(self.spawn_job("pdl-scrub", admitted, ScrubJob::new(self, cfg, None)))
    }
}
