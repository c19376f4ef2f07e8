//! # Async I/O engine: per-disk submission queues with depth-aware
//! # scheduling
//!
//! With the engine off, the store's dispatcher (`io.rs`) calls
//! [`Backend`] methods inline, so one caller thread drives at most
//! one disk at a time and the declustering advantage — one client's
//! I/O spread over all `v` disks — is throttled by caller-thread
//! count. This module turns that boundary into
//! **submit-and-complete**: the dispatcher enqueues work on per-disk
//! [`DiskQueue`]s and blocks only on [`Completion`] tokens, while a
//! worker pool keeps every disk busy up to a fixed queue depth.
//! A single caller submitting an 8-run batch gets 8 disks seeking in
//! parallel.
//!
//! Queueing pays only where there is latency to overlap. A hand-off —
//! submit, wake a worker, wake the caller — costs 13–18 µs on a 2-vCPU
//! VM (the benchmark's `engine.roundtrip_us`); a run on a memory-speed
//! disk or a cached file takes one to three, a run on a device a
//! hundred or more. So the dispatcher keeps on the caller's thread
//! every run whose disk's EWMA service time is below one constant,
//! `INLINE_BELOW_NS` (20 µs), far from both. Those inline runs are
//! timed into the same EWMA the workers feed, so a disk that starts
//! stalling moves to the queues and one that recovers moves back; a
//! disk not yet timed queues. Each disk's inline runs are counted in
//! its snapshot (`inline`).
//!
//! ## Architecture
//!
//! * **[`DiskQueue`]** — one per logical disk: a bounded ring of
//!   pending requests split into two priority lanes (client and
//!   maintenance), an in-flight depth counter, and an EWMA of
//!   backend service time. Submission blocks (backpressure) when the
//!   ring is full.
//! * **Worker pool** — OS threads each servicing *any* queue: a
//!   worker scans the queues with requests waiting for the eligible
//!   one with the lowest expected drain time (`(in_flight + 1) ×
//!   ewma_service_ns`), pops one request, executes its backend call,
//!   and fulfils its completion. Plain condvar/atomic wakeups — no
//!   async runtime.
//! * **Grown by demand** — the pool starts empty and gains one worker
//!   whenever a request waits while every worker is inside a backend
//!   call. The worker that takes a call and leaves requests waiting
//!   spawns it, so a burst grows the pool off the submitter's thread;
//!   a submitter spawns one only when its request meets a pool already
//!   saturated, where it would otherwise wait out a whole call — as
//!   the first request queued on the empty pool does. The
//!   pool grows to at most `min(disks × 8, 64)` workers: as many calls
//!   as the depth ceiling lets the array hold in flight, but never a
//!   thread per disk of a wide array ([`EngineConfig::workers`] lowers
//!   the ceiling). It never shrinks, and an idle pool costs nothing: a
//!   worker whose scan comes up empty parks on a condvar with no
//!   polling timeout, unless a submission or a freed in-flight slot
//!   came since its scan began (checked under the parking lock, so no
//!   wake-up is lost).
//! * **One request, one call** — a pop takes the head of the chosen
//!   lane and nothing else, so every queued request is exactly one
//!   backend call (one `read_units` span / one `write_units_gather`)
//!   and carries one caller's run. The store already merges adjacent
//!   units into runs before it submits them.
//! * **Depth-aware scheduling** — a queue is eligible only while its
//!   in-flight call count is below a fixed ceiling of 8, so multiple
//!   workers can overlap calls to the *same* disk (useful for
//!   seek-free backends and kernel-level queueing) without
//!   unboundedly piling on. The ceiling is a constant, not a knob. A
//!   sweep over depths 2 / 4 / 8 on the modelled device of the
//!   benchmark's `engine_batch_device` (four 4 s runs each, 2 vCPUs)
//!   gave 127–132 / 172–178 / 172–190 MB/s of rebuild and client
//!   calls flat (5,270–5,500 calls/s at every depth), so it stays 8.
//!   An older sweep over 2 / 8 / 32 read flat only because one worker
//!   per disk capped the calls in flight below any of those depths.
//! * **Arbitration** — the client lane strictly outranks the
//!   maintenance lane (rebuild/scrub/reshape prefetch submit at
//!   [`Priority::Maintenance`]), extending the store's
//!   client-over-maintenance arbitration rules to the queue tier.
//!   Each deferral is counted in `maintenance_deferred`. It orders
//!   only runs that queue: inline runs never wait on a lane.
//!
//! ## Completion semantics
//!
//! [`Engine::submit_read_units`] / [`Engine::submit_write_gather`]
//! return a [`Completion`] token. `wait` blocks until the worker
//! fulfils it and yields the read bytes (empty for writes) or the
//! backend error; the store's dispatcher waits on every token of a
//! batch before it reports the first error, so none is abandoned. Every
//! backend call runs under [`Integrity::retrying`], so transient
//! errors retry with the same backoff and per-disk health accounting
//! as the synchronous path. A backend call that panics fails its
//! request with an error; the worker that made it serves on.
//!
//! On [`Engine::stop`] (also invoked by `Drop`), workers drain every
//! queue before exiting and any request that slips in after the
//! drain is completed with an error by a final sweep — a token
//! handed out is **always** fulfilled; none leak on error or
//! shutdown. A request refused or swept this way never reached the
//! backend and its error says so (`is_engine_down`), which is what
//! lets the store's dispatcher issue it inline instead of failing the
//! client call when the engine is stopped under live traffic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::backend::Backend;
use crate::error::StoreError;
use crate::integrity::Integrity;
use crate::obs::LatencyHistogram;
use crate::store::BlockStore;
use serde::{Deserialize, Serialize};

/// Per-disk in-flight call ceiling: a queue stops being eligible for
/// dispatch while this many backend calls are outstanding against its
/// disk.
const TARGET_DEPTH: usize = 8;

/// The most worker threads a pool grows to, however wide the array:
/// without it a v = 1,021 array could grow a thousand threads.
const MAX_WORKERS: usize = 64;

/// The EWMA service time below which a disk's runs are issued on the
/// caller's thread instead of queued. A hand-off through the pool costs
/// 13–18 µs on a 2-vCPU VM; a page-cached file run takes 2–3 µs and a
/// modelled device at least 100, so both sit far from it. A prototype
/// at 50 µs lost throughput on the file array, so a larger value needs
/// measuring first.
pub(crate) const INLINE_BELOW_NS: u64 = 20_000;

/// Per-disk pending-request ceiling (both lanes combined); submission
/// blocks when reached.
const QUEUE_CAPACITY: usize = 256;

/// Submission priority: which [`DiskQueue`] lane a request joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Foreground client I/O — always serviced first.
    Client,
    /// Background maintenance I/O (rebuild, scrub, reshape
    /// prefetch) — serviced only when the client lane is empty.
    Maintenance,
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// The most worker threads the pool grows to. `0` means the
    /// default, `min(disks × 8, 64)`: every call the per-disk depth
    /// ceiling lets the array hold in flight gets a thread, up to a
    /// fixed cap. A larger value is clamped to that default. The pool
    /// starts empty and grows while requests wait on a pool whose every
    /// worker is busy.
    pub workers: usize,
}

/// What a queued request asks of the disk.
enum ReqOp {
    /// Read `units` units into a fresh buffer.
    Read,
    /// Write these bytes (length = `units × unit_size`).
    Write(Vec<u8>),
}

/// One pending request in a [`DiskQueue`] lane.
struct Request {
    /// Starting unit offset on the disk.
    offset: usize,
    /// Span length in units.
    units: usize,
    op: ReqOp,
    done: Arc<CompletionState>,
    /// Submission instant, for the queue-wait histogram.
    submitted: Instant,
}

/// Shared slot a worker fulfils and a caller waits on.
#[derive(Default)]
struct CompletionState {
    slot: Mutex<Option<Result<Vec<u8>, StoreError>>>,
    cv: Condvar,
}

impl CompletionState {
    fn fulfil(&self, r: Result<Vec<u8>, StoreError>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "completion fulfilled twice");
        *slot = Some(r);
        self.cv.notify_all();
    }
}

/// A token for one submitted request. Redeem it with
/// [`Completion::wait`]; the engine guarantees it will be fulfilled
/// even on error or shutdown.
#[must_use = "a completion must be waited on, or its result is lost"]
pub struct Completion {
    state: Arc<CompletionState>,
}

impl Completion {
    /// Blocks until the request finishes; returns the bytes read
    /// (empty for writes) or the backend error.
    pub fn wait(self) -> Result<Vec<u8>, StoreError> {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.state.cv.wait(slot).unwrap();
        }
    }
}

/// The two priority lanes of a disk's pending ring.
#[derive(Default)]
struct Lanes {
    client: VecDeque<Request>,
    maint: VecDeque<Request>,
}

impl Lanes {
    fn len(&self) -> usize {
        self.client.len() + self.maint.len()
    }
}

/// One disk's bounded submission ring plus its scheduling state.
///
/// The ring is two FIFO lanes behind one mutex; `in_flight` and the
/// EWMA service time are read lock-free by the dispatcher's
/// eligibility scan.
pub struct DiskQueue {
    lanes: Mutex<Lanes>,
    /// Signalled when a pop makes room for a blocked submitter.
    not_full: Condvar,
    /// Requests waiting in either lane — changed only under the lane
    /// lock, read lock-free by the dispatcher's eligibility scan.
    queued: AtomicUsize,
    /// Outstanding backend calls against this disk.
    in_flight: AtomicUsize,
    /// EWMA of backend service time, ns (α = 1/8; 0 = no sample yet).
    ewma_ns: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    /// Runs the dispatcher issued on its caller's thread instead.
    inline: AtomicU64,
}

impl DiskQueue {
    fn new() -> Self {
        DiskQueue {
            lanes: Mutex::new(Lanes::default()),
            not_full: Condvar::new(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            ewma_ns: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            inline: AtomicU64::new(0),
        }
    }

    /// Expected time to drain this queue's outstanding work if one
    /// more call were dispatched — the dispatcher picks the minimum.
    fn score(&self) -> u64 {
        let ewma = self.ewma_ns.load(Ordering::Relaxed).max(1);
        (self.in_flight.load(Ordering::Relaxed) as u64 + 1).saturating_mul(ewma)
    }

    /// Folds a service-time sample into the EWMA (α = 1/8).
    fn note_service(&self, ns: u64) {
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
    }
}

/// Shared engine state: queues, counters, and worker coordination.
struct Inner<B> {
    backend: Arc<B>,
    integrity: Arc<Integrity>,
    queues: Vec<DiskQueue>,
    /// The most workers the pool grows to ([`EngineConfig::workers`],
    /// resolved).
    ceiling: usize,
    /// One handle per worker ever started. A worker that grows the
    /// pool pushes here, under this lock and only before shutdown, so
    /// [`Engine::stop`] joins every worker.
    pool: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Workers started so far: the pool's length, read without its lock.
    workers: AtomicUsize,
    /// Workers inside a backend call, from pop to completion.
    busy: AtomicUsize,
    /// [`Inner::grow`], kept here so a submitter can grow the pool
    /// without the `'static` bound a thread spawn needs.
    grow: fn(&Arc<Inner<B>>) -> std::io::Result<()>,
    /// Total requests pending across every queue.
    pending: AtomicUsize,
    /// Bumped whenever a request may have become poppable: at every
    /// submission, and when a call frees an in-flight slot while
    /// requests wait. A worker parks only if it is unchanged since its
    /// scan began.
    wakeups: AtomicU64,
    /// Workers parked on `work_cv`; changed under `work_m`.
    parked: AtomicUsize,
    /// Parking lot for idle workers.
    work_m: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    // Global tallies for StatsSnapshot.
    client_submitted: AtomicU64,
    maint_submitted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    /// Maintenance requests that waited behind a non-empty client
    /// lane — the queue-tier arbitration counter.
    maintenance_deferred: AtomicU64,
    /// Time from submission to dequeue, per request.
    queue_wait: LatencyHistogram,
}

/// The submit-and-complete I/O engine over a shared [`Backend`].
///
/// Construct with [`Engine::start`]; submit with
/// [`Engine::submit_read_units`] / [`Engine::submit_write_gather`];
/// redeem the returned [`Completion`] tokens. The README's "Async
/// engine" section describes the scheduling model.
pub struct Engine<B> {
    inner: Arc<Inner<B>>,
}

impl<B: std::fmt::Debug> std::fmt::Debug for Engine<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("disks", &self.inner.queues.len())
            .field("ceiling", &self.inner.ceiling)
            .finish_non_exhaustive()
    }
}

impl<B: Backend + Send + Sync + 'static> Engine<B> {
    /// Starts an engine over `backend` with an empty pool; the first
    /// queued request brings up its first worker. `integrity` supplies
    /// the retry policy and per-disk health accounting, identical to
    /// the synchronous path.
    pub fn start(backend: Arc<B>, integrity: Arc<Integrity>, cfg: EngineConfig) -> Arc<Self> {
        Arc::new(Engine { inner: Arc::new(Inner::new(backend, integrity, cfg)) })
    }
}

impl<B: Backend + 'static> Inner<B> {
    /// The queues and counters of an engine whose pool is not yet
    /// started (`cfg.workers == 0` resolved to the default ceiling).
    fn new(backend: Arc<B>, integrity: Arc<Integrity>, cfg: EngineConfig) -> Self {
        let disks = backend.disks();
        let most = (disks * TARGET_DEPTH).clamp(1, MAX_WORKERS);
        let ceiling = match cfg.workers {
            0 => most,
            n => n.min(most),
        };
        Inner {
            backend,
            integrity,
            queues: (0..disks).map(|_| DiskQueue::new()).collect(),
            ceiling,
            pool: Mutex::default(),
            workers: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            grow: Self::grow,
            pending: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            work_m: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            client_submitted: AtomicU64::new(0),
            maint_submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            maintenance_deferred: AtomicU64::new(0),
            queue_wait: LatencyHistogram::default(),
        }
    }

    /// Adds one worker to the pool, unless it is at its ceiling or the
    /// engine is stopping.
    fn grow(self: &Arc<Self>) -> std::io::Result<()> {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() >= self.ceiling || self.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let (inner, wid) = (Arc::clone(self), pool.len());
        let worker = std::thread::Builder::new()
            .name(format!("pdl-engine-{wid}"))
            .spawn(move || worker_loop(&inner, wid))?;
        pool.push(worker);
        self.workers.store(pool.len(), Ordering::SeqCst);
        Ok(())
    }
}

impl<B> Inner<B> {
    /// Tells the pool a request may have become poppable: bumps
    /// `wakeups` and, if a worker is parked, wakes one. Taking
    /// `work_m` before the notify means a worker between its check of
    /// `wakeups` and its wait cannot miss it; a worker that counted
    /// itself parked after this load re-reads `wakeups` and does not
    /// wait (both sides are `SeqCst`, so one of them sees the other).
    fn wake_one(&self) {
        self.wakeups.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.work_m.lock().unwrap());
            self.work_cv.notify_one();
        }
    }

    /// Adds a worker if a request waits while every worker is inside a
    /// backend call, so none would take it before a call finishes.
    /// Checked where that can start: when a worker takes a call, and
    /// when a request is queued. Both sides raise their own counter
    /// (`busy`, `pending`) before reading the other's, so whichever
    /// comes second in a race sees the pool saturated. A worker just
    /// started counts as free until its first call, so a burst grows
    /// the pool one worker per call taken, not one per request. A pool
    /// that cannot grow serves with the workers it has.
    fn grow_if_saturated(self: &Arc<Self>) {
        let workers = self.workers.load(Ordering::SeqCst);
        if workers < self.ceiling
            && self.busy.load(Ordering::SeqCst) >= workers
            && self.pending.load(Ordering::SeqCst) > 0
        {
            let _ = (self.grow)(self);
        }
    }
}

impl<B: Backend> Engine<B> {
    /// Submits a read of `units` units starting at unit `offset` on
    /// `disk`. The completion yields `units × unit_size` bytes.
    pub fn submit_read_units(
        &self,
        disk: usize,
        offset: usize,
        units: usize,
        prio: Priority,
    ) -> Result<Completion, StoreError> {
        self.submit(disk, offset, units, ReqOp::Read, prio)
    }

    /// Submits a write of `data` (a whole number of units) starting
    /// at unit `offset` on `disk`. The completion yields an empty
    /// buffer.
    pub fn submit_write_gather(
        &self,
        disk: usize,
        offset: usize,
        data: Vec<u8>,
        prio: Priority,
    ) -> Result<Completion, StoreError> {
        let us = self.inner.backend.unit_size();
        debug_assert!(us > 0 && data.len().is_multiple_of(us) && !data.is_empty());
        let units = data.len() / us;
        self.submit(disk, offset, units, ReqOp::Write(data), prio)
    }

    fn submit(
        &self,
        disk: usize,
        offset: usize,
        units: usize,
        op: ReqOp,
        prio: Priority,
    ) -> Result<Completion, StoreError> {
        let inner = &self.inner;
        let q = inner.queues.get(disk).ok_or(StoreError::OutOfRange { disk, offset })?;
        let state = Arc::new(CompletionState::default());
        let req =
            Request { offset, units, op, done: Arc::clone(&state), submitted: Instant::now() };
        let mut lanes = q.lanes.lock().unwrap();
        while lanes.len() >= QUEUE_CAPACITY {
            if inner.shutdown.load(Ordering::Acquire) {
                return Err(engine_down());
            }
            lanes = q.not_full.wait(lanes).unwrap();
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(engine_down());
        }
        // Tallied under the lane lock, before a worker can complete it.
        let (lane, submitted) = match prio {
            Priority::Client => (&mut lanes.client, &inner.client_submitted),
            Priority::Maintenance => (&mut lanes.maint, &inner.maint_submitted),
        };
        lane.push_back(req);
        submitted.fetch_add(1, Ordering::Relaxed);
        q.submitted.fetch_add(1, Ordering::Relaxed);
        q.queued.fetch_add(1, Ordering::Relaxed);
        drop(lanes);
        inner.pending.fetch_add(1, Ordering::SeqCst);
        inner.wake_one();
        inner.grow_if_saturated();
        Ok(Completion { state })
    }
}

impl<B> Engine<B> {
    /// Whether a run on `disk` is cheaper issued on the caller's
    /// thread: its disk has been timed, and serves in less than
    /// [`INLINE_BELOW_NS`]. An untimed disk queues (as does a disk out
    /// of range, for `submit` to refuse).
    pub(crate) fn serves_inline(&self, disk: usize) -> bool {
        let ewma = self.inner.queues.get(disk).map_or(0, |q| q.ewma_ns.load(Ordering::Relaxed));
        ewma != 0 && ewma < INLINE_BELOW_NS
    }

    /// Books a run the dispatcher issued inline on `disk`: its service
    /// time joins the EWMA the workers feed, so whichever route the
    /// disk takes keeps the estimate that picks the route current.
    pub(crate) fn note_inline(&self, disk: usize, ns: u64) {
        let q = &self.inner.queues[disk];
        q.note_service(ns);
        q.inline.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time engine statistics for
    /// [`crate::StatsSnapshot`].
    pub(crate) fn snapshot(&self) -> EngineStatsSnapshot {
        let inner = &self.inner;
        EngineStatsSnapshot {
            workers: inner.workers.load(Ordering::Relaxed),
            client_submitted: inner.client_submitted.load(Ordering::Relaxed),
            maintenance_submitted: inner.maint_submitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            errors: inner.errors.load(Ordering::Relaxed),
            maintenance_deferred: inner.maintenance_deferred.load(Ordering::Relaxed),
            queue_wait_log2_ns: inner.queue_wait.snapshot(),
            disks: inner
                .queues
                .iter()
                .enumerate()
                .map(|(d, q)| EngineDiskSnapshot {
                    disk: d,
                    queued: q.lanes.lock().unwrap().len() as u64,
                    in_flight: q.in_flight.load(Ordering::Relaxed) as u64,
                    ewma_service_us: q.ewma_ns.load(Ordering::Relaxed) / 1_000,
                    submitted: q.submitted.load(Ordering::Relaxed),
                    completed: q.completed.load(Ordering::Relaxed),
                    coalesced: 0,
                    inline: q.inline.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl<B> Engine<B> {
    /// Stops the engine: drains every queue, joins the workers, and
    /// fulfils (with an error) any request that slipped in during
    /// the drain. Idempotent; also called by `Drop`.
    pub fn stop(&self) {
        let inner = &self.inner;
        inner.shutdown.store(true, Ordering::Release);
        drop(inner.work_m.lock().unwrap());
        inner.work_cv.notify_all();
        for q in &inner.queues {
            q.not_full.notify_all();
        }
        // No worker grows the pool once `shutdown` is set.
        let handles = std::mem::take(&mut *inner.pool.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Post-join sweep: nothing should remain, but a racing
        // submitter that held a clone of the Arc may have pushed
        // after the drain. Never leak a token.
        for q in &inner.queues {
            let mut lanes = q.lanes.lock().unwrap();
            let leftovers: Vec<Request> = lanes
                .client
                .drain(..)
                .collect::<Vec<_>>()
                .into_iter()
                .chain(lanes.maint.drain(..))
                .collect();
            q.queued.store(0, Ordering::Relaxed);
            drop(lanes);
            for req in leftovers {
                inner.pending.fetch_sub(1, Ordering::Relaxed);
                // Completed-with-error, like any other failed request:
                // `completed == submitted` holds on this exit path too.
                q.completed.fetch_add(1, Ordering::Relaxed);
                inner.completed.fetch_add(1, Ordering::Relaxed);
                inner.errors.fetch_add(1, Ordering::Relaxed);
                req.done.fulfil(Err(engine_down()));
            }
        }
    }
}

impl<B> Drop for Engine<B> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Payload of the error a request receives when the engine shuts down
/// before running it.
#[derive(Debug)]
struct EngineDown;

impl std::fmt::Display for EngineDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("I/O engine shut down with request pending")
    }
}

impl std::error::Error for EngineDown {}

/// The error a token receives when the engine shuts down under it.
fn engine_down() -> StoreError {
    StoreError::Io(std::io::Error::other(EngineDown))
}

/// Whether `e` is the engine refusing (at submit) or sweeping (at
/// stop) a request it never ran — the backend saw nothing, so the
/// request may be issued again on another path.
pub(crate) fn is_engine_down(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(io) if io.get_ref().is_some_and(|r| r.is::<EngineDown>()))
}

/// Worker thread body: scan → pop → (grow) → execute → fulfil, and
/// park when a scan comes up empty.
fn worker_loop<B: Backend + 'static>(inner: &Arc<Inner<B>>, wid: usize) {
    loop {
        let seen = inner.wakeups.load(Ordering::SeqCst);
        if let Some((disk, req)) = next_request(inner, wid) {
            inner.grow_if_saturated();
            execute(inner, disk, req);
            continue;
        }
        let guard = inner.work_m.lock().unwrap();
        if inner.shutdown.load(Ordering::Acquire) {
            if inner.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // What still waits is on queues at their depth ceiling;
            // their workers rescan when their calls finish.
            drop(guard);
            std::thread::yield_now();
            continue;
        }
        // The scan came up empty: nothing waits, or every queue with
        // requests waiting is at its depth ceiling. Sleep until a
        // submission or a freed slot says otherwise — unless one
        // already has since the scan began (see `Inner::wake_one`).
        inner.parked.fetch_add(1, Ordering::SeqCst);
        let guard = if inner.wakeups.load(Ordering::SeqCst) == seen {
            inner.work_cv.wait(guard).unwrap()
        } else {
            guard
        };
        inner.parked.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
    }
}

/// Picks the eligible queue with the lowest expected drain time
/// (depth-aware: `in_flight` must be under [`TARGET_DEPTH`]) among
/// those with requests *waiting*, and pops one request from it.
/// Scanning starts at `wid` so workers spread over disks when scores
/// tie. A queue emptied by another worker between the scan and the
/// lane lock sends the scan round again rather than parking the worker
/// while other queues still wait — its `queued` reads zero by then, so
/// the rescan moves on.
fn next_request<B: Backend>(inner: &Inner<B>, wid: usize) -> Option<(usize, Request)> {
    let n = inner.queues.len();
    loop {
        if n == 0 || inner.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for i in 0..n {
            let d = (wid + i) % n;
            let q = &inner.queues[d];
            if q.in_flight.load(Ordering::Relaxed) >= TARGET_DEPTH
                || q.queued.load(Ordering::Relaxed) == 0
            {
                continue;
            }
            let s = q.score();
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((d, s));
            }
        }
        let (disk, _) = best?;
        let q = &inner.queues[disk];
        let mut lanes = q.lanes.lock().unwrap();
        // Strict priority: drain the client lane first; count every
        // maintenance request it bypasses as deferred.
        let lane = if !lanes.client.is_empty() {
            if !lanes.maint.is_empty() {
                inner.maintenance_deferred.fetch_add(lanes.maint.len() as u64, Ordering::Relaxed);
            }
            &mut lanes.client
        } else if !lanes.maint.is_empty() {
            &mut lanes.maint
        } else {
            continue; // lost the race for this queue's last request
        };
        let req = lane.pop_front().expect("lane checked non-empty");
        // Reserve the in-flight slot before releasing the lane lock so
        // a concurrent scan sees the updated depth.
        q.in_flight.fetch_add(1, Ordering::Relaxed);
        q.queued.fetch_sub(1, Ordering::Relaxed);
        drop(lanes);
        q.not_full.notify_all();
        inner.busy.fetch_add(1, Ordering::SeqCst);
        inner.pending.fetch_sub(1, Ordering::SeqCst);
        inner.queue_wait.record(req.submitted.elapsed().as_nanos() as u64);
        return Some((disk, req));
    }
}

/// Executes one request against the backend (under the integrity
/// retry/health wrapper) and fulfils its token. A backend call that
/// panics fails its request, not the worker: the token gets an error
/// and the counters settle as for any failed call, so no caller waits
/// forever on it.
fn execute<B: Backend>(inner: &Inner<B>, disk: usize, req: Request) {
    let q = &inner.queues[disk];
    let Request { offset, units, op, done, .. } = req;
    let t0 = Instant::now();
    let call = std::panic::AssertUnwindSafe(|| match op {
        ReqOp::Read => {
            let mut buf = vec![0u8; units * inner.backend.unit_size()];
            inner
                .integrity
                .retrying(disk, || inner.backend.read_units(disk, offset, &mut buf))
                .map(|()| buf)
        }
        ReqOp::Write(data) => inner
            .integrity
            .retrying(disk, || inner.backend.write_units_gather(disk, offset, &[&data]))
            .map(|()| Vec::new()),
    });
    let result = std::panic::catch_unwind(call)
        .unwrap_or_else(|_| Err(StoreError::Io(std::io::Error::other("backend call panicked"))));
    q.note_service(t0.elapsed().as_nanos() as u64);
    q.in_flight.fetch_sub(1, Ordering::Relaxed);
    inner.busy.fetch_sub(1, Ordering::SeqCst);
    if inner.pending.load(Ordering::SeqCst) > 0 {
        // The freed in-flight slot may make a depth-capped queue
        // eligible again; wake a parked worker to rescan.
        inner.wake_one();
    }
    q.completed.fetch_add(1, Ordering::Relaxed);
    inner.completed.fetch_add(1, Ordering::Relaxed);
    if result.is_err() {
        inner.errors.fetch_add(1, Ordering::Relaxed);
    }
    done.fulfil(result);
}

/// The store's handle on its engine: the only place a [`BlockStore`]
/// starts, stops, or hands out the engine. I/O reaches it through the
/// dispatcher in `io.rs`, never directly.
impl<B: Backend> BlockStore<B> {
    /// Whether the async I/O engine is currently running.
    pub(crate) fn engine_running(&self) -> bool {
        self.engine_on.load(Ordering::Acquire)
    }

    /// The running engine, if any. One atomic load when the engine is
    /// off; a read-lock + `Arc` clone when on. Only the dispatcher
    /// (`io.rs`) and `stats()` ask.
    #[inline]
    pub(crate) fn engine_if_on(&self) -> Option<Arc<Engine<B>>> {
        if !self.engine_running() {
            return None;
        }
        self.engine.read().unwrap().clone()
    }

    /// Starts the submit-and-complete async I/O engine (see
    /// [`Engine`]) with an empty worker pool, which grows as requests
    /// queue. Multi-run transfers then submit at once every per-disk
    /// run whose disk serves in 20 µs or more (or is not yet timed),
    /// and issue the rest on the calling thread meanwhile, so the
    /// engine costs little on a fast device and overlaps a slow one. Replaces a previously
    /// running engine, which is drained first and whose final counters
    /// are returned. Safe under live traffic: a call in flight
    /// finishes each of its runs on whichever path accepted it. The
    /// `'static` bound is what lets the engine's worker threads share
    /// the backend beyond any caller's stack frame.
    pub fn start_engine(&self, cfg: EngineConfig) -> Option<EngineStatsSnapshot>
    where
        B: Send + Sync + 'static,
    {
        let eng = Engine::start(Arc::clone(&self.backend), Arc::clone(&self.integrity), cfg);
        self.swap_engine(Some(eng))
    }

    /// Stops the async engine (if running): drains its queues, joins
    /// the workers, returns the store to inline backend calls, and
    /// hands back the engine's final counters. Idempotent, and safe
    /// under live traffic: runs the stopping engine no longer accepts
    /// are issued inline by the calls that own them, so no client
    /// call fails because of the switch.
    pub fn stop_engine(&self) -> Option<EngineStatsSnapshot> {
        self.swap_engine(None)
    }

    /// Installs `new` (flag and slot change together under the write
    /// lock), then stops whatever engine was running before.
    fn swap_engine(&self, new: Option<Arc<Engine<B>>>) -> Option<EngineStatsSnapshot> {
        let old = {
            let mut slot = self.engine.write().unwrap();
            self.engine_on.store(new.is_some(), Ordering::Release);
            std::mem::replace(&mut *slot, new)
        };
        old.map(|old| {
            old.stop();
            old.snapshot()
        })
    }
}

/// Per-disk queue gauges in an [`EngineStatsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineDiskSnapshot {
    /// Logical disk index.
    pub disk: usize,
    /// Requests currently queued (both lanes).
    pub queued: u64,
    /// Backend calls currently outstanding.
    pub in_flight: u64,
    /// EWMA backend service time, µs.
    pub ewma_service_us: u64,
    /// Requests ever submitted to this queue.
    pub submitted: u64,
    /// Requests ever completed.
    pub completed: u64,
    /// Always 0: a pop takes one request, so nothing is merged. Kept
    /// so readers of the snapshot's serialized form still find it.
    pub coalesced: u64,
    /// Runs the dispatcher issued on its caller's thread because this
    /// disk's EWMA service time was below 20 µs.
    pub inline: u64,
}

/// Engine section of a [`crate::StatsSnapshot`] (present only while
/// an engine is running).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineStatsSnapshot {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Client-lane requests submitted.
    pub client_submitted: u64,
    /// Maintenance-lane requests submitted.
    pub maintenance_submitted: u64,
    /// Requests completed (both lanes, success or error).
    pub completed: u64,
    /// Requests completed with an error.
    pub errors: u64,
    /// Maintenance requests that waited behind client work — the
    /// queue-tier arbitration counter.
    pub maintenance_deferred: u64,
    /// Submission→dequeue wait, log2-ns buckets (bucket `i` counts
    /// waits in `[2^i, 2^(i+1))` ns).
    pub queue_wait_log2_ns: Vec<u64>,
    /// Per-disk queue gauges.
    pub disks: Vec<EngineDiskSnapshot>,
}

#[cfg(test)]
impl<B: Backend + Send + Sync + 'static> Engine<B> {
    /// An engine whose per-disk service EWMAs are set instead of
    /// measured, so a test knows which route each disk takes.
    pub(crate) fn seeded(backend: Arc<B>, integrity: Arc<Integrity>, ewma_ns: &[u64]) -> Arc<Self> {
        let eng = Self::start(backend, integrity, EngineConfig::default());
        for (q, &ns) in eng.inner.queues.iter().zip(ewma_ns) {
            q.ewma_ns.store(ns, Ordering::Relaxed);
        }
        eng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::integrity::Integrity;

    fn engine(
        disks: usize,
        units: usize,
        cfg: EngineConfig,
    ) -> (Arc<Engine<MemBackend>>, Arc<MemBackend>) {
        let backend = Arc::new(MemBackend::new(disks, units, 64));
        let integrity = Arc::new(Integrity::new(disks, units));
        (Engine::start(Arc::clone(&backend), integrity, cfg), backend)
    }

    #[test]
    fn read_write_roundtrip_through_the_queues() {
        let (eng, _b) = engine(4, 32, EngineConfig::default());
        let payload: Vec<u8> = (0..128).map(|i| i as u8).collect();
        eng.submit_write_gather(2, 5, payload.clone(), Priority::Client).unwrap().wait().unwrap();
        let got = eng.submit_read_units(2, 5, 2, Priority::Client).unwrap().wait().unwrap();
        assert_eq!(got, payload);
        let snap = eng.snapshot();
        assert_eq!(snap.client_submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.errors, 0);
        eng.stop();
    }

    #[test]
    fn out_of_range_disk_is_rejected_at_submit() {
        let (eng, _b) = engine(2, 8, EngineConfig::default());
        assert!(matches!(
            eng.submit_read_units(9, 0, 1, Priority::Client),
            Err(StoreError::OutOfRange { disk: 9, .. })
        ));
    }

    /// With one worker, a burst of adjacent one-unit reads piles up
    /// behind the first call; each still gets a backend call of its
    /// own and its own unit's bytes.
    #[test]
    fn each_queued_request_is_one_backend_call() {
        let (eng, b) = engine(2, 512, EngineConfig { workers: 1 });
        let unit = |i: usize| vec![i as u8; 64];
        for i in 0..64 {
            b.write_unit(0, i, &unit(i)).unwrap();
        }
        b.reset_counters();
        let tokens: Vec<Completion> =
            (0..64).map(|i| eng.submit_read_units(0, i, 1, Priority::Client).unwrap()).collect();
        for (i, t) in tokens.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), unit(i), "request {i} gets its own unit");
        }
        assert_eq!(b.read_calls(0), 64);
        let snap = eng.snapshot();
        assert_eq!((snap.client_submitted, snap.completed), (64, 64));
        assert_eq!((snap.disks[0].submitted, snap.disks[0].completed), (64, 64));
        assert_eq!(snap.disks[0].coalesced, 0);
        eng.stop();
    }

    #[test]
    fn stop_fulfils_every_token_and_rejects_new_submissions() {
        let (eng, _b) = engine(2, 32, EngineConfig::default());
        let t = eng.submit_read_units(0, 0, 1, Priority::Maintenance).unwrap();
        eng.stop();
        // The pre-stop token was either served by the drain or failed
        // by the sweep — it must be fulfilled either way, promptly.
        let _ = t.wait();
        let err = eng.submit_read_units(0, 0, 1, Priority::Client).err().expect("refused");
        assert!(is_engine_down(&err), "submit after stop must fail as engine-down");
        assert!(!is_engine_down(&StoreError::Io(std::io::Error::other("disk on fire"))));
    }

    /// A worker must not park while requests wait: with disk 0 busy
    /// and drained and disk 1 busy with one request still queued, the
    /// two scores tie and the scan meets disk 0 first — yet the pick
    /// is disk 1's waiting request, not an empty lane.
    #[test]
    fn scan_skips_busy_queues_with_nothing_waiting() {
        let backend = Arc::new(MemBackend::new(2, 32, 64));
        let integrity = Arc::new(Integrity::new(2, 32));
        // No pool, and a ceiling of 0 so none grows: this test is the
        // only worker.
        let mut inner = Inner::new(backend, integrity, EngineConfig::default());
        inner.ceiling = 0;
        let eng = Engine { inner: Arc::new(inner) };
        let _tokens: Vec<Completion> = [(0, 0), (1, 0), (1, 5)]
            .into_iter()
            .map(|(disk, offset)| eng.submit_read_units(disk, offset, 1, Priority::Client).unwrap())
            .collect();
        let pick = |wid| next_request(&eng.inner, wid).map(|(disk, r)| (disk, r.offset));
        assert_eq!(pick(0), Some((0, 0)));
        assert_eq!(pick(1), Some((1, 0)));
        assert_eq!(pick(0), Some((1, 5)), "the waiting request, not disk 0's empty lane");
        assert_eq!(pick(0), None, "nothing left waiting");
    }

    #[test]
    fn snapshot_reports_per_disk_queues() {
        let (eng, _b) = engine(3, 32, EngineConfig { workers: 2 });
        assert_eq!(eng.snapshot().workers, 0, "the pool starts empty");
        eng.submit_write_gather(1, 0, vec![7u8; 64], Priority::Maintenance)
            .unwrap()
            .wait()
            .unwrap();
        let snap = eng.snapshot();
        assert_eq!(snap.workers, 1, "one request brings up one worker");
        assert_eq!(snap.disks.len(), 3);
        assert_eq!(snap.maintenance_submitted, 1);
        assert_eq!(snap.disks[1].submitted, 1);
        assert_eq!(snap.disks[1].completed, 1);
        assert_eq!(snap.disks[1].in_flight, 0);
        assert!(snap.queue_wait_log2_ns.iter().sum::<u64>() >= 1);
    }
}
