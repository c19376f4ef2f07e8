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
//! small worker pool keeps every disk busy up to a fixed queue depth.
//! A single caller submitting an 8-run batch gets 8 disks seeking in
//! parallel.
//!
//! Queueing pays only where there is latency to overlap. A hand-off —
//! submit, wake a worker, wake the caller — costs about ten µs; a run
//! on a memory-speed disk or a cached file takes one or two. So the
//! engine measures its own hand-off cost once, at [`Engine::start`]
//! (the median of about 15 no-op round trips through the pool,
//! tallied nowhere), and the dispatcher keeps on the caller's thread
//! every run whose disk's EWMA service time is below it. Those inline
//! runs are timed into the same EWMA the workers feed, so a disk that
//! starts stalling moves to the queues and one that recovers moves
//! back; a disk not yet timed queues. Each disk's inline runs are
//! counted in its snapshot (`inline`), beside the hand-off
//! (`handoff_us`).
//!
//! ## Architecture
//!
//! * **[`DiskQueue`]** — one per logical disk: a bounded ring of
//!   pending requests split into two priority lanes (client and
//!   maintenance), an in-flight depth counter, and an EWMA of
//!   backend service time. Submission blocks (backpressure) when the
//!   ring is full.
//! * **Worker pool** — `workers` OS threads (default: one per disk)
//!   each servicing *any* queue: a worker scans the queues with
//!   requests waiting for the eligible one with the lowest expected
//!   drain time (`(in_flight + 1) × ewma_service_ns`), pops one
//!   request, executes its backend call, and fulfils its completion.
//!   Plain condvar/atomic wakeups — no async runtime.
//! * **One request, one call** — a pop takes the head of the chosen
//!   lane and nothing else, so every queued request is exactly one
//!   backend call (one `read_units` span / one `write_units_gather`)
//!   and carries one caller's run. The store already merges adjacent
//!   units into runs before it submits them.
//! * **Depth-aware scheduling** — a queue is eligible only while its
//!   in-flight call count is below a fixed ceiling of 8, so multiple
//!   workers can overlap calls to the *same* disk (useful for
//!   seek-free backends and kernel-level queueing) without
//!   unboundedly piling on. The ceiling is a constant, not a knob:
//!   the committed sweep over depths 2 / 8 / 32 was flat (0.997 /
//!   1.011 of depth 2).
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
//! as the synchronous path.
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
    /// Worker threads servicing the queues. `0` means one per disk,
    /// so each disk's positional pread/pwrite can progress on its own
    /// thread.
    pub workers: usize,
}

/// What a queued request asks of the disk.
enum ReqOp {
    /// Read `units` units into a fresh buffer.
    Read,
    /// Write these bytes (length = `units × unit_size`).
    Write(Vec<u8>),
    /// Nothing: the worker that pops it fulfils it at once. One
    /// hand-off round trip, timed by [`Engine::start`] and kept out of
    /// every tally.
    Ping,
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
    cfg: EngineConfig,
    /// Total requests pending across every queue; the worker parking
    /// predicate.
    pending: AtomicUsize,
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
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// What queueing one run costs over issuing it inline: the median
    /// no-op round trip through the pool, measured once at start.
    handoff_ns: u64,
}

impl<B: std::fmt::Debug> std::fmt::Debug for Engine<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("disks", &self.inner.queues.len())
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl<B: Backend + Send + Sync + 'static> Engine<B> {
    /// Spawns the worker pool over `backend` and measures its hand-off
    /// cost. `integrity` supplies the retry policy and per-disk health
    /// accounting, identical to the synchronous path.
    pub fn start(backend: Arc<B>, integrity: Arc<Integrity>, cfg: EngineConfig) -> Arc<Self> {
        let mut eng = Self::spawn(backend, integrity, cfg);
        eng.handoff_ns = eng.calibrate();
        Arc::new(eng)
    }

    fn spawn(backend: Arc<B>, integrity: Arc<Integrity>, cfg: EngineConfig) -> Self {
        let inner = Arc::new(Inner::new(backend, integrity, cfg));
        let handles = (0..inner.cfg.workers)
            .map(|wid| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pdl-engine-{wid}"))
                    .spawn(move || worker_loop(&inner, wid))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { inner, workers: Mutex::new(handles), handoff_ns: 0 }
    }

    /// The median of about 15 no-op round trips through the pool,
    /// spread over the queues: submit, a parked worker wakes and pops,
    /// the caller wakes. They are timed from one caller per CPU (at
    /// most one per worker) at once, so a woken worker shares a CPU
    /// with a caller, as it does under client load. A lone caller times
    /// a wake onto an idle CPU instead, which a virtualised host
    /// sometimes makes several times cheaper than any wake under load:
    /// timed that way on a 2-vCPU VM, the hand-off swung between 2 and
    /// 12 µs from one start to the next, and a file array sent most
    /// runs to the queues whenever it read low.
    ///
    /// Never taken from live queue waits: those grow with the device's
    /// service time, so a slow disk would buy itself the inline route
    /// and nothing would ever move it back.
    fn calibrate(&self) -> u64 {
        let disks = self.inner.queues.len();
        if disks == 0 {
            return 0;
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let callers = cpus.min(self.inner.cfg.workers);
        let each = 15usize.div_ceil(callers);
        let mut ns: Vec<u64> = std::thread::scope(|s| {
            let timed: Vec<_> = (0..callers)
                .map(|c| {
                    s.spawn(move || {
                        (c * each..(c + 1) * each)
                            .map(|i| {
                                let t0 = Instant::now();
                                // Pings are never refused: the engine
                                // cannot stop before `start` returns.
                                let _ = self
                                    .submit(i % disks, 0, 0, ReqOp::Ping, Priority::Client)
                                    .and_then(Completion::wait);
                                t0.elapsed().as_nanos() as u64
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            timed.into_iter().flat_map(|t| t.join().expect("calibration caller")).collect()
        });
        ns.sort_unstable();
        ns[ns.len() / 2]
    }
}

impl<B: Backend> Inner<B> {
    /// The queues and counters of an engine whose pool is not yet
    /// spawned (`cfg.workers == 0` resolved to one per disk).
    fn new(backend: Arc<B>, integrity: Arc<Integrity>, cfg: EngineConfig) -> Self {
        let disks = backend.disks();
        let workers = if cfg.workers == 0 { disks.max(1) } else { cfg.workers };
        Inner {
            backend,
            integrity,
            queues: (0..disks).map(|_| DiskQueue::new()).collect(),
            cfg: EngineConfig { workers },
            pending: AtomicUsize::new(0),
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
        // Tallied under the lane lock, before a worker can complete it;
        // a calibration ping is not traffic and is not tallied at all.
        let tally = !matches!(req.op, ReqOp::Ping);
        let (lane, submitted) = match prio {
            Priority::Client => (&mut lanes.client, &inner.client_submitted),
            Priority::Maintenance => (&mut lanes.maint, &inner.maint_submitted),
        };
        lane.push_back(req);
        if tally {
            submitted.fetch_add(1, Ordering::Relaxed);
            q.submitted.fetch_add(1, Ordering::Relaxed);
        }
        q.queued.fetch_add(1, Ordering::Relaxed);
        drop(lanes);
        inner.pending.fetch_add(1, Ordering::Release);
        inner.work_cv.notify_one();
        Ok(Completion { state })
    }
}

impl<B> Engine<B> {
    /// Whether a run on `disk` is cheaper issued on the caller's
    /// thread: its disk has been timed, and serves faster than the
    /// engine hands off. An untimed disk queues (as does a disk out of
    /// range, for `submit` to refuse).
    pub(crate) fn serves_inline(&self, disk: usize) -> bool {
        let ewma = self.inner.queues.get(disk).map_or(0, |q| q.ewma_ns.load(Ordering::Relaxed));
        ewma != 0 && ewma < self.handoff_ns
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
            workers: inner.cfg.workers,
            handoff_us: self.handoff_ns / 1_000,
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
        inner.work_cv.notify_all();
        for q in &inner.queues {
            q.not_full.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
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

/// Worker thread body: scan → pop → execute → fulfil.
fn worker_loop<B: Backend>(inner: &Inner<B>, wid: usize) {
    loop {
        match next_request(inner, wid) {
            Some((disk, req)) => execute(inner, disk, req),
            None => {
                if inner.shutdown.load(Ordering::Acquire)
                    && inner.pending.load(Ordering::Acquire) == 0
                {
                    return;
                }
                // Park briefly whenever a scan comes up empty — also
                // the case where pending work exists but every
                // non-empty queue is at target depth. The timeout
                // makes shutdown and racy notify loss benign, and
                // `execute` notifies when an in-flight slot frees.
                let guard = inner.work_m.lock().unwrap();
                if !inner.shutdown.load(Ordering::Acquire) {
                    let _ = inner
                        .work_cv
                        .wait_timeout(guard, std::time::Duration::from_millis(5))
                        .unwrap();
                }
            }
        }
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
        if matches!(req.op, ReqOp::Ping) {
            q.queued.fetch_sub(1, Ordering::Relaxed);
            drop(lanes);
            inner.pending.fetch_sub(1, Ordering::Release);
            req.done.fulfil(Ok(Vec::new()));
            continue;
        }
        // Reserve the in-flight slot before releasing the lane lock so
        // a concurrent scan sees the updated depth.
        q.in_flight.fetch_add(1, Ordering::Relaxed);
        q.queued.fetch_sub(1, Ordering::Relaxed);
        drop(lanes);
        q.not_full.notify_all();
        inner.pending.fetch_sub(1, Ordering::Release);
        inner.queue_wait.record(req.submitted.elapsed().as_nanos() as u64);
        return Some((disk, req));
    }
}

/// Executes one request against the backend (under the integrity
/// retry/health wrapper) and fulfils its token.
fn execute<B: Backend>(inner: &Inner<B>, disk: usize, req: Request) {
    let q = &inner.queues[disk];
    let Request { offset, units, op, done, .. } = req;
    let t0 = Instant::now();
    let result = match op {
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
        ReqOp::Ping => unreachable!("a ping is fulfilled at its pop"),
    };
    q.note_service(t0.elapsed().as_nanos() as u64);
    q.in_flight.fetch_sub(1, Ordering::Relaxed);
    if inner.pending.load(Ordering::Acquire) > 0 {
        // The freed in-flight slot may make a depth-capped queue
        // eligible again; wake a parked worker to rescan.
        inner.work_cv.notify_one();
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
    /// [`Engine`]) and measures its hand-off cost. Multi-run
    /// transfers then submit at once every per-disk run whose disk is
    /// slower than that hand-off (or not yet timed), and issue the rest
    /// on the calling thread meanwhile, so the engine costs little on a
    /// fast device and overlaps a slow one. Replaces a previously
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
    /// disk served faster than the engine hands off.
    pub inline: u64,
}

/// Engine section of a [`crate::StatsSnapshot`] (present only while
/// an engine is running).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineStatsSnapshot {
    /// Worker threads in the pool.
    pub workers: usize,
    /// The hand-off cost measured at start, µs: a disk whose EWMA
    /// service time is below it is served inline.
    pub handoff_us: u64,
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
    /// An engine whose hand-off cost and per-disk service EWMAs are set
    /// instead of measured, so a test knows which route each disk takes.
    pub(crate) fn seeded(
        backend: Arc<B>,
        integrity: Arc<Integrity>,
        handoff_ns: u64,
        ewma_ns: &[u64],
    ) -> Arc<Self> {
        let mut eng = Self::spawn(backend, integrity, EngineConfig::default());
        eng.handoff_ns = handoff_ns;
        for (q, &ns) in eng.inner.queues.iter().zip(ewma_ns) {
            q.ewma_ns.store(ns, Ordering::Relaxed);
        }
        Arc::new(eng)
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

    /// The calibration pings at start are timed but are not traffic:
    /// no submission, completion, queue wait or service sample.
    #[test]
    fn start_measures_its_handoff_without_tallying_it() {
        let (eng, b) = engine(3, 8, EngineConfig::default());
        let snap = eng.snapshot();
        assert!(eng.handoff_ns > 0, "a round trip through the pool takes time");
        assert_eq!(snap.handoff_us, eng.handoff_ns / 1_000);
        assert_eq!((snap.client_submitted, snap.completed), (0, 0));
        assert_eq!(snap.queue_wait_log2_ns.iter().sum::<u64>(), 0);
        for d in &snap.disks {
            assert_eq!((d.submitted, d.completed, d.ewma_service_us), (0, 0, 0));
        }
        assert!(!eng.serves_inline(0), "no disk is timed yet, so every run queues");
        assert_eq!((0..3).map(|d| b.read_calls(d) + b.write_calls(d)).sum::<u64>(), 0);
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
        let cfg = EngineConfig { workers: 1 };
        // No pool: this test is the only worker.
        let eng = Engine {
            inner: Arc::new(Inner::new(backend, integrity, cfg)),
            workers: Mutex::default(),
            handoff_ns: 0,
        };
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
        eng.submit_write_gather(1, 0, vec![7u8; 64], Priority::Maintenance)
            .unwrap()
            .wait()
            .unwrap();
        let snap = eng.snapshot();
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.disks.len(), 3);
        assert_eq!(snap.maintenance_submitted, 1);
        assert_eq!(snap.disks[1].submitted, 1);
        assert_eq!(snap.disks[1].completed, 1);
        assert_eq!(snap.disks[1].in_flight, 0);
        assert!(snap.queue_wait_log2_ns.iter().sum::<u64>() >= 1);
    }
}
