//! First-class observability: the metrics registry, structured event
//! tracing, rebuild progress, and degraded-window accounting.
//!
//! The paper's central claim — a declustered rebuild reads
//! `(k−1)/(v−1)` of every surviving disk — is a *measurable*
//! property, and so is everything else the store promises (combined
//! cache flushes, call coalescing, bounded degraded windows). This
//! module is the measurement surface:
//!
//! * [`Metrics`] — a lock-light registry owned by every
//!   [`crate::BlockStore`]: relaxed atomic op/unit counters and
//!   fixed-bucket log2 latency histograms per [`OpKind`], cheap
//!   enough to be always on (no allocation, no lock on
//!   the hot path; latencies are *sampled* — see
//!   [`Metrics::SAMPLE_EVERY`] — so the common op pays one relaxed
//!   `fetch_add`, not two `Instant` reads).
//! * [`EventSink`] — a pluggable structured-event trait, with
//!   [`TraceLog`] as the bundled ring-buffer implementation. No sink
//!   is installed by default, so event emission costs one relaxed
//!   load per op until [`crate::BlockStore::set_event_sink`] opts in.
//! * [`RebuildProgress`] — live snapshots of a running rebuild
//!   (units done/total, per-disk read distribution, ETA from the
//!   moving rate), so the `(k−1)/(v−1)` claim is observable *while*
//!   the rebuild races traffic, not only from its final report.
//! * Degraded-window accounting — wall-clock and op-count duration
//!   of every window the array spends with exactly one or exactly
//!   two erasures, from `fail_disk` to rebuild-complete (or
//!   restore).
//! * [`StatsSnapshot`] — one serde-serializable view over all of the
//!   above plus the per-disk backend counters and cache statistics,
//!   returned by [`crate::BlockStore::stats`], dumped as `stats.json`
//!   by the stress harness, and rendered as text by [`render_stats`].
//!
//! The per-disk unit/call counters that the backends used to keep in
//! private duplicated structs are unified here as [`DiskCounters`]
//! — one implementation shared by [`crate::MemBackend`] and
//! [`crate::FileBackend`] and surfaced through the snapshot.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The operation kinds the registry distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Healthy block read (single or batched).
    Read,
    /// Block write (single or batched), all stripe members alive.
    Write,
    /// Read served by erasure-decoding a lost unit.
    DegradedRead,
    /// Write whose stripe crosses a failed disk.
    DegradedWrite,
    /// Surviving-member reads issued by a rebuild chunk.
    RebuildRead,
    /// Reconstructed units landed on a spare disk.
    SpareWrite,
    /// A write-back cache flush batch.
    CacheFlush,
    /// A reshape migration batch copied into the target world.
    ReshapeCopy,
    /// Surviving-unit reads issued by a scrub pass or a read-repair
    /// decode (the integrity layer's read traffic).
    ScrubRead,
    /// Units rewritten in place by read-repair or the scrubber.
    RepairWrite,
}

impl OpKind {
    /// Number of distinct kinds (the registry's table width).
    pub const COUNT: usize = 10;

    /// Every kind, in registry order.
    pub const ALL: [OpKind; Self::COUNT] = [
        OpKind::Read,
        OpKind::Write,
        OpKind::DegradedRead,
        OpKind::DegradedWrite,
        OpKind::RebuildRead,
        OpKind::SpareWrite,
        OpKind::CacheFlush,
        OpKind::ReshapeCopy,
        OpKind::ScrubRead,
        OpKind::RepairWrite,
    ];

    fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in [`StatsSnapshot`].
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::DegradedRead => "degraded_read",
            OpKind::DegradedWrite => "degraded_write",
            OpKind::RebuildRead => "rebuild_read",
            OpKind::SpareWrite => "spare_write",
            OpKind::CacheFlush => "cache_flush",
            OpKind::ReshapeCopy => "reshape_copy",
            OpKind::ScrubRead => "scrub_read",
            OpKind::RepairWrite => "repair_write",
        }
    }
}

/// A fixed-bucket log2 latency histogram: bucket `i` counts
/// observations in `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes
/// 0 ns; the last bucket takes everything ≥ 2^31 ns ≈ 2.1 s).
/// Recording is one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
}

impl LatencyHistogram {
    /// Bucket count; covers sub-microsecond memcpys up to multi-second
    /// stalls in one fixed-size table.
    pub const BUCKETS: usize = 32;

    /// Records one latency observation.
    pub(crate) fn record(&self, ns: u64) {
        let b = (63 - (ns | 1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts out.
    pub(crate) fn snapshot(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// One thread's private op/unit counters, interleaved
/// `[ops, extra_units]` per [`OpKind`].
///
/// **Single-writer cells.** Only the owning thread mutates its cells,
/// and it does so with plain load-then-store on relaxed atomics — no
/// read-modify-write, so the uncontended hot path costs an L1 hit
/// instead of a locked bus cycle (~0.4 ns vs ~7 ns on a typical
/// x86-64). Snapshots read the cells from other threads; a mid-flight
/// read may lag the writer by its in-flight increment, which is
/// within the registry's stated point-in-time consistency, and any
/// quiescent read (e.g. after joining worker threads) is exact
/// because the join gives happens-before.
///
/// Units are stored as a *delta* against the op count: every finished
/// op contributes `units - 1` to `extra_units` (zero — and therefore
/// no second store — for the dominant single-block case), and a
/// snapshot reconstructs the exact total as `ops + extra_units` in
/// wrapping arithmetic. The wrapping is sound: the true unit total is
/// non-negative, so the mod-2⁶⁴ sum is exact.
#[derive(Debug)]
struct ThreadCounts {
    cells: [AtomicU64; OpKind::COUNT * 2],
}

impl Default for ThreadCounts {
    fn default() -> Self {
        ThreadCounts { cells: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl ThreadCounts {
    /// Counts one op of `kind` moving `1 + extra` units. Owning
    /// thread only.
    fn bump(&self, kind: OpKind, extra: u64) {
        let i = kind.idx() * 2;
        let ops = &self.cells[i];
        ops.store(ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if extra != 0 {
            let eu = &self.cells[i + 1];
            eu.store(eu.load(Ordering::Relaxed).wrapping_add(extra), Ordering::Relaxed);
        }
    }

    /// Adds units without an op (batched-path accounting). Owning
    /// thread only.
    fn add_extra(&self, kind: OpKind, extra: u64) {
        let eu = &self.cells[kind.idx() * 2 + 1];
        eu.store(eu.load(Ordering::Relaxed).wrapping_add(extra), Ordering::Relaxed);
    }

    /// This thread's op count for `kind` (the sampling clock).
    fn ops(&self, kind: OpKind) -> u64 {
        self.cells[kind.idx() * 2].load(Ordering::Relaxed)
    }
}

thread_local! {
    /// The calling thread's most recently used `(registry id, cells)`
    /// pair — the one-compare fast path for [`Metrics::my_counts`].
    /// The raw pointer is dereferenced only after the id matches the
    /// live registry asking, which proves the backing [`Arc`] (held in
    /// that registry's `threads` list) is still alive.
    static HOT_COUNTS: Cell<(u64, *const ThreadCounts)> =
        const { Cell::new((0, std::ptr::null())) };
    /// Every `(registry id, cells)` pair this thread has registered,
    /// scanned only on a `HOT_COUNTS` miss (i.e. when one thread
    /// alternates between stores). Bounded: evicting a live entry is
    /// harmless because re-registration just adds a fresh cell set and
    /// snapshots sum them all.
    static ALL_COUNTS: RefCell<Vec<(u64, *const ThreadCounts)>> =
        const { RefCell::new(Vec::new()) };
}

/// Cap on `ALL_COUNTS` entries per thread (16 bytes each).
const THREAD_COUNTS_CAP: usize = 512;

/// A pending latency measurement handed out by [`Metrics::begin`] and
/// closed by [`Metrics::finish`]. `start` is `None` when this op was
/// not sampled (the overwhelmingly common case).
#[derive(Debug)]
pub struct OpTimer {
    kind: OpKind,
    start: Option<Instant>,
    /// The opening thread's counter cells, stashed here so
    /// [`Metrics::finish`] skips a second thread-local lookup.
    /// Only dereferenced by `finish` on the same thread, while the
    /// registry (which pins the allocation) is borrowed.
    counts: *const ThreadCounts,
}

/// One window level's accumulated degraded-time totals.
#[derive(Clone, Copy, Debug, Default)]
struct WindowTotals {
    windows: u64,
    ns: u64,
    ops: u64,
}

/// Occupancy clock for the degraded-window split: while the array has
/// `level + 1` failed disks, `open[level]`-style state tracks when
/// that occupancy began and the op count at entry. Mutated only under
/// the store's exclusive state guard (failure transitions), so a
/// plain mutex is fine — this is never on the data path.
#[derive(Debug, Default)]
struct DegradedClock {
    /// `Some((since, ops_at_entry))` while ≥1 disk is failed; the
    /// current erasure count lives in `level`.
    open: Option<(Instant, u64)>,
    level: usize,
    /// `totals[0]`: time with exactly one erasure; `totals[1]`: two.
    totals: [WindowTotals; 2],
}

/// The store-owned metrics registry (see the [module docs](self)).
///
/// All data-path updates are relaxed atomics; reads produce a
/// point-in-time [`StatsSnapshot`] that is internally *approximately*
/// consistent under concurrent traffic (each counter is exact, the
/// set is not one linearization point).
#[derive(Debug)]
pub struct Metrics {
    /// This registry's process-unique id — the key threads use to
    /// find their private [`ThreadCounts`]. Never reused, so a stale
    /// thread-local entry for a dropped registry can never match.
    id: u64,
    /// Every thread's registered counter cells. Summed by snapshots;
    /// pushed to once per (thread, registry). The `Arc`s pin the cell
    /// allocations for the registry's lifetime, which is what makes
    /// the raw pointers threads cache valid.
    threads: Mutex<Vec<Arc<ThreadCounts>>>,
    /// Sampled per-kind latency histograms (1-in-`SAMPLE_EVERY`).
    hist: [LatencyHistogram; OpKind::COUNT],
    /// Stripe-shard lock acquisitions that found the shard contended.
    lock_contention: AtomicU64,
    degraded: Mutex<DegradedClock>,
}

/// Source of [`Metrics::id`]; starts at 1 so the null thread-local
/// cache entry `(0, null)` can never match a live registry.
static NEXT_METRICS_ID: AtomicU64 = AtomicU64::new(1);

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            id: NEXT_METRICS_ID.fetch_add(1, Ordering::Relaxed),
            threads: Mutex::new(Vec::new()),
            hist: Default::default(),
            lock_contention: AtomicU64::new(0),
            degraded: Mutex::new(DegradedClock::default()),
        }
    }
}

impl Metrics {
    /// Latency sampling period: one op in this many (per thread and
    /// kind) pays the two `Instant` reads that feed the histogram.
    /// Counters are exact; histograms are a 1-in-64 sample — the
    /// trade that keeps the registry cheap enough to stay on in
    /// benchmarks (a clock read costs ~40 ns on a VM, several times
    /// the rest of the begin/finish pair).
    pub const SAMPLE_EVERY: u64 = 64;

    /// The calling thread's private counter cells for this registry:
    /// one thread-local read and an id compare on the fast path, a
    /// registration (allocate + registry push) the first time a
    /// thread touches this registry.
    #[inline]
    fn my_counts(&self) -> &ThreadCounts {
        let (id, ptr) = HOT_COUNTS.get();
        if id == self.id {
            // The id matched a live registry (ids are never reused),
            // so the Arc pinning `ptr` is still in `self.threads`.
            return unsafe { &*ptr };
        }
        self.register_thread()
    }

    /// Slow path of [`Metrics::my_counts`]: find or create this
    /// thread's cells and promote them to the hot slot.
    #[cold]
    fn register_thread(&self) -> &ThreadCounts {
        ALL_COUNTS.with(|all| {
            let mut all = all.borrow_mut();
            let ptr = match all.iter().find(|(id, _)| *id == self.id) {
                Some(&(_, p)) => p,
                None => {
                    let cells = Arc::new(ThreadCounts::default());
                    let p = Arc::as_ptr(&cells);
                    self.threads.lock().unwrap().push(cells);
                    if all.len() >= THREAD_COUNTS_CAP {
                        all.swap_remove(0);
                    }
                    all.push((self.id, p));
                    p
                }
            };
            HOT_COUNTS.set((self.id, ptr));
            unsafe { &*ptr }
        })
    }

    /// Opens an op: decides (from this thread's op count for the
    /// kind) whether this op's latency is sampled. The count itself
    /// is bumped in [`Metrics::finish`] with a single-writer
    /// load+store — the whole begin/finish pair performs **no atomic
    /// RMW** on the unsampled hot path. `force_timing` (set when an
    /// event sink wants span durations) samples unconditionally.
    pub(crate) fn begin(&self, kind: OpKind, force_timing: bool) -> OpTimer {
        let counts = self.my_counts();
        let sampled = force_timing || counts.ops(kind).is_multiple_of(Self::SAMPLE_EVERY);
        OpTimer { kind, start: sampled.then(Instant::now), counts: counts as *const ThreadCounts }
    }

    /// Closes an op opened by [`Metrics::begin`]: counts it, adds the
    /// units it moved and, when sampled, records the latency. Ops
    /// that error between `begin` and `finish` are not counted.
    /// Returns the elapsed nanoseconds when timed (for event-span
    /// emission).
    pub(crate) fn finish(&self, t: OpTimer, units: u64) -> Option<u64> {
        // Stashed by `begin` on this thread; `&self` keeps the
        // backing allocation (owned by `self.threads`) alive.
        unsafe { &*t.counts }.bump(t.kind, units.wrapping_sub(1));
        t.start.map(|s| {
            let ns = s.elapsed().as_nanos() as u64;
            self.hist[t.kind.idx()].record(ns);
            ns
        })
    }

    /// Records a whole op in one call (unconditionally timed) — used
    /// by the chunked paths (rebuild chunks, cache flush batches)
    /// where per-op timing is cheap relative to the work.
    pub(crate) fn record_op(&self, kind: OpKind, units: u64, ns: u64) {
        self.my_counts().bump(kind, units.wrapping_sub(1));
        self.hist[kind.idx()].record(ns);
    }

    /// Adds units to a kind without opening an op — e.g. the degraded
    /// share of a batched read, accounted alongside the batch's span.
    pub(crate) fn add_units(&self, kind: OpKind, units: u64) {
        if units > 0 {
            self.my_counts().add_extra(kind, units);
        }
    }

    /// Ops recorded across every kind and thread — the
    /// degraded-window op clock.
    pub(crate) fn total_ops(&self) -> u64 {
        let threads = self.threads.lock().unwrap();
        OpKind::ALL.iter().map(|&k| threads.iter().map(|t| t.ops(k)).sum::<u64>()).sum()
    }

    /// Client-facing ops (reads and writes, healthy or degraded)
    /// across all threads — excludes maintenance kinds (rebuild,
    /// reshape, scrub), so maintenance pacing can measure foreground
    /// load without counting itself.
    pub(crate) fn client_ops(&self) -> u64 {
        const CLIENT: [OpKind; 4] =
            [OpKind::Read, OpKind::Write, OpKind::DegradedRead, OpKind::DegradedWrite];
        let threads = self.threads.lock().unwrap();
        CLIENT.iter().map(|&k| threads.iter().map(|t| t.ops(k)).sum::<u64>()).sum()
    }

    /// Counts one contended stripe-shard lock acquisition.
    pub(crate) fn note_lock_contention(&self) {
        self.lock_contention.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies a failure-count transition `before → after` to the
    /// degraded-window clock. Called under the store's exclusive
    /// state guard; `total_ops` is the registry's op clock at the
    /// transition.
    pub(crate) fn degraded_transition(&self, before: usize, after: usize, total_ops: u64) {
        debug_assert!(before <= 2 && after <= 2 && before != after);
        let now = Instant::now();
        let mut clk = self.degraded.lock().unwrap();
        if let Some((since, ops_at)) = clk.open {
            let level = clk.level.min(2) - 1;
            let t = &mut clk.totals[level];
            t.ns += now.duration_since(since).as_nanos() as u64;
            t.ops += total_ops.saturating_sub(ops_at);
        }
        if after > 0 {
            if after > before {
                clk.totals[after.min(2) - 1].windows += 1;
            }
            clk.open = Some((now, total_ops));
        } else {
            clk.open = None;
        }
        clk.level = after;
    }

    /// Snapshot of the degraded-window totals, **including** the
    /// currently open window (so a racing rebuild's window is visible
    /// live).
    fn degraded_snapshot(&self) -> DegradedSnapshot {
        let clk = self.degraded.lock().unwrap();
        let mut totals = clk.totals;
        if let Some((since, ops_at)) = clk.open {
            let t = &mut totals[clk.level.min(2) - 1];
            t.ns += since.elapsed().as_nanos() as u64;
            t.ops += self.total_ops().saturating_sub(ops_at);
        }
        let snap =
            |t: WindowTotals| WindowSnapshot { windows: t.windows, wall_ns: t.ns, ops: t.ops };
        DegradedSnapshot { one: snap(totals[0]), two: snap(totals[1]) }
    }

    /// Builds the registry's part of a [`StatsSnapshot`].
    pub(crate) fn snapshot(&self) -> (Vec<OpStatSnapshot>, DegradedSnapshot, u64) {
        let threads = self.threads.lock().unwrap();
        let ops = OpKind::ALL
            .iter()
            .map(|&k| {
                let i = k.idx() * 2;
                let (mut ops, mut extra) = (0u64, 0u64);
                for t in threads.iter() {
                    ops = ops.wrapping_add(t.cells[i].load(Ordering::Relaxed));
                    extra = extra.wrapping_add(t.cells[i + 1].load(Ordering::Relaxed));
                }
                OpStatSnapshot {
                    kind: k.name().to_string(),
                    ops,
                    // Exact total: ops + Σ(units − 1), wrapping (see
                    // `ThreadCounts`).
                    units: ops.wrapping_add(extra),
                    latency_log2_ns: self.hist[k.idx()].snapshot(),
                }
            })
            .collect();
        drop(threads);
        (ops, self.degraded_snapshot(), self.lock_contention.load(Ordering::Relaxed))
    }
}

/// A structured store event, emitted to the installed [`EventSink`].
///
/// While a sink is installed, every public store operation emits an
/// `OpBegin`/`OpEnd` span; failures, restores, rebuilds, reshapes,
/// cache flushes, lock contention, repairs and scrubs emit the
/// variants named after them.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// An op span opened: `addr`/`blocks` locate the request, `stripe`
    /// is the first stripe touched, `disk` the first target disk.
    OpBegin {
        /// Op kind.
        kind: OpKind,
        /// First logical block address.
        addr: u64,
        /// Blocks in the request.
        blocks: u32,
        /// First `(copy-relative)` stripe index touched.
        stripe: u32,
        /// First logical target disk.
        disk: u32,
    },
    /// The matching span close, with its measured duration.
    OpEnd {
        /// Op kind.
        kind: OpKind,
        /// First logical block address.
        addr: u64,
        /// Blocks in the request.
        blocks: u32,
        /// Span duration in nanoseconds.
        ns: u64,
    },
    /// `fail_disk` succeeded.
    DiskFailed {
        /// The failed logical disk.
        disk: u32,
        /// The store epoch after the transition.
        epoch: u64,
    },
    /// `restore_disk` succeeded.
    DiskRestored {
        /// The restored logical disk.
        disk: u32,
        /// The store epoch after the transition.
        epoch: u64,
    },
    /// A rebuild registered against live traffic.
    RebuildBegan {
        /// The failed logical disk being rebuilt.
        disk: u32,
        /// The physical spare receiving it.
        spare: u32,
        /// The store epoch after registration.
        epoch: u64,
    },
    /// A rebuild completed and the redirect flipped.
    RebuildCompleted {
        /// The rebuilt logical disk.
        disk: u32,
        /// The physical spare now serving it.
        spare: u32,
        /// The store epoch after completion.
        epoch: u64,
    },
    /// A rebuild attempt aborted; the store stays degraded.
    RebuildAborted {
        /// The store epoch after the abort.
        epoch: u64,
    },
    /// A write-back cache flush batch landed.
    CacheFlush {
        /// Stripes flushed in the batch.
        stripes: u32,
        /// Dirty units the batch carried.
        dirty_units: u32,
    },
    /// A stripe-shard lock acquisition found the shard contended
    /// (sampled from the single-stripe write path).
    LockContention {
        /// The contended shard index.
        shard: u32,
    },
    /// An online reshape (add/remove disks) registered against live
    /// traffic: migration begins, writes dual-land from here on.
    ReshapeBegan {
        /// Logical disks before the reshape.
        from_v: u32,
        /// Logical disks the target layout spans.
        to_v: u32,
        /// The store epoch after registration.
        epoch: u64,
    },
    /// A reshape migration batch completed (cursor advanced).
    ReshapeProgress {
        /// Target stripes migrated so far.
        stripes_done: u64,
        /// Total target stripes to migrate.
        stripes_total: u64,
    },
    /// A reshape committed: the store now serves the target layout.
    ReshapeCompleted {
        /// Logical disks the committed layout spans.
        to_v: u32,
        /// The store epoch after the world swap.
        epoch: u64,
    },
    /// A unit failed its checksum and was rewritten from surviving
    /// parity (read-repair or scrub repair).
    ChecksumRepair {
        /// Physical disk holding the repaired unit.
        disk: u32,
        /// Unit offset within the disk.
        offset: u64,
    },
    /// The health monitor crossed its threshold and auto-failed a
    /// disk, handing it to the rebuild machinery.
    DiskAutoFailed {
        /// The auto-failed logical disk.
        disk: u32,
        /// The `errors + repairs` score that crossed the threshold.
        score: u64,
    },
    /// A scrub pass started (or resumed from a persisted cursor).
    ScrubStarted {
        /// Stripe cursor the pass starts from (0 for a fresh pass).
        cursor: u64,
    },
    /// A scrub pass finished walking every stripe.
    ScrubCompleted {
        /// Stripes the pass verified.
        stripes: u64,
        /// Units rewritten because their checksum mismatched.
        checksum_repairs: u64,
        /// Parity units recomputed from verified data.
        parity_repairs: u64,
    },
}

/// Receives structured store events. Implementations must be cheap
/// and non-blocking — sinks run inline on the emitting thread (only
/// while installed; the default store has none and pays one relaxed
/// load per op).
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn record(&self, ev: &Event);
}

/// The bundled [`EventSink`]: a bounded in-memory ring buffer. When
/// full, the oldest event is dropped (the total recorded count keeps
/// counting), so a long run keeps the most recent history.
#[derive(Debug)]
pub struct TraceLog {
    cap: usize,
    inner: Mutex<TraceInner>,
}

#[derive(Debug, Default)]
struct TraceInner {
    recorded: u64,
    buf: VecDeque<Event>,
}

impl TraceLog {
    /// A ring holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn with_capacity(cap: usize) -> TraceLog {
        TraceLog { cap: cap.max(1), inner: Mutex::new(TraceInner::default()) }
    }

    /// Total events ever recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().buf.iter().cloned().collect()
    }
}

impl EventSink for TraceLog {
    fn record(&self, ev: &Event) {
        let mut inner = self.inner.lock().unwrap();
        inner.recorded += 1;
        if inner.buf.len() == self.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(ev.clone());
    }
}

/// The store's event dispatch point: holds the (optional) installed
/// sink. `active` mirrors `Some`-ness so the data path pays one
/// relaxed load when no sink is installed.
#[derive(Debug, Default)]
pub(crate) struct EventHub {
    active: AtomicBool,
    sink: Mutex<Option<Arc<dyn EventSink>>>,
}

impl std::fmt::Debug for dyn EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

impl EventHub {
    pub(crate) fn set(&self, sink: Option<Arc<dyn EventSink>>) {
        let mut slot = self.sink.lock().unwrap();
        self.active.store(sink.is_some(), Ordering::Release);
        *slot = sink;
    }

    /// True when a sink is installed (one relaxed load).
    pub(crate) fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Builds and records the event only when a sink is installed —
    /// `f` never runs otherwise.
    pub(crate) fn emit(&self, f: impl FnOnce() -> Event) {
        if !self.active() {
            return;
        }
        let sink = self.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.record(&f());
        }
    }
}

/// Tracks a running rebuild for live progress snapshots. Owned by the
/// store; started/finished under the exclusive state guard, advanced
/// by rebuild workers with one relaxed add per chunk.
#[derive(Debug, Default)]
pub(crate) struct RebuildTracker {
    active: AtomicBool,
    done: AtomicU64,
    run: Mutex<Option<RebuildRun>>,
}

#[derive(Debug)]
struct RebuildRun {
    failed: usize,
    spare: usize,
    total: u64,
    started: Instant,
    /// Per-logical-disk backend read counts at registration.
    baseline_reads: Vec<u64>,
    /// Per-logical-disk reads that were repair work, not
    /// reconstruction: a retried chunk's discarded prefetch and the
    /// stripe repairs it waited on.
    repair_reads: Vec<u64>,
}

impl RebuildTracker {
    pub(crate) fn start(&self, failed: usize, spare: usize, total: u64, baseline: Vec<u64>) {
        let mut run = self.run.lock().unwrap();
        self.done.store(0, Ordering::Relaxed);
        *run = Some(RebuildRun {
            failed,
            spare,
            total,
            started: Instant::now(),
            repair_reads: vec![0; baseline.len()],
            baseline_reads: baseline,
        });
        self.active.store(true, Ordering::Release);
    }

    pub(crate) fn add_done(&self, units: u64) {
        if self.active.load(Ordering::Relaxed) {
            self.done.fetch_add(units, Ordering::Relaxed);
        }
    }

    /// Counts one repair-work read on each logical disk of `disks`;
    /// they are kept out of the read distribution.
    pub(crate) fn note_repair_reads(&self, disks: impl IntoIterator<Item = usize>) {
        if let Some(run) = self.run.lock().unwrap().as_mut() {
            disks.into_iter().for_each(|d| run.repair_reads[d] += 1);
        }
    }

    pub(crate) fn finish(&self) {
        self.active.store(false, Ordering::Release);
        *self.run.lock().unwrap() = None;
    }

    /// Builds a progress snapshot; `current_reads` are the
    /// per-logical-disk backend read counts right now (same indexing
    /// as the baseline). `None` when no rebuild is registered.
    pub(crate) fn progress(&self, current_reads: &[u64]) -> Option<RebuildProgress> {
        let run = self.run.lock().unwrap();
        let run = run.as_ref()?;
        let done = self.done.load(Ordering::Relaxed).min(run.total);
        let elapsed = run.started.elapsed();
        let elapsed_ms = elapsed.as_millis() as u64;
        // ETA from the moving rate: remaining units at the average
        // units/ms so far (0 until the first chunk lands).
        let eta_ms = ((run.total - done) * elapsed_ms.max(1)).checked_div(done).unwrap_or(0);
        let per_disk_reads: Vec<u64> = (0..current_reads.len())
            .map(|d| {
                let spent = run.baseline_reads[d] + run.repair_reads[d];
                if d == run.failed {
                    0
                } else {
                    current_reads[d].saturating_sub(spent)
                }
            })
            .collect();
        let survivors = per_disk_reads.len().saturating_sub(1).max(1);
        let total_reads: u64 = per_disk_reads.iter().sum();
        let mean_read_fraction =
            if done == 0 { 0.0 } else { total_reads as f64 / survivors as f64 / done as f64 };
        Some(RebuildProgress {
            failed_disk: run.failed,
            spare_disk: run.spare,
            units_done: done,
            units_total: run.total,
            elapsed_ms,
            eta_ms,
            per_disk_reads,
            mean_read_fraction,
        })
    }
}

/// A live view of a running rebuild (see `RebuildTracker` /
/// [`crate::BlockStore::rebuild_progress`]). `per_disk_reads` counts
/// backend reads per *logical* disk since the rebuild registered, less
/// the repair work of chunks retried after a checksum mismatch (their
/// discarded prefetch and the stripe repairs' reads) — with racing
/// client traffic those reads are included, so `mean_read_fraction`
/// approximates the paper's `(k−1)/(v−1)` rather than matching it
/// exactly (the final [`crate::RebuildReport`] is this same count).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RebuildProgress {
    /// The logical disk being rebuilt.
    pub failed_disk: usize,
    /// The physical spare receiving it.
    pub spare_disk: usize,
    /// Units reconstructed and landed so far.
    pub units_done: u64,
    /// Units the rebuild will reconstruct in total.
    pub units_total: u64,
    /// Wall-clock milliseconds since registration.
    pub elapsed_ms: u64,
    /// Estimated milliseconds to completion at the average rate so
    /// far (0 before the first chunk lands).
    pub eta_ms: u64,
    /// Backend reads per logical disk since registration, less
    /// repair work (the entry for `failed_disk` is 0).
    pub per_disk_reads: Vec<u64>,
    /// Mean fraction of a surviving disk read per reconstructed unit
    /// so far — declustering predicts `(k−1)/(v−1)`.
    pub mean_read_fraction: f64,
}

/// Shared per-disk I/O counters: units transferred and backend calls,
/// one atomic `fetch_add` per backend operation. This is the single
/// counter implementation behind every bundled [`crate::Backend`]
/// (the registry's per-disk axis), replacing the per-backend private
/// duplicates.
#[derive(Debug)]
pub struct DiskCounters {
    reads: Vec<AtomicU64>,
    writes: Vec<AtomicU64>,
    read_calls: Vec<AtomicU64>,
    write_calls: Vec<AtomicU64>,
}

impl DiskCounters {
    /// Zeroed counters for `disks` disks.
    pub(crate) fn new(disks: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        DiskCounters {
            reads: zeros(disks),
            writes: zeros(disks),
            read_calls: zeros(disks),
            write_calls: zeros(disks),
        }
    }

    /// Records one read call transferring `units` units.
    pub(crate) fn add_read(&self, disk: usize, units: u64) {
        self.reads[disk].fetch_add(units, Ordering::Relaxed);
        self.read_calls[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one write call transferring `units` units.
    pub(crate) fn add_write(&self, disk: usize, units: u64) {
        self.writes[disk].fetch_add(units, Ordering::Relaxed);
        self.write_calls[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Units read from `disk`.
    pub(crate) fn read_units(&self, disk: usize) -> u64 {
        self.reads[disk].load(Ordering::Relaxed)
    }

    /// Units written to `disk`.
    pub(crate) fn write_units(&self, disk: usize) -> u64 {
        self.writes[disk].load(Ordering::Relaxed)
    }

    /// Read calls served by `disk`.
    pub(crate) fn read_calls(&self, disk: usize) -> u64 {
        self.read_calls[disk].load(Ordering::Relaxed)
    }

    /// Write calls served by `disk`.
    pub(crate) fn write_calls(&self, disk: usize) -> u64 {
        self.write_calls[disk].load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub(crate) fn reset(&self) {
        for c in
            self.reads.iter().chain(&self.writes).chain(&self.read_calls).chain(&self.write_calls)
        {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Per-kind counters in a [`StatsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpStatSnapshot {
    /// Snake-case name of the [`OpKind`] (`read`, `degraded_read`, …).
    pub kind: String,
    /// Operations recorded.
    pub ops: u64,
    /// Units (blocks) moved.
    pub units: u64,
    /// Log2 latency bucket counts (bucket `i` counts ops that took
    /// `[2^i, 2^(i+1))` ns); sampled 1 in 64 unless a sink forced
    /// timing.
    pub latency_log2_ns: Vec<u64>,
}

/// Per-logical-disk backend counters in a [`StatsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskStatSnapshot {
    /// Logical disk index.
    pub disk: usize,
    /// Units read.
    pub read_units: u64,
    /// Units written.
    pub write_units: u64,
    /// Backend read calls.
    pub read_calls: u64,
    /// Backend write calls.
    pub write_calls: u64,
}

/// Write-back cache statistics in a [`StatsSnapshot`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CacheStatsSnapshot {
    /// Read probes served from a dirty cached unit.
    pub hits: u64,
    /// Read probes that fell through to the backend.
    pub misses: u64,
    /// Stripe entries created.
    pub insertions: u64,
    /// Writes absorbed into an already-dirty unit (combined RMWs).
    pub absorbed_writes: u64,
    /// Stripes flushed by over-budget eviction.
    pub evictions: u64,
    /// Stripes flushed (all causes).
    pub flushed_stripes: u64,
    /// Dirty units carried by those flushes.
    pub flushed_units: u64,
    /// Stripes dirty right now.
    pub dirty_stripes: u64,
}

/// One degraded-window level's accumulated totals.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// Windows entered at this level.
    pub windows: u64,
    /// Wall-clock nanoseconds spent at this level (open window
    /// included).
    pub wall_ns: u64,
    /// Ops recorded while at this level.
    pub ops: u64,
}

/// Degraded-window accounting split by erasure count.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DegradedSnapshot {
    /// Time with exactly one disk failed.
    pub one: WindowSnapshot,
    /// Time with exactly two disks failed (P+Q only).
    pub two: WindowSnapshot,
}

/// Summed I/O totals over every disk of a snapshot — the budget
/// currency of the accounting tests. Subtract two snapshots' totals
/// ([`IoTotals::since`]) to budget one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Units read, all disks.
    pub read_units: u64,
    /// Units written, all disks.
    pub write_units: u64,
    /// Backend read calls, all disks.
    pub read_calls: u64,
    /// Backend write calls, all disks.
    pub write_calls: u64,
}

impl IoTotals {
    /// The delta from `earlier` to `self` (saturating).
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals {
            read_units: self.read_units.saturating_sub(earlier.read_units),
            write_units: self.write_units.saturating_sub(earlier.write_units),
            read_calls: self.read_calls.saturating_sub(earlier.read_calls),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
        }
    }
}

/// A point-in-time view of everything the store measures, returned by
/// [`crate::BlockStore::stats`]. Serializable with the workspace's
/// vendored serde (`serde_json::to_string` / `from_str`) — this is
/// the `stats.json` schema the CI artifacts carry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Per-op-kind counters and latency histograms.
    pub ops: Vec<OpStatSnapshot>,
    /// Per-logical-disk backend counters.
    pub disks: Vec<DiskStatSnapshot>,
    /// Write-back cache statistics.
    pub cache: CacheStatsSnapshot,
    /// Degraded-window accounting.
    pub degraded: DegradedSnapshot,
    /// Contended stripe-shard lock acquisitions.
    pub lock_contention: u64,
    /// The store's failure-state epoch at snapshot time.
    pub epoch: u64,
    /// Live progress of a registered rebuild, if one is running.
    pub rebuild: Option<RebuildProgress>,
    /// Live progress of a registered reshape, if one is running.
    pub reshape: Option<ReshapeProgressSnapshot>,
    /// Integrity-subsystem totals: repairs, retries, scrub state, and
    /// per-disk health.
    pub integrity: crate::integrity::IntegrityStatsSnapshot,
    /// Maintenance-runner state: scrub and reshape-driver activity,
    /// driver, restart and arbitration counters.
    pub maintenance: crate::maintenance::MaintenanceStateSnapshot,
    /// Async I/O engine state — per-disk queue-depth gauges, EWMA
    /// service times, the queue-wait histogram, and the queue-tier
    /// arbitration counters. `None` (serialized as `null`) while no
    /// engine is running.
    pub engine: Option<crate::engine::EngineStatsSnapshot>,
}

/// Live progress of a running reshape in a [`StatsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct ReshapeProgressSnapshot {
    /// `"add"` or `"remove"`.
    pub kind: String,
    /// Logical disks the target layout spans.
    pub to_v: u32,
    /// Target stripes migrated so far.
    pub stripes_done: u64,
    /// Total target stripes to migrate.
    pub stripes_total: u64,
    /// Units copied into the target world so far.
    pub units_copied: u64,
    /// Milliseconds since the reshape registered.
    pub elapsed_ms: u64,
}

impl StatsSnapshot {
    /// Sums the per-disk counters into one [`IoTotals`].
    pub fn io_totals(&self) -> IoTotals {
        let mut t = IoTotals::default();
        for d in &self.disks {
            t.read_units += d.read_units;
            t.write_units += d.write_units;
            t.read_calls += d.read_calls;
            t.write_calls += d.write_calls;
        }
        t
    }

    /// The op-kind entry named `kind`, if recorded.
    pub fn op(&self, kind: OpKind) -> Option<&OpStatSnapshot> {
        self.ops.iter().find(|o| o.kind == kind.name())
    }

    /// The snapshot as compact JSON — the `stats.json` payload the
    /// stress harness persists for CI.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("StatsSnapshot serializes")
    }
}

/// Renders a [`StatsSnapshot`] as human-readable text (the
/// `examples/` view of `stats.json`).
pub fn render_stats(s: &StatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Not snapshot fields: the kernels are a property of the process
    // rendering the numbers, and the JSON schema stays as it is.
    let _ = writeln!(out, "gf256 kernel: {}", pdl_algebra::gf256::kernel_name());
    let _ = writeln!(out, "xxh64 kernel: {}", pdl_algebra::xxh64::kernel_name());
    let _ = writeln!(out, "ops (kind: ops / units / sampled-latency p50..max):");
    for o in &s.ops {
        if o.ops == 0 {
            continue;
        }
        let samples: u64 = o.latency_log2_ns.iter().sum();
        let lat = if samples == 0 {
            "-".to_string()
        } else {
            let mut seen = 0u64;
            let mut p50 = 0usize;
            for (b, &c) in o.latency_log2_ns.iter().enumerate() {
                seen += c;
                if seen * 2 >= samples {
                    p50 = b;
                    break;
                }
            }
            let max = o.latency_log2_ns.iter().rposition(|&c| c > 0).unwrap_or(0);
            format!("~{}..{}", fmt_ns(1u64 << p50), fmt_ns(1u64 << max))
        };
        let _ = writeln!(out, "  {:<14} {:>10} / {:>10} / {}", o.kind, o.ops, o.units, lat);
    }
    let _ = writeln!(out, "disks (d: rU/wU/rC/wC):");
    for d in &s.disks {
        let _ = writeln!(
            out,
            "  d{:<2} {:>8} / {:>8} / {:>6} / {:>6}",
            d.disk, d.read_units, d.write_units, d.read_calls, d.write_calls
        );
    }
    let c = &s.cache;
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses, {} absorbed, {} flushed stripes ({} units), {} evicted, \
         {} dirty",
        c.hits,
        c.misses,
        c.absorbed_writes,
        c.flushed_stripes,
        c.flushed_units,
        c.evictions,
        c.dirty_stripes
    );
    let win = |w: &WindowSnapshot| {
        format!("{} window(s), {:.1} ms, {} ops", w.windows, w.wall_ns as f64 / 1e6, w.ops)
    };
    let _ = writeln!(
        out,
        "degraded: one-erasure {}; two-erasure {}",
        win(&s.degraded.one),
        win(&s.degraded.two)
    );
    let _ = writeln!(out, "lock contention: {} contended acquisitions", s.lock_contention);
    match &s.rebuild {
        Some(r) => {
            let _ = writeln!(
                out,
                "rebuild: disk {} -> spare {}, {}/{} units, {} ms elapsed, eta {} ms, mean read \
                 fraction {:.3}",
                r.failed_disk,
                r.spare_disk,
                r.units_done,
                r.units_total,
                r.elapsed_ms,
                r.eta_ms,
                r.mean_read_fraction
            );
        }
        None => {
            let _ = writeln!(out, "rebuild: none running (epoch {})", s.epoch);
        }
    }
    if let Some(r) = &s.reshape {
        let _ = writeln!(
            out,
            "reshape: {} -> v={}, {}/{} target stripes, {} units copied, {} ms elapsed",
            r.kind, r.to_v, r.stripes_done, r.stripes_total, r.units_copied, r.elapsed_ms
        );
    }
    let ig = &s.integrity;
    let _ = writeln!(
        out,
        "integrity: {} checksum repair(s), {} parity repair(s), {} transient retr(ies), \
         {} scrub pass(es), cursor {}",
        ig.checksum_repairs,
        ig.parity_repairs,
        ig.transient_retries,
        ig.scrub_passes,
        ig.scrub_cursor
    );
    let m = &s.maintenance;
    let _ = writeln!(
        out,
        "maintenance: scrub {} ({} yield(s), {} idle restart(s)); driver {} ({} run(s), {} \
         step(s), {} resume(s))",
        if m.scrub_active { "ACTIVE" } else { "idle" },
        m.scrub_yields,
        m.idle_restarts,
        if m.reshape_driver_active { "ACTIVE" } else { "idle" },
        m.driver_runs,
        m.driver_steps,
        m.driver_resumes
    );
    for d in &ig.disk_health {
        if d.errors == 0 && d.repairs == 0 && d.retries == 0 && !d.auto_failed {
            continue;
        }
        let _ = writeln!(
            out,
            "  health d{:<2} {:>4} err / {:>4} rep / {:>4} retry{}",
            d.disk,
            d.errors,
            d.repairs,
            d.retries,
            if d.auto_failed { "  AUTO-FAILED" } else { "" }
        );
    }
    if let Some(e) = &s.engine {
        let _ = writeln!(
            out,
            "engine: {} worker(s); {} client + {} maintenance submitted, \
             {} completed ({} error(s)), {} maintenance deferral(s)",
            e.workers,
            e.client_submitted,
            e.maintenance_submitted,
            e.completed,
            e.errors,
            e.maintenance_deferred
        );
        for d in &e.disks {
            if d.submitted == 0 && d.inline == 0 && d.queued == 0 && d.in_flight == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  queue d{:<2} {:>3} queued / {:>2} in-flight / ewma {:>6}us / {:>8} sub / \
                 {:>8} done / {:>8} inline",
                d.disk,
                d.queued,
                d.in_flight,
                d.ewma_service_us,
                d.submitted,
                d.completed,
                d.inline
            );
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to the last bucket
        let s = h.snapshot();
        assert_eq!(s[0], 2);
        assert_eq!(s[1], 1);
        assert_eq!(s[9], 1);
        assert_eq!(s[10], 1);
        assert_eq!(s[LatencyHistogram::BUCKETS - 1], 1);
        assert_eq!(s.iter().sum::<u64>(), 6);
    }

    #[test]
    fn metrics_counts_and_samples() {
        let m = Metrics::default();
        for _ in 0..(Metrics::SAMPLE_EVERY * 2) {
            let t = m.begin(OpKind::Read, false);
            m.finish(t, 1);
        }
        let (ops, _, _) = m.snapshot();
        let read = ops.iter().find(|o| o.kind == "read").unwrap();
        assert_eq!(read.ops, Metrics::SAMPLE_EVERY * 2);
        assert_eq!(read.units, Metrics::SAMPLE_EVERY * 2);
        // Exactly the 1-in-SAMPLE_EVERY ops were timed.
        assert_eq!(read.latency_log2_ns.iter().sum::<u64>(), 2);
        // Forced timing (sink installed) always records.
        let t = m.begin(OpKind::Write, true);
        assert!(m.finish(t, 1).is_some());
    }

    #[test]
    fn degraded_windows_split_by_level() {
        let m = Metrics::default();
        m.degraded_transition(0, 1, 10);
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.degraded_transition(1, 2, 30);
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.degraded_transition(2, 1, 70);
        m.degraded_transition(1, 0, 100);
        let snap = m.degraded_snapshot();
        assert_eq!(snap.one.windows, 1);
        assert_eq!(snap.two.windows, 1);
        assert_eq!(snap.one.ops, (30 - 10) + (100 - 70));
        assert_eq!(snap.two.ops, 70 - 30);
        assert!(snap.one.wall_ns >= 2_000_000);
        assert!(snap.two.wall_ns >= 2_000_000);
    }

    #[test]
    fn trace_log_rings() {
        let log = TraceLog::with_capacity(2);
        log.record(&Event::DiskFailed { disk: 1, epoch: 1 });
        log.record(&Event::DiskFailed { disk: 2, epoch: 2 });
        log.record(&Event::DiskFailed { disk: 3, epoch: 3 });
        assert_eq!(log.recorded(), 3);
        let evs = log.events();
        assert_eq!(evs.len(), 2, "oldest dropped");
        assert_eq!(evs[0], Event::DiskFailed { disk: 2, epoch: 2 });
        assert_eq!(evs[1], Event::DiskFailed { disk: 3, epoch: 3 });
    }

    #[test]
    fn stats_snapshot_roundtrips_through_serde() {
        let snap = StatsSnapshot {
            ops: vec![OpStatSnapshot {
                kind: "read".into(),
                ops: 3,
                units: 7,
                latency_log2_ns: vec![0, 2, 1],
            }],
            disks: vec![DiskStatSnapshot {
                disk: 0,
                read_units: 10,
                write_units: 4,
                read_calls: 2,
                write_calls: 1,
            }],
            cache: CacheStatsSnapshot { hits: 5, ..Default::default() },
            degraded: DegradedSnapshot {
                one: WindowSnapshot { windows: 1, wall_ns: 99, ops: 12 },
                two: WindowSnapshot::default(),
            },
            lock_contention: 2,
            epoch: 4,
            rebuild: Some(RebuildProgress {
                failed_disk: 1,
                spare_disk: 9,
                units_done: 8,
                units_total: 16,
                elapsed_ms: 3,
                eta_ms: 3,
                per_disk_reads: vec![3, 0, 3],
                mean_read_fraction: 0.375,
            }),
            reshape: Some(ReshapeProgressSnapshot {
                kind: "add".into(),
                to_v: 9,
                stripes_done: 36,
                stripes_total: 72,
                units_copied: 144,
                elapsed_ms: 11,
            }),
            integrity: crate::integrity::IntegrityStatsSnapshot {
                checksum_repairs: 2,
                parity_repairs: 1,
                transient_retries: 4,
                scrub_passes: 1,
                scrub_cursor: 5,
                disk_health: vec![crate::integrity::DiskHealthSnapshot {
                    disk: 3,
                    errors: 1,
                    repairs: 2,
                    retries: 4,
                    recent: 1,
                    auto_failed: true,
                }],
            },
            maintenance: crate::maintenance::MaintenanceStateSnapshot {
                scrub_active: true,
                idle_restarts: 3,
                scrub_yields: 2,
                driver_runs: 1,
                ..Default::default()
            },
            engine: Some(crate::engine::EngineStatsSnapshot {
                workers: 9,
                client_submitted: 40,
                maintenance_submitted: 6,
                completed: 46,
                errors: 0,
                maintenance_deferred: 2,
                queue_wait_log2_ns: vec![0, 1, 3],
                disks: vec![crate::engine::EngineDiskSnapshot {
                    disk: 0,
                    queued: 0,
                    in_flight: 1,
                    ewma_service_us: 120,
                    submitted: 5,
                    completed: 4,
                    coalesced: 0,
                    inline: 30,
                }],
            }),
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ops[0].units, 7);
        assert_eq!(back.disks[0].read_units, 10);
        assert_eq!(back.cache.hits, 5);
        assert_eq!(back.degraded.one.ops, 12);
        assert_eq!(back.rebuild.as_ref().unwrap().per_disk_reads, vec![3, 0, 3]);
        assert_eq!(back.reshape.as_ref().unwrap().stripes_done, 36);
        assert_eq!(back.integrity.checksum_repairs, 2);
        assert!(back.integrity.disk_health[0].auto_failed);
        // The text renderer covers every section without panicking.
        let text = render_stats(&back);
        let kernels = format!(
            "gf256 kernel: {}\nxxh64 kernel: {}\n",
            pdl_algebra::gf256::kernel_name(),
            pdl_algebra::xxh64::kernel_name()
        );
        assert!(text.starts_with(&kernels), "{text}");
        assert!(text.contains("degraded:"));
        assert!(text.contains("rebuild: disk 1"));
        assert!(text.contains("reshape: add -> v=9"));
        assert!(text.contains("integrity: 2 checksum repair(s)"));
        assert_eq!(back.maintenance.idle_restarts, 3);
        assert!(text.contains("maintenance: scrub ACTIVE (2 yield(s), 3 idle restart(s))"));
        let eng = back.engine.as_ref().unwrap();
        assert_eq!(eng.client_submitted, 40);
        assert_eq!(eng.maintenance_deferred, 2);
        assert_eq!(eng.disks[0].inline, 30);
        assert!(text.contains("engine: 9 worker(s); 40 client + 6 maintenance submitted"));
        assert!(text.contains("       4 done /       30 inline"));
        assert!(!text.contains("coalesced"));
        // Engine-less snapshots round-trip the section as null.
        let mut no_engine = snap.clone();
        no_engine.engine = None;
        let json2 = serde_json::to_string(&no_engine).unwrap();
        let back2: StatsSnapshot = serde_json::from_str(&json2).unwrap();
        assert!(back2.engine.is_none());
        assert!(text.contains("AUTO-FAILED"));
    }

    #[test]
    fn io_totals_diff() {
        let a = IoTotals { read_units: 10, write_units: 5, read_calls: 3, write_calls: 2 };
        let b = IoTotals { read_units: 25, write_units: 9, read_calls: 7, write_calls: 2 };
        assert_eq!(
            b.since(&a),
            IoTotals { read_units: 15, write_units: 4, read_calls: 4, write_calls: 0 }
        );
    }
}
