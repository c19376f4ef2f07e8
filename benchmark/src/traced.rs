//! Tracing from outside the program: a [`TracedBackend`] wrapper over
//! the public `Backend` trait records a span and the bytes moved for
//! every I/O call the store (or its engine's workers) makes, and the
//! client loop records a span around every call into the store.
//!
//! Two things are kept. *Aggregates* — calls, units, nanoseconds, a
//! latency histogram, and the time during which at least one backend
//! call was in flight — are updated on every call of the traced leg,
//! in per-thread single-writer cells. Calls and units are always
//! counted; when one synchronous client makes sub-microsecond backend
//! calls, two clock reads per call (60 ns here) would be most of the
//! tracing cost, so only a pseudo-random eighth of the calls is timed
//! and the time totals are scaled by calls ÷ timed calls. *Spans* are
//! kept whole
//! (`name, start, end, parent`) only while the tracer is sampling,
//! i.e. for the first ops of the leg, in per-thread buffers that are
//! merged and written out after the clock stops: a run makes millions
//! of calls and a trace of all of them would cost more than the run.

use crate::hist::{Hist, BUCKETS};
use pdl_store::{Backend, StoreError};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What a span around nothing measures: the median gap between two
/// back-to-back clock reads (≈ 30 ns here). A 40 ns `MemBackend` call
/// would read as 70 ns, so span durations are reduced by it before they
/// are added up.
pub fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut gaps: Vec<u64> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                (Instant::now() - start).as_nanos() as u64
            })
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// Threads that may hold a slot at once: clients, one engine worker per
/// disk (26 on the widest array), a rebuild worker and the main thread.
const MAX_THREADS: usize = 64;
/// With one synchronous client, one backend call in this many is timed.
const TIMED_STRIDE: u64 = 8;
/// Whole spans kept per thread while sampling.
const SPANS_PER_THREAD: usize = 1 << 15;

/// A thread's index into every tracer's slot array, handed back when
/// the thread exits so the short-lived rebuild workers reuse one.
struct SlotId(usize);

static FREE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);

impl SlotId {
    fn claim() -> SlotId {
        let recycled = FREE_SLOTS.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let id = recycled.unwrap_or_else(|| NEXT_SLOT.fetch_add(1, Ordering::Relaxed) as usize);
        assert!(id < MAX_THREADS, "more than {MAX_THREADS} threads are issuing traced calls");
        SlotId(id)
    }
}

impl Drop for SlotId {
    fn drop(&mut self) {
        FREE_SLOTS.lock().unwrap_or_else(|e| e.into_inner()).push(self.0);
    }
}

thread_local! {
    static SLOT: SlotId = SlotId::claim();
    /// Span id of the client call this thread is inside, 0 when none.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

fn slot_index() -> usize {
    SLOT.with(|s| s.0)
}

/// One recorded span. `op` is shared by every span of one client call
/// and `parent` is the span that caused this one; both are 0 for spans
/// with no client call on their thread (engine workers, set-up steps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub op: u64,
    pub parent: u64,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    pub calls: u64,
    pub units: u64,
    /// Time inside the calls; an estimate when only some were timed.
    pub ns: u64,
}

/// Sum of the aggregates at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub read: KindTotals,
    pub write: KindTotals,
    pub flush: KindTotals,
    /// Nanoseconds during which at least one backend call was in flight.
    pub busy_ns: u64,
}

impl Totals {
    pub fn since(&self, earlier: &Totals) -> Totals {
        let sub = |a: KindTotals, b: KindTotals| KindTotals {
            calls: a.calls - b.calls,
            units: a.units - b.units,
            ns: a.ns - b.ns,
        };
        Totals {
            read: sub(self.read, earlier.read),
            write: sub(self.write, earlier.write),
            flush: sub(self.flush, earlier.flush),
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Per-thread cells. Only the owning thread writes them, with a plain
/// load and store (no locked instruction on the hot path); they are
/// read from other threads only when no call is in flight.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    cells: [AtomicU64; 10],
    /// State of the generator that picks the calls to time.
    draw: AtomicU64,
    /// Latency histogram of this thread's read and write calls (see
    /// [`crate::hist`] for the bucketing), allocated on first use.
    call_ns: OnceLock<Vec<AtomicU64>>,
    spans: Mutex<Vec<Span>>,
    next_span: AtomicU64,
}

/// Single-writer increment: a plain load and store.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Cell layout: `[calls, units, ns, timed calls]` for reads and for
/// writes, `[calls, ns]` for flushes (all timed).
const READ: usize = 0;
const WRITE: usize = 4;
const FLUSH: usize = 8;

impl Slot {
    #[inline]
    fn add(&self, cell: usize, n: u64) {
        bump(&self.cells[cell], n);
    }

    #[inline]
    fn record_call(&self, ns: u64) {
        let hist = self.call_ns.get_or_init(|| (0..BUCKETS).map(|_| AtomicU64::new(0)).collect());
        bump(&hist[Hist::bucket_of(ns)], 1);
    }

    /// One call in `stride`, chosen by a per-thread LCG so that no
    /// periodic call pattern (read, read, write, write) aliases with it.
    #[inline]
    fn draw(&self, stride: u64) -> bool {
        let next = self
            .draw
            .load(Ordering::Relaxed)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.draw.store(next, Ordering::Relaxed);
        (next >> 33).is_multiple_of(stride)
    }

    fn get(&self, cell: usize) -> u64 {
        self.cells[cell].load(Ordering::Relaxed)
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    sampling: AtomicBool,
    slots: Vec<Slot>,
    /// Backend calls may overlap (engine workers, several clients): the
    /// busy time is then the union of their spans, tracked through an
    /// in-flight count, and every call is timed. With one synchronous
    /// client the union is the plain sum, the two locked instructions
    /// per call are skipped and one call in [`TIMED_STRIDE`] is timed.
    overlap: bool,
    clock_cost_ns: u64,
    in_flight: AtomicU32,
    busy_since: AtomicU64,
    busy_ns: AtomicU64,
}

impl Tracer {
    pub fn new(overlap: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            sampling: AtomicBool::new(false),
            slots: (0..MAX_THREADS).map(|_| Slot::default()).collect(),
            overlap,
            clock_cost_ns: clock_cost_ns(),
            in_flight: AtomicU32::new(0),
            busy_since: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Turns span timing and aggregation on or off. Only call while no
    /// backend call is in flight.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Starts or stops keeping whole spans (see the module docs).
    pub fn set_sampling(&self, on: bool) {
        self.sampling.store(on, Ordering::SeqCst);
    }

    pub fn sampling(&self) -> bool {
        self.sampling.load(Ordering::Relaxed)
    }

    /// Sums every thread's cells. Counts are exact when no call is in
    /// flight; times are scaled up from the timed calls.
    pub fn totals(&self) -> Totals {
        let sum = |cell: usize| self.slots.iter().map(|s| s.get(cell)).sum::<u64>();
        let kind = |base: usize| {
            let (calls, timed) = (sum(base), sum(base + 3));
            let ns =
                (sum(base + 2) as u128 * calls as u128).checked_div(timed as u128).unwrap_or(0);
            KindTotals { calls, units: sum(base + 1), ns: ns as u64 }
        };
        let mut t = Totals {
            read: kind(READ),
            write: kind(WRITE),
            flush: KindTotals { calls: sum(FLUSH), units: 0, ns: sum(FLUSH + 1) },
            busy_ns: 0,
        };
        t.busy_ns = if self.overlap {
            self.busy_ns.load(Ordering::Relaxed)
        } else {
            t.read.ns + t.write.ns + t.flush.ns
        };
        t
    }

    /// Latencies of every read and write call recorded so far.
    pub fn call_latencies(&self) -> Hist {
        let mut all = Hist::default();
        for counts in self.slots.iter().filter_map(|s| s.call_ns.get()) {
            all.merge(&Hist::from_counts(
                counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            ));
        }
        all
    }

    /// Marks the calling thread as inside client call `op` (0: none),
    /// so backend spans recorded on it name their parent.
    pub fn enter_op(&self, op: u64) {
        CURRENT_OP.with(|c| c.set(op));
    }

    /// A fresh span id, unique across threads.
    pub fn new_span_id(&self) -> u64 {
        let idx = slot_index();
        let s = &self.slots[idx];
        let n = s.next_span.load(Ordering::Relaxed) + 1;
        s.next_span.store(n, Ordering::Relaxed);
        ((idx as u64 + 1) << 40) | n
    }

    /// Keeps a whole span in the calling thread's buffer (dropped once
    /// the buffer is full).
    pub fn push_span(
        &self,
        name: &'static str,
        id: u64,
        op: u64,
        parent: u64,
        start: u64,
        end: u64,
    ) {
        let idx = slot_index();
        let mut spans = self.slots[idx].spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.capacity() == 0 {
            spans.reserve_exact(SPANS_PER_THREAD);
        }
        if spans.len() < SPANS_PER_THREAD {
            spans.push(Span { name, id, op, parent, thread: idx, start_ns: start, end_ns: end });
        }
    }

    /// Drains every thread's span buffer, ordered by start time.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for s in &self.slots {
            all.append(&mut s.spans.lock().unwrap_or_else(|e| e.into_inner()));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// The calling thread's slot and whether to time the call that is
    /// about to be made; `None` while the tracer is off.
    #[inline]
    fn plan(&self, base: usize) -> Option<(&Slot, bool)> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let slot = &self.slots[slot_index()];
        let timed = self.overlap
            || base == FLUSH
            || slot.draw(TIMED_STRIDE)
            || self.sampling.load(Ordering::Relaxed);
        Some((slot, timed))
    }

    #[inline]
    fn begin(&self) -> Instant {
        let start = Instant::now();
        if self.overlap && self.in_flight.fetch_add(1, Ordering::AcqRel) == 0 {
            self.busy_since.store(since_epoch(start), Ordering::Release);
        }
        start
    }

    #[inline]
    fn end(&self, slot: &Slot, name: &'static str, base: usize, start: Instant) {
        let end = Instant::now();
        let ns = ((end - start).as_nanos() as u64).saturating_sub(self.clock_cost_ns);
        if self.overlap && self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // A call starting right now may already have moved
            // `busy_since` past `end`; that idle gap is then not busy.
            let since = self.busy_since.load(Ordering::Acquire);
            self.busy_ns.fetch_add(since_epoch(end).saturating_sub(since), Ordering::Relaxed);
        }
        if base == FLUSH {
            slot.add(FLUSH + 1, ns);
        } else {
            slot.add(base + 2, ns);
            slot.add(base + 3, 1);
            slot.record_call(ns);
        }
        if self.sampling.load(Ordering::Relaxed) {
            let op = CURRENT_OP.with(|c| c.get());
            self.push_span(name, self.new_span_id(), op, op, since_epoch(start), since_epoch(end));
        }
    }
}

fn since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// A backend that times and counts every I/O call it passes on.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Tracer,
}

impl<B: Backend> TracedBackend<B> {
    /// `overlap` says whether backend calls can be in flight
    /// concurrently (engine on, or more than one client).
    pub fn new(inner: B, overlap: bool) -> Self {
        TracedBackend { inner, tracer: Tracer::new(overlap) }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    #[inline]
    fn traced<T>(
        &self,
        name: &'static str,
        base: usize,
        units: impl FnOnce(&B) -> usize,
        call: impl FnOnce(&B) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let Some((slot, timed)) = self.tracer.plan(base) else {
            return call(&self.inner);
        };
        slot.add(base, 1);
        if base != FLUSH {
            slot.add(base + 1, units(&self.inner) as u64);
        }
        if !timed {
            return call(&self.inner);
        }
        let start = self.tracer.begin();
        let out = call(&self.inner);
        self.tracer.end(slot, name, base, start);
        out
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn units_per_disk(&self) -> usize {
        self.inner.units_per_disk()
    }

    fn unit_size(&self) -> usize {
        self.inner.unit_size()
    }

    fn read_unit(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.traced("backend.read", READ, |_| 1, |b| b.read_unit(disk, offset, buf))
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.traced("backend.write", WRITE, |_| 1, |b| b.write_unit(disk, offset, buf))
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let bytes = buf.len();
        self.traced(
            "backend.read",
            READ,
            |b| bytes / b.unit_size(),
            |b| b.read_units(disk, offset, buf),
        )
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        let units = |b: &B| buf.len() / b.unit_size();
        self.traced("backend.write", WRITE, units, |b| b.write_units(disk, offset, buf))
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        let bytes: usize = bufs.iter().map(|b| b.len()).sum();
        let units = |b: &B| bytes / b.unit_size();
        self.traced("backend.read", READ, units, |b| b.read_units_scatter(disk, offset, bufs))
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        let units = |b: &B| bufs.iter().map(|x| x.len()).sum::<usize>() / b.unit_size();
        self.traced("backend.write", WRITE, units, |b| b.write_units_gather(disk, offset, bufs))
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.traced("backend.flush", FLUSH, |_| 0, |b| b.flush())
    }

    fn read_count(&self, disk: usize) -> u64 {
        self.inner.read_count(disk)
    }

    fn write_count(&self, disk: usize) -> u64 {
        self.inner.write_count(disk)
    }

    fn read_calls(&self, disk: usize) -> u64 {
        self.inner.read_calls(disk)
    }

    fn write_calls(&self, disk: usize) -> u64 {
        self.inner.write_calls(disk)
    }

    fn prefers_gap_bridging(&self) -> bool {
        self.inner.prefers_gap_bridging()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError> {
        self.inner.wipe_disk(disk)
    }

    fn persist_mapping(&self, redirect: &[usize]) -> Result<(), StoreError> {
        self.inner.persist_mapping(redirect)
    }

    fn load_mapping(&self) -> Result<Option<Vec<usize>>, StoreError> {
        self.inner.load_mapping()
    }

    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        self.inner.set_units_per_disk(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_store::MemBackend;

    const UNIT: usize = 64;

    fn pattern(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_mul(31).wrapping_add(i as u8)).collect()
    }

    /// The same calls against a bare and a traced backend.
    fn drive(b: &dyn Backend) -> Vec<u8> {
        b.write_unit(0, 1, &pattern(1, UNIT)).unwrap();
        b.write_units(1, 2, &pattern(2, 3 * UNIT)).unwrap();
        let (g1, g2) = (pattern(3, UNIT), pattern(4, 2 * UNIT));
        b.write_units_gather(2, 0, &[&g1, &g2]).unwrap();
        b.flush().unwrap();
        let mut out = vec![0u8; 9 * UNIT];
        let (a, rest) = out.split_at_mut(UNIT);
        let (c, rest) = rest.split_at_mut(3 * UNIT);
        let (d, e) = rest.split_at_mut(2 * UNIT);
        b.read_unit(0, 1, a).unwrap();
        b.read_units(1, 2, c).unwrap();
        b.read_units_scatter(2, 0, &mut [d, &mut e[..UNIT]]).unwrap();
        out
    }

    #[test]
    fn byte_transparent_and_counts_match_the_inner_backend() {
        let bare = MemBackend::new(3, 8, UNIT);
        let traced = TracedBackend::new(MemBackend::new(3, 8, UNIT), false);
        traced.tracer().set_enabled(true);
        assert_eq!(drive(&bare), drive(&traced));

        let t = traced.tracer().totals();
        let inner = traced.inner();
        let sum = |f: &dyn Fn(usize) -> u64| (0..3).map(f).sum::<u64>();
        assert_eq!(t.read.calls, sum(&|d| inner.read_calls(d)));
        assert_eq!(t.read.units, sum(&|d| inner.read_count(d)));
        assert_eq!(t.write.calls, sum(&|d| inner.write_calls(d)));
        assert_eq!(t.write.units, sum(&|d| inner.write_count(d)));
        assert_eq!((t.read.calls, t.read.units), (3, 7));
        assert_eq!((t.write.calls, t.write.units), (3, 7));
        assert_eq!(t.flush.calls, 1);
        assert_eq!(t.busy_ns, t.read.ns + t.write.ns + t.flush.ns);
        assert!(traced.tracer().call_latencies().count() <= 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let traced = TracedBackend::new(MemBackend::new(3, 8, UNIT), true);
        drive(&traced);
        assert_eq!(traced.tracer().totals(), Totals::default());
        assert!(traced.tracer().take_spans().is_empty());
    }

    #[test]
    fn sampled_spans_name_their_client_call() {
        let traced = TracedBackend::new(MemBackend::new(3, 8, UNIT), true);
        let tr = traced.tracer();
        tr.set_enabled(true);
        tr.set_sampling(true);
        let op = tr.new_span_id();
        tr.enter_op(op);
        traced.write_unit(0, 0, &pattern(9, UNIT)).unwrap();
        tr.enter_op(0);
        std::thread::scope(|s| {
            s.spawn(|| traced.flush().unwrap());
        });
        let spans = tr.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].op, spans[0].parent), ("backend.write", op, op));
        assert_eq!((spans[1].name, spans[1].op), ("backend.flush", 0));
        assert_ne!(spans[0].thread, spans[1].thread);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Overlap tracking: two back-to-back calls, never concurrent.
        let t = tr.totals();
        assert!(t.busy_ns <= t.write.ns + t.flush.ns);
    }
}
