//! The block store: real bytes through a parity-declustered layout.
//!
//! A [`BlockStore`] couples a validated [`Layout`], a scheme-aware
//! [`StripeMap`], and a [`Backend`] into a fault-tolerant array whose
//! redundancy level is set by its [`ParityScheme`]:
//!
//! * **XOR** (single parity) — every write maintains the stripe XOR
//!   invariant; any one disk may fail.
//! * **P+Q** (double parity) — every write additionally maintains a
//!   Reed–Solomon Q unit over `GF(2^8)`; any two disks may fail
//!   concurrently.
//!
//! Reads of failed disks reconstruct from the surviving stripe
//! members (one- or two-erasure decode); writes keep all surviving
//! parity consistent so no acknowledged data is ever lost while the
//! array is degraded; and spare disks take over failed ones after an
//! online rebuild ([`crate::Rebuilder`]).
//!
//! ## Concurrency model
//!
//! Every data-path operation — reads, writes, degraded decodes,
//! rebuild chunks — takes `&self`, so one store serves many client
//! threads at once (`BlockStore<B>: Sync` whenever `B: Backend`).
//! Four mechanisms make that safe:
//!
//! 1. **A stripe-sharded lock table** (`StripeLockTable`, whose docs
//!    give the locking discipline): writers lock their stripes' shards
//!    exclusive, degraded reads and rebuild chunks shared.
//! 2. **An `RwLock` epoch around the failure state**
//!    ([`BlockStore::epoch`]). The logical→physical redirect table,
//!    the [`FailureSet`], and the active-rebuild registration live in
//!    one `RwLock`: every data-path op pins a read guard (a stable
//!    snapshot) for its whole duration, while `fail_disk`,
//!    `restore_disk`, and rebuild begin/complete take the write lock —
//!    so a failure transition waits for in-flight I/O to drain and is
//!    never observed half-applied.
//! 3. **Per-disk atomic I/O counters** (see [`Backend`]): counting
//!    never serializes the data path, and counters stay monotonic
//!    across failure events — `fail_disk`/`restore_disk` error paths
//!    touch no counter.
//! 4. **The write-back stripe cache** ([`crate::cache`]) is sharded
//!    by the same `(copy, stripe)` key as the lock table, and every
//!    failure-state transition drains it first.
//!
//! ## The failure/rebuild state machine
//!
//! ```text
//!            fail_disk(d)                fail_disk(d')     (P+Q only)
//! Healthy ───────────────▶ Degraded(1) ───────────────▶ Degraded(2)
//!    ▲                      │      ▲                        │
//!    │   rebuild → spare    │      │   rebuild → spare      │
//!    └──────────────────────┘      └────────────────────────┘
//! ```
//!
//! [`BlockStore::restore_disk`] undoes a *transient* failure; a
//! rebuild ([`crate::Rebuilder`]) redirects the logical disk onto a
//! spare, racing live traffic: writes to the rebuilding disk are
//! *written through* to its spare (`BlockStore::place`).
//!
//! ## Observability
//!
//! Every store owns a [`Metrics`] registry ([`BlockStore::metrics`])
//! and an optional [`crate::EventSink`]
//! ([`BlockStore::set_event_sink`]); [`BlockStore::stats`] snapshots
//! everything. Which operations record which [`OpKind`]s and emit
//! which [`Event`]s:
//!
//! | operation | op kinds recorded | events emitted |
//! |---|---|---|
//! | [`BlockStore::read_block`] / [`BlockStore::read_blocks`] | `Read`, or `DegradedRead` for blocks on failed disks | `OpBegin`/`OpEnd` |
//! | [`BlockStore::write_block`] / [`BlockStore::write_blocks`] | `Write`, or `DegradedWrite` when the stripe (single) / array (batch) has a failure | `OpBegin`/`OpEnd`, `LockContention` (single-block, contended shard) |
//! | [`BlockStore::fail_disk`] | — (degraded window opens) | `DiskFailed` |
//! | [`BlockStore::restore_disk`] | — (degraded window closes) | `DiskRestored` |
//! | rebuild begin/complete/abort | — (window closes on complete) | `RebuildBegan`/`RebuildCompleted`/`RebuildAborted` |
//! | rebuild chunks ([`crate::Rebuilder`]) | `RebuildRead` (the prefetch, timed) + `SpareWrite` (timed from submit to landing) | — |
//! | cache flush batches | `CacheFlush` (units = dirty units flushed) | `CacheFlush` |
//!
//! The four client calls run inside one envelope
//! (`BlockStore::client_op`). `OpBegin`/`OpEnd` spans are emitted only
//! while a sink is installed, and a span closes — op counted, latency
//! recorded, `OpEnd` emitted — only when the call succeeds: an op that
//! fails mid-flight leaves its span unclosed. Disk-health decisions
//! are applied on **every** exit, `Ok` or `Err`: a call whose hard
//! error crosses the auto-fail threshold returns the error with the
//! disk already failed, so the next call is served degraded. Latency
//! histograms sample 1 in [`Metrics::SAMPLE_EVERY`] ops (every op
//! while a sink forces span timing); counters are exact.
//!
//! ## Where the pieces live
//!
//! This module holds the store's state — the lock table, the worlds,
//! the failure epoch, the buffer pools — its failure transitions, and
//! the envelope every client call runs in. Each path has a module of
//! its own:
//!
//! * `read.rs` — healthy and degraded reads, and the parity scan;
//! * `write.rs` — full-stripe planning and the partial-stripe update;
//! * `repair.rs` — the one checked decode and the one repair rule;
//! * `rebuild.rs` — rebuild registration and its chunk pipeline;
//! * `cache.rs` — the write-back cache, its flush and its eviction;
//! * `codec.rs` — the P/Q algebra, named nowhere else;
//! * `io.rs` — every backend write, in rounds: `Io::land` records the
//!   checksum of every unit that reached the backend;
//! * `meta.rs` — the one durability barrier, `BlockStore::persist`,
//!   which syncs data, then checksums, then the document.

use crate::backend::Backend;
use crate::cache::{key_parts, stripe_key, CachePolicy, StripeCache};
use crate::codec::Scratch;
use crate::error::StoreError;
use crate::integrity::{Integrity, RetryPolicy};
use crate::maintenance::MaintState;
use crate::meta::{ArrayDir, Record};
use crate::obs::{
    DiskStatSnapshot, Event, EventHub, EventSink, Metrics, OpKind, RebuildProgress, RebuildTracker,
    StatsSnapshot,
};
use crate::reshape::ReshapeRuntime;
use crate::scheme::{FailureSet, ParityScheme};
use crate::write::ReadRound;
use pdl_core::{DoubleParityLayout, Layout, StripeMap, StripeUnit};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The stripe-sharded lock table: parity updates are multi-unit
/// read-modify-writes over one stripe, so each `(copy, stripe)` pair
/// hashes to one of [`StripeLockTable::SHARDS`] `RwLock` shards.
///
/// Locking discipline (deadlock freedom by construction):
///
/// * an operation computes the full shard set of every stripe it will
///   touch **up front**, sorts and dedups it, and acquires the shards
///   in ascending index order (two-phase: acquire all, then operate,
///   then release all);
/// * writers and the parity-consistency scan take shards *exclusive*;
///   degraded decodes and rebuild prefetches take them *shared* —
///   readers never mutate stripe bytes, so they may overlap freely
///   while any writer still excludes them;
/// * shard locks nest strictly inside the store's state read guard
///   and strictly outside the backend's per-disk locks, and no path
///   acquires them in any other order;
/// * the one path that takes a second shard set while holding one — a
///   rebuild worker handing off from a chunk whose spare write is in
///   flight to the next chunk — takes it with
///   [`StripeLockTable::try_lock_sorted_shared`], never waiting while
///   it holds guards.
///
/// Two distinct stripes may hash to one shard; that only coarsens the
/// exclusion (false sharing of a lock), never breaks it.
#[derive(Debug)]
pub(crate) struct StripeLockTable {
    shards: Box<[RwLock<()>]>,
}

impl StripeLockTable {
    /// Shard count — a power of two so the hash reduces with a shift.
    /// 64 shards keep the table at one cache line per lock word while
    /// making same-shard collisions of independent stripes rare for
    /// the thread counts a single store realistically serves.
    const SHARDS: usize = 64;

    pub(crate) fn new() -> StripeLockTable {
        StripeLockTable { shards: (0..Self::SHARDS).map(|_| RwLock::new(())).collect() }
    }

    /// Shard of a `(copy, stripe)` pair (Fibonacci hash, top bits).
    pub(crate) fn shard_of(&self, copy: usize, stripe: usize) -> usize {
        const { assert!(StripeLockTable::SHARDS.is_power_of_two()) };
        let key = ((copy as u64) << 32) | stripe as u64;
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - Self::SHARDS.trailing_zeros())) as usize
    }

    /// Exclusive guard over one shard that also reports whether the
    /// acquisition had to wait (a contention sample for the metrics
    /// registry): a failed `try_write` means another thread held the
    /// shard at that instant.
    pub(crate) fn lock_one_counting(&self, shard: usize) -> (RwLockWriteGuard<'_, ()>, bool) {
        match self.shards[shard].try_write() {
            Ok(g) => (g, false),
            Err(_) => (self.shards[shard].write().unwrap(), true),
        }
    }

    pub(crate) fn lock_one_shared(&self, shard: usize) -> RwLockReadGuard<'_, ()> {
        self.shards[shard].read().unwrap()
    }

    /// Exclusive guards over a **sorted, deduplicated** shard set (the
    /// ordered-acquisition phase of a multi-stripe write).
    pub(crate) fn lock_sorted(&self, shards: &[usize]) -> Vec<RwLockWriteGuard<'_, ()>> {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        shards.iter().map(|&s| self.shards[s].write().unwrap()).collect()
    }

    /// Shared guards over a sorted, deduplicated shard set (degraded
    /// batch decodes, rebuild chunk prefetches).
    pub(crate) fn lock_sorted_shared(&self, shards: &[usize]) -> Vec<RwLockReadGuard<'_, ()>> {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        shards.iter().map(|&s| self.shards[s].read().unwrap()).collect()
    }

    /// [`StripeLockTable::lock_sorted_shared`] without blocking: every
    /// guard, or none when a shard is held exclusive or has a writer
    /// waiting for it.
    pub(crate) fn try_lock_sorted_shared(
        &self,
        shards: &[usize],
    ) -> Option<Vec<RwLockReadGuard<'_, ()>>> {
        shards.iter().map(|&s| self.shards[s].try_read().ok()).collect()
    }
}

/// Sorts and dedups a shard id list in place (the "compute the lock
/// set up front" phase of two-phase acquisition).
pub(crate) fn sort_shard_set(shards: &mut Vec<usize>) {
    shards.sort_unstable();
    shards.dedup();
}

/// One *world*: a layout, its address map, and the per-disk stale
/// markers that go with it. The store always serves traffic from the
/// current world in [`ArrayState`]; an online reshape builds a second
/// (target) world in the backend's scratch region and swaps it in
/// atomically at commit — which is why everything here lives behind
/// the state `RwLock` instead of being plain `BlockStore` fields.
#[derive(Debug)]
pub(crate) struct World {
    pub(crate) layout: Arc<Layout>,
    pub(crate) smap: Arc<StripeMap>,
    /// `(P, Q)` slot pairs per stripe when the scheme is P+Q.
    pub(crate) pq_slots: Option<Vec<(usize, usize)>>,
    /// Layout copies tiled down the disks.
    pub(crate) copies: usize,
    /// Per-logical-disk *stale medium* markers: a write skipped (or
    /// wrote through past) a unit on the disk while it was failed, so
    /// its bytes no longer match the parity equations and only a
    /// rebuild (never [`BlockStore::restore_disk`]) may bring it
    /// back. `0` = fresh; otherwise a witness `(copy, stripe)` cache
    /// key (packed, +1) naming a stripe whose write skipped the disk
    /// — the context [`StoreError::RebuildRequired`] reports. Atomic
    /// so the write path can set a marker under the shared state
    /// guard; markers are only *read and cleared* under the exclusive
    /// state guard, which orders them against transitions.
    pub(crate) stale: Vec<AtomicU64>,
}

impl World {
    pub(crate) fn new(
        layout: Arc<Layout>,
        pq_slots: Option<Vec<(usize, usize)>>,
        copies: usize,
    ) -> World {
        let smap = Arc::new(StripeMap::new(&layout, pq_slots.as_deref()));
        let stale = (0..layout.v()).map(|_| AtomicU64::new(0)).collect();
        World { layout, smap, pq_slots, copies, stale }
    }

    /// Unit `slot` of stripe `si` in layout copy `copy`, the copy's row
    /// shift applied.
    pub(crate) fn unit(&self, copy: usize, si: usize, slot: usize) -> StripeUnit {
        let u = self.layout.stripes()[si].units()[slot];
        StripeUnit { disk: u.disk, offset: u.offset + (copy * self.layout.size()) as u32 }
    }
}

/// The store's failure-epoch state: everything a failure transition
/// mutates, behind one `RwLock` so data-path operations pin a
/// consistent snapshot and transitions wait for in-flight I/O.
#[derive(Debug)]
pub(crate) struct ArrayState {
    /// The world traffic is currently served from (swapped only by a
    /// reshape commit, under the exclusive guard).
    pub(crate) world: Arc<World>,
    /// Logical disk → physical backend disk (spares swap in here).
    pub(crate) redirect: Vec<usize>,
    pub(crate) failed: FailureSet,
    /// An online rebuild in progress: `(logical disk, physical
    /// spare)`. While registered, writes that cannot land on the
    /// failed disk are written through to the spare.
    pub(crate) rebuilding: Option<(usize, usize)>,
    /// An online reshape in progress: while registered, every write
    /// additionally lands in the target world (see [`crate::reshape`])
    /// and rebuilds are refused.
    pub(crate) reshape: Option<Arc<ReshapeRuntime>>,
    /// Bumped on every failure-state transition (fail, restore,
    /// rebuild begin/complete/abort, reshape begin/commit) — an
    /// observable generation number for tests and monitoring.
    pub(crate) epoch: u64,
}

/// A physical unit address, and whether reads of it verify against
/// the unit's recorded checksum: live media do; a racing rebuild's
/// spare (arbitrary bytes until reconstructed) and a reshape's scratch
/// rows are read raw.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhysUnit {
    pub(crate) disk: usize,
    pub(crate) offset: usize,
    pub(crate) checked: bool,
}

impl PhysUnit {
    /// Stripe unit `u` (copy shift applied) on its disk's current
    /// medium.
    pub(crate) fn live(st: &ArrayState, u: StripeUnit) -> PhysUnit {
        PhysUnit { disk: st.redirect[u.disk as usize], offset: u.offset as usize, checked: true }
    }
}

/// A lock-free-enough pool of reusable buffers ([`Scratch`] sets,
/// [`ReadRound`]s): steady-state reads and writes check one out, use
/// it, and return it, so no data-path operation allocates after
/// warm-up. Capped so a burst of concurrent callers cannot pin
/// unbounded memory.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    unit_size: usize,
    make: fn(usize) -> T,
    pool: Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    const CAP: usize = 16;

    fn new(unit_size: usize, make: fn(usize) -> T) -> Pool<T> {
        Pool { unit_size, make, pool: Mutex::new(Vec::new()) }
    }

    pub(crate) fn get(&self) -> T {
        self.pool.lock().unwrap().pop().unwrap_or_else(|| (self.make)(self.unit_size))
    }

    pub(crate) fn put(&self, item: T) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < Self::CAP {
            pool.push(item);
        }
    }
}

/// A parity-declustered block store over any layout and backend.
///
/// Logical addresses are data blocks of `unit_size` bytes, enumerated
/// in stripe order by the [`StripeMap`] and tiled down the disks for
/// arrays larger than one layout copy.
///
/// All operations — including writes — take `&self`: share a store
/// across threads with `std::thread::scope` or an `Arc` and issue
/// traffic from every thread at once. Synchronization is internal
/// (the README's "Concurrency" section describes the locking model).
#[derive(Debug)]
pub struct BlockStore<B> {
    pub(crate) scheme: ParityScheme,
    /// The storage backend, shared with the optional async engine's
    /// worker threads (plain `Arc` deref on every inline call).
    pub(crate) backend: Arc<B>,
    pub(crate) unit_size: usize,
    /// Current world + redirect table + failure set + active rebuild
    /// and reshape, behind the epoch `RwLock` (see module docs).
    pub(crate) state: RwLock<ArrayState>,
    /// Store capacity in logical data blocks. Atomic because a
    /// reshape commit may raise it (never lower it) while readers
    /// check addresses against it lock-free.
    pub(crate) capacity: AtomicUsize,
    /// The stripe-sharded write lock table.
    pub(crate) locks: StripeLockTable,
    /// Reusable decode/accumulator buffers: steady-state reads and
    /// writes are allocation-free.
    pub(crate) scratch: Pool<Scratch>,
    /// Reusable partial-stripe read rounds.
    pub(crate) rounds: Pool<ReadRound>,
    /// The write-back stripe cache (write-combining of small writes;
    /// inert under the default [`CachePolicy::WriteThrough`]). Shares
    /// the lock table's shard indexing, so a cache entry is only ever
    /// mutated under its stripe's exclusive shard lock.
    pub(crate) cache: StripeCache,
    /// The metrics registry (see [`crate::obs`] and the
    /// [module docs](self) "Observability" table).
    pub(crate) metrics: Metrics,
    /// Dispatch point for the optional structured-event sink.
    pub(crate) events: EventHub,
    /// Live-progress state of the registered rebuild, if any.
    pub(crate) rb_tracker: RebuildTracker,
    /// The array directory installed by the file-store constructors,
    /// through which the durability barrier (`BlockStore::persist`)
    /// persists the checksum table and the document. `None` for
    /// memory-backed stores (nothing survives the process anyway).
    pub(crate) dir: Option<ArrayDir>,
    /// End-to-end integrity state: the per-physical-unit checksum
    /// table, the transient-retry policy, the per-disk health
    /// monitor, and the global repair counters (see
    /// [`crate::integrity`]). Shared with the async engine's workers
    /// so queued I/O retries with identical policy and health
    /// accounting.
    pub(crate) integrity: Arc<Integrity>,
    /// The optional submit-and-complete I/O engine (see
    /// [`crate::engine`]): `None` until [`BlockStore::start_engine`].
    /// Behind an `RwLock` so the dispatcher can clone the `Arc` under
    /// a read lock; gated by the lock-free `engine_on` flag so the
    /// engine-off cost is one atomic load.
    pub(crate) engine: RwLock<Option<Arc<crate::engine::Engine<B>>>>,
    /// Lock-free fast-path gate for [`BlockStore::engine`].
    pub(crate) engine_on: AtomicBool,
    /// The scrub position: stripes (global index across layout
    /// copies) already verified in the current pass, `0` when no pass
    /// is mid-flight. Checkpointed into [`crate::StoreMeta`]'s `scrub`
    /// section so a stopped or crashed pass resumes where it left
    /// off; reset when a reshape begins (the geometry it indexed is
    /// going away).
    pub(crate) scrub_cursor: AtomicU64,
    /// Background-maintenance state — admission flags (one scrub, one
    /// reshape driver at a time) and counters, see
    /// [`crate::maintenance`].
    pub(crate) maint: MaintState,
}

impl<B: Backend> BlockStore<B> {
    /// Builds a single-parity (XOR) store over `backend`, using the
    /// layout's own parity units. The backend must have at least
    /// `layout.v()` disks (extras serve as spares) and a units-per-disk
    /// that is a nonzero multiple of `layout.size()` (whole layout
    /// copies).
    pub fn new(layout: Layout, backend: B) -> Result<Self, StoreError> {
        Self::build(layout, None, backend, None)
    }

    /// Builds a double-parity (P+Q) store over `backend`: every stripe
    /// carries the XOR parity P and the `GF(2^8)` Reed–Solomon parity Q
    /// at the slots chosen by `dp` (the generalized Theorem 14 flow),
    /// and the array tolerates any two concurrent disk failures.
    pub fn new_pq(dp: DoubleParityLayout, backend: B) -> Result<Self, StoreError> {
        let slots = dp.all_parity_slots().to_vec();
        Self::build(dp.layout().clone(), Some(slots), backend, None)
    }

    /// The one constructor. A reopened store passes its document's
    /// `copies_override`: **mid-reshape** the backend is grown to the
    /// scratch geometry, so units-per-disk is larger than `copies ×
    /// layout.size()` — per-disk validation relaxes to "at least that
    /// many copies".
    pub(crate) fn build(
        layout: Layout,
        pq_slots: Option<Vec<(usize, usize)>>,
        backend: B,
        copies_override: Option<usize>,
    ) -> Result<Self, StoreError> {
        let v = layout.v();
        if backend.disks() < v {
            return Err(StoreError::Geometry(format!(
                "layout spans {v} disks but backend has {}",
                backend.disks()
            )));
        }
        let per_disk = backend.units_per_disk();
        match copies_override {
            None if per_disk == 0 || !per_disk.is_multiple_of(layout.size()) => {
                return Err(StoreError::Geometry(format!(
                    "backend has {per_disk} units per disk, not a positive multiple of the \
                     layout size {}",
                    layout.size()
                )));
            }
            Some(c) if c == 0 || per_disk < c * layout.size() => {
                return Err(StoreError::Geometry(format!(
                    "backend has {per_disk} units per disk, fewer than the {c} resumed layout \
                     copies of size {} need",
                    layout.size()
                )));
            }
            _ => {}
        }
        if pq_slots.is_some() {
            // The Q coefficient of data slot j is g^j; slots must stay
            // below the generator's order for the coefficients (and the
            // two-erasure solve) to remain distinct.
            if let Some(bad) = layout.stripes().iter().position(|s| s.len() > 255) {
                return Err(StoreError::Geometry(format!(
                    "stripe {bad} has {} units; P+Q supports at most 255",
                    layout.stripes()[bad].len()
                )));
            }
        }
        let copies = copies_override.unwrap_or(per_disk / layout.size());
        let scheme = if pq_slots.is_some() { ParityScheme::PQ } else { ParityScheme::Xor };
        let unit_size = backend.unit_size();
        if unit_size == 0 {
            return Err(StoreError::Geometry("backend unit size is zero".into()));
        }
        let world = Arc::new(World::new(Arc::new(layout), pq_slots, copies));
        let capacity = copies * world.smap.data_units_per_copy();
        let integrity = Arc::new(Integrity::new(backend.disks(), per_disk));
        Ok(BlockStore {
            scheme,
            backend: Arc::new(backend),
            unit_size,
            state: RwLock::new(ArrayState {
                world,
                redirect: (0..v).collect(),
                failed: FailureSet::new(),
                rebuilding: None,
                reshape: None,
                epoch: 0,
            }),
            capacity: AtomicUsize::new(capacity),
            locks: StripeLockTable::new(),
            scratch: Pool::new(unit_size, Scratch::new),
            rounds: Pool::new(unit_size, |_| ReadRound::default()),
            cache: StripeCache::new(unit_size, StripeLockTable::SHARDS),
            metrics: Metrics::default(),
            events: EventHub::default(),
            rb_tracker: RebuildTracker::default(),
            dir: None,
            integrity,
            scrub_cursor: AtomicU64::new(0),
            maint: MaintState::default(),
            engine: RwLock::new(None),
            engine_on: AtomicBool::new(false),
        })
    }

    /// The layout this store declusters over (the *current* world's —
    /// a completed reshape swaps in the target layout).
    pub fn layout(&self) -> Arc<Layout> {
        self.state_read().world.layout.clone()
    }

    /// The parity scheme (and therefore the fault tolerance).
    pub fn scheme(&self) -> ParityScheme {
        self.scheme
    }

    /// Maximum number of concurrently failed disks the store survives.
    pub fn fault_tolerance(&self) -> usize {
        self.scheme.fault_tolerance()
    }

    /// The scheme-aware Condition-4 address map (the current world's).
    pub fn stripe_map(&self) -> Arc<StripeMap> {
        self.state_read().world.smap.clone()
    }

    /// The backend (e.g. to inspect IO counters).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Bytes per logical block.
    pub fn unit_size(&self) -> usize {
        self.unit_size
    }

    /// Store capacity in logical data blocks. Never shrinks; a
    /// completed `add_disks` reshape raises it.
    pub fn blocks(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Number of logical disks (the current layout's `v`).
    pub fn v(&self) -> usize {
        self.state_read().world.layout.v()
    }

    /// Whether physical unit `(disk, offset)` has a recorded checksum
    /// — the sum a checked read of it verifies against.
    pub fn checksum_recorded(&self, disk: usize, offset: usize) -> bool {
        self.integrity.sums.recorded(disk, offset)
    }

    pub(crate) fn state_read(&self) -> RwLockReadGuard<'_, ArrayState> {
        self.state.read().unwrap()
    }

    pub(crate) fn state_write(&self) -> RwLockWriteGuard<'_, ArrayState> {
        self.state.write().unwrap()
    }

    /// The currently failed logical disks, ascending (a snapshot; the
    /// set may change the moment this returns if other threads fail
    /// or rebuild disks).
    pub fn failed_disks(&self) -> FailureSet {
        self.state_read().failed.clone()
    }

    /// The lowest-numbered currently failed logical disk, if any.
    pub fn failed_disk(&self) -> Option<usize> {
        self.state_read().failed.first()
    }

    /// True when at least one disk is failed and not yet rebuilt.
    pub fn is_degraded(&self) -> bool {
        !self.state_read().failed.is_empty()
    }

    /// Physical backend disk currently serving logical disk `d`.
    pub fn physical_disk(&self, d: usize) -> usize {
        self.state_read().redirect[d]
    }

    /// The failure-state generation: bumped by every `fail_disk`,
    /// `restore_disk`, and rebuild begin/complete/abort. Two equal
    /// observations bracket a window with no failure transition.
    pub fn epoch(&self) -> u64 {
        self.state_read().epoch
    }

    /// The rebuild currently registered against live traffic, as
    /// `(logical disk, physical spare)` — `None` when no rebuild is
    /// running.
    pub fn rebuilding(&self) -> Option<(usize, usize)> {
        self.state_read().rebuilding
    }

    /// The one answer to "where do this stripe unit's bytes go right
    /// now" on the write paths. `u` carries its copy's row shift;
    /// `(copy, stripe)` names its stripe.
    ///
    /// * disk live → its current medium (`redirect`), reads
    ///   checksum-verified;
    /// * disk failed, rebuild of exactly that disk racing → the spare,
    ///   read raw. A value written through is either overwritten later
    ///   by the rebuild's own decode of the stripe (both produce the
    ///   same post-write bytes, serialized by the stripe lock) or
    ///   lands on an already-reconstructed unit (keeping it fresh) —
    ///   so the spare is bit-exact at completion either way;
    /// * disk failed otherwise → nowhere: the value exists only
    ///   through the stripe's surviving parity.
    ///
    /// A write that resolves a failed disk's unit skips (or writes
    /// through past) the failed medium, which leaves it stale: only a
    /// rebuild, never [`BlockStore::restore_disk`], may bring it back.
    /// The stripe is recorded as the witness
    /// [`StoreError::RebuildRequired`] reports (last writer wins — any
    /// skipping stripe is a valid witness); set under the shared state
    /// guard, read/cleared only under the exclusive one.
    pub(crate) fn place(
        &self,
        st: &ArrayState,
        u: StripeUnit,
        copy: usize,
        stripe: usize,
    ) -> Option<PhysUnit> {
        let disk = u.disk as usize;
        if !st.failed.contains(disk) {
            return Some(PhysUnit::live(st, u));
        }
        st.world.stale[disk].store(stripe_key(copy, stripe) + 1, Ordering::Release);
        let (_, spare) = st.rebuilding.filter(|&(d, _)| d == disk)?;
        Some(PhysUnit { disk: spare, offset: u.offset as usize, checked: false })
    }

    /// Marks a logical disk failed. Subsequent reads of its units are
    /// served degraded (reconstructed from surviving stripe members);
    /// writes keep all surviving parity consistent so no data is lost.
    /// At most [`BlockStore::fault_tolerance`] disks may be failed at a
    /// time; re-failing an already-failed disk is
    /// [`StoreError::AlreadyFailed`].
    ///
    /// Takes the exclusive state guard, so it **waits for in-flight
    /// I/O to drain** and no operation ever observes a half-applied
    /// failure. Error paths mutate nothing: in particular the
    /// per-disk I/O counters ([`BlockStore::read_counts`]/
    /// [`BlockStore::write_counts`]) are untouched by failure events,
    /// successful or not — counters only move when units move.
    pub fn fail_disk(&self, disk: usize) -> Result<(), StoreError> {
        let mut st = self.state_write();
        if disk >= st.world.layout.v() {
            return Err(StoreError::OutOfRange { disk, offset: 0 });
        }
        if st.failed.contains(disk) {
            return Err(StoreError::AlreadyFailed(disk));
        }
        let tolerance = self.scheme.fault_tolerance();
        if st.failed.len() >= tolerance {
            return Err(StoreError::TooManyFailures { requested: disk, tolerance });
        }
        // Flush-before-transition: every write acknowledged before
        // this failure becomes durable on the still-current media,
        // under the exclusive guard (no client I/O in flight). Error
        // paths above flush nothing.
        self.flush_cache_locked(&st)?;
        st.failed.insert(disk);
        st.epoch += 1;
        self.metrics.degraded_transition(
            st.failed.len() - 1,
            st.failed.len(),
            self.metrics.total_ops(),
        );
        self.events.emit(|| Event::DiskFailed { disk: disk as u32, epoch: st.epoch });
        Ok(())
    }

    /// Clears a *transient* failure: marks `disk` healthy again without
    /// a rebuild. The disk's stored bytes must be exactly as they were
    /// at the moment of failure (nothing is re-synced) — use a
    /// [`crate::Rebuilder`] if the medium was lost or wiped. If any
    /// write skipped a unit on the disk while it was failed, its
    /// medium is stale relative to the parity equations and restoring
    /// it is refused ([`StoreError::RebuildRequired`]); while a
    /// rebuild of the disk is running, restoring is refused too
    /// ([`StoreError::RebuildInProgress`]). Error paths leave the
    /// failure state and the I/O counters untouched.
    pub fn restore_disk(&self, disk: usize) -> Result<(), StoreError> {
        let mut st = self.state_write();
        if disk >= st.world.layout.v() {
            return Err(StoreError::OutOfRange { disk, offset: 0 });
        }
        if !st.failed.contains(disk) {
            return Err(StoreError::NotFailed(disk));
        }
        if let Some((d, _)) = st.rebuilding {
            if d == disk {
                return Err(StoreError::RebuildInProgress(disk));
            }
        }
        // Flush-before-transition, and *before* the stale check: a
        // deferred write whose stripe crosses this disk must skip it
        // (marking the medium stale) exactly as a write-through write
        // would have — so restore is refused for the same histories.
        self.flush_cache_locked(&st)?;
        // Stale markers are only read under the exclusive guard, which
        // orders this load after every write that could have set one.
        let stale = st.world.stale[disk].load(Ordering::Acquire);
        if stale != 0 {
            let (copy, stripe) = key_parts(stale - 1);
            return Err(StoreError::RebuildRequired { disk, copy, stripe });
        }
        st.failed.remove(disk);
        st.epoch += 1;
        self.metrics.degraded_transition(
            st.failed.len() + 1,
            st.failed.len(),
            self.metrics.total_ops(),
        );
        self.events.emit(|| Event::DiskRestored { disk: disk as u32, epoch: st.epoch });
        Ok(())
    }

    /// Per-logical-disk units read since the last counter reset.
    ///
    /// Counters are per-disk atomics maintained by the backend: they
    /// increase monotonically under concurrent traffic and across
    /// failure events (`fail_disk`/`restore_disk` never touch them),
    /// and only [`BlockStore::reset_counters`] moves them down.
    pub fn read_counts(&self) -> Vec<u64> {
        let st = self.state_read();
        (0..st.world.layout.v()).map(|d| self.backend.read_count(st.redirect[d])).collect()
    }

    /// Per-logical-disk units written since the last counter reset
    /// (same monotonicity contract as [`BlockStore::read_counts`]).
    pub fn write_counts(&self) -> Vec<u64> {
        let st = self.state_read();
        (0..st.world.layout.v()).map(|d| self.backend.write_count(st.redirect[d])).collect()
    }

    /// Zeroes the backend IO counters. Each per-disk counter is an
    /// atomic store, so a reset concurrent with live traffic is safe;
    /// it is **not** a single linearization point across disks —
    /// in-flight operations may land increments on some disks after
    /// their reset and before others'. Quiesce traffic first when an
    /// exact all-zero snapshot matters (as the accounting tests do).
    pub fn reset_counters(&self) {
        self.backend.reset_counters();
    }

    /// Installs (or, with `None`, removes) the structured-event sink.
    /// While a sink is installed every public op emits
    /// `OpBegin`/`OpEnd` spans (forcing per-op timing) and the
    /// failure/rebuild/cache events listed on [`crate::Event`];
    /// with no sink the data path pays one relaxed load. The bundled
    /// sink is [`crate::TraceLog`]; tests plug in their own.
    pub fn set_event_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        self.events.set(sink);
    }

    /// Sets the disk-health auto-fail threshold: a physical disk
    /// whose `hard errors + checksum repairs` score reaches `n` is
    /// queued and auto-failed at the next operation epilogue, handing
    /// it to the ordinary rebuild machinery. `0` (the default)
    /// disables the policy.
    pub fn set_health_threshold(&self, n: u64) {
        self.integrity.health.set_threshold(n);
    }

    /// Sets the *rate-based* disk-health auto-fail policy: a physical
    /// disk accumulating `threshold` recent errors (hard errors +
    /// checksum repairs, decaying by half every `window_ms`
    /// milliseconds) is queued and auto-failed at the next operation
    /// epilogue — a predictive complement to the cumulative
    /// [`BlockStore::set_health_threshold`]: an error *burst* trips
    /// it while the same count spread over a long window does not.
    /// `threshold == 0` (the default) disables it.
    pub fn set_health_rate_policy(&self, threshold: u64, window_ms: u64) {
        self.integrity.health.set_rate_policy(threshold, window_ms);
    }

    /// Installs the transient-error retry policy applied around every
    /// backend call the store issues.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.integrity.max_retries.store(policy.max_retries, Ordering::Relaxed);
        self.integrity.backoff_us.store(policy.backoff_us, Ordering::Relaxed);
    }

    /// Applies queued auto-fail decisions from the health monitor.
    /// Runs at operation epilogues **after every guard is dropped**:
    /// the counters that queued the disk were bumped under the shared
    /// state guard, while `fail_disk` needs it exclusively — calling
    /// this with any state guard held would self-deadlock.
    pub(crate) fn apply_pending_health(&self) {
        for pd in self.integrity.health.take_pending() {
            // Map the physical disk back to its logical slot; a disk
            // no longer mapped (already swapped out for a spare) has
            // nothing left to fail.
            let logical = {
                let st = self.state_read();
                st.redirect.iter().position(|&p| p == pd)
            };
            let Some(d) = logical else { continue };
            match self.fail_disk(d) {
                Ok(()) => {
                    self.integrity.health.note_auto_failed(pd);
                    let score = self.integrity.health.score(pd);
                    self.events.emit(|| Event::DiskAutoFailed { disk: pd as u32, score });
                }
                // Someone (or an earlier epilogue) beat us to it.
                Err(StoreError::AlreadyFailed(_)) => {}
                // Cannot fail it *now* (reshape running, failure
                // budget exhausted, flush error): keep it queued and
                // retry at a later epilogue.
                Err(_) => self.integrity.health.requeue(pd),
            }
        }
    }

    /// Live progress of the registered rebuild — units done/total,
    /// ETA from the moving rate, and the per-surviving-disk read
    /// distribution (so the paper's `(k−1)/(v−1)` claim is observable
    /// *while* the rebuild races traffic). `None` when no rebuild is
    /// running.
    pub fn rebuild_progress(&self) -> Option<RebuildProgress> {
        let reads = self.read_counts();
        self.rb_tracker.progress(&reads)
    }

    /// A point-in-time [`StatsSnapshot`] of everything the store
    /// measures: per-op-kind counters and histograms, per-logical-disk
    /// backend I/O, cache statistics, degraded-window accounting
    /// (including the currently open window), lock contention, the
    /// failure epoch, and live rebuild progress. Safe to call from
    /// any thread at any time; under concurrent traffic each counter
    /// is exact but the set is not one linearization point.
    pub fn stats(&self) -> StatsSnapshot {
        let (ops, degraded, lock_contention) = self.metrics.snapshot();
        let st = self.state_read();
        let disks = (0..st.world.layout.v())
            .map(|d| {
                let p = st.redirect[d];
                DiskStatSnapshot {
                    disk: d,
                    read_units: self.backend.read_count(p),
                    write_units: self.backend.write_count(p),
                    read_calls: self.backend.read_calls(p),
                    write_calls: self.backend.write_calls(p),
                }
            })
            .collect();
        let epoch = st.epoch;
        let reshape = st.reshape.as_ref().map(|rs| rs.progress_snapshot());
        drop(st);
        let cache = self.cache.stats_snapshot();
        let mut integrity = self.integrity.snapshot();
        integrity.scrub_cursor = self.scrub_cursor.load(Ordering::Relaxed);
        StatsSnapshot {
            ops,
            disks,
            cache,
            degraded,
            lock_contention,
            epoch,
            rebuild: self.rebuild_progress(),
            reshape,
            integrity,
            maintenance: self.maint.snapshot(),
            engine: self.engine_if_on().map(|e| e.snapshot()),
        }
    }

    /// Flushes the write-back stripe cache (combined parity updates,
    /// see [`CachePolicy::WriteBack`]) and then runs the durability barrier —
    /// backend, checksums, document — so every acknowledged write is
    /// durable on return.
    pub fn flush(&self) -> Result<(), StoreError> {
        let st = self.state_read();
        self.flush_cache_locked(&st)?;
        self.persist(Record::Serving(&st))
    }

    /// Restores the scrub position saved in a [`crate::StoreMeta`]'s `scrub`
    /// section so the next scrub pass resumes where the last one
    /// stopped.
    pub(crate) fn restore_scrub_state(&mut self, cursor: u64, passes: u64) {
        self.scrub_cursor.store(cursor, Ordering::Release);
        self.integrity.scrub_passes.store(passes, Ordering::Release);
    }

    /// The installed [`CachePolicy`].
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy()
    }

    /// Installs a [`CachePolicy`]. Switching write-back **off**
    /// flushes every dirty stripe first, so no cached write is
    /// stranded; switching it on takes effect immediately.
    pub fn set_cache_policy(&self, policy: CachePolicy) -> Result<(), StoreError> {
        self.cache.set_policy(policy);
        if !policy.is_write_back() {
            let st = self.state_read();
            self.flush_cache_locked(&st)?;
        }
        Ok(())
    }

    /// Stripes currently dirty in the write-back cache (0 under
    /// write-through).
    pub fn dirty_cache_stripes(&self) -> usize {
        self.cache.dirty_stripes()
    }

    pub(crate) fn check_addr(&self, addr: usize) -> Result<(), StoreError> {
        if addr >= self.blocks() {
            return Err(StoreError::AddressOutOfRange { addr, blocks: self.blocks() });
        }
        Ok(())
    }

    /// The block count of a `len`-byte multi-block call at `start`,
    /// once `len` is whole blocks and every block is in range; an
    /// empty call is 0 blocks.
    pub(crate) fn check_span(&self, start: usize, len: usize) -> Result<usize, StoreError> {
        if !len.is_multiple_of(self.unit_size) {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: len });
        }
        let n = len / self.unit_size;
        if n > 0 {
            self.check_addr(start)?;
            self.check_addr(start + n - 1)?;
        }
        Ok(n)
    }

    pub(crate) fn check_block_buf(&self, len: usize) -> Result<(), StoreError> {
        if len != self.unit_size {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: len });
        }
        Ok(())
    }

    /// The one envelope every client call runs in. It takes over the
    /// caller's state guard (so the op's kind is classified under the
    /// very snapshot the body then runs against), opens the
    /// [`OpTimer`](crate::obs::OpTimer), emits `OpBegin` and runs
    /// `body`. The span closes (`finish` + `OpEnd`) only when the body
    /// succeeds; the guard is dropped and queued auto-fail decisions
    /// are applied on **every** exit, `Ok` or `Err`. `body` returns how
    /// many of the call's `blocks` a `Read` span served by stripe
    /// decode: those are accounted as `DegradedRead` units instead.
    ///
    /// While a reshape commit that began and failed awaits its retry,
    /// every call is refused with [`StoreError::ReshapeInProgress`]
    /// before the envelope opens: the slide overwrote source rows.
    #[inline]
    pub(crate) fn client_op(
        &self,
        st: RwLockReadGuard<'_, ArrayState>,
        kind: OpKind,
        addr: usize,
        blocks: usize,
        body: impl FnOnce(&ArrayState) -> Result<u64, StoreError>,
    ) -> Result<(), StoreError> {
        if st.reshape.as_ref().is_some_and(|rs| rs.committing.load(Ordering::Acquire)) {
            return Err(StoreError::ReshapeInProgress);
        }
        let t = self.metrics.begin(kind, self.events.active());
        self.events.emit(|| {
            let m = st.world.smap.locate_full(addr);
            Event::OpBegin {
                kind,
                addr: addr as u64,
                blocks: blocks as u32,
                stripe: m.stripe as u32,
                disk: m.unit.disk,
            }
        });
        let res = body(&st).map(|decoded| {
            let ns = self.metrics.finish(t, blocks as u64 - decoded).unwrap_or(0);
            self.metrics.add_units(OpKind::DegradedRead, decoded);
            self.events.emit(|| Event::OpEnd {
                kind,
                addr: addr as u64,
                blocks: blocks as u32,
                ns,
            });
        });
        drop(st);
        if self.integrity.health.has_pending() {
            self.apply_pending_health();
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let t = StripeLockTable::new();
        for copy in 0..8 {
            for stripe in 0..100 {
                let s = t.shard_of(copy, stripe);
                assert!(s < StripeLockTable::SHARDS);
                assert_eq!(s, t.shard_of(copy, stripe), "deterministic");
            }
        }
        // Distinct (copy, stripe) keys spread over many shards.
        let mut hit = [false; StripeLockTable::SHARDS];
        for stripe in 0..256 {
            hit[t.shard_of(0, stripe)] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() > StripeLockTable::SHARDS / 2);
    }

    #[test]
    fn sort_shard_set_dedups() {
        let mut s = vec![5, 1, 5, 3, 1];
        sort_shard_set(&mut s);
        assert_eq!(s, [1, 3, 5]);
    }
}
