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
//! 1. **A stripe-sharded lock table** (`StripeLockTable`). Parity
//!    maintenance is a multi-unit read-modify-write over one stripe,
//!    so each `(copy, stripe)` hashes to one of a fixed number of
//!    shard `RwLock`s. Writers (and rebuild workers) lock every shard
//!    their stripes hash to *before touching any byte*, always in
//!    ascending shard order — two-phase ordered acquisition, so
//!    multi-stripe batches cannot deadlock. Degraded reads take the
//!    same shards *shared*, which lets concurrent decodes overlap
//!    while still excluding writers mid-update.
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
//!    by the same `(copy, stripe)` key as the lock table: entries
//!    mutate only under their stripe's exclusive shard lock, reads
//!    probe them lock-free (one atomic when clean), flushes hold the
//!    shard lock and remove the entry only after the backend writes
//!    land, and every failure-state transition drains the cache
//!    under the exclusive state guard before changing anything.
//!
//! Healthy single-unit reads skip the stripe locks entirely: the
//! backend guarantees unit-granular atomicity, and a read that races
//! a write may see the old or the new unit, never a torn one. A
//! multi-block call is atomic per block, not across blocks.
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
//! `fail_disk` on an already-failed disk is an error
//! ([`StoreError::AlreadyFailed`]); exceeding the scheme's tolerance is
//! [`StoreError::TooManyFailures`]. [`BlockStore::restore_disk`] undoes
//! a *transient* failure (contents intact); a rebuild
//! ([`crate::Rebuilder`]) redirects the logical disk onto a spare and
//! removes it from the failure set. A rebuild may run **concurrently
//! with live traffic**: while it is registered, writes that would
//! have to skip a unit on the rebuilding disk are *written through*
//! to its spare (see `BlockStore::place`, the one resolver of where a
//! stripe unit's bytes go), so the spare is bit-exact when the
//! redirect flips.
//!
//! ## Decode policy
//!
//! Reconstruction always reads **every** surviving member of the
//! stripe — under P+Q this occasionally includes a parity unit the
//! erasure count does not strictly require. The extra unit buys an
//! exactly uniform rebuild load: every stripe crossing the failed disk
//! charges one read to each of its surviving disks, so a declustered
//! rebuild reads `(k−1)/(v−1)` of every survivor per failed disk — the
//! paper's ratio — with zero spread (see the rebuild-balance tests).
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
//! | rebuild chunks ([`crate::Rebuilder`]) | `RebuildRead` + `SpareWrite` (timed per chunk) | — |
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
//! The P/Q algebra — the stripe invariant, its one `fold`, the erasure
//! solver — lives in `codec.rs` and is named nowhere else. Client
//! writes move every byte through `io.rs` in rounds; the two direct
//! single-unit helpers here (`read_unit` / `write_unit`, keyed by
//! physical `(disk, offset)`, retried, checksummed) serve only a
//! healthy `read_block`, the parity scan, stripe repair and the
//! rebuild's spare write. Full stripes are planned by one
//! `plan_stripe`, generic over where each unit is placed, for client
//! writes, cache flushes and the reshape migration alike. Every
//! partially covered stripe — a `write_block`, the head or tail of a
//! `write_blocks`, a partially dirty cache flush — is one partial-
//! stripe update (`update_partial_stripe`), which picks the delta or
//! the reconstruct route by read count and is a read set and a write
//! set: a small write costs two device rounds, and a batch's partial
//! stripes read in one shared round and write with its full stripes.

use crate::backend::Backend;
use crate::cache::{key_parts, stripe_key, CachePolicy, FlushSnapshot, StripeCache};
use crate::codec::{self, Decoded, Role, Scratch, Syndromes};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::integrity::{Integrity, RetryPolicy};
use crate::io::{Io, Run};
use crate::maintenance::MaintState;
use crate::meta::ArrayDir;
use crate::obs::{
    DiskStatSnapshot, Event, EventHub, EventSink, Metrics, OpKind, OpTimer, RebuildProgress,
    RebuildTracker, StatsSnapshot,
};
use crate::reshape::ReshapeRuntime;
use crate::scheme::{FailureSet, ParityScheme};
use pdl_core::{AddrRef, DoubleParityLayout, Layout, StripeMap, StripeUnit};
use pdl_sim::{Trace, TraceOp};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Largest hole (in units) a coalesced read run will bridge — units
/// in a bridged gap are read into a discard buffer so the run stays
/// one backend call. Small single-parity holes merge; larger holes
/// (e.g. a layout's clustered parity region) split the run instead,
/// because reading a wide hole through the page cache costs more in
/// moved bytes than the saved backend call is worth.
const READ_GAP_BRIDGE: usize = 2;

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
///   acquires them in any other order.
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
    fn lock_sorted_shared(&self, shards: &[usize]) -> Vec<RwLockReadGuard<'_, ()>> {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        shards.iter().map(|&s| self.shards[s].read().unwrap()).collect()
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

/// Where a deferred full-stripe unit write takes its bytes from: the
/// caller's data buffer or the plan's parity staging area, both
/// indexed in whole units. Packed into one word (high bit = parity)
/// so a plan bucket entry is 8 bytes, not 24 — the buckets are
/// written, scanned, and resolved once per planned unit, so their
/// footprint is hot-path memory traffic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WriteSrc(u32);

impl WriteSrc {
    const PARITY: u32 = 1 << 31;

    pub(crate) fn data(i: usize) -> WriteSrc {
        debug_assert!((i as u32) < Self::PARITY);
        WriteSrc(i as u32)
    }

    pub(crate) fn parity(i: usize) -> WriteSrc {
        debug_assert!((i as u32) < Self::PARITY);
        WriteSrc(i as u32 | Self::PARITY)
    }

    /// The unit this source names, in `parity` or in `data`.
    fn bytes<'a>(self, parity: &'a [u8], data: &'a [u8], unit_size: usize) -> &'a [u8] {
        let i = (self.0 & !Self::PARITY) as usize;
        let from = if self.0 & Self::PARITY != 0 { parity } else { data };
        &from[i * unit_size..(i + 1) * unit_size]
    }
}

/// A physical unit address, and whether reads of it verify against
/// the unit's recorded checksum: live media do; a racing rebuild's
/// spare (arbitrary bytes until reconstructed), a reshape's scratch
/// rows and the parity scan are read raw.
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

/// The deferred full-stripe write plan: per-physical-disk buckets of
/// `(offset, source)` unit writes plus the parity staging buffer the
/// stripe accumulators live in. Sequential writes push offsets in
/// increasing order per disk, so flushing usually skips the sort.
#[derive(Debug)]
pub(crate) struct WritePlan {
    pub(crate) by_disk: Vec<Vec<(u32, WriteSrc)>>,
    pub(crate) parity: Vec<u8>,
    pub(crate) unsorted: bool,
}

impl WritePlan {
    pub(crate) fn new(disks: usize) -> WritePlan {
        WritePlan { by_disk: vec![Vec::new(); disks], parity: Vec::new(), unsorted: false }
    }

    /// A plan pre-sized for `stripes` full stripes of `units` total
    /// unit writes: the parity staging and the per-disk buckets are
    /// reserved up front, so planning a large batch never reallocates
    /// (the staging area in particular would otherwise regrow — and
    /// recopy — once per stripe).
    pub(crate) fn with_capacity(
        disks: usize,
        stripes: usize,
        units: usize,
        parity_unit_bytes: usize,
    ) -> Self {
        let per_disk = (units / disks.max(1)) + 2;
        WritePlan {
            by_disk: (0..disks).map(|_| Vec::with_capacity(per_disk)).collect(),
            parity: Vec::with_capacity(stripes * parity_unit_bytes),
            unsorted: false,
        }
    }

    /// Empties the plan, keeping its buckets' and staging area's
    /// capacity — cache flush loops plan one stripe at a time and
    /// reuse one plan across all of them.
    pub(crate) fn reset(&mut self) {
        for bucket in &mut self.by_disk {
            bucket.clear();
        }
        self.parity.clear();
        self.unsorted = false;
    }

    /// Plans one unit write: `src`'s bytes to `at`.
    fn push(&mut self, at: PhysUnit, src: WriteSrc) {
        let (bucket, offset) = (&mut self.by_disk[at.disk], at.offset as u32);
        if bucket.last().is_some_and(|&(last, _)| offset < last) {
            self.unsorted = true;
        }
        bucket.push((offset, src));
    }
}

/// A partially covered stripe of a batch: stripe `si` of layout copy
/// `copy`, whose new units are its `units` range of the batch's
/// `(slot, block)` list (see `BlockStore::update_partial_stripes`).
#[derive(Debug)]
struct PartialStripe {
    copy: usize,
    si: usize,
    units: std::ops::Range<usize>,
    /// A cache entry whose earlier flush failed part-way.
    requeued: bool,
}

/// One partial-stripe update, routed (`BlockStore::route`): its new
/// units as `(data slot, block of the source buffer)` pairs, slots
/// ascending; its route; where its new P and Q go; and where its
/// block of units starts in the [`ReadRound`].
#[derive(Debug)]
struct Partial<'d> {
    copy: usize,
    si: usize,
    /// Logical address of the stripe's data slot 0.
    start: usize,
    dirty: &'d [(usize, usize)],
    delta: bool,
    p_at: Option<PhysUnit>,
    q_at: Option<PhysUnit>,
    block: usize,
}

/// The read round of one or more partial-stripe updates: one
/// single-unit run per read, staged in `units`, where each update owns
/// a block laid out `[P][Q][reads…]` (no Q slot under XOR). The parity
/// slots take the delta route's old parities or serve as the
/// reconstruct route's accumulators, and end up holding the new P and
/// Q. Pooled, so a steady-state small write allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ReadRound {
    runs: Vec<Run>,
    /// Per run: the update it reads for (index into the round's
    /// updates) and whether it verifies against the recorded checksum.
    of: Vec<(usize, bool)>,
    units: Vec<u8>,
    /// Updates whose reads mismatched their checksums, ascending.
    bad: Vec<usize>,
}

/// Whether stripe `si` has a member on a failed disk.
fn degraded_stripe(st: &ArrayState, si: usize) -> bool {
    !st.failed.is_empty()
        && st.world.layout.stripes()[si].units().iter().any(|u| st.failed.contains(u.disk as usize))
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

/// A prefetched set of physical units: the rebuild workers list every
/// surviving stripe member a chunk of decodes will need, read each
/// disk's units in coalesced runs (one vectored backend call per run),
/// and then decode entirely from memory. Reused across chunks so the
/// steady-state rebuild loop is allocation-free.
#[derive(Debug, Default)]
pub(crate) struct UnitCache {
    /// `(physical disk, offset)` wanted keys; sorted by [`UnitCache::fill`].
    pub(crate) wants: Vec<(u32, u32)>,
    /// Unit payloads, index-aligned with `wants` after `fill`.
    data: Vec<u8>,
    unit_size: usize,
}

impl UnitCache {
    pub(crate) fn new() -> UnitCache {
        UnitCache::default()
    }

    pub(crate) fn push_want(&mut self, disk: u32, offset: u32) {
        self.wants.push((disk, offset));
    }

    /// Sorts the want-list and reads it through `io` in per-disk
    /// coalesced runs — one run per stretch of adjacent units, each
    /// landing in its own span of the cache — at maintenance priority
    /// (every prefetch band belongs to a background job).
    pub(crate) fn fill<B: Backend>(
        &mut self,
        io: &Io<'_, B>,
        unit_size: usize,
    ) -> Result<(), StoreError> {
        self.unit_size = unit_size;
        self.wants.sort_unstable();
        debug_assert!(
            self.wants.windows(2).all(|w| w[0] != w[1]),
            "stripes never share units, so the want-list has no duplicates"
        );
        self.data.resize(self.wants.len() * unit_size, 0);
        let wants = &self.wants;
        let mut runs: Vec<Run> = Vec::new();
        let mut i = 0;
        while i < wants.len() {
            let (disk, offset) = wants[i];
            let mut j = i + 1;
            while j < wants.len() && wants[j] == (disk, offset + (j - i) as u32) {
                j += 1;
            }
            runs.push(Run { disk: disk as usize, first: offset as usize, parts: i..j });
            i = j;
        }
        io.read_into(&runs, &mut self.data, Priority::Maintenance, |_, _| {})
    }

    /// The `i`-th cached unit's bytes (index-aligned with `wants`).
    pub(crate) fn unit(&self, i: usize) -> &[u8] {
        &self.data[i * self.unit_size..(i + 1) * self.unit_size]
    }

    /// Copies the cached unit `(disk, offset)` into `out`.
    pub(crate) fn copy_to(&self, disk: u32, offset: u32, out: &mut [u8]) -> Result<(), StoreError> {
        let i = self.wants.binary_search(&(disk, offset)).map_err(|_| {
            StoreError::Corrupt(format!(
                "unit (disk {disk}, offset {offset}) missing from the rebuild read cache"
            ))
        })?;
        out.copy_from_slice(&self.data[i * self.unit_size..(i + 1) * self.unit_size]);
        Ok(())
    }
}

/// Outcome counters from replaying a [`Trace`] against the store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Read operations executed.
    pub reads: usize,
    /// Write operations executed.
    pub writes: usize,
    /// Blocks transferred by reads.
    pub blocks_read: usize,
    /// Blocks transferred by writes.
    pub blocks_written: usize,
    /// Disks failed by `Fail` events.
    pub disks_failed: usize,
    /// Disks restored by `Restore` events.
    pub disks_restored: usize,
    /// Rebuilds completed by `Rebuild` events.
    pub rebuilds: usize,
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
/// (see the [module docs](self) for the locking model).
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
    /// The array directory installed by the file-store constructors:
    /// rebuild completions, reshape and scrub checkpoints persist the
    /// document through it, and flushes the checksum table. `None`
    /// for memory-backed stores (nothing survives the process anyway).
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
        Self::build(layout, None, backend)
    }

    /// Builds a double-parity (P+Q) store over `backend`: every stripe
    /// carries the XOR parity P and the `GF(2^8)` Reed–Solomon parity Q
    /// at the slots chosen by `dp` (the generalized Theorem 14 flow),
    /// and the array tolerates any two concurrent disk failures.
    pub fn new_pq(dp: DoubleParityLayout, backend: B) -> Result<Self, StoreError> {
        let slots = dp.all_parity_slots().to_vec();
        Self::build(dp.layout().clone(), Some(slots), backend)
    }

    fn build(
        layout: Layout,
        pq_slots: Option<Vec<(usize, usize)>>,
        backend: B,
    ) -> Result<Self, StoreError> {
        Self::build_inner(layout, pq_slots, backend, None)
    }

    /// [`BlockStore::build`] for a reopened store, whose document gives
    /// the copy count: **mid-reshape** the backend is grown to the
    /// scratch geometry, so units-per-disk is larger than `copies ×
    /// layout.size()` — per-disk validation relaxes to "at least that
    /// many copies".
    pub(crate) fn build_resuming(
        layout: Layout,
        pq_slots: Option<Vec<(usize, usize)>>,
        backend: B,
        copies: usize,
    ) -> Result<Self, StoreError> {
        Self::build_inner(layout, pq_slots, backend, Some(copies))
    }

    fn build_inner(
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

    /// The per-stripe `(P, Q)` slot pairs under [`ParityScheme::PQ`],
    /// `None` under XOR. This is the assignment persisted by
    /// [`crate::StoreMeta`] so a reopened store decodes with the exact
    /// parity placement it was created with.
    pub fn pq_parity_slots(&self) -> Option<Vec<(usize, usize)>> {
        self.state_read().world.pq_slots.clone()
    }

    /// The backend (e.g. to inspect IO counters).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Bytes per logical block.
    pub fn unit_size(&self) -> usize {
        self.unit_size
    }

    /// Layout copies tiled down the disks (the current world's).
    pub fn copies(&self) -> usize {
        self.state_read().world.copies
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

    /// Registers a rebuild of `failed` onto physical `spare`,
    /// validating both under the exclusive state guard (so two
    /// rebuilds cannot race each other, and the spare cannot be
    /// concurrently mapped). Pairs with `complete_rebuild` or
    /// `abort_rebuild`.
    pub(crate) fn begin_rebuild(&self, failed: usize, spare: usize) -> Result<(), StoreError> {
        let mut st = self.state_write();
        if let Some((d, _)) = st.rebuilding {
            return Err(StoreError::RebuildInProgress(d));
        }
        if st.reshape.is_some() {
            return Err(StoreError::ReshapeInProgress);
        }
        if !st.failed.contains(failed) {
            return Err(StoreError::NotFailed(failed));
        }
        if spare >= self.backend.disks() || st.redirect.contains(&spare) {
            return Err(StoreError::InvalidSpare(spare));
        }
        // Flush-before-transition: the rebuild's chunk decodes assume
        // the backend holds every acknowledged write of the pre-
        // registration era; writes issued *after* registration are
        // either flushed through the write-through path or reconciled
        // by the post-completion flush.
        self.flush_cache_locked(&st)?;
        st.rebuilding = Some((failed, spare));
        st.epoch += 1;
        // Arm live progress: units-per-disk to reconstruct, and the
        // per-logical-disk read counts to diff against (the rebuild's
        // read-distribution baseline).
        let baseline =
            (0..st.world.layout.v()).map(|d| self.backend.read_count(st.redirect[d])).collect();
        self.rb_tracker.start(failed, spare, self.backend.units_per_disk() as u64, baseline);
        self.events.emit(|| Event::RebuildBegan {
            disk: failed as u32,
            spare: spare as u32,
            epoch: st.epoch,
        });
        Ok(())
    }

    /// Unregisters a failed rebuild attempt; the store stays degraded.
    pub(crate) fn abort_rebuild(&self) {
        let mut st = self.state_write();
        st.rebuilding = None;
        st.epoch += 1;
        self.rb_tracker.finish();
        self.events.emit(|| Event::RebuildAborted { epoch: st.epoch });
    }

    pub(crate) fn complete_rebuild(&self, failed: usize, spare: usize) -> Result<(), StoreError> {
        let mut st = self.state_write();
        debug_assert_eq!(st.rebuilding, Some((failed, spare)), "completion matches registration");
        st.redirect[failed] = spare;
        st.failed.remove(failed);
        st.rebuilding = None;
        st.epoch += 1;
        self.rb_tracker.finish();
        // The degraded window this rebuild serviced closes here (or
        // steps down from two erasures to one).
        self.metrics.degraded_transition(
            st.failed.len() + 1,
            st.failed.len(),
            self.metrics.total_ops(),
        );
        self.events.emit(|| Event::RebuildCompleted {
            disk: failed as u32,
            spare: spare as u32,
            epoch: st.epoch,
        });
        // The spare carries a full reconstruction (plus any writes
        // written through while it raced traffic): the medium is
        // fresh again.
        st.world.stale[failed].store(0, Ordering::Release);
        // File-backed arrays record the new redirect in their document
        // so a reopened store reads the spare, not the stale failed
        // disk. Persisted under the exclusive guard: no in-flight op
        // can observe the new redirect before it is durable.
        self.persist_meta(&st.world, &st.redirect, None)
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

    /// The store's metrics registry — per-op-kind counters, sampled
    /// latency histograms, the recent read/write mix, and the
    /// degraded-window clock. Always on.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Installs (or, with `None`, removes) the structured-event sink.
    /// While a sink is installed every public op emits
    /// `OpBegin`/`OpEnd` spans (forcing per-op timing) and the
    /// failure/rebuild/cache events of the [module docs](self) table;
    /// with no sink the data path pays one relaxed load. The bundled
    /// sink is [`crate::TraceLog`]; tests plug in their own.
    pub fn set_event_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        self.events.set(sink);
    }

    /// Enables or disables checksum verification (on by default).
    /// Off, reads skip hashing and writes skip recording — the
    /// integrity-overhead control the benches measure against.
    pub fn set_checksums_enabled(&self, on: bool) {
        self.integrity.verify.store(on, Ordering::Relaxed);
    }

    /// Whether per-unit checksums are verified on read and recorded
    /// on write.
    pub fn checksums_enabled(&self) -> bool {
        self.integrity.verifying()
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

    /// The installed [`RetryPolicy`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.integrity.retry_policy()
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
        let mut cache = self.cache.stats_snapshot();
        cache.bypassed_writes = self.metrics.bypassed_writes();
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
    /// see [`crate::cache`]) and then the backend, so every
    /// acknowledged write is durable on return.
    pub fn flush(&self) -> Result<(), StoreError> {
        {
            let st = self.state_read();
            self.flush_cache_locked(&st)?;
        }
        self.backend.flush()?;
        self.dir.as_ref().map_or(Ok(()), |dir| dir.persist_sums(&self.integrity))
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

    /// The cache coordinates of a resolved address: `(shard, packed
    /// key, data-slot index within the stripe's cache entry, data
    /// units in the stripe)`. Shard ids are the lock table's, so the
    /// cache is sharded by the same `(copy, stripe)` key as the
    /// stripe locks.
    fn cache_coords(
        &self,
        st: &ArrayState,
        m: &AddrRef,
        addr: usize,
    ) -> (usize, u64, usize, usize) {
        let (lo, k_data) = st.world.smap.stripe_data_range(m.stripe);
        let j = addr - m.copy * st.world.smap.data_units_per_copy() - lo;
        (self.locks.shard_of(m.copy, m.stripe), stripe_key(m.copy, m.stripe), j, k_data)
    }

    /// Stripes a full cache drain flushes under one ordered shard
    /// acquisition (and one combined write plan).
    const FLUSH_BATCH: usize = 128;

    /// Drains every stripe that was dirty **when the flush began**,
    /// in batches of [`Self::FLUSH_BATCH`] **address-sorted**
    /// stripes: fully dirty stripes accumulate into one combined
    /// write plan, so adjacent hot stripes coalesce into per-disk
    /// gather writes instead of one backend call per unit. The drain
    /// is bounded by the queue length at entry — stripes dirtied by
    /// writers racing the flush stay queued for the next one, so a
    /// flush under sustained write-back traffic terminates. The
    /// caller holds a state guard — shared for explicit flushes,
    /// **exclusive** inside failure-state transitions, where no
    /// client I/O is in flight (and the drain is therefore complete,
    /// not just a snapshot).
    pub(crate) fn flush_cache_locked(&self, st: &ArrayState) -> Result<(), StoreError> {
        if !self.cache.maybe_dirty() {
            return Ok(());
        }
        let mut budget = self.cache.queue_len();
        let mut snap = FlushSnapshot::default();
        let mut plan = WritePlan::new(self.backend.disks());
        let mut staged: Vec<u8> = Vec::new();
        let mut keys: Vec<u64> = Vec::with_capacity(Self::FLUSH_BATCH);
        while budget > 0 {
            keys.clear();
            while keys.len() < Self::FLUSH_BATCH.min(budget) {
                match self.cache.pop_dirty() {
                    Some(k) => keys.push(k),
                    None => break,
                }
            }
            if keys.is_empty() {
                return Ok(());
            }
            budget -= keys.len();
            // Address order: the packed key sorts by (copy, stripe),
            // which is physical-offset order per disk — the flush
            // walks the media sequentially.
            keys.sort_unstable();
            keys.dedup();
            self.flush_batch(st, &keys, &mut snap, &mut plan, &mut staged)?;
        }
        Ok(())
    }

    /// Flushes one sorted batch of cached stripes under a single
    /// two-phase ordered shard acquisition. Fully dirty stripes plan
    /// into one combined gather plan; partially dirty ones read in one
    /// shared round and join it (`update_partial_stripes`). The plan
    /// is flushed at the end and every entry removed only after the
    /// backend writes land. On error
    /// every key of the batch is re-queued (and its entry marked, so
    /// its retry takes the idempotent route) — already-flushed entries
    /// are gone and skip harmlessly on the retry.
    fn flush_batch(
        &self,
        st: &ArrayState,
        keys: &[u64],
        snap: &mut FlushSnapshot,
        plan: &mut WritePlan,
        staged: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let mut shards: Vec<usize> = keys
            .iter()
            .map(|&k| {
                let (copy, si) = key_parts(k);
                self.locks.shard_of(copy, si)
            })
            .collect();
        sort_shard_set(&mut shards);
        let _guards = self.locks.lock_sorted(&shards);
        self.flush_batch_locked(st, keys, snap, plan, staged)
    }

    /// [`BlockStore::flush_batch`] with the batch's shard locks
    /// **already held** by the caller — the reshape migration flushes
    /// covered stripes under the exclusive shard locks it holds for
    /// the whole batch copy.
    pub(crate) fn flush_batch_locked(
        &self,
        st: &ArrayState,
        keys: &[u64],
        snap: &mut FlushSnapshot,
        plan: &mut WritePlan,
        staged: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        plan.reset();
        staged.clear();
        let us = self.unit_size;
        let t0 = Instant::now();
        let mut flushed_stripes = 0u32;
        let mut flushed_units = 0u32;
        let res = (|| -> Result<(), StoreError> {
            let mut planned: Vec<u64> = Vec::new();
            let mut partials: Vec<PartialStripe> = Vec::new();
            let mut dirty: Vec<(usize, usize)> = Vec::new();
            for &key in keys {
                let (copy, si) = key_parts(key);
                let shard = self.locks.shard_of(copy, si);
                // The entry's data units land in `staged` at `base`
                // (one copy, entry left in place for readers); the
                // plan records indices into `staged`, so later
                // appends never invalidate earlier planning.
                let base = staged.len() / us;
                if !self.cache.snapshot_append(shard, key, snap, staged) {
                    continue; // discarded by a full-stripe overwrite
                }
                flushed_stripes += 1;
                flushed_units += snap.ndirty as u32;
                let (lo, k_data) = st.world.smap.stripe_data_range(si);
                let start = copy * st.world.smap.data_units_per_copy() + lo;
                if snap.ndirty == k_data {
                    // Fully dirty: zero-read full-stripe planning into
                    // the combined plan.
                    let stripe_bytes = &staged[base * us..(base + k_data) * us];
                    self.plan_stripe(&st.world, start, stripe_bytes, base, plan, |u| {
                        self.place(st, u, copy, si)
                    });
                } else {
                    let units = dirty.len()..dirty.len() + snap.ndirty;
                    dirty.extend((0..k_data).filter(|&j| snap.dirty[j]).map(|j| (j, base + j)));
                    let requeued = snap.requeued;
                    partials.push(PartialStripe { copy, si, units, requeued });
                }
                planned.push(key);
                // An entry re-queued by a failed flush lands on its own
                // (with what was planned before it): entries that keep
                // failing cannot hold the rest of the batch back.
                if snap.requeued {
                    self.land_flush(st, &mut planned, &mut partials, &mut dirty, plan, staged)?;
                }
            }
            self.land_flush(st, &mut planned, &mut partials, &mut dirty, plan, staged)
        })();
        if res.is_err() {
            for &key in keys {
                let (copy, si) = key_parts(key);
                self.cache.requeue(self.locks.shard_of(copy, si), key);
            }
        } else if flushed_stripes > 0 {
            self.cache.note_flush(flushed_stripes as u64, flushed_units as u64);
            self.metrics.record_op(
                OpKind::CacheFlush,
                flushed_units as u64,
                t0.elapsed().as_nanos() as u64,
            );
            self.events.emit(|| Event::CacheFlush {
                stripes: flushed_stripes,
                dirty_units: flushed_units,
            });
        }
        res
    }

    /// Lands the `planned` stripes of a flush batch: the partially
    /// dirty ones read in one round and join `plan`, the plan is
    /// written, and every planned entry is removed once its writes
    /// have landed. Leaves the lists and the plan empty.
    fn land_flush(
        &self,
        st: &ArrayState,
        planned: &mut Vec<u64>,
        partials: &mut Vec<PartialStripe>,
        dirty: &mut Vec<(usize, usize)>,
        plan: &mut WritePlan,
        staged: &[u8],
    ) -> Result<(), StoreError> {
        self.update_partial_stripes(st, partials, dirty, staged, plan)?;
        self.flush_write_plan(plan, staged)?;
        for key in planned.drain(..) {
            let (copy, si) = key_parts(key);
            self.cache.remove_flushed(self.locks.shard_of(copy, si), key);
        }
        partials.clear();
        dirty.clear();
        plan.reset();
        Ok(())
    }

    /// Most victim stripes one write evicts — enough to outpace the
    /// single stripe a write can dirty, while bounding any one
    /// caller's eviction work when many writers push the cache over
    /// budget at once.
    const EVICT_MAX: usize = 8;

    /// Oldest-first eviction until the dirty count is back under the
    /// write-back budget (or this call's [`Self::EVICT_MAX`] work
    /// bound is spent — backpressure is shared across writers, not
    /// absorbed by whoever shows up first). Runs on the write path
    /// **after** the triggering stripe's shard lock is released —
    /// one victim stripe is flushed at a time, so eviction never
    /// holds two shard locks and cannot deadlock with concurrent
    /// writers.
    fn evict_over_limit(&self, st: &ArrayState) -> Result<(), StoreError> {
        if !self.cache.over_limit() {
            return Ok(());
        }
        let mut snap = FlushSnapshot::default();
        let mut plan = WritePlan::new(self.backend.disks());
        let mut staged: Vec<u8> = Vec::new();
        let mut evicted = 0usize;
        while evicted < Self::EVICT_MAX && self.cache.over_limit() {
            let Some(key) = self.cache.pop_dirty() else { break };
            self.flush_batch(st, &[key], &mut snap, &mut plan, &mut staged)?;
            evicted += 1;
        }
        self.cache.note_evictions(evicted as u64);
        Ok(())
    }

    /// The one partial-stripe update, issued alone: lands the new
    /// bytes of the data slots in `dirty` — `(j, b)` pairs, `j` the
    /// slot's data index within stripe `si` of layout copy `copy`
    /// (address order, as the cache indexes it), ascending, and `b` the
    /// block of `data` holding its new bytes — and keeps every
    /// placeable parity consistent. The caller holds the stripe's shard
    /// lock exclusive and the state read guard. Alone, an update lands
    /// one new unit (`write_block`'s) unless its stripe is degraded; a
    /// batch's partial stripes go through
    /// [`BlockStore::update_partial_stripes`]. With `m` dirty units
    /// and `p` placeable parities it writes `m + p` units, at most one
    /// backend call per touched disk, and picks its reads by count:
    ///
    /// * **delta** — read the `m` old units and the `p` old parities
    ///   and fold every `old ⊕ new` into the parities. Taken when its
    ///   `m + p` reads are no more than reconstruct's: at a tie it
    ///   touches `k_data − m` fewer disks, its reads landing on units
    ///   it writes anyway. It is not idempotent — re-run over a
    ///   half-applied attempt it folds a landed unit's zero delta into
    ///   a stale parity;
    /// * **reconstruct** — read the `k_data − m` clean units and
    ///   recompute the parities fresh over the whole data vector.
    ///   Taken when strictly fewer reads, and for every `requeued`
    ///   update of a healthy stripe (a cache entry whose earlier flush
    ///   failed part-way), because it is idempotent;
    /// * **degraded stripe** (a member disk failed) — one unit at a
    ///   time, ascending: delta while the unit's disk lives,
    ///   reconstruct when its value exists only through parity (a
    ///   second lost data unit decoded first), so a later unit's decode
    ///   or delta sees what earlier ones wrote.
    ///
    /// An update is a read set and a write set. Its reads go out as one
    /// dispatcher round and are checksum-verified as they land; P and Q
    /// are folded; its writes go out as a second round — or, in a
    /// batch, into the batch's write plan. The calls within a round are
    /// unordered: a round bounds latency, it promises nothing about
    /// durability (ROADMAP item 1). Every read of an attempt precedes
    /// its writes (per unit on the degraded route), so a checksum
    /// mismatch — a corrupt unit about to be folded into parity —
    /// surfaces before anything of the unit in hand has landed: the
    /// stripe is repaired and the update retried once. A *client*
    /// retrying a write-through call that failed part-way, or a
    /// re-queued flush of a degraded stripe, may still take the delta
    /// route over the half-applied attempt: that is the write hole
    /// (ROADMAP item 1).
    fn update_partial_stripe(
        &self,
        st: &ArrayState,
        copy: usize,
        si: usize,
        data: &[u8],
        dirty: &[(usize, usize)],
        requeued: bool,
    ) -> Result<(), StoreError> {
        let degraded = degraded_stripe(st, si);
        let per_update = if degraded { 1 } else { dirty.len() };
        let mut round = self.rounds.get();
        let mut attempt = || {
            dirty.chunks(per_update).try_for_each(|set| {
                let mut p = self.route(st, copy, si, set, requeued, degraded);
                self.update_alone(st, &mut p, data, &mut round)
            })
        };
        let res = match attempt() {
            Err(StoreError::ChecksumMismatch { .. }) => {
                self.repair_stripe_locked(st, copy, si).and_then(|_| attempt())
            }
            r => r,
        };
        self.rounds.put(round);
        res
    }

    /// Healthy partial stripes one read round stages at most, so a
    /// pooled round holds a few stripes' units, not a flush batch's.
    const ROUND_STRIPES: usize = 16;

    /// The partial stripes of one batch — `write_blocks`' head and
    /// tail, a flush batch's partially dirty stripes — each with its
    /// range of the batch's `(slot, block)` list `dirty` (see
    /// [`BlockStore::update_partial_stripe`]). The healthy ones read in
    /// shared rounds of up to [`Self::ROUND_STRIPES`] and fold their
    /// parities into `plan`'s staging area; their writes join `plan`,
    /// so they land with the batch's full stripes in its one write
    /// round. A checksum mismatch repairs the stripes it hit and the
    /// round is read again, once. A degraded stripe is updated alone,
    /// unit by unit, before this returns.
    fn update_partial_stripes(
        &self,
        st: &ArrayState,
        stripes: &[PartialStripe],
        dirty: &[(usize, usize)],
        data: &[u8],
        plan: &mut WritePlan,
    ) -> Result<(), StoreError> {
        let mut parts = Vec::with_capacity(stripes.len());
        for s in stripes {
            let set = &dirty[s.units.clone()];
            if degraded_stripe(st, s.si) {
                self.update_partial_stripe(st, s.copy, s.si, data, set, s.requeued)?;
            } else {
                parts.push(self.route(st, s.copy, s.si, set, s.requeued, false));
            }
        }
        if parts.is_empty() {
            return Ok(());
        }
        let (us, np) = (self.unit_size, self.scheme.parity_per_stripe());
        let mut round = self.rounds.get();
        let res = parts.chunks_mut(Self::ROUND_STRIPES).try_for_each(|parts| {
            match self.read_partials(st, parts, &mut round) {
                Err(StoreError::ChecksumMismatch { .. }) => {
                    for &i in &round.bad {
                        self.repair_stripe_locked(st, parts[i].copy, parts[i].si)?;
                    }
                    self.read_partials(st, parts, &mut round)?;
                }
                r => r?,
            }
            for p in parts.iter() {
                self.fold_partial(st, p, data, &mut round.units, None);
                let base = plan.parity.len() / us;
                plan.parity.extend_from_slice(&round.units[p.block * us..(p.block + np) * us]);
                self.partial_writes(st, p, base, |at, src| plan.push(at, src));
            }
            Ok(())
        });
        self.rounds.put(round);
        res
    }

    /// Routes one partial-stripe update: where its new P and Q go
    /// (their live media, a racing rebuild's spare, or nowhere) and
    /// which route it takes (see [`BlockStore::update_partial_stripe`]).
    /// On a `degraded` stripe `dirty` is one unit, which takes delta
    /// exactly when its disk lives.
    fn route<'d>(
        &self,
        st: &ArrayState,
        copy: usize,
        si: usize,
        dirty: &'d [(usize, usize)],
        requeued: bool,
        degraded: bool,
    ) -> Partial<'d> {
        let w = &*st.world;
        let (lo, k_data) = w.smap.stripe_data_range(si);
        let start = copy * w.smap.data_units_per_copy() + lo;
        let (p_slot, q_slot) = w.smap.parity_slots(si);
        let p_at = self.place(st, w.unit(copy, si, p_slot), copy, si);
        let q_at = q_slot.and_then(|qs| self.place(st, w.unit(copy, si, qs), copy, si));
        let delta = if degraded {
            debug_assert_eq!(dirty.len(), 1, "a degraded stripe updates one unit at a time");
            let m = w.smap.locate_full(start + dirty[0].0);
            !st.failed.contains(m.unit.disk as usize)
        } else {
            let reads_by_delta =
                dirty.len() + usize::from(p_at.is_some()) + usize::from(q_at.is_some());
            !requeued && reads_by_delta <= k_data - dirty.len()
        };
        Partial { copy, si, start, dirty, delta, p_at, q_at, block: 0 }
    }

    /// One update alone: its read round, its fold, its write round —
    /// one new unit and at most two parities, so the write set lives
    /// on the stack. A reconstruct beside a second lost data unit
    /// decodes that unit first.
    fn update_alone(
        &self,
        st: &ArrayState,
        p: &mut Partial<'_>,
        data: &[u8],
        round: &mut ReadRound,
    ) -> Result<(), StoreError> {
        let w = &*st.world;
        let us = self.unit_size;
        let mut dec = (!p.delta && !st.failed.is_empty())
            .then(|| {
                (0..w.smap.stripe_data_range(p.si).1)
                    .filter(|&j| !p.dirty.iter().any(|&(d, _)| d == j))
                    .map(|j| w.smap.locate_full(p.start + j))
                    .find(|m| st.failed.contains(m.unit.disk as usize))
            })
            .flatten()
            .map(|m| (m.slot, self.scratch.get()));
        let res = (|| {
            let decoded = match &mut dec {
                Some((slot, s)) => {
                    let shift = (p.copy * w.layout.size()) as u32;
                    let solved = self.decode_stripe(st, p.si, shift, &[], s)?;
                    Some((*slot, solved.get(s, *slot)?))
                }
                None => None,
            };
            self.read_partials(st, std::slice::from_mut(p), round)?;
            self.fold_partial(st, p, data, &mut round.units, decoded);
            let np = self.scheme.parity_per_stripe();
            let parity = &round.units[p.block * us..(p.block + np) * us];
            let mut runs: [Run; 3] = Default::default();
            let mut srcs: [&[u8]; 3] = [&[]; 3];
            let mut n = 0;
            self.partial_writes(st, p, 0, |at, src| {
                runs[n] = Run { disk: at.disk, first: at.offset, parts: n..n + 1 };
                srcs[n] = src.bytes(parity, data, us);
                n += 1;
            });
            self.write_recorded(&runs[..n], &srcs[..n])
        })();
        if let Some((_, s)) = dec {
            self.scratch.put(s);
        }
        res
    }

    /// Stages the reads of every update in `parts` in `round` — each a
    /// block of units laid out `[P][Q][reads…]` — and issues them as
    /// one dispatcher round at client priority, each checked unit
    /// verified as it lands. A mismatch fails the round, after every
    /// read has landed, with [`StoreError::ChecksumMismatch`] naming
    /// the first bad unit and the stripes hit listed in `round.bad`.
    fn read_partials(
        &self,
        st: &ArrayState,
        parts: &mut [Partial<'_>],
        round: &mut ReadRound,
    ) -> Result<(), StoreError> {
        let w = &*st.world;
        let (us, np) = (self.unit_size, self.scheme.parity_per_stripe());
        let ReadRound { runs, of, units, bad } = round;
        runs.clear();
        of.clear();
        bad.clear();
        // Every staged byte is read or, as an accumulator, zeroed
        // before use, so the buffer only ever grows.
        let mut staged = 0;
        for (i, p) in parts.iter_mut().enumerate() {
            p.block = staged;
            let mut next = p.block + np;
            let mut push = |at: PhysUnit, unit: usize| {
                runs.push(Run { disk: at.disk, first: at.offset, parts: unit..unit + 1 });
                of.push((i, at.checked));
            };
            let unit = |j: usize| w.smap.locate_full(p.start + j).unit;
            if p.delta {
                // The old parities land in their own slots; the old
                // units follow.
                if let Some(at) = p.p_at {
                    push(at, p.block);
                }
                if let Some(at) = p.q_at {
                    push(at, p.block + 1);
                }
                for &(j, _) in p.dirty {
                    push(PhysUnit::live(st, unit(j)), next);
                    next += 1;
                }
            } else {
                // Every clean unit whose disk lives; a lost one is
                // decoded instead.
                let mut news = p.dirty.iter().peekable();
                for j in 0..w.smap.stripe_data_range(p.si).1 {
                    if news.next_if(|&&(d, _)| d == j).is_some() {
                        continue;
                    }
                    let u = unit(j);
                    if !st.failed.contains(u.disk as usize) {
                        push(PhysUnit::live(st, u), next);
                        next += 1;
                    }
                }
            }
            staged = next;
        }
        if units.len() < staged * us {
            units.resize(staged * us, 0);
        }
        let (runs, of) = (&*runs, &*of);
        let verify = self.integrity.verifying();
        let mut first_bad = None;
        self.io().read_into(runs, units, Priority::Client, |r, unit| {
            let (run, (i, checked)) = (&runs[r], of[r]);
            if verify && checked && !self.integrity.sums.check(run.disk, run.first, unit) {
                first_bad.get_or_insert((run.disk, run.first));
                if bad.last() != Some(&i) {
                    bad.push(i);
                }
            }
        })?;
        match first_bad {
            Some((disk, offset)) => Err(StoreError::ChecksumMismatch { disk, offset }),
            None => Ok(()),
        }
    }

    /// Folds `p`'s new P and Q into the parity slots of its block of
    /// `units` from its reads there and its new bytes in `data`;
    /// `decoded` is a lost clean unit's value `(slot, bytes)` for the
    /// reconstruct route. Delta: `P ⊕= Σ (old ⊕ new)`, Q likewise
    /// coefficient-weighted — valid with *another* member failed, the
    /// invariants being linear in the deltas. A spare's parity is
    /// updated like a live one: pre-rebuild it holds arbitrary bytes
    /// the rebuild's decode overwrites (serialized by the stripe lock);
    /// post-rebuild it holds the true old parity. Reconstruct: P and Q
    /// folded fresh from the whole new data vector.
    fn fold_partial(
        &self,
        st: &ArrayState,
        p: &Partial<'_>,
        data: &[u8],
        units: &mut [u8],
        decoded: Option<(usize, &[u8])>,
    ) {
        let w = &*st.world;
        let us = self.unit_size;
        let (parity, reads) =
            units[p.block * us..].split_at_mut(self.scheme.parity_per_stripe() * us);
        let (acc_p, acc_q) = parity.split_at_mut(us);
        let mut reads = reads.chunks_exact_mut(us);
        let new = |b: usize| &data[b * us..(b + 1) * us];
        if p.delta {
            let mut syn = Syndromes { p: p.p_at.map(|_| acc_p), q: p.q_at.map(|_| acc_q) };
            for &(j, b) in p.dirty {
                let old = reads.next().expect("one old unit per new one");
                codec::delta(old, new(b));
                syn.fold(Role::Data(w.smap.locate_full(p.start + j).slot), old);
            }
        } else {
            let q = w.smap.parity_slots(p.si).1.map(|_| acc_q);
            let mut syn = Syndromes::zeroed(acc_p, q);
            let mut news = p.dirty.iter().peekable();
            for j in 0..w.smap.stripe_data_range(p.si).1 {
                let slot = w.smap.locate_full(p.start + j).slot;
                let val: &[u8] = match (news.next_if(|&&(d, _)| d == j), decoded) {
                    (Some(&(_, b)), _) => new(b),
                    (None, Some((lost, bytes))) if lost == slot => bytes,
                    (None, _) => reads.next().expect("one read per clean unit"),
                };
                syn.fold(Role::Data(slot), val);
            }
        }
    }

    /// `p`'s write set, handed to `emit` unit by unit: its new P and Q
    /// (`WriteSrc::parity(parity)` and `parity + 1`) and its new data
    /// units (`WriteSrc::data(b)`), each where `place` puts it.
    fn partial_writes(
        &self,
        st: &ArrayState,
        p: &Partial<'_>,
        parity: usize,
        mut emit: impl FnMut(PhysUnit, WriteSrc),
    ) {
        if let Some(at) = p.p_at {
            emit(at, WriteSrc::parity(parity));
        }
        if let Some(at) = p.q_at {
            emit(at, WriteSrc::parity(parity + 1));
        }
        for &(j, b) in p.dirty {
            let u = st.world.smap.locate_full(p.start + j).unit;
            if let Some(at) = self.place(st, u, p.copy, p.si) {
                emit(at, WriteSrc::data(b));
            }
        }
    }

    /// Writes every run through the dispatcher straight from `srcs`
    /// and records the checksums of exactly the runs that landed, also
    /// when another run's failure fails the call.
    fn write_recorded(&self, runs: &[Run], srcs: &[&[u8]]) -> Result<(), StoreError> {
        let verify = self.integrity.verifying();
        self.io().write_runs(runs, srcs, Priority::Client, |i| {
            let run = &runs[i];
            if verify {
                for (t, unit) in srcs[run.parts.clone()].iter().enumerate() {
                    self.integrity.sums.record(run.disk, run.first + t, unit);
                }
            }
        })
    }

    fn check_addr(&self, addr: usize) -> Result<(), StoreError> {
        if addr >= self.blocks() {
            return Err(StoreError::AddressOutOfRange { addr, blocks: self.blocks() });
        }
        Ok(())
    }

    fn check_block_buf(&self, len: usize) -> Result<(), StoreError> {
        if len != self.unit_size {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: len });
        }
        Ok(())
    }

    /// The one single-unit read: retried on transient errors and, for
    /// a `checked` unit, verified against its recorded checksum. A
    /// mismatch surfaces as [`StoreError::ChecksumMismatch`], which
    /// the public paths catch and convert into a stripe repair (see
    /// `repair_stripe_locked`).
    pub(crate) fn read_unit(&self, at: PhysUnit, buf: &mut [u8]) -> Result<(), StoreError> {
        let PhysUnit { disk, offset, checked } = at;
        self.integrity.retrying(disk, || self.backend.read_unit(disk, offset, &mut *buf))?;
        if checked && self.integrity.verifying() && !self.integrity.sums.check(disk, offset, buf) {
            return Err(StoreError::ChecksumMismatch { disk, offset });
        }
        Ok(())
    }

    /// The one direct write: `buf` (one unit, or a rebuild chunk's
    /// span of them) lands at `at` under the transient-retry policy
    /// and its checksums are recorded — a spare becomes the live
    /// medium when its rebuild's redirect flips, so its sums must be
    /// fresh by then.
    pub(crate) fn write_unit(&self, at: PhysUnit, buf: &[u8]) -> Result<(), StoreError> {
        let PhysUnit { disk, offset, .. } = at;
        self.integrity.retrying(disk, || {
            if buf.len() == self.unit_size {
                self.backend.write_unit(disk, offset, buf)
            } else {
                self.backend.write_units(disk, offset, buf)
            }
        })?;
        if self.integrity.verifying() {
            self.integrity.sums.record_span(disk, offset, buf, self.unit_size);
        }
        Ok(())
    }

    /// Verifies one stripe and repairs what it can, **under the
    /// stripe's exclusive shard lock** (held by the caller): every
    /// unit on a live disk is read raw and checked against its
    /// recorded checksum; mismatched units are treated as erasures
    /// *on top of* the failed disks, erasure-decoded from the
    /// verified survivors, and rewritten in place (read-repair). When
    /// every unit verifies and no disk is failed, the parity
    /// equations themselves are checked and — data being
    /// authoritative — recomputed and rewritten on mismatch; units
    /// with no recorded checksum then have one adopted, so a scrub
    /// pass leaves the whole stripe covered. Returns `(checksum
    /// repairs, parity repairs)` performed on this stripe; more
    /// erasures than the scheme tolerates is
    /// [`StoreError::ChecksumMismatch`] naming the corrupt unit.
    pub(crate) fn repair_stripe_locked(
        &self,
        st: &ArrayState,
        copy: usize,
        si: usize,
    ) -> Result<(u32, u32), StoreError> {
        let w = st.world.clone();
        let us = self.unit_size;
        let units = w.layout.stripes()[si].units();
        let (p_slot, q_slot) = w.smap.parity_slots(si);
        let shift = (copy * w.layout.size()) as u32;
        let phys = |slot: usize| {
            let u = units[slot];
            (st.redirect[u.disk as usize], (u.offset + shift) as usize)
        };
        // Read every live unit raw — one single-unit run per disk, at
        // maintenance priority so client ops outrank the burst — then
        // classify each as verified, mismatched, or unset (no
        // checksum recorded yet).
        let mut bytes = vec![0u8; units.len() * us];
        let (mut live, mut runs) = (Vec::new(), Vec::new());
        for (slot, u) in units.iter().enumerate() {
            if !st.failed.contains(u.disk as usize) {
                let (disk, first) = phys(slot);
                runs.push(Run { disk, first, parts: slot..slot + 1 });
                live.push(slot);
            }
        }
        let nfailed = units.len() - live.len();
        self.io().read_into(&runs, &mut bytes, Priority::Maintenance, |_, _| {})?;
        let mut mismatched: Vec<usize> = Vec::new();
        let mut unset: Vec<usize> = Vec::new();
        for &slot in &live {
            let (pd, off) = phys(slot);
            if !self.integrity.sums.recorded(pd, off) {
                unset.push(slot);
            } else if !self.integrity.sums.check(pd, off, &bytes[slot * us..(slot + 1) * us]) {
                mismatched.push(slot);
            }
        }
        if nfailed + mismatched.len() > self.scheme.parity_per_stripe() {
            // Corruption past the redundancy: unrepairable. Name the
            // first corrupt unit (the failed disks are already known
            // to the caller).
            let (pd, off) = phys(mismatched[0]);
            return Err(StoreError::ChecksumMismatch { disk: pd, offset: off });
        }
        let t0 = Instant::now();
        let mut fixed = 0u32;
        let mut fixed_parity = 0u32;
        if !mismatched.is_empty() {
            // Decode the mismatched units (the failed disks ride
            // along in the lost set but have no medium to rewrite)
            // from the verified survivors — served from the bytes
            // already read above, no second backend pass.
            let mut scratch = self.scratch.get();
            let res = (|| -> Result<(), StoreError> {
                let solved = self.decode_stripe_with(
                    st,
                    si,
                    shift,
                    &mismatched,
                    &mut scratch,
                    |slot, _, buf| {
                        buf.copy_from_slice(&bytes[slot * us..(slot + 1) * us]);
                        Ok(())
                    },
                )?;
                for slot in solved.slots() {
                    if !mismatched.contains(&slot) {
                        continue; // a failed disk's unit: no medium
                    }
                    let (pd, off) = phys(slot);
                    let repaired = solved.get(&scratch, slot)?;
                    self.write_unit(PhysUnit { disk: pd, offset: off, checked: true }, repaired)?;
                    bytes[slot * us..(slot + 1) * us].copy_from_slice(repaired);
                    self.integrity.checksum_repairs.fetch_add(1, Ordering::Relaxed);
                    self.integrity.health.note_repair(pd);
                    self.events
                        .emit(|| Event::ChecksumRepair { disk: pd as u32, offset: off as u64 });
                    fixed += 1;
                }
                Ok(())
            })();
            self.scratch.put(scratch);
            res?;
        } else if nfailed == 0 {
            // Every unit verified (or is unset) and the whole stripe
            // is present: check the parity equations themselves. Data
            // is authoritative — a mismatching parity unit is
            // recomputed and rewritten.
            let is_pq = self.scheme == ParityScheme::PQ;
            let mut acc_p = vec![0u8; us];
            let mut acc_q = vec![0u8; us];
            let mut syn = Syndromes { p: Some(&mut acc_p), q: is_pq.then_some(&mut acc_q) };
            for (slot, val) in bytes.chunks_exact(us).enumerate() {
                if !w.smap.is_parity_slot(si, slot) {
                    syn.fold(Role::Data(slot), val);
                }
            }
            let mut fix = |slot: usize, acc: &[u8]| -> Result<(), StoreError> {
                if &bytes[slot * us..(slot + 1) * us] == acc {
                    return Ok(());
                }
                let (pd, off) = phys(slot);
                self.write_unit(PhysUnit { disk: pd, offset: off, checked: true }, acc)?;
                bytes[slot * us..(slot + 1) * us].copy_from_slice(acc);
                self.integrity.parity_repairs.fetch_add(1, Ordering::Relaxed);
                self.integrity.health.note_repair(pd);
                self.events.emit(|| Event::ChecksumRepair { disk: pd as u32, offset: off as u64 });
                fixed_parity += 1;
                Ok(())
            };
            fix(p_slot, &acc_p)?;
            if let Some(qs) = q_slot {
                fix(qs, &acc_q)?;
            }
        }
        if nfailed == 0 {
            // The stripe is now internally consistent: adopt sums for
            // units that never had one, so the next pass verifies
            // them too.
            for slot in unset {
                let (pd, off) = phys(slot);
                self.integrity.sums.record(pd, off, &bytes[slot * us..(slot + 1) * us]);
            }
        }
        if fixed + fixed_parity > 0 {
            self.metrics.record_op(
                OpKind::RepairWrite,
                (fixed + fixed_parity) as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok((fixed, fixed_parity))
    }

    /// Reconstructs the unit at `(disk, offset)` from the surviving
    /// members of its stripe (disk may be failed or simply absent).
    /// This is the degraded-read primitive; the caller holds the
    /// stripe's shard lock (shared suffices) and the state guard.
    fn reconstruct_unit(
        &self,
        st: &ArrayState,
        disk: usize,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        self.check_block_buf(out.len())?;
        let size = st.world.layout.size();
        let shift = (offset / size * size) as u32;
        let r = st.world.layout.unit_ref(disk, offset % size);
        let mut scratch = self.scratch.get();
        let res = self
            .decode_stripe(st, r.stripe as usize, shift, &[r.slot as usize], &mut scratch)
            .and_then(|solved| {
                out.copy_from_slice(solved.get(&scratch, r.slot as usize)?);
                Ok(())
            });
        self.scratch.put(scratch);
        res
    }

    /// Batched rebuild primitive: reconstructs the `out.len() /
    /// unit_size` consecutive units of `disk` starting at `start` and
    /// lands them on physical disk `spare` with one vectored write.
    /// Surviving members are prefetched in coalesced per-disk runs
    /// (one vectored backend call per run) instead of one call per
    /// stripe member. The chunk's stripe shards are held *shared* for
    /// the whole prefetch→decode→spare-write sequence, so concurrent
    /// writers (exclusive) are excluded stripe by stripe and the
    /// spare write cannot clobber a write-through that happened after
    /// the decode. `scratch` and `cache` are caller-owned so worker
    /// threads reuse their capacity across chunks.
    pub(crate) fn rebuild_chunk(
        &self,
        disk: usize,
        spare: usize,
        start: usize,
        out: &mut [u8],
        scratch: &mut Scratch,
        cache: &mut UnitCache,
    ) -> Result<(), StoreError> {
        if out.is_empty() || !out.len().is_multiple_of(self.unit_size) {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: out.len() });
        }
        let n = out.len() / self.unit_size;
        let st = self.state_read();
        let w = st.world.clone();
        let size = w.layout.size();
        // Two-phase acquisition: every stripe this chunk decodes,
        // sorted by shard, locked shared before any byte is read.
        let mut shards: Vec<usize> = (0..n)
            .map(|i| {
                let offset = start + i;
                let r = w.layout.unit_ref(disk, offset % size);
                self.locks.shard_of(offset / size, r.stripe as usize)
            })
            .collect();
        sort_shard_set(&mut shards);
        let mut attempt = 0;
        loop {
            let guards = self.locks.lock_sorted_shared(&shards);
            // Gather every surviving stripe member the decodes below
            // will touch. Distinct target offsets live in distinct
            // stripes, and stripes never share units, so the want-list
            // is duplicate-free and the per-disk unit counts stay
            // identical to the per-unit path — only the call count
            // drops.
            cache.wants.clear();
            for i in 0..n {
                let offset = start + i;
                let shift = (offset / size * size) as u32;
                let r = w.layout.unit_ref(disk, offset % size);
                for u in w.layout.stripes()[r.stripe as usize].units() {
                    if u.disk as usize == disk || st.failed.contains(u.disk as usize) {
                        continue;
                    }
                    cache.push_want(st.redirect[u.disk as usize] as u32, u.offset + shift);
                }
            }
            let t0 = Instant::now();
            cache.fill(&self.io(), self.unit_size)?;
            // The chunk's surviving-member prefetch *is* the rebuild
            // read load; timed unconditionally (chunks are large, the
            // two Instant reads vanish against the vectored I/O).
            let prefetch_ns = t0.elapsed().as_nanos() as u64;
            self.metrics.record_op(OpKind::RebuildRead, cache.wants.len() as u64, prefetch_ns);
            // A corrupt survivor must never be folded into the spare:
            // verify the whole prefetch before decoding. Mismatching
            // stripes are repaired in place (exclusive locks, after
            // the shared guards drop) and the chunk retried once.
            if self.integrity.verifying() {
                let mut bad: Vec<(usize, usize)> = Vec::new();
                let mut first_bad: Option<(usize, usize)> = None;
                for i in 0..n {
                    let offset = start + i;
                    let copy = offset / size;
                    let shift = (copy * size) as u32;
                    let r = w.layout.unit_ref(disk, offset % size);
                    let si = r.stripe as usize;
                    for u in w.layout.stripes()[si].units() {
                        if u.disk as usize == disk || st.failed.contains(u.disk as usize) {
                            continue;
                        }
                        let pd = st.redirect[u.disk as usize];
                        let off = (u.offset + shift) as usize;
                        let ok = match cache.wants.binary_search(&(pd as u32, u.offset + shift)) {
                            Ok(ix) => self.integrity.sums.check(pd, off, cache.unit(ix)),
                            Err(_) => true,
                        };
                        if !ok {
                            if bad.last() != Some(&(copy, si)) {
                                bad.push((copy, si));
                            }
                            first_bad.get_or_insert((pd, off));
                        }
                    }
                }
                if let Some((pd, off)) = first_bad {
                    if attempt == 1 {
                        return Err(StoreError::ChecksumMismatch { disk: pd, offset: off });
                    }
                    attempt = 1;
                    drop(guards);
                    for &(copy, si) in &bad {
                        let shard = self.locks.shard_of(copy, si);
                        let (_g, _) = self.locks.lock_one_counting(shard);
                        self.repair_stripe_locked(&st, copy, si)?;
                    }
                    continue;
                }
            }
            for (i, chunk) in out.chunks_exact_mut(self.unit_size).enumerate() {
                let offset = start + i;
                let shift = (offset / size * size) as u32;
                let r = w.layout.unit_ref(disk, offset % size);
                let si = r.stripe as usize;
                let solved =
                    self.decode_stripe_with(&st, si, shift, &[r.slot as usize], scratch, {
                        let cache = &*cache;
                        let redirect = &st.redirect;
                        move |_, u: StripeUnit, buf: &mut [u8]| {
                            cache.copy_to(redirect[u.disk as usize] as u32, u.offset, buf)
                        }
                    })?;
                chunk.copy_from_slice(solved.get(scratch, r.slot as usize)?);
            }
            self.write_unit(PhysUnit { disk: spare, offset: start, checked: false }, out)?;
            self.metrics.record_op(
                OpKind::SpareWrite,
                n as u64,
                (t0.elapsed().as_nanos() as u64).saturating_sub(prefetch_ns),
            );
            self.rb_tracker.add_done(n as u64);
            return Ok(());
        }
    }

    /// [`BlockStore::decode_stripe_with`] reading straight from the
    /// backend — the common, unbatched decode: each survivor is
    /// pulled through the dispatcher into the scratch's one transfer
    /// buffer (client priority — a degraded read is still a client
    /// op) and checksum-verified before it is folded in.
    fn decode_stripe(
        &self,
        st: &ArrayState,
        si: usize,
        shift: u32,
        extra_lost: &[usize],
        scratch: &mut Scratch,
    ) -> Result<Decoded, StoreError> {
        let io = self.io();
        let verify = self.integrity.verifying();
        self.decode_stripe_with(st, si, shift, extra_lost, scratch, |_, u, buf| {
            let (disk, first) = (st.redirect[u.disk as usize], u.offset as usize);
            let run = [Run { disk, first, parts: 0..1 }];
            io.read_into(&run, buf, Priority::Client, |_, _| {})?;
            if verify && !self.integrity.sums.check(disk, first, buf) {
                return Err(StoreError::ChecksumMismatch { disk, offset: first });
            }
            Ok(())
        })
    }

    /// Erasure-decodes one stripe (at copy offset `shift`) with
    /// [`codec::decode`]: every surviving member is read exactly once
    /// through `read(slot, unit, buf)` (the backend, a prefetched
    /// [`UnitCache`], or bytes already in memory). `extra_lost` forces
    /// extra slots into the lost set beyond the failed disks — a unit
    /// being rebuilt whose disk may not be in the failure set, or
    /// units whose checksums mismatched and are being repaired as
    /// erasures. The decoded values live in `scratch` until its next
    /// decode.
    pub(crate) fn decode_stripe_with<F>(
        &self,
        st: &ArrayState,
        si: usize,
        shift: u32,
        extra_lost: &[usize],
        scratch: &mut Scratch,
        mut read: F,
    ) -> Result<Decoded, StoreError>
    where
        F: FnMut(usize, StripeUnit, &mut [u8]) -> Result<(), StoreError>,
    {
        let units = st.world.layout.stripes()[si].units();
        let (p_slot, q_slot) = st.world.smap.parity_slots(si);
        // Collect the lost slots (ascending; at most tolerance + 1
        // with the forced extra, and anything past the redundancy is
        // an error anyway).
        let mut lost = [usize::MAX; 3];
        let mut nlost = 0usize;
        for (slot, u) in units.iter().enumerate() {
            if st.failed.contains(u.disk as usize) || extra_lost.contains(&slot) {
                if nlost < lost.len() {
                    lost[nlost] = slot;
                }
                nlost += 1;
            }
        }
        if nlost > self.scheme.parity_per_stripe() {
            // More erasures than parity units: unreconstructable. Name
            // a failed disk of the stripe for the error.
            return Err(StoreError::DiskFailed(units[lost[0]].disk as usize));
        }
        codec::decode(scratch, units.len(), p_slot, q_slot, &lost[..nlost], |slot, buf| {
            let u = units[slot];
            read(slot, StripeUnit { disk: u.disk, offset: u.offset + shift }, buf)
        })
    }

    /// The one envelope every client call runs in. It takes over the
    /// caller's state guard (so the op's kind is classified under the
    /// very snapshot the body then runs against), opens the
    /// [`OpTimer`], feeds the read/write mix estimator — under every
    /// cache policy, so a store switched *to* write-back starts with
    /// a warm verdict — emits `OpBegin` and runs `body`. The span
    /// closes (`finish` + `OpEnd`) only when the body succeeds; the
    /// guard is dropped and queued auto-fail decisions are applied on
    /// **every** exit, `Ok` or `Err`. `body` returns how many of the
    /// call's `blocks` a `Read` span served by stripe decode: those
    /// are accounted as `DegradedRead` units instead.
    #[inline]
    fn client_op(
        &self,
        st: RwLockReadGuard<'_, ArrayState>,
        kind: OpKind,
        addr: usize,
        blocks: usize,
        body: impl FnOnce(&ArrayState, &OpTimer) -> Result<u64, StoreError>,
    ) -> Result<(), StoreError> {
        let t = self.metrics.begin(kind, self.events.active());
        if t.mix_due {
            self.metrics.note_mix(matches!(kind, OpKind::Read | OpKind::DegradedRead));
        }
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
        let res = body(&st, &t).map(|decoded| {
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

    /// Reads logical block `addr` into `buf` (`unit_size` bytes),
    /// reconstructing from parity when the owning disk is failed.
    ///
    /// Healthy reads take no stripe lock (unit reads are atomic at
    /// the backend); degraded reads hold the stripe's shard lock
    /// shared, so concurrent decodes overlap but a concurrent writer
    /// to the stripe is excluded mid-update.
    pub fn read_block(&self, addr: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check_addr(addr)?;
        self.check_block_buf(buf.len())?;
        let st = self.state_read();
        let m = st.world.smap.locate_full(addr);
        let degraded = st.failed.contains(m.unit.disk as usize);
        let kind = if degraded { OpKind::DegradedRead } else { OpKind::Read };
        self.client_op(st, kind, addr, 1, |st, _| {
            // Dirty units exist only in the write-back cache until
            // their stripe flushes, so every read path probes it
            // first (one atomic load when the cache is clean). A miss
            // is safe to serve from the backend: a flush completes
            // its backend writes *before* removing the entry, so a
            // missing entry implies the bytes are already durable
            // below.
            if self.cache.maybe_dirty() {
                let (shard, key, j, _) = self.cache_coords(st, &m, addr);
                if self.cache.read_into(shard, key, j, buf) {
                    return Ok(0);
                }
            }
            let mut fetch = || {
                if degraded {
                    self.reconstruct_unit(st, m.unit.disk as usize, m.unit.offset as usize, buf)
                } else {
                    self.read_unit(PhysUnit::live(st, m.unit), buf)
                }
            };
            let shard = self.locks.shard_of(m.copy, m.stripe);
            let first = {
                let _g = degraded.then(|| self.locks.lock_one_shared(shard));
                fetch()
            };
            // Read-repair: a checksum mismatch — on this block's unit
            // (healthy path) or among the survivors its decode read
            // (degraded path) — is treated as an erasure. Either way
            // the corrupt unit sits in this block's stripe: take the
            // stripe exclusively, repair it from parity, and retry
            // once.
            if let Err(StoreError::ChecksumMismatch { .. }) = first {
                let (_g, _) = self.locks.lock_one_counting(shard);
                self.repair_stripe_locked(st, m.copy, m.stripe)?;
                fetch()?;
            } else {
                first?;
            }
            Ok(0)
        })
    }

    /// Writes logical block `addr` from `data` (`unit_size` bytes),
    /// maintaining every surviving parity unit of the stripe. A small
    /// write is the partial-stripe update of one unit: `1 + p` unit
    /// writes (`p` parities) and `min(1 + p, k_data − 1)` reads — the
    /// old unit and parities or, when fewer, the stripe's other data
    /// units (2 + 2 under XOR from k = 4, 1 + 3 under P+Q at k = 4,
    /// 3 + 3 under P+Q from k = 6) — in two dispatcher rounds, every
    /// read and then every write, each on its own disk; use
    /// [`BlockStore::write_blocks`] for the zero-read full-stripe path.
    ///
    /// Takes `&self`: the stripe's shard lock serializes the update
    /// against concurrent writers (and degraded readers) of the same
    /// stripe, while writes to other stripes proceed in parallel.
    ///
    /// Under [`CachePolicy::WriteBack`] the write performs **no
    /// backend I/O**: the bytes land in the stripe cache and the
    /// parity maintenance is deferred to the stripe's flush, which
    /// combines every cached write into one parity update (see
    /// [`crate::cache`]).
    pub fn write_block(&self, addr: usize, data: &[u8]) -> Result<(), StoreError> {
        self.check_addr(addr)?;
        self.check_block_buf(data.len())?;
        let st = self.state_read();
        let m = st.world.smap.locate_full(addr);
        let (shard, key, j, k_data) = self.cache_coords(&st, &m, addr);
        let kind =
            if degraded_stripe(&st, m.stripe) { OpKind::DegradedWrite } else { OpKind::Write };
        self.client_op(st, kind, addr, 1, |st, t| {
            // Read-mostly write-back bypass: when recent traffic is
            // read-dominated and the backend is memory-speed (no
            // call-coalescing win to combine for), deferring the
            // update buys nothing — the flush does the same backend
            // work later while every read pays the cache probe.
            let wb = self.cache.is_write_back();
            let bypass = wb && !self.backend.prefers_gap_bridging() && self.metrics.read_mostly();
            {
                let (_g, contended) = self.locks.lock_one_counting(shard);
                if contended {
                    self.metrics.note_lock_contention();
                    self.events.emit(|| Event::LockContention { shard: shard as u32 });
                }
                // Never bypasses past an existing entry: a direct
                // backend write below a dirty cached unit would let
                // reads serve the stale cached bytes. With zero dirty
                // stripes anywhere (one acquire load — reads use the
                // same gate) the per-stripe probe is skipped; a
                // concurrent insert for *this* stripe is excluded by
                // the shard lock held here.
                if !wb
                    || (bypass && !(self.cache.maybe_dirty() && self.cache.has_entry(shard, key)))
                {
                    if bypass {
                        self.metrics.note_bypass(t);
                    }
                    self.update_partial_stripe(st, m.copy, m.stripe, data, &[(j, 0)], false)?;
                } else {
                    self.cache.write(shard, key, k_data, j, data);
                }
                // The target world of an active reshape sees every
                // write, cached ones included — migration reads the
                // *backend* source bytes after flushing covered
                // stripes, while the dual write keeps already-migrated
                // target stripes fresh.
                self.dual_write_if_reshaping(st, addr, data)?;
            }
            if bypass {
                // The mix turned read-mostly while stripes dirtied
                // before the flip are still resident; they keep
                // `maybe_dirty` true, taxing every later op with
                // the probe above. Drain them now — one address-
                // sorted combined flush — so the steady state is
                // the clean fast path again. Estimator flapping
                // costs one drain per flip, work the eviction
                // trickle would have done anyway, batched.
                self.flush_cache_locked(st)?;
            } else if wb {
                // Eviction runs with the stripe lock released (one
                // victim shard at a time — see `evict_over_limit`).
                self.evict_over_limit(st)?;
            }
            Ok(0)
        })
    }

    /// Lands `data` in the reshape target world too, when a reshape is
    /// active — see [`crate::reshape`] for why every write dual-lands
    /// unconditionally during a reshape.
    fn dual_write_if_reshaping(
        &self,
        st: &ArrayState,
        addr: usize,
        data: &[u8],
    ) -> Result<(), StoreError> {
        match &st.reshape {
            Some(rs) => self.dual_write(rs, addr, data),
            None => Ok(()),
        }
    }

    /// Repairs the stripe owning logical block `addr` under its
    /// exclusive shard lock (taken here — the caller must hold none).
    fn repair_addr(&self, st: &ArrayState, addr: usize) -> Result<(), StoreError> {
        let m = st.world.smap.locate_full(addr);
        let shard = self.locks.shard_of(m.copy, m.stripe);
        let (_g, _) = self.locks.lock_one_counting(shard);
        self.repair_stripe_locked(st, m.copy, m.stripe)?;
        Ok(())
    }

    /// The healthy half of [`BlockStore::read_blocks`]: coalesces
    /// each per-disk bucket of `(offset, block index)` into runs,
    /// *bridging* the small parity-unit holes a data scan never wants
    /// (the hole is read into a discard buffer so the run stays one
    /// backend call), and reads them through the dispatcher — each
    /// run one scatter read straight into the caller's chunks — with
    /// checksum verification and one repair-and-reread on mismatch.
    fn read_healthy_runs(
        &self,
        st: &ArrayState,
        start: usize,
        by_disk: &mut [Vec<(u32, u32)>],
        unsorted: bool,
        chunks: &mut [Option<&mut [u8]>],
    ) -> Result<(), StoreError> {
        let us = self.unit_size;
        let bridge = if self.backend.prefers_gap_bridging() { READ_GAP_BRIDGE } else { 0 };
        // Run formation. `spans[i]` is the bucket range `runs[i]`
        // serves; a run owns one buffer per wanted unit plus one per
        // bridged hole.
        let mut runs: Vec<Run> = Vec::new();
        let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
        let (mut nbufs, mut hole_units) = (0usize, 0usize);
        for (disk, bucket) in by_disk.iter_mut().enumerate() {
            if unsorted {
                bucket.sort_unstable();
            }
            let mut s = 0;
            while s < bucket.len() {
                let (mut e, part) = (s + 1, nbufs);
                nbufs += 1;
                while e < bucket.len() {
                    let gap = (bucket[e].0 - bucket[e - 1].0 - 1) as usize;
                    if gap > bridge {
                        break;
                    }
                    hole_units += gap;
                    nbufs += 1 + usize::from(gap > 0);
                    e += 1;
                }
                runs.push(Run { disk, first: bucket[s].0 as usize, parts: part..nbufs });
                spans.push(s..e);
                s = e;
            }
        }
        // Destinations: the caller's chunks, with a slice of `holes`
        // wherever a run bridges a gap.
        let mut holes = vec![0u8; hole_units * us];
        let mut hole_rest = holes.as_mut_slice();
        let mut bufs: Vec<&mut [u8]> = Vec::with_capacity(nbufs);
        for (run, span) in runs.iter().zip(&spans) {
            let mut at = run.first as u32;
            for &(off, blk) in &by_disk[run.disk][span.clone()] {
                if off > at {
                    let (hole, rest) =
                        std::mem::take(&mut hole_rest).split_at_mut((off - at) as usize * us);
                    hole_rest = rest;
                    bufs.push(hole);
                }
                bufs.push(chunks[blk as usize].take().expect("block read once"));
                at = off + 1;
            }
        }
        // Each run is verified as it lands, in **one** checksum-table
        // pass over its wanted units (a hole's discard slice is
        // skipped, not checked); `bad` collects `(run, offset)`.
        let verify = self.integrity.verifying();
        let mut offs: Vec<usize> = Vec::new();
        let mut check = |i: usize, bufs: &[&mut [u8]], bad: &mut Vec<(usize, usize)>| {
            let run = &runs[i];
            let (mut part, mut at) = (run.parts.start, run.first as u32);
            let wanted = by_disk[run.disk][spans[i].clone()].iter().map(|&(off, _)| {
                part += 1 + usize::from(off > at);
                at = off + 1;
                (off as usize, &*bufs[part - 1])
            });
            if verify && !self.integrity.sums.check_many(run.disk, wanted, &mut offs) {
                bad.extend(offs.drain(..).map(|off| (i, off)));
            }
        };
        let io = self.io();
        let mut bad: Vec<(usize, usize)> = Vec::new();
        io.read_runs(&runs, &mut bufs, Priority::Client, |i, bufs| check(i, bufs, &mut bad))?;
        if bad.is_empty() {
            return Ok(());
        }
        // Latent corruption: repair the owning stripes in place
        // (exclusive lock — none held here), then read the affected
        // runs into the same buffers and verify them once more.
        for &(i, off) in &bad {
            let &(_, blk) = by_disk[runs[i].disk][spans[i].clone()]
                .iter()
                .find(|&&(o, _)| o as usize == off)
                .expect("bad offset belongs to this run");
            self.repair_addr(st, start + blk as usize)?;
        }
        bad.dedup_by_key(|b| b.0);
        let mut still: Vec<(usize, usize)> = Vec::new();
        for &(i, _) in &bad {
            let again = std::slice::from_ref(&runs[i]);
            io.read_runs(again, &mut bufs, Priority::Client, |_, bufs| check(i, bufs, &mut still))?;
        }
        match still.first() {
            // The repair could not restore the unit.
            Some(&(i, offset)) => Err(StoreError::ChecksumMismatch { disk: runs[i].disk, offset }),
            None => Ok(()),
        }
    }

    /// Reads `buf.len() / unit_size` consecutive logical blocks
    /// starting at `start` (buf length must be a block multiple).
    ///
    /// Blocks on healthy disks are gathered into per-disk contiguous
    /// runs and fetched with one vectored backend call per run — a
    /// sequential scan costs one call per touched disk, not one per
    /// block. Blocks on failed disks are erasure-decoded with **one**
    /// decode per degraded stripe, however many of its lost units the
    /// request covers.
    ///
    /// Each block is read atomically; the call as a whole is not one
    /// atomic snapshot — blocks may interleave with concurrent writes.
    pub fn read_blocks(&self, start: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        if buf.is_empty() {
            return Ok(());
        }
        if !buf.len().is_multiple_of(self.unit_size) {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: buf.len() });
        }
        let us = self.unit_size;
        let n = buf.len() / us;
        self.check_addr(start)?;
        self.check_addr(start + n - 1)?;
        if n == 1 {
            return self.read_block(start, buf);
        }
        // The batch records one `Read` span; blocks served by stripe
        // decode move their units to `DegradedRead` at the end.
        self.client_op(self.state_read(), OpKind::Read, start, n, |st, _| {
            self.read_blocks_locked(st, start, buf)
        })
    }

    /// The body of [`BlockStore::read_blocks`] under the state guard;
    /// returns how many blocks were served by stripe decode.
    fn read_blocks_locked(
        &self,
        st: &ArrayState,
        start: usize,
        buf: &mut [u8],
    ) -> Result<u64, StoreError> {
        let us = self.unit_size;
        // Disjoint per-block views of `buf`, consumed as the cache
        // probe, the coalesced runs, and the decodes claim them.
        let mut chunks: Vec<Option<&mut [u8]>> = buf.chunks_mut(us).map(Some).collect();

        // Partition the request into per-physical-disk buckets of
        // `(offset, block index)`; blocks dirty in the write-back
        // cache are served from memory here, and degraded blocks
        // queue for stripe decode. Sequential scans produce
        // already-sorted buckets (offsets grow with the address
        // within each disk), so the sort below is a no-op check in
        // the common case.
        let check_cache = self.cache.maybe_dirty();
        let any_failed = !st.failed.is_empty();
        let mut by_disk: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.backend.disks()];
        let mut unsorted = false;
        let mut degraded: Vec<(usize, usize)> = Vec::new();
        for (i, slot) in chunks.iter_mut().enumerate() {
            let addr = start + i;
            let m = st.world.smap.locate_full(addr);
            if check_cache {
                let (shard, key, j, _) = self.cache_coords(st, &m, addr);
                let chunk = slot.as_mut().expect("unclaimed block");
                if self.cache.read_into(shard, key, j, chunk) {
                    *slot = None;
                    continue;
                }
            }
            if any_failed && st.failed.contains(m.unit.disk as usize) {
                degraded.push((i, addr));
            } else {
                let bucket = &mut by_disk[st.redirect[m.unit.disk as usize]];
                if bucket.last().is_some_and(|&(last, _)| m.unit.offset < last) {
                    unsorted = true;
                }
                bucket.push((m.unit.offset, i as u32));
            }
        }

        self.read_healthy_runs(st, start, &mut by_disk, unsorted, &mut chunks)?;

        // Degraded blocks, grouped by (copy, stripe): consecutive lost
        // addresses of one stripe are adjacent in address order, so a
        // one-entry memo of the last decode suffices to decode each
        // degraded stripe exactly once. The degraded stripes' shards
        // are held shared for the whole decode loop (two-phase, sorted
        // — same discipline as the writers' exclusive acquisition).
        if !degraded.is_empty() {
            let mut shards: Vec<usize> = degraded
                .iter()
                .map(|&(_, addr)| {
                    self.locks.shard_of(st.world.smap.copy_of(addr), st.world.smap.stripe_of(addr))
                })
                .collect();
            sort_shard_set(&mut shards);
            let mut scratch = self.scratch.get();
            // Two attempts: a checksum mismatch on a survivor read
            // aborts the decode loop, the affected stripes are
            // repaired (exclusive locks, taken with the shared guards
            // released), and the loop reruns — blocks already served
            // are `None` in `chunks` and skip.
            let mut attempt = 0;
            let res: Result<(), StoreError> = loop {
                let res = {
                    let _guards = self.locks.lock_sorted_shared(&shards);
                    (|| {
                        let mut decoded_key: Option<(usize, usize)> = None;
                        let mut solved = Decoded::default();
                        for &(bi, addr) in &degraded {
                            if chunks[bi].is_none() {
                                continue;
                            }
                            let si = st.world.smap.stripe_of(addr);
                            let copy = st.world.smap.copy_of(addr);
                            if decoded_key != Some((copy, si)) {
                                let shift = (copy * st.world.layout.size()) as u32;
                                solved = self.decode_stripe(st, si, shift, &[], &mut scratch)?;
                                decoded_key = Some((copy, si));
                            }
                            let decoded = solved.get(&scratch, st.world.smap.slot_of(addr))?;
                            chunks[bi].take().expect("block decoded once").copy_from_slice(decoded);
                        }
                        Ok(())
                    })()
                };
                match res {
                    Err(StoreError::ChecksumMismatch { .. }) if attempt == 0 => {
                        attempt = 1;
                        let mut seen: Option<(usize, usize)> = None;
                        let rep = degraded.iter().try_for_each(|&(_, addr)| {
                            let key = (st.world.smap.copy_of(addr), st.world.smap.stripe_of(addr));
                            if seen.replace(key) == Some(key) {
                                return Ok(());
                            }
                            self.repair_addr(st, addr)
                        });
                        if let Err(e) = rep {
                            break Err(e);
                        }
                    }
                    r => break r,
                }
            };
            self.scratch.put(scratch);
            res?;
        }
        Ok(degraded.len() as u64)
    }

    /// Writes consecutive logical blocks starting at `start`,
    /// recognizing runs that cover a whole stripe's data units and
    /// writing those with freshly computed parity and **zero reads**
    /// (the paper's Condition-5 large-write optimization); a partially
    /// covered head or tail stripe takes one partial-stripe update
    /// (see [`BlockStore::write_block`] for its read/write count), the
    /// head's and the tail's reads issued together in one round.
    ///
    /// Units (data and parity, full stripes and partial ones alike)
    /// are not written one by one: they accumulate in a write plan
    /// that is sorted into per-disk contiguous runs and issued as one
    /// vectored backend call per run, so a sequential bulk write costs
    /// one call per touched disk, and an unaligned one a read round
    /// plus that write round.
    ///
    /// Takes `&self`: every stripe the batch touches is locked up
    /// front, in ascending shard order (two-phase ordered
    /// acquisition), so concurrent batches — even overlapping ones —
    /// cannot deadlock and each touched stripe's parity update is
    /// serialized.
    pub fn write_blocks(&self, start: usize, data: &[u8]) -> Result<(), StoreError> {
        if data.is_empty() {
            return Ok(());
        }
        if !data.len().is_multiple_of(self.unit_size) {
            return Err(StoreError::BadBufferSize { expected: self.unit_size, got: data.len() });
        }
        let n = data.len() / self.unit_size;
        self.check_addr(start)?;
        self.check_addr(start + n - 1)?;
        let st = self.state_read();
        if st.reshape.is_some() {
            // During a reshape every write must also land in the
            // target world; the batch planner's full-stripe fast path
            // has no per-block hook, so the batch degrades to the
            // single-block path (which dual-lands each block). The
            // pessimization lasts exactly as long as the migration.
            drop(st);
            for (i, block) in data.chunks(self.unit_size).enumerate() {
                self.write_block(start + i, block)?;
            }
            return Ok(());
        }
        // Batch-level kind: any failure in the array classes the whole
        // batch degraded (per-stripe classification would walk every
        // stripe's members before any byte moves).
        let kind = if st.failed.is_empty() { OpKind::Write } else { OpKind::DegradedWrite };
        self.client_op(st, kind, start, n, |st, _| {
            self.write_blocks_locked(st, start, data)?;
            Ok(0)
        })
    }

    /// The body of [`BlockStore::write_blocks`] under the state guard.
    fn write_blocks_locked(
        &self,
        st: &ArrayState,
        start: usize,
        data: &[u8],
    ) -> Result<(), StoreError> {
        let w = &*st.world;
        let per_copy = w.smap.data_units_per_copy();
        let us = self.unit_size;
        let n = data.len() / us;
        // Phase one of two-phase locking: the full shard set of every
        // stripe the batch will touch, ascending, before any byte
        // moves. Stripe data ranges are contiguous in address space,
        // so the walk costs one map lookup per *stripe*, not per
        // block.
        let mut shards: Vec<usize> = Vec::new();
        let mut a = start;
        while a < start + n {
            let m = w.smap.locate_full(a);
            shards.push(self.locks.shard_of(m.copy, m.stripe));
            let (lo, k_data) = w.smap.stripe_data_range(m.stripe);
            a = m.copy * per_copy + lo + k_data;
        }
        let stripe_count = shards.len();
        sort_shard_set(&mut shards);
        let wb = self.cache.is_write_back();
        {
            let _guards = self.locks.lock_sorted(&shards);
            // Loaded *after* the batch's shard locks are held: a
            // writer that dirtied one of our stripes released its
            // (same) shard lock before we acquired it, so its
            // dirty-count bump is visible here — and no concurrent
            // writer can dirty our stripes from now on. Hoisting this
            // above the locks would race a just-cached write and skip
            // the supersede bookkeeping below.
            let check_cache = self.cache.maybe_dirty();
            // Cache entries fully overwritten by this batch: their
            // bytes are superseded, but the entries must stay visible
            // to lock-free readers until the plan's backend writes
            // land (removing earlier would expose pre-write backend
            // bytes for still-dirty units). Collected here, removed
            // after each plan flush.
            let mut superseded: Vec<(usize, u64)> = Vec::new();
            // The deferred write plan: per-physical-disk buckets of
            // `(offset, source)` unit writes, where a source indexes
            // either the caller's data or the appended parity staging
            // below. Every stripe of the batch lands through it — the
            // full ones planned here, the partially covered head and
            // tail after their shared read round — and no unit belongs
            // to two of them. The shard walk above counted the batch's
            // stripes, so the plan can be sized exactly once up front.
            let parity_units = self.scheme.parity_per_stripe();
            let mut plan = WritePlan::with_capacity(
                self.backend.disks(),
                stripe_count,
                n + stripe_count * parity_units,
                parity_units * us,
            );
            // Call-bound backends (files, disks, networks) want the
            // plan as large as possible — every deferred unit widens
            // the per-disk gather runs. Memory-speed backends gain
            // nothing past a cache-resident window: flushing every
            // ~64 stripes keeps the source chunks L2-hot when the
            // gather re-reads them, instead of streaming the whole
            // span twice through last-level cache.
            let window = if self.backend.prefers_gap_bridging() { usize::MAX } else { 64 };
            let mut planned_stripes = 0usize;
            // The partially covered head and tail, updated together
            // once every full stripe is planned.
            let mut partials: Vec<PartialStripe> = Vec::new();
            let mut dirty: Vec<(usize, usize)> = Vec::new();
            let mut i = 0usize;
            while i < n {
                let addr = start + i;
                let m = w.smap.locate_full(addr);
                let (lo, k_data) = w.smap.stripe_data_range(m.stripe);
                // A stripe's data addresses are one contiguous run
                // within the copy, so full coverage is a head-aligned
                // run of k_data blocks.
                let covers_stripe = addr - m.copy * per_copy == lo && n - i >= k_data;
                if covers_stripe {
                    if check_cache {
                        superseded.push((
                            self.locks.shard_of(m.copy, m.stripe),
                            stripe_key(m.copy, m.stripe),
                        ));
                    }
                    let stripe_data = &data[i * us..(i + k_data) * us];
                    self.plan_stripe(w, addr, stripe_data, i, &mut plan, |u| {
                        self.place(st, u, m.copy, m.stripe)
                    });
                    i += k_data;
                    planned_stripes += 1;
                    if planned_stripes >= window {
                        self.flush_write_plan(&mut plan, data)?;
                        plan.reset();
                        planned_stripes = 0;
                        for &(shard, key) in &superseded {
                            self.cache.remove_flushed(shard, key);
                        }
                        superseded.clear();
                    }
                } else {
                    // A partially covered head or tail: its covered
                    // units are one run of the stripe's data slots.
                    let (shard, key, j0, _) = self.cache_coords(st, &m, addr);
                    let m_units = (k_data - j0).min(n - i);
                    if wb {
                        // Under write-back the update is deferred into
                        // the stripe cache (zero backend I/O here).
                        let units = data[i * us..(i + m_units) * us].chunks_exact(us);
                        for (j, unit) in (j0..).zip(units) {
                            self.cache.write(shard, key, k_data, j, unit);
                        }
                    } else {
                        let units = dirty.len()..dirty.len() + m_units;
                        dirty.extend((j0..j0 + m_units).zip(i..));
                        partials.push(PartialStripe {
                            copy: m.copy,
                            si: m.stripe,
                            units,
                            requeued: false,
                        });
                    }
                    i += m_units;
                }
            }
            self.update_partial_stripes(st, &partials, &dirty, data, &mut plan)?;
            self.flush_write_plan(&mut plan, data)?;
            for &(shard, key) in &superseded {
                self.cache.remove_flushed(shard, key);
            }
        }
        // Eviction after the batch's shard locks are released (one
        // victim shard at a time — see `evict_over_limit`).
        if wb {
            self.evict_over_limit(st)?;
        }
        Ok(())
    }

    /// The one stripe planner. Plans a fully covered stripe of
    /// `world` — logical addresses `start .. start + k_data` (verified
    /// by the caller), whose new bytes are `stripe_data` — into the
    /// deferred plan: parity computed fresh, no reads, one unit write
    /// for every unit `place` resolves (it is handed each unit with
    /// its copy's row shift applied). `base` is the block index of
    /// `stripe_data` within the buffer the plan is flushed against.
    /// Returns the unit writes planned.
    pub(crate) fn plan_stripe(
        &self,
        world: &World,
        start: usize,
        stripe_data: &[u8],
        base: usize,
        plan: &mut WritePlan,
        mut place: impl FnMut(StripeUnit) -> Option<PhysUnit>,
    ) -> usize {
        let us = self.unit_size;
        let head = world.smap.locate_full(start);
        let (copy, si) = (head.copy, head.stripe);
        let (p_slot, q_slot) = world.smap.parity_slots(si);
        // Parity accumulates directly in the plan's staging area — no
        // scratch round trip, no copy. Destructured so the parity
        // borrow and the bucket pushes coexist. P is *copy*-initialized
        // from the first data unit (then folds the rest), which saves a
        // zero-fill plus one accumulation pass per stripe; Q has no
        // such shortcut (its first term is already coefficient-scaled).
        let WritePlan { by_disk, parity, unsorted } = plan;
        let p_idx = parity.len() / us;
        parity.extend_from_slice(&stripe_data[..us]);
        if q_slot.is_some() {
            parity.resize((p_idx + 2) * us, 0);
        }
        let (acc_p, acc_q) = parity[p_idx * us..].split_at_mut(us);
        let mut planned = 0usize;
        let mut push = |u: StripeUnit, src: WriteSrc| {
            let Some(at) = place(u) else { return };
            let (bucket, offset) = (&mut by_disk[at.disk], at.offset as u32);
            if bucket.last().is_some_and(|&(last, _)| offset < last) {
                *unsorted = true;
            }
            bucket.push((offset, src));
            planned += 1;
        };
        for (j, chunk) in stripe_data.chunks_exact(us).enumerate() {
            let m = world.smap.locate_full(start + j);
            debug_assert_eq!(m.stripe, si);
            let (p, q) = ((j > 0).then_some(&mut *acc_p), q_slot.is_some().then_some(&mut *acc_q));
            Syndromes { p, q }.fold(Role::Data(m.slot), chunk);
            push(m.unit, WriteSrc::data(base + j));
        }
        push(world.unit(copy, si, p_slot), WriteSrc::parity(p_idx));
        if let Some(qs) = q_slot {
            push(world.unit(copy, si, qs), WriteSrc::parity(p_idx + 1));
        }
        planned
    }

    /// Walks the deferred unit writes disk by disk, coalescing
    /// contiguous offsets into one gather run each, and writes all of
    /// them through the dispatcher straight from the source slices.
    /// Write runs never bridge holes: writing a unit nobody asked for
    /// would corrupt it. Checksums are recorded for exactly the runs
    /// that landed, also when another run's failure fails the call.
    pub(crate) fn flush_write_plan(
        &self,
        plan: &mut WritePlan,
        data: &[u8],
    ) -> Result<(), StoreError> {
        let us = self.unit_size;
        let WritePlan { by_disk, parity, unsorted } = plan;
        let parity: &[u8] = parity;
        let mut srcs: Vec<&[u8]> = Vec::with_capacity(by_disk.iter().map(Vec::len).sum());
        let mut runs: Vec<Run> = Vec::new();
        for (disk, bucket) in by_disk.iter_mut().enumerate() {
            if *unsorted {
                bucket.sort_unstable_by_key(|&(offset, _)| offset);
            }
            let mut i = 0;
            while i < bucket.len() {
                let offset = bucket[i].0;
                let mut j = i + 1;
                while j < bucket.len() && bucket[j].0 == offset + (j - i) as u32 {
                    j += 1;
                }
                let part = srcs.len();
                srcs.extend(bucket[i..j].iter().map(|e| e.1.bytes(parity, data, us)));
                runs.push(Run { disk, first: offset as usize, parts: part..srcs.len() });
                i = j;
            }
        }
        self.write_recorded(&runs, &srcs)
    }

    /// Replays a [`Trace`] (block-granular ops plus fail/restore/
    /// rebuild fault events) against the store. Write payloads are a
    /// deterministic function of `(addr, op index)`, so two replays
    /// produce identical on-disk content.
    pub fn replay(&self, trace: &Trace) -> Result<ReplayStats, StoreError> {
        let mut stats = ReplayStats::default();
        let mut buf = vec![0u8; self.unit_size];
        for (i, op) in trace.ops.iter().enumerate() {
            match *op {
                TraceOp::Read { addr, len } => {
                    buf.resize(len * self.unit_size, 0);
                    self.read_blocks(addr, &mut buf)?;
                    stats.reads += 1;
                    stats.blocks_read += len;
                }
                TraceOp::Write { addr, len } => {
                    let mut data = vec![0u8; len * self.unit_size];
                    for (j, chunk) in data.chunks_exact_mut(self.unit_size).enumerate() {
                        fill_pattern(addr + j, i as u64, chunk);
                    }
                    self.write_blocks(addr, &data)?;
                    stats.writes += 1;
                    stats.blocks_written += len;
                }
                TraceOp::Fail { disk } => {
                    self.fail_disk(disk)?;
                    stats.disks_failed += 1;
                }
                TraceOp::Restore { disk } => {
                    self.restore_disk(disk)?;
                    stats.disks_restored += 1;
                }
                TraceOp::Rebuild { spare } => {
                    crate::Rebuilder::default().rebuild(self, spare)?;
                    stats.rebuilds += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Scans every stripe and verifies its parity invariants — the P
    /// unit equals the XOR of the data units, and under P+Q the Q unit
    /// equals the `GF(2^8)` weighted sum. Failed disks make
    /// verification impossible; call on a healthy array. Each stripe
    /// is scanned under its shard lock, so the scan may run against
    /// live traffic — every stripe is checked at some consistent
    /// point, not all at the same one.
    pub fn verify_parity(&self) -> Result<(), StoreError> {
        let st = self.state_read();
        if let Some(f) = st.failed.first() {
            return Err(StoreError::DiskFailed(f));
        }
        // Drain the write-back cache first so the scan covers the
        // current contents, not the pre-cache snapshot. (The backend
        // satisfies the invariants either way — deferred writes touch
        // no backend byte until their combined flush — but verifying
        // flushed bytes is the stronger statement.)
        self.flush_cache_locked(&st)?;
        let w = &*st.world;
        let size = w.layout.size();
        let is_pq = self.scheme == ParityScheme::PQ;
        let Scratch { mut acc_p, mut acc_q, mut tmp } = Scratch::new(self.unit_size);
        for copy in 0..w.copies {
            let shift = (copy * size) as u32;
            for (si, stripe) in w.layout.stripes().iter().enumerate() {
                let _g = self.locks.lock_one_shared(self.locks.shard_of(copy, si));
                let (p_slot, q_slot) = w.smap.parity_slots(si);
                let mut syn = Syndromes::zeroed(&mut acc_p, is_pq.then_some(&mut acc_q));
                for (slot, u) in stripe.units().iter().enumerate() {
                    let u = StripeUnit { disk: u.disk, offset: u.offset + shift };
                    // Raw read: this scan checks the parity equations
                    // themselves, so a corrupt unit should surface as
                    // the named `ParityMismatch`, not a checksum error
                    // (scrub is the checksum-aware repair pass).
                    self.read_unit(
                        PhysUnit { checked: false, ..PhysUnit::live(&st, u) },
                        &mut tmp,
                    )?;
                    syn.fold(Role::of(slot, p_slot, q_slot), &tmp);
                }
                if !codec::is_zero(&acc_p) {
                    return Err(StoreError::ParityMismatch { stripe: si, copy, parity: "P (XOR)" });
                }
                if is_pq && !codec::is_zero(&acc_q) {
                    return Err(StoreError::ParityMismatch {
                        stripe: si,
                        copy,
                        parity: "Q (GF(2^8))",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Deterministic block payload used by [`BlockStore::replay`].
pub fn fill_pattern(addr: usize, salt: u64, buf: &mut [u8]) {
    let mut x =
        (addr as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ salt.wrapping_mul(0xd1b54a32d192ed03);
    for chunk in buf.chunks_mut(8) {
        x ^= x >> 32;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 29;
        let b = x.to_le_bytes();
        chunk.copy_from_slice(&b[..chunk.len()]);
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
