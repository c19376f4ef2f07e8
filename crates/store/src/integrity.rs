//! End-to-end data integrity: per-unit checksums, transient-fault
//! retry policy, and per-disk health accounting.
//!
//! Real disks do not fail bimodally. The dominant failure modes are
//! *latent*: a sector silently decays, a write tears, a controller
//! returns a transient `EIO` that would have succeeded a millisecond
//! later. Parity declustering's value — the paper's `(k−1)/(v−1)`
//! rebuild-load claim — depends on catching those errors **before** a
//! second failure makes them unrecoverable, so this module gives the
//! store the substrate the scrubber and the read paths build on:
//!
//! * [`xxh64`] — XXH64 (written in `pdl-algebra`, like `gf256`, rather
//!   than pulled in as a dependency), hashing a 512-byte unit in tens
//!   of nanoseconds;
//! * a checksum table — one 64-bit checksum per *physical* unit,
//!   updated on every backend write the store issues and verified on
//!   the consume-as-is read paths. Unwritten units carry an "unset"
//!   sentinel and are skipped, so a freshly created (zero-filled)
//!   store pays nothing until first write. The table has one batched
//!   pair, `ChecksumTable::verify` and `ChecksumTable::record`:
//!   each takes `(disk, offset, bytes)` units across disks under one
//!   table lock and hashes them eight at a time through
//!   `pdl_algebra::xxh64::xxh64_batch` — on an AVX-512 host eight (or
//!   four) equal-length units step together, each to the sum scalar
//!   [`xxh64`] gives it. A one-unit call is a batch of one and takes the
//!   scalar hash. Every multi-unit transfer hands its units over as one
//!   batch: a client batch read verifies each group of eight as its
//!   runs land, a write round records its landed runs together, and a
//!   decode checks a stripe's survivors (a rebuild, two stripes') before
//!   folding them;
//! * [`RetryPolicy`] — bounded retry with linear backoff for
//!   transient backend errors (`ErrorKind::Interrupted`);
//! * a health monitor — per-disk error/repair/retry counters feeding
//!   a configurable auto-fail threshold. Crossing it queues the disk
//!   for [`crate::BlockStore::fail_disk`] at the next op epilogue
//!   (deferred: the counters are bumped under read guards that the
//!   failure transition itself needs exclusively).
//!
//! [`Integrity`] bundles them; every store owns one, and the async
//! [`crate::Engine`] is started with it.
//!
//! Checksums are authoritative in memory; file-backed stores persist
//! the table as a sidecar ([`crate::SUMS_FILE`]) on flush and scrub checkpoints. A
//! crash can therefore leave sums *stale* relative to data that made
//! it to disk — the read path treats any mismatch as an erasure and
//! repairs through parity, which rewrites bytes identical to what is
//! on disk and corrects the stale sum, so stale-sum windows self-heal.

use crate::error::StoreError;
use pdl_algebra::xxh64::xxh64_batch;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// The unit checksum: XXH64, implemented (with its batch kernels) in
/// `pdl-algebra`.
pub use pdl_algebra::xxh64::xxh64;

/// Hashes `units`, each tagged, in groups of [`ChecksumTable::GROUP`]
/// through the batch kernel, and hands every tag its unit's encoded
/// sum, in order. A fixed group on the stack: no allocation however
/// many units pass.
fn hash_grouped<'a, T: Copy + Default>(
    units: impl IntoIterator<Item = (T, &'a [u8])>,
    mut each: impl FnMut(T, u64),
) {
    let units = units.into_iter();
    if units.size_hint().1.is_some_and(|n| n < 4) {
        // Too few for the smallest vector group (a one-unit check):
        // the scalar hash, without filling a group first.
        for (tag, unit) in units {
            each(tag, ChecksumTable::encode(xxh64(ChecksumTable::SEED, unit)));
        }
        return;
    }
    const N: usize = ChecksumTable::GROUP;
    let mut tags = [T::default(); N];
    let mut bytes: [&[u8]; N] = [&[]; N];
    let mut sums = [0u64; N];
    let mut flush = |n: usize, tags: &[T], bytes: &[&[u8]]| {
        xxh64_batch(ChecksumTable::SEED, &bytes[..n], &mut sums[..n]);
        for (&tag, &sum) in tags[..n].iter().zip(&sums[..n]) {
            each(tag, ChecksumTable::encode(sum));
        }
    };
    let mut n = 0;
    for (tag, unit) in units {
        (tags[n], bytes[n]) = (tag, unit);
        n += 1;
        if n == N {
            flush(n, &tags, &bytes);
            n = 0;
        }
    }
    if n > 0 {
        flush(n, &tags, &bytes);
    }
}

/// One 64-bit checksum per physical unit, per disk.
///
/// Lookups and updates are relaxed atomics under a table-wide read
/// lock, taken once per batch (an uncontended atomic on the hot
/// path); the write lock is
/// taken only by geometry changes (reshape grow/trim, wipe), which
/// already run under the store's exclusive state guard with no I/O in
/// flight. Entries hold [`ChecksumTable::UNSET`] until first written;
/// a computed hash that collides with the sentinel is stored as `1`
/// ([`ChecksumTable::encode`]), so "never written" and "written" are
/// always distinguishable.
///
/// Each column also carries a *dirty bitmap* (one bit per unit, set
/// by every [`ChecksumTable::record`]) so the array directory's
/// durability barrier can append only changed entries to an
/// incremental sidecar log ([`ChecksumTable::drain_dirty`]) instead of
/// rewriting the whole table on every flush.
#[derive(Debug)]
pub(crate) struct ChecksumTable {
    disks: RwLock<Vec<Column>>,
}

/// One disk's checksums plus the dirty bitmap tracking which entries
/// changed since the last persist.
#[derive(Debug)]
struct Column {
    sums: Box<[AtomicU64]>,
    /// `(units + 63) / 64` words; bit `offset % 64` of word
    /// `offset / 64` is set when that unit's sum changed.
    dirty: Box<[AtomicU64]>,
}

impl Column {
    fn new(units: usize) -> Self {
        let zeroed = |n: usize, v: u64| (0..n).map(|_| AtomicU64::new(v)).collect::<Box<[_]>>();
        Column { sums: zeroed(units, ChecksumTable::UNSET), dirty: zeroed(units.div_ceil(64), 0) }
    }

    #[inline]
    fn mark_dirty(&self, offset: usize) {
        if let Some(w) = self.dirty.get(offset / 64) {
            w.fetch_or(1u64 << (offset % 64), Ordering::Relaxed);
        }
    }
}

impl ChecksumTable {
    /// The "no checksum recorded" sentinel: verification is skipped.
    pub(crate) const UNSET: u64 = 0;

    /// Units one [`ChecksumTable::verify`] or [`ChecksumTable::record`]
    /// hashes together: the widest group of the batch kernel.
    pub(crate) const GROUP: usize = 8;

    /// Seed for every unit hash (arbitrary, fixed for persistence).
    pub(crate) const SEED: u64 = 0x70646c5f73756d73; // "pdl_sums"

    /// A table of `disks × units` unset entries.
    pub(crate) fn new(disks: usize, units: usize) -> Self {
        ChecksumTable { disks: RwLock::new((0..disks).map(|_| Column::new(units)).collect()) }
    }

    /// The table's geometry as `(disks, units_per_disk)`.
    pub(crate) fn geometry(&self) -> (usize, usize) {
        let t = self.disks.read().unwrap();
        (t.len(), t.first().map(|d| d.sums.len()).unwrap_or(0))
    }

    /// Maps a computed hash into the stored encoding (never the
    /// sentinel).
    #[inline]
    pub(crate) fn encode(h: u64) -> u64 {
        if h == Self::UNSET {
            1
        } else {
            h
        }
    }

    /// Records the checksum of each `(disk, offset, bytes)` unit as
    /// that unit's current content, under one table-lock acquisition,
    /// hashing up to eight units at once. Offsets past the table (a
    /// backend grown without a matching
    /// [`ChecksumTable::resize_units`]) are ignored defensively.
    pub(crate) fn record<'a>(&self, units: impl IntoIterator<Item = (usize, usize, &'a [u8])>) {
        let t = self.disks.read().unwrap();
        let known = units
            .into_iter()
            .filter(|&(disk, offset, _)| t.get(disk).is_some_and(|d| offset < d.sums.len()));
        hash_grouped(
            known.map(|(disk, offset, unit)| ((disk, offset), unit)),
            |(disk, offset), sum| {
                t[disk].sums[offset].store(sum, Ordering::Relaxed);
                t[disk].mark_dirty(offset);
            },
        );
    }

    /// Verifies each `(disk, offset, bytes)` unit against its recorded
    /// checksum, under one table-lock acquisition, hashing up to eight
    /// units at once. A unit with no recorded checksum (or past the
    /// table) passes unhashed; `mismatch(i)` is called, in order, for
    /// the position `i` in `units` of each one that fails. Returns
    /// whether every unit passed.
    pub(crate) fn verify<'a>(
        &self,
        units: impl IntoIterator<Item = (usize, usize, &'a [u8])>,
        mut mismatch: impl FnMut(usize),
    ) -> bool {
        let t = self.disks.read().unwrap();
        let recorded = units.into_iter().enumerate().filter_map(|(i, (disk, offset, unit))| {
            let stored = t.get(disk)?.sums.get(offset)?.load(Ordering::Relaxed);
            (stored != Self::UNSET).then_some(((i, stored), unit))
        });
        let mut clean = true;
        hash_grouped(recorded, |(i, stored), sum| {
            if sum != stored {
                clean = false;
                mismatch(i);
            }
        });
        clean
    }

    /// Whether unit `(disk, offset)` has a recorded checksum. A unit
    /// past the table has none: [`ChecksumTable::record`] drops it.
    pub(crate) fn recorded(&self, disk: usize, offset: usize) -> bool {
        let t = self.disks.read().unwrap();
        t.get(disk)
            .and_then(|d| d.sums.get(offset))
            .is_some_and(|s| s.load(Ordering::Relaxed) != Self::UNSET)
    }

    /// Stores a raw (already encoded) sum without touching the dirty
    /// bitmap — the sidecar-log replay path, which must not re-dirty
    /// entries it just read back from disk.
    pub(crate) fn set_raw(&self, disk: usize, offset: usize, sum: u64) {
        let t = self.disks.read().unwrap();
        if let Some(slot) = t.get(disk).and_then(|d| d.sums.get(offset)) {
            slot.store(sum, Ordering::Relaxed);
        }
    }

    /// Drains the dirty bitmap, invoking `f(disk, offset, sum)` for
    /// every entry recorded since the last drain. Each bitmap word is
    /// atomically swapped to zero before its bits are walked, so a
    /// concurrent `record` is either captured by this drain or left
    /// dirty for the next one — never lost. (A sum racing the drain
    /// may be captured at its newer value and persisted again next
    /// drain; the sidecar is best-effort and self-healing, so
    /// over-persisting is harmless.)
    pub(crate) fn drain_dirty(&self, mut f: impl FnMut(usize, usize, u64)) {
        let t = self.disks.read().unwrap();
        for (disk, col) in t.iter().enumerate() {
            for (wi, word) in col.dirty.iter().enumerate() {
                let mut bits = word.swap(0, Ordering::AcqRel);
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let offset = wi * 64 + bit;
                    if let Some(slot) = col.sums.get(offset) {
                        f(disk, offset, slot.load(Ordering::Relaxed));
                    }
                }
            }
        }
    }

    /// Forgets every checksum on `disk` (its medium was wiped or
    /// replaced underneath the store).
    pub(crate) fn clear_disk(&self, disk: usize) {
        let t = self.disks.read().unwrap();
        if let Some(d) = t.get(disk) {
            for (offset, slot) in d.sums.iter().enumerate() {
                slot.store(Self::UNSET, Ordering::Relaxed);
                d.mark_dirty(offset);
            }
        }
    }

    /// Resizes every disk's column to `units` entries, preserving the
    /// common prefix (reshape grow/trim). Callers hold the store's
    /// exclusive state guard, so no data-path lookups race the swap.
    pub(crate) fn resize_units(&self, units: usize) {
        let mut t = self.disks.write().unwrap();
        for d in t.iter_mut() {
            let next = Column::new(units);
            for i in 0..units {
                let v = d.sums.get(i).map(|s| s.load(Ordering::Relaxed)).unwrap_or(Self::UNSET);
                next.sums[i].store(v, Ordering::Relaxed);
                next.mark_dirty(i);
            }
            *d = next;
        }
    }

    /// Serializes the table for the sidecar file: a fixed header
    /// (magic, geometry) followed by raw little-endian entries.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let t = self.disks.read().unwrap();
        let disks = t.len();
        let units = t.first().map(|d| d.sums.len()).unwrap_or(0);
        let mut out = Vec::with_capacity(24 + disks * units * 8);
        out.extend_from_slice(b"PDLSUM1\0");
        out.extend_from_slice(&(disks as u64).to_le_bytes());
        out.extend_from_slice(&(units as u64).to_le_bytes());
        for d in t.iter() {
            for slot in d.sums.iter() {
                out.extend_from_slice(&slot.load(Ordering::Relaxed).to_le_bytes());
            }
        }
        out
    }

    /// Loads a sidecar produced by [`ChecksumTable::to_bytes`] into
    /// this table. Returns `false` (leaving the table unset — every
    /// verification skipped until rewritten or adopted by a scrub)
    /// when the bytes are malformed or the geometry disagrees, so a
    /// stale sidecar can never fail an open.
    pub(crate) fn load_bytes(&self, bytes: &[u8]) -> bool {
        let t = self.disks.read().unwrap();
        let disks = t.len();
        let units = t.first().map(|d| d.sums.len()).unwrap_or(0);
        if bytes.len() != 24 + disks * units * 8 || &bytes[..8] != b"PDLSUM1\0" {
            return false;
        }
        let rd = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        if rd(8) != disks as u64 || rd(16) != units as u64 {
            return false;
        }
        let mut at = 24;
        for d in t.iter() {
            for slot in d.sums.iter() {
                slot.store(rd(at), Ordering::Relaxed);
                at += 8;
            }
        }
        true
    }
}

/// Bounded-retry policy for transient backend errors, applied by the
/// store around every backend call it issues. Attempt `i` (1-based)
/// sleeps `backoff_us × i` microseconds before retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (`0` disables retrying).
    pub max_retries: u32,
    /// Linear backoff step in microseconds.
    pub backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_us: 50 }
    }
}

/// Whether `e` is a transient backend error worth retrying: the
/// kinds a real device driver surfaces for recoverable hiccups
/// (interrupted call, momentary unavailability, timeout).
pub(crate) fn is_transient(e: &StoreError) -> bool {
    use std::io::ErrorKind;
    match e {
        StoreError::Io(io) => matches!(
            io.kind(),
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
        ),
        _ => false,
    }
}

/// Per-disk health accounting and the auto-fail policy.
///
/// Counters are bumped from data paths holding shared guards; the
/// failure transition needs the exclusive guard, so a threshold
/// crossing only *queues* the physical disk here — the store applies
/// the queue at op epilogues ([`crate::BlockStore`] calls
/// `apply_pending_health` after its guards drop).
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    /// Hard (post-retry) backend errors per physical disk.
    errors: Vec<AtomicU64>,
    /// Checksum repairs whose corrupt unit lived on this disk.
    repairs: Vec<AtomicU64>,
    /// Transient errors absorbed by retry, per physical disk.
    retries: Vec<AtomicU64>,
    /// `errors + repairs` count at which a disk auto-fails
    /// (`0` disables the policy — the default).
    threshold: AtomicU64,
    /// Decaying recent-error count per physical disk: bumped with
    /// `errors`/`repairs`, halved every elapsed [`rate_window_ms`]
    /// (`rate_window_ms`: field below), so a burst spikes it while
    /// the same errors spread over many windows stay near zero.
    recent: Vec<AtomicU64>,
    /// Recent-count at which a disk auto-fails (`0` disables the
    /// rate policy — the default).
    rate_threshold: AtomicU64,
    /// Half-life of the `recent` counters in milliseconds.
    rate_window_ms: AtomicU64,
    /// When the `recent` counters were last decayed.
    last_decay: Mutex<Instant>,
    /// Physical disks queued for auto-fail.
    pending: Mutex<Vec<usize>>,
    /// `pending.len()`, stored under the queue's lock — what the op
    /// epilogue's [`HealthMonitor::has_pending`] reads instead of
    /// taking it.
    pending_len: AtomicUsize,
    /// Disks the policy has auto-failed (sticky, for stats).
    auto_failed: Mutex<Vec<usize>>,
}

impl HealthMonitor {
    /// A monitor for `disks` physical disks, auto-fail disabled.
    pub(crate) fn new(disks: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        HealthMonitor {
            errors: zeros(disks),
            repairs: zeros(disks),
            retries: zeros(disks),
            threshold: AtomicU64::new(0),
            recent: zeros(disks),
            rate_threshold: AtomicU64::new(0),
            rate_window_ms: AtomicU64::new(1000),
            last_decay: Mutex::new(Instant::now()),
            pending: Mutex::new(Vec::new()),
            pending_len: AtomicUsize::new(0),
            auto_failed: Mutex::new(Vec::new()),
        }
    }

    /// Sets the auto-fail threshold (`0` disables).
    pub(crate) fn set_threshold(&self, n: u64) {
        self.threshold.store(n, Ordering::Relaxed);
    }

    /// Sets the rate-based auto-fail policy: a disk whose decaying
    /// recent-error count reaches `threshold` is queued for auto-fail
    /// even if its cumulative score is under the cumulative
    /// threshold. The count halves every `window_ms` milliseconds, so
    /// `threshold` errors inside roughly one window trip the policy
    /// while the same errors spread across many windows do not.
    /// `threshold == 0` disables (the default); `window_ms` is
    /// clamped to at least 1.
    pub(crate) fn set_rate_policy(&self, threshold: u64, window_ms: u64) {
        self.rate_window_ms.store(window_ms.max(1), Ordering::Relaxed);
        self.rate_threshold.store(threshold, Ordering::Relaxed);
    }

    /// Halves every `recent` counter once per elapsed window since
    /// the last decay (a whole-array pass under the decay mutex; only
    /// error paths get here, so it is never hot).
    fn decay_recent(&self) {
        let window = self.rate_window_ms.load(Ordering::Relaxed).max(1);
        let mut last = Self::locked(&self.last_decay);
        let elapsed_ms = last.elapsed().as_millis() as u64;
        let periods = elapsed_ms / window;
        if periods == 0 {
            return;
        }
        *last += std::time::Duration::from_millis(periods * window);
        let shift = periods.min(63) as u32;
        for c in &self.recent {
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                c.store(v >> shift, Ordering::Relaxed);
            }
        }
    }

    /// Bumps `disk`'s decaying recent-error count and queues the disk
    /// when the rate policy's threshold is reached.
    fn note_recent(&self, disk: usize) {
        let th = self.rate_threshold.load(Ordering::Relaxed);
        if th == 0 || disk >= self.recent.len() {
            return;
        }
        self.decay_recent();
        if self.recent[disk].fetch_add(1, Ordering::Relaxed) + 1 >= th {
            self.requeue(disk);
        }
    }

    fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn maybe_queue(&self, disk: usize) {
        let th = self.threshold.load(Ordering::Relaxed);
        if th == 0 || disk >= self.errors.len() {
            return;
        }
        let score =
            self.errors[disk].load(Ordering::Relaxed) + self.repairs[disk].load(Ordering::Relaxed);
        if score >= th {
            self.requeue(disk);
        }
    }

    /// The auto-fail score of `disk`: hard errors plus checksum
    /// repairs.
    pub(crate) fn score(&self, disk: usize) -> u64 {
        match (self.errors.get(disk), self.repairs.get(disk)) {
            (Some(e), Some(r)) => e.load(Ordering::Relaxed) + r.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Counts one hard (post-retry) error on `disk`.
    pub(crate) fn note_error(&self, disk: usize) {
        if let Some(c) = self.errors.get(disk) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.note_recent(disk);
        self.maybe_queue(disk);
    }

    /// Counts one checksum repair whose corrupt unit lived on `disk`.
    pub(crate) fn note_repair(&self, disk: usize) {
        if let Some(c) = self.repairs.get(disk) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.note_recent(disk);
        self.maybe_queue(disk);
    }

    /// Counts one transient error absorbed by retry on `disk`.
    pub(crate) fn note_retry(&self, disk: usize) {
        if let Some(c) = self.retries.get(disk) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains the auto-fail queue (the store applies it).
    pub(crate) fn take_pending(&self) -> Vec<usize> {
        let mut p = Self::locked(&self.pending);
        self.pending_len.store(0, Ordering::Relaxed);
        std::mem::take(&mut *p)
    }

    /// Queues a disk for auto-fail (once) — a threshold crossing, or
    /// an auto-fail that could not be applied yet (reshape active,
    /// failure budget exhausted).
    pub(crate) fn requeue(&self, disk: usize) {
        let mut p = Self::locked(&self.pending);
        if !p.contains(&disk) {
            p.push(disk);
            self.pending_len.store(p.len(), Ordering::Relaxed);
        }
    }

    /// Whether any disk is queued for auto-fail: one relaxed load, so
    /// the epilogue of every client call stays lock-free. The length
    /// publishes no other data — a caller that sees it nonzero takes
    /// the queue's lock to drain, and one that misses a racing push
    /// leaves it to the next epilogue.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending_len.load(Ordering::Relaxed) != 0
    }

    /// Records that the policy auto-failed `disk`.
    pub(crate) fn note_auto_failed(&self, disk: usize) {
        let mut a = Self::locked(&self.auto_failed);
        if !a.contains(&disk) {
            a.push(disk);
        }
    }

    /// Per-disk health rows for [`crate::StatsSnapshot`].
    pub(crate) fn snapshot(&self) -> Vec<DiskHealthSnapshot> {
        let auto = Self::locked(&self.auto_failed).clone();
        (0..self.errors.len())
            .map(|d| DiskHealthSnapshot {
                disk: d,
                errors: self.errors[d].load(Ordering::Relaxed),
                repairs: self.repairs[d].load(Ordering::Relaxed),
                retries: self.retries[d].load(Ordering::Relaxed),
                recent: self.recent[d].load(Ordering::Relaxed),
                auto_failed: auto.contains(&d),
            })
            .collect()
    }
}

/// One physical disk's health row in a [`crate::StatsSnapshot`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DiskHealthSnapshot {
    /// Physical backend disk index.
    pub disk: usize,
    /// Hard (post-retry) backend errors.
    pub errors: u64,
    /// Checksum repairs whose corrupt unit lived here.
    pub repairs: u64,
    /// Transient errors absorbed by retry.
    pub retries: u64,
    /// Decaying recent-error count (the rate policy's input; halves
    /// every rate window).
    pub recent: u64,
    /// Whether the health policy auto-failed this disk.
    pub auto_failed: bool,
}

/// Integrity-subsystem totals in a [`crate::StatsSnapshot`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IntegrityStatsSnapshot {
    /// Units rewritten because their checksum mismatched.
    pub checksum_repairs: u64,
    /// Parity units rewritten because the stripe's parity equations
    /// failed while every data checksum verified.
    pub parity_repairs: u64,
    /// Transient backend errors absorbed by retry (all disks).
    pub transient_retries: u64,
    /// Completed scrub passes.
    pub scrub_passes: u64,
    /// The persisted scrub cursor (stripes into the current pass;
    /// `0` when no pass is mid-flight).
    pub scrub_cursor: u64,
    /// Per-physical-disk health rows.
    pub disk_health: Vec<DiskHealthSnapshot>,
}

/// The store-owned integrity state: checksum table, retry policy,
/// health monitor, and the global repair counters.
#[derive(Debug)]
pub struct Integrity {
    /// Per-unit checksums (physical geometry).
    pub(crate) sums: ChecksumTable,
    /// Per-disk health + auto-fail queue.
    pub(crate) health: HealthMonitor,
    /// Retry count for transient errors.
    pub(crate) max_retries: AtomicU32,
    /// Linear backoff step (µs) between retries.
    pub(crate) backoff_us: AtomicU64,
    /// Units rewritten by read-repair or scrub (data or parity decode).
    pub(crate) checksum_repairs: AtomicU64,
    /// Parity units recomputed from verified data by the scrubber.
    pub(crate) parity_repairs: AtomicU64,
    /// Completed scrub passes.
    pub(crate) scrub_passes: AtomicU64,
}

impl Integrity {
    /// Integrity state for `disks × units` physical units with the
    /// default retry policy.
    pub fn new(disks: usize, units: usize) -> Self {
        let rp = RetryPolicy::default();
        Integrity {
            sums: ChecksumTable::new(disks, units),
            health: HealthMonitor::new(disks),
            max_retries: AtomicU32::new(rp.max_retries),
            backoff_us: AtomicU64::new(rp.backoff_us),
            checksum_repairs: AtomicU64::new(0),
            parity_repairs: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
        }
    }

    /// The current retry policy.
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries.load(Ordering::Relaxed),
            backoff_us: self.backoff_us.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with bounded retry on transient errors, counting
    /// retries (and the final hard error, if any) against physical
    /// `disk`'s health.
    pub(crate) fn retrying<T>(
        &self,
        disk: usize,
        mut f: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let policy = self.retry_policy();
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < policy.max_retries => {
                    attempt += 1;
                    self.health.note_retry(disk);
                    if policy.backoff_us > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(
                            policy.backoff_us * attempt as u64,
                        ));
                    }
                }
                Err(e) => {
                    self.health.note_error(disk);
                    return Err(e);
                }
            }
        }
    }

    /// Integrity totals for [`crate::StatsSnapshot`] (`scrub_cursor`
    /// is owned by the store and patched in by the caller).
    pub(crate) fn snapshot(&self) -> IntegrityStatsSnapshot {
        let health = self.health.snapshot();
        IntegrityStatsSnapshot {
            checksum_repairs: self.checksum_repairs.load(Ordering::Relaxed),
            parity_repairs: self.parity_repairs.load(Ordering::Relaxed),
            transient_retries: health.iter().map(|d| d.retries).sum(),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            scrub_cursor: 0,
            disk_health: health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-unit [`ChecksumTable::verify`].
    fn verify_one(t: &ChecksumTable, disk: usize, offset: usize, unit: &[u8]) -> bool {
        t.verify([(disk, offset, unit)], |_| {})
    }

    /// A unit past the table, by offset or by disk, has no recorded
    /// sum: `record` drops its sum, and `recorded` says so.
    #[test]
    fn units_past_the_table_read_as_unrecorded() {
        let t = ChecksumTable::new(2, 4);
        let unit = [7u8; 16];
        for (disk, offset) in [(0, 4), (1, 100), (2, 0), (5, 3)] {
            t.record([(disk, offset, &unit[..])]);
            assert!(!t.recorded(disk, offset), "({disk}, {offset}) is past a 2 × 4 table");
        }
        assert!(!t.recorded(1, 3), "an in-table unit starts unrecorded");
        t.record([(1, 3, &unit[..])]);
        assert!(t.recorded(1, 3), "an in-table unit is recorded once written");
    }

    /// The store's unit hash — re-exported as `pdl_store::xxh64` — is
    /// the reference XXH64 (the published vectors of xxhash's
    /// `XSUM_sanityCheck`, over its `2654435761^n`-generated bytes).
    #[test]
    fn xxh64_matches_reference_vectors() {
        const PRIME32: u64 = 2654435761;
        let mut gen: u32 = PRIME32 as u32;
        let buf: Vec<u8> = (0..101)
            .map(|_| {
                let b = (gen >> 24) as u8;
                gen = gen.wrapping_mul(gen);
                b
            })
            .collect();
        for (len, seed, want) in [
            (0, 0, 0xEF46DB3751D8E999),
            (1, PRIME32, 0x739840CB819FA723),
            (14, 0, 0xCFFA8DB881BC3A3D),
            (101, PRIME32, 0xCAA65939306F1E21),
        ] {
            assert_eq!(xxh64(seed, &buf[..len]), want, "len {len} seed {seed}");
        }
    }

    #[test]
    fn checksum_table_roundtrip_and_sentinel() {
        let t = ChecksumTable::new(2, 4);
        let a = [1u8, 2, 3, 4];
        let b = [9u8, 9, 9, 9];
        assert!(verify_one(&t, 0, 0, &a), "unset entries verify anything");
        assert!(!t.recorded(0, 0));
        t.record([(0, 0, &a[..])]);
        assert!(t.recorded(0, 0));
        assert!(verify_one(&t, 0, 0, &a));
        assert!(!verify_one(&t, 0, 0, &b), "mismatch detected");
        t.record([(0, 0, &b[..])]);
        assert!(verify_one(&t, 0, 0, &b));
        // Two units recorded as one batch.
        let (five, six) = ([5u8; 4], [6u8; 4]);
        t.record([(1, 1, &five[..]), (1, 2, &six)]);
        assert!(verify_one(&t, 1, 1, &five));
        assert!(verify_one(&t, 1, 2, &six));
        assert!(!verify_one(&t, 1, 2, &five));
        // Wipe forgets.
        t.clear_disk(1);
        assert!(verify_one(&t, 1, 1, &a));
        // Out-of-range access is a no-op, never a panic.
        t.record([(9, 9, &a[..])]);
        assert!(verify_one(&t, 9, 9, &a));
    }

    /// A batch across disks, longer than one group, mixing recorded,
    /// unset and out-of-table units: the batch records what one-unit
    /// calls record, and its verify names exactly the positions the
    /// one-unit verifies fail, in order.
    #[test]
    fn batch_checks_match_per_unit_checks() {
        let t = ChecksumTable::new(3, 8);
        let data: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; 64]).collect();
        // Unit `i` sits at (disk i % 3, offset i / 3 + 1); offset 7 of
        // disk 0 stays unset, disk 9 is past the table.
        fn at(i: usize) -> (usize, usize) {
            (i % 3, i / 3 + 1)
        }
        fn batch(units: &[Vec<u8>]) -> Vec<(usize, usize, &[u8])> {
            (units.iter().enumerate().map(|(i, u)| (at(i).0, at(i).1, &u[..])))
                .chain([(0, 7, &units[0][..]), (9, 0, &units[1][..])])
                .collect()
        }
        t.record(batch(&data).into_iter().take(data.len()));
        let one = ChecksumTable::new(3, 8);
        for (i, unit) in data.iter().enumerate() {
            one.record([(at(i).0, at(i).1, &unit[..])]);
        }
        assert_eq!(t.to_bytes(), one.to_bytes(), "a batch records what one-unit calls do");
        // A clean batch passes and reports nothing.
        let mut bad = Vec::new();
        assert!(t.verify(batch(&data), |i| bad.push(i)));
        assert!(bad.is_empty());
        // Rot the units at batch positions 0, 7, 8 and 12: each
        // position reported, in order, matching one-unit verifies.
        let mut torn = data.clone();
        for i in [0, 7, 8, 12] {
            torn[i][5] ^= 0xff;
        }
        assert!(!t.verify(batch(&torn), |i| bad.push(i)));
        assert_eq!(bad, vec![0, 7, 8, 12]);
        for (i, (disk, offset, unit)) in batch(&torn).into_iter().enumerate() {
            assert_eq!(verify_one(&t, disk, offset, unit), !bad.contains(&i), "position {i}");
        }
    }

    #[test]
    fn checksum_table_resize_and_bytes() {
        let t = ChecksumTable::new(1, 6);
        let unit = [7u8; 4];
        t.record([(0, 0, &unit[..])]);
        t.resize_units(2);
        assert!(verify_one(&t, 0, 0, &unit));
        let bytes = t.to_bytes();
        let u = ChecksumTable::new(1, 2);
        assert!(u.load_bytes(&bytes));
        assert!(verify_one(&u, 0, 0, &unit));
        assert!(!verify_one(&u, 0, 0, &[0u8; 4]));
        // Geometry mismatch refuses, table stays unset.
        let w = ChecksumTable::new(2, 2);
        assert!(!w.load_bytes(&bytes));
        assert!(!w.recorded(0, 0));
        assert!(!w.load_bytes(b"garbage"));
    }

    #[test]
    fn retrying_absorbs_transients_and_counts_health() {
        let ig = Integrity::new(2, 4);
        ig.backoff_us.store(0, Ordering::Relaxed);
        let mut failures = 2;
        let out: Result<u32, StoreError> = ig.retrying(1, || {
            if failures > 0 {
                failures -= 1;
                Err(StoreError::Io(std::io::Error::from(std::io::ErrorKind::Interrupted)))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        let snap = ig.health.snapshot();
        assert_eq!(snap[1].retries, 2);
        assert_eq!(snap[1].errors, 0);
        // A non-transient error is not retried and counts as hard.
        let out: Result<(), StoreError> =
            ig.retrying(0, || Err(StoreError::Corrupt("nope".into())));
        assert!(out.is_err());
        assert_eq!(ig.health.snapshot()[0].errors, 1);
        // Transients past the budget surface as hard errors.
        let out: Result<(), StoreError> = ig.retrying(0, || {
            Err(StoreError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut)))
        });
        assert!(out.is_err());
        let snap = ig.health.snapshot();
        assert_eq!(snap[0].errors, 2);
        assert_eq!(snap[0].retries, 3, "default budget burned");
    }

    #[test]
    fn dirty_bitmap_drains_once_and_recaptures() {
        let t = ChecksumTable::new(2, 70); // spans two bitmap words
        let unit = [3u8; 4];
        t.record([(0, 0, &unit[..]), (0, 69, &unit), (1, 5, &unit)]);
        let mut got = Vec::new();
        t.drain_dirty(|d, o, s| got.push((d, o, s)));
        got.sort_unstable();
        assert_eq!(got.len(), 3);
        assert_eq!((got[0].0, got[0].1), (0, 0));
        assert_eq!((got[1].0, got[1].1), (0, 69));
        assert_eq!((got[2].0, got[2].1), (1, 5));
        assert_eq!(got[0].2, ChecksumTable::encode(xxh64(ChecksumTable::SEED, &unit)));
        // Drained entries stay drained until re-recorded.
        let mut again = Vec::new();
        t.drain_dirty(|d, o, s| again.push((d, o, s)));
        assert!(again.is_empty());
        t.record([(0, 69, &unit[..])]);
        t.drain_dirty(|d, o, _| again.push((d, o, 0)));
        assert_eq!(again, vec![(0, 69, 0)]);
        // set_raw applies without dirtying (the replay path).
        t.set_raw(1, 7, 42);
        assert!(t.recorded(1, 7));
        let mut raw = Vec::new();
        t.drain_dirty(|d, o, _| raw.push((d, o)));
        assert!(raw.is_empty());
        assert_eq!(t.geometry(), (2, 70));
    }

    #[test]
    fn health_rate_policy_trips_on_burst_not_drizzle() {
        // Burst: 4 errors back to back inside one long window.
        let h = HealthMonitor::new(2);
        h.set_rate_policy(4, 60_000);
        for _ in 0..3 {
            h.note_error(1);
        }
        assert!(!h.has_pending(), "under the rate threshold");
        h.note_error(1);
        assert_eq!(h.take_pending(), vec![1]);
        assert_eq!(h.snapshot()[1].recent, 4);
        // Drizzle: the same 4 errors with >=2 windows between them
        // decay below the threshold every time.
        let h = HealthMonitor::new(2);
        h.set_rate_policy(4, 5);
        for _ in 0..4 {
            h.note_error(0);
            std::thread::sleep(std::time::Duration::from_millis(12));
        }
        assert!(!h.has_pending(), "spread errors decay before reaching the threshold");
    }

    #[test]
    fn health_threshold_queues_once_and_requeues() {
        let h = HealthMonitor::new(3);
        h.note_repair(2);
        assert!(!h.has_pending(), "policy disabled by default");
        h.set_threshold(2);
        h.note_repair(2);
        assert!(h.has_pending());
        h.note_error(2); // further bumps don't duplicate the entry
        assert_eq!(h.take_pending(), vec![2]);
        assert!(!h.has_pending());
        h.requeue(2);
        h.requeue(2);
        assert_eq!(h.take_pending(), vec![2]);
    }
}
