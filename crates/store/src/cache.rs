//! The write-back stripe cache: small-write parity write-combining.
//!
//! Parity declustering fixes rebuild cost but leaves the RAID small-
//! write penalty untouched: every sub-stripe write is a read-modify-
//! write — 2 reads + 2 writes under XOR, 3 + 3 under P+Q — under an
//! exclusive stripe lock. This module adds the standard cure (write
//! caching/combining, per Thomasian's survey of mirrored and hybrid
//! arrays): dirty data units accumulate per stripe in a sharded
//! `StripeCache` keyed by the same `(copy, stripe)` pair as the
//! store's stripe lock table, and are flushed as **one combined
//! parity update per stripe** instead of one RMW cycle per write.
//!
//! ## Deferred read-modify-write
//!
//! A cached write performs **zero backend I/O**: the new bytes land in
//! the stripe's cache entry (latest write wins per unit) and the
//! parity work is deferred to flush time. At flush, one stripe pays:
//!
//! * **fully dirty** (every data unit of the stripe overwritten) —
//!   the existing zero-read full-stripe path: parity is recomputed
//!   fresh from the cached data, `k` unit writes, **no reads at all**;
//! * **partially dirty** — the store's one partial-stripe update
//!   (`BlockStore::update_partial_stripe`, the same update a
//!   write-through write makes): the dirty units and the parity are
//!   written **once**, however many client writes the entry absorbed,
//!   at most one backend call per touched disk. A flush batch's
//!   partially dirty stripes read in one shared round, and their
//!   writes join the batch's write plan. A healthy stripe pays
//!   whichever is fewer reads — the delta route (old dirty units and
//!   old parity, `m + p`; it also takes ties, touching fewer disks) or
//!   the reconstruct route (the clean units, `k_data − m`, parity
//!   recomputed fresh); a degraded stripe (a member disk failed or
//!   rebuilding) takes the per-unit route, which maintains every
//!   surviving parity, marks skipped media stale, and writes through
//!   to a racing rebuild's spare.
//!
//! An errored flush re-queues its stripes, and `StripeCache::requeue`
//! marks each entry: a marked entry of a healthy stripe always flushes
//! by **reconstruct**, which is idempotent — it recomputes parity from
//! the data vector and so converges over whatever part of the failed
//! attempt landed. The delta route would instead fold a landed unit's
//! zero delta into a stale parity, corrupting the stripe for good. (A
//! degraded stripe keeps its per-unit route on retry too — part of the
//! write hole, ROADMAP item 1.) A marked entry also lands on its own,
//! not with the rest of its batch, so a disk that keeps failing calls
//! cannot hold a whole batch back.
//!
//! ## Consistency argument
//!
//! Between flushes the backend never sees a cached write, so **the
//! on-disk stripe invariant always holds for the pre-write contents**:
//! degraded decodes of *clean* units, rebuild-chunk decodes, and the
//! parity scan all operate on a self-consistent (old) snapshot and
//! remain correct with no cache awareness at all. The only values
//! that exist solely in the cache are the dirty units themselves, so
//! every read path consults the cache first — a dirty unit is served
//! from memory (healthy *and* degraded reads alike), a clean one from
//! the backend. A flush makes its stripe's new contents durable under
//! the stripe's exclusive shard lock, ordered so a concurrent reader
//! either still sees the cache entry or already sees the flushed
//! backend bytes — never neither. A rebuild that races dirty stripes
//! reconstructs their *old* contents onto the spare; the flush then
//! lands the new bytes through the same write path as live traffic
//! (write-through while the rebuild is registered, the redirected
//! disk after it completes), so the array converges to the cached
//! values bit-exactly either way.
//!
//! ## Flush ordering
//!
//! Failure-state transitions — [`crate::BlockStore::fail_disk`],
//! [`crate::BlockStore::restore_disk`], and rebuild registration —
//! **flush the cache before changing state**, under the exclusive
//! state guard (so no client I/O is in flight). The cache is
//! therefore always clean at the instant a transition is applied, and
//! the deferred writes observe the failure state that existed when
//! they were issued or an equivalent flushed-then-degraded history.
//! [`crate::BlockStore::flush`] drains the cache explicitly;
//! exceeding [`CachePolicy::WriteBack`]'s `max_dirty` budget evicts
//! oldest-dirtied stripes from the write path itself.
//!
//! ## Durability
//!
//! Write-back trades durability for speed, exactly like a volatile
//! disk-array write cache: an acknowledged write is readable (served
//! from the cache) and failure-atomic across *disk* failures (flushed
//! before the failure is applied), but a process crash loses writes
//! not yet flushed. The default policy is therefore
//! [`CachePolicy::WriteThrough`] — byte-for-byte the pre-cache
//! behavior — and write-back is an explicit opt-in, persisted in the
//! store metadata for file-backed arrays.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::obs::CacheStatsSnapshot;

/// When (and whether) writes are combined in the stripe cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// No write caching: every write performs its parity maintenance
    /// immediately (the compatibility default — identical I/O to a
    /// store without a cache).
    WriteThrough,
    /// Writes accumulate per stripe and flush combined: explicitly via
    /// [`crate::BlockStore::flush`], implicitly before every
    /// failure-state transition, and by oldest-first eviction when
    /// more than `max_dirty` stripes are dirty.
    WriteBack {
        /// Dirty-stripe budget before the write path starts evicting
        /// (each dirty stripe pins roughly one stripe's data units of
        /// memory).
        max_dirty: usize,
    },
}

impl CachePolicy {
    /// Default dirty-stripe budget of [`CachePolicy::write_back`].
    pub const DEFAULT_MAX_DIRTY: usize = 1024;

    /// Write-back with the default dirty-stripe budget.
    pub fn write_back() -> CachePolicy {
        CachePolicy::WriteBack { max_dirty: Self::DEFAULT_MAX_DIRTY }
    }

    /// True for any [`CachePolicy::WriteBack`] flavor.
    pub fn is_write_back(self) -> bool {
        matches!(self, CachePolicy::WriteBack { .. })
    }

    /// Stable encoding used by persisted metadata and the `PDL_CACHE`
    /// environment override: `writethrough` or `writeback[:N]`.
    pub fn encode(self) -> String {
        match self {
            CachePolicy::WriteThrough => "writethrough".to_string(),
            CachePolicy::WriteBack { max_dirty } => format!("writeback:{max_dirty}"),
        }
    }

    /// Parses [`CachePolicy::encode`] (plus the bare `writeback`
    /// shorthand for the default budget); `None` for unknown names.
    pub fn decode(name: &str) -> Option<CachePolicy> {
        match name {
            "writethrough" | "" => Some(CachePolicy::WriteThrough),
            "writeback" => Some(CachePolicy::write_back()),
            other => {
                let n = other.strip_prefix("writeback:")?;
                let max_dirty: usize = n.parse().ok()?;
                Some(CachePolicy::WriteBack { max_dirty: max_dirty.max(1) })
            }
        }
    }
}

/// One cached stripe: the dirty data units (in data-slot order, which
/// equals logical-address order) and which of them are dirty.
#[derive(Debug)]
struct StripeEntry {
    /// Per data-slot dirty flags (`k_data` entries).
    dirty: Box<[bool]>,
    /// `k_data × unit_size` bytes, slot-indexed; only dirty slots
    /// hold meaningful bytes.
    data: Box<[u8]>,
    /// Count of `true` flags in `dirty`.
    ndirty: usize,
    /// A flush of this entry failed part-way (set by
    /// [`StripeCache::requeue`]): the backend may hold any subset of
    /// that attempt's writes, so the entry must flush by an
    /// idempotent route. Cleared only with the entry.
    requeued: bool,
}

/// An owned copy of one entry's dirty flags, taken under the stripe's
/// exclusive shard lock so the flush can release the cache mutex
/// while it performs backend I/O; the entry's data bytes are appended
/// directly to the flush's staging buffer (one copy, not two).
/// Reused across flushes.
#[derive(Debug, Default)]
pub(crate) struct FlushSnapshot {
    pub(crate) dirty: Vec<bool>,
    pub(crate) ndirty: usize,
    pub(crate) requeued: bool,
}

/// The `(copy, stripe)` cache key packed into one word.
pub(crate) fn stripe_key(copy: usize, stripe: usize) -> u64 {
    ((copy as u64) << 32) | stripe as u64
}

/// Unpacks [`stripe_key`].
pub(crate) fn key_parts(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & u32::MAX as u64) as usize)
}

/// Fibonacci-mixing hasher for the packed stripe key — the map sits
/// on the write hot path, where SipHash's per-lookup cost is pure
/// overhead for an 8-byte key the store already distributes well.
#[derive(Default)]
pub(crate) struct StripeKeyHasher(u64);

impl Hasher for StripeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; mix whatever arrives anyway.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }
}

type EntryMap = HashMap<u64, StripeEntry, BuildHasherDefault<StripeKeyHasher>>;

/// Relaxed lifetime counters behind [`crate::BlockStore::stats`] —
/// pure accounting, never consulted by the cache's own logic.
#[derive(Debug, Default)]
struct CacheCounters {
    /// Read probes served from a dirty cache entry.
    hits: AtomicU64,
    /// Read probes that locked a shard map and fell through to the
    /// backend. Probes answered by the lock-free clean-shard gate are
    /// counted neither way, keeping the common no-cache read path
    /// free of stats traffic.
    misses: AtomicU64,
    /// Stripe entries created (first dirty write to a stripe).
    insertions: AtomicU64,
    /// Writes absorbed by an already-dirty unit slot (pure
    /// write-combining wins: zero additional flush cost).
    absorbed_writes: AtomicU64,
    /// Stripes flushed by budget-driven eviction (subset of
    /// `flushed_stripes`).
    evictions: AtomicU64,
    /// Stripes flushed (any reason: explicit, transition, eviction).
    flushed_stripes: AtomicU64,
    /// Dirty units those flushes wrote out combined.
    flushed_units: AtomicU64,
}

/// Cache mode, packed into an atomic so the write path reads it
/// without a lock.
const MODE_WRITE_THROUGH: u8 = 0;
const MODE_WRITE_BACK: u8 = 1;

/// The sharded write-back stripe cache (see the [module docs](self)).
///
/// Shard alignment: the store indexes this cache with the **same
/// shard id** its [`crate::store`] lock table derives from the
/// `(copy, stripe)` key, so an entry's cache shard mutex is only ever
/// contended by operations that already serialize on the stripe's
/// lock shard — plus lock-free readers probing for dirty units.
///
/// The cache mutex protects map structure and entry bytes; it is held
/// only for memcpys, never across backend I/O. Flushes snapshot the
/// entry, write the backend under the stripe's exclusive shard lock,
/// and only then remove the entry — so a concurrent reader either
/// still finds the entry (served the new bytes from memory) or finds
/// it gone, which guarantees the backend write has completed and the
/// backend read returns the same new bytes.
#[derive(Debug)]
pub(crate) struct StripeCache {
    unit_size: usize,
    shards: Box<[Mutex<EntryMap>]>,
    /// Dirty stripe keys, oldest first (eviction order). A key is
    /// pushed when its entry is created and popped by flush; a
    /// popped key whose entry is already gone (discarded by a
    /// full-stripe overwrite) is skipped.
    queue: Mutex<VecDeque<u64>>,
    /// Count of live dirty entries (monotonic with map contents).
    dirty: AtomicUsize,
    /// Per-shard live-entry counts: a probe of a clean shard skips
    /// its mutex entirely.
    shard_dirty: Box<[AtomicUsize]>,
    mode: AtomicU8,
    max_dirty: AtomicUsize,
    stats: CacheCounters,
}

impl StripeCache {
    pub(crate) fn new(unit_size: usize, shards: usize) -> StripeCache {
        StripeCache {
            unit_size,
            shards: (0..shards).map(|_| Mutex::new(EntryMap::default())).collect(),
            queue: Mutex::new(VecDeque::new()),
            dirty: AtomicUsize::new(0),
            shard_dirty: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            mode: AtomicU8::new(MODE_WRITE_THROUGH),
            max_dirty: AtomicUsize::new(CachePolicy::DEFAULT_MAX_DIRTY),
            stats: CacheCounters::default(),
        }
    }

    /// The installed policy.
    pub(crate) fn policy(&self) -> CachePolicy {
        match self.mode.load(Ordering::Acquire) {
            MODE_WRITE_BACK => {
                CachePolicy::WriteBack { max_dirty: self.max_dirty.load(Ordering::Acquire) }
            }
            _ => CachePolicy::WriteThrough,
        }
    }

    /// Installs a policy (the store flushes around mode changes).
    pub(crate) fn set_policy(&self, policy: CachePolicy) {
        match policy {
            CachePolicy::WriteThrough => self.mode.store(MODE_WRITE_THROUGH, Ordering::Release),
            CachePolicy::WriteBack { max_dirty } => {
                self.max_dirty.store(max_dirty.max(1), Ordering::Release);
                self.mode.store(MODE_WRITE_BACK, Ordering::Release);
            }
        }
    }

    /// True when writes should be cached.
    pub(crate) fn is_write_back(&self) -> bool {
        self.mode.load(Ordering::Acquire) == MODE_WRITE_BACK
    }

    /// Cheap read-path gate: false means no entry anywhere, so reads
    /// skip the cache probe entirely (a clean or write-through store
    /// pays one relaxed atomic load).
    pub(crate) fn maybe_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire) != 0
    }

    /// Live dirty-stripe count.
    pub(crate) fn dirty_stripes(&self) -> usize {
        self.dirty.load(Ordering::Acquire)
    }

    /// True when the dirty count exceeds the write-back budget.
    pub(crate) fn over_limit(&self) -> bool {
        self.dirty.load(Ordering::Acquire) > self.max_dirty.load(Ordering::Acquire)
    }

    /// Serves data-slot `j` of the keyed stripe from the cache if it
    /// is dirty, copying into `out`. Lock-free callers (healthy
    /// reads) rely on the entry-removal ordering described on
    /// [`StripeCache`].
    pub(crate) fn read_into(&self, shard: usize, key: u64, j: usize, out: &mut [u8]) -> bool {
        // Clean shards answer with one atomic load, no mutex. A probe
        // racing the entry's creation misses — fine, the write is
        // concurrent and the backend still holds the pre-write bytes.
        if self.shard_dirty[shard].load(Ordering::Acquire) == 0 {
            return false;
        }
        let map = self.shards[shard].lock().unwrap();
        match map.get(&key) {
            Some(e) if e.dirty[j] => {
                out.copy_from_slice(&e.data[j * self.unit_size..(j + 1) * self.unit_size]);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Caches a write of data-slot `j` (of `k_data`) in the keyed
    /// stripe; latest write wins. Returns the entry's dirty-unit
    /// count after the write (== `k_data` means fully dirty). The
    /// caller holds the stripe's exclusive shard lock.
    pub(crate) fn write(&self, shard: usize, key: u64, k_data: usize, j: usize, data: &[u8]) {
        debug_assert_eq!(data.len(), self.unit_size);
        let mut map = self.shards[shard].lock().unwrap();
        let e = map.entry(key).or_insert_with(|| {
            self.dirty.fetch_add(1, Ordering::AcqRel);
            self.shard_dirty[shard].fetch_add(1, Ordering::AcqRel);
            self.queue.lock().unwrap().push_back(key);
            self.stats.insertions.fetch_add(1, Ordering::Relaxed);
            StripeEntry {
                dirty: vec![false; k_data].into_boxed_slice(),
                data: vec![0u8; k_data * self.unit_size].into_boxed_slice(),
                ndirty: 0,
                requeued: false,
            }
        });
        if !e.dirty[j] {
            e.dirty[j] = true;
            e.ndirty += 1;
        } else {
            self.stats.absorbed_writes.fetch_add(1, Ordering::Relaxed);
        }
        e.data[j * self.unit_size..(j + 1) * self.unit_size].copy_from_slice(data);
    }

    /// Copies the keyed entry's dirty flags into `snap` and appends
    /// its data units to `staged` (leaving the entry in place so
    /// readers keep hitting it during the flush's backend writes).
    /// Returns false — touching neither buffer — when the entry does
    /// not exist.
    pub(crate) fn snapshot_append(
        &self,
        shard: usize,
        key: u64,
        snap: &mut FlushSnapshot,
        staged: &mut Vec<u8>,
    ) -> bool {
        let map = self.shards[shard].lock().unwrap();
        match map.get(&key) {
            Some(e) => {
                snap.dirty.clear();
                snap.dirty.extend_from_slice(&e.dirty);
                snap.ndirty = e.ndirty;
                snap.requeued = e.requeued;
                staged.extend_from_slice(&e.data);
                true
            }
            None => false,
        }
    }

    /// Removes an entry whose contents have been flushed to — or
    /// fully superseded by — writes that have **already landed** on
    /// the backend (see the ordering note on [`StripeCache`]). A
    /// no-op for absent keys.
    pub(crate) fn remove_flushed(&self, shard: usize, key: u64) {
        if self.shards[shard].lock().unwrap().remove(&key).is_some() {
            self.dirty.fetch_sub(1, Ordering::AcqRel);
            self.shard_dirty[shard].fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Pops the oldest dirty stripe key, or `None` when the queue is
    /// empty. The entry may already be gone (superseded by a
    /// full-stripe overwrite); callers skip such keys.
    pub(crate) fn pop_dirty(&self) -> Option<u64> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Current dirty-queue length — the drain bound for a full
    /// flush, so a flush racing live write-back traffic terminates
    /// after the stripes that were queued when it began.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Returns a popped key to the queue (flush error path), so a
    /// later flush retries the stripe instead of stranding it, and
    /// marks its entry (if still present) as re-queued — see the
    /// [module docs](self) for why the retry must then reconstruct.
    pub(crate) fn requeue(&self, shard: usize, key: u64) {
        if let Some(e) = self.shards[shard].lock().unwrap().get_mut(&key) {
            e.requeued = true;
        }
        self.queue.lock().unwrap().push_front(key);
    }

    /// True when the keyed stripe has a live cache entry. Used by the
    /// read-mostly write bypass to keep ordering exact: a stripe with
    /// a dirty entry must keep writing into it (a bypassed backend
    /// write would be shadowed by the stale entry until its flush).
    /// The caller holds the stripe's exclusive shard lock.
    pub(crate) fn has_entry(&self, shard: usize, key: u64) -> bool {
        if self.shard_dirty[shard].load(Ordering::Acquire) == 0 {
            return false;
        }
        self.shards[shard].lock().unwrap().contains_key(&key)
    }

    /// Accounts `n` stripes flushed by budget-driven eviction.
    pub(crate) fn note_evictions(&self, n: u64) {
        self.stats.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts a completed flush batch: `stripes` stripes carrying
    /// `units` dirty units written out combined.
    pub(crate) fn note_flush(&self, stripes: u64, units: u64) {
        self.stats.flushed_stripes.fetch_add(stripes, Ordering::Relaxed);
        self.stats.flushed_units.fetch_add(units, Ordering::Relaxed);
    }

    /// Snapshot of the lifetime counters plus the live dirty count.
    /// `bypassed_writes` is filled in by the store from the metrics
    /// registry, where the bypass decision is made and tallied.
    pub(crate) fn stats_snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            absorbed_writes: self.stats.absorbed_writes.load(Ordering::Relaxed),
            bypassed_writes: 0,
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            flushed_stripes: self.stats.flushed_stripes.load(Ordering::Relaxed),
            flushed_units: self.stats.flushed_units.load(Ordering::Relaxed),
            dirty_stripes: self.dirty.load(Ordering::Acquire) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_encoding_roundtrips() {
        for p in [
            CachePolicy::WriteThrough,
            CachePolicy::write_back(),
            CachePolicy::WriteBack { max_dirty: 7 },
        ] {
            assert_eq!(CachePolicy::decode(&p.encode()), Some(p));
        }
        assert_eq!(CachePolicy::decode("writeback"), Some(CachePolicy::write_back()));
        assert_eq!(CachePolicy::decode(""), Some(CachePolicy::WriteThrough));
        assert_eq!(
            CachePolicy::decode("writeback:0"),
            Some(CachePolicy::WriteBack { max_dirty: 1 })
        );
        assert_eq!(CachePolicy::decode("ramdisk"), None);
        assert_eq!(CachePolicy::decode("writeback:x"), None);
    }

    #[test]
    fn stripe_key_packs_and_unpacks() {
        for (copy, stripe) in [(0usize, 0usize), (1, 2), (7, 1023), (u32::MAX as usize, 5)] {
            assert_eq!(key_parts(stripe_key(copy, stripe)), (copy, stripe));
        }
    }

    #[test]
    fn cache_write_read_flush_cycle() {
        let cache = StripeCache::new(8, 4);
        cache.set_policy(CachePolicy::WriteBack { max_dirty: 2 });
        assert!(cache.is_write_back());
        assert!(!cache.maybe_dirty());
        let key = stripe_key(0, 3);
        cache.write(1, key, 3, 1, &[0xaa; 8]);
        assert_eq!(cache.dirty_stripes(), 1);
        let mut out = [0u8; 8];
        assert!(cache.read_into(1, key, 1, &mut out));
        assert_eq!(out, [0xaa; 8]);
        assert!(!cache.read_into(1, key, 0, &mut out), "clean slot misses");
        // Latest write wins.
        cache.write(1, key, 3, 1, &[0xbb; 8]);
        assert!(cache.read_into(1, key, 1, &mut out));
        assert_eq!(out, [0xbb; 8]);
        // Snapshot sees both dirty flags and data; entry survives.
        cache.write(1, key, 3, 0, &[0x11; 8]);
        let mut snap = FlushSnapshot::default();
        let mut staged = Vec::new();
        assert!(cache.snapshot_append(1, key, &mut snap, &mut staged));
        assert_eq!(snap.ndirty, 2);
        assert_eq!(snap.dirty, vec![true, true, false]);
        assert_eq!(&staged[8..16], &[0xbb; 8]);
        assert!(cache.maybe_dirty());
        // Flush completes: entry removed, queue drains to the key.
        assert_eq!(cache.pop_dirty(), Some(key));
        cache.remove_flushed(1, key);
        assert_eq!(cache.dirty_stripes(), 0);
        assert!(!cache.read_into(1, key, 1, &mut out));
        assert_eq!(cache.pop_dirty(), None);
    }

    #[test]
    fn superseded_entries_leave_stale_queue_keys() {
        let cache = StripeCache::new(4, 2);
        cache.set_policy(CachePolicy::write_back());
        let key = stripe_key(2, 9);
        cache.write(0, key, 2, 0, &[1; 4]);
        assert_eq!(cache.dirty_stripes(), 1);
        assert_eq!(cache.queue_len(), 1);
        // A full-stripe overwrite that has landed on the backend
        // removes the entry; the queued key becomes stale.
        cache.remove_flushed(0, key);
        assert_eq!(cache.dirty_stripes(), 0);
        // Pop returns the stale key, entry is gone (and a snapshot
        // attempt touches neither buffer).
        assert_eq!(cache.pop_dirty(), Some(key));
        let mut snap = FlushSnapshot::default();
        let mut staged = Vec::new();
        assert!(!cache.snapshot_append(0, key, &mut snap, &mut staged));
        assert!(staged.is_empty());
        assert_eq!(cache.queue_len(), 0);
    }

    #[test]
    fn over_limit_tracks_budget() {
        let cache = StripeCache::new(4, 2);
        cache.set_policy(CachePolicy::WriteBack { max_dirty: 1 });
        cache.write(0, stripe_key(0, 0), 2, 0, &[1; 4]);
        assert!(!cache.over_limit());
        cache.write(1, stripe_key(0, 1), 2, 0, &[2; 4]);
        assert!(cache.over_limit());
        // Requeue puts an errored flush victim back at the front and
        // marks the entry, which its next snapshot carries.
        let k = cache.pop_dirty().unwrap();
        let mut snap = FlushSnapshot::default();
        let mut staged = Vec::new();
        assert!(cache.snapshot_append(0, k, &mut snap, &mut staged) && !snap.requeued);
        cache.requeue(0, k);
        assert_eq!(cache.pop_dirty(), Some(k));
        assert!(cache.snapshot_append(0, k, &mut snap, &mut staged) && snap.requeued);
    }
}
