//! The write path: block writes that keep every surviving parity
//! consistent.
//!
//! Full stripes are planned by one `plan_stripe`, generic over where
//! each unit is placed, for client writes, cache flushes and the
//! reshape migration alike, and land through one `flush_write_plan`.
//! Every partially covered stripe — a `write_block`, the head or tail
//! of a `write_blocks`, a partially dirty cache flush — is one
//! partial-stripe update (`update_partial_stripe`), which picks the
//! delta or the reconstruct route by read count and is a read set and
//! a write set: a small write costs two device rounds, and a batch's
//! partial stripes read in one shared round and write with its full
//! stripes. While a reshape is active every written block also lands
//! in the target world (`dual_write`, in `reshape.rs`), under the
//! source stripes' shard guards.

use crate::backend::Backend;
use crate::cache::stripe_key;
use crate::codec::{self, Role, Syndromes};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::io::Run;
use crate::obs::{Event, OpKind};
use crate::repair::{sweep_repairing, Mismatches};
use crate::store::{sort_shard_set, ArrayState, BlockStore, PhysUnit, World};
use pdl_core::StripeUnit;

/// Where a deferred full-stripe unit write takes its bytes from: the
/// caller's data buffer or the plan's parity staging area, both
/// indexed in whole units. Packed into one word (high bit = parity)
/// so a plan bucket entry is 8 bytes, not 24 — the buckets are
/// written, scanned, and resolved once per planned unit, so their
/// footprint is hot-path memory traffic.
#[derive(Clone, Copy, Debug)]
struct WriteSrc(u32);

impl WriteSrc {
    const PARITY: u32 = 1 << 31;

    fn data(i: usize) -> WriteSrc {
        debug_assert!((i as u32) < Self::PARITY);
        WriteSrc(i as u32)
    }

    fn parity(i: usize) -> WriteSrc {
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

/// The deferred full-stripe write plan: per-physical-disk buckets of
/// `(offset, source)` unit writes plus the parity staging buffer the
/// stripe accumulators live in. Sequential writes push offsets in
/// increasing order per disk, so flushing usually skips the sort.
#[derive(Debug)]
pub(crate) struct WritePlan {
    by_disk: Vec<Vec<(u32, WriteSrc)>>,
    parity: Vec<u8>,
    unsorted: bool,
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
    fn with_capacity(disks: usize, stripes: usize, units: usize, parity_unit_bytes: usize) -> Self {
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
pub(crate) struct PartialStripe {
    pub(crate) copy: usize,
    pub(crate) si: usize,
    pub(crate) units: std::ops::Range<usize>,
    /// A cache entry whose earlier flush failed part-way.
    pub(crate) requeued: bool,
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
}

/// Whether stripe `si` has a member on a failed disk.
fn degraded_stripe(st: &ArrayState, si: usize) -> bool {
    !st.failed.is_empty()
        && st.world.layout.stripes()[si].units().iter().any(|u| st.failed.contains(u.disk as usize))
}

impl<B: Backend> BlockStore<B> {
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
    /// Under [`crate::CachePolicy::WriteBack`] the write performs **no
    /// backend I/O**: the bytes land in the stripe cache and the
    /// parity maintenance is deferred to the stripe's flush, which
    /// combines every cached write into one parity update (the
    /// README's "Cache semantics" section gives the flush ordering).
    pub fn write_block(&self, addr: usize, data: &[u8]) -> Result<(), StoreError> {
        self.check_addr(addr)?;
        self.check_block_buf(data.len())?;
        let st = self.state_read();
        let m = st.world.smap.locate_full(addr);
        let (shard, key, j, k_data) = self.cache_coords(&st, &m, addr);
        let kind =
            if degraded_stripe(&st, m.stripe) { OpKind::DegradedWrite } else { OpKind::Write };
        self.client_op(st, kind, addr, 1, |st| {
            let wb = self.cache.is_write_back();
            {
                let (_g, contended) = self.locks.lock_one_counting(shard);
                if contended {
                    self.metrics.note_lock_contention();
                    self.events.emit(|| Event::LockContention { shard: shard as u32 });
                }
                if wb {
                    self.cache.write(shard, key, k_data, j, data);
                } else {
                    self.update_partial_stripe(st, m.copy, m.stripe, data, &[(j, 0)], false)?;
                }
                // The target world of an active reshape sees every
                // write, cached ones included — migration reads the
                // *backend* source bytes after flushing covered
                // stripes, while the dual write keeps already-migrated
                // target stripes fresh (see [`crate::reshape`]).
                if let Some(rs) = &st.reshape {
                    self.dual_write(rs, addr, data)?;
                }
            }
            if wb {
                // Eviction runs with the stripe lock released (one
                // victim shard at a time — see `evict_over_limit`).
                self.evict_over_limit(st)?;
            }
            Ok(0)
        })
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
    /// serialized. While a reshape is active, each block also lands in
    /// the target world under those guards, as a `write_block` would.
    pub fn write_blocks(&self, start: usize, data: &[u8]) -> Result<(), StoreError> {
        let n = self.check_span(start, data.len())?;
        if n == 0 {
            return Ok(());
        }
        let st = self.state_read();
        // Batch-level kind: any failure in the array classes the whole
        // batch degraded (per-stripe classification would walk every
        // stripe's members before any byte moves).
        let kind = if st.failed.is_empty() { OpKind::Write } else { OpKind::DegradedWrite };
        self.client_op(st, kind, start, n, |st| {
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
            // An active reshape's target world sees every block, each
            // dual write taking one target shard inside the batch's
            // source shard guards (the lock order `write_block` keeps).
            if let Some(rs) = &st.reshape {
                for (i, block) in data.chunks_exact(us).enumerate() {
                    self.dual_write(rs, start + i, block)?;
                }
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
    pub(crate) fn plan_stripe(
        &self,
        world: &World,
        start: usize,
        stripe_data: &[u8],
        base: usize,
        plan: &mut WritePlan,
        mut place: impl FnMut(StripeUnit) -> Option<PhysUnit>,
    ) {
        let us = self.unit_size;
        let head = world.smap.locate_full(start);
        let (copy, si) = (head.copy, head.stripe);
        let (p_slot, q_slot) = world.smap.parity_slots(si);
        // Parity accumulates directly in the plan's staging area — no
        // scratch round trip, no copy. P is *copy*-initialized from the
        // first data unit (then folds the rest), which saves a
        // zero-fill plus one accumulation pass per stripe; Q has no
        // such shortcut (its first term is already coefficient-scaled).
        let p_idx = plan.parity.len() / us;
        plan.parity.extend_from_slice(&stripe_data[..us]);
        if q_slot.is_some() {
            plan.parity.resize((p_idx + 2) * us, 0);
        }
        let (acc_p, acc_q) = plan.parity[p_idx * us..].split_at_mut(us);
        for (j, chunk) in stripe_data.chunks_exact(us).enumerate() {
            let m = world.smap.locate_full(start + j);
            debug_assert_eq!(m.stripe, si);
            let (p, q) = ((j > 0).then_some(&mut *acc_p), q_slot.is_some().then_some(&mut *acc_q));
            Syndromes { p, q }.fold(Role::Data(m.slot), chunk);
        }
        let data = (0..stripe_data.len() / us)
            .map(|j| (world.smap.locate_full(start + j).unit, WriteSrc::data(base + j)));
        let parity = std::iter::once((p_slot, p_idx)).chain(q_slot.map(|qs| (qs, p_idx + 1)));
        let parity = parity.map(|(slot, i)| (world.unit(copy, si, slot), WriteSrc::parity(i)));
        for (u, src) in data.chain(parity) {
            if let Some(at) = place(u) {
                plan.push(at, src);
            }
        }
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
        self.io().write_runs(&runs, &srcs, Priority::Client)
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
    /// mismatch — a corrupt unit about to be folded into parity — is
    /// noted before anything of the unit in hand has landed: the
    /// update stops, and [`sweep_repairing`] repairs the stripe under
    /// the lock already held and retries the update once. A *client*
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
        let res = sweep_repairing(
            |bad| {
                for set in dirty.chunks(per_update) {
                    let mut p = self.route(st, copy, si, set, requeued, degraded);
                    self.update_alone(st, &mut p, data, &mut round, bad)?;
                    if bad.any() {
                        break;
                    }
                }
                Ok(())
            },
            |copy, si| self.repair_stripe_locked(st, copy, si).map(drop),
        );
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
    /// round is read again, once ([`sweep_repairing`]; the caller holds
    /// their shard locks). A degraded stripe is updated alone,
    /// unit by unit, before this returns.
    pub(crate) fn update_partial_stripes(
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
            sweep_repairing(
                |bad| self.read_partials(st, parts, &mut round, bad),
                |copy, si| self.repair_stripe_locked(st, copy, si).map(drop),
            )?;
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
    /// decodes that unit first. A mismatch noted in `bad`, by the
    /// decode or the read round, stops the update before its writes.
    fn update_alone(
        &self,
        st: &ArrayState,
        p: &mut Partial<'_>,
        data: &[u8],
        round: &mut ReadRound,
        bad: &mut Mismatches,
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
                Some((slot, s)) => match self.decode_stripe(st, p.copy, p.si, s, bad)? {
                    Some(solved) => Some((*slot, solved.get(s, *slot)?)),
                    None => return Ok(()),
                },
                None => None,
            };
            self.read_partials(st, std::slice::from_mut(p), round, bad)?;
            if bad.any() {
                return Ok(());
            }
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
            self.io().write_runs(&runs[..n], &srcs[..n], Priority::Client)
        })();
        if let Some((_, s)) = dec {
            self.scratch.put(s);
        }
        res
    }

    /// Stages the reads of every update in `parts` in `round` — each a
    /// block of units laid out `[P][Q][reads…]` — and issues them as
    /// one dispatcher round at client priority, each checked unit
    /// verified as it lands and a mismatch noted in `bad` against its
    /// update's stripe.
    fn read_partials(
        &self,
        st: &ArrayState,
        parts: &mut [Partial<'_>],
        round: &mut ReadRound,
        bad: &mut Mismatches,
    ) -> Result<(), StoreError> {
        let w = &*st.world;
        let (us, np) = (self.unit_size, self.scheme.parity_per_stripe());
        let ReadRound { runs, of, units } = round;
        runs.clear();
        of.clear();
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
        let (runs, of, parts) = (&*runs, &*of, &*parts);
        self.io().read_into(runs, units, Priority::Client, |r, unit| {
            let (run, (i, checked)) = (&runs[r], of[r]);
            if checked && !self.integrity.sums.verify([(run.disk, run.first, unit)], |_| {}) {
                bad.note((parts[i].copy, parts[i].si), run.disk, run.first);
            }
        })
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
}
