//! Online rebuild: restore failed disks onto spares, stripe by
//! stripe, with bounded parallelism, and report the per-disk read
//! traffic — the measurement that turns the paper's (k−1)/(v−1)
//! declustering claim into an observable property of real bytes.
//!
//! Workers operate on *chunks* of consecutive spare offsets: each
//! chunk's surviving stripe members are prefetched per disk in
//! coalesced runs (one vectored backend call per run) and the
//! reconstructed units land on the spare in one vectored write, so
//! the backend call count scales with chunks and disks, not units.
//! The per-disk *unit* counts are identical to a unit-at-a-time
//! rebuild — batching changes how reads are issued, never which units
//! are read — so the declustering measurement is unchanged.
//!
//! **One sweep per survivor.** After the prefetch lands, each target
//! unit's survivors are checksum-checked and folded into it where
//! they lie in the prefetch — no verify pass over the whole chunk, no
//! copy into a transfer buffer. A single erasure folds straight into
//! the output unit; a stripe crossing a second failed disk takes the
//! two-erasure solve in the same sweep. The prefetch is the only copy
//! of a survivor's bytes. A mismatching survivor discards the chunk's
//! output; its stripe is repaired under the exclusive lock and the
//! chunk retried once, so a corrupt survivor never reaches the spare.
//!
//! **Chunks bounded by bytes.** A chunk is at most
//! min([`Rebuilder::chunk_size`], 256 KiB ÷ unit size) units — 128 at
//! 512 B, 64 at 4 KiB, 4 at 64 KiB — so its prefetch (k−1 survivors
//! per unit) plus its output stay cache-resident while the sweep runs
//! over them.
//!
//! **The spare write stays in flight.** A worker is a depth-2
//! pipeline: chunk i's spare write goes out through the store's I/O
//! dispatcher, and while it lands the same worker locks, prefetches and
//! sweeps chunk i+1, so the spare and the survivors work at once. Chunk
//! i+1's write then goes out, so the spare has work queued, and only
//! then does chunk i land — its checksums recorded for exactly what
//! reached the spare, its units booked — and drop its guards. Each
//! worker therefore owns two output buffers (2 × 256 KiB at most), and
//! holds the guards of at most two chunks. With the engine off, or the
//! spare served inline, the write has landed when it is submitted and a
//! chunk runs start to finish before the next begins.
//!
//! Rebuilds take `&BlockStore` and may run **concurrently with live
//! client traffic**: the rebuild registers itself in the store's
//! failure-epoch state, each chunk holds its stripes' shard locks
//! (shared) from before its prefetch until its spare write has landed,
//! and writes that race the rebuild are written through to the spare
//! (see the store module docs), so the spare is bit-exact when the
//! redirect flips. The lock hand-off never blocks while a chunk's
//! guards are held: chunk i+1's shards are tried all or nothing, and
//! if one is contended chunk i lands and drops its guards before chunk
//! i+1 locks as usual. Chunk i also lands before a stripe repair takes
//! its exclusive lock and before an error returns, and every worker's
//! last write lands before the rebuild completes or aborts — so no
//! spare write lands after the redirect flips or the rebuild
//! unregisters.
//! Only one rebuild may run at a time
//! ([`crate::StoreError::RebuildInProgress`]).
//!
//! A single failure rebuilds in one pass ([`Rebuilder::rebuild`]).
//! A double failure (P+Q stores) rebuilds in **two phases**
//! ([`Rebuilder::rebuild_all`]): phase one erasure-decodes the first
//! disk while both are missing (two-erasure solve on stripes crossing
//! both), phase two rebuilds the second against an array that already
//! includes the first spare — so its decode degenerates to the cheap
//! single-erasure path. Each phase gets its own [`RebuildReport`] with
//! per-surviving-disk read counts.
//!
//! The report arrives when the rebuild *finishes*; while one is
//! running, [`BlockStore::rebuild_progress`] snapshots the same
//! accounting live — units done/total, per-disk reads so far, elapsed
//! time — so the (k−1)/(v−1) read fraction is observable mid-flight
//! (`crates/store/tests/io_accounting.rs` asserts it against racing
//! client traffic).

use crate::backend::Backend;
use crate::codec::{Decode, Scratch};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::io::{Run, Writes};
use crate::meta::Record;
use crate::obs::{Event, OpKind};
use crate::repair::{sweep_repairing, Mismatches};
use crate::store::{sort_shard_set, ArrayState, BlockStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLockReadGuard};
use std::time::{Duration, Instant};

/// What a completed rebuild phase did, and to whom.
#[derive(Clone, Debug)]
pub struct RebuildReport {
    /// The logical disk that was failed and has been restored.
    pub failed_disk: usize,
    /// The physical backend disk now serving it.
    pub spare_disk: usize,
    /// Logical disks that were *also* failed during this phase (empty
    /// for a single-failure rebuild; holds the not-yet-rebuilt disk
    /// during phase one of a double rebuild).
    pub also_failed: Vec<usize>,
    /// Units reconstructed and written to the spare.
    pub units_rebuilt: usize,
    /// Units read from each *logical* disk during the rebuild
    /// (entries for `failed_disk` and `also_failed` are 0: their
    /// media are gone), less the repair work of a chunk retried after
    /// a checksum mismatch — its discarded prefetch and the stripe
    /// repairs' reads. The same count as
    /// [`crate::RebuildProgress::per_disk_reads`].
    pub per_disk_reads: Vec<u64>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the rebuild.
    pub elapsed: Duration,
}

impl RebuildReport {
    fn is_survivor(&self, d: usize) -> bool {
        d != self.failed_disk && !self.also_failed.contains(&d)
    }

    /// Minimum and maximum units read across *surviving* disks.
    pub fn surviving_read_range(&self) -> (u64, u64) {
        let surv = self
            .per_disk_reads
            .iter()
            .enumerate()
            .filter(|&(d, _)| self.is_survivor(d))
            .map(|(_, &c)| c);
        (surv.clone().min().unwrap_or(0), surv.max().unwrap_or(0))
    }

    /// Spread of the surviving-disk read load: `(max − min) / max`.
    /// 0.0 is a perfectly declustered rebuild.
    pub fn read_imbalance(&self) -> f64 {
        let (min, max) = self.surviving_read_range();
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }

    /// Mean fraction of a surviving disk read during the rebuild —
    /// declustering predicts (k−1)/(v−1) per failed disk, RAID5
    /// reads 1.0.
    pub fn mean_read_fraction(&self) -> f64 {
        let surviving = (self.per_disk_reads.len() - 1 - self.also_failed.len()) as f64;
        let total: u64 = self
            .per_disk_reads
            .iter()
            .enumerate()
            .filter(|&(d, _)| self.is_survivor(d))
            .map(|(_, &c)| c)
            .sum();
        total as f64 / surviving / self.units_rebuilt.max(1) as f64
    }
}

/// Stripe-by-stripe reconstruction of failed disks onto spares.
#[derive(Clone, Copy, Debug)]
pub struct Rebuilder {
    workers: usize,
    chunk: usize,
}

/// Default upper bound on units per rebuild chunk. Each chunk pays
/// one state-guard acquisition plus one shard-lock acquisition per
/// distinct stripe it covers, so larger chunks amortize the
/// concurrency machinery (the shard count caps the locks per chunk at
/// 64 however large the chunk grows) on top of the vectored-IO
/// batching — up to [`CHUNK_BYTES`].
const DEFAULT_CHUNK: usize = 128;

/// Bytes of output per rebuild chunk, at most: the chunk's prefetch
/// and output must still be in cache when its one sweep folds them.
const CHUNK_BYTES: usize = 256 << 10;

impl Default for Rebuilder {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        Rebuilder { workers, chunk: DEFAULT_CHUNK }
    }
}

impl Rebuilder {
    /// A rebuilder with a fixed worker count (`0` is clamped to 1).
    pub fn new(workers: usize) -> Self {
        Rebuilder { workers: workers.max(1), chunk: DEFAULT_CHUNK }
    }

    /// At most this many units reconstructed per claimed work item
    /// (the chunk is also bounded to 256 KiB of output); tune for
    /// backend latency (larger chunks amortize queue contention).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Rebuilds the **lowest-numbered** failed disk onto physical disk
    /// `spare`: reconstructs every unit from surviving stripe members,
    /// writes it to the spare, then redirects the logical disk onto the
    /// spare and removes it from the failure set. Client reads *and
    /// writes* keep working throughout — the store write-throughs
    /// racing writes to the spare, so no quiescing is needed. Works
    /// while a second disk is failed too — the decode just pays the
    /// two-erasure price on shared stripes.
    pub fn rebuild<B: Backend>(
        &self,
        store: &BlockStore<B>,
        spare: usize,
    ) -> Result<RebuildReport, StoreError> {
        let failed = store.failed_disk().ok_or(StoreError::NothingToRebuild)?;
        self.rebuild_one(store, failed, spare)
    }

    /// Rebuilds every failed disk, in ascending disk order, onto the
    /// given spares (`spares[i]` receives the i-th failed disk). This
    /// is the two-phase double-failure rebuild when two disks are
    /// down; each phase is reported separately.
    pub fn rebuild_all<B: Backend>(
        &self,
        store: &BlockStore<B>,
        spares: &[usize],
    ) -> Result<Vec<RebuildReport>, StoreError> {
        let failed: Vec<usize> = store.failed_disks().iter().collect();
        if failed.is_empty() {
            return Err(StoreError::NothingToRebuild);
        }
        if spares.len() < failed.len() {
            return Err(StoreError::SparesExhausted { failed: failed.len(), spares: spares.len() });
        }
        // Validate every spare up front — a duplicate or invalid later
        // spare must not abort after phase one has already mutated and
        // persisted the store.
        let used = &spares[..failed.len()];
        for (i, &s) in used.iter().enumerate() {
            if s >= store.backend().disks()
                || (0..store.v()).any(|d| store.physical_disk(d) == s)
                || used[..i].contains(&s)
            {
                return Err(StoreError::InvalidSpare(s));
            }
        }
        let mut reports = Vec::with_capacity(failed.len());
        for (&disk, &spare) in failed.iter().zip(spares) {
            reports.push(self.rebuild_one(store, disk, spare)?);
        }
        Ok(reports)
    }

    /// One rebuild phase: a specific failed disk onto a specific spare.
    fn rebuild_one<B: Backend>(
        &self,
        store: &BlockStore<B>,
        failed: usize,
        spare: usize,
    ) -> Result<RebuildReport, StoreError> {
        // Registers the rebuild (validating the disk and spare under
        // the exclusive state guard): from here until completion or
        // abort, racing writes are written through to the spare.
        store.begin_rebuild(failed, spare)?;
        let also_failed: Vec<usize> =
            store.failed_disks().iter().filter(|&d| d != failed).collect();
        let units = store.backend().units_per_disk();
        let start = Instant::now();

        let chunk = self.chunk.min(CHUNK_BYTES / store.unit_size()).max(1);
        let next = AtomicUsize::new(0);
        let first_error: Mutex<Option<StoreError>> = Mutex::new(None);
        let shared: &BlockStore<B> = store;
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| {
                    // Each worker claims chunks of consecutive spare
                    // offsets (see `rebuild_chunk`).
                    let mut worker =
                        RebuildWorker::new(shared.unit_size(), chunk * shared.unit_size());
                    let res = loop {
                        let at = next.fetch_add(chunk, Ordering::Relaxed);
                        // Poison-proof locking throughout: a panicking
                        // sibling worker poisons the mutex, and dying
                        // on `PoisonError` here would replace the
                        // original panic (which names the seed in
                        // stress runs) with a useless one.
                        if at >= units
                            || first_error.lock().unwrap_or_else(|e| e.into_inner()).is_some()
                        {
                            break Ok(());
                        }
                        let n = chunk.min(units - at);
                        if let Err(e) = shared.rebuild_chunk(&mut worker, failed, spare, at, n) {
                            break Err(e);
                        }
                    };
                    // The worker's last spare write lands before it
                    // ends, also after an error.
                    let landed = shared.land_pending(&mut worker.pending, &mut worker.free);
                    if let Err(e) = res.and(landed) {
                        first_error.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(e);
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            store.abort_rebuild();
            return Err(e);
        }

        // The live progress's count: backend reads since registration,
        // less repair work.
        let progress = store.rebuild_progress().expect("registered until complete_rebuild");
        let per_disk_reads: Vec<u64> = (progress.per_disk_reads.iter().enumerate())
            .map(|(d, &r)| if also_failed.contains(&d) { 0 } else { r })
            .collect();
        // Flips the redirect, destages the cache and makes the spare
        // durable before the document names it (one backend flush).
        store.complete_rebuild(failed, spare)?;
        Ok(RebuildReport {
            failed_disk: failed,
            spare_disk: spare,
            also_failed,
            units_rebuilt: units,
            per_disk_reads,
            workers: self.workers,
            elapsed: start.elapsed(),
        })
    }
}

/// One rebuild worker's state from chunk to chunk: its decode scratch,
/// its two chunk output buffers — one filling while the other may be
/// in flight — and the chunk whose spare write has not landed yet (see
/// [`BlockStore::rebuild_chunk`]).
struct RebuildWorker<'s> {
    scratch: Scratch,
    free: Vec<Vec<u8>>,
    pending: Option<SpareWrite<'s>>,
}

impl RebuildWorker<'_> {
    /// A worker for chunks of at most `bytes` bytes of output.
    fn new(unit_size: usize, bytes: usize) -> Self {
        RebuildWorker {
            scratch: Scratch::new(unit_size),
            free: vec![vec![0; bytes], vec![0; bytes]],
            pending: None,
        }
    }
}

/// A rebuilt chunk on its way to the spare: the write round, what it
/// writes where, and the guards it holds until the round lands.
struct SpareWrite<'s> {
    round: Writes,
    spare: usize,
    start: usize,
    out: Vec<u8>,
    submitted: Instant,
    guards: Vec<RwLockReadGuard<'s, ()>>,
    st: RwLockReadGuard<'s, ArrayState>,
}

impl<B: Backend> BlockStore<B> {
    /// Registers a rebuild of `failed` onto physical `spare`,
    /// validating both under the exclusive state guard (so two
    /// rebuilds cannot race each other, and the spare cannot be
    /// concurrently mapped). Pairs with `complete_rebuild` or
    /// `abort_rebuild`.
    fn begin_rebuild(&self, failed: usize, spare: usize) -> Result<(), StoreError> {
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
        // either flushed through the write-through path or destaged by
        // the completion's drain.
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
    fn abort_rebuild(&self) {
        let mut st = self.state_write();
        st.rebuilding = None;
        st.epoch += 1;
        self.rb_tracker.finish();
        self.events.emit(|| Event::RebuildAborted { epoch: st.epoch });
    }

    /// Completes a registered rebuild: flips the redirect onto the
    /// spare and clears the failure in memory, destages the cache by
    /// the now-healthy routes, then runs the durability barrier — all
    /// under the exclusive guard, so no in-flight op observes the new
    /// redirect before the spare is synced and the document names it.
    /// If the drain or the barrier fails, the failure and the redirect
    /// are restored: the store stays degraded, the document still names
    /// the failed disk, and a retried rebuild completes.
    fn complete_rebuild(&self, failed: usize, spare: usize) -> Result<(), StoreError> {
        let mut st = self.state_write();
        debug_assert_eq!(st.rebuilding, Some((failed, spare)), "completion matches registration");
        let was = std::mem::replace(&mut st.redirect[failed], spare);
        st.failed.remove(failed);
        st.rebuilding = None;
        st.epoch += 1;
        self.rb_tracker.finish();
        let destaged = self.cache.maybe_dirty();
        let durable =
            self.flush_cache_locked(&st).and_then(|()| self.persist(Record::Serving(&st)));
        if let Err(e) = durable {
            st.redirect[failed] = was;
            st.failed.insert(failed);
            if destaged {
                // Destaged units of the failed disk landed on the spare
                // only, so its old medium may be stale: stripe 0 stands
                // witness unless a skipping write already recorded one.
                st.world.stale[failed].fetch_max(1, Ordering::AcqRel);
            }
            st.epoch += 1;
            self.events.emit(|| Event::RebuildAborted { epoch: st.epoch });
            return Err(e);
        }
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
        Ok(())
    }

    /// One chunk (see the [module docs](self)): reconstructs the `n`
    /// consecutive units of `disk` starting at `start` and puts them on
    /// their way to physical disk `spare` as one write, which may stay
    /// in flight past the return, in `w`. The chunk's stripe shards
    /// are held *shared* from before the prefetch until that write has
    /// landed, so the spare write cannot clobber a write-through that
    /// happened after the decode. After an error the caller lands
    /// whatever is left with [`BlockStore::land_pending`].
    fn rebuild_chunk<'s>(
        &'s self,
        w: &mut RebuildWorker<'s>,
        disk: usize,
        spare: usize,
        start: usize,
        n: usize,
    ) -> Result<(), StoreError> {
        let us = self.unit_size;
        // While the earlier chunk's write is in flight (only then is one
        // pending), this chunk's guards are tried without blocking:
        // blocking with the earlier chunk's held could deadlock against
        // a writer's ordered acquisition, and `try_read` also fails while
        // a failure transition waits for the state guard.
        let st = match w.pending.as_ref().and_then(|_| self.state.try_read().ok()) {
            Some(st) => st,
            None => {
                self.land_pending(&mut w.pending, &mut w.free)?;
                self.state_read()
            }
        };
        let wd = st.world.clone();
        let size = wd.layout.size();
        // Two-phase acquisition: every stripe this chunk decodes,
        // sorted by shard, locked shared before any byte is read.
        let mut shards: Vec<usize> = (start..start + n)
            .map(|offset| {
                let r = wd.layout.unit_ref(disk, offset % size);
                self.locks.shard_of(offset / size, r.stripe as usize)
            })
            .collect();
        sort_shard_set(&mut shards);
        let mut handed =
            w.pending.as_ref().and_then(|_| self.locks.try_lock_sorted_shared(&shards));
        if handed.is_none() {
            self.land_pending(&mut w.pending, &mut w.free)?;
        }
        let RebuildWorker { scratch, free, pending } = w;
        let mut out = free.pop().expect("one buffer filling, at most one in flight");
        out.resize(n * us, 0);
        let logical = |pd: usize| st.redirect.iter().position(|&p| p == pd);
        // A corrupt survivor must never reach the spare: a sweep that
        // meets one discards the chunk's output, its stripe is
        // repaired in place (exclusive lock, after the shared guards
        // drop) and the chunk retried once.
        let attempt = |bad: &mut Mismatches| -> Result<_, StoreError> {
            let guards = handed.take().unwrap_or_else(|| self.locks.lock_sorted_shared(&shards));
            let cache = &mut scratch.cache;
            // Gather every surviving stripe member the decodes below
            // will touch. Distinct target offsets live in distinct
            // stripes, and stripes never share units, so the want-list
            // is duplicate-free and the per-disk unit counts stay
            // identical to the per-unit path — only the call count
            // drops.
            cache.wants.clear();
            for offset in start..start + n {
                let shift = (offset / size * size) as u32;
                let r = wd.layout.unit_ref(disk, offset % size);
                for u in wd.layout.stripes()[r.stripe as usize].units() {
                    if u.disk as usize == disk || st.failed.contains(u.disk as usize) {
                        continue;
                    }
                    cache.push_want(st.redirect[u.disk as usize] as u32, u.offset + shift);
                }
            }
            let t0 = Instant::now();
            cache.fill(&self.io(), us, Priority::Maintenance)?;
            // The chunk's surviving-member prefetch *is* the rebuild
            // read load; timed unconditionally (chunks are large, the
            // two Instant reads vanish against the vectored I/O).
            let prefetch_ns = t0.elapsed().as_nanos() as u64;
            self.metrics.record_op(OpKind::RebuildRead, cache.wants.len() as u64, prefetch_ns);
            // One sweep: each target unit's survivors are checked, then
            // folded while still in cache — a single erasure straight
            // into the output unit, a stripe crossing a second failed
            // disk through the two-erasure solve (alone: it needs the
            // scratch's accumulators). Two single-erasure targets are
            // checked as one batch, so two k = 5 stripes' survivors fill
            // a hash group of eight.
            let target = |i: usize| -> Result<_, StoreError> {
                let offset = start + i;
                let r = wd.layout.unit_ref(disk, offset % size);
                let (si, slot) = (r.stripe as usize, r.slot as usize);
                let (lost, nlost) = self.lost_slots(&st, si, &[slot])?;
                Ok((offset / size, si, slot, lost, nlost))
            };
            let mut units = out.chunks_exact_mut(us).enumerate().peekable();
            while let Some((i, unit)) = units.next() {
                let (copy, si, slot, lost, nlost) = target(i)?;
                let (p_slot, q_slot) = wd.smap.parity_slots(si);
                if nlost > 1 {
                    let (acc_p, acc_q) = (&mut scratch.acc_p, &mut scratch.acc_q);
                    let dec = Decode::new(acc_p, acc_q, p_slot, q_slot, &lost[..nlost]);
                    let mut alone = [(copy, si, dec)];
                    self.fold_checked(&st, &mut alone, &scratch.cache, bad)?;
                    let [(.., dec)] = alone;
                    let solved = dec.solve();
                    unit.copy_from_slice(solved.get(scratch, slot)?);
                    continue;
                }
                let first = (copy, si, Decode::into_unit(unit, p_slot, q_slot, slot));
                let second = match units.peek() {
                    Some(&(j, _)) => Some(target(j)?).filter(|&(.., nlost)| nlost == 1),
                    None => None,
                };
                if let Some((copy, si, slot, ..)) = second {
                    let (_, unit) = units.next().expect("peeked");
                    let (p_slot, q_slot) = wd.smap.parity_slots(si);
                    let mut pair =
                        [first, (copy, si, Decode::into_unit(unit, p_slot, q_slot, slot))];
                    self.fold_checked(&st, &mut pair, &scratch.cache, bad)?;
                    for (.., dec) in pair {
                        dec.solve();
                    }
                } else {
                    let mut alone = [first];
                    self.fold_checked(&st, &mut alone, &scratch.cache, bad)?;
                    let [(.., dec)] = alone;
                    dec.solve();
                }
            }
            if bad.any() {
                // The discarded prefetch is repair work, not
                // reconstruction load.
                self.rb_tracker.note_repair_reads(
                    scratch.cache.wants.iter().filter_map(|&(pd, _)| logical(pd as usize)),
                );
            }
            Ok(guards)
        };
        let guards = sweep_repairing(attempt, |copy, si| {
            // The earlier chunk's guards may cover this stripe.
            self.land_pending(pending, free)?;
            // The repair reads every live unit of the stripe: repair
            // work too.
            self.rb_tracker.note_repair_reads(
                wd.layout.stripes()[si]
                    .units()
                    .iter()
                    .map(|u| u.disk as usize)
                    .filter(|&d| !st.failed.contains(d)),
            );
            self.repair_stripe(&st, copy, si)
        })?;
        // This chunk's write goes out before the earlier chunk lands,
        // so the spare has work queued while the worker waits for it;
        // the earlier chunk's buffer is free again before the next
        // chunk needs one.
        let run = [Run { disk: spare, first: start, parts: 0..1 }];
        let submitted = Instant::now();
        let round = self.io().submit_writes(&run, &[&out], Priority::Maintenance);
        let mut earlier =
            pending.replace(SpareWrite { round, spare, start, out, submitted, guards, st });
        self.land_pending(&mut earlier, free)?;
        if !pending.as_ref().is_some_and(|p| p.round.in_flight()) {
            self.land_pending(pending, free)?;
        }
        Ok(())
    }

    /// Waits for `pending`'s spare write, if any — a worker's last
    /// chunk lands here, and so does whatever is in flight when a chunk
    /// fails. Its landing records the checksums of exactly the units
    /// that reached the spare, which becomes the live medium when its
    /// rebuild's redirect flips; then the chunk is booked, and only
    /// then are its guards dropped and its buffer freed.
    fn land_pending(
        &self,
        pending: &mut Option<SpareWrite<'_>>,
        free: &mut Vec<Vec<u8>>,
    ) -> Result<(), StoreError> {
        let Some(SpareWrite { round, spare, start, out, submitted, guards, st }) = pending.take()
        else {
            return Ok(());
        };
        let us = self.unit_size;
        let run = [Run { disk: spare, first: start, parts: 0..1 }];
        let landed = self.io().land(round, &run, &[&out]);
        if landed.is_ok() {
            let n = (out.len() / us) as u64;
            self.metrics.record_op(OpKind::SpareWrite, n, submitted.elapsed().as_nanos() as u64);
            self.rb_tracker.add_done(n);
        }
        // Shard guards nest inside the state guard.
        drop(guards);
        drop(st);
        free.push(out);
        landed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rebuild's lock handoff under contention: a writer holds a
    /// shard of chunk 2 exclusive while chunk 1's spare write is in
    /// flight, so chunk 2's non-blocking try fails and the worker lands
    /// chunk 1 before it blocks — chunk 1's units are done while the
    /// writer still holds the shard. A worker that blocked on chunk 2
    /// with chunk 1's guards held would leave them undone until then.
    #[test]
    fn rebuild_lands_its_chunk_before_blocking_on_a_contended_next_chunk() {
        use crate::backend::MemBackend;
        use crate::engine::EngineConfig;
        use std::time::Duration;
        const US: usize = 64;
        const CHUNK: usize = 4;
        let layout = pdl_core::RingLayout::for_v_k(9, 4).layout().clone();
        let units = 2 * layout.size();
        let store = BlockStore::new(layout, MemBackend::new(10, units, US)).unwrap();
        let data: Vec<u8> = (0..store.blocks() * US).map(|i| (i % 233) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        store.fail_disk(2).unwrap();
        // The spare's first write queues (its disk is not yet timed),
        // so chunk 1 is in flight when chunk 2 is tried.
        store.start_engine(EngineConfig::default());
        let w = store.state_read().world.clone();
        let shard =
            |offset: usize| store.locks.shard_of(0, w.layout.unit_ref(2, offset).stripe as usize);
        let first: Vec<usize> = (0..CHUNK).map(shard).collect();
        let contended = (CHUNK..2 * CHUNK)
            .map(shard)
            .find(|s| !first.contains(s))
            .expect("chunk 2 has a shard chunk 1 does not");
        let (writer, _) = store.locks.lock_one_counting(contended);
        let landed = std::thread::scope(|s| {
            let rebuild = s.spawn(|| Rebuilder::new(1).chunk_size(CHUNK).rebuild(&store, 9));
            let deadline = Instant::now() + Duration::from_secs(5);
            let landed = loop {
                if store.rebuild_progress().is_some_and(|p| p.units_done >= CHUNK as u64) {
                    break true;
                }
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::yield_now();
            };
            drop(writer);
            rebuild.join().expect("rebuild thread").unwrap();
            landed
        });
        assert!(landed, "chunk 1 did not land while chunk 2 was contended");
        let mut back = vec![0u8; data.len()];
        store.read_blocks(0, &mut back).unwrap();
        assert!(back == data, "the rebuilt store returns the original bytes");
        store.verify_parity().unwrap();
    }
}
