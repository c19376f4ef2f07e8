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
use crate::error::StoreError;
use crate::store::{BlockStore, RebuildWorker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
                    // Each worker claims a chunk of consecutive spare
                    // offsets; `rebuild_chunk` prefetches every
                    // surviving stripe member the chunk's decodes need
                    // in coalesced per-disk runs (one vectored read
                    // per run), checks and folds each where it lies,
                    // and sends the chunk to the spare as one write —
                    // all under the chunk's stripe shard locks, so
                    // racing client writes serialize per stripe. That
                    // write may land while the worker reads its next
                    // chunk.
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
                    let landed = shared.land_spare(&mut worker);
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
