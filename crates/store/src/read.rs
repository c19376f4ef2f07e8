//! The read path: healthy and degraded block reads, and the parity
//! scan.
//!
//! Healthy single-unit reads skip the stripe locks entirely: the
//! backend guarantees unit-granular atomicity, and a read that races
//! a write may see the old or the new unit, never a torn one. A
//! multi-block call is atomic per block, not across blocks. A read of
//! a unit on a failed disk takes its stripe's shard shared and decodes
//! the stripe (`decode_stripe`, in `repair.rs`). Every read probes the
//! write-back cache first, and every read that meets a corrupt unit
//! repairs its stripe and retries through `sweep_repairing`.
//!
//! The one direct single-unit helper, `read_unit` (keyed by physical
//! `(disk, offset)`, retried, raw), serves a healthy `read_block` and
//! the parity scan; every other backend read goes through the `io.rs`
//! dispatcher.
//!
//! A batch read verifies its healthy units in groups of eight as their
//! runs land, one `ChecksumTable::verify` per group, so the batch hash
//! kernel steps eight units together; a mismatch is charged to its
//! unit's block by the group position it reports.

use crate::backend::Backend;
use crate::codec::{self, Decoded, Role, Syndromes};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::integrity::ChecksumTable;
use crate::io::Run;
use crate::obs::OpKind;
use crate::repair::sweep_repairing;
use crate::scheme::ParityScheme;
use crate::store::{sort_shard_set, ArrayState, BlockStore, PhysUnit};
use pdl_core::StripeUnit;

/// Largest hole (in units) a coalesced read run will bridge — units
/// in a bridged gap are read into a discard buffer so the run stays
/// one backend call. Small single-parity holes merge; larger holes
/// (e.g. a layout's clustered parity region) split the run instead,
/// because reading a wide hole through the page cache costs more in
/// moved bytes than the saved backend call is worth.
const READ_GAP_BRIDGE: usize = 2;

impl<B: Backend> BlockStore<B> {
    /// The one direct single-unit read, retried on transient errors
    /// and raw: a caller that must verify the unit checks it itself
    /// (`read_block` notes a mismatch for its sweep; the parity scan
    /// takes the bytes as they are).
    fn read_unit(&self, at: PhysUnit, buf: &mut [u8]) -> Result<(), StoreError> {
        let PhysUnit { disk, offset, .. } = at;
        self.integrity.retrying(disk, || self.backend.read_unit(disk, offset, &mut *buf))
    }

    /// Reads logical block `addr` into `buf` (`unit_size` bytes),
    /// reconstructing from parity when the owning disk is failed.
    ///
    /// Healthy reads take no stripe lock (unit reads are atomic at
    /// the backend); degraded reads hold the stripe's shard lock
    /// shared, so concurrent decodes overlap but a concurrent writer
    /// to the stripe is excluded mid-update. A checksum mismatch — on
    /// this block's unit or among the survivors its decode read — sits
    /// in this block's stripe: the stripe is repaired under its
    /// exclusive lock and the read retried once, where a second
    /// mismatch is [`StoreError::ChecksumMismatch`].
    pub fn read_block(&self, addr: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check_addr(addr)?;
        self.check_block_buf(buf.len())?;
        let st = self.state_read();
        let m = st.world.smap.locate_full(addr);
        let degraded = st.failed.contains(m.unit.disk as usize);
        let kind = if degraded { OpKind::DegradedRead } else { OpKind::Read };
        self.client_op(st, kind, addr, 1, |st| {
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
            let mut scratch = degraded.then(|| self.scratch.get());
            let res = sweep_repairing(
                |bad| {
                    match &mut scratch {
                        None => {
                            let at = PhysUnit::live(st, m.unit);
                            self.read_unit(at, buf)?;
                            if !self.integrity.sums.verify([(at.disk, at.offset, &*buf)], |_| {}) {
                                bad.note((m.copy, m.stripe), at.disk, at.offset);
                            }
                        }
                        Some(s) => {
                            let shard = self.locks.shard_of(m.copy, m.stripe);
                            let _g = self.locks.lock_one_shared(shard);
                            if let Some(solved) =
                                self.decode_stripe(st, m.copy, m.stripe, s, bad)?
                            {
                                buf.copy_from_slice(solved.get(s, m.slot)?);
                            }
                        }
                    }
                    Ok(0)
                },
                |copy, si| self.repair_stripe(st, copy, si),
            );
            if let Some(s) = scratch {
                self.scratch.put(s);
            }
            res
        })
    }

    /// The healthy half of [`BlockStore::read_blocks`]: coalesces
    /// each per-disk bucket of `(offset, block index)` into runs,
    /// *bridging* the small parity-unit holes a data scan never wants
    /// (the hole is read into a discard buffer so the run stays one
    /// backend call), and reads them through the dispatcher — each
    /// run one scatter read straight into the caller's chunks — the
    /// wanted units verified eight at a time as their runs land; a
    /// mismatch is noted against its block's stripe, which is repaired
    /// before the runs are read again, once ([`sweep_repairing`]).
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
        // The wanted units are verified as their runs land, a group of
        // eight at a time as it fills (so with the engine on, hashing
        // overlaps the runs still in flight) and the last, partial group
        // once the round is in; a hole's discard slice is skipped, not
        // checked. A group is `(buffer, disk, offset, block)`.
        let io = self.io();
        let mut group: Vec<(usize, usize, u32, u32)> = Vec::with_capacity(ChecksumTable::GROUP);
        sweep_repairing(
            |bad| {
                let mut verify = |bufs: &[&mut [u8]], group: &mut Vec<(usize, usize, u32, u32)>| {
                    let units =
                        group.iter().map(|&(b, disk, off, _)| (disk, off as usize, &*bufs[b]));
                    self.integrity.sums.verify(units, |i| {
                        let (_, disk, off, blk) = group[i];
                        let m = st.world.smap.locate_full(start + blk as usize);
                        bad.note((m.copy, m.stripe), disk, off as usize);
                    });
                    group.clear();
                };
                io.read_runs(&runs, &mut bufs, Priority::Client, |i, bufs| {
                    let (run, span) = (&runs[i], &by_disk[runs[i].disk][spans[i].clone()]);
                    let (mut part, mut at) = (run.parts.start, run.first as u32);
                    for &(off, blk) in span {
                        part += 1 + usize::from(off > at);
                        at = off + 1;
                        group.push((part - 1, run.disk, off, blk));
                        if group.len() == ChecksumTable::GROUP {
                            verify(bufs, &mut group);
                        }
                    }
                })?;
                verify(&bufs, &mut group);
                Ok(())
            },
            |copy, si| self.repair_stripe(st, copy, si),
        )
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
        match self.check_span(start, buf.len())? {
            0 => Ok(()),
            1 => self.read_block(start, buf),
            // The batch records one `Read` span; blocks served by
            // stripe decode move their units to `DegradedRead` at the
            // end.
            n => self.client_op(self.state_read(), OpKind::Read, start, n, |st| {
                self.read_blocks_locked(st, start, buf)
            }),
        }
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
        // are held shared for the whole decode sweep (two-phase, sorted
        // — same discipline as the writers' exclusive acquisition). A
        // stripe whose decode meets a corrupt survivor is noted and its
        // blocks left unserved; once the noted stripes are repaired
        // (exclusive, with the shared guards released), the second
        // sweep decodes only the stripes whose blocks are still unserved.
        if !degraded.is_empty() {
            let mut shards: Vec<usize> = degraded
                .iter()
                .map(|&(_, addr)| {
                    self.locks.shard_of(st.world.smap.copy_of(addr), st.world.smap.stripe_of(addr))
                })
                .collect();
            sort_shard_set(&mut shards);
            let mut scratch = self.scratch.get();
            let res = sweep_repairing(
                |bad| {
                    let _guards = self.locks.lock_sorted_shared(&shards);
                    let mut current: Option<((usize, usize), Option<Decoded>)> = None;
                    for &(bi, addr) in &degraded {
                        if chunks[bi].is_none() {
                            continue;
                        }
                        let key = (st.world.smap.copy_of(addr), st.world.smap.stripe_of(addr));
                        let solved = match current {
                            Some((at, solved)) if at == key => solved,
                            _ => {
                                let solved =
                                    self.decode_stripe(st, key.0, key.1, &mut scratch, bad)?;
                                current = Some((key, solved));
                                solved
                            }
                        };
                        if let Some(solved) = solved {
                            let decoded = solved.get(&scratch, st.world.smap.slot_of(addr))?;
                            chunks[bi].take().expect("block decoded once").copy_from_slice(decoded);
                        }
                    }
                    Ok(())
                },
                |copy, si| self.repair_stripe(st, copy, si),
            );
            self.scratch.put(scratch);
            res?;
        }
        Ok(degraded.len() as u64)
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
        let us = self.unit_size;
        let (mut acc_p, mut acc_q, mut unit) = (vec![0u8; us], vec![0u8; us], vec![0u8; us]);
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
                    self.read_unit(PhysUnit::live(&st, u), &mut unit)?;
                    syn.fold(Role::of(slot, p_slot, q_slot), &unit);
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
