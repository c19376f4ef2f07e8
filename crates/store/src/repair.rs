//! The one checked decode and the one repair rule.
//!
//! **One checked decode.** A degraded stripe's survivors are listed in
//! a [`UnitCache`], read in one dispatcher round and checked and folded
//! where they lie (`fold_checked`) — a degraded read, a reconstruct
//! beside a lost unit, a rebuild chunk and a reshape band alike.
//! Reconstruction always reads **every** surviving member of the
//! stripe — under P+Q this occasionally includes a parity unit the
//! erasure count does not strictly require. The extra unit buys an
//! exactly uniform rebuild load: every stripe crossing the failed disk
//! charges one read to each of its surviving disks, so a declustered
//! rebuild reads `(k−1)/(v−1)` of every survivor per failed disk — the
//! paper's ratio — with zero spread (see the rebuild-balance tests).
//!
//! **One repair rule.** Every path that reads checksummed units —
//! `read_block`, both halves of `read_blocks`, the partial-stripe
//! updates, the rebuild chunk, the reshape band — runs as a sweep
//! under [`sweep_repairing`]: a unit whose checksum mismatches is noted
//! in a [`Mismatches`], never used and never returned as an error; its
//! stripe is repaired (`repair_stripe_locked`, under the stripe's
//! exclusive shard lock) and the sweep runs once more, where a second
//! mismatch is the error. Repair's adoption of unset sums is the only
//! checksum record outside `Io::land`.

use crate::backend::Backend;
use crate::codec::{Decode, Decoded, Role, Scratch, Syndromes};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::io::{Io, Run};
use crate::obs::{Event, OpKind};
use crate::scheme::ParityScheme;
use crate::store::{ArrayState, BlockStore};
use pdl_core::StripeUnit;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// A prefetched set of physical units: every decode lists the units
/// it will fold — a degraded stripe's survivors, a rebuild chunk's, a
/// reshape batch's band — reads them in one dispatcher round of
/// per-disk coalesced runs (one vectored backend call per run, the
/// runs in flight together with the engine on), and then verifies and
/// folds each unit where it lies in the cache ([`UnitCache::get`]
/// borrows, it never copies). Held in every [`Scratch`] and reused
/// across decodes and chunks, so the steady state is allocation-free.
#[derive(Debug, Default)]
pub(crate) struct UnitCache {
    /// `(physical disk, offset)` wanted keys; sorted by [`UnitCache::fill`].
    pub(crate) wants: Vec<(u32, u32)>,
    /// Unit payloads, index-aligned with `wants` after `fill`.
    data: Vec<u8>,
    /// The last fill's runs, kept for their capacity.
    runs: Vec<Run>,
    unit_size: usize,
}

impl UnitCache {
    pub(crate) fn push_want(&mut self, disk: u32, offset: u32) {
        self.wants.push((disk, offset));
    }

    /// Sorts the want-list and reads it through `io` at `prio` (client
    /// for a degraded decode, maintenance for a rebuild or reshape
    /// band) in per-disk coalesced runs — one run per stretch of
    /// adjacent units, each landing in its own span of the cache.
    pub(crate) fn fill<B: Backend>(
        &mut self,
        io: &Io<'_, B>,
        unit_size: usize,
        prio: Priority,
    ) -> Result<(), StoreError> {
        self.unit_size = unit_size;
        self.wants.sort_unstable();
        debug_assert!(
            self.wants.windows(2).all(|w| w[0] != w[1]),
            "stripes never share units, so the want-list has no duplicates"
        );
        self.data.resize(self.wants.len() * unit_size, 0);
        let UnitCache { wants, data, runs, .. } = self;
        runs.clear();
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
        io.read_into(runs, data, prio, |_, _| {})
    }

    /// The cached bytes of unit `(disk, offset)`.
    pub(crate) fn get(&self, disk: usize, offset: usize) -> Result<&[u8], StoreError> {
        let i = self.wants.binary_search(&(disk as u32, offset as u32)).map_err(|_| {
            StoreError::Corrupt(format!(
                "unit (disk {disk}, offset {offset}) missing from the prefetch cache"
            ))
        })?;
        Ok(&self.data[i * self.unit_size..(i + 1) * self.unit_size])
    }
}

/// The units a sweep found corrupt: each stripe `(copy, stripe)`
/// holding one, once, in the order found, and the first such unit
/// `(physical disk, offset)`.
#[derive(Debug, Default)]
pub(crate) struct Mismatches {
    stripes: Vec<(usize, usize)>,
    first: Option<(usize, usize)>,
}

impl Mismatches {
    pub(crate) fn note(&mut self, stripe: (usize, usize), disk: usize, offset: usize) {
        if !self.stripes.contains(&stripe) {
            self.stripes.push(stripe);
        }
        self.first.get_or_insert((disk, offset));
    }

    /// Whether the sweep noted anything.
    pub(crate) fn any(&self) -> bool {
        self.first.is_some()
    }
}

/// The one repair rule. Runs `sweep` — a pass that reads checksummed
/// units and notes corrupt ones in its [`Mismatches`] instead of using
/// them — and, if it noted any, runs `repair` on each stripe it named
/// and sweeps once more. A corrupt unit on the second sweep is
/// [`StoreError::ChecksumMismatch`] naming it. `repair` takes the
/// stripe's exclusive shard lock, or relies on the one its caller
/// already holds.
#[inline]
pub(crate) fn sweep_repairing<T>(
    mut sweep: impl FnMut(&mut Mismatches) -> Result<T, StoreError>,
    mut repair: impl FnMut(usize, usize) -> Result<(), StoreError>,
) -> Result<T, StoreError> {
    let mut bad = Mismatches::default();
    let out = sweep(&mut bad)?;
    if !bad.any() {
        return Ok(out);
    }
    // The discarded output goes first: it may hold the guards a
    // repair's exclusive lock waits for.
    drop(out);
    for &(copy, si) in &bad.stripes {
        repair(copy, si)?;
    }
    let mut bad = Mismatches::default();
    let out = sweep(&mut bad)?;
    match bad.first {
        None => Ok(out),
        Some((disk, offset)) => Err(StoreError::ChecksumMismatch { disk, offset }),
    }
}

impl<B: Backend> BlockStore<B> {
    /// Repairs stripe `si` of copy `copy` under its exclusive shard
    /// lock, taken here: the repair step of a sweep whose caller holds
    /// no stripe lock.
    pub(crate) fn repair_stripe(
        &self,
        st: &ArrayState,
        copy: usize,
        si: usize,
    ) -> Result<(), StoreError> {
        let (_g, _) = self.locks.lock_one_counting(self.locks.shard_of(copy, si));
        self.repair_stripe_locked(st, copy, si).map(drop)
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
        let at = |slot: usize| {
            let (pd, off) = phys(slot);
            (pd, off, &bytes[slot * us..(slot + 1) * us])
        };
        let mut mismatched: Vec<usize> = Vec::new();
        self.integrity.sums.verify(live.iter().map(|&slot| at(slot)), |i| mismatched.push(live[i]));
        let unset: Vec<usize> = (live.iter().copied())
            .filter(|&slot| {
                let (pd, off) = phys(slot);
                !self.integrity.sums.recorded(pd, off)
            })
            .collect();
        if nfailed + mismatched.len() > self.scheme.parity_per_stripe() {
            // Corruption past the redundancy: unrepairable. Name the
            // first corrupt unit (the failed disks are already known
            // to the caller).
            let (pd, off) = phys(mismatched[0]);
            return Err(StoreError::ChecksumMismatch { disk: pd, offset: off });
        }
        let t0 = Instant::now();
        // Every repaired or recomputed unit is copied into `bytes`
        // first, then the stripe's rewrites go out as one round.
        let mut rewrites: Vec<usize> = Vec::new();
        if !mismatched.is_empty() {
            // Decode the mismatched units (the failed disks ride
            // along in the lost set but have no medium to rewrite)
            // from the verified survivors — folded from the bytes
            // already read above, no second backend pass.
            let mut scratch = self.scratch.get();
            let res = (|| -> Result<(), StoreError> {
                let Scratch { acc_p, acc_q, .. } = &mut scratch;
                let mut dec = self.stripe_decode(st, si, &mismatched, acc_p, acc_q)?;
                for (slot, val) in bytes.chunks_exact(us).enumerate() {
                    if !dec.lost().contains(&slot) {
                        dec.fold(slot, val);
                    }
                }
                let solved = dec.solve();
                for slot in solved.slots().filter(|slot| mismatched.contains(slot)) {
                    bytes[slot * us..(slot + 1) * us].copy_from_slice(solved.get(&scratch, slot)?);
                    rewrites.push(slot);
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
            for (slot, acc) in
                std::iter::once((p_slot, &acc_p)).chain(q_slot.map(|qs| (qs, &acc_q)))
            {
                let unit = &mut bytes[slot * us..(slot + 1) * us];
                if unit != acc.as_slice() {
                    unit.copy_from_slice(acc);
                    rewrites.push(slot);
                }
            }
        }
        let n = rewrites.len() as u32;
        let (fixed, fixed_parity) = if mismatched.is_empty() { (0, n) } else { (n, 0) };
        if n > 0 {
            let runs: Vec<Run> = (rewrites.iter())
                .map(|&slot| {
                    let (disk, first) = phys(slot);
                    Run { disk, first, parts: slot..slot + 1 }
                })
                .collect();
            let srcs: Vec<&[u8]> = bytes.chunks_exact(us).collect();
            self.io().write_runs(&runs, &srcs, Priority::Maintenance)?;
            self.integrity.checksum_repairs.fetch_add(fixed as u64, Ordering::Relaxed);
            self.integrity.parity_repairs.fetch_add(fixed_parity as u64, Ordering::Relaxed);
            for run in &runs {
                self.integrity.health.note_repair(run.disk);
                let (disk, offset) = (run.disk as u32, run.first as u64);
                self.events.emit(|| Event::ChecksumRepair { disk, offset });
            }
            self.metrics.record_op(OpKind::RepairWrite, n as u64, t0.elapsed().as_nanos() as u64);
        }
        if nfailed == 0 {
            // The stripe is now internally consistent: adopt sums for
            // units that never had one, so the next pass verifies
            // them too.
            self.integrity.sums.record(unset.iter().map(|&slot| {
                let (pd, off) = phys(slot);
                (pd, off, &bytes[slot * us..(slot + 1) * us])
            }));
        }
        Ok((fixed, fixed_parity))
    }

    /// Folds every survivor of each target stripe `(copy, si, decode)`
    /// into its decode from where it lies in `band`, after checking all
    /// the targets' survivors against their sums as one batch (a k = 5
    /// rebuild passes two targets, so their eight survivors hash
    /// together). A mismatching survivor is left out and noted in
    /// `bad`: its target's answer is then not to be used. Returns
    /// whether every survivor verified.
    pub(crate) fn fold_checked(
        &self,
        st: &ArrayState,
        targets: &mut [(usize, usize, Decode<'_>)],
        band: &UnitCache,
        bad: &mut Mismatches,
    ) -> Result<bool, StoreError> {
        let stripes = st.world.layout.stripes();
        let size = st.world.layout.size();
        let phys = |copy: usize, u: &StripeUnit| {
            (st.redirect[u.disk as usize], u.offset as usize + copy * size)
        };
        // The batch: each target's survivors in slot order, targets in
        // order. A survivor missing from the band ends it early and is
        // the error.
        let mut missing = Ok(());
        let units = (targets.iter())
            .flat_map(|(copy, si, dec)| {
                let units = stripes[*si].units().iter().enumerate();
                units.filter(|(slot, _)| !dec.lost().contains(slot)).map(|(_, u)| phys(*copy, u))
            })
            .map_while(|(pd, off)| match band.get(pd, off) {
                Ok(bytes) => Some((pd, off, bytes)),
                Err(e) => {
                    missing = Err(e);
                    None
                }
            });
        let mut rotten = Vec::new();
        self.integrity.sums.verify(units, |i| rotten.push(i));
        missing?;
        // The same walk again, folding what verified.
        let mut at = 0;
        for (copy, si, dec) in targets.iter_mut() {
            for (slot, u) in stripes[*si].units().iter().enumerate() {
                if dec.lost().contains(&slot) {
                    continue;
                }
                let (pd, off) = phys(*copy, u);
                if rotten.contains(&at) {
                    bad.note((*copy, *si), pd, off);
                } else {
                    dec.fold(slot, band.get(pd, off)?);
                }
                at += 1;
            }
        }
        Ok(rotten.is_empty())
    }

    /// The one checked decode of a client op: erasure-decodes stripe
    /// `si` of copy `copy` from its survivors — listed in the scratch's
    /// prefetch cache, read in one dispatcher round at client priority
    /// (each on its own disk, so with the engine on they are in flight
    /// together), then checked and folded where they lie
    /// ([`BlockStore::fold_checked`]). `None` when a survivor
    /// mismatched: it is noted in `bad` and there is no answer. The
    /// decoded values live in `scratch` until its next decode.
    pub(crate) fn decode_stripe(
        &self,
        st: &ArrayState,
        copy: usize,
        si: usize,
        scratch: &mut Scratch,
        bad: &mut Mismatches,
    ) -> Result<Option<Decoded>, StoreError> {
        let shift = (copy * st.world.layout.size()) as u32;
        let Scratch { acc_p, acc_q, cache } = scratch;
        let dec = self.stripe_decode(st, si, &[], acc_p, acc_q)?;
        cache.wants.clear();
        for (slot, u) in st.world.layout.stripes()[si].units().iter().enumerate() {
            if !dec.lost().contains(&slot) {
                cache.push_want(st.redirect[u.disk as usize] as u32, u.offset + shift);
            }
        }
        cache.fill(&self.io(), self.unit_size, Priority::Client)?;
        let mut target = [(copy, si, dec)];
        let clean = self.fold_checked(st, &mut target, cache, bad)?;
        let [(.., dec)] = target;
        Ok(clean.then(|| dec.solve()))
    }

    /// Starts the erasure decode of stripe `si` into `acc_p` and
    /// `acc_q` (see [`BlockStore::lost_slots`]): the caller folds
    /// every survivor from wherever its bytes lie — a prefetched
    /// [`UnitCache`] or bytes already in memory — and solves.
    pub(crate) fn stripe_decode<'a>(
        &self,
        st: &ArrayState,
        si: usize,
        extra_lost: &[usize],
        acc_p: &'a mut [u8],
        acc_q: &'a mut [u8],
    ) -> Result<Decode<'a>, StoreError> {
        let (lost, nlost) = self.lost_slots(st, si, extra_lost)?;
        let (p_slot, q_slot) = st.world.smap.parity_slots(si);
        Ok(Decode::new(acc_p, acc_q, p_slot, q_slot, &lost[..nlost]))
    }

    /// The lost slots of stripe `si`, ascending: its units on failed
    /// disks plus `extra_lost` — a unit being rebuilt whose disk may
    /// not be in the failure set, or units whose checksums mismatched
    /// and are being repaired as erasures. More erasures than parity
    /// units is unreconstructable.
    pub(crate) fn lost_slots(
        &self,
        st: &ArrayState,
        si: usize,
        extra_lost: &[usize],
    ) -> Result<([usize; 2], usize), StoreError> {
        let units = st.world.layout.stripes()[si].units();
        let mut lost = [usize::MAX; 2];
        let mut nlost = 0usize;
        for (slot, u) in units.iter().enumerate() {
            if st.failed.contains(u.disk as usize) || extra_lost.contains(&slot) {
                if nlost == self.scheme.parity_per_stripe() {
                    // Name a failed disk of the stripe for the error.
                    return Err(StoreError::DiskFailed(units[lost[0]].disk as usize));
                }
                lost[nlost] = slot;
                nlost += 1;
            }
        }
        Ok((lost, nlost))
    }
}
