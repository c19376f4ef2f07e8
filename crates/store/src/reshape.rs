//! Online array reshaping: grow or shrink a **live** store to a new
//! disk count, migrating every stripe to the target layout while
//! client traffic keeps flowing.
//!
//! # One lifecycle
//!
//! A reshape is begun in one direction —
//! [`BlockStore::begin_add_disks`] or [`BlockStore::begin_remove_disks`]
//! — then stepped with [`BlockStore::reshape_step`], where a step of
//! `n` target stripes is one migration batch under one lock set ending
//! in one checkpoint, and committed with
//! [`BlockStore::complete_reshape`]. A driver pumps the steps and the
//! commit: [`BlockStore::drive_reshape`] on the calling thread,
//! [`BlockStore::start_reshape_driver`] on a background one.
//! [`BlockStore::add_disks`] and [`BlockStore::remove_disks`] are a
//! begin plus the foreground driver. The target copy count has one
//! rule: an add keeps the source's, a remove grows it just enough to
//! keep the capacity.
//!
//! # The scratch-region discipline
//!
//! [`BlockStore::begin_add_disks`] / [`BlockStore::begin_remove_disks`]
//! compute the target layout via the planning machinery in
//! [`pdl_core::plan_add`] / [`pdl_core::plan_remove`], then grow every
//! backend disk to `grown_units = scratch_base + U_tgt`, where
//! `scratch_base` is the source world's units-per-disk and `U_tgt =
//! target_copies × target_layout.size()`. The **target world** is
//! assembled at physical rows `[scratch_base, grown_units)` — a
//! scratch region that starts zero-filled (both backends zero-fill on
//! grow), so an untouched target stripe already satisfies its parity
//! equations (P and Q of all-zero data are zero). The transient cost
//! is roughly 2× disk space until the commit trims it back.
//!
//! # Correctness under racing writes
//!
//! * **Reads are source-authoritative.** No read path consults the
//!   target world; the source stays fully fresh until the commit
//!   slides over it, so reads need no migration cursor at all. A
//!   commit that began and failed refuses client calls
//!   ([`StoreError::ReshapeInProgress`]) until its retry lands.
//! * **Writes are dual, unconditionally.** Every acknowledged write
//!   during an active reshape also lands in the target world
//!   (`BlockStore::dual_write`, under the reshape's own per-stripe
//!   lock table: one read round, one write round). Re-applying the
//!   same value writes nothing, so the writer never needs to know
//!   whether the migration has passed its address yet.
//! * **Migration batches need no target locks.** A batch covers the
//!   target stripes `[t0, t1)`, whose data ranges are exactly the
//!   contiguous logical addresses `[lo(t0), lo(t1))`; the batch holds
//!   the *source* shard locks of every stripe covering those
//!   addresses, and any writer to those addresses must take one of
//!   those locks first. Dual writes to *other* addresses touch only
//!   target stripes outside `[t0, t1)`. Lock order is everywhere
//!   `state guard → source shards → target shards`, so there is no
//!   cycle.
//! * A **logically failed** disk's lost units are decoded from source
//!   parity during migration; its target region *is* still written
//!   (the failure models a dead medium for the *source* world only —
//!   a deliberate out-of-model choice that keeps the target world
//!   complete, so a post-commit [`BlockStore::restore_disk`] works).
//!
//! # Durability and crash resume
//!
//! File-backed stores persist a [`ReshapeState`] as the `reshape`
//! section of `store.json`: at begin, at the end of every step (one
//! step is one batch), when a driver stops, at every commit slide
//! chunk, and in every `flush` meanwhile. Each goes through the store's
//! one durability barrier, which syncs the data and the checksums
//! before it replaces the document: the cursor and the slide watermark a
//! document records are never ahead of what is on the medium, so a
//! resumed migration only ever re-copies and a resumed slide only ever
//! re-slides. Every one of those documents also carries the `scrub`
//! section, so the scrubber's lifetime pass count survives the
//! reshape.
//!
//! That document is the only source of a reshape's runtime. `begin`
//! installs the runtime from it and then persists it;
//! [`crate::open_file_store`] installs the runtime from the persisted
//! one, at its cursor and slide watermark, after the same checks (a
//! document on disk is outside input). A `phase = "migrate"` document
//! then resumes migrating at its cursor. A `phase = "commit"` document
//! runs [`BlockStore::complete_reshape`] before the open returns: a
//! crashed commit reopens into the live commit, resuming its slide at
//! the watermark — there is no second, static commit.
//!
//! # Commit
//!
//! [`BlockStore::complete_reshape`] requires the cursor at `total`,
//! then (under the exclusive state guard — a stop-the-world pause,
//! documented trade-off) drains the write-back cache, slides every
//! mapped disk's target region down from the scratch rows to row 0 in
//! watermarked chunks of at most `min(scratch_base, 4096)` rows (so a
//! chunk's write never overlaps the scratch rows a resumed slide would
//! re-read; each transfer is retried on transient errors), clears the
//! checksum table (it describes source-world units), persists the
//! final metadata, target mapping included, through the barrier —
//! which writes the cleared table as a fresh checksum base before the
//! document — trims the backend to `U_tgt`, and swaps the in-memory
//! world: target layout, redirect table, remapped failure set, raised
//! capacity, bumped epoch.

use crate::backend::Backend;
use crate::cache::{key_parts, stripe_key, FlushSnapshot};
use crate::codec::{self, Decoded, Role, Scratch, Syndromes};
use crate::engine::Priority;
use crate::error::StoreError;
use crate::io::Run;
use crate::maintenance::ReshapeDriverConfig;
use crate::meta::{slots_u32, Record, ReshapeState};
use crate::obs::{Event, OpKind, ReshapeProgressSnapshot};
use crate::repair::{sweep_repairing, Mismatches, UnitCache};
use crate::scheme::{FailureSet, ParityScheme};
use crate::store::{sort_shard_set, ArrayState, BlockStore, PhysUnit, StripeLockTable, World};
use crate::write::WritePlan;
use pdl_core::{
    relayout_cost, DoubleParityLayout, LayoutSpec, ReshapeMethod, ReshapePlan, StripeUnit,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Whether a reshape grows or shrinks the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReshapeKind {
    /// Adding disks (capacity grows at commit).
    Add,
    /// Removing disks (capacity is preserved; copies may grow).
    Remove,
}

impl ReshapeKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReshapeKind::Add => "add",
            ReshapeKind::Remove => "remove",
        }
    }
}

/// Summary of a completed reshape.
#[derive(Clone, Debug)]
pub struct ReshapeReport {
    /// `"add"` or `"remove"`.
    pub kind: String,
    /// The construction that produced the target layout
    /// (see [`pdl_core::ReshapeMethod`]).
    pub method: String,
    /// Fraction of the common one-copy address range whose physical
    /// location differs between the source and target worlds' maps
    /// ([`pdl_core::relayout_cost`]; under P+Q neither map counts a Q
    /// unit as data). Reporting only: the migration copies by logical
    /// address regardless.
    pub moved_fraction: f64,
    /// Source disk count.
    pub from_v: usize,
    /// Target disk count.
    pub to_v: usize,
    /// Target stripes migrated (this process; a resumed reshape
    /// reports only its own share).
    pub stripes_migrated: u64,
    /// Units (data + parity) written into the target world by the
    /// migration (dual writes not counted).
    pub units_copied: u64,
    /// Logical capacity (blocks) before the reshape.
    pub capacity_before: usize,
    /// Logical capacity after the commit (grows on add, preserved on
    /// remove).
    pub capacity_after: usize,
    /// Wall-clock milliseconds from begin (or resume) to commit.
    pub elapsed_ms: u64,
}

/// Per-step scratch owned by the runtime's step mutex: serializes
/// [`BlockStore::reshape_step`] callers and keeps batch buffers warm.
#[derive(Debug, Default)]
pub(crate) struct StepState {
    src_data: Vec<u8>,
    ucache: UnitCache,
}

/// The in-memory state of an active reshape, installed in
/// [`ArrayState::reshape`] by [`BlockStore::install_reshape`] and
/// shared by writers (dual writes), the migration engine, and the
/// stats path.
#[derive(Debug)]
pub(crate) struct ReshapeRuntime {
    /// The document the runtime was installed from: kind, target
    /// mapping, scratch geometry, capacity after the commit and removed
    /// disks. Checkpoints write it back with the live `cursor` and
    /// `slide_done` below.
    pub(crate) doc: ReshapeState,
    /// The target world being assembled in the scratch region.
    pub(crate) target: Arc<World>,
    /// Target stripe indices to migrate: the smallest `t` whose data
    /// range starts at or past the source capacity. Tail stripes stay
    /// all-zero (valid parity) and are never touched.
    pub(crate) total: u64,
    /// Next target stripe index to migrate. Stored with `Release`
    /// *before* the batch's source locks drop, read with `Acquire`.
    pub(crate) cursor: AtomicU64,
    /// Units written into the target world by migration batches.
    pub(crate) units_done: AtomicU64,
    /// Commit slide watermark (target rows fully slid), so a faulted
    /// commit retries from where it stopped instead of re-reading
    /// scratch rows its own writes already clobbered.
    pub(crate) slide_done: AtomicU64,
    /// Whether the commit has begun (set before its first slide): the
    /// document's phase from then on is `"commit"`, whoever writes it,
    /// and client calls are refused (`BlockStore::client_op`).
    pub(crate) committing: AtomicBool,
    /// Per-target-stripe lock table serializing dual writes; disjoint
    /// from the store's source lock table and always taken after it.
    pub(crate) tgt_locks: StripeLockTable,
    pub(crate) step: Mutex<StepState>,
    pub(crate) from_v: usize,
    pub(crate) capacity_before: usize,
    pub(crate) method: ReshapeMethod,
    pub(crate) moved_fraction: f64,
    pub(crate) started: Instant,
}

impl ReshapeRuntime {
    /// First logical address of target stripe `t` (`t` counts
    /// `copy × stripes_per_copy + stripe`); `t` past the last copy
    /// maps to the end of the target address space.
    pub(crate) fn lo(&self, t: u64) -> usize {
        lo_of(&self.target, t)
    }

    /// Where target-world unit `u` (copy shift applied) lives while
    /// the reshape runs: its target disk's scratch rows, which carry no
    /// recorded checksums.
    pub(crate) fn place(&self, u: StripeUnit) -> PhysUnit {
        PhysUnit {
            disk: self.doc.tgt_redirect[u.disk as usize],
            offset: self.doc.scratch_base + u.offset as usize,
            checked: false,
        }
    }

    /// The document a checkpoint records: the installed one at the
    /// live phase, cursor and slide watermark.
    pub(crate) fn checkpoint(&self) -> ReshapeState {
        let phase = if self.committing.load(Ordering::Acquire) { "commit" } else { "migrate" };
        ReshapeState {
            phase: phase.into(),
            cursor: self.cursor.load(Ordering::Acquire),
            slide_done: self.slide_done.load(Ordering::Acquire),
            ..self.doc.clone()
        }
    }

    /// Live progress for [`crate::StatsSnapshot`].
    pub(crate) fn progress_snapshot(&self) -> ReshapeProgressSnapshot {
        ReshapeProgressSnapshot {
            kind: self.doc.kind.clone(),
            to_v: self.target.layout.v() as u32,
            stripes_done: self.cursor.load(Ordering::Acquire),
            stripes_total: self.total,
            units_copied: self.units_done.load(Ordering::Relaxed),
            elapsed_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

/// First logical address of target stripe `t` in `target`.
fn lo_of(target: &World, t: u64) -> usize {
    let ns = target.layout.b() as u64;
    let dpc = target.smap.data_units_per_copy();
    let copy = (t / ns) as usize;
    if copy >= target.copies {
        return target.copies * dpc;
    }
    copy * dpc + target.smap.stripe_data_range((t % ns) as usize).0
}

/// Smallest target stripe index whose data range starts at or past
/// `cap_src` — everything below it must migrate, everything at or
/// above stays zero.
fn migration_total(target: &World, cap_src: usize) -> u64 {
    let end = (target.copies * target.layout.b()) as u64;
    (0..=end).find(|&t| lo_of(target, t) >= cap_src).unwrap_or(end)
}

impl<B: Backend> BlockStore<B> {
    /// Whether a reshape is currently active.
    pub fn reshaping(&self) -> bool {
        self.state_read().reshape.is_some()
    }

    /// Grows the array onto the listed **physical** backend disks
    /// (which must exist, be currently unmapped, and be distinct),
    /// blocking until the migration completes and commits. Racing
    /// reads and writes are safe throughout. Equivalent to
    /// [`BlockStore::begin_add_disks`] + [`BlockStore::drive_reshape`]
    /// with the default [`ReshapeDriverConfig`].
    pub fn add_disks(&self, new_physical: &[usize]) -> Result<ReshapeReport, StoreError> {
        self.begin_add_disks(new_physical)?;
        self.drive_to_commit()
    }

    /// Shrinks the array by the listed **logical** disks, blocking
    /// until the migration completes and commits. Capacity is
    /// preserved (the target world grows extra layout copies as
    /// needed); the freed physical disks become spares. Equivalent to
    /// [`BlockStore::begin_remove_disks`] + [`BlockStore::drive_reshape`]
    /// with the default [`ReshapeDriverConfig`].
    pub fn remove_disks(&self, logical: &[usize]) -> Result<ReshapeReport, StoreError> {
        self.begin_remove_disks(logical)?;
        self.drive_to_commit()
    }

    /// Pumps the reshape just begun to its commit on the calling
    /// thread, like any other driver.
    fn drive_to_commit(&self) -> Result<ReshapeReport, StoreError> {
        let run = self.drive_reshape(&ReshapeDriverConfig::default())?;
        Ok(run.report.expect("a driver nobody can stop runs to the commit"))
    }

    /// Starts an add-disks reshape onto the listed **physical** disks;
    /// drive it with [`BlockStore::reshape_step`] and
    /// [`BlockStore::complete_reshape`], or with a driver
    /// ([`BlockStore::drive_reshape`],
    /// [`BlockStore::start_reshape_driver`]). The target world keeps
    /// the source copy count, so capacity grows with the wider layout.
    pub fn begin_add_disks(&self, new_physical: &[usize]) -> Result<(), StoreError> {
        let mut st = self.state_write();
        self.check_reshape_allowed(&st)?;
        if new_physical.is_empty() {
            return Err(StoreError::Geometry("no disks to add".into()));
        }
        let disks = self.backend.disks();
        let mut mapped = vec![false; disks];
        for &p in &st.redirect {
            mapped[p] = true;
        }
        for &p in new_physical {
            if p >= disks {
                return Err(StoreError::Geometry(format!(
                    "physical disk {p} out of range (backend has {disks})"
                )));
            }
            if mapped[p] {
                return Err(StoreError::Geometry(format!(
                    "physical disk {p} is already mapped or listed twice"
                )));
            }
            mapped[p] = true;
        }
        let plan = pdl_core::plan_add(&st.world.layout, new_physical.len())
            .map_err(|e| StoreError::Geometry(e.to_string()))?;
        let mut tgt_redirect = st.redirect.clone();
        tgt_redirect.extend_from_slice(new_physical);
        self.begin_reshape_locked(&mut st, ReshapeKind::Add, plan, tgt_redirect, Vec::new())
    }

    /// Starts a remove-disks reshape of the listed **logical** disks;
    /// drive it as [`BlockStore::begin_add_disks`] says. The target
    /// world gets just enough layout copies to keep the capacity.
    /// Removing a currently *failed* disk is allowed — its units are
    /// decoded from parity during migration.
    pub fn begin_remove_disks(&self, logical: &[usize]) -> Result<(), StoreError> {
        let mut st = self.state_write();
        self.check_reshape_allowed(&st)?;
        let plan = pdl_core::plan_remove(&st.world.layout, logical)
            .map_err(|e| StoreError::Geometry(e.to_string()))?;
        let v_src = st.world.layout.v();
        let tgt_redirect: Vec<usize> =
            (0..v_src).filter(|d| !logical.contains(d)).map(|d| st.redirect[d]).collect();
        self.begin_reshape_locked(
            &mut st,
            ReshapeKind::Remove,
            plan,
            tgt_redirect,
            logical.to_vec(),
        )
    }

    fn check_reshape_allowed(&self, st: &ArrayState) -> Result<(), StoreError> {
        if st.reshape.is_some() {
            return Err(StoreError::ReshapeInProgress);
        }
        if let Some((d, _)) = st.rebuilding {
            return Err(StoreError::RebuildInProgress(d));
        }
        Ok(())
    }

    fn begin_reshape_locked(
        &self,
        st: &mut ArrayState,
        kind: ReshapeKind,
        plan: ReshapePlan,
        tgt_redirect: Vec<usize>,
        removed: Vec<usize>,
    ) -> Result<(), StoreError> {
        let tgt_layout = plan.layout;
        let target_parity_slots = match self.scheme {
            ParityScheme::Xor => Vec::new(),
            ParityScheme::PQ => {
                if let Some(bad) = tgt_layout.stripes().iter().position(|s| s.len() > 255) {
                    return Err(StoreError::Geometry(format!(
                        "target stripe {bad} has {} units; P+Q supports at most 255",
                        tgt_layout.stripes()[bad].len()
                    )));
                }
                let dp = DoubleParityLayout::new(tgt_layout.clone())
                    .map_err(|e| StoreError::Geometry(format!("target parity assignment: {e}")))?;
                slots_u32(dp.all_parity_slots())
            }
        };
        let cap_src = self.capacity.load(Ordering::Acquire);
        let parity_per = self.scheme.parity_per_stripe();
        let dpc_tgt: usize = tgt_layout.stripes().iter().map(|s| s.len() - parity_per).sum();
        // Add keeps the source copy count (capacity grows only by the
        // wider layout); remove grows it just enough to keep the
        // source capacity.
        let (copies_tgt, capacity_after) = match kind {
            ReshapeKind::Add => (st.world.copies, st.world.copies * dpc_tgt),
            ReshapeKind::Remove => (cap_src.div_ceil(dpc_tgt), cap_src),
        };
        let scratch_base = self.backend.units_per_disk();
        let u_tgt = copies_tgt * tgt_layout.size();
        let grown_units = scratch_base + u_tgt;
        if grown_units > u32::MAX as usize {
            return Err(StoreError::Geometry(format!(
                "reshape scratch geometry of {grown_units} units per disk overflows unit offsets"
            )));
        }
        let from_v = st.world.layout.v();
        let to_v = tgt_layout.v();
        let doc = ReshapeState {
            kind: kind.name().to_string(),
            phase: "migrate".into(),
            cursor: 0,
            slide_done: 0,
            target_layout: LayoutSpec::from_layout(&tgt_layout),
            target_parity_slots,
            target_copies: copies_tgt,
            tgt_redirect,
            removed,
            scratch_base,
            grown_units,
            capacity_after,
        };
        // Grow under the exclusive guard (no I/O in flight). If the
        // install or the begin-state persist then fails, uninstall and
        // shrink back so a retried begin doesn't stack scratch
        // regions; a crash in between leaves longer files that the
        // trimming open self-heals.
        self.backend.set_units_per_disk(grown_units)?;
        // Stripe indices change meaning across worlds: any in-flight
        // scrub pass restarts from zero (it also yields while the
        // reshape is active — see `scrub`). Reset before the begin
        // document is built, so no reshape-era document carries a
        // source-world cursor.
        self.scrub_cursor.store(0, Ordering::Release);
        let begun = self
            .install_reshape(st, &doc, Some(plan.method))
            .and_then(|()| self.persist(Record::Progress(st)));
        if let Err(e) = begun {
            st.reshape = None;
            let _ = self.backend.set_units_per_disk(scratch_base);
            return Err(e);
        }
        let epoch = st.epoch;
        self.events.emit(|| Event::ReshapeBegan {
            from_v: from_v as u32,
            to_v: to_v as u32,
            epoch,
        });
        Ok(())
    }

    /// The one builder of a reshape's runtime: validates `doc` — built
    /// by `begin` or read back from `store.json`, where it is outside
    /// input — against the serving world and the backend, builds the
    /// target world, and installs the runtime at the document's cursor
    /// and slide watermark. `method` carries the planner's construction
    /// for the final report; a reopened reshape passes `None` and it is
    /// re-planned best-effort (the migration itself trusts only the
    /// document's target layout). The moved fraction is measured on the
    /// serving and target worlds' own maps, so P+Q counts no Q unit as
    /// data.
    pub(crate) fn install_reshape(
        &self,
        st: &mut ArrayState,
        doc: &ReshapeState,
        method: Option<ReshapeMethod>,
    ) -> Result<(), StoreError> {
        let corrupt = |what: String| StoreError::Corrupt(format!("reshape state: {what}"));
        let add = match doc.kind.as_str() {
            "add" => true,
            "remove" => false,
            other => return Err(corrupt(format!("unknown kind `{other}`"))),
        };
        let layout =
            doc.target_layout.to_layout().map_err(|e| corrupt(format!("target layout: {e}")))?;
        let (layout, pq_slots) = match self.scheme {
            ParityScheme::Xor => (layout, None),
            ParityScheme::PQ => {
                let slots = doc.target_parity_slots.iter();
                let slots = slots.map(|&(p, q)| (p as usize, q as usize)).collect();
                let dp = DoubleParityLayout::from_parts(layout, slots)
                    .map_err(|e| corrupt(format!("target parity slots: {e}")))?;
                (dp.layout().clone(), Some(dp.all_parity_slots().to_vec()))
            }
        };
        if doc.target_copies == 0 {
            return Err(corrupt("zero target copies".into()));
        }
        let mut mapped = doc.tgt_redirect.clone();
        mapped.sort_unstable();
        mapped.dedup();
        let disks = self.backend.disks();
        if doc.tgt_redirect.len() != layout.v()
            || mapped.len() != layout.v()
            || mapped.last().is_some_and(|&p| p >= disks)
        {
            return Err(corrupt(format!(
                "target mapping {:?} is not {} distinct disks below {disks}",
                doc.tgt_redirect,
                layout.v()
            )));
        }
        // The commit remaps failures through the source disks kept.
        let kept = (0..st.world.layout.v()).filter(|d| !doc.removed.contains(d)).count();
        let removed_ok = if add { doc.removed.is_empty() } else { kept == layout.v() };
        if !removed_ok {
            return Err(corrupt(format!("removed disks {:?} for a {}", doc.removed, doc.kind)));
        }
        let target = Arc::new(World::new(Arc::new(layout), pq_slots, doc.target_copies));
        let u_tgt = doc.target_copies.saturating_mul(target.layout.size());
        if doc.scratch_base != st.world.copies * st.world.layout.size()
            || doc.scratch_base.checked_add(u_tgt) != Some(doc.grown_units)
            || self.backend.units_per_disk() != doc.grown_units
        {
            return Err(corrupt("scratch geometry disagrees with the array".into()));
        }
        let cap_src = self.capacity.load(Ordering::Acquire);
        let total = migration_total(&target, cap_src);
        if doc.cursor > total || (doc.phase == "commit" && doc.cursor != total) {
            let (phase, cursor) = (&doc.phase, doc.cursor);
            return Err(corrupt(format!(
                "{phase} cursor {cursor} with {total} stripes to migrate"
            )));
        }
        if doc.slide_done > u_tgt as u64 {
            return Err(corrupt(format!("slide watermark {} past {u_tgt} rows", doc.slide_done)));
        }
        let src = &st.world.layout;
        let method = method.unwrap_or_else(|| {
            let replanned = if add {
                pdl_core::plan_add(src, target.layout.v().saturating_sub(src.v()))
            } else {
                pdl_core::plan_remove(src, &doc.removed)
            };
            replanned.map_or(ReshapeMethod::Regenerated, |p| p.method)
        });
        let moved_fraction = relayout_cost(&st.world.smap, &target.smap);
        st.reshape = Some(Arc::new(ReshapeRuntime {
            total,
            cursor: AtomicU64::new(doc.cursor),
            units_done: AtomicU64::new(0),
            slide_done: AtomicU64::new(doc.slide_done),
            committing: AtomicBool::new(doc.phase == "commit"),
            tgt_locks: StripeLockTable::new(),
            step: Mutex::new(StepState::default()),
            from_v: src.v(),
            capacity_before: cap_src,
            method,
            moved_fraction,
            started: Instant::now(),
            doc: doc.clone(),
            target,
        }));
        st.epoch += 1;
        Ok(())
    }

    /// Migrates the next `stripes` target stripes — `0` means one
    /// full target copy, the fewest-backend-calls width — as one batch
    /// under one lock set, ending (file-backed stores) in one
    /// checkpoint. Returns `true` once every migratable target stripe
    /// has been copied — then call [`BlockStore::complete_reshape`].
    /// Callers from several threads serialize on the runtime's step
    /// mutex.
    pub fn reshape_step(&self, stripes: usize) -> Result<bool, StoreError> {
        let rs = {
            let st = self.state_read();
            match &st.reshape {
                Some(rs) => rs.clone(),
                None => return Err(StoreError::NoActiveReshape),
            }
        };
        let mut step = rs.step.lock().unwrap();
        self.migrate_batch(&rs, &mut step, stripes)
    }

    /// One migration batch of `stripes` target stripes (`0`: one
    /// target copy): flush covered cache entries, band-read the
    /// covered source stripes, decode lost units, assemble and write
    /// the target stripes at the scratch rows, advance the cursor and
    /// checkpoint it.
    fn migrate_batch(
        &self,
        rs: &Arc<ReshapeRuntime>,
        step: &mut StepState,
        stripes: usize,
    ) -> Result<bool, StoreError> {
        let t0 = rs.cursor.load(Ordering::Acquire);
        if t0 >= rs.total {
            return Ok(true);
        }
        let started = Instant::now();
        let us = self.unit_size;
        // The state read guard pins the failure set for the whole
        // batch; fail/restore transitions serialize between batches.
        let st = self.state_read();
        match &st.reshape {
            Some(cur) if Arc::ptr_eq(cur, rs) => {}
            _ => return Ok(true), // committed (or aborted) underneath us
        }
        let w = st.world.clone();
        let cap_src = self.capacity.load(Ordering::Acquire);
        let width = if stripes == 0 { rs.target.layout.b() } else { stripes };
        let t1 = (t0 + width as u64).min(rs.total);
        let lo_addr = rs.lo(t0);
        let hi_addr = rs.lo(t1);
        // Source stripes covering the batch's address range, and
        // their shards — locked exclusive for the whole batch, which
        // is what lets the target writes skip target locks entirely.
        let mut src_keys: Vec<u64> = Vec::new();
        let mut shards: Vec<usize> = Vec::new();
        let mut a = lo_addr;
        while a < hi_addr.min(cap_src) {
            let m = w.smap.locate_full(a);
            src_keys.push(stripe_key(m.copy, m.stripe));
            shards.push(self.locks.shard_of(m.copy, m.stripe));
            let (lo, k_data) = w.smap.stripe_data_range(m.stripe);
            a = m.copy * w.smap.data_units_per_copy() + lo + k_data;
        }
        sort_shard_set(&mut shards);
        let guards = self.locks.lock_sorted(&shards);
        // Covered dirty cache entries flush under the held locks, so
        // the band read below sees their bytes.
        if self.cache.maybe_dirty() {
            let mut keys: Vec<u64> = src_keys
                .iter()
                .copied()
                .filter(|&k| {
                    let (c, s) = key_parts(k);
                    self.cache.has_entry(self.locks.shard_of(c, s), k)
                })
                .collect();
            if !keys.is_empty() {
                keys.sort_unstable();
                let mut snap = FlushSnapshot::default();
                let mut plan = WritePlan::new(self.backend.disks());
                let mut staged: Vec<u8> = Vec::new();
                self.flush_batch_locked(&st, &keys, &mut snap, &mut plan, &mut staged)?;
            }
        }
        // Band-read every surviving unit (data + parity) of the
        // covered stripes: one coalesced vectored call per disk.
        let StepState { src_data, ucache } = step;
        ucache.wants.clear();
        for &key in &src_keys {
            let (copy, si) = key_parts(key);
            let shift = (copy * w.layout.size()) as u32;
            for u in w.layout.stripes()[si].units() {
                if st.failed.contains(u.disk as usize) {
                    continue;
                }
                ucache.push_want(st.redirect[u.disk as usize] as u32, u.offset + shift);
            }
        }
        // Assemble the batch's source bytes in address order. A corrupt
        // source unit must not migrate (the commit drops every sum, so
        // it would be laundered): mismatching stripes are repaired in
        // place — their shards are already held exclusively — and the
        // band read and swept once more. Addresses past the source
        // capacity stay zero.
        let n_addr = hi_addr - lo_addr;
        src_data.clear();
        src_data.resize(n_addr * us, 0);
        let fill_end = cap_src.saturating_sub(lo_addr).min(n_addr);
        let mut scratch = self.scratch.get();
        let res: Result<usize, StoreError> = (|| {
            sweep_repairing(
                |bad| {
                    ucache.fill(&self.io(), us, Priority::Maintenance)?;
                    let out = &mut src_data[..fill_end * us];
                    self.sweep_band(&st, lo_addr, out, ucache, &mut scratch, bad)
                },
                |copy, si| self.repair_stripe_locked(&st, copy, si).map(drop),
            )?;
            // Plan the target stripes — data from the assembled source
            // bytes, P/Q fresh — at the scratch rows, and write them.
            let tw = &*rs.target;
            let ns = tw.layout.b() as u64;
            let mut plan = WritePlan::new(self.backend.disks());
            let mut units_planned = 0usize;
            for t in t0..t1 {
                let (lo, k_data) = tw.smap.stripe_data_range((t % ns) as usize);
                let start = (t / ns) as usize * tw.smap.data_units_per_copy() + lo;
                let base = start - lo_addr;
                let stripe_data = &src_data[base * us..(base + k_data) * us];
                self.plan_stripe(tw, start, stripe_data, base, &mut plan, |u| Some(rs.place(u)));
                units_planned += k_data + self.scheme.parity_per_stripe();
            }
            self.flush_write_plan(&mut plan, src_data)?;
            Ok(units_planned)
        })();
        self.scratch.put(scratch);
        let units_planned = res?;
        rs.units_done.fetch_add(units_planned as u64, Ordering::Relaxed);
        // Publish progress before releasing the source locks: a
        // resumed migration may re-copy (idempotent) but never skips.
        rs.cursor.store(t1, Ordering::Release);
        drop(guards);
        // Under the state guard taken above, so no commit has replaced
        // this reshape's document since.
        self.persist(Record::Progress(&st))?;
        drop(st);
        self.metrics.record_op(
            OpKind::ReshapeCopy,
            units_planned as u64,
            started.elapsed().as_nanos() as u64,
        );
        self.events.emit(|| Event::ReshapeProgress { stripes_done: t1, stripes_total: rs.total });
        Ok(t1 >= rs.total)
    }

    /// The sweep over a migration batch's band read: `out` receives
    /// the source bytes of the addresses from `lo_addr` on. A stripe
    /// with a lost data unit is decoded where the sweep enters it,
    /// its survivors checked and folded in place, and its healthy
    /// units then copied unchecked; any other healthy unit is checked
    /// as it is copied. Mismatching units are noted in `bad` (the
    /// output is then not to be used).
    fn sweep_band(
        &self,
        st: &ArrayState,
        lo_addr: usize,
        out: &mut [u8],
        band: &UnitCache,
        scratch: &mut Scratch,
        bad: &mut Mismatches,
    ) -> Result<(), StoreError> {
        let (w, us) = (&*st.world, self.unit_size);
        // The stripe the sweep is in, and whether it was decoded.
        let mut current: Option<((usize, usize), bool)> = None;
        let mut solved = Decoded::default();
        for (i, unit) in out.chunks_exact_mut(us).enumerate() {
            let m = w.smap.locate_full(lo_addr + i);
            let key = (m.copy, m.stripe);
            let decoded = match current {
                Some((at, decoded)) if at == key => decoded,
                _ => {
                    let lost_data =
                        w.layout.stripes()[m.stripe].units().iter().enumerate().any(|(slot, u)| {
                            st.failed.contains(u.disk as usize)
                                && !w.smap.is_parity_slot(m.stripe, slot)
                        });
                    if lost_data {
                        let Scratch { acc_p, acc_q, .. } = &mut *scratch;
                        let dec = self.stripe_decode(st, m.stripe, &[], acc_p, acc_q)?;
                        let mut target = [(m.copy, m.stripe, dec)];
                        self.fold_checked(st, &mut target, band, bad)?;
                        let [(.., dec)] = target;
                        solved = dec.solve();
                    }
                    current = Some((key, lost_data));
                    lost_data
                }
            };
            if st.failed.contains(m.unit.disk as usize) {
                unit.copy_from_slice(solved.get(scratch, m.slot)?);
                continue;
            }
            let (pd, off) = (st.redirect[m.unit.disk as usize], m.unit.offset as usize);
            let bytes = band.get(pd, off)?;
            if !decoded && !self.integrity.sums.verify([(pd, off, bytes)], |_| {}) {
                bad.note(key, pd, off);
            }
            unit.copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Mirrors an acknowledged write into the target world: under the
    /// reshape's own stripe lock, read the target data unit, P (and Q)
    /// raw in one round, fold the delta into the parities, then write
    /// them and the new bytes in one round. Re-applying a value that
    /// landed whole writes nothing (its delta is zero). It is
    /// *not* idempotent over a part-failed call: if the P write lands
    /// and the data write fails, a client retry reads the old data
    /// again and folds the same delta into P a second time, leaving P
    /// at its old value beside the new data. This is the store's
    /// second parity-delta site, beside the delta route of
    /// `update_partial_stripe` (ROADMAP item 1). Called with the source
    /// stripe's shard lock held (write path) — lock order `source shard
    /// → target shard`.
    pub(crate) fn dual_write(
        &self,
        rs: &ReshapeRuntime,
        addr: usize,
        data: &[u8],
    ) -> Result<(), StoreError> {
        let (tw, us) = (&rs.target, self.unit_size);
        let m = tw.smap.locate_full(addr);
        let shard = rs.tgt_locks.shard_of(m.copy, m.stripe);
        let (_guard, _) = rs.tgt_locks.lock_one_counting(shard);
        // The target units laid out `[P][Q][data]` (no Q under XOR).
        let (p_slot, q_slot) = tw.smap.parity_slots(m.stripe);
        let runs: Vec<Run> = (std::iter::once(p_slot).chain(q_slot).chain([m.slot]))
            .enumerate()
            .map(|(i, slot)| {
                let at = rs.place(tw.unit(m.copy, m.stripe, slot));
                Run { disk: at.disk, first: at.offset, parts: i..i + 1 }
            })
            .collect();
        let io = self.io();
        let mut units = vec![0u8; runs.len() * us];
        io.read_into(&runs, &mut units, Priority::Client, |_, _| {})?;
        let (parity, delta) = units.split_at_mut((runs.len() - 1) * us);
        codec::delta(delta, data);
        if codec::is_zero(delta) {
            return Ok(()); // same value: nothing to fold or write
        }
        let (p, q) = parity.split_at_mut(us);
        Syndromes { p: Some(p), q: q_slot.map(|_| q) }.fold(Role::Data(m.slot), delta);
        let srcs: Vec<&[u8]> = parity.chunks_exact(us).chain([data]).collect();
        io.write_runs(&runs, &srcs, Priority::Client)
    }

    /// Commits a fully migrated reshape (see module docs for the
    /// crash windows). Errors with [`StoreError::ReshapeIncomplete`]
    /// if migration hasn't reached the end. On an I/O fault mid-commit,
    /// retrying resumes the slide at the watermark.
    pub fn complete_reshape(&self) -> Result<ReshapeReport, StoreError> {
        let mut st = self.state_write();
        let rs = match &st.reshape {
            Some(rs) => rs.clone(),
            None => return Err(StoreError::NoActiveReshape),
        };
        let done = rs.cursor.load(Ordering::Acquire);
        if done < rs.total {
            return Err(StoreError::ReshapeIncomplete { done, total: rs.total });
        }
        // Drain the cache completely: entry keys and shapes belong to
        // the source world, and the swap below must leave it empty.
        // (Entry bytes are already in the target via dual writes.)
        self.flush_cache_locked(&st)?;
        let us = self.unit_size;
        let tw = rs.target.clone();
        let u_tgt = tw.copies * tw.layout.size();
        let sb = rs.doc.scratch_base;
        rs.committing.store(true, Ordering::Release);
        self.persist(Record::Progress(&st))?;
        // Slide the target region down: chunk ≤ scratch_base rows, so
        // a chunk's writes never clobber scratch rows a slide resumed
        // from the watermark would re-read.
        let chunk_rows = sb.clamp(1, 4096);
        let mut buf = vec![0u8; chunk_rows * us];
        let io = self.io();
        let mut row = rs.slide_done.load(Ordering::Acquire) as usize;
        while row < u_tgt {
            let span = &mut buf[..chunk_rows.min(u_tgt - row) * us];
            for &disk in &rs.doc.tgt_redirect {
                let run = |first| [Run { disk, first, parts: 0..1 }];
                io.read_runs(&run(sb + row), &mut [&mut *span], Priority::Maintenance, |_, _| {})?;
                io.write_runs(&run(row), &[&*span], Priority::Maintenance)?;
            }
            row += span.len() / us;
            rs.slide_done.store(row as u64, Ordering::Release);
            self.persist(Record::Progress(&st))?;
        }
        // The slide's landings recorded the sums of the rows it wrote,
        // but only rows inside the source-sized table, and rows past
        // `U_tgt` keep sums that describe *source*-world units. Clear
        // the whole table instead — unset sums are
        // re-adopted by the next scrub pass (or re-recorded by
        // writes), which trades one pass of verification for zero
        // false mismatches. The barrier writes the cleared table as a
        // fresh base before the committed document lands: a reopen of
        // that document must not load source-world sums (when `U_tgt`
        // equals the source rows their geometry matches), and a crash
        // before it reopens into this commit, which loads none. The
        // trim comes last; a crash before it leaves long files that
        // the trimming open heals.
        self.integrity.sums.resize_units(u_tgt);
        for d in 0..self.backend.disks() {
            self.integrity.sums.clear_disk(d);
        }
        self.persist(Record::Committed(&tw, &rs.doc.tgt_redirect))?;
        self.backend.set_units_per_disk(u_tgt)?;
        // Swap worlds. Failures survive the flip, remapped through the
        // surviving source disks (the identity on add; a removed failed
        // disk simply drops out); the new world's stale markers start
        // fresh — the target region of a failed disk was kept complete
        // by dual writes and the migration, so restore-after-commit is
        // valid.
        let mut new_failed = FailureSet::new();
        let survivors = (0..rs.from_v).filter(|d| !rs.doc.removed.contains(d));
        for (t, d) in survivors.enumerate() {
            if st.failed.contains(d) {
                new_failed.insert(t);
            }
        }
        st.world = tw.clone();
        st.redirect = rs.doc.tgt_redirect.clone();
        st.failed = new_failed;
        st.rebuilding = None;
        st.reshape = None;
        st.epoch += 1;
        self.capacity.store(rs.doc.capacity_after, Ordering::Release);
        // The scrub cursor restarts with the new stripe numbering.
        self.scrub_cursor.store(0, Ordering::Release);
        let epoch = st.epoch;
        let to_v = tw.layout.v();
        self.events.emit(|| Event::ReshapeCompleted { to_v: to_v as u32, epoch });
        Ok(ReshapeReport {
            kind: rs.doc.kind.clone(),
            method: rs.method.to_string(),
            moved_fraction: rs.moved_fraction,
            from_v: rs.from_v,
            to_v,
            stripes_migrated: rs.total,
            units_copied: rs.units_done.load(Ordering::Relaxed),
            capacity_before: rs.capacity_before,
            capacity_after: rs.doc.capacity_after,
            elapsed_ms: rs.started.elapsed().as_millis() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{Backend, MemBackend};
    use crate::store::BlockStore;
    use crate::support::fill_pattern;
    use pdl_core::RingLayout;

    fn filled_store(v: usize, k: usize, spares: usize, copies: usize) -> BlockStore<MemBackend> {
        let rl = RingLayout::for_v_k(v, k);
        let backend = MemBackend::new(v + spares, copies * rl.layout().size(), 64);
        let store = BlockStore::new(rl.layout().clone(), backend).unwrap();
        let mut buf = vec![0u8; 64];
        for addr in 0..store.blocks() {
            fill_pattern(addr, 7, &mut buf);
            store.write_block(addr, &buf).unwrap();
        }
        store
    }

    #[test]
    fn add_disk_roundtrip_mem() {
        let store = filled_store(5, 3, 1, 1);
        let before = store.blocks();
        let report = store.add_disks(&[5]).unwrap();
        assert_eq!(report.from_v, 5);
        assert_eq!(report.to_v, 6);
        assert_eq!(store.v(), 6);
        assert!(store.blocks() > before, "add grows capacity");
        assert!(!store.reshaping());
        let (mut buf, mut want) = (vec![0u8; 64], vec![0u8; 64]);
        for addr in 0..before {
            fill_pattern(addr, 7, &mut want);
            store.read_block(addr, &mut buf).unwrap();
            assert_eq!(buf, want, "block {addr} after add");
        }
        // New capacity reads back zero.
        for addr in before..store.blocks() {
            store.read_block(addr, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "fresh block {addr} is zero");
        }
        store.verify_parity().unwrap();
    }

    #[test]
    fn remove_disk_roundtrip_mem() {
        let store = filled_store(7, 3, 0, 1);
        let before = store.blocks();
        let report = store.remove_disks(&[2]).unwrap();
        assert_eq!(report.from_v, 7);
        assert_eq!(report.to_v, 6);
        assert_eq!(store.v(), 6);
        assert_eq!(store.blocks(), before, "remove preserves capacity");
        let (mut buf, mut want) = (vec![0u8; 64], vec![0u8; 64]);
        for addr in 0..before {
            fill_pattern(addr, 7, &mut want);
            store.read_block(addr, &mut buf).unwrap();
            assert_eq!(buf, want, "block {addr} after remove");
        }
        store.verify_parity().unwrap();
    }

    #[test]
    fn add_disk_stairway_keeps_the_copy_count() {
        // The 9→10 stairway: growing a two-copy 9-disk array by one
        // disk keeps two layout copies, so capacity steps up only by
        // the wider layout. Every pre-reshape block survives bit-exact.
        let store = filled_store(9, 4, 1, 2);
        let before = store.blocks();
        let report = store.add_disks(&[9]).unwrap();
        assert_eq!((report.from_v, report.to_v), (9, 10));
        let (copies, size) = {
            let st = store.state_read();
            (st.world.copies, st.world.layout.size())
        };
        assert_eq!(copies, 2, "add keeps the source copy count");
        assert_eq!(store.backend().units_per_disk(), 2 * size);
        assert_eq!(store.blocks(), report.capacity_after);
        assert!(report.capacity_after > before, "the wider layout grows capacity");
        let (mut buf, mut want) = (vec![0u8; 64], vec![0u8; 64]);
        for addr in 0..before {
            fill_pattern(addr, 7, &mut want);
            store.read_block(addr, &mut buf).unwrap();
            assert_eq!(buf, want, "block {addr} after stairway add");
        }
        store.verify_parity().unwrap();
    }

    #[test]
    fn reshape_refuses_bad_requests() {
        let store = filled_store(5, 3, 1, 1);
        assert!(store.add_disks(&[]).is_err());
        assert!(store.add_disks(&[9]).is_err());
        assert!(store.add_disks(&[0]).is_err(), "disk 0 is already mapped");
        assert!(store.remove_disks(&[0, 1, 2]).is_err(), "would shrink below k + 1");
        assert!(store.complete_reshape().is_err(), "no active reshape");
    }
}
