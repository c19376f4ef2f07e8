//! Array metadata persistence: one JSON document, `store.json`
//! (reusing `pdl-core`'s [`LayoutSpec`] codec for the layout itself),
//! stored alongside a file-backed array so it can be reopened with the
//! exact geometry it was created with — including the parity scheme
//! and, under P+Q, the per-stripe `(P, Q)` slot assignment, so a
//! reopened store decodes with the same parity placement instead of
//! re-running the (implementation-detail) flow assignment. The same
//! document carries the logical→physical disk redirect a rebuild
//! changes, so a reopened store reads spares, not stale failed disks.
//!
//! There is one document shape, [`StoreMeta`], stamped
//! [`META_VERSION`]; any other stamp is rejected. The progress of the
//! two resumable maintenance jobs rides in two independent optional
//! sections — `reshape` ([`ReshapeState`]) and `scrub`
//! ([`ScrubState`]) — that may both be present, and every writer
//! builds the whole document from live store state in one place, so no
//! checkpoint drops the other job's section.
//!
//! # The durability barrier
//!
//! A live store persists through one function, `BlockStore::persist`:
//! creation, `flush`, rebuild completion, reshape begin, batch
//! checkpoints, stop and commit, and scrub checkpoints all call it, and
//! say only what the document records. It snapshots the document,
//! then, in this order:
//!
//! 1. syncs the data (`Backend::flush`);
//! 2. persists the checksum table (base or journal record);
//! 3. replaces `store.json`.
//!
//! Two rules follow. The order is data → checksums → document. And a
//! document never names data that has not been synced: a redirect
//! naming a rebuilt spare, a reshape cursor or slide watermark, a scrub
//! pass count are all written only after the bytes they vouch for are
//! on the medium. A barrier that fails at any step returns the error
//! and leaves `store.json` as it was. Each replacement is durable: the
//! new file is synced before it is renamed over the old one, and the
//! directory is synced after, so a crash leaves either the old
//! document or the new one, never a truncated one.
//!
//! Beside the `disk-*.bin` media an array directory holds three
//! metadata files: `store.json`, the checksum base [`SUMS_FILE`] and
//! its journal [`SUMS_LOG_FILE`]. One private type, `ArrayDir`, is the
//! only code that touches them: it reads and replaces the document,
//! writes the base, appends to and replays the journal, and detects a
//! torn journal tail. A file-backed store holds its `ArrayDir`; a
//! memory-backed store has none, and persists nothing: its barrier is
//! the data sync alone, and a progress checkpoint skips even that.
//!
//! A *pending* failure is deliberately not persisted: if a process
//! exits while degraded, the reopened store sees the array as healthy
//! and the stale disk's bytes as live. Rebuild before closing, or call
//! [`BlockStore::fail_disk`] again after reopening.

use crate::backend::{Backend, FileBackend};
use crate::cache::CachePolicy;
use crate::error::StoreError;
use crate::integrity::{xxh64, ChecksumTable, Integrity};
use crate::reshape::ReshapeRuntime;
use crate::scheme::ParityScheme;
use crate::store::{ArrayState, BlockStore, World};
use pdl_core::{DoubleParityLayout, Layout, LayoutSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// The durable image of an in-flight reshape — the `reshape` section
/// of [`StoreMeta`] — so a crash mid-reshape resumes on reopen (the
/// README's "Reshaping" section describes the protocol).
///
/// The store reopens on the **source** geometry (backend at
/// `grown_units` units per disk) with the migration runtime installed
/// from this section, at `cursor` and `slide_done`. `phase =
/// "migrate"`: the migration resumes at `cursor`. `phase = "commit"`:
/// migration is complete and the commit slide was interrupted at the
/// `slide_done` watermark; the open runs the live commit, which
/// resumes the slide there, before it returns.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct ReshapeState {
    /// `"add"` or `"remove"`.
    pub kind: String,
    /// `"migrate"` or `"commit"`.
    pub phase: String,
    /// Target stripes fully migrated (monotone; persisted only by the
    /// durability barrier, after the batch's writes are synced, so a
    /// resume re-copies but never skips).
    pub cursor: u64,
    /// Commit-slide watermark: target rows fully slid down (only
    /// meaningful in phase `"commit"`).
    pub slide_done: u64,
    /// The target layout, in the stable exchange format.
    pub target_layout: LayoutSpec,
    /// Per-stripe `(P, Q)` slots of the target layout under P+Q;
    /// empty under XOR.
    pub target_parity_slots: Vec<(u32, u32)>,
    /// Target layout copies tiled per disk.
    pub target_copies: usize,
    /// Target logical disk → physical backend disk.
    pub tgt_redirect: Vec<usize>,
    /// Logical source disks being removed (empty on add).
    pub removed: Vec<usize>,
    /// First physical row of the scratch (target) region.
    pub scratch_base: usize,
    /// Units per disk while the reshape is active.
    pub grown_units: usize,
    /// Logical capacity after the commit.
    pub capacity_after: usize,
}

/// The durable image of the scrubber's progress — the `scrub` section
/// of [`StoreMeta`]. A stopped or crashed pass resumes at `cursor`
/// (stripes already verified are not re-walked until the next pass);
/// `passes` carries the lifetime pass count across reopens — and
/// across reshapes, which reset only the cursor.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct ScrubState {
    /// Global stripe index (`copy × stripes_per_copy + stripe`) of the
    /// next stripe to scrub.
    pub cursor: u64,
    /// Completed scrub passes.
    pub passes: u64,
}

/// The format stamp of every `store.json` this crate writes or opens.
pub const META_VERSION: u32 = 6;

/// Everything needed to reopen an array: layout, unit size, copies,
/// spare count, the parity scheme and the disk redirect, plus the
/// progress of any resumable maintenance job. Serialized as
/// `store.json` in the array directory.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct StoreMeta {
    /// Metadata format stamp: always [`META_VERSION`].
    pub version: u32,
    /// Bytes per unit.
    pub unit_size: usize,
    /// Layout copies tiled per disk.
    pub copies: usize,
    /// Spare physical disks beyond the layout's `v`.
    pub spares: usize,
    /// Logical disk → physical backend disk, `v` distinct entries below
    /// `v + spares`: the identity until a rebuild moves a logical disk
    /// onto a spare.
    pub redirect: Vec<usize>,
    /// Parity scheme name: `xor` or `pq`.
    pub scheme: String,
    /// Per-stripe `(P, Q)` slot pairs under P+Q; empty under XOR.
    pub parity_slots: Vec<(u32, u32)>,
    /// Cache policy name: `writethrough` or `writeback:<max_dirty>`
    /// (see [`CachePolicy::decode`]).
    pub cache_policy: String,
    /// In-flight reshape checkpoint; `None` on committed (and
    /// never-reshaped) arrays.
    pub reshape: Option<ReshapeState>,
    /// Scrub progress checkpoint; `None` until a scrub has run.
    /// Independent of `reshape`: both may be present.
    pub scrub: Option<ScrubState>,
    /// The declustered layout, in its stable exchange format.
    pub layout: LayoutSpec,
}

/// File name of the metadata document inside an array directory.
pub const META_FILE: &str = "store.json";

/// File name of the checksum-table sidecar inside an array directory
/// (one checksum per physical unit). Written by the durability
/// barrier, after the data and before `store.json`; a missing, stale,
/// or malformed sidecar never
/// fails an open — the table just starts unset and is re-adopted by
/// the next scrub pass.
pub const SUMS_FILE: &str = "checksums.bin";

/// File name of the incremental checksum-sidecar log inside an array
/// directory: self-checksummed records of entries dirtied since the
/// last full sidecar write, appended by the durability barrier and
/// compacted back into [`SUMS_FILE`] when it would outgrow half the
/// base table (see `ArrayDir::persist_sums`). A torn tail from a
/// crash mid-append is detected and ignored on replay.
pub const SUMS_LOG_FILE: &str = "checksums.log";

/// `(P, Q)` slot pairs in the document's fixed-width form.
pub(crate) fn slots_u32(slots: &[(usize, usize)]) -> Vec<(u32, u32)> {
    slots.iter().map(|&(p, q)| (p as u32, q as u32)).collect()
}

impl StoreMeta {
    /// Captures the metadata of an XOR store configuration.
    pub(crate) fn new(layout: &Layout, unit_size: usize, copies: usize, spares: usize) -> Self {
        StoreMeta {
            version: META_VERSION,
            unit_size,
            copies,
            spares,
            redirect: (0..layout.v()).collect(),
            scheme: ParityScheme::Xor.name().to_string(),
            parity_slots: Vec::new(),
            cache_policy: CachePolicy::WriteThrough.encode(),
            reshape: None,
            scrub: None,
            layout: LayoutSpec::from_layout(layout),
        }
    }

    /// Sets the persisted cache policy (builder style): a reopened
    /// store installs it automatically.
    pub(crate) fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy.encode();
        self
    }

    /// The cache policy this document describes.
    pub(crate) fn parsed_cache_policy(&self) -> Result<CachePolicy, StoreError> {
        CachePolicy::decode(&self.cache_policy).ok_or_else(|| {
            StoreError::Corrupt(format!("unknown cache policy `{}`", self.cache_policy))
        })
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("meta is always serializable")
    }

    /// Parses and validates a JSON document. Only [`META_VERSION`]
    /// documents are accepted.
    pub fn from_json(json: &str) -> Result<Self, StoreError> {
        let meta: StoreMeta =
            serde_json::from_str(json).map_err(|e| StoreError::Corrupt(format!("meta: {e}")))?;
        if meta.version != META_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported store meta version {}",
                meta.version
            )));
        }
        if meta.unit_size == 0 || meta.copies == 0 {
            return Err(StoreError::Corrupt("zero unit_size or copies".into()));
        }
        let scheme = meta.parsed_scheme()?;
        match scheme {
            ParityScheme::Xor if !meta.parity_slots.is_empty() => {
                return Err(StoreError::Corrupt("xor meta carries parity slots".into()));
            }
            ParityScheme::PQ if meta.parity_slots.is_empty() => {
                return Err(StoreError::Corrupt("pq meta is missing parity slots".into()));
            }
            _ => {}
        }
        meta.parsed_cache_policy()?;
        let v = meta.layout.v;
        if meta.redirect.len() != v {
            return Err(StoreError::Corrupt(format!(
                "redirect covers {} disks, layout has {v}",
                meta.redirect.len()
            )));
        }
        let mut physical = meta.redirect.clone();
        physical.sort_unstable();
        let out_of_range = physical.last().is_some_and(|&p| p >= v.saturating_add(meta.spares));
        if out_of_range || physical.windows(2).any(|w| w[0] == w[1]) {
            return Err(StoreError::Corrupt(format!(
                "redirect {:?} has an entry out of range or repeated",
                meta.redirect
            )));
        }
        if let Some(rs) = &meta.reshape {
            if rs.kind != "add" && rs.kind != "remove" {
                return Err(StoreError::Corrupt(format!("unknown reshape kind `{}`", rs.kind)));
            }
            if rs.phase != "migrate" && rs.phase != "commit" {
                return Err(StoreError::Corrupt(format!("unknown reshape phase `{}`", rs.phase)));
            }
        }
        Ok(meta)
    }

    /// The parity scheme this document describes.
    pub(crate) fn parsed_scheme(&self) -> Result<ParityScheme, StoreError> {
        ParityScheme::from_name(&self.scheme)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown parity scheme `{}`", self.scheme)))
    }

    /// Reconstructs the layout (revalidating it).
    pub(crate) fn layout(&self) -> Result<Layout, StoreError> {
        self.layout.to_layout().map_err(|e| StoreError::Corrupt(format!("layout: {e}")))
    }

    /// Reconstructs the double-parity assignment (P+Q documents only).
    pub(crate) fn double_parity_layout(&self) -> Result<DoubleParityLayout, StoreError> {
        let layout = self.layout()?;
        let slots: Vec<(usize, usize)> =
            self.parity_slots.iter().map(|&(p, q)| (p as usize, q as usize)).collect();
        DoubleParityLayout::from_parts(layout, slots)
            .map_err(|e| StoreError::Corrupt(format!("parity slots: {e}")))
    }
}

/// What one pass through the durability barrier
/// ([`BlockStore::persist`]) records.
pub(crate) enum Record<'a> {
    /// The serving state — its world and redirect, the active reshape
    /// at its live cursor, watermark and phase, the scrub cursor and
    /// pass count — for a caller that promises durable data (`flush`,
    /// rebuild completion, creation): without an array directory the
    /// barrier still syncs the data.
    Serving(&'a ArrayState),
    /// The same document as a progress checkpoint (scrub, reshape
    /// begin, batch, stop and slide chunk): without an array directory
    /// there is nothing to record, and nothing is synced.
    Progress(&'a ArrayState),
    /// A reshape commit's target world reached through its redirect,
    /// with no reshape section.
    Committed(&'a World, &'a [usize]),
}

impl<B: Backend> BlockStore<B> {
    /// The durability barrier: the one place a live store syncs its
    /// data, persists its checksums and replaces its document, in that
    /// order (see the [module docs](self)). The document is snapshotted
    /// first, so it names only what the sync that follows covers; one
    /// barrier runs at a time, so documents land in snapshot order. An
    /// error at any step leaves `store.json` unchanged.
    pub(crate) fn persist(&self, rec: Record<'_>) -> Result<(), StoreError> {
        let Some(dir) = &self.dir else {
            return match rec {
                Record::Progress(_) => Ok(()),
                Record::Serving(_) | Record::Committed(..) => self.backend.flush(),
            };
        };
        let mut journal = dir.journal.lock().unwrap_or_else(|e| e.into_inner());
        let meta = match rec {
            Record::Serving(st) | Record::Progress(st) => {
                let reshape = st.reshape.as_deref().map(ReshapeRuntime::checkpoint);
                self.checkpoint_meta(&st.world, &st.redirect, reshape)
            }
            Record::Committed(w, redirect) => self.checkpoint_meta(w, redirect, None),
        };
        self.backend.flush()?;
        dir.persist_sums(&mut journal, &self.integrity)?;
        dir.replace_meta(&meta)
    }

    /// The document describing world `w` reached through `redirect`
    /// with `reshape` as its reshape section and the store's current
    /// scrub cursor and pass count as its scrub section.
    fn checkpoint_meta(
        &self,
        w: &World,
        redirect: &[usize],
        reshape: Option<ReshapeState>,
    ) -> StoreMeta {
        let cursor = self.scrub_cursor.load(Ordering::Acquire);
        let passes = self.integrity.scrub_passes.load(Ordering::Acquire);
        StoreMeta {
            redirect: redirect.to_vec(),
            scheme: self.scheme.name().to_string(),
            parity_slots: slots_u32(w.pq_slots.as_deref().unwrap_or_default()),
            cache_policy: self.cache.policy().encode(),
            reshape,
            scrub: (cursor != 0 || passes != 0).then_some(ScrubState { cursor, passes }),
            ..StoreMeta::new(
                &w.layout,
                self.unit_size,
                w.copies,
                self.backend.disks() - w.layout.v(),
            )
        }
    }
}

/// An array directory, and the only code that touches its metadata
/// files (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ArrayDir {
    path: PathBuf,
    /// The checksum journal's state, and the lock one barrier holds
    /// from its document snapshot to its document write: flushes,
    /// scrub checkpoints and maintenance threads may all persist
    /// concurrently, interleaved appends would corrupt the record
    /// stream, and interleaved document writes would land out of
    /// snapshot order.
    journal: Mutex<Journal>,
}

/// What the checksum journal knows about the sidecar files on disk.
#[derive(Debug, Default)]
struct Journal {
    /// Geometry `(disks, units)` of the base table on disk; `None`
    /// when the next persist must rewrite the base (nothing written
    /// yet, a base or journal that did not load whole, a failed write).
    /// A table whose geometry no longer matches — a reshape commit
    /// resized it — is rewritten whole too.
    base: Option<(usize, usize)>,
    /// Bytes in [`SUMS_LOG_FILE`] — drives compaction.
    log_len: u64,
}

impl ArrayDir {
    /// Magic prefix of one journal record.
    const LOG_MAGIC: &'static [u8; 4] = b"PSL1";

    fn new(path: &Path) -> Self {
        ArrayDir { path: path.to_path_buf(), journal: Mutex::default() }
    }

    /// Reads and validates the document.
    fn read_meta(&self) -> Result<StoreMeta, StoreError> {
        StoreMeta::from_json(&std::fs::read_to_string(self.path.join(META_FILE))?)
    }

    /// Durably replaces the document, so a crash mid-write never
    /// leaves a truncated one.
    fn replace_meta(&self, meta: &StoreMeta) -> Result<(), StoreError> {
        self.replace(META_FILE, meta.to_json().as_bytes())
    }

    /// Durably replaces file `name`: writes and syncs `name.tmp`,
    /// renames it over the old file (whose inode is never written to),
    /// then syncs the directory so the rename itself survives a crash.
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        use std::io::Write as _;
        let tmp = self.path.join(format!("{name}.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, self.path.join(name))?;
        std::fs::File::open(&self.path)?.sync_all()?;
        Ok(())
    }

    /// Removes file `name`; one that does not exist is already gone.
    fn remove(&self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path.join(name)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Best-effort load of a reopened store's checksum table: the base,
    /// then the journal replayed over it. Wrong geometry or torn bytes
    /// leave entries unset (their verification skipped until a scrub
    /// re-adopts them); nothing here fails an open. Replay is safe even
    /// without a base: records carry the geometry they were written
    /// under and a torn tail stops it. Only a base that loaded and a
    /// journal that replayed whole let the next persist append;
    /// otherwise it rewrites the base and drops the journal — appending
    /// past a torn record would leave the new entries unreachable.
    fn load_sums(&self, sums: &ChecksumTable) {
        let base_ok = std::fs::read(self.path.join(SUMS_FILE)).is_ok_and(|b| sums.load_bytes(&b));
        let (log_len, whole) = match std::fs::read(self.path.join(SUMS_LOG_FILE)) {
            Ok(bytes) => (bytes.len() as u64, Self::replay_journal(sums, &bytes) == bytes.len()),
            Err(_) => (0, true),
        };
        let base = (base_ok && whole).then(|| sums.geometry());
        *self.journal.lock().unwrap_or_else(|e| e.into_inner()) = Journal { base, log_len };
    }

    /// Persists the checksum table: the barrier's second step
    /// ([`BlockStore::persist`]), which holds `j`.
    ///
    /// Rather than rewriting the whole table every time (a background
    /// scrub would turn that into back-to-back full-table rewrites),
    /// entries dirtied since the last persist are appended
    /// as one self-checksummed record to the journal: `"PSL1" + disks
    /// u32 + units u32 + count u32 + count × (disk u32, offset u32,
    /// sum u64) + xxh64(entries)`. The base is rewritten whole (tmp +
    /// rename, then the journal is removed) instead when forced (see
    /// `Journal::base`) or when the record would grow the journal past
    /// half the base (compaction) — so a reshape commit, which clears
    /// and dirties every entry, always writes a fresh base. A torn
    /// tail from a crash mid-append is detected on replay by the
    /// record checksum and ignored; sums are best-effort and self-heal
    /// through read-repair.
    fn persist_sums(&self, j: &mut Journal, integrity: &Integrity) -> Result<(), StoreError> {
        let sums = &integrity.sums;
        let geometry = sums.geometry();
        let base_len = 24 + (geometry.0 * geometry.1 * 8) as u64;
        let mut entries = Vec::new();
        let mut count = 0u32;
        sums.drain_dirty(|d, o, s| {
            entries.extend_from_slice(&(d as u32).to_le_bytes());
            entries.extend_from_slice(&(o as u32).to_le_bytes());
            entries.extend_from_slice(&s.to_le_bytes());
            count += 1;
        });
        if j.base == Some(geometry) && count == 0 {
            return Ok(());
        }
        let rec_len = (16 + entries.len() + 8) as u64;
        if j.base != Some(geometry) || j.log_len + rec_len > base_len / 2 {
            // Everything the drained entries cover is in the table we
            // are about to write whole.
            j.base = None;
            self.replace(SUMS_FILE, &sums.to_bytes())?;
            // Remove the now-stale journal only after the base rename,
            // so a crash between the two loses no entry. (Its older
            // entries then replay over the newer base; read-repair
            // heals the sums they revert.)
            self.remove(SUMS_LOG_FILE)?;
            *j = Journal { base: Some(geometry), log_len: 0 };
            return Ok(());
        }
        let mut rec = Vec::with_capacity(rec_len as usize);
        rec.extend_from_slice(Self::LOG_MAGIC);
        rec.extend_from_slice(&(geometry.0 as u32).to_le_bytes());
        rec.extend_from_slice(&(geometry.1 as u32).to_le_bytes());
        rec.extend_from_slice(&count.to_le_bytes());
        rec.extend_from_slice(&entries);
        rec.extend_from_slice(
            &ChecksumTable::encode(xxh64(ChecksumTable::SEED, &entries)).to_le_bytes(),
        );
        let appended = (|| {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path.join(SUMS_LOG_FILE))?;
            f.write_all(&rec)?;
            f.sync_data()
        })();
        match appended {
            Ok(()) => {
                j.log_len += rec.len() as u64;
                Ok(())
            }
            Err(e) => {
                // The drained entries may be half-appended; force the
                // next persist to re-establish a clean base.
                j.base = None;
                Err(e.into())
            }
        }
    }

    /// Replays journal bytes over `sums`, returning the number of
    /// bytes consumed. Stops — without erroring — at the first
    /// malformed or checksum-failing record (a torn tail from a crash
    /// mid-append); records whose geometry header disagrees with the
    /// table (written before a reshape changed the world) are skipped,
    /// not applied.
    fn replay_journal(sums: &ChecksumTable, bytes: &[u8]) -> usize {
        let (disks, units) = sums.geometry();
        let mut at = 0usize;
        while bytes.len() - at >= 24 {
            let rec = &bytes[at..];
            if &rec[..4] != Self::LOG_MAGIC {
                break;
            }
            let rd32 = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().unwrap());
            let count = rd32(&rec[12..]) as usize;
            let body_end = 16 + count * 16;
            if rec.len() < body_end + 8 {
                break;
            }
            let entries = &rec[16..body_end];
            let want = u64::from_le_bytes(rec[body_end..body_end + 8].try_into().unwrap());
            if ChecksumTable::encode(xxh64(ChecksumTable::SEED, entries)) != want {
                break;
            }
            let geometry_ok =
                rd32(&rec[4..]) as usize == disks && rd32(&rec[8..]) as usize == units;
            if geometry_ok {
                for e in entries.chunks_exact(16) {
                    let d = rd32(e) as usize;
                    let o = rd32(&e[4..]) as usize;
                    let s = u64::from_le_bytes(e[8..16].try_into().unwrap());
                    sums.set_raw(d, o, s);
                }
            }
            at += body_end + 8;
        }
        at
    }
}

/// Creates a new single-parity (XOR) file-backed array under `dir`:
/// per-disk files for `v + spares` physical disks plus a `store.json`
/// metadata document.
pub fn create_file_store(
    dir: impl AsRef<Path>,
    layout: Layout,
    unit_size: usize,
    copies: usize,
    spares: usize,
) -> Result<BlockStore<FileBackend>, StoreError> {
    let dir = ArrayDir::new(dir.as_ref());
    let backend =
        FileBackend::create(&dir.path, layout.v() + spares, copies * layout.size(), unit_size)?;
    attach(BlockStore::new(layout, backend)?, dir)
}

/// Creates a new double-parity (P+Q) file-backed array under `dir`.
/// The metadata records the parity-slot assignment, so the reopened
/// store decodes with the placement it was created with.
pub fn create_file_store_pq(
    dir: impl AsRef<Path>,
    dp: DoubleParityLayout,
    unit_size: usize,
    copies: usize,
    spares: usize,
) -> Result<BlockStore<FileBackend>, StoreError> {
    let dir = ArrayDir::new(dir.as_ref());
    let (v, size) = (dp.layout().v(), dp.layout().size());
    let backend = FileBackend::create(&dir.path, v + spares, copies * size, unit_size)?;
    attach(BlockStore::new_pq(dp, backend)?, dir)
}

/// Ties a new store to its array directory and writes its first
/// document through the durability barrier, so the created media are
/// synced before `store.json` names them.
fn attach<B: Backend>(
    mut store: BlockStore<B>,
    dir: ArrayDir,
) -> Result<BlockStore<B>, StoreError> {
    store.dir = Some(dir);
    store.persist(Record::Serving(&store.state_read()))?;
    Ok(store)
}

/// Ties a reopened store to its array directory — which every later
/// checkpoint, rebuild and flush persists through — and installs what
/// the document records: the redirect, the cache policy and the scrub
/// section.
fn install_document(
    store: &mut BlockStore<FileBackend>,
    dir: ArrayDir,
    meta: &StoreMeta,
) -> Result<(), StoreError> {
    store.state_write().redirect = meta.redirect.clone();
    store.dir = Some(dir);
    store.set_cache_policy(meta.parsed_cache_policy()?)?;
    if let Some(sc) = &meta.scrub {
        store.restore_scrub_state(sc.cursor, sc.passes);
    }
    Ok(())
}

/// Reopens an array created by [`create_file_store`] or
/// [`create_file_store_pq`], reading the geometry **and scheme** from
/// its metadata document.
///
/// A document with a `reshape` section (crash mid-reshape) reopens on
/// the source geometry, with the backend still holding the scratch
/// rows, and installs the reshape runtime from that section — after
/// the same checks a live begin's document passes; a malformed one is
/// refused as [`StoreError::Corrupt`] before any disk is written. A
/// `"migrate"` document resumes at the persisted cursor (finish it
/// with [`BlockStore::drive_reshape`] or step it incrementally). A
/// `"commit"` document runs [`BlockStore::complete_reshape`], the live
/// commit, from the persisted slide watermark before the open returns
/// the committed target-geometry array. The `scrub` section is
/// restored either way.
pub fn open_file_store(dir: impl AsRef<Path>) -> Result<BlockStore<FileBackend>, StoreError> {
    let dir = ArrayDir::new(dir.as_ref());
    let meta = dir.read_meta()?;
    let (layout, pq_slots) = match meta.parsed_scheme()? {
        ParityScheme::Xor => (meta.layout()?, None),
        ParityScheme::PQ => {
            let dp = meta.double_parity_layout()?;
            (dp.layout().clone(), Some(dp.all_parity_slots().to_vec()))
        }
    };
    let (disks, us) = (layout.v() + meta.spares, meta.unit_size);
    let backend = match &meta.reshape {
        // Mid-reshape the files hold exactly the grown geometry.
        Some(rs) => FileBackend::open(&dir.path, disks, rs.grown_units, us)?,
        // Trim-allowing open: heals files left long by a crash between
        // a reshape's backend grow and its first metadata checkpoint,
        // or between a commit's final metadata write and its trim.
        None => FileBackend::open_trimming(&dir.path, disks, meta.copies * layout.size(), us)?,
    };
    let mut store = BlockStore::build(layout, pq_slots, backend, Some(meta.copies))?;
    // A reopened reshape starts without sums: its commit drops them
    // anyway, and until then writes record them afresh.
    if meta.reshape.is_none() {
        dir.load_sums(&store.integrity.sums);
    }
    install_document(&mut store, dir, &meta)?;
    if let Some(rs) = &meta.reshape {
        store.install_reshape(&mut store.state_write(), rs, None)?;
        if rs.phase == "commit" {
            store.complete_reshape()?;
        }
    }
    Ok(store)
}

/// Durably changes the cache policy of an existing file-backed array
/// (replacing its `store.json` as the barrier does); the next
/// [`open_file_store`] installs it. Does not affect stores already
/// open — call [`BlockStore::set_cache_policy`] on those directly.
pub fn update_cache_policy(dir: impl AsRef<Path>, policy: CachePolicy) -> Result<(), StoreError> {
    let dir = ArrayDir::new(dir.as_ref());
    dir.replace_meta(&dir.read_meta()?.with_cache_policy(policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::faulty::{FaultConfig, FaultyBackend};
    use crate::support::fill_pattern;
    use pdl_core::RingLayout;

    #[test]
    fn meta_roundtrips() {
        let rl = RingLayout::for_v_k(5, 3);
        let meta = StoreMeta::new(rl.layout(), 256, 2, 1);
        let back = StoreMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(meta, back);
        assert_eq!(back.layout().unwrap().v(), 5);
        assert_eq!(back.parsed_scheme().unwrap(), ParityScheme::Xor);
        assert_eq!(back.parsed_cache_policy().unwrap(), CachePolicy::WriteThrough);
    }

    #[test]
    fn cache_policy_roundtrips_and_validates() {
        let rl = RingLayout::for_v_k(5, 3);
        let meta = StoreMeta::new(rl.layout(), 256, 2, 1)
            .with_cache_policy(CachePolicy::WriteBack { max_dirty: 32 });
        let back = StoreMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(back.parsed_cache_policy().unwrap(), CachePolicy::WriteBack { max_dirty: 32 });
        // An unknown policy name is rejected at parse time.
        let mut bad = meta;
        bad.cache_policy = "battery-backed".into();
        assert!(StoreMeta::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn pq_meta_roundtrips_slots() {
        let rl = RingLayout::for_v_k(9, 4);
        let dp = DoubleParityLayout::new(rl.layout().clone()).unwrap();
        let meta = StoreMeta {
            scheme: ParityScheme::PQ.name().to_string(),
            parity_slots: slots_u32(dp.all_parity_slots()),
            ..StoreMeta::new(dp.layout(), 128, 1, 2)
        };
        let back = StoreMeta::from_json(&meta.to_json()).unwrap();
        assert_eq!(back.parsed_scheme().unwrap(), ParityScheme::PQ);
        let dp2 = back.double_parity_layout().unwrap();
        assert_eq!(dp2.all_parity_slots(), dp.all_parity_slots());
    }

    #[test]
    fn bad_meta_rejected() {
        assert!(StoreMeta::from_json("not json").is_err());
        let mut meta = StoreMeta::new(RingLayout::for_v_k(5, 2).layout(), 64, 1, 0);
        meta.version = 9;
        assert!(StoreMeta::from_json(&meta.to_json()).is_err());
        // Unknown scheme name.
        let mut meta = StoreMeta::new(RingLayout::for_v_k(5, 2).layout(), 64, 1, 0);
        meta.scheme = "raid7".into();
        assert!(StoreMeta::from_json(&meta.to_json()).is_err());
        // PQ without slots.
        let mut meta = StoreMeta::new(RingLayout::for_v_k(5, 3).layout(), 64, 1, 0);
        meta.scheme = "pq".into();
        assert!(StoreMeta::from_json(&meta.to_json()).is_err());
        // Redirects: the identity over v = 5 with 2 spares is accepted,
        // and so is a rebuilt one; a wrong length, an entry at or past
        // v + spares, and a repeated entry are not.
        let good = StoreMeta::new(RingLayout::for_v_k(5, 3).layout(), 64, 1, 2);
        assert!(StoreMeta::from_json(&good.to_json()).is_ok());
        let rebuilt = StoreMeta { redirect: vec![0, 1, 6, 3, 4], ..good.clone() };
        assert!(StoreMeta::from_json(&rebuilt.to_json()).is_ok());
        for redirect in [vec![0, 1, 2, 3], vec![0, 1, 2, 3, 7], vec![0, 1, 5, 3, 5]] {
            let meta = StoreMeta { redirect, ..good.clone() };
            assert!(
                matches!(StoreMeta::from_json(&meta.to_json()), Err(StoreError::Corrupt(_))),
                "{:?} must be refused",
                meta.redirect
            );
        }
    }

    /// The checksum journal appends while the table keeps the geometry
    /// of the base on disk, and rewrites the base (dropping the
    /// journal) once a reshape commit resized the table; a reload sees
    /// every entry either way.
    #[test]
    fn journal_appends_until_the_table_geometry_changes() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ad = ArrayDir::new(&dir);
        let integrity = Integrity::new(3, 8);
        let len = |name: &str| std::fs::metadata(dir.join(name)).map(|m| m.len()).ok();
        let persist = || ad.persist_sums(&mut ad.journal.lock().unwrap(), &integrity).unwrap();
        integrity.sums.record([(0, 1, &b"first"[..])]);
        persist(); // nothing on disk yet: a base
        assert_eq!((len(SUMS_FILE), len(SUMS_LOG_FILE)), (Some(24 + 3 * 8 * 8), None));
        integrity.sums.record([(2, 7, &b"second"[..])]);
        persist(); // same geometry: one record
        assert_eq!((len(SUMS_FILE), len(SUMS_LOG_FILE)), (Some(24 + 3 * 8 * 8), Some(16 + 16 + 8)));
        let reloaded = ChecksumTable::new(3, 8);
        ArrayDir::new(&dir).load_sums(&reloaded);
        assert_eq!(reloaded.to_bytes(), integrity.sums.to_bytes());
        integrity.sums.resize_units(4);
        integrity.sums.record([(1, 3, &b"third"[..])]);
        persist(); // resized: a fresh base
        assert_eq!((len(SUMS_FILE), len(SUMS_LOG_FILE)), (Some(24 + 3 * 4 * 8), None));
        let reloaded = ChecksumTable::new(3, 4);
        ArrayDir::new(&dir).load_sums(&reloaded);
        assert_eq!(reloaded.to_bytes(), integrity.sums.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_cache_policy_applies_on_open() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rl = RingLayout::for_v_k(5, 3);
        {
            let store = create_file_store(&dir, rl.layout().clone(), 64, 1, 1).unwrap();
            assert_eq!(store.cache_policy(), CachePolicy::WriteThrough);
            store.write_block(3, &[0x3cu8; 64]).unwrap();
            store.flush().unwrap();
        }
        update_cache_policy(&dir, CachePolicy::WriteBack { max_dirty: 16 }).unwrap();
        let store = open_file_store(&dir).unwrap();
        assert_eq!(store.cache_policy(), CachePolicy::WriteBack { max_dirty: 16 });
        // Writes combine in the cache; flush makes them durable.
        store.write_block(4, &[0x77u8; 64]).unwrap();
        assert_eq!(store.dirty_cache_stripes(), 1);
        store.flush().unwrap();
        assert_eq!(store.dirty_cache_stripes(), 0);
        let mut out = vec![0u8; 64];
        store.read_block(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x3c));
        store.read_block(4, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x77));
        store.verify_parity().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_open_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-test-{}", std::process::id()));
        let rl = RingLayout::for_v_k(5, 3);
        {
            let store = create_file_store(&dir, rl.layout().clone(), 64, 1, 1).unwrap();
            let data = vec![0xabu8; 64];
            store.write_block(7, &data).unwrap();
            store.flush().unwrap();
        }
        let store = open_file_store(&dir).unwrap();
        assert_eq!(store.v(), 5);
        assert_eq!(store.unit_size(), 64);
        assert_eq!(store.scheme(), ParityScheme::Xor);
        let mut out = vec![0u8; 64];
        store.read_block(7, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xab));
        store.verify_parity().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_open_roundtrip_pq() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-pq-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rl = RingLayout::for_v_k(9, 4);
        let dp = DoubleParityLayout::new(rl.layout().clone()).unwrap();
        let slots = dp.all_parity_slots().to_vec();
        {
            let store = create_file_store_pq(&dir, dp, 64, 1, 2).unwrap();
            let data = vec![0x5cu8; 64];
            store.write_block(3, &data).unwrap();
            store.flush().unwrap();
        }
        let store = open_file_store(&dir).unwrap();
        assert_eq!(store.scheme(), ParityScheme::PQ);
        assert_eq!(store.fault_tolerance(), 2);
        assert_eq!(store.state_read().world.pq_slots.as_deref().unwrap(), &slots[..]);
        let mut out = vec![0u8; 64];
        store.read_block(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x5c));
        store.verify_parity().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The reshape and scrub sections are independent: a document
    /// carrying both round-trips whole, and so does each alone.
    #[test]
    fn reshape_and_scrub_sections_roundtrip_together() {
        let src = RingLayout::for_v_k(5, 3);
        let tgt = RingLayout::for_v_k(7, 3);
        let reshape = ReshapeState {
            kind: "add".into(),
            phase: "migrate".into(),
            cursor: 9,
            slide_done: 0,
            target_layout: LayoutSpec::from_layout(tgt.layout()),
            target_parity_slots: Vec::new(),
            target_copies: 2,
            tgt_redirect: (0..7).collect(),
            removed: Vec::new(),
            scratch_base: 2 * src.layout().size(),
            grown_units: 2 * src.layout().size() + 2 * tgt.layout().size(),
            capacity_after: 100,
        };
        let scrub = ScrubState { cursor: 0, passes: 3 };
        let base = StoreMeta::new(src.layout(), 64, 2, 2);
        for (reshape, scrub) in [
            (Some(reshape.clone()), Some(scrub.clone())),
            (Some(reshape), None),
            (None, Some(ScrubState { cursor: 17, passes: 3 })),
        ] {
            let meta = StoreMeta { reshape, scrub, ..base.clone() };
            assert_eq!(meta.version, META_VERSION);
            assert_eq!(StoreMeta::from_json(&meta.to_json()).unwrap(), meta);
        }
    }

    /// Documents stamped by earlier releases (1 XOR, 2 P+Q, 3 reshape
    /// state, 4 scrub state) are refused by name, not misread.
    #[test]
    fn old_version_stamp_is_rejected_with_a_readable_error() {
        for old in 1..META_VERSION {
            let mut meta = StoreMeta::new(RingLayout::for_v_k(5, 3).layout(), 64, 2, 1);
            meta.version = old;
            match StoreMeta::from_json(&meta.to_json()) {
                Err(StoreError::Corrupt(msg)) => {
                    assert_eq!(msg, format!("unsupported store meta version {old}"));
                }
                other => panic!("version {old} must be refused, got {other:?}"),
            }
        }
    }

    /// A file array of ring `(v, k)` — P+Q when `pq` — with two
    /// spares, built as `create_file_store*` builds one but over a
    /// `FaultyBackend<FileBackend>`, so its flushes can be made to
    /// fail; every block is filled and flushed.
    fn faulty_file_store(
        dir: &Path,
        v: usize,
        k: usize,
        pq: bool,
    ) -> BlockStore<FaultyBackend<FileBackend>> {
        let layout = RingLayout::for_v_k(v, k).layout().clone();
        let file = FileBackend::create(dir, v + 2, layout.size(), 64).unwrap();
        let backend = FaultyBackend::new(file, FaultConfig::quiet(36));
        let store = match pq {
            true => BlockStore::new_pq(DoubleParityLayout::new(layout).unwrap(), backend),
            false => BlockStore::new(layout, backend),
        };
        let store = attach(store.unwrap(), ArrayDir::new(dir)).unwrap();
        let mut buf = vec![0u8; 64];
        for addr in 0..store.blocks() {
            fill_pattern(addr, 36, &mut buf);
            store.write_block(addr, &buf).unwrap();
        }
        store.flush().unwrap();
        store
    }

    /// Reads every block of `store` — the pattern `faulty_file_store`
    /// wrote into the first `blocks` addresses, zeroes past them — and
    /// verifies parity.
    fn assert_bit_exact<B: Backend>(store: &BlockStore<B>, blocks: usize, ctx: &str) {
        let (mut got, mut want) = (vec![0u8; 64], vec![0u8; 64]);
        for addr in 0..store.blocks() {
            want.fill(0);
            if addr < blocks {
                fill_pattern(addr, 36, &mut want);
            }
            store.read_block(addr, &mut got).unwrap_or_else(|e| panic!("{ctx}: block {addr}: {e}"));
            assert!(got == want, "{ctx}: block {addr}");
        }
        store.verify_parity().unwrap_or_else(|e| panic!("{ctx}: parity: {e}"));
    }

    /// Every checkpoint goes through the one barrier: data, then sums,
    /// then `store.json`. With the backend's flushes failing, a rebuild,
    /// a checkpointing reshape step, a scrub pass and a reshape commit
    /// each fail and leave the document byte-identical — none names a
    /// spare, a cursor, a pass or a geometry whose bytes were never
    /// synced. Retried with flushes working, each succeeds, and the
    /// reopened array reads every block bit-exact with parity intact.
    #[test]
    fn every_checkpoint_syncs_what_it_names() {
        use crate::rebuild::Rebuilder;
        for (v, k, pq) in [(7, 3, false), (9, 4, true)] {
            for leg in ["rebuild", "reshape_step", "scrub", "complete_reshape"] {
                let name = format!("{} v={v} k={k} {leg}", if pq { "P+Q" } else { "XOR" });
                let dir = std::env::temp_dir()
                    .join(format!("pdl-meta-barrier-{}-{v}-{leg}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let store = faulty_file_store(&dir, v, k, pq);
                let blocks = store.blocks();
                match leg {
                    "rebuild" => {
                        store.fail_disk(2).unwrap();
                        store.backend().wipe_disk(2).unwrap();
                    }
                    "reshape_step" => store.begin_add_disks(&[v]).unwrap(),
                    "complete_reshape" => {
                        store.begin_add_disks(&[v]).unwrap();
                        while !store.reshape_step(1).unwrap() {}
                    }
                    _ => {}
                }
                let call = || -> Result<(), StoreError> {
                    match leg {
                        "rebuild" => Rebuilder::new(2).rebuild(&store, v).map(drop),
                        "reshape_step" => store.reshape_step(1).map(drop),
                        "scrub" => store.scrub().map(drop),
                        _ => store.complete_reshape().map(drop),
                    }
                };
                let before = std::fs::read(dir.join(META_FILE)).unwrap();
                store.backend().fail_flushes(true);
                assert!(call().is_err(), "{name}: an unsynced checkpoint must fail");
                assert!(
                    std::fs::read(dir.join(META_FILE)).unwrap() == before,
                    "{name}: a failed barrier left store.json changed"
                );
                store.backend().fail_flushes(false);
                call().unwrap_or_else(|e| panic!("{name}: retry failed: {e}"));
                drop(store);
                assert_bit_exact(&open_file_store(&dir).unwrap(), blocks, &name);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A foreground scrub over `n` stripes goes through the barrier
    /// exactly ⌊n/512⌋ + 1 times — every 512 stripes, and once at pass
    /// end. The counted flush fault lets that many barriers through and
    /// fails the next flush: the scrub succeeds, and the flush after it
    /// is the one that fails.
    #[test]
    fn scrub_checkpoints_every_512_stripes_and_at_pass_end() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-scrub-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = RingLayout::for_v_k(7, 3).layout().clone();
        let copies = 1300usize.div_ceil(layout.stripes().len());
        let n = (copies * layout.stripes().len()) as u64;
        assert!(
            n > 1024 && !n.is_multiple_of(512),
            "{n} stripes: more than two checkpoints and a tail"
        );
        let file = FileBackend::create(&dir, 7 + 2, copies * layout.size(), 64).unwrap();
        let backend = FaultyBackend::new(file, FaultConfig::quiet(36));
        let store = attach(BlockStore::new(layout, backend).unwrap(), ArrayDir::new(&dir)).unwrap();
        let barriers = n / 512 + 1;
        store.backend().fail_flush_after(barriers);
        let report = store.scrub().unwrap();
        assert_eq!((report.stripes, report.passes), (n, 1));
        assert!(store.flush().is_err(), "the scrub went through fewer than {barriers} barriers");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The files that define an array, by name: every disk medium and
    /// `store.json` (the checksum sidecar is best-effort and left out).
    fn array_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("disk-") || name == META_FILE)
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// A [`faulty_file_store`], scrubbed once, whose add of one disk
    /// has migrated every stripe and waits for its commit.
    fn migrated_add(
        dir: &Path,
        v: usize,
        k: usize,
        pq: bool,
    ) -> BlockStore<FaultyBackend<FileBackend>> {
        let store = faulty_file_store(dir, v, k, pq);
        assert!(store.scrub().unwrap().completed);
        store.begin_add_disks(&[v]).unwrap();
        while !store.reshape_step(0).unwrap() {}
        store
    }

    /// A reshape commit cut by a failed flush at any of its barriers —
    /// the `committing` document, each slide chunk, the committed
    /// document — and then dropped (the crash) resumes on reopen: the
    /// open runs the commit from the persisted watermark (or, cut
    /// before the `committing` document landed, reopens mid-reshape at
    /// the final cursor for `complete_reshape` to run). Either way the
    /// disk files and `store.json` end byte-identical to an
    /// uninterrupted commit's, every block reads bit-exact, parity
    /// verifies, and the scrub history survives.
    #[test]
    fn commit_resumes_from_every_barrier_file() {
        for (v, k, pq) in [(7, 3, false), (9, 4, true)] {
            let scheme = if pq { "P+Q" } else { "XOR" };
            let tmp = |leg: &str| {
                let dir = std::env::temp_dir()
                    .join(format!("pdl-meta-commit-{}-{v}-{leg}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                dir
            };
            let twin_dir = tmp("twin");
            let twin = migrated_add(&twin_dir, v, k, pq);
            let blocks = twin.blocks();
            twin.complete_reshape().unwrap();
            drop(twin);
            let committed = array_files(&twin_dir);
            std::fs::remove_dir_all(&twin_dir).unwrap();
            let mut barrier = 0;
            loop {
                let ctx = format!("{scheme} v={v} k={k} barrier {barrier}");
                let dir = tmp("cut");
                let store = migrated_add(&dir, v, k, pq);
                store.backend().fail_flush_after(barrier);
                if store.complete_reshape().is_ok() {
                    break; // past the last barrier: nothing was cut
                }
                drop(store); // the crash
                let json = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
                let rs = StoreMeta::from_json(&json).unwrap().reshape.expect("reshape persisted");
                assert_eq!(rs.phase == "commit", barrier > 0, "{ctx}: phase {}", rs.phase);
                let re = open_file_store(&dir).unwrap();
                if barrier == 0 {
                    assert!(re.reshaping(), "{ctx}: reopened at the final cursor");
                    re.complete_reshape().unwrap();
                }
                assert!(!re.reshaping(), "{ctx}: the commit ran");
                assert_eq!(re.v(), v + 1, "{ctx}");
                assert!(
                    array_files(&dir) == committed,
                    "{ctx}: files differ from the live commit's"
                );
                assert_eq!(re.stats().integrity.scrub_passes, 1, "{ctx}: the scrub pass survives");
                assert_bit_exact(&re, blocks, &ctx);
                drop(re);
                std::fs::remove_dir_all(&dir).unwrap();
                barrier += 1;
            }
            assert!(barrier >= 4, "{scheme}: {barrier} barriers; want several slide chunks");
        }
    }

    /// A commit drops every checksum, and nothing may load the source
    /// world's sums over the target world afterwards: reopened without
    /// a flush — after the live commit, or after one cut at its second
    /// slide chunk's barrier — every block reads clean.
    #[test]
    fn commit_leaves_no_stale_checksums_file() {
        for cut in [None, Some(2)] {
            let dir = std::env::temp_dir()
                .join(format!("pdl-meta-stalesums-{}-{cut:?}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = migrated_add(&dir, 7, 3, false); // flushed: a checksum base
            let blocks = store.blocks();
            if let Some(n) = cut {
                store.backend().fail_flush_after(n);
            }
            assert_eq!(store.complete_reshape().is_err(), cut.is_some());
            drop(store); // no flush
            let re = open_file_store(&dir).unwrap();
            assert_eq!(re.v(), 8);
            assert_bit_exact(&re, blocks, &format!("cut {cut:?}"));
            drop(re);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A commit that began and failed — at its first slide chunk's
    /// barrier — has slid target rows over the source world, so every
    /// client call is refused until the retried commit lands: a read
    /// would serve overwritten rows, and a cached write would leave the
    /// retry a source stripe to drain that no longer exists. The retry
    /// then succeeds, and every block reads bit-exact with parity
    /// verifying, live and reopened.
    #[test]
    fn a_failed_commit_refuses_client_io_until_its_retry() {
        let dir =
            std::env::temp_dir().join(format!("pdl-meta-commit-fence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = migrated_add(&dir, 7, 3, false);
        store.set_cache_policy(CachePolicy::WriteBack { max_dirty: 64 }).unwrap();
        let blocks = store.blocks();
        store.backend().fail_flush_after(1);
        assert!(store.complete_reshape().is_err(), "the first slide chunk's barrier fails");
        assert!(store.reshaping());
        let fenced = |res: Result<(), StoreError>, call: &str| {
            assert!(matches!(res, Err(StoreError::ReshapeInProgress)), "{call}: {res:?}");
        };
        let mut buf = vec![0u8; 2 * 64];
        fenced(store.read_block(0, &mut buf[..64]), "read_block");
        fenced(store.read_blocks(0, &mut buf), "read_blocks");
        fenced(store.write_block(0, &[0xee; 64]), "write_block");
        fenced(store.write_blocks(0, &[0xee; 2 * 64]), "write_blocks");
        store.complete_reshape().unwrap();
        assert_eq!(store.v(), 8);
        assert_bit_exact(&store, blocks, "retried commit");
        drop(store);
        assert_bit_exact(&open_file_store(&dir).unwrap(), blocks, "reopened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash can tear `store.json` three ways: a leftover `.tmp`
    /// from a write that never renamed, a truncated document, or
    /// garbage bytes. The first must be ignored (the committed
    /// document governs); the others must reject as corrupt — a
    /// half-applied open is never acceptable. Every writer, the
    /// offline `update_cache_policy` included, must therefore replace
    /// the document by rename and never rewrite it in place.
    #[test]
    fn torn_meta_crash_windows_recover_or_reject() {
        let dir = std::env::temp_dir().join(format!("pdl-meta-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rl = RingLayout::for_v_k(5, 3);
        {
            let store = create_file_store(&dir, rl.layout().clone(), 64, 1, 1).unwrap();
            store.write_block(3, &[0xabu8; 64]).unwrap();
            store.flush().unwrap();
        }
        let meta_path = dir.join(META_FILE);
        let good = std::fs::read_to_string(&meta_path).unwrap();
        let mut out = vec![0u8; 64];

        // Window 1: unrenamed tmp (crash before the atomic rename).
        std::fs::write(dir.join(format!("{META_FILE}.tmp")), &good[..good.len() / 2]).unwrap();
        {
            let store = open_file_store(&dir).unwrap();
            store.read_block(3, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0xab));
            store.verify_parity().unwrap();
        }

        // Window 1b: `update_cache_policy` interrupted mid-write. It
        // goes through the same tmp + rename, so the committed inode is
        // never written to: a hard link to it still reads the complete
        // old document afterwards (an in-place rewrite truncates it on
        // the way), and no tmp is left behind.
        let witness = dir.join("store.json.witness");
        std::fs::hard_link(&meta_path, &witness).unwrap();
        update_cache_policy(&dir, CachePolicy::WriteBack { max_dirty: 16 }).unwrap();
        assert_eq!(std::fs::read_to_string(&witness).unwrap(), good);
        assert!(!dir.join(format!("{META_FILE}.tmp")).exists());
        assert_eq!(
            open_file_store(&dir).unwrap().cache_policy(),
            CachePolicy::WriteBack { max_dirty: 16 }
        );
        std::fs::remove_file(&witness).unwrap();

        // Window 2: document torn in place (truncated JSON).
        std::fs::write(&meta_path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(open_file_store(&dir), Err(StoreError::Corrupt(_))));

        // Window 3: garbage where the document should be. Textual
        // garbage is Corrupt; raw binary garbage surfaces as the
        // UTF-8 read error — either way the open rejects.
        std::fs::write(&meta_path, b"garbage, not json at all").unwrap();
        assert!(matches!(open_file_store(&dir), Err(StoreError::Corrupt(_))));
        std::fs::write(&meta_path, b"\x00\xff\x00\xfe\x00").unwrap();
        assert!(open_file_store(&dir).is_err());

        // Restoring the committed document restores the array; a torn
        // checksum sidecar is best-effort and must not block the open.
        std::fs::write(&meta_path, &good).unwrap();
        std::fs::write(dir.join(SUMS_FILE), b"torn sidecar").unwrap();
        let store = open_file_store(&dir).unwrap();
        store.read_block(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xab));
        store.verify_parity().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
