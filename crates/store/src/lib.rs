//! # pdl-store
//!
//! A byte-level parity-declustered block store: the paper's layouts
//! ([`pdl_core::Layout`]) turned into an actual fault-tolerant array
//! that reads and writes real bytes, with **configurable fault
//! tolerance** — single-parity XOR or double-parity P+Q.
//!
//! * [`Backend`] — pluggable storage with a **vectored IO engine**:
//!   unit-granular and multi-unit span transfers
//!   ([`Backend::read_units`]/[`Backend::write_units`]) plus
//!   `readv`/`writev`-style scatter/gather
//!   ([`Backend::read_units_scatter`]/[`Backend::write_units_gather`]),
//!   per-disk unit *and* call counters, and fault-injection hooks
//!   ([`Backend::wipe_disk`]). [`MemBackend`] (reference, span
//!   memcpys) and [`FileBackend`] (one file per disk, positional
//!   `pread`/`pwrite` + vectored syscalls at `offset * unit_size`);
//! * [`ParityScheme`] — the redundancy level: [`ParityScheme::Xor`]
//!   (one parity unit per stripe, any single disk may fail) or
//!   [`ParityScheme::PQ`] (two parity units per stripe, any **two**
//!   disks may fail concurrently);
//! * [`BlockStore`] — the stripe-aware read/write path: parity
//!   maintained on a partially covered stripe by delta or
//!   reconstruct update (whichever reads fewer units), a zero-read
//!   full-stripe write fast path, logical→physical translation via
//!   the Condition-4 [`StripeMap`] (re-exported from `pdl-core`,
//!   built with the scheme's parity slots; a precomputed
//!   per-rotation lookup table: [`StripeMap::locate_full`] resolves
//!   an address in one branch-free index, no divides). Multi-block
//!   transfers ([`BlockStore::read_blocks`]/
//!   [`BlockStore::write_blocks`]) coalesce per-disk contiguous runs
//!   into single vectored backend calls, degraded batch reads decode
//!   each lost stripe once, and a per-store scratch pool keeps the
//!   steady state allocation-free;
//! * a **write-back stripe cache** (opt-in via [`CachePolicy`]) that
//!   combines small writes per stripe: dirty units accumulate with
//!   zero backend I/O and flush as one combined parity update (fully
//!   dirty stripes take the zero-read full-stripe path), with
//!   flush-before-transition ordering around failures and rebuilds
//!   and the policy persisted in [`StoreMeta`] — the README's "Cache
//!   semantics (write-back)" section gives the ordering and
//!   durability rules;
//! * fault injection ([`BlockStore::fail_disk`], capped by the
//!   scheme's tolerance and tracked in a [`FailureSet`]) and
//!   **degraded reads** that erasure-decode lost units from surviving
//!   stripe members — one- and two-erasure solves;
//! * [`Rebuilder`] — online rebuild of failed disks onto spares,
//!   stripe by stripe with bounded parallelism; double failures
//!   rebuild in two phases ([`Rebuilder::rebuild_all`]) with per-disk
//!   read counts per phase, so the (k−1)/(v−1)-per-failure
//!   rebuild-load claim is measurable on real traffic;
//! * [`StoreMeta`] — array metadata persisted as JSON (reusing the
//!   `pdl-core` [`pdl_core::LayoutSpec`] codec) including the parity
//!   scheme and P+Q slot assignment, so file-backed arrays reopen
//!   with their exact geometry;
//! * **concurrency** — every operation (writes included) takes
//!   `&self`: a stripe-sharded lock table serializes parity updates
//!   per stripe with deadlock-free ordered acquisition, the failure
//!   state sits behind an `RwLock` epoch so `fail_disk`/
//!   `restore_disk`/rebuilds coordinate with in-flight I/O, and a
//!   rebuild can race live writes (write-through to the spare). The
//!   README's "Concurrency" section gives the locking model;
//! * **first-class observability** — a lock-light metrics registry
//!   (per-op-kind counters + sampled log2 latency histograms) owned
//!   by every store, a pluggable [`EventSink`] with a bundled
//!   ring-buffer [`TraceLog`], live [`RebuildProgress`] snapshots
//!   (the (k−1)/(v−1) read distribution observable *during* a racing
//!   rebuild), degraded-window accounting split by erasure count, and
//!   a serde [`StatsSnapshot`] from [`BlockStore::stats`] that
//!   [`render_stats`] prints as text. The README's "Observability"
//!   section walks through it.
//!
//! ## Fault-tolerance levels
//!
//! | Scheme | Parity per stripe | Tolerates | Small write | Decode |
//! |--------|-------------------|-----------|-------------|--------|
//! | [`ParityScheme::Xor`] | 1 (P) | 1 failed disk | 2 reads + 2 writes | XOR of survivors |
//! | [`ParityScheme::PQ`]  | 2 (P, Q) | 2 failed disks | 3 reads + 3 writes | `GF(2^8)` syndrome solve |
//!
//! ## The P+Q math
//!
//! Within a stripe whose data units sit at slots `j` (Q coefficients
//! `g^j`, `g` the generator of `GF(2^8)` mod `x^8+x^4+x^3+x^2+1`):
//!
//! ```text
//! P = Σ D_j            Q = Σ g^j · D_j
//! ```
//!
//! Losing any two units leaves a solvable 2×2 linear system over
//! `GF(2^8)` — see [`pdl_algebra::gf256`] for the kernels. P and Q
//! slot placement per stripe comes from the paper's generalized
//! Theorem 14 flow ([`pdl_core::DoubleParityLayout`]), so the
//! combined parity population stays balanced within one unit per
//! disk.
//!
//! ## The failure/rebuild state machine
//!
//! `fail_disk` moves a disk into the [`FailureSet`] (at most
//! `fault_tolerance` at a time; re-failing a failed disk is
//! [`StoreError::AlreadyFailed`]). While degraded, reads
//! erasure-decode and writes keep every *surviving* parity unit
//! consistent. A [`Rebuilder`] drains the set: each phase
//! reconstructs one disk onto a spare, redirects the logical disk,
//! and persists the mapping. [`BlockStore::restore_disk`] undoes a
//! transient failure without a rebuild (contents must be intact).
//!
//! ```
//! use pdl_core::{DoubleParityLayout, RingLayout};
//! use pdl_store::{BlockStore, MemBackend, Rebuilder};
//!
//! // A double-parity declustered store: 9 disks + 2 spares.
//! let rl = RingLayout::for_v_k(9, 4);
//! let dp = DoubleParityLayout::new(rl.layout().clone()).unwrap();
//! let backend = MemBackend::new(11, dp.layout().size(), 64);
//! let store = BlockStore::new_pq(dp, backend).unwrap(); // no `mut`: writes take &self
//!
//! // Write, fail TWO disks, read back degraded, rebuild onto spares.
//! let block = vec![0x5a; 64];
//! store.write_block(7, &block).unwrap();
//! store.fail_disk(3).unwrap();
//! store.fail_disk(6).unwrap();
//! let mut out = vec![0; 64];
//! store.read_block(7, &mut out).unwrap();   // two-erasure decode if needed
//! assert_eq!(out, block);
//!
//! let reports = Rebuilder::new(4).rebuild_all(&store, &[9, 10]).unwrap();
//! assert_eq!(reports.len(), 2);
//! assert!(!store.is_degraded());
//! store.verify_parity().unwrap();
//! ```

#![warn(missing_docs)]

// Lets the test support module, which the integration tests share,
// name this crate as they do.
extern crate self as pdl_store;

mod backend;
mod cache;
mod codec;
mod engine;
mod error;
pub mod integrity;
mod io;
mod maintenance;
mod meta;
mod obs;
mod read;
mod rebuild;
mod repair;
mod reshape;
mod scheme;
mod scrub;
mod store;
mod write;

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use backend::{Backend, FileBackend, MemBackend};
pub use cache::CachePolicy;
pub use engine::{
    Completion, DiskQueue, Engine, EngineConfig, EngineDiskSnapshot, EngineStatsSnapshot, Priority,
};
pub use error::StoreError;
pub use integrity::{xxh64, DiskHealthSnapshot, IntegrityStatsSnapshot, RetryPolicy};
pub use maintenance::{
    JobHandle, MaintenanceStateSnapshot, ReshapeDriverConfig, ReshapeDriverReport,
};
pub use meta::{
    create_file_store, create_file_store_pq, open_file_store, update_cache_policy, ReshapeState,
    ScrubState, StoreMeta, META_FILE, META_VERSION, SUMS_FILE, SUMS_LOG_FILE,
};
pub use obs::{
    render_stats, CacheStatsSnapshot, DegradedSnapshot, DiskStatSnapshot, Event, EventSink,
    IoTotals, OpKind, OpStatSnapshot, RebuildProgress, ReshapeProgressSnapshot, StatsSnapshot,
    TraceLog, WindowSnapshot,
};
pub use pdl_core::{AddrRef, StripeMap};
pub use rebuild::{RebuildReport, Rebuilder};
pub use reshape::ReshapeReport;
pub use scheme::{FailureSet, ParityScheme};
pub use scrub::ScrubReport;
pub use store::BlockStore;
