//! Pluggable storage backends: where the array's bytes actually live.
//!
//! A [`Backend`] exposes a fixed-geometry array of disks, each divided
//! into fixed-size units, with thread-safe unit-granular *and
//! vectored multi-unit* reads and writes (interior mutability, so an
//! online rebuild can stream from many disks concurrently) and
//! per-disk IO counters — units transferred plus backend calls, the
//! measurement surface for verifying both declustering's (k−1)/(v−1)
//! rebuild-load claim and the store's IO-coalescing guarantees on
//! real traffic.

use crate::error::StoreError;
use crate::obs::DiskCounters;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Positional read: no seek, no cursor state, so one brief lock
/// suffices per transfer. Note the per-disk mutex is NOT merely a
/// contention model: the vectored scatter/gather paths below
/// ([`read_scatter_at`]/[`write_gather_at`]) still seek the shared
/// file cursor (there is no stable `preadv` in std), so the mutex
/// remains load-bearing for their correctness.
#[cfg(unix)]
fn read_at(f: &File, buf: &mut [u8], at: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, at)
}

#[cfg(unix)]
fn write_at(f: &File, buf: &[u8], at: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.write_all_at(buf, at)
}

#[cfg(not(unix))]
fn read_at(mut f: &File, buf: &mut [u8], at: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    f.seek(SeekFrom::Start(at))?;
    f.read_exact(buf)
}

#[cfg(not(unix))]
fn write_at(mut f: &File, buf: &[u8], at: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    f.seek(SeekFrom::Start(at))?;
    f.write_all(buf)
}

/// One `readv`-style transfer: a contiguous file range scattered into
/// the caller's buffers with no staging copy. Loops on partial reads.
fn read_scatter_at(mut f: &File, bufs: &mut [&mut [u8]], at: u64) -> std::io::Result<()> {
    use std::io::{IoSliceMut, Read, Seek, SeekFrom};
    f.seek(SeekFrom::Start(at))?;
    let mut slices: Vec<IoSliceMut<'_>> = bufs.iter_mut().map(|b| IoSliceMut::new(b)).collect();
    let mut rem: &mut [IoSliceMut<'_>] = &mut slices;
    while !rem.is_empty() {
        let n = f.read_vectored(rem)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "short scatter read",
            ));
        }
        IoSliceMut::advance_slices(&mut rem, n);
    }
    Ok(())
}

/// One `writev`-style transfer: the caller's buffers gathered into a
/// contiguous file range with no staging copy. Loops on partial writes.
fn write_gather_at(mut f: &File, bufs: &[&[u8]], at: u64) -> std::io::Result<()> {
    use std::io::{IoSlice, Seek, SeekFrom, Write};
    f.seek(SeekFrom::Start(at))?;
    let mut slices: Vec<IoSlice<'_>> = bufs.iter().map(|b| IoSlice::new(b)).collect();
    let mut rem: &mut [IoSlice<'_>] = &mut slices;
    while !rem.is_empty() {
        let n = f.write_vectored(rem)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "short gather write"));
        }
        IoSlice::advance_slices(&mut rem, n);
    }
    Ok(())
}

/// A fixed array of `disks × units_per_disk` units of `unit_size` bytes.
///
/// Implementations must be thread-safe: the rebuilder issues reads to
/// many disks from worker threads. Counters track physical IO per disk
/// (reads/writes of whole units) and are maintained by the backend so
/// every access path — normal, degraded, rebuild — is measured.
pub trait Backend: Send + Sync {
    /// Number of physical disks (including any spares).
    fn disks(&self) -> usize;

    /// Units per disk.
    fn units_per_disk(&self) -> usize;

    /// Bytes per unit.
    fn unit_size(&self) -> usize;

    /// Reads the unit at `(disk, offset)` into `buf` (`unit_size` bytes).
    fn read_unit(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError>;

    /// Writes `buf` (`unit_size` bytes) to the unit at `(disk, offset)`.
    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError>;

    /// Reads `buf.len() / unit_size` consecutive units from `disk`
    /// starting at `offset` — the vectored primitive behind the
    /// store's coalesced multi-block transfers. `buf` must be a
    /// nonzero multiple of the unit size. The default implementation
    /// loops [`Backend::read_unit`] (one call per unit); backends
    /// should override it with a single span transfer.
    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let n = span_units(self.unit_size(), buf.len())?;
        for (i, chunk) in buf.chunks_exact_mut(self.unit_size()).enumerate().take(n) {
            self.read_unit(disk, offset + i, chunk)?;
        }
        Ok(())
    }

    /// Writes `buf.len() / unit_size` consecutive units to `disk`
    /// starting at `offset` (vectored twin of [`Backend::read_units`];
    /// same contract, same coalescing default).
    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        let n = span_units(self.unit_size(), buf.len())?;
        for (i, chunk) in buf.chunks_exact(self.unit_size()).enumerate().take(n) {
            self.write_unit(disk, offset + i, chunk)?;
        }
        Ok(())
    }

    /// Scatter read: one contiguous span of units starting at
    /// `offset`, delivered into the caller's (unit-multiple-sized)
    /// buffers in order — `readv` semantics, so the store's coalesced
    /// multi-block reads land directly in caller memory with no
    /// staging copy. The default loops [`Backend::read_units`] per
    /// buffer; backends should override with a single transfer.
    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        let mut at = offset;
        for buf in bufs {
            self.read_units(disk, at, buf)?;
            at += buf.len() / self.unit_size();
        }
        Ok(())
    }

    /// Gather write: the caller's (unit-multiple-sized) buffers
    /// written as one contiguous span of units starting at `offset` —
    /// `writev` semantics, the twin of [`Backend::read_units_scatter`].
    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        let mut at = offset;
        for buf in bufs {
            self.write_units(disk, at, buf)?;
            at += buf.len() / self.unit_size();
        }
        Ok(())
    }

    /// Flushes buffered writes to durable storage.
    fn flush(&self) -> Result<(), StoreError>;

    /// Units read from `disk` since construction or the last reset.
    fn read_count(&self, disk: usize) -> u64;

    /// Units written to `disk` since construction or the last reset.
    fn write_count(&self, disk: usize) -> u64;

    /// Backend *calls* (operations) that served reads on `disk` — a
    /// vectored transfer counts once here and once per unit in
    /// [`Backend::read_count`]. The default equals the unit count,
    /// which is exact for backends that never coalesce; coalescing
    /// backends must track calls separately.
    fn read_calls(&self, disk: usize) -> u64 {
        self.read_count(disk)
    }

    /// Backend calls that served writes on `disk` (see
    /// [`Backend::read_calls`]).
    fn write_calls(&self, disk: usize) -> u64 {
        self.write_count(disk)
    }

    /// Whether reading a small unwanted hole to keep a run in one
    /// backend call beats splitting the run in two. True for
    /// syscall- or seek-bound backends (files, real disks, networks),
    /// where a call costs far more than a few extra units; memory-
    /// speed backends return false — their per-call cost is a lock
    /// acquisition, so bridged holes are pure wasted copying.
    fn prefers_gap_bridging(&self) -> bool {
        true
    }

    /// Zeroes all IO counters.
    fn reset_counters(&self);

    /// Overwrites a whole physical disk with zeroes — the fault
    /// injector's "the medium is gone" primitive. A store must never
    /// read a wiped disk while it is failed; tests wipe on failure so
    /// any stale read surfaces as corruption instead of silent luck.
    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError>;

    /// Vestigial: the store no longer calls this. The logical→physical
    /// disk redirect lives in the array's [`crate::META_FILE`]; the
    /// no-op default stays only for wrappers that
    /// still override it, until ROADMAP item 6a (a `Backend` that is
    /// only about I/O) deletes it.
    fn persist_mapping(&self, redirect: &[usize]) -> Result<(), StoreError> {
        let _ = redirect;
        Ok(())
    }

    /// Vestigial, like [`Backend::persist_mapping`]: the store no
    /// longer calls this, and ROADMAP item 6a deletes it.
    fn load_mapping(&self) -> Result<Option<Vec<usize>>, StoreError> {
        Ok(None)
    }

    /// Resizes every disk to `units` units — the reshape engine's
    /// geometry primitive: growing opens the zero-filled scratch
    /// region the target world migrates into; shrinking trims it away
    /// after the commit. New units **must read back as zeroes**.
    /// Callers must quiesce I/O first (the store resizes only under
    /// its exclusive state guard). Backends with immutable geometry
    /// keep the default error.
    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        let _ = units;
        Err(StoreError::Geometry("backend does not support resizing".into()))
    }
}

/// Validates a multi-unit buffer length, returning the unit count.
fn span_units(unit_size: usize, buf_len: usize) -> Result<usize, StoreError> {
    if buf_len == 0 || !buf_len.is_multiple_of(unit_size) {
        return Err(StoreError::BadBufferSize { expected: unit_size, got: buf_len });
    }
    Ok(buf_len / unit_size)
}

fn check_geometry(
    disks: usize,
    units: usize,
    disk: usize,
    offset: usize,
    unit_size: usize,
    buf_len: usize,
) -> Result<(), StoreError> {
    if disk >= disks || offset >= units {
        return Err(StoreError::OutOfRange { disk, offset });
    }
    if buf_len != unit_size {
        return Err(StoreError::BadBufferSize { expected: unit_size, got: buf_len });
    }
    Ok(())
}

/// Validates a multi-unit span against the geometry, returning the
/// unit count.
fn check_span(
    disks: usize,
    units: usize,
    disk: usize,
    offset: usize,
    unit_size: usize,
    buf_len: usize,
) -> Result<usize, StoreError> {
    let n = span_units(unit_size, buf_len)?;
    if disk >= disks || offset >= units || n > units - offset {
        return Err(StoreError::OutOfRange { disk, offset: offset + n.saturating_sub(1) });
    }
    Ok(n)
}

/// Validates a scatter/gather buffer list (each a nonzero unit
/// multiple) against the geometry, returning the total unit count.
fn check_scatter<'a>(
    disks: usize,
    units: usize,
    disk: usize,
    offset: usize,
    unit_size: usize,
    lens: impl Iterator<Item = usize> + 'a,
) -> Result<usize, StoreError> {
    let mut total = 0usize;
    for len in lens {
        // Single-unit buffers — the common shape the store's write
        // plans and scatter reads produce — skip the division.
        total += if len == unit_size { 1 } else { span_units(unit_size, len)? };
    }
    if total == 0 {
        return Err(StoreError::BadBufferSize { expected: unit_size, got: 0 });
    }
    if disk >= disks || offset >= units || total > units - offset {
        return Err(StoreError::OutOfRange { disk, offset: offset + total.saturating_sub(1) });
    }
    Ok(total)
}

/// In-memory backend: one `Vec<u8>` per disk behind an `RwLock`, so
/// concurrent readers (the rebuild fan-in) never serialize against each
/// other. The reference backend for tests and benchmarks.
#[derive(Debug)]
pub struct MemBackend {
    unit_size: usize,
    /// Units per disk — atomic so a reshape can grow/trim the
    /// geometry through `&self` (resizes happen only with I/O
    /// quiesced; see [`Backend::set_units_per_disk`]).
    units: AtomicUsize,
    data: Vec<RwLock<Vec<u8>>>,
    counters: DiskCounters,
}

impl MemBackend {
    /// Allocates a zero-filled array.
    ///
    /// # Panics
    /// Panics if any dimension is zero (the infallible constructor is
    /// for in-process geometry; the file-backed path returns
    /// [`StoreError::Geometry`] instead).
    pub fn new(disks: usize, units_per_disk: usize, unit_size: usize) -> Self {
        assert!(disks > 0 && units_per_disk > 0 && unit_size > 0, "empty geometry");
        MemBackend {
            unit_size,
            units: AtomicUsize::new(units_per_disk),
            data: (0..disks).map(|_| RwLock::new(vec![0u8; units_per_disk * unit_size])).collect(),
            counters: DiskCounters::new(disks),
        }
    }

    fn units(&self) -> usize {
        self.units.load(Ordering::Acquire)
    }
}

impl Backend for MemBackend {
    fn disks(&self) -> usize {
        self.data.len()
    }

    fn units_per_disk(&self) -> usize {
        self.units()
    }

    fn unit_size(&self) -> usize {
        self.unit_size
    }

    fn read_unit(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        check_geometry(self.data.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let d = self.data[disk].read().unwrap();
        let at = offset * self.unit_size;
        buf.copy_from_slice(&d[at..at + self.unit_size]);
        self.counters.add_read(disk, 1);
        Ok(())
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        check_geometry(self.data.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let mut d = self.data[disk].write().unwrap();
        let at = offset * self.unit_size;
        d[at..at + self.unit_size].copy_from_slice(buf);
        self.counters.add_write(disk, 1);
        Ok(())
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let n = check_span(self.data.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let d = self.data[disk].read().unwrap();
        let at = offset * self.unit_size;
        buf.copy_from_slice(&d[at..at + buf.len()]);
        self.counters.add_read(disk, n as u64);
        Ok(())
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        let n = check_span(self.data.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let mut d = self.data[disk].write().unwrap();
        let at = offset * self.unit_size;
        d[at..at + buf.len()].copy_from_slice(buf);
        self.counters.add_write(disk, n as u64);
        Ok(())
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        let n = check_scatter(
            self.data.len(),
            self.units(),
            disk,
            offset,
            self.unit_size,
            bufs.iter().map(|b| b.len()),
        )?;
        let d = self.data[disk].read().unwrap();
        let mut at = offset * self.unit_size;
        for buf in bufs {
            buf.copy_from_slice(&d[at..at + buf.len()]);
            at += buf.len();
        }
        self.counters.add_read(disk, n as u64);
        Ok(())
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        let n = check_scatter(
            self.data.len(),
            self.units(),
            disk,
            offset,
            self.unit_size,
            bufs.iter().map(|b| b.len()),
        )?;
        let mut d = self.data[disk].write().unwrap();
        let mut at = offset * self.unit_size;
        for buf in bufs {
            d[at..at + buf.len()].copy_from_slice(buf);
            at += buf.len();
        }
        self.counters.add_write(disk, n as u64);
        Ok(())
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn read_count(&self, disk: usize) -> u64 {
        self.counters.read_units(disk)
    }

    fn write_count(&self, disk: usize) -> u64 {
        self.counters.write_units(disk)
    }

    fn read_calls(&self, disk: usize) -> u64 {
        self.counters.read_calls(disk)
    }

    fn write_calls(&self, disk: usize) -> u64 {
        self.counters.write_calls(disk)
    }

    fn reset_counters(&self) {
        self.counters.reset();
    }

    fn prefers_gap_bridging(&self) -> bool {
        false
    }

    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.data.len() {
            return Err(StoreError::OutOfRange { disk, offset: 0 });
        }
        self.data[disk].write().unwrap().fill(0);
        Ok(())
    }

    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        if units == 0 {
            return Err(StoreError::Geometry("cannot resize to zero units".into()));
        }
        // Grow zero-fills (fresh scratch units read as zeroes); shrink
        // truncates. Per-disk write locks serialize against any
        // straggler I/O; the store only calls this quiesced.
        for d in &self.data {
            d.write().unwrap().resize(units * self.unit_size, 0);
        }
        self.units.store(units, Ordering::Release);
        Ok(())
    }
}

/// File-backed backend: one preallocated file per disk under a
/// directory (`disk-0000.bin`, `disk-0001.bin`, …), positional IO
/// (`pread`/`pwrite`-style, no seek round trip) at
/// `offset * unit_size`. Each file sits behind its own mutex, so IO to
/// different disks proceeds in parallel while IO to one disk is
/// serialized — the same contention model as a real single-actuator
/// drive.
#[derive(Debug)]
pub struct FileBackend {
    unit_size: usize,
    /// Units per disk — atomic so a reshape can grow/trim the file
    /// geometry through `&self` (see [`Backend::set_units_per_disk`]).
    units: AtomicUsize,
    files: Vec<Mutex<File>>,
    counters: DiskCounters,
}

impl FileBackend {
    fn disk_path(dir: &Path, disk: usize) -> PathBuf {
        dir.join(format!("disk-{disk:04}.bin"))
    }

    /// Creates (or truncates) the per-disk files, preallocated to the
    /// full geometry with zeroes.
    pub fn create(
        dir: impl AsRef<Path>,
        disks: usize,
        units_per_disk: usize,
        unit_size: usize,
    ) -> Result<Self, StoreError> {
        if disks == 0 || units_per_disk == 0 || unit_size == 0 {
            return Err(StoreError::Geometry(format!(
                "empty geometry: {disks} disks × {units_per_disk} units × {unit_size} B"
            )));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(disks);
        for d in 0..disks {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::disk_path(dir, d))?;
            f.set_len((units_per_disk * unit_size) as u64)?;
            files.push(Mutex::new(f));
        }
        Ok(FileBackend {
            unit_size,
            units: AtomicUsize::new(units_per_disk),
            files,
            counters: DiskCounters::new(disks),
        })
    }

    /// Opens an existing array created by [`FileBackend::create`],
    /// validating that every disk file has the expected length.
    pub(crate) fn open(
        dir: impl AsRef<Path>,
        disks: usize,
        units_per_disk: usize,
        unit_size: usize,
    ) -> Result<Self, StoreError> {
        Self::open_inner(dir, disks, units_per_disk, unit_size, false)
    }

    /// Opens an existing array, **truncating** disk files that are
    /// longer than the expected geometry (files shorter than expected
    /// are still [`StoreError::Corrupt`]). This is the self-healing
    /// open a committed reshape relies on: a crash after the final
    /// metadata write but before the scratch-region trim leaves the
    /// files longer than the metadata says, and the excess is — by
    /// the commit protocol — exactly the dead scratch region.
    pub(crate) fn open_trimming(
        dir: impl AsRef<Path>,
        disks: usize,
        units_per_disk: usize,
        unit_size: usize,
    ) -> Result<Self, StoreError> {
        Self::open_inner(dir, disks, units_per_disk, unit_size, true)
    }

    fn open_inner(
        dir: impl AsRef<Path>,
        disks: usize,
        units_per_disk: usize,
        unit_size: usize,
        trim: bool,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let expected = (units_per_disk * unit_size) as u64;
        let mut files = Vec::with_capacity(disks);
        for d in 0..disks {
            let path = Self::disk_path(dir, d);
            let f = OpenOptions::new().read(true).write(true).open(&path)?;
            let len = f.metadata()?.len();
            if len > expected && trim {
                f.set_len(expected)?;
            } else if len != expected {
                return Err(StoreError::Corrupt(format!(
                    "{} is {len} bytes, expected {expected}",
                    path.display()
                )));
            }
            files.push(Mutex::new(f));
        }
        Ok(FileBackend {
            unit_size,
            units: AtomicUsize::new(units_per_disk),
            files,
            counters: DiskCounters::new(disks),
        })
    }

    fn units(&self) -> usize {
        self.units.load(Ordering::Acquire)
    }

    /// Zero-buffer size for [`Backend::wipe_disk`] (1 MiB of zeroes
    /// per write call instead of one call per unit).
    const WIPE_CHUNK: usize = 1 << 20;
}

impl Backend for FileBackend {
    fn disks(&self) -> usize {
        self.files.len()
    }

    fn units_per_disk(&self) -> usize {
        self.units()
    }

    fn unit_size(&self) -> usize {
        self.unit_size
    }

    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        if units == 0 {
            return Err(StoreError::Geometry("cannot resize to zero units".into()));
        }
        let len = (units * self.unit_size) as u64;
        for f in &self.files {
            f.lock().unwrap().set_len(len)?;
        }
        self.units.store(units, Ordering::Release);
        Ok(())
    }

    fn read_unit(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        check_geometry(self.files.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let f = self.files[disk].lock().unwrap();
        read_at(&f, buf, (offset * self.unit_size) as u64)?;
        self.counters.add_read(disk, 1);
        Ok(())
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        check_geometry(self.files.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let f = self.files[disk].lock().unwrap();
        write_at(&f, buf, (offset * self.unit_size) as u64)?;
        self.counters.add_write(disk, 1);
        Ok(())
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let n =
            check_span(self.files.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let f = self.files[disk].lock().unwrap();
        read_at(&f, buf, (offset * self.unit_size) as u64)?;
        self.counters.add_read(disk, n as u64);
        Ok(())
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        let n =
            check_span(self.files.len(), self.units(), disk, offset, self.unit_size, buf.len())?;
        let f = self.files[disk].lock().unwrap();
        write_at(&f, buf, (offset * self.unit_size) as u64)?;
        self.counters.add_write(disk, n as u64);
        Ok(())
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        let n = check_scatter(
            self.files.len(),
            self.units(),
            disk,
            offset,
            self.unit_size,
            bufs.iter().map(|b| b.len()),
        )?;
        let f = self.files[disk].lock().unwrap();
        read_scatter_at(&f, bufs, (offset * self.unit_size) as u64)?;
        self.counters.add_read(disk, n as u64);
        Ok(())
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        let n = check_scatter(
            self.files.len(),
            self.units(),
            disk,
            offset,
            self.unit_size,
            bufs.iter().map(|b| b.len()),
        )?;
        let f = self.files[disk].lock().unwrap();
        write_gather_at(&f, bufs, (offset * self.unit_size) as u64)?;
        self.counters.add_write(disk, n as u64);
        Ok(())
    }

    fn flush(&self) -> Result<(), StoreError> {
        for f in &self.files {
            f.lock().unwrap().sync_data()?;
        }
        Ok(())
    }

    fn read_count(&self, disk: usize) -> u64 {
        self.counters.read_units(disk)
    }

    fn write_count(&self, disk: usize) -> u64 {
        self.counters.write_units(disk)
    }

    fn read_calls(&self, disk: usize) -> u64 {
        self.counters.read_calls(disk)
    }

    fn write_calls(&self, disk: usize) -> u64 {
        self.counters.write_calls(disk)
    }

    fn reset_counters(&self) {
        self.counters.reset();
    }

    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.files.len() {
            return Err(StoreError::OutOfRange { disk, offset: 0 });
        }
        // One zero buffer reused in large chunks: the fault injector
        // wipes whole disks on every injected failure, so this runs
        // hot in the fault-injection schedules.
        let total = self.units() * self.unit_size;
        let zeros = vec![0u8; total.min(Self::WIPE_CHUNK)];
        let f = self.files[disk].lock().unwrap();
        let mut at = 0usize;
        while at < total {
            let len = zeros.len().min(total - at);
            write_at(&f, &zeros[..len], at as u64)?;
            at += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::faulty::{FaultConfig, FaultyBackend};

    fn roundtrip(backend: &dyn Backend) {
        let us = backend.unit_size();
        let pattern: Vec<u8> = (0..us).map(|i| (i % 251) as u8).collect();
        backend.write_unit(1, 3, &pattern).unwrap();
        let mut out = vec![0u8; us];
        backend.read_unit(1, 3, &mut out).unwrap();
        assert_eq!(out, pattern);
        // untouched units read back as zeroes
        backend.read_unit(0, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(backend.read_count(1), 1);
        assert_eq!(backend.read_count(0), 1);
        assert_eq!(backend.write_count(1), 1);
        backend.reset_counters();
        assert_eq!(backend.read_count(1), 0);
    }

    #[test]
    fn mem_roundtrip_and_counters() {
        let b = MemBackend::new(3, 8, 64);
        roundtrip(&b);
    }

    #[test]
    fn file_roundtrip_and_counters() {
        let dir = std::env::temp_dir().join(format!("pdl-store-test-{}", std::process::id()));
        let b = FileBackend::create(&dir, 3, 8, 64).unwrap();
        roundtrip(&b);
        b.flush().unwrap();
        drop(b);
        // reopen and confirm persistence
        let b = FileBackend::open(&dir, 3, 8, 64).unwrap();
        let mut out = vec![0u8; 64];
        b.read_unit(1, 3, &mut out).unwrap();
        assert_eq!(out[1], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_bad_length() {
        let dir = std::env::temp_dir().join(format!("pdl-store-badlen-{}", std::process::id()));
        {
            FileBackend::create(&dir, 2, 4, 32).unwrap();
        }
        assert!(matches!(FileBackend::open(&dir, 2, 8, 32), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounds_checked() {
        let b = MemBackend::new(2, 4, 16);
        let mut buf = vec![0u8; 16];
        assert!(matches!(b.read_unit(2, 0, &mut buf), Err(StoreError::OutOfRange { .. })));
        assert!(matches!(b.read_unit(0, 4, &mut buf), Err(StoreError::OutOfRange { .. })));
        let mut short = vec![0u8; 15];
        assert!(matches!(b.read_unit(0, 0, &mut short), Err(StoreError::BadBufferSize { .. })));
    }

    fn vectored_roundtrip(backend: &dyn Backend) {
        let us = backend.unit_size();
        // Write 3 units in one call, read them back in one call and
        // per-unit; both views agree and counters track units + calls.
        let span: Vec<u8> = (0..3 * us).map(|i| (i % 249) as u8).collect();
        backend.write_units(0, 2, &span).unwrap();
        assert_eq!(backend.write_count(0), 3, "3 units written");
        assert_eq!(backend.write_calls(0), 1, "in one backend call");
        let mut got = vec![0u8; 3 * us];
        backend.read_units(0, 2, &mut got).unwrap();
        assert_eq!(got, span);
        assert_eq!(backend.read_count(0), 3);
        assert_eq!(backend.read_calls(0), 1);
        let mut one = vec![0u8; us];
        backend.read_unit(0, 3, &mut one).unwrap();
        assert_eq!(one, span[us..2 * us]);
        // Span bounds: runs past the end of the disk are rejected.
        let mut over = vec![0u8; 4 * us];
        assert!(matches!(backend.read_units(0, 6, &mut over), Err(StoreError::OutOfRange { .. })));
        let mut ragged = vec![0u8; us + 1];
        assert!(matches!(
            backend.read_units(0, 0, &mut ragged),
            Err(StoreError::BadBufferSize { .. })
        ));
        assert!(matches!(backend.read_units(0, 0, &mut []), Err(StoreError::BadBufferSize { .. })));
    }

    #[test]
    fn mem_vectored_roundtrip() {
        let b = MemBackend::new(2, 8, 32);
        vectored_roundtrip(&b);
    }

    #[test]
    fn file_vectored_roundtrip_and_bulk_wipe() {
        let dir = std::env::temp_dir().join(format!("pdl-store-vec-{}", std::process::id()));
        let b = FileBackend::create(&dir, 2, 8, 32).unwrap();
        vectored_roundtrip(&b);
        // wipe_disk zeroes the whole disk in bulk writes.
        b.wipe_disk(0).unwrap();
        let mut got = vec![1u8; 8 * 32];
        b.read_units(0, 0, &mut got).unwrap();
        assert!(got.iter().all(|&x| x == 0), "wiped disk reads back as zeroes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_backend_quiet_delegates_cleanly() {
        let b = FaultyBackend::new(MemBackend::new(3, 8, 64), FaultConfig::quiet(7));
        roundtrip(&b);
        vectored_roundtrip(&b);
        assert_eq!(b.injected_transients(), 0);
        assert!(b.corruptions().is_empty());
    }

    #[test]
    fn faulty_backend_forced_transients_and_targeted_corruption() {
        let b = FaultyBackend::new(MemBackend::new(2, 8, 32), FaultConfig::quiet(42));
        let unit = vec![0x5au8; 32];
        b.write_unit(0, 0, &unit).unwrap();
        b.fail_next(2);
        let mut out = vec![0u8; 32];
        let e = b.read_unit(0, 0, &mut out).unwrap_err();
        assert!(crate::integrity::is_transient(&e));
        assert!(crate::integrity::is_transient(&b.read_unit(0, 0, &mut out).unwrap_err()));
        b.read_unit(0, 0, &mut out).unwrap();
        assert_eq!(out, unit);
        assert_eq!(b.injected_transients(), 2);
        // Targeted corruption flips the medium but logs the location.
        b.corrupt_unit(0, 0).unwrap();
        b.read_unit(0, 0, &mut out).unwrap();
        assert_ne!(out, unit);
        assert_eq!(b.corruptions(), vec![(0, 0)]);
        // Failing flushes fail every flush, not transiently, until
        // cleared.
        b.fail_flushes(true);
        assert!(!crate::integrity::is_transient(&b.flush().unwrap_err()));
        b.fail_flushes(false);
        b.flush().unwrap();
        // A counted fault lets `n` calls through, fails the next one
        // before it lands, not transiently, and then disarms.
        b.fail_flush_after(1);
        b.flush().unwrap();
        assert!(!crate::integrity::is_transient(&b.flush().unwrap_err()));
        b.flush().unwrap();
        b.fail_write_after(1);
        b.write_unit(0, 1, &unit).unwrap();
        assert!(!crate::integrity::is_transient(&b.write_unit(0, 2, &unit).unwrap_err()));
        b.read_unit(0, 2, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 32], "the failed write never reached the medium");
        b.write_unit(0, 2, &unit).unwrap();
        // Disarmed, the schedule is silent even with rates maxed.
        let mut cfg = FaultConfig::quiet(1);
        cfg.transient_rate = 1.0;
        let b = FaultyBackend::new(MemBackend::new(1, 2, 16), cfg);
        b.set_armed(false);
        b.write_unit(0, 0, &[1u8; 16]).unwrap();
        assert_eq!(b.injected_transients(), 0);
    }

    #[test]
    fn faulty_backend_torn_write_lands_prefix_then_errors() {
        let mut cfg = FaultConfig::quiet(99);
        cfg.torn_rate = 1.0;
        let b = FaultyBackend::new(MemBackend::new(1, 8, 16), cfg);
        let span: Vec<u8> = (0..4 * 16).map(|i| i as u8).collect();
        let e = b.write_units(0, 0, &span).unwrap_err();
        assert!(!crate::integrity::is_transient(&e), "torn writes are not retryable");
        assert_eq!(b.injected_torn(), 1);
        // Some strict prefix landed; the tail is untouched zeroes.
        b.set_armed(false);
        let mut got = vec![0u8; 4 * 16];
        b.read_units(0, 0, &mut got).unwrap();
        let landed =
            (0..4).take_while(|&u| got[u * 16..(u + 1) * 16] == span[u * 16..(u + 1) * 16]).count();
        assert!((1..4).contains(&landed), "prefix of {landed} units landed");
        assert!(got[landed * 16..].iter().all(|&x| x == 0));
    }

    #[test]
    fn faulty_backend_scheduled_corruption_is_logged_and_silent() {
        let mut cfg = FaultConfig::quiet(5);
        cfg.corrupt_rate = 1.0;
        let b = FaultyBackend::new(MemBackend::new(1, 4, 16), cfg);
        let unit = vec![0x11u8; 16];
        b.write_unit(0, 2, &unit).unwrap(); // reports success
        let mut got = vec![0u8; 16];
        b.set_armed(false);
        b.read_unit(0, 2, &mut got).unwrap();
        assert_ne!(got, unit, "stored bytes were silently corrupted");
        assert_eq!(got.iter().zip(&unit).filter(|(a, b)| a != b).count(), 1, "one byte flipped");
        assert_eq!(b.corruptions(), vec![(0, 2)]);
    }
}
