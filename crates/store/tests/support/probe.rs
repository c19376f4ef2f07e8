//! A backend wrapper that watches who calls it: how many calls are
//! inside it at once — with a gate that holds every call until enough
//! are — and which thread made each read. It can also make the next
//! read panic, as a faulty backend might.

use pdl_store::{Backend, StoreError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Calls inside a [`ProbeBackend`], and its gate.
#[derive(Debug, Default)]
struct Inside {
    now: usize,
    most: usize,
    /// Held calls wait until this many are inside at once, or until the
    /// timeout ends a run that never gets there; either opens the gate
    /// for good.
    gate: Option<(usize, Duration)>,
}

/// Wraps any backend and records its callers (see the module docs).
/// Every call, data or not, passes through unchanged.
#[derive(Debug)]
pub struct ProbeBackend<B> {
    inner: B,
    inside: Mutex<Inside>,
    opened: Condvar,
    readers: Mutex<Vec<ThreadId>>,
    /// Whether the next read panics instead of reading.
    panic_next: AtomicBool,
}

impl<B: Backend> ProbeBackend<B> {
    pub fn new(inner: B) -> Self {
        ProbeBackend {
            inner,
            inside: Mutex::default(),
            opened: Condvar::new(),
            readers: Mutex::default(),
            panic_next: AtomicBool::new(false),
        }
    }

    /// Holds every data call at its start until `n` calls are inside at
    /// once. The timeout only ends a run that never gets there.
    pub fn gate(&self, n: usize, timeout: Duration) {
        self.inside.lock().unwrap().gate = Some((n, timeout));
    }

    /// The most data calls that were inside at once.
    pub fn most_inside(&self) -> usize {
        self.inside.lock().unwrap().most
    }

    /// The thread of every read call so far, in call order.
    pub fn read_threads(&self) -> Vec<ThreadId> {
        self.readers.lock().unwrap().clone()
    }

    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut g = self.inside.lock().unwrap();
        g.now += 1;
        g.most = g.most.max(g.now);
        if let Some((n, timeout)) = g.gate {
            if g.now < n {
                g = self.opened.wait_timeout_while(g, timeout, |g| g.gate.is_some()).unwrap().0;
            }
            g.gate = None;
            self.opened.notify_all();
        }
        drop(g);
        let out = f();
        self.inside.lock().unwrap().now -= 1;
        out
    }

    /// Makes the next read call, and only that one, panic at its start.
    pub fn panic_next_read(&self) {
        self.panic_next.store(true, Ordering::SeqCst);
    }

    fn read<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("probe backend: read panics as armed");
        }
        self.readers.lock().unwrap().push(std::thread::current().id());
        self.call(f)
    }
}

impl<B: Backend> Backend for ProbeBackend<B> {
    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn units_per_disk(&self) -> usize {
        self.inner.units_per_disk()
    }

    fn unit_size(&self) -> usize {
        self.inner.unit_size()
    }

    fn read_unit(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read(|| self.inner.read_unit(disk, offset, buf))
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.call(|| self.inner.write_unit(disk, offset, buf))
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read(|| self.inner.read_units(disk, offset, buf))
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.call(|| self.inner.write_units(disk, offset, buf))
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        self.read(|| self.inner.read_units_scatter(disk, offset, bufs))
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        self.call(|| self.inner.write_units_gather(disk, offset, bufs))
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }

    fn read_count(&self, disk: usize) -> u64 {
        self.inner.read_count(disk)
    }

    fn write_count(&self, disk: usize) -> u64 {
        self.inner.write_count(disk)
    }

    fn read_calls(&self, disk: usize) -> u64 {
        self.inner.read_calls(disk)
    }

    fn write_calls(&self, disk: usize) -> u64 {
        self.inner.write_calls(disk)
    }

    fn prefers_gap_bridging(&self) -> bool {
        self.inner.prefers_gap_bridging()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError> {
        self.inner.wipe_disk(disk)
    }

    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        self.inner.set_units_per_disk(units)
    }
}
