//! A model of the device under a backend: what a call costs in time,
//! and whether `flush` reaches the medium.
//!
//! [`DeviceModel::new`]: every I/O call sleeps `latency + bytes /
//! bandwidth` before it is passed on, so a call costs what a device
//! with that seek time and transfer rate would charge and unit-size
//! sweeps mean something. The sleep leaves the CPU free: calls issued
//! from the engine's worker threads overlap, calls issued in a loop do
//! not — the contrast `engine_batch_device` measures.
//!
//! [`DeviceModel::volatile`]: calls cost nothing extra and `flush`
//! stops here. Under a `FileBackend` this is what a tmpfs mount would
//! give: the files live in the page cache and `sync_data` — which,
//! inside a checkout on this VM, times `/dev/vda` and moved the write
//! numbers by ±25 % from run to run — is never paid.

use pdl_store::{Backend, StoreError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub struct DeviceModel<B> {
    inner: B,
    latency: Duration,
    ns_per_byte: f64,
    /// Whether `flush` is passed on to the inner backend.
    durable: bool,
    /// Off while the harness prefills and reads back for verification:
    /// neither is part of the modelled traffic.
    modelled: AtomicBool,
}

impl<B: Backend> DeviceModel<B> {
    /// `latency` is charged per call, `bytes_per_s` for the bytes the
    /// call moves.
    pub fn new(inner: B, latency: Duration, bytes_per_s: f64) -> Self {
        assert!(bytes_per_s > 0.0, "bandwidth must be positive");
        DeviceModel {
            inner,
            latency,
            ns_per_byte: 1e9 / bytes_per_s,
            durable: true,
            modelled: AtomicBool::new(true),
        }
    }

    /// No delay, and `flush` is not passed on (see the module docs).
    pub fn volatile(inner: B) -> Self {
        DeviceModel {
            inner,
            latency: Duration::ZERO,
            ns_per_byte: 0.0,
            durable: false,
            modelled: AtomicBool::new(false),
        }
    }

    pub fn set_modelled(&self, on: bool) {
        self.modelled.store(on, Ordering::Relaxed);
    }

    /// The time the model charges for one call moving `bytes` bytes.
    pub fn charge(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_nanos((bytes as f64 * self.ns_per_byte) as u64)
    }

    fn wait(&self, bytes: usize) {
        if self.modelled.load(Ordering::Relaxed) {
            let charge = self.charge(bytes);
            if !charge.is_zero() {
                std::thread::sleep(charge);
            }
        }
    }
}

impl<B: Backend> Backend for DeviceModel<B> {
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
        self.wait(buf.len());
        self.inner.read_unit(disk, offset, buf)
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.wait(buf.len());
        self.inner.write_unit(disk, offset, buf)
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.wait(buf.len());
        self.inner.read_units(disk, offset, buf)
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.wait(buf.len());
        self.inner.write_units(disk, offset, buf)
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        self.wait(bufs.iter().map(|b| b.len()).sum());
        self.inner.read_units_scatter(disk, offset, bufs)
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        self.wait(bufs.iter().map(|b| b.len()).sum());
        self.inner.write_units_gather(disk, offset, bufs)
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.wait(0);
        if self.durable {
            self.inner.flush()
        } else {
            Ok(())
        }
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
        // A call costs `latency`, a bridged unit only its transfer time.
        true
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn wipe_disk(&self, disk: usize) -> Result<(), StoreError> {
        self.inner.wipe_disk(disk)
    }

    fn persist_mapping(&self, redirect: &[usize]) -> Result<(), StoreError> {
        self.inner.persist_mapping(redirect)
    }

    fn load_mapping(&self) -> Result<Option<Vec<usize>>, StoreError> {
        self.inner.load_mapping()
    }

    fn set_units_per_disk(&self, units: usize) -> Result<(), StoreError> {
        self.inner.set_units_per_disk(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::TracedBackend;
    use pdl_store::MemBackend;
    use std::time::Instant;

    #[test]
    fn sleeps_at_least_the_modelled_time() {
        let dev = DeviceModel::new(MemBackend::new(2, 8, 4096), Duration::from_micros(300), 100e6);
        assert_eq!(dev.charge(4096 * 4), Duration::from_nanos(300_000 + 4096 * 4 * 10));
        let mut buf = vec![0u8; 4096 * 4];
        let t = Instant::now();
        dev.read_units(0, 0, &mut buf).unwrap();
        dev.write_unit(1, 3, &buf[..4096]).unwrap();
        assert!(t.elapsed() >= dev.charge(4096 * 4) + dev.charge(4096));
        assert_eq!((dev.read_count(0), dev.write_calls(1)), (4, 1));
    }

    #[test]
    fn volatile_model_keeps_flush_from_the_medium_and_never_sleeps() {
        // A traced backend underneath counts the flushes that get through.
        let counting = || {
            let inner = TracedBackend::new(MemBackend::new(1, 4, 512), false);
            inner.tracer().set_enabled(true);
            inner
        };
        let durable = DeviceModel::new(counting(), Duration::ZERO, 1e18);
        durable.flush().unwrap();
        assert_eq!(durable.inner.tracer().totals().flush.calls, 1);
        let volatile = DeviceModel::volatile(counting());
        volatile.set_modelled(true);
        volatile.write_unit(0, 2, &[9u8; 512]).unwrap();
        volatile.flush().unwrap();
        assert_eq!(volatile.inner.tracer().totals().flush.calls, 0);
        let mut out = [0u8; 512];
        volatile.read_unit(0, 2, &mut out).unwrap();
        assert_eq!(out, [9u8; 512]);
    }

    #[test]
    fn unmodelled_calls_do_not_sleep() {
        let dev = DeviceModel::new(MemBackend::new(1, 4, 512), Duration::from_secs(30), 1.0);
        dev.set_modelled(false);
        dev.write_unit(0, 1, &[7u8; 512]).unwrap();
        let mut out = [0u8; 512];
        dev.read_unit(0, 1, &mut out).unwrap();
        assert_eq!(out, [7u8; 512]);
    }
}
