//! A seeded fault-injecting [`Backend`] wrapper: the fault model every
//! integrity claim of the store is tested against.

use pdl_store::{Backend, StoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fault-injection knobs for [`FaultyBackend`]. All rates are
/// probabilities in `[0, 1]`, evaluated per backend call (or per unit
/// for corruption) from the seeded generator, so a given seed replays
/// the same fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Probability a call fails with a *transient* I/O error
    /// (`ErrorKind::Interrupted`) before touching the inner backend —
    /// the kind the store's retry layer absorbs.
    pub transient_rate: f64,
    /// Probability a written unit is silently corrupted (one byte
    /// flipped) while the call still reports success — the latent
    /// sector error checksums exist to catch.
    pub corrupt_rate: f64,
    /// Probability a multi-unit write tears: a prefix of the units
    /// lands, then the call fails with a **non-transient** error.
    pub torn_rate: f64,
    /// Probability a call sleeps [`FaultConfig::slow_us`] first (a
    /// stalling disk).
    pub slow_rate: f64,
    /// Stall duration for slow calls, in microseconds.
    pub slow_us: u64,
}

impl FaultConfig {
    /// A schedule with every fault disabled (rates 0) under `seed`.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            torn_rate: 0.0,
            slow_rate: 0.0,
            slow_us: 50,
        }
    }
}

/// A counted fault's "nothing armed" value.
const DISARMED: u64 = u64::MAX;

/// Counts one call against a counted fault: `true` when this call is
/// the one to fail, which disarms the fault.
fn counted_fault(left: &std::sync::atomic::AtomicU64) -> bool {
    let was = left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| match n {
        DISARMED => None,
        0 => Some(DISARMED),
        n => Some(n - 1),
    });
    was == Ok(0)
}

fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded fault-injecting wrapper over any [`Backend`] — the fault
/// model every integrity claim in this crate is tested against.
/// Composable over `MemBackend` and `FileBackend` alike; geometry,
/// counters, and management ops (wipe, resize, flush)
/// delegate untouched, data-path calls roll the seeded dice first:
///
/// * **transient errors** surface as `ErrorKind::Interrupted` before
///   the inner call runs (nothing written) — retryable;
/// * **silent corruption** flips one byte of a written unit while the
///   call reports success, and logs the `(disk, offset)` so tests can
///   assert every injected error was later found and repaired;
/// * **torn writes** land a strict prefix of a multi-unit write, then
///   fail non-transiently (the crash-window shape `write_units`
///   callers must survive);
/// * **slow calls** sleep before proceeding (a stalling spindle).
///
/// Targeted hooks — [`FaultyBackend::corrupt_unit`],
/// [`FaultyBackend::fail_next`], [`FaultyBackend::hold_next_write`] and
/// the counted [`FaultyBackend::fail_flush_after`] /
/// [`FaultyBackend::fail_write_after`] — inject one specific fault
/// deterministically, for tests that need a fault *here, now* rather
/// than a statistical schedule.
/// [`FaultyBackend::set_armed`] pauses the whole schedule during test
/// setup.
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    cfg: FaultConfig,
    armed: std::sync::atomic::AtomicBool,
    /// Every `flush` fails ([`FaultyBackend::fail_flushes`]).
    failing_flushes: std::sync::atomic::AtomicBool,
    /// Flushes, and write calls, let through before one fails
    /// ([`FaultyBackend::fail_flush_after`],
    /// [`FaultyBackend::fail_write_after`]); [`DISARMED`] when none is
    /// to fail.
    flushes_left: std::sync::atomic::AtomicU64,
    writes_left: std::sync::atomic::AtomicU64,
    rng: std::sync::atomic::AtomicU64,
    /// Next-N-calls forced-transient budget ([`FaultyBackend::fail_next`]).
    forced_transients: std::sync::atomic::AtomicU64,
    injected_transients: std::sync::atomic::AtomicU64,
    injected_torn: std::sync::atomic::AtomicU64,
    /// `(disk, offset)` of every silently corrupted unit.
    corruptions: Mutex<Vec<(usize, usize)>>,
    /// The write hold ([`FaultyBackend::hold_next_write`]); `holding`
    /// is set while one is armed or held, so other calls skip the lock.
    hold: Mutex<WriteHold>,
    hold_cv: std::sync::Condvar,
    holding: std::sync::atomic::AtomicBool,
    /// Read calls in progress (the write hold's view).
    reading: AtomicUsize,
}

/// A read call in progress on a [`FaultyBackend`].
struct Reading<'a>(&'a AtomicUsize);

impl Drop for Reading<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// State of [`FaultyBackend::hold_next_write`].
#[derive(Debug, Default)]
struct WriteHold {
    /// The disk whose next write is to be held, and for how long at most.
    armed: Option<(usize, std::time::Duration)>,
    /// Whether the armed write is held now.
    held: bool,
    /// A read was in progress while the write was held.
    met_read: bool,
    /// How the last held write was let go.
    outcome: Option<bool>,
}

impl<B: Backend> FaultyBackend<B> {
    /// Wraps `inner` with the fault schedule `cfg`, armed.
    pub fn new(inner: B, cfg: FaultConfig) -> Self {
        FaultyBackend {
            inner,
            cfg,
            armed: std::sync::atomic::AtomicBool::new(true),
            failing_flushes: std::sync::atomic::AtomicBool::new(false),
            flushes_left: std::sync::atomic::AtomicU64::new(DISARMED),
            writes_left: std::sync::atomic::AtomicU64::new(DISARMED),
            rng: std::sync::atomic::AtomicU64::new(splitmix64(cfg.seed)),
            forced_transients: std::sync::atomic::AtomicU64::new(0),
            injected_transients: std::sync::atomic::AtomicU64::new(0),
            injected_torn: std::sync::atomic::AtomicU64::new(0),
            corruptions: Mutex::new(Vec::new()),
            hold: Mutex::new(WriteHold::default()),
            hold_cv: std::sync::Condvar::new(),
            holding: std::sync::atomic::AtomicBool::new(false),
            reading: AtomicUsize::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Arms or pauses the whole fault schedule (paused, every call
    /// delegates cleanly — use around test setup).
    pub fn set_armed(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Makes every `flush` fail (not transiently) while `on`, whether
    /// or not the schedule is armed; the data calls are untouched. A
    /// durability barrier then stops at its first step.
    pub fn fail_flushes(&self, on: bool) {
        self.failing_flushes.store(on, Ordering::SeqCst);
    }

    /// Lets the next `n` flushes through, then fails the one after,
    /// once and not transiently, whether or not the schedule is armed:
    /// the durability barrier `n` from now, counting from 0, stops at
    /// its first step.
    pub fn fail_flush_after(&self, n: u64) {
        self.flushes_left.store(n, Ordering::SeqCst);
    }

    /// Lets the next `n` write calls through, then fails the one after
    /// before it touches the medium, once and not transiently, whether
    /// or not the schedule is armed.
    pub fn fail_write_after(&self, n: u64) {
        self.writes_left.store(n, Ordering::SeqCst);
    }

    /// Forces the next `n` data-path calls to fail transiently,
    /// regardless of rates (still requires the schedule armed).
    pub fn fail_next(&self, n: u64) {
        self.forced_transients.store(n, Ordering::SeqCst);
    }

    /// Holds the next write call to `disk` at its start until a read
    /// call is in progress, or `timeout` passes, whichever comes first
    /// (still requires the schedule armed): a causal probe of whether
    /// the caller reads on while that write is in flight. See
    /// [`FaultyBackend::held_write_met_a_read`].
    pub fn hold_next_write(&self, disk: usize, timeout: std::time::Duration) {
        let mut h = self.hold.lock().unwrap_or_else(|e| e.into_inner());
        *h = WriteHold { armed: Some((disk, timeout)), ..WriteHold::default() };
        self.holding.store(true, Ordering::SeqCst);
    }

    /// How the last held write was let go: `Some(true)` by a read,
    /// `Some(false)` by its timeout, `None` while none has been.
    pub fn held_write_met_a_read(&self) -> Option<bool> {
        self.hold.lock().unwrap_or_else(|e| e.into_inner()).outcome
    }

    /// Counts a read call on `disk` in progress until the returned
    /// guard drops, then rolls its pre-call faults.
    fn read_call(&self, disk: usize) -> Result<Reading<'_>, StoreError> {
        self.reading.fetch_add(1, Ordering::SeqCst);
        let reading = Reading(&self.reading);
        self.pre_call(disk, false)?;
        Ok(reading)
    }

    /// The write hold's part of a call on `disk`: a read lets a held
    /// write go; the armed write waits for one.
    fn gate(&self, disk: usize, write: bool) {
        if !self.holding.load(Ordering::SeqCst) {
            return;
        }
        let mut h = self.hold.lock().unwrap_or_else(|e| e.into_inner());
        if !write {
            if h.held {
                h.met_read = true;
                self.hold_cv.notify_all();
            }
            return;
        }
        let Some((_, timeout)) = h.armed.filter(|&(d, _)| d == disk) else { return };
        h.armed = None;
        h.held = true;
        h.met_read = self.reading.load(Ordering::SeqCst) > 0;
        let (mut h, _) = self
            .hold_cv
            .wait_timeout_while(h, timeout, |h| !h.met_read)
            .unwrap_or_else(|e| e.into_inner());
        h.outcome = Some(h.met_read);
        h.held = false;
        self.holding.store(false, Ordering::SeqCst);
    }

    /// Deterministically corrupts the stored unit at `(disk, offset)`
    /// in place (one byte flipped on the medium, schedule not
    /// consulted) and logs it like a schedule-injected corruption.
    pub fn corrupt_unit(&self, disk: usize, offset: usize) -> Result<(), StoreError> {
        let mut buf = vec![0u8; self.inner.unit_size()];
        self.inner.read_unit(disk, offset, &mut buf)?;
        let at = (splitmix64(self.roll()) as usize) % buf.len();
        buf[at] ^= 0xA5;
        self.inner.write_unit(disk, offset, &buf)?;
        self.corruptions.lock().unwrap_or_else(|e| e.into_inner()).push((disk, offset));
        Ok(())
    }

    /// `(disk, offset)` of every unit silently corrupted so far —
    /// the ground truth a repair test sweeps against.
    pub fn corruptions(&self) -> Vec<(usize, usize)> {
        self.corruptions.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Transient errors injected so far.
    pub fn injected_transients(&self) -> u64 {
        self.injected_transients.load(Ordering::Relaxed)
    }

    /// Torn multi-unit writes injected so far.
    pub fn injected_torn(&self) -> u64 {
        self.injected_torn.load(Ordering::Relaxed)
    }

    fn roll(&self) -> u64 {
        splitmix64(self.rng.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed))
    }

    fn chance(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        rate >= 1.0 || ((self.roll() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// Rolls the pre-call faults (counted write failure, write hold,
    /// forced/scheduled transient, slow stall) for a call on `disk`.
    /// `Err` means the call fails before touching the medium.
    fn pre_call(&self, disk: usize, write: bool) -> Result<(), StoreError> {
        if write && counted_fault(&self.writes_left) {
            return Err(StoreError::Io(std::io::Error::other("injected write failure")));
        }
        if !self.armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.gate(disk, write);
        let forced = self
            .forced_transients
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if forced || self.chance(self.cfg.transient_rate) {
            self.injected_transients.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Io(std::io::Error::from(std::io::ErrorKind::Interrupted)));
        }
        if self.chance(self.cfg.slow_rate) && self.cfg.slow_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.cfg.slow_us));
        }
        Ok(())
    }

    /// Writes one unit, possibly silently corrupting it (logged).
    fn write_unit_corruptible(
        &self,
        disk: usize,
        offset: usize,
        buf: &[u8],
    ) -> Result<(), StoreError> {
        if self.armed.load(Ordering::Relaxed) && self.chance(self.cfg.corrupt_rate) {
            let mut evil = buf.to_vec();
            let at = (self.roll() as usize) % evil.len().max(1);
            evil[at] ^= 0xA5;
            self.inner.write_unit(disk, offset, &evil)?;
            self.corruptions.lock().unwrap_or_else(|e| e.into_inner()).push((disk, offset));
            return Ok(());
        }
        self.inner.write_unit(disk, offset, buf)
    }

    /// Shared torn/corrupt path for multi-unit writes: `units` is the
    /// span length; `write_prefix(n)` must land exactly the first `n`
    /// units.
    fn torn_or_full(
        &self,
        units: usize,
        write_prefix: impl FnOnce(usize) -> Result<(), StoreError>,
        write_full: impl FnOnce() -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        if self.armed.load(Ordering::Relaxed) && units > 1 && self.chance(self.cfg.torn_rate) {
            let keep = 1 + (self.roll() as usize) % (units - 1);
            write_prefix(keep)?;
            self.injected_torn.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected torn write",
            )));
        }
        write_full()
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
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
        let _reading = self.read_call(disk)?;
        self.inner.read_unit(disk, offset, buf)
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.pre_call(disk, true)?;
        self.write_unit_corruptible(disk, offset, buf)
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let _reading = self.read_call(disk)?;
        self.inner.read_units(disk, offset, buf)
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.pre_call(disk, true)?;
        let us = self.inner.unit_size();
        let units = buf.len().checked_div(us).unwrap_or(0);
        self.torn_or_full(
            units,
            |keep| self.inner.write_units(disk, offset, &buf[..keep * us]),
            || {
                if self.armed.load(Ordering::Relaxed) && self.cfg.corrupt_rate > 0.0 {
                    for (i, unit) in buf.chunks_exact(us).enumerate() {
                        self.write_unit_corruptible(disk, offset + i, unit)?;
                    }
                    Ok(())
                } else {
                    self.inner.write_units(disk, offset, buf)
                }
            },
        )
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        let _reading = self.read_call(disk)?;
        self.inner.read_units_scatter(disk, offset, bufs)
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        self.pre_call(disk, true)?;
        let us = self.inner.unit_size();
        let units: usize = bufs.iter().map(|b| b.len() / us.max(1)).sum();
        self.torn_or_full(
            units,
            |keep| {
                // Land exactly `keep` units: whole leading buffers
                // plus a prefix of the buffer the tear lands in.
                let mut left = keep;
                let mut at = offset;
                for b in bufs {
                    if left == 0 {
                        break;
                    }
                    let n = (b.len() / us).min(left);
                    self.inner.write_units(disk, at, &b[..n * us])?;
                    at += n;
                    left -= n;
                }
                Ok(())
            },
            || {
                if self.armed.load(Ordering::Relaxed) && self.cfg.corrupt_rate > 0.0 {
                    let mut at = offset;
                    for b in bufs {
                        for unit in b.chunks_exact(us) {
                            self.write_unit_corruptible(disk, at, unit)?;
                            at += 1;
                        }
                    }
                    Ok(())
                } else {
                    self.inner.write_units_gather(disk, offset, bufs)
                }
            },
        )
    }

    fn flush(&self) -> Result<(), StoreError> {
        if self.failing_flushes.load(Ordering::SeqCst) || counted_fault(&self.flushes_left) {
            return Err(StoreError::Io(std::io::Error::other("injected flush failure")));
        }
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
