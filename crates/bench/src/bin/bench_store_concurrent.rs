//! Concurrent-store scaling harness: drives N client threads of
//! block traffic through one `BlockStore` (the `&self` write path
//! behind the stripe-sharded lock table) and records how aggregate
//! throughput scales from 1 → 2 → 4 → 8 threads. Results merge into
//! `BENCH_store.json` as its `thread_scaling` section, joining the
//! committed perf trajectory.
//!
//! Three backends are measured:
//!
//! * `mem` — a `MemBackend` behind a **100 µs per-call device-latency
//!   emulator** ([`DelayBackend`]). This is the headline scaling
//!   measurement: a disk array's win from concurrency is overlapping
//!   device service time (queue-depth scaling), which is exactly what
//!   a latency-free memcpy backend cannot show on an arbitrary
//!   machine. With per-call sleeps the measurement is core-count
//!   independent — threads overlap their waits whether or not they
//!   overlap their cycles — so the committed ratios are reproducible
//!   on any host, including single-core CI runners.
//! * `mem_raw` — the bare `MemBackend`, for transparency: pure-CPU
//!   scaling, entirely at the mercy of the host's core count.
//! * `file` — the real `FileBackend` (page-cache-speed syscalls).
//!
//! The traffic generator is the library's own stress harness
//! (`pdl_store::stress`) with verification disabled, so the benched
//! path is byte-for-byte the one the concurrency tests prove correct.
//!
//! Flags: `--smoke` (CI-sized), `--out <path>` (default
//! `BENCH_store.json`), `--require-scaling <x>` (exit nonzero unless
//! mem read throughput at 4 threads ≥ x × the 1-thread figure — the
//! CI acceptance gate).

use pdl_core::RingLayout;
use pdl_store::stress::{self, RebuildMode, StressConfig};
use pdl_store::{Backend, BlockStore, EngineConfig, FileBackend, MemBackend, StoreError};
use std::fmt::Write as _;
use std::time::Duration;

/// Stripe-unit size, matching `bench_store_throughput`.
const UNIT: usize = 512;
/// Emulated device service time per backend call.
const SERVICE_TIME_US: u64 = 100;
/// Thread counts of the scaling curve.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Batch size of the async legs: the engine's win is submitting a
/// multi-run batch to many disks at once, so the workload must hand
/// it batches (the sync path's throughput on a per-call-latency
/// backend is batch-size-invariant — same number of serial calls
/// either way — so the sync × async ratios stay apples-to-apples).
const ASYNC_BATCH: usize = 8;

/// Wraps any backend with a fixed per-call service time, emulating a
/// device whose latency concurrency can overlap. Counters and
/// geometry delegate untouched.
struct DelayBackend<B> {
    inner: B,
    delay: Duration,
}

impl<B> DelayBackend<B> {
    fn new(inner: B, delay: Duration) -> Self {
        DelayBackend { inner, delay }
    }

    fn pay(&self) {
        std::thread::sleep(self.delay);
    }
}

impl<B: Backend> Backend for DelayBackend<B> {
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
        self.pay();
        self.inner.read_unit(disk, offset, buf)
    }

    fn write_unit(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.pay();
        self.inner.write_unit(disk, offset, buf)
    }

    fn read_units(&self, disk: usize, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.pay();
        self.inner.read_units(disk, offset, buf)
    }

    fn write_units(&self, disk: usize, offset: usize, buf: &[u8]) -> Result<(), StoreError> {
        self.pay();
        self.inner.write_units(disk, offset, buf)
    }

    fn read_units_scatter(
        &self,
        disk: usize,
        offset: usize,
        bufs: &mut [&mut [u8]],
    ) -> Result<(), StoreError> {
        self.pay();
        self.inner.read_units_scatter(disk, offset, bufs)
    }

    fn write_units_gather(
        &self,
        disk: usize,
        offset: usize,
        bufs: &[&[u8]],
    ) -> Result<(), StoreError> {
        self.pay();
        self.inner.write_units_gather(disk, offset, bufs)
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
}

#[derive(Clone, Debug)]
struct Sample {
    backend: &'static str,
    workload: &'static str,
    threads: usize,
    mb_per_s: f64,
    blocks: usize,
    seconds: f64,
}

struct Config {
    smoke: bool,
    out: String,
    require_scaling: Option<f64>,
    /// Total operations per measurement, split across the threads so
    /// every point on the curve does the same amount of work.
    total_ops: usize,
    copies: usize,
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_store.json");
    let mut require_scaling = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--require-scaling" => {
                require_scaling = Some(
                    args.next()
                        .expect("--require-scaling needs a ratio")
                        .parse()
                        .expect("--require-scaling needs a number"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_store_concurrent [--smoke] [--out <path>] \
                     [--require-scaling <x>]"
                );
                std::process::exit(2);
            }
        }
    }
    let cfg = Config {
        smoke,
        out,
        require_scaling,
        total_ops: if smoke { 1200 } else { 4000 },
        copies: 64,
    };

    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let v = layout.v();
    let units_per_disk = cfg.copies * layout.size();
    let mut samples: Vec<Sample> = Vec::new();

    // The headline curve: emulated device latency, reads then mixed.
    {
        let backend = DelayBackend::new(
            MemBackend::new(v, units_per_disk, UNIT),
            Duration::from_micros(SERVICE_TIME_US),
        );
        let store = BlockStore::new(layout.clone(), backend).unwrap();
        run_curve("mem", &store, &cfg, &mut samples);
        run_async_curve("mem", &store, &cfg, &mut samples);
    }
    // Raw memcpy backend: honest CPU-bound numbers, host-dependent.
    {
        let store =
            BlockStore::new(layout.clone(), MemBackend::new(v, units_per_disk, UNIT)).unwrap();
        run_curve("mem_raw", &store, &cfg, &mut samples);
    }
    // Real file IO.
    {
        let dir = std::env::temp_dir().join(format!("pdl-bench-conc-{}", std::process::id()));
        let store = BlockStore::new(
            layout.clone(),
            FileBackend::create(&dir, v, units_per_disk, UNIT).unwrap(),
        )
        .unwrap();
        run_curve("file", &store, &cfg, &mut samples);
        run_async_curve("file", &store, &cfg, &mut samples);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let section = render_section(&cfg, &samples);
    let doc = match std::fs::read_to_string(&cfg.out) {
        Ok(json) => json,
        // No prior artifact (e.g. a bare CI scratch dir): start a
        // fresh document; `bench_store_throughput` rewrites the main
        // results wholesale anyway.
        Err(_) => "{\n  \"schema\": \"pdl-bench-store/v1\"\n}\n".to_string(),
    };
    std::fs::write(&cfg.out, pdl_bench::merge_thread_scaling(&doc, &section))
        .expect("write BENCH json");
    eprintln!("merged thread_scaling into {}", cfg.out);

    println!(
        "{:<8} {:<18} {:>7} {:>12} {:>10}",
        "backend", "workload", "threads", "MB/s", "blocks"
    );
    for s in &samples {
        println!(
            "{:<8} {:<18} {:>7} {:>12.2} {:>10}",
            s.backend, s.workload, s.threads, s.mb_per_s, s.blocks
        );
    }
    for (name, r) in ratios(&samples) {
        println!("{name}: {r:.2}x");
    }

    if let Some(need) = cfg.require_scaling {
        let got = scaling_ratio(&samples, "mem", "concurrent_read", 4);
        // NaN (a missing sample) must fail the gate too.
        if got.is_nan() || got < need {
            eprintln!(
                "FAIL: mem concurrent_read at 4 threads scales {got:.2}x over 1 thread \
                 (required ≥ {need:.2}x)"
            );
            std::process::exit(1);
        }
        eprintln!("scaling gate ok: {got:.2}x ≥ {need:.2}x");
    }
}

/// One backend's scaling curve: pure reads and a 70/30 mixed workload
/// at each thread count, same total op budget per point.
fn run_curve<B: Backend + 'static>(
    name: &'static str,
    store: &BlockStore<B>,
    cfg: &Config,
    samples: &mut Vec<Sample>,
) {
    for &threads in &THREADS {
        for (workload, read_fraction) in [("concurrent_read", 1.0), ("concurrent_mixed", 0.7)] {
            let stress_cfg = StressConfig {
                threads,
                ops_per_thread: cfg.total_ops / threads,
                seed: 0xbe7c + threads as u64,
                batch_max: 1,
                batch_min: 1,
                read_fraction,
                fail_disk: None,
                rebuild: RebuildMode::None,
                verify_reads: false,
                cache: pdl_store::CachePolicy::WriteThrough,
                engine: None,
            };
            let report = stress::run(store, &stress_cfg).unwrap();
            let blocks = report.blocks_read + report.blocks_written;
            let seconds = report.elapsed.as_secs_f64();
            samples.push(Sample {
                backend: name,
                workload,
                threads,
                mb_per_s: (blocks * report.unit_size) as f64 / seconds.max(1e-9) / 1e6,
                blocks,
                seconds,
            });
        }
    }
    // One parity sweep per curve (not per sample — through a
    // DelayBackend every verification read pays the emulated service
    // time): the whole measured workload must leave the invariants
    // intact.
    store.verify_parity().unwrap_or_else(|e| panic!("{name}: parity after the curve: {e}"));
}

/// The async curve: the same scaling measurement with the I/O engine
/// running, in multi-block batches so each op hands the per-disk
/// queues a whole band of runs. `concurrent_read_async` is the
/// headline (a single caller's batch seeks on every disk at once);
/// `random_small_write_async` drives the write-gather submission
/// path.
fn run_async_curve<B: Backend + 'static>(
    name: &'static str,
    store: &BlockStore<B>,
    cfg: &Config,
    samples: &mut Vec<Sample>,
) {
    for &threads in &THREADS {
        for (workload, read_fraction) in
            [("concurrent_read_async", 1.0), ("random_small_write_async", 0.0)]
        {
            let stress_cfg = StressConfig {
                threads,
                ops_per_thread: cfg.total_ops / (threads * ASYNC_BATCH),
                seed: 0xa57c + threads as u64,
                batch_max: ASYNC_BATCH,
                batch_min: ASYNC_BATCH,
                read_fraction,
                fail_disk: None,
                rebuild: RebuildMode::None,
                verify_reads: false,
                cache: pdl_store::CachePolicy::WriteThrough,
                engine: Some(EngineConfig::default()),
            };
            let report = stress::run(store, &stress_cfg).unwrap();
            let blocks = report.blocks_read + report.blocks_written;
            let seconds = report.elapsed.as_secs_f64();
            samples.push(Sample {
                backend: name,
                workload,
                threads,
                mb_per_s: (blocks * report.unit_size) as f64 / seconds.max(1e-9) / 1e6,
                blocks,
                seconds,
            });
        }
    }
    store.verify_parity().unwrap_or_else(|e| panic!("{name}: parity after the async curve: {e}"));
}

/// Raw throughput of one `(backend, workload, threads)` sample (NaN
/// when the sample is missing, which fails any gate on the ratio).
fn mb_per_s(samples: &[Sample], backend: &str, workload: &str, threads: usize) -> f64 {
    samples
        .iter()
        .find(|s| s.backend == backend && s.workload == workload && s.threads == threads)
        .map(|s| s.mb_per_s)
        .unwrap_or(f64::NAN)
}

/// Throughput at `threads` over the 1-thread figure for one curve.
fn scaling_ratio(samples: &[Sample], backend: &str, workload: &str, threads: usize) -> f64 {
    mb_per_s(samples, backend, workload, threads) / mb_per_s(samples, backend, workload, 1)
}

/// The headline ratios: each thread count over 1, per backend, for
/// the read curve (plus the mixed curve at 4 threads), then the
/// async-engine comparisons — async over sync at every thread count
/// and the single/dual-caller async figures against the 8-thread sync
/// ceiling.
fn ratios(samples: &[Sample]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for backend in ["mem", "mem_raw", "file"] {
        for t in [2usize, 4, 8] {
            out.push((
                format!("{backend}_concurrent_read_x{t}_over_x1"),
                scaling_ratio(samples, backend, "concurrent_read", t),
            ));
        }
        out.push((
            format!("{backend}_concurrent_mixed_x4_over_x1"),
            scaling_ratio(samples, backend, "concurrent_mixed", 4),
        ));
    }
    for backend in ["mem", "file"] {
        for t in THREADS {
            out.push((
                format!("{backend}_concurrent_read_async_x{t}_over_sync_x{t}"),
                mb_per_s(samples, backend, "concurrent_read_async", t)
                    / mb_per_s(samples, backend, "concurrent_read", t),
            ));
        }
    }
    for t in [1usize, 2] {
        out.push((
            format!("mem_concurrent_read_async_x{t}_over_sync_x8"),
            mb_per_s(samples, "mem", "concurrent_read_async", t)
                / mb_per_s(samples, "mem", "concurrent_read", 8),
        ));
    }
    out.push((
        "mem_random_small_write_async_x4_over_x1".into(),
        scaling_ratio(samples, "mem", "random_small_write_async", 4),
    ));
    out
}

fn render_section(cfg: &Config, samples: &[Sample]) -> String {
    let mut s = String::new();
    s.push_str("\"thread_scaling\": {\n");
    let _ = writeln!(s, "    \"schema\": \"pdl-bench-store-threads/v1\",");
    let _ = writeln!(s, "    \"smoke\": {},", cfg.smoke);
    let _ = writeln!(s, "    \"unit_size\": {UNIT},");
    let _ = writeln!(s, "    \"layout\": \"ring_v9_k4\",");
    let _ = writeln!(s, "    \"copies\": {},", cfg.copies);
    let _ = writeln!(s, "    \"service_time_us\": {SERVICE_TIME_US},");
    let _ = writeln!(
        s,
        "    \"note\": \"backend 'mem' emulates a {SERVICE_TIME_US}us-per-call device so the \
         curve measures latency overlap (queue-depth scaling, host-independent); 'mem_raw' is \
         the bare memcpy backend (CPU-bound, host-dependent); 'file' is real file IO\","
    );
    s.push_str("    \"results\": [\n");
    for (i, r) in samples.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"backend\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \
             \"mb_per_s\": {:.3}, \"blocks\": {}, \"seconds\": {:.6}}}",
            r.backend, r.workload, r.threads, r.mb_per_s, r.blocks, r.seconds
        );
        s.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ],\n");
    s.push_str("    \"ratios\": {\n");
    let rs = ratios(samples);
    for (i, (name, r)) in rs.iter().enumerate() {
        let _ = write!(s, "      \"{name}\": {r:.3}");
        s.push_str(if i + 1 < rs.len() { ",\n" } else { "\n" });
    }
    s.push_str("    }\n  }");
    s
}
