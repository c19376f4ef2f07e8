//! Observability end-to-end tests: the metrics registry, event
//! tracing, degraded-window accounting, and `stats()` snapshots, all
//! observed through the public store API the way a monitoring agent
//! would.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    Backend, BlockStore, CachePolicy, EngineConfig, Event, EventSink, MemBackend, OpKind,
    Rebuilder, StatsSnapshot, StoreError, TraceLog,
};
use support::faulty::{FaultConfig, FaultyBackend};
use support::stress::{self, RebuildMode, StressConfig};

const UNIT: usize = 64;

fn ring_store(v: usize, k: usize, copies: usize) -> BlockStore<MemBackend> {
    let layout = RingLayout::for_v_k(v, k).layout().clone();
    let backend = MemBackend::new(v + 1, copies * layout.size(), UNIT);
    BlockStore::new(layout, backend).unwrap()
}

fn pq_store(v: usize, k: usize, copies: usize) -> BlockStore<MemBackend> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(v, k).layout().clone()).unwrap();
    let backend = MemBackend::new(v + 2, copies * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp, backend).unwrap()
}

fn fill(store: &BlockStore<MemBackend>) -> Vec<u8> {
    let data: Vec<u8> = (0..store.blocks() * UNIT).map(|i| (i % 251) as u8).collect();
    store.write_blocks(0, &data).unwrap();
    data
}

/// The registry counts every public op by kind, with unit totals.
#[test]
fn metrics_registry_counts_ops_by_kind() {
    let store = ring_store(7, 3, 2);
    fill(&store);
    let mut out = vec![0u8; UNIT];
    for addr in 0..10 {
        store.read_block(addr, &mut out).unwrap();
    }
    store.write_block(0, &[7u8; UNIT]).unwrap();
    let s = store.stats();
    let read = s.op(OpKind::Read).unwrap();
    assert_eq!(read.ops, 10, "10 single-block reads counted");
    assert_eq!(read.units, 10, "one unit per read");
    let write = s.op(OpKind::Write).unwrap();
    // The batched fill is one Write op; the single write another.
    assert_eq!(write.ops, 2);
    assert_eq!(write.units as usize, store.blocks() + 1);
    assert_eq!(s.op(OpKind::DegradedRead).unwrap().ops, 0, "healthy run");
    assert!(s.rebuild.is_none());
    // The per-disk counters in the same snapshot agree with the
    // backend's own view.
    let io = s.io_totals();
    assert!(io.write_units > 0 && io.write_calls > 0);
}

/// Degraded-window accounting: wall-clock and op counts accumulate
/// against the *exact* erasure level, the open window is visible
/// live, and windows close when the array heals.
#[test]
fn degraded_windows_split_one_vs_two_erasures() {
    let store = pq_store(9, 4, 2);
    fill(&store);
    let mut out = vec![0u8; UNIT];

    let s0 = store.stats();
    assert_eq!((s0.degraded.one.windows, s0.degraded.two.windows), (0, 0));

    store.fail_disk(0).unwrap();
    for addr in 0..8 {
        store.read_block(addr, &mut out).unwrap();
    }
    // Still degraded: the open window is included in the snapshot.
    let s1 = store.stats();
    assert_eq!(s1.degraded.one.windows, 1, "one-erasure window opened");
    assert_eq!(s1.degraded.one.ops, 8, "the degraded reads are on the window's op clock");
    assert!(s1.degraded.one.wall_ns > 0, "open window accrues wall time live");
    assert_eq!(s1.degraded.two.windows, 0);

    store.fail_disk(1).unwrap();
    for addr in 0..4 {
        store.read_block(addr, &mut out).unwrap();
    }
    store.restore_disk(1).unwrap();
    store.restore_disk(0).unwrap();

    let s2 = store.stats();
    assert_eq!(s2.degraded.one.windows, 1, "returning 2→1 resumes the same logical window");
    assert_eq!(s2.degraded.two.windows, 1, "the two-erasure escalation is its own window");
    assert_eq!(s2.degraded.two.ops, 4, "ops while doubly degraded accrue to `two`");
    assert_eq!(s2.degraded.one.ops, 8, "ops while singly degraded accrue to `one`");
    assert!(s2.degraded.one.wall_ns > 0 && s2.degraded.two.wall_ns > 0);

    // Healthy again: the totals are closed and stable.
    for addr in 0..16 {
        store.read_block(addr, &mut out).unwrap();
    }
    let s3 = store.stats();
    assert_eq!(s3.degraded.one.ops, s2.degraded.one.ops, "healthy ops don't leak into windows");
}

/// A spare write is timed from its submit to its landing: on a device
/// that stalls every call, each takes at least the stall, with the
/// engine off (the write lands at submit) and on (it lands while the
/// worker reads the next chunk). The stall sits just above 2^20 ns, so
/// the latency histogram's bucket 20 starts within 0.05 % of it.
#[test]
fn spare_writes_are_timed_from_submit_to_landing() {
    const STALL_US: u64 = 1_049;
    for engine in [false, true] {
        let layout = RingLayout::for_v_k(9, 4).layout().clone();
        let mem = MemBackend::new(10, 2 * layout.size(), UNIT);
        let stall = FaultConfig { slow_rate: 1.0, slow_us: STALL_US, ..FaultConfig::quiet(1) };
        let store = BlockStore::new(layout, FaultyBackend::new(mem, stall)).unwrap();
        store.backend().set_armed(false);
        store.write_blocks(0, &vec![3u8; store.blocks() * UNIT]).unwrap();
        store.fail_disk(2).unwrap();
        if engine {
            store.start_engine(EngineConfig::default());
        }
        store.backend().set_armed(true);
        let calls = store.backend().write_calls(9);
        Rebuilder::new(1).chunk_size(16).rebuild(&store, 9).unwrap();
        let calls = store.backend().write_calls(9) - calls;
        let s = store.stats();
        let spare = s.op(OpKind::SpareWrite).unwrap();
        assert_eq!((spare.ops, calls), (4, 4), "engine {engine}: one write per 16-unit chunk");
        let floor = (STALL_US * 1_000).ilog2() as usize;
        let hist = &spare.latency_log2_ns;
        assert_eq!(hist.iter().sum::<u64>(), calls, "engine {engine}: every spare write timed");
        assert_eq!(
            hist[..floor].iter().sum::<u64>(),
            0,
            "engine {engine}: a spare write timed shorter than the stall: {hist:?}"
        );
    }
}

/// A rebuild closes the degraded window and its chunked I/O shows up
/// as `rebuild_read` / `spare_write` op kinds with exact unit totals.
#[test]
fn rebuild_ops_and_window_close() {
    let store = ring_store(9, 4, 4);
    let data = fill(&store);
    store.fail_disk(2).unwrap();
    Rebuilder::new(2).rebuild(&store, 9).unwrap();

    let s = store.stats();
    let per_disk = store.backend().units_per_disk() as u64;
    assert_eq!(s.op(OpKind::SpareWrite).unwrap().units, per_disk, "every unit landed once");
    assert_eq!(
        s.op(OpKind::RebuildRead).unwrap().units,
        3 * per_disk,
        "k-1 = 3 survivor reads per rebuilt unit"
    );
    assert_eq!(s.degraded.one.windows, 1);
    assert!(s.rebuild.is_none(), "no live rebuild after completion");

    let mut out = vec![0u8; store.blocks() * UNIT];
    store.read_blocks(0, &mut out).unwrap();
    assert_eq!(out, data);
}

/// The bundled ring-buffer sink sees the whole failure/rebuild
/// lifecycle as structured events, op spans included — and stops
/// seeing anything once uninstalled.
#[test]
fn trace_log_captures_lifecycle_events() {
    let store = ring_store(7, 3, 2);
    fill(&store);
    let log = Arc::new(TraceLog::with_capacity(4096));
    store.set_event_sink(Some(log.clone()));

    store.fail_disk(1).unwrap();
    store.write_block(0, &[9u8; UNIT]).unwrap();
    Rebuilder::new(1).rebuild(&store, 7).unwrap();

    let events = log.events();
    assert!(events.iter().any(|e| matches!(e, Event::DiskFailed { disk: 1, .. })));
    assert!(
        events.iter().any(|e| matches!(e, Event::RebuildBegan { disk: 1, spare: 7, .. })),
        "rebuild registration traced"
    );
    assert!(events.iter().any(|e| matches!(e, Event::RebuildCompleted { disk: 1, .. })));
    let span_open = events
        .iter()
        .any(|e| matches!(e, Event::OpBegin { kind, .. } if *kind == OpKind::DegradedWrite));
    let span_close = events
        .iter()
        .any(|e| matches!(e, Event::OpEnd { kind, .. } if *kind == OpKind::DegradedWrite));
    assert!(span_open && span_close, "degraded write op span traced open and close");

    store.set_event_sink(None);
    let seen = log.recorded();
    store.write_block(1, &[3u8; UNIT]).unwrap();
    assert_eq!(log.recorded(), seen, "uninstalled sink receives nothing");
}

/// A custom [`EventSink`] hears write-back flush batches with their
/// stripe and dirty-unit payloads, matching the cache counters.
#[test]
fn custom_sink_hears_cache_flush_batches() {
    #[derive(Default)]
    struct FlushCounter {
        batches: AtomicU64,
        dirty_units: AtomicU64,
    }
    impl EventSink for FlushCounter {
        fn record(&self, ev: &Event) {
            if let Event::CacheFlush { dirty_units, .. } = ev {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.dirty_units.fetch_add(*dirty_units as u64, Ordering::Relaxed);
            }
        }
    }

    let store = ring_store(7, 3, 2);
    store.set_cache_policy(CachePolicy::write_back()).unwrap();
    let sink = Arc::new(FlushCounter::default());
    store.set_event_sink(Some(sink.clone()));
    for addr in 0..6 {
        store.write_block(addr, &[addr as u8; UNIT]).unwrap();
    }
    store.flush().unwrap();
    assert!(sink.batches.load(Ordering::Relaxed) >= 1, "flush batch event emitted");
    let s = store.stats();
    assert_eq!(
        sink.dirty_units.load(Ordering::Relaxed),
        s.cache.flushed_units,
        "event payloads agree with the cache counters"
    );
    assert!(s.op(OpKind::CacheFlush).unwrap().ops >= 1, "flush batches are an op kind too");
}

/// `stats()` round-trips through JSON bit-exactly — the contract the
/// CI artifacts rely on.
#[test]
fn stats_snapshot_survives_json() {
    let store = pq_store(9, 4, 1);
    fill(&store);
    store.fail_disk(3).unwrap();
    let mut out = vec![0u8; UNIT];
    store.read_block(0, &mut out).unwrap();
    let s = store.stats();
    let json = serde_json::to_string(&s).unwrap();
    let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back.io_totals(), s.io_totals());
    assert_eq!(back.epoch, s.epoch);
    assert_eq!(back.degraded.one.windows, s.degraded.one.windows);
    assert_eq!(back.op(OpKind::Read).unwrap().ops, s.op(OpKind::Read).unwrap().ops);
    for (d, disk) in back.disks.iter().enumerate() {
        assert_eq!(disk.disk, d);
    }
    // The human renderer covers the same snapshot without panicking
    // and names the op kinds.
    let text = pdl_store::render_stats(&s);
    assert!(text.contains("ops (kind") && text.contains("degraded: one-erasure 1 window"));
}

/// `verify_parity` names the exact stripe, copy, and parity invariant
/// it found violated.
#[test]
fn parity_mismatch_reports_stripe_context() {
    let store = ring_store(7, 3, 1);
    fill(&store);
    store.verify_parity().unwrap();
    // Corrupt the medium behind the store's back (no fail_disk): the
    // scan must localize the damage, not just report "bad".
    store.backend().wipe_disk(store.physical_disk(0)).unwrap();
    match store.verify_parity() {
        Err(StoreError::ParityMismatch { stripe, copy, parity }) => {
            assert_eq!(copy, 0, "first copy scanned first");
            assert!(parity.contains('P'), "XOR stores verify the P invariant, got {parity}");
            let msg = StoreError::ParityMismatch { stripe, copy, parity }.to_string();
            assert!(msg.contains("parity invariant") && msg.contains(&stripe.to_string()));
        }
        other => panic!("expected ParityMismatch, got {other:?}"),
    }
}

/// The scrub events in `log`: the cursor of every `ScrubStarted`, and
/// the number and summed `(stripes, checksum, parity)` counts of the
/// `ScrubCompleted`s. Panics if the log dropped any event.
fn scrub_events(log: &TraceLog) -> (Vec<u64>, u64, (u64, u64, u64)) {
    let events = log.events();
    assert_eq!(log.recorded(), events.len() as u64, "the trace log dropped events");
    let (mut starts, mut completed, mut sums) = (Vec::new(), 0, (0, 0, 0));
    for e in events {
        match e {
            Event::ScrubStarted { cursor } => starts.push(cursor),
            Event::ScrubCompleted { stripes, checksum_repairs, parity_repairs } => {
                completed += 1;
                sums = (sums.0 + stripes, sums.1 + checksum_repairs, sums.2 + parity_repairs);
            }
            _ => {}
        }
    }
    (starts, completed, sums)
}

/// Flips a byte of unit `offset` on logical disk `disk`'s medium,
/// behind the checksum table's back.
fn rot(store: &BlockStore<MemBackend>, disk: usize, offset: usize) {
    let pd = store.physical_disk(disk);
    let mut buf = vec![0u8; UNIT];
    store.backend().read_unit(pd, offset, &mut buf).unwrap();
    buf[0] ^= 0xa5;
    store.backend().write_unit(pd, offset, &buf).unwrap();
}

/// Every scrub pass is bracketed by events: one `ScrubStarted` per
/// pass, the first at the report's `resumed_from`, and one
/// `ScrubCompleted` per finished pass, whose counts sum to the
/// `ScrubReport`'s — for one foreground pass, and for a background
/// loop stopped after two passes.
#[test]
fn scrub_events_bracket_every_pass() {
    let store = Arc::new(ring_store(7, 3, 8));
    fill(&store);
    let total = (8 * RingLayout::for_v_k(7, 3).layout().stripes().len()) as u64;

    let log = Arc::new(TraceLog::with_capacity(1 << 16));
    store.set_event_sink(Some(log.clone()));
    for offset in [0, 5, 10] {
        rot(&store, 3, offset);
    }
    let fg = store.scrub().unwrap();
    assert_eq!((fg.passes, fg.stripes, fg.checksum_repairs), (1, total, 3));
    let (starts, completed, sums) = scrub_events(&log);
    assert_eq!(starts, vec![fg.resumed_from]);
    assert_eq!(completed, 1);
    assert_eq!(sums, (fg.stripes, fg.checksum_repairs, fg.parity_repairs));

    let log = Arc::new(TraceLog::with_capacity(1 << 16));
    store.set_event_sink(Some(log.clone()));
    for offset in [1, 6] {
        rot(&store, 3, offset);
    }
    let handle = store.start_scrub().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while store.stats().integrity.scrub_passes < 1 + 2 {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for two passes");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    handle.stop();
    let bg = handle.join().unwrap();
    assert!(bg.passes >= 2 && bg.completed, "{bg:?}");
    assert_eq!(bg.checksum_repairs, 2, "the rot is repaired once, by the first pass");
    let (starts, completed, sums) = scrub_events(&log);
    assert!(starts.len() as u64 >= bg.passes, "a ScrubStarted per pass: {starts:?}");
    assert_eq!(starts[0], bg.resumed_from);
    assert!(starts[1..].iter().all(|&c| c == 0), "later passes start from the top: {starts:?}");
    assert_eq!(completed, bg.passes);
    assert_eq!((sums.1, sums.2), (bg.checksum_repairs, bg.parity_repairs));
    // A pass the stop cut short started but did not complete; its
    // stripes are in the report only.
    match starts.len() as u64 - bg.passes {
        0 => assert_eq!(sums.0, bg.stripes),
        1 => assert!(sums.0 <= bg.stripes && bg.stripes - sums.0 < total),
        extra => panic!("{extra} passes started but never completed"),
    }
    store.set_event_sink(None);
}

/// The stress harness carries a stats snapshot describing its own
/// workload and (racing mode) live rebuild-progress samples, and its
/// `stats.json` payload parses back.
#[test]
fn stress_report_carries_stats_snapshot() {
    let store = Arc::new(ring_store(9, 4, 64));
    let cfg = StressConfig {
        threads: 3,
        ops_per_thread: 300,
        fail_disk: Some(2),
        rebuild: RebuildMode::Racing { spare: 9 },
        ..StressConfig::default()
    };
    let report = stress::run(&store, &cfg).unwrap();
    let s = &report.stats;
    assert!(s.op(OpKind::SpareWrite).unwrap().units > 0, "rebuild traffic in the snapshot");
    assert_eq!(s.degraded.one.windows, 1, "the injected failure is one degraded window");
    assert!(s.degraded.one.ops > 0, "client ops ran inside the window");
    for p in &report.rebuild_progress {
        assert_eq!(p.failed_disk, 2);
        assert!(p.units_done <= p.units_total);
    }
    let back: StatsSnapshot = serde_json::from_str(&report.stats_json()).unwrap();
    assert_eq!(back.io_totals(), s.io_totals());
}
