//! One run of one workload: the untraced run gives the end-to-end
//! metrics, the traced run the per-layer ones.

use crate::gen::Pool;
use crate::hist::{median, Grouped, Hist};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::traced::{clock_cost_ns, Span, Totals};
use crate::workloads::{
    client_leg, device, file, mem, rebuild_leg, set_up, span_of, traced, verify, BackendKind,
    BenchBackend, Ledger, Leg, LegOut, RebuildOut, Rig, Spec, Stop,
};
use crate::{json, micro};
use pdl_store::{EngineConfig, StatsSnapshot};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where file-backed arrays and the trace file go.
    pub dir: PathBuf,
}

/// What the result line of a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            json::metrics(self.metrics.iter().copied())
        )
    }
}

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUP_REPEATS: usize = 3;
/// Rounds per client of the traced run's counting leg: a fixed op
/// stream, so the counts taken over it repeat exactly (one client) or
/// nearly (two).
const COUNT_ROUNDS: usize = 4;
/// Client calls per client whose spans are kept whole in the trace.
const SAMPLE_CALLS: usize = 2000;

pub fn run(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let data = args.dir.join(format!("data-{}-{}", spec.name, std::process::id()));
    let out = match (spec.backend, args.trace) {
        (BackendKind::Mem, false) => drive(spec, args, &mem(spec)),
        (BackendKind::Mem, true) => drive(spec, args, &traced(spec, mem(spec))),
        (BackendKind::File, false) => drive(spec, args, &file(spec, &data)),
        (BackendKind::File, true) => drive(spec, args, &traced(spec, file(spec, &data))),
        (BackendKind::Device, false) => drive(spec, args, &device(spec)),
        (BackendKind::Device, true) => drive(spec, args, &traced(spec, device(spec))),
    };
    if spec.backend == BackendKind::File {
        std::fs::remove_dir_all(&data).map_err(|e| format!("remove {data:?}: {e}"))?;
    }
    out
}

/// A set-up store with everything a leg needs to run against it.
struct Bench<'a, B> {
    spec: &'a Spec,
    args: &'a RunArgs,
    pool: &'a Pool,
    rig: Rig<B>,
    ledger: Ledger,
}

impl<B: BenchBackend> Bench<'_, B> {
    /// A client leg on the op stream every timed leg shares.
    fn clients(&mut self, stop: Stop, traced: bool) -> LegOut {
        self.clients_on(Leg { lane: 1, stop, traced, sample_calls: 0 })
    }

    fn clients_on(&mut self, leg: Leg) -> LegOut {
        client_leg(self.spec, &self.rig, &mut self.ledger, self.pool, self.args.seed, leg)
    }

    fn rebuilds(&mut self, share: f64) -> RebuildOut {
        let budget = self.share(share);
        rebuild_leg(self.spec, &self.rig, &mut self.ledger, budget)
    }

    /// A share of `--seconds`.
    fn share(&self, f: f64) -> Duration {
        Duration::from_secs_f64(self.args.seconds * f)
    }
}

/// Calls attempted and failed by the legs of a run.
fn tally(legs: &[&LegOut], rebuilds: &RebuildOut) -> (u64, u64) {
    (
        legs.iter().map(|l| l.attempted()).sum::<u64>() + rebuilds.cycles.len() as u64,
        legs.iter().map(|l| l.failed()).sum::<u64>() + rebuilds.failed,
    )
}

fn drive<B: BenchBackend>(
    spec: &Spec,
    args: &RunArgs,
    make: &dyn Fn(usize, usize) -> Result<B, String>,
) -> Result<Outcome, String> {
    let pool = Pool::new(args.seed, spec.unit);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous array first: two at once would double the
        // peak memory the run reports.
        drop(built.take());
        let start = Instant::now();
        built = Some(set_up(spec, &pool, args.seed, make)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (rig, ledger) = built.expect("SETUP_REPEATS is at least 1");
    let mut bench = Bench { spec, args, pool: &pool, rig, ledger };

    let (mut values, (attempted, failed)) = if args.trace {
        traced_legs(&mut bench)?
    } else {
        let timed = bench.clients(Stop::After(bench.share(0.75)), false);
        let rebuilds = bench.rebuilds(0.25);
        let mut values = Values::default();
        values.set("setup_s", median(&mut setups));
        end_to_end(&mut values, &bench.rig, &timed, &rebuilds);
        (values, tally(&[&timed], &rebuilds))
    };

    let check = verify(spec, &bench.rig, &bench.ledger, &pool);
    if let Err(why) = &check {
        eprintln!("{}: output check failed: {why}", spec.name);
    }
    let metrics = if args.trace {
        values.in_order(PER_LAYER.iter().map(|m| (m.name, m.unit)))?
    } else {
        values.set("peak_rss_mb", peak_rss_mb()?);
        values.in_order(END_TO_END.iter().map(|m| (m.name, m.unit)))?
    };
    Ok(Outcome { correct: check.is_ok() && failed == 0, attempted, failed, metrics })
}

/// The legs of the traced run and the per-layer values they give.
fn traced_legs<B: BenchBackend>(bench: &mut Bench<B>) -> Result<(Values, (u64, u64)), String> {
    let (spec, seed) = (bench.spec, bench.args.seed);
    let mut values = Values::default();
    micro_kernels(&mut values, spec, &bench.rig, seed)?;
    setup_layers(&mut values, &bench.rig);
    let totals = |b: &Bench<B>| {
        b.rig.store.backend().tracer().expect("the traced run wraps the backend").totals()
    };

    // Counting leg: fixed work, so the counts repeat.
    let before = (totals(bench), bench.rig.store.stats());
    let counted = bench.clients_on(Leg {
        lane: 2,
        stop: Stop::Rounds(COUNT_ROUNDS),
        traced: true,
        sample_calls: SAMPLE_CALLS,
    });
    let window = Window {
        backend: totals(bench).since(&before.0),
        before: before.1,
        after: bench.rig.store.stats(),
    };
    window.layers(&mut values, spec, &counted);

    // The same op stream traced, untraced, and (engine workloads) with
    // the engine off.
    let t0 = totals(bench);
    let on = bench.clients(Stop::After(bench.share(0.4)), true);
    let busy = totals(bench).since(&t0);
    let tracer = bench.rig.store.backend().tracer().expect("the traced run wraps the backend");
    time_layers(&mut values, &on, &busy, &tracer.call_latencies());
    let engine_after = bench.rig.store.stats().engine;
    let off = bench.clients(Stop::After(bench.share(0.2)), false);
    let sync = spec.engine.then(|| {
        bench.rig.store.stop_engine();
        let sync = bench.clients(Stop::After(bench.share(0.15)), false);
        bench.rig.store.start_engine(EngineConfig::default());
        sync
    });
    engine_layers(&mut values, &window, engine_after.as_ref(), &off, sync.as_ref());
    values.set("trace.overhead", on.ops_per_s() / off.ops_per_s());

    let rebuilds = bench.rebuilds(0.15);
    let first = rebuilds.cycles.first();
    values.set("rebuild.units_read", first.map_or(0.0, |c| c.units_read as f64));
    values.set("rebuild.read_imbalance", first.map_or(0.0, |c| c.read_imbalance));
    let mut cycle_ms: Vec<f64> =
        rebuilds.cycles.iter().map(|c| (c.end_ns - c.start_ns) as f64 / 1e6).collect();
    values.set("rebuild.cycle_p50_ms", median(&mut cycle_ms));

    let tracer = bench.rig.store.backend().tracer().expect("the traced run wraps the backend");
    write_trace(&bench.args.dir, spec, &bench.rig, tracer.take_spans(), &rebuilds)?;
    let mut legs = vec![&counted, &on, &off];
    legs.extend(sync.as_ref());
    Ok((values, tally(&legs, &rebuilds)))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// A percentile in µs, 0 when the sample is too small to support it.
fn pct_us(g: &Grouped, p: f64) -> f64 {
    g.percentile(p).map_or(0.0, us)
}

fn end_to_end<B: BenchBackend>(
    values: &mut Values,
    rig: &Rig<B>,
    clients: &LegOut,
    rebuilds: &RebuildOut,
) {
    let (reads, writes) = clients.latencies();
    values.set("ops_per_s", clients.ops_per_s());
    values.set("read_mbps", clients.read_mbps());
    values.set("write_mbps", clients.write_mbps());
    values.set("read_p50_us", pct_us(&reads, 0.5));
    values.set("write_p50_us", pct_us(&writes, 0.5));
    values.set("rebuild_mbps", rebuilds.mbps());
    values.set("rebuild_read_fraction", rebuilds.read_fraction());
    values.set("stored_per_user_byte", rig.stored_per_user_byte);
}

/// `VmHWM` of this process: the most memory it ever had resident.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn micro_kernels<B: BenchBackend>(
    values: &mut Values,
    spec: &Spec,
    rig: &Rig<B>,
    seed: u64,
) -> Result<(), String> {
    values.set("gf256.xor_gbps_512", micro::xor_gbps(512));
    values.set("gf256.xor_gbps_4k", micro::xor_gbps(4096));
    values.set("gf256.mul_add_gbps_4k", micro::mul_add_gbps(4096));
    values.set("gf256.mul_add_gbps_64k", micro::mul_add_gbps(64 << 10));
    values.set("gf256.solve2_gbps_4k", micro::solve2_gbps(4096));
    values.set("integrity.xxh64_gbps_512", micro::xxh64_gbps(512));
    values.set("integrity.xxh64_gbps_4k", micro::xxh64_gbps(4096));
    values.set("integrity.xxh64_gbps_64k", micro::xxh64_gbps(64 << 10));
    let map = rig.store.stripe_map();
    values.set("scheme.locate_ns", micro::locate_ns(&map, rig.store.blocks(), seed));
    values.set("scheme.table_bytes", map.table_bytes() as f64);
    let roundtrip = if spec.engine { micro::engine_roundtrip_us()? } else { 0.0 };
    values.set("engine.roundtrip_us", roundtrip);
    Ok(())
}

fn setup_layers<B: BenchBackend>(values: &mut Values, rig: &Rig<B>) {
    let ms = |(start, end): (u64, u64)| (end - start) as f64 / 1e6;
    values.set("core.layout_build_ms", ms(rig.setup.layout_build));
    values.set("core.pq_assign_ms", ms(rig.setup.pq_assign));
    values.set("store.create_ms", ms(rig.setup.store_create));
    values.set("store.prefill_s", ms(rig.setup.prefill) / 1e3);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the counting leg did to the counters around and inside the store.
struct Window {
    backend: Totals,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl Window {
    fn layers(&self, values: &mut Values, spec: &Spec, counted: &LegOut) {
        let b = &self.backend;
        let unit = spec.unit as f64;
        let (user_read, user_written) = counted.user_bytes();
        values.set("backend.read_calls", b.read.calls as f64);
        values.set("backend.write_calls", b.write.calls as f64);
        values.set("backend.read_units", b.read.units as f64);
        values.set("backend.write_units", b.write.units as f64);
        values.set("backend.flushes", b.flush.calls as f64);
        values.set(
            "backend.units_per_call",
            ratio((b.read.units + b.write.units) as f64, (b.read.calls + b.write.calls) as f64),
        );
        values.set(
            "store.calls_per_op",
            ratio((b.read.calls + b.write.calls + b.flush.calls) as f64, counted.calls() as f64),
        );
        values.set("store.read_amp", ratio(b.read.units as f64 * unit, user_read as f64));
        values.set("store.write_amp", ratio(b.write.units as f64 * unit, user_written as f64));
        values.set(
            "store.lock_contention",
            (self.after.lock_contention - self.before.lock_contention) as f64,
        );

        let (c0, c1) = (&self.before.cache, &self.after.cache);
        let hits = (c1.hits - c0.hits) as f64;
        let write_calls = user_written as f64 / (spec.unit * span_of(spec)) as f64;
        values.set("cache.hit_ratio", ratio(hits, hits + (c1.misses - c0.misses) as f64));
        values.set(
            "cache.absorbed_ratio",
            ratio((c1.absorbed_writes - c0.absorbed_writes) as f64, write_calls),
        );
        values.set("cache.evictions", (c1.evictions - c0.evictions) as f64);
        values.set("cache.flushed_units", (c1.flushed_units - c0.flushed_units) as f64);
    }
}

/// Where the time of the traced leg went: the share of its wall time
/// with at least one backend call in flight, the rest of the time the
/// clients spent inside calls (the store's own), and the backend-call
/// latencies.
fn time_layers(values: &mut Values, on: &LegOut, busy: &Totals, backend_calls: &Hist) {
    let wall = on.wall_ns as f64;
    // Call spans, like backend spans, less what the clock reads cost.
    let call_ns = on.call_ns().saturating_sub(on.calls() * clock_cost_ns()) as f64;
    let in_calls = call_ns / on.clients.len() as f64;
    let own = (in_calls - busy.busy_ns as f64).max(0.0);
    values.set("backend.busy_s", busy.busy_ns as f64 / 1e9);
    values.set("backend.busy_share", busy.busy_ns as f64 / wall);
    values.set("backend.call_p50_us", backend_calls.percentile(0.5).map_or(0.0, us));
    values.set("backend.call_p99_us", backend_calls.percentile(0.99).map_or(0.0, us));
    values.set("store.op_s", call_ns / 1e9);
    values.set("store.self_s", own / 1e9);
    values.set("store.self_share", own / wall);
    let (reads, writes) = on.latencies();
    values.set("cache.flush_s", on.clients.iter().map(|c| c.flush_ns).sum::<u64>() as f64 / 1e9);
    values.set("store.read_p99_us", pct_us(&reads, 0.99));
    values.set("store.write_p99_us", pct_us(&writes, 0.99));
}

/// Quantile of a log2-bucketed nanosecond histogram (bucket `i` holds
/// `2^i..2^(i+1)`), taken at the bucket's geometric middle.
fn log2_quantile_us(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let rank = (p * total as f64).ceil() as u64;
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if c > 0 && seen >= rank {
            return us(2f64.powf(i as f64 + 0.5));
        }
    }
    0.0
}

fn engine_layers(
    values: &mut Values,
    window: &Window,
    after_traced_leg: Option<&pdl_store::EngineStatsSnapshot>,
    off: &LegOut,
    sync: Option<&LegOut>,
) {
    let (submitted, completed, coalesced) = match (&window.before.engine, &window.after.engine) {
        (Some(e0), Some(e1)) => (
            e1.client_submitted - e0.client_submitted,
            e1.completed - e0.completed,
            e1.disks.iter().map(|d| d.coalesced).sum::<u64>()
                - e0.disks.iter().map(|d| d.coalesced).sum::<u64>(),
        ),
        _ => (0, 0, 0),
    };
    values.set("engine.submitted", submitted as f64);
    values.set("engine.completed", completed as f64);
    values.set("engine.coalesced", coalesced as f64);
    let (wait_p50, wait_p99, service) = match (&window.before.engine, after_traced_leg) {
        (Some(e0), Some(e1)) => {
            let waits: Vec<u64> = e1
                .queue_wait_log2_ns
                .iter()
                .zip(&e0.queue_wait_log2_ns)
                .map(|(a, b)| a - b)
                .collect();
            let service = e1.disks.iter().map(|d| d.ewma_service_us as f64).sum::<f64>()
                / e1.disks.len().max(1) as f64;
            (log2_quantile_us(&waits, 0.5), log2_quantile_us(&waits, 0.99), service)
        }
        _ => (0.0, 0.0, 0.0),
    };
    values.set("engine.queue_wait_p50_us", wait_p50);
    values.set("engine.queue_wait_p99_us", wait_p99);
    values.set("engine.ewma_service_us", service);
    values.set("engine.on_over_off", sync.map_or(0.0, |s| off.ops_per_s() / s.ops_per_s()));
}

/// Writes the sampled spans, one JSON object per line, to
/// `<dir>/trace-<workload>.jsonl`, after the clock has stopped.
fn write_trace<B: BenchBackend>(
    dir: &Path,
    spec: &Spec,
    rig: &Rig<B>,
    mut spans: Vec<Span>,
    rebuilds: &RebuildOut,
) -> Result<(), String> {
    let mut id = 0;
    let mut own = |name, (start_ns, end_ns): (u64, u64)| {
        id += 1;
        Span { name, id, op: 0, parent: 0, thread: 0, start_ns, end_ns }
    };
    let mut all: Vec<Span> = rig.setup.named().into_iter().map(|(n, s)| own(n, s)).collect();
    all.extend(rebuilds.cycles.iter().map(|c| own("rebuild.cycle", (c.start_ns, c.end_ns))));
    all.append(&mut spans);
    all.sort_by_key(|s| s.start_ns);

    let path = dir.join(format!("trace-{}.jsonl", spec.name));
    let io = |e: std::io::Error| format!("write {path:?}: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    let or_null = |v: u64| if v == 0 { "null".to_string() } else { v.to_string() };
    for s in &all {
        writeln!(
            out,
            "{{\"workload\": {}, \"id\": {}, \"op_id\": {}, \"parent\": {}, \"name\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            json::string(spec.name),
            s.id,
            or_null(s.op),
            or_null(s.parent),
            json::string(s.name),
            s.thread,
            s.start_ns,
            s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_quantiles_pick_the_right_bucket() {
        let mut buckets = vec![0u64; 32];
        buckets[10] = 90;
        buckets[17] = 10;
        assert_eq!(log2_quantile_us(&buckets, 0.5), us(2f64.powf(10.5)));
        assert_eq!(log2_quantile_us(&buckets, 0.99), us(2f64.powf(17.5)));
        assert_eq!(log2_quantile_us(&[0; 32], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let o =
            Outcome { correct: true, attempted: 10, failed: 0, metrics: vec![("a_b", 1.25, "us")] };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_b\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
    }
}
