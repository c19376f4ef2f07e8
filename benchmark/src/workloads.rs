//! The six workloads and the machinery that runs one of them: set-up,
//! closed-loop client legs cut into fixed-work rounds, fail → rebuild
//! cycles, and the output check.

use crate::device::DeviceModel;
use crate::gen::{Kind, Op, OpGen, Pool, Rng, Traffic, FILLS};
use crate::hist::{median, Grouped};
use crate::traced::{now_ns, TracedBackend, Tracer};
use pdl_core::{stairway_layout, DoubleParityLayout, Layout, RingLayout};
use pdl_store::{
    Backend, BlockStore, CachePolicy, EngineConfig, FileBackend, MemBackend, Rebuilder,
};
use std::path::Path;
use std::sync::Barrier;
use std::time::Duration;

#[derive(Clone, Copy, Debug)]
pub enum LayoutKind {
    /// `RingLayout::for_v_k(v, k)`.
    Ring { v: usize, k: usize },
    /// `stairway_layout` of the ring design `(q, k)` stretched to `v`.
    Stairway { q: usize, k: usize, v: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    Mem,
    File,
    /// `MemBackend` behind the [`DeviceModel`].
    Device,
}

/// Per-call latency and bandwidth of the modelled device.
pub const DEVICE_LATENCY: Duration = Duration::from_micros(100);
pub const DEVICE_BYTES_PER_S: f64 = 200e6;

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub layout: LayoutKind,
    pub pq: bool,
    pub unit: usize,
    pub copies: usize,
    pub backend: BackendKind,
    pub write_back: bool,
    pub engine: bool,
    pub clients: usize,
    /// Client traffic runs with logical disk 0 failed.
    pub degraded: bool,
    pub traffic: Traffic,
    /// Names the op stream; workloads with the same traffic share it.
    pub stream: u64,
    /// Client calls per round and client: the fixed unit of work whose
    /// median rate is reported. Sized for roughly 0.1 s on a 2-core
    /// box; a whole number of the traffic's periods.
    pub round_calls: usize,
}

const ENGINE_TRAFFIC: Traffic =
    Traffic::Mixed { read_pct: 70, span: 16, hot_pct: 0, flush_every: 0 };

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "small_mixed_mem",
        why: "512 B single-block calls, 70/30 read/write, uniform, on memory: per-call software cost (map, locks, counters, small hash and XOR) is everything, so a backend, engine or kernel change must not move it",
        layout: LayoutKind::Ring { v: 9, k: 4 },
        pq: false,
        unit: 512,
        // 10 MB, a few times the CPU's L2: on a 54 MB array this loop
        // follows the host's memory traffic (±10 % over seconds), and on
        // a 2.6 MB one a rebuild is 0.5 ms of mostly thread start-up.
        copies: 64,
        backend: BackendKind::Mem,
        write_back: false,
        engine: false,
        clients: 1,
        degraded: false,
        traffic: Traffic::Mixed { read_pct: 70, span: 1, hot_pct: 0, flush_every: 0 },
        stream: 1,
        round_calls: 200_000,
    },
    Spec {
        name: "seq_stream_file_pq",
        why: "passes of 12-block write_blocks (+flush) then read_blocks over a v=25 P+Q array of 64 KiB units on files: GF(256) mul_add, xxHash64, vectored syscalls and copy-out dominate, per-call overhead does not",
        layout: LayoutKind::Ring { v: 25, k: 5 },
        pq: true,
        unit: 64 << 10,
        copies: 1,
        backend: BackendKind::File,
        write_back: false,
        engine: false,
        clients: 1,
        degraded: false,
        traffic: Traffic::Passes { span: 12, read_passes: 2 },
        stream: 2,
        round_calls: 451,
    },
    Spec {
        name: "hot_mixed_cached_file",
        why: "4 KiB single-block calls 50/50 on a stairway v=10 file array with the write-back cache: 90 % hit a hot 1 % that fits it, 10 % uniform force evictions; the only workload where the cache does the work",
        layout: LayoutKind::Stairway { q: 9, k: 4, v: 10 },
        pq: false,
        unit: 4096,
        copies: 16,
        backend: BackendKind::File,
        write_back: true,
        engine: false,
        clients: 1,
        degraded: false,
        traffic: Traffic::Mixed { read_pct: 50, span: 1, hot_pct: 90, flush_every: 50_000 },
        stream: 3,
        round_calls: 50_000,
    },
    Spec {
        name: "degraded_rebuild_mem",
        why: "the paper's scenario: 4 KiB single-block calls 70/30 with one disk of a v=25 k=5 array failed (reads decode, writes keep parity), then its rebuild at exactly (k-1)/(v-1) of every survivor",
        layout: LayoutKind::Ring { v: 25, k: 5 },
        pq: false,
        unit: 4096,
        copies: 16,
        backend: BackendKind::Mem,
        write_back: false,
        engine: false,
        clients: 1,
        degraded: true,
        traffic: Traffic::Mixed { read_pct: 70, span: 1, hot_pct: 0, flush_every: 0 },
        stream: 4,
        round_calls: 100_000,
    },
    Spec {
        name: "engine_batch_file",
        why: "16-block read_blocks/write_blocks 70/30 from 2 clients through the async engine onto files: the device is fast, so engine hand-off (token per span, Vec per read, condvar wake) is what is measured",
        layout: LayoutKind::Ring { v: 9, k: 4 },
        pq: false,
        unit: 4096,
        copies: 64,
        backend: BackendKind::File,
        write_back: false,
        engine: true,
        clients: 2,
        degraded: false,
        traffic: ENGINE_TRAFFIC,
        stream: 5,
        round_calls: 500,
    },
    Spec {
        name: "engine_batch_device",
        why: "the traffic and seed stream of engine_batch_file onto a modelled device (100 us + 5 ns/byte per call): sleep-bound, so overlapping device latency is what counts; an engine that gives it up loses here",
        layout: LayoutKind::Ring { v: 9, k: 4 },
        pq: false,
        unit: 4096,
        copies: 64,
        backend: BackendKind::Device,
        write_back: false,
        engine: true,
        clients: 2,
        degraded: false,
        traffic: ENGINE_TRAFFIC,
        stream: 5,
        round_calls: 60,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn layout(&self) -> Result<Layout, String> {
        match self.layout {
            LayoutKind::Ring { v, k } => Ok(RingLayout::for_v_k(v, k).layout().clone()),
            LayoutKind::Stairway { q, k, v } => {
                stairway_layout(RingLayout::for_v_k(q, k).design(), v).map_err(|e| e.to_string())
            }
        }
    }

    /// `(k − 1, v − 1)` when the layout is exactly balanced, i.e. every
    /// survivor must serve exactly that fraction of a rebuild.
    fn exact_rebuild_fraction(&self) -> Option<(u64, u64)> {
        match self.layout {
            LayoutKind::Ring { v, k } => Some((k as u64 - 1, v as u64 - 1)),
            LayoutKind::Stairway { .. } => None,
        }
    }

    /// The block range client `c` owns.
    fn client_range(&self, blocks: usize, c: usize) -> (usize, usize) {
        let share = blocks / self.clients;
        (c * share, (c + 1) * share)
    }

    pub fn op_gen(&self, seed: u64, lane: u64, blocks: usize, client: usize) -> OpGen {
        let (lo, hi) = self.client_range(blocks, client);
        OpGen::new(
            Rng::for_stream(seed, self.stream, lane << 8 | client as u64),
            self.traffic,
            lo,
            hi,
        )
    }
}

/// What the harness needs from a backend beyond the `Backend` trait.
pub trait BenchBackend: Backend + 'static {
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
    /// Turns the device model's delays on or off (no-op elsewhere).
    fn set_modelled(&self, _on: bool) {}
}

impl BenchBackend for MemBackend {}

impl<B: Backend + 'static> BenchBackend for DeviceModel<B> {
    fn set_modelled(&self, on: bool) {
        DeviceModel::set_modelled(self, on)
    }
}

impl<B: BenchBackend> BenchBackend for TracedBackend<B> {
    fn tracer(&self) -> Option<&Tracer> {
        Some(TracedBackend::tracer(self))
    }
    fn set_modelled(&self, on: bool) {
        self.inner().set_modelled(on)
    }
}

/// Start and end (trace-epoch ns) of the steps of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSpans {
    pub layout_build: (u64, u64),
    pub pq_assign: (u64, u64),
    pub store_create: (u64, u64),
    pub prefill: (u64, u64),
    pub warmup: (u64, u64),
}

impl SetupSpans {
    pub fn named(&self) -> [(&'static str, (u64, u64)); 5] {
        [
            ("setup.layout_build", self.layout_build),
            ("setup.pq_assign", self.pq_assign),
            ("setup.store_create", self.store_create),
            ("setup.prefill", self.prefill),
            ("setup.warmup", self.warmup),
        ]
    }
}

/// A store that is set up and warm.
pub struct Rig<B> {
    pub store: BlockStore<B>,
    pub setup: SetupSpans,
    /// `v · size ÷ data units` of the layout under the scheme.
    pub stored_per_user_byte: f64,
}

/// What the harness knows about the array's contents: the fill every
/// block should hold, and the physical disk free to be the next spare.
pub struct Ledger {
    pub shadow: Vec<u8>,
    pub spare: usize,
}

fn timed<T>(span: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    span.0 = now_ns();
    let out = f();
    span.1 = now_ns();
    out
}

/// Layout build, store create, sequential prefill and one untimed
/// warm-up round, so lazy page faults and first touches are paid.
pub fn set_up<B: BenchBackend>(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    make: &dyn Fn(usize, usize) -> Result<B, String>,
) -> Result<(Rig<B>, Ledger), String> {
    let mut spans = SetupSpans::default();
    let layout = timed(&mut spans.layout_build, || spec.layout())?;
    let dp = timed(&mut spans.pq_assign, || {
        spec.pq.then(|| DoubleParityLayout::new(layout.clone())).transpose()
    })
    .map_err(|e| format!("P+Q assignment: {e:?}"))?;
    let v = layout.v();
    let store = timed(&mut spans.store_create, || -> Result<_, String> {
        let backend = make(v + 1, spec.copies * layout.size())?;
        backend.set_modelled(false);
        let store = match dp {
            Some(dp) => BlockStore::new_pq(dp, backend),
            None => BlockStore::new(layout.clone(), backend),
        }
        .map_err(|e| e.to_string())?;
        if spec.write_back {
            store.set_cache_policy(CachePolicy::write_back()).map_err(|e| e.to_string())?;
        }
        Ok(store)
    })?;
    let blocks = store.blocks();
    let stored_per_user_byte =
        (v * layout.size()) as f64 / store.stripe_map().data_units_per_copy() as f64;
    let mut shadow = vec![0u8; blocks];
    timed(&mut spans.prefill, || -> Result<(), String> {
        let mut at = 0;
        while at < blocks {
            let n = FILLS.min(blocks - at);
            store.write_blocks(at, pool.run(0, n)).map_err(|e| format!("prefill: {e}"))?;
            for (i, s) in shadow[at..at + n].iter_mut().enumerate() {
                *s = i as u8;
            }
            at += n;
        }
        store.flush().map_err(|e| format!("prefill flush: {e}"))
    })?;
    if spec.degraded {
        store.fail_disk(0).map_err(|e| e.to_string())?;
    }
    if spec.engine {
        store.start_engine(EngineConfig::default());
    }
    let mut rig = Rig { store, setup: spans, stored_per_user_byte };
    let mut ledger = Ledger { shadow, spare: v };
    let (start, warm) = (now_ns(), client_leg(spec, &rig, &mut ledger, pool, seed, Leg::warmup()));
    rig.setup.warmup = (start, now_ns());
    if warm.failed() > 0 {
        return Err(format!("{} of the warm-up calls failed", warm.failed()));
    }
    rig.store.backend().set_modelled(true);
    Ok((rig, ledger))
}

/// When a leg stops: after a fixed number of rounds per client, or at
/// the first round boundary past a deadline.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Rounds(usize),
    After(Duration),
}

#[derive(Clone, Copy, Debug)]
pub struct Leg {
    /// Distinguishes the op streams of the legs of one run.
    pub lane: u64,
    pub stop: Stop,
    /// Record spans and aggregates (only on a traced backend).
    pub traced: bool,
    /// Keep whole spans of each client's first calls.
    pub sample_calls: usize,
}

impl Leg {
    fn warmup() -> Leg {
        Leg { lane: 0, stop: Stop::Rounds(1), traced: false, sample_calls: 0 }
    }
}

/// One round of one client: a fixed number of calls and how long they
/// took, in total and inside read and write calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    pub calls: u64,
    pub wall_ns: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_bytes: u64,
    /// Includes the `flush` calls of the round.
    pub write_ns: u64,
}

#[derive(Default)]
pub struct ClientOut {
    pub rounds: Vec<Round>,
    pub read_lat: Grouped,
    pub write_lat: Grouped,
    pub attempted: u64,
    pub failed: u64,
    /// Time inside `flush` calls.
    pub flush_ns: u64,
}

pub struct LegOut {
    pub clients: Vec<ClientOut>,
    pub wall_ns: u64,
}

impl LegOut {
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.clients.iter().flat_map(|c| &c.rounds)
    }

    pub fn calls(&self) -> u64 {
        self.rounds().map(|r| r.calls).sum()
    }

    pub fn user_bytes(&self) -> (u64, u64) {
        (self.rounds().map(|r| r.read_bytes).sum(), self.rounds().map(|r| r.write_bytes).sum())
    }

    /// Nanoseconds the clients spent inside calls into the store.
    pub fn call_ns(&self) -> u64 {
        self.rounds().map(|r| r.read_ns + r.write_ns).sum()
    }

    /// Sum over clients of each client's median-round rate.
    fn rate(&self, per_round: impl Fn(&Round) -> Option<f64>) -> f64 {
        self.clients
            .iter()
            .map(|c| median(&mut c.rounds.iter().filter_map(&per_round).collect::<Vec<f64>>()))
            .sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.rate(|r| Some(r.calls as f64 * 1e9 / r.wall_ns as f64))
    }

    /// User MB read per second of time spent in read calls.
    pub fn read_mbps(&self) -> f64 {
        self.rate(|r| (r.read_ns > 0).then(|| r.read_bytes as f64 * 1e3 / r.read_ns as f64))
    }

    /// User MB written per second of time spent in write and flush calls.
    pub fn write_mbps(&self) -> f64 {
        self.rate(|r| (r.write_ns > 0).then(|| r.write_bytes as f64 * 1e3 / r.write_ns as f64))
    }

    pub fn latencies(&self) -> (Grouped, Grouped) {
        let (mut read, mut write) = (Grouped::default(), Grouped::default());
        for c in &self.clients {
            read.merge(&c.read_lat);
            write.merge(&c.write_lat);
        }
        (read, write)
    }
}

/// Blocks per client call of the workload's traffic.
pub fn span_of(spec: &Spec) -> usize {
    match spec.traffic {
        Traffic::Mixed { span, .. } | Traffic::Passes { span, .. } => span,
    }
}

/// Every 16th read is compared in full against the expected payload
/// while the traffic runs; every block is compared after it.
const CHECK_EVERY: u64 = 16;

fn payload_matches(pool: &Pool, fills: &[u8], got: &[u8]) -> bool {
    got.chunks_exact(got.len() / fills.len()).zip(fills).all(|(chunk, &f)| chunk == pool.block(f))
}

/// Runs the clients of `spec` against the rig, closed loop: each client
/// issues its next call when the previous one returned.
pub fn client_leg<B: BenchBackend>(
    spec: &Spec,
    rig: &Rig<B>,
    ledger: &mut Ledger,
    pool: &Pool,
    seed: u64,
    leg: Leg,
) -> LegOut {
    let store = &rig.store;
    let blocks = store.blocks();
    let tracer = store.backend().tracer().filter(|_| leg.traced);
    if let Some(t) = tracer {
        t.set_enabled(true);
        t.set_sampling(leg.sample_calls > 0);
    }
    let mut shadows: Vec<&mut [u8]> = Vec::new();
    let mut rest: &mut [u8] = &mut ledger.shadow;
    for c in 0..spec.clients {
        let (lo, hi) = spec.client_range(blocks, c);
        let (mine, tail) = rest.split_at_mut(hi - lo);
        shadows.push(mine);
        rest = tail;
    }
    let barrier = Barrier::new(spec.clients);
    let start = now_ns();
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = shadows
            .into_iter()
            .enumerate()
            .map(|(c, shadow)| {
                let gen = spec.op_gen(seed, leg.lane, blocks, c);
                let lo = spec.client_range(blocks, c).0;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run_client(spec, store, pool, tracer, leg, c == 0, gen, lo, shadow)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_ns = now_ns() - start;
    if let Some(t) = tracer {
        t.set_sampling(false);
        t.set_enabled(false);
    }
    LegOut { clients, wall_ns }
}

#[allow(clippy::too_many_arguments)]
fn run_client<B: BenchBackend>(
    spec: &Spec,
    store: &BlockStore<B>,
    pool: &Pool,
    tracer: Option<&Tracer>,
    leg: Leg,
    leads_sampling: bool,
    mut gen: OpGen,
    lo: usize,
    shadow: &mut [u8],
) -> ClientOut {
    let mut buf = vec![0u8; span_of(spec) * spec.unit];
    let mut out = ClientOut::default();
    let mut reads = 0u64;
    let mut sampled = 0usize;
    let begin = now_ns();
    loop {
        let mut round = Round::default();
        let round_start = now_ns();
        // The fifth of the leg this round starts in (for the latencies).
        let group = Grouped::group_at(match leg.stop {
            Stop::Rounds(n) => out.rounds.len() as f64 / n as f64,
            Stop::After(d) => (round_start - begin) as f64 / d.as_nanos() as f64,
        });
        for _ in 0..spec.round_calls {
            let op = gen.next_op();
            out.attempted += 1;
            round.calls += 1;
            let sample = tracer.filter(|t| sampled < leg.sample_calls && t.sampling());
            let id = sample.map_or(0, |t| {
                let id = t.new_span_id();
                t.enter_op(id);
                id
            });
            let (t0, ok, t1, name) = issue(store, pool, op, &mut buf);
            if let Some(t) = sample {
                t.enter_op(0);
                t.push_span(name, id, id, 0, t0, t1);
                sampled += 1;
                if leads_sampling && sampled == leg.sample_calls {
                    t.set_sampling(false);
                }
            }
            let ns = t1 - t0;
            let bytes = (op.blocks * spec.unit) as u64;
            let mut good = ok;
            match op.kind {
                Kind::Read => {
                    round.read_bytes += bytes;
                    round.read_ns += ns;
                    out.read_lat.record(group, ns);
                    reads += 1;
                    if ok && reads.is_multiple_of(CHECK_EVERY) {
                        let fills = &shadow[op.start - lo..op.start - lo + op.blocks];
                        good = payload_matches(pool, fills, &buf[..bytes as usize]);
                    }
                }
                Kind::Write => {
                    round.write_bytes += bytes;
                    round.write_ns += ns;
                    out.write_lat.record(group, ns);
                    if ok {
                        for (i, s) in shadow[op.start - lo..][..op.blocks].iter_mut().enumerate() {
                            *s = op.fill.wrapping_add(i as u8);
                        }
                    }
                }
                Kind::Flush => {
                    round.write_ns += ns;
                    out.flush_ns += ns;
                }
            }
            out.failed += !good as u64;
        }
        let now = now_ns();
        round.wall_ns = now - round_start;
        out.rounds.push(round);
        let done = match leg.stop {
            Stop::Rounds(n) => out.rounds.len() >= n,
            Stop::After(d) => now - begin >= d.as_nanos() as u64,
        };
        if done {
            break;
        }
    }
    out
}

/// Issues one call and times it: `(start, succeeded, end, span name)`.
#[inline]
fn issue<B: Backend>(
    store: &BlockStore<B>,
    pool: &Pool,
    op: Op,
    buf: &mut [u8],
) -> (u64, bool, u64, &'static str) {
    let buf = &mut buf[..op.blocks * pool.unit()];
    let data = if op.kind == Kind::Write { pool.run(op.fill, op.blocks) } else { &[] };
    let name = match (op.kind, op.blocks) {
        (Kind::Read, 1) => "client.read_block",
        (Kind::Read, _) => "client.read_blocks",
        (Kind::Write, 1) => "client.write_block",
        (Kind::Write, _) => "client.write_blocks",
        (Kind::Flush, _) => "client.flush",
    };
    let t0 = now_ns();
    let res = match (op.kind, op.blocks) {
        (Kind::Read, 1) => store.read_block(op.start, buf),
        (Kind::Read, _) => store.read_blocks(op.start, buf),
        (Kind::Write, 1) => store.write_block(op.start, data),
        (Kind::Write, _) => store.write_blocks(op.start, data),
        (Kind::Flush, _) => store.flush(),
    };
    (t0, res.is_ok(), now_ns(), name)
}

/// One fail → rebuild cycle.
#[derive(Clone, Debug)]
pub struct Cycle {
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes_rebuilt: u64,
    /// Largest share of its units any surviving disk had to serve.
    pub read_fraction: f64,
    pub units_read: u64,
    pub read_imbalance: f64,
}

pub struct RebuildOut {
    pub cycles: Vec<Cycle>,
    pub failed: u64,
}

impl RebuildOut {
    pub fn mbps(&self) -> f64 {
        median(
            &mut self
                .cycles
                .iter()
                .map(|c| c.bytes_rebuilt as f64 * 1e3 / (c.end_ns - c.start_ns) as f64)
                .collect::<Vec<f64>>(),
        )
    }

    pub fn read_fraction(&self) -> f64 {
        self.cycles.iter().map(|c| c.read_fraction).fold(0.0, f64::max)
    }
}

/// Fewest cycles a rebuild leg runs, however slow they are.
const MIN_CYCLES: usize = 3;

/// Fails logical disk 0 (unless the workload already runs degraded),
/// wipes its medium so a stale read would show, and rebuilds it onto
/// the spare with one worker; the freed disk is the next spare. On an
/// exactly balanced layout every survivor must serve exactly
/// (k−1)/(v−1) of its units; anything else counts as a failed cycle.
pub fn rebuild_leg<B: BenchBackend>(
    spec: &Spec,
    rig: &Rig<B>,
    ledger: &mut Ledger,
    budget: Duration,
) -> RebuildOut {
    let store = &rig.store;
    let units = store.backend().units_per_disk() as u64;
    let mut out = RebuildOut { cycles: Vec::new(), failed: 0 };
    let begin = now_ns();
    while out.cycles.len() < MIN_CYCLES || now_ns() - begin < budget.as_nanos() as u64 {
        let freed = store.physical_disk(0);
        let prepared = (store.is_degraded() || store.fail_disk(0).is_ok())
            && store.backend().wipe_disk(freed).is_ok();
        let start_ns = now_ns();
        let report = Rebuilder::new(1).rebuild(store, ledger.spare);
        let end_ns = now_ns();
        let Ok(report) = report else {
            out.failed += 1;
            break;
        };
        ledger.spare = freed;
        let (min, max) = report.surviving_read_range();
        let balanced = match spec.exact_rebuild_fraction() {
            Some((num, den)) => min == max && max * den == units * num,
            None => true,
        };
        out.failed += !(prepared && balanced && report.units_rebuilt as u64 == units) as u64;
        out.cycles.push(Cycle {
            start_ns,
            end_ns,
            bytes_rebuilt: units * spec.unit as u64,
            read_fraction: max as f64 / units as f64,
            units_read: report.per_disk_reads.iter().sum(),
            read_imbalance: report.read_imbalance(),
        });
    }
    out
}

/// The output check: every block is read back and compared with the
/// fill the harness last wrote there, and the parity equations of every
/// stripe are verified. Runs outside all timing.
pub fn verify<B: BenchBackend>(
    spec: &Spec,
    rig: &Rig<B>,
    ledger: &Ledger,
    pool: &Pool,
) -> Result<(), String> {
    let store = &rig.store;
    store.backend().set_modelled(false);
    store.stop_engine();
    store.flush().map_err(|e| format!("final flush: {e}"))?;
    if store.is_degraded() {
        return Err("store is still degraded after the rebuild leg".into());
    }
    let mut buf = vec![0u8; FILLS * spec.unit];
    let mut at = 0;
    while at < ledger.shadow.len() {
        let n = FILLS.min(ledger.shadow.len() - at);
        let got = &mut buf[..n * spec.unit];
        store.read_blocks(at, got).map_err(|e| format!("read-back at block {at}: {e}"))?;
        if !payload_matches(pool, &ledger.shadow[at..at + n], got) {
            return Err(format!("read-back mismatch in blocks {at}..{}", at + n));
        }
        at += n;
    }
    store.verify_parity().map_err(|e| format!("verify_parity: {e}"))
}

/// Backend constructors for the three kinds, bare and traced.
pub fn mem(spec: &Spec) -> impl Fn(usize, usize) -> Result<MemBackend, String> + '_ {
    |disks, units| Ok(MemBackend::new(disks, units, spec.unit))
}

/// Files under `dir`, never synced (see [`DeviceModel::volatile`]).
pub fn file<'a>(
    spec: &'a Spec,
    dir: &'a Path,
) -> impl Fn(usize, usize) -> Result<DeviceModel<FileBackend>, String> + 'a {
    move |disks, units| {
        FileBackend::create(dir, disks, units, spec.unit)
            .map(DeviceModel::volatile)
            .map_err(|e| format!("create {dir:?}: {e}"))
    }
}

pub fn device(
    spec: &Spec,
) -> impl Fn(usize, usize) -> Result<DeviceModel<MemBackend>, String> + '_ {
    |disks, units| {
        Ok(DeviceModel::new(
            MemBackend::new(disks, units, spec.unit),
            DEVICE_LATENCY,
            DEVICE_BYTES_PER_S,
        ))
    }
}

/// Wraps a constructor's backends in a [`TracedBackend`]. Backend
/// calls can overlap once the engine runs them or clients share them.
pub fn traced<'a, B: BenchBackend>(
    spec: &'a Spec,
    make: impl Fn(usize, usize) -> Result<B, String> + 'a,
) -> impl Fn(usize, usize) -> Result<TracedBackend<B>, String> + 'a {
    move |disks, units| Ok(TracedBackend::new(make(disks, units)?, spec.engine || spec.clients > 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_another_seed_another_stream() {
        for spec in &WORKLOADS {
            let blocks = 40_000;
            let hash = |seed, lane| spec.op_gen(seed, lane, blocks, 0).stream_hash(5000);
            assert_eq!(hash(7, 1), hash(7, 1), "{}", spec.name);
            assert_ne!(hash(7, 1), hash(8, 1), "{}", spec.name);
            assert_ne!(hash(7, 1), hash(7, 2), "{}: legs use different streams", spec.name);
            if spec.clients > 1 {
                let other = spec.op_gen(7, 1, blocks, 1).stream_hash(5000);
                assert_ne!(hash(7, 1), other, "{}: clients differ", spec.name);
            }
        }
        // The two engine workloads replay the same traffic.
        let (f, d) = (find("engine_batch_file").unwrap(), find("engine_batch_device").unwrap());
        assert_eq!(
            f.op_gen(3, 1, 13_824, 1).stream_hash(2000),
            d.op_gen(3, 1, 13_824, 1).stream_hash(2000)
        );
    }

    #[test]
    fn rounds_are_whole_periods_of_the_traffic() {
        for spec in &WORKLOADS {
            let layout = spec.layout().unwrap();
            let data = if spec.pq {
                layout.stripes().iter().map(|s| s.len() - 2).sum::<usize>()
            } else {
                layout.data_unit_count()
            };
            let (lo, hi) = spec.client_range(data * spec.copies, 0);
            let period = OpGen::period(spec.traffic, hi - lo);
            assert_eq!(spec.round_calls % period, 0, "{}: period {period}", spec.name);
        }
    }

    /// A cut-down workload end to end: set-up, traffic, rebuild, check.
    fn smoke(name: &str, copies: usize, round_calls: usize) {
        let spec = Spec { copies, round_calls, ..*find(name).unwrap() };
        let pool = Pool::new(11, spec.unit);
        let make = traced(&spec, mem(&spec));
        let (rig, mut ledger) = set_up(&spec, &pool, 11, &make).unwrap();
        let leg = Leg { lane: 1, stop: Stop::Rounds(2), traced: true, sample_calls: 50 };
        let out = client_leg(&spec, &rig, &mut ledger, &pool, 11, leg);
        assert_eq!(out.failed(), 0);
        assert_eq!(out.calls(), (2 * round_calls * spec.clients) as u64);
        assert!(out.ops_per_s() > 0.0 && out.read_mbps() > 0.0 && out.write_mbps() > 0.0);
        let tracer = rig.store.backend().tracer();
        let totals = tracer.totals();
        assert!(totals.read.calls > 0 && totals.write.calls > 0);
        let spans = tracer.take_spans();
        let client_spans = spans.iter().filter(|s| s.name.starts_with("client.")).count();
        // The first client ends the sampling window for all of them.
        assert!((50..=50 * spec.clients).contains(&client_spans));
        assert!(spans.iter().any(|s| s.name.starts_with("backend.") && s.parent != 0));
        let rb = rebuild_leg(&spec, &rig, &mut ledger, Duration::ZERO);
        assert_eq!((rb.failed, rb.cycles.len()), (0, MIN_CYCLES));
        if let Some((num, den)) = spec.exact_rebuild_fraction() {
            assert_eq!(rb.read_fraction(), num as f64 / den as f64);
        }
        verify(&spec, &rig, &ledger, &pool).unwrap();
        // The check does notice a wrong block.
        ledger.shadow[17] ^= 1;
        assert!(verify(&spec, &rig, &ledger, &pool).is_err());
    }

    #[test]
    fn small_mixed_smoke() {
        smoke("small_mixed_mem", 8, 2000);
    }

    #[test]
    fn degraded_rebuild_smoke() {
        smoke("degraded_rebuild_mem", 2, 2000);
    }

    #[test]
    fn engine_batch_smoke() {
        smoke("engine_batch_device", 16, 40);
    }
}
