//! The event-driven array simulator.
//!
//! Each disk services one IO at a time from a FIFO queue. Foreground
//! requests arrive as a Poisson process and are translated into disk IOs
//! according to the layout and the array mode (normal / degraded /
//! rebuilding); reconstruction runs as a background process with bounded
//! stripe-level parallelism. All randomness is seeded, so runs are
//! reproducible.

use crate::model::{IoKind, RebuildTarget, SimConfig, StopCondition};
use pdl_core::{Layout, StripeMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival,
    DiskDone(usize),
}

#[derive(Clone, Copy, Debug)]
enum Owner {
    Foreground(usize),
    Rebuild(usize),
}

#[derive(Clone, Copy, Debug)]
struct Io {
    owner: Owner,
    kind: IoKind,
    offset: u32,
    /// Contiguous units transferred (coalesced multi-unit IOs).
    units: u32,
}

#[derive(Debug, Default)]
struct DiskState {
    queue: VecDeque<Io>,
    current: Option<Io>,
    head: u64,
    busy_since: u64,
    busy_us: u64,
    fg_reads: u64,
    fg_writes: u64,
    rb_reads: u64,
    rb_writes: u64,
}

/// One coalesced disk IO: `(disk, first offset, unit count, kind)`.
type IoSpec = (usize, u32, u32, IoKind);

#[derive(Debug)]
struct Request {
    arrival: u64,
    remaining: usize,
    second_phase: Vec<IoSpec>,
}

#[derive(Debug)]
struct RebuildJob {
    remaining_reads: usize,
    write: Option<(usize, u32, IoKind)>,
}

/// Runtime state of the reconstruction scheduling policy.
#[derive(Debug)]
enum PolicyRt {
    /// Stripe-oriented: issue whole stripes, bounded concurrency.
    Stripe { stripes: Vec<usize>, next: usize, inflight: usize, parallelism: usize },
    /// Disk-oriented: per-disk read streams with bounded queue depth.
    Disk { queues: Vec<VecDeque<usize>>, depth: usize, outstanding: Vec<usize> },
}

#[derive(Debug)]
struct Rebuilder {
    jobs: Vec<Option<RebuildJob>>,
    total: usize,
    done: usize,
    finished_at: Option<u64>,
    /// Completion time of each stripe's rebuild (`None` = not crossing
    /// the failed disk, or not yet rebuilt).
    stripe_done_at: Vec<Option<u64>>,
    policy: PolicyRt,
}

/// Aggregated simulation outputs.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Simulated time covered (µs).
    pub sim_time_us: u64,
    /// Foreground requests generated.
    pub generated: usize,
    /// Foreground requests completed.
    pub completed: usize,
    /// Mean foreground response time (µs).
    pub mean_response_us: f64,
    /// 95th-percentile response time (µs).
    pub p95_response_us: u64,
    /// Maximum response time (µs).
    pub max_response_us: u64,
    /// Busy fraction per disk (the spare disk, when present, is last).
    pub disk_utilization: Vec<f64>,
    /// Foreground reads serviced per disk.
    pub fg_reads: Vec<u64>,
    /// Foreground writes serviced per disk.
    pub fg_writes: Vec<u64>,
    /// Rebuild reads serviced per disk.
    pub rebuild_reads: Vec<u64>,
    /// Rebuild writes serviced per disk.
    pub rebuild_writes: Vec<u64>,
    /// Completion time of reconstruction, if it ran.
    pub rebuild_finished_at: Option<u64>,
    /// Per-stripe rebuild completion time (indexed by stripe; `None` for
    /// stripes not crossing the failed disk or not yet rebuilt). Empty
    /// when no rebuild ran — feeds the double-failure vulnerability
    /// analysis of [`crate::worst_second_failure`].
    pub stripe_rebuilt_at: Vec<Option<u64>>,
}

impl SimResult {
    /// Largest per-disk utilization — the array's bottleneck.
    pub fn max_utilization(&self) -> f64 {
        self.disk_utilization.iter().cloned().fold(0.0, f64::max)
    }
}

/// The simulator.
struct ArraySim<'a> {
    layout: &'a Layout,
    mapper: StripeMap,
    cfg: SimConfig,
    rng: StdRng,
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, EventKind)>>,
    disks: Vec<DiskState>,
    requests: Vec<Request>,
    rebuilder: Option<Rebuilder>,
    responses: Vec<u64>,
    generated: usize,
    completed: usize,
}

impl<'a> ArraySim<'a> {
    /// Prepares a simulation of `layout` under `cfg`.
    fn new(layout: &'a Layout, cfg: SimConfig) -> Self {
        if let Some(f) = cfg.failed_disk {
            assert!(f < layout.v(), "failed disk out of range");
        }
        assert!(
            cfg.rebuild.is_none() || cfg.failed_disk.is_some(),
            "rebuild requires a failed disk"
        );
        let n_disks =
            layout.v() + usize::from(matches!(cfg.rebuild, Some(RebuildTarget::DedicatedSpare)));
        let mut disks = Vec::with_capacity(n_disks);
        disks.resize_with(n_disks, DiskState::default);
        let rng = StdRng::seed_from_u64(cfg.seed);
        ArraySim {
            layout,
            mapper: StripeMap::new(layout, None),
            cfg,
            rng,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            disks,
            requests: Vec::new(),
            rebuilder: None,
            responses: Vec::new(),
            generated: 0,
            completed: 0,
        }
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, kind)));
    }

    fn submit_io(&mut self, disk: usize, io: Io) {
        self.disks[disk].queue.push_back(io);
        if self.disks[disk].current.is_none() {
            self.start_next(disk);
        }
    }

    fn start_next(&mut self, disk: usize) {
        if self.disks[disk].current.is_some() {
            return; // already servicing an IO (re-armed during completion)
        }
        let next = match self.cfg.scheduling {
            crate::model::Scheduling::Fifo => self.disks[disk].queue.pop_front(),
            crate::model::Scheduling::Sstf => {
                let head = self.disks[disk].head;
                let best = self.disks[disk]
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, io)| head.abs_diff(io.offset as u64))
                    .map(|(i, _)| i);
                best.and_then(|i| self.disks[disk].queue.remove(i))
            }
        };
        if let Some(io) = next {
            let st = self.cfg.disk.service_time_at(
                &mut self.rng,
                self.disks[disk].head,
                io.offset as u64,
                self.layout.size() as u64,
                io.units as u64,
            );
            self.disks[disk].current = Some(io);
            self.disks[disk].busy_since = self.now;
            self.schedule(self.now + st, EventKind::DiskDone(disk));
        }
    }

    /// Per-stripe write planning: given the set of a stripe's data units
    /// being overwritten, emit (reads, writes) honoring degraded mode and
    /// the Condition-5 full-stripe-write optimization.
    fn plan_stripe_write(
        &self,
        si: usize,
        targets: &[pdl_core::StripeUnit],
        reads: &mut Vec<pdl_core::StripeUnit>,
        writes: &mut Vec<pdl_core::StripeUnit>,
    ) {
        let stripe = &self.layout.stripes()[si];
        let parity = stripe.parity_unit();
        let pd = parity.disk as usize;
        let failed = self.cfg.failed_disk;
        let data_count = stripe.len() - 1;
        let parity_failed = failed == Some(pd);
        let lost_target = targets.iter().find(|u| Some(u.disk as usize) == failed);
        if targets.len() == data_count {
            // Full-stripe write: parity computed from the new data alone.
            writes.extend(targets.iter().filter(|u| Some(u.disk as usize) != failed));
            if !parity_failed {
                writes.push(parity);
            }
        } else if let Some(lost) = lost_target {
            // A target sits on the failed disk: fold its value into parity
            // by reading the untouched data units.
            let lost = *lost;
            reads.extend(stripe.data_units().filter(|u| !targets.contains(u) && *u != lost));
            writes.extend(targets.iter().filter(|u| Some(u.disk as usize) != failed));
            if !parity_failed {
                writes.push(parity);
            }
        } else if parity_failed {
            // No parity to maintain: write data only.
            writes.extend(targets.iter().copied());
        } else {
            // Partial read-modify-write.
            reads.extend(targets.iter().copied());
            reads.push(parity);
            writes.extend(targets.iter().copied());
            writes.push(parity);
        }
    }

    /// Coalesces per-unit accesses into one IO per (disk, kind), counting
    /// units and starting at the lowest offset.
    fn coalesce(units: &[pdl_core::StripeUnit], kind: IoKind) -> Vec<IoSpec> {
        let mut per_disk: std::collections::BTreeMap<u32, (u32, u32)> = Default::default();
        for u in units {
            let e = per_disk.entry(u.disk).or_insert((u.offset, 0));
            e.0 = e.0.min(u.offset);
            e.1 += 1;
        }
        per_disk.into_iter().map(|(d, (off, n))| (d as usize, off, n, kind)).collect()
    }

    /// Translates a logical request of `n` contiguous units into
    /// (phase-1, phase-2) coalesced disk IOs.
    fn translate_range(&self, addr: usize, n: usize, kind: IoKind) -> (Vec<IoSpec>, Vec<IoSpec>) {
        let failed = self.cfg.failed_disk;
        match kind {
            IoKind::Read => {
                let mut reads = Vec::with_capacity(n);
                for a in addr..addr + n {
                    let unit = self.mapper.locate(a);
                    if Some(unit.disk as usize) == failed {
                        // Degraded read: all surviving units of the stripe.
                        let stripe = &self.layout.stripes()[self.mapper.stripe_of(a)];
                        reads
                            .extend(stripe.units().iter().filter(|u| u.disk != unit.disk).copied());
                    } else {
                        reads.push(unit);
                    }
                }
                reads.sort_unstable();
                reads.dedup();
                (Self::coalesce(&reads, IoKind::Read), Vec::new())
            }
            IoKind::Write => {
                // Group target units by stripe.
                let mut by_stripe: std::collections::BTreeMap<usize, Vec<pdl_core::StripeUnit>> =
                    Default::default();
                for a in addr..addr + n {
                    by_stripe
                        .entry(self.mapper.stripe_of(a))
                        .or_default()
                        .push(self.mapper.locate(a));
                }
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                for (si, targets) in &by_stripe {
                    self.plan_stripe_write(*si, targets, &mut reads, &mut writes);
                }
                reads.sort_unstable();
                reads.dedup();
                writes.sort_unstable();
                writes.dedup();
                let p1 = Self::coalesce(&reads, IoKind::Read);
                let p2 = Self::coalesce(&writes, IoKind::Write);
                if p1.is_empty() {
                    (p2, Vec::new())
                } else {
                    (p1, p2)
                }
            }
        }
    }

    fn issue_request(&mut self, addr: usize, n: usize, kind: IoKind) {
        let (p1, p2) = self.translate_range(addr, n, kind);
        let (p1, p2) = if p1.is_empty() { (p2, Vec::new()) } else { (p1, p2) };
        if p1.is_empty() {
            return; // degenerate (e.g. size-1 stripe) — nothing to do
        }
        let id = self.requests.len();
        self.requests.push(Request { arrival: self.now, remaining: p1.len(), second_phase: p2 });
        for (disk, offset, units, k) in p1 {
            self.submit_io(disk, Io { owner: Owner::Foreground(id), kind: k, offset, units });
        }
    }

    /// Surviving `(disk, offset)` units of a stripe crossing the failed disk.
    fn rebuild_read_units(&self, si: usize) -> Vec<(usize, u32)> {
        let failed = self.cfg.failed_disk.expect("rebuild requires failure");
        self.layout.stripes()[si]
            .units()
            .iter()
            .filter(|u| u.disk as usize != failed)
            .map(|u| (u.disk as usize, u.offset))
            .collect()
    }

    /// Offset of the failed disk's unit in stripe `si` (the spare disk
    /// mirrors the failed disk's geometry).
    fn failed_unit_offset(&self, si: usize) -> u32 {
        let failed = self.cfg.failed_disk.expect("rebuild requires failure");
        self.layout.stripes()[si]
            .units()
            .iter()
            .find(|u| u.disk as usize == failed)
            .map(|u| u.offset)
            .unwrap_or(0)
    }

    fn init_rebuild(&mut self, target: RebuildTarget) {
        let failed = self.cfg.failed_disk.expect("rebuild requires failure");
        let b = self.layout.b();
        let crossing: Vec<usize> =
            (0..b).filter(|&si| self.layout.stripes()[si].crosses(failed)).collect();
        let mut jobs: Vec<Option<RebuildJob>> = (0..b).map(|_| None).collect();
        let mut stripe_done_at = vec![None; b];
        let mut done = 0usize;
        let mut immediate_writes = Vec::new();
        for &si in &crossing {
            let reads = self.rebuild_read_units(si).len();
            let write = match &target {
                RebuildTarget::ReadOnly => None,
                RebuildTarget::DedicatedSpare => {
                    Some((self.layout.v(), self.failed_unit_offset(si), IoKind::Write))
                }
                RebuildTarget::Distributed(targets) => {
                    targets[si].map(|(d, o)| (d as usize, o, IoKind::Write))
                }
            };
            if reads == 0 && write.is_none() {
                // Degenerate stripe: nothing to read or write.
                done += 1;
                stripe_done_at[si] = Some(self.now);
            } else if reads == 0 {
                // Size-1 stripe: a pure write, issued immediately.
                jobs[si] = Some(RebuildJob { remaining_reads: 0, write: None });
                immediate_writes.push((si, write.unwrap()));
            } else {
                jobs[si] = Some(RebuildJob { remaining_reads: reads, write });
            }
        }
        let policy = match self.cfg.rebuild_policy {
            crate::model::RebuildPolicy::StripeOriented { parallelism } => PolicyRt::Stripe {
                // Pure-write (size-1) jobs are issued immediately and only
                // counted against the in-flight budget.
                stripes: crossing
                    .iter()
                    .copied()
                    .filter(|&si| jobs[si].as_ref().is_some_and(|j| j.remaining_reads > 0))
                    .collect(),
                next: 0,
                inflight: immediate_writes.len(),
                parallelism: parallelism.max(1),
            },
            crate::model::RebuildPolicy::DiskOriented { depth } => {
                let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.disks.len()];
                for &si in &crossing {
                    if jobs[si].is_some() {
                        for (d, _) in self.rebuild_read_units(si) {
                            queues[d].push_back(si);
                        }
                    }
                }
                let outstanding = vec![0usize; self.disks.len()];
                PolicyRt::Disk { queues, depth: depth.max(1), outstanding }
            }
        };
        let total = crossing.len();
        self.rebuilder = Some(Rebuilder {
            jobs,
            total,
            done,
            finished_at: (done == total).then_some(self.now),
            stripe_done_at,
            policy,
        });
        for (si, (d, o, k)) in immediate_writes {
            self.submit_io(d, Io { owner: Owner::Rebuild(si), kind: k, offset: o, units: 1 });
        }
        self.pump_rebuild();
    }

    fn pump_rebuild(&mut self) {
        let Some(rb) = self.rebuilder.as_mut() else { return };
        if rb.finished_at.is_some() {
            return;
        }
        match &mut rb.policy {
            PolicyRt::Stripe { stripes, next, inflight, parallelism } => {
                let mut to_submit = Vec::new();
                while *inflight < *parallelism && *next < stripes.len() {
                    let si = stripes[*next];
                    *next += 1;
                    *inflight += 1;
                    to_submit.push(si);
                }
                for si in to_submit {
                    for (d, o) in self.rebuild_read_units(si) {
                        self.submit_io(
                            d,
                            Io {
                                owner: Owner::Rebuild(si),
                                kind: IoKind::Read,
                                offset: o,
                                units: 1,
                            },
                        );
                    }
                }
            }
            PolicyRt::Disk { queues, depth, outstanding } => {
                // Keep every disk's rebuild stream filled to the depth.
                let depth = *depth;
                let mut to_submit = Vec::new();
                for d in 0..queues.len() {
                    while outstanding[d] < depth {
                        let Some(si) = queues[d].pop_front() else { break };
                        outstanding[d] += 1;
                        to_submit.push((d, si));
                    }
                }
                for (d, si) in to_submit {
                    let offset = self.layout.stripes()[si]
                        .units()
                        .iter()
                        .find(|u| u.disk as usize == d)
                        .map(|u| u.offset)
                        .unwrap_or(0);
                    self.submit_io(
                        d,
                        Io { owner: Owner::Rebuild(si), kind: IoKind::Read, offset, units: 1 },
                    );
                }
            }
        }
    }

    fn on_io_done(&mut self, disk: usize, io: Io) {
        match io.owner {
            Owner::Foreground(id) => {
                match io.kind {
                    IoKind::Read => self.disks[disk].fg_reads += 1,
                    IoKind::Write => self.disks[disk].fg_writes += 1,
                }
                let req = &mut self.requests[id];
                req.remaining -= 1;
                if req.remaining == 0 {
                    if req.second_phase.is_empty() {
                        let resp = self.now - req.arrival;
                        self.responses.push(resp);
                        self.completed += 1;
                    } else {
                        let phase = std::mem::take(&mut req.second_phase);
                        req.remaining = phase.len();
                        for (d, o, units, k) in phase {
                            self.submit_io(
                                d,
                                Io { owner: Owner::Foreground(id), kind: k, offset: o, units },
                            );
                        }
                    }
                }
            }
            Owner::Rebuild(si) => {
                match io.kind {
                    IoKind::Read => self.disks[disk].rb_reads += 1,
                    IoKind::Write => self.disks[disk].rb_writes += 1,
                }
                let rb = self.rebuilder.as_mut().expect("rebuild io without rebuilder");
                if io.kind == IoKind::Read {
                    if let PolicyRt::Disk { outstanding, .. } = &mut rb.policy {
                        outstanding[disk] -= 1;
                    }
                }
                let job = rb.jobs[si].as_mut().expect("io for finished job");
                match io.kind {
                    IoKind::Read => {
                        job.remaining_reads -= 1;
                        if job.remaining_reads == 0 {
                            if let Some((d, o, k)) = job.write.take() {
                                self.submit_io(
                                    d,
                                    Io { owner: Owner::Rebuild(si), kind: k, offset: o, units: 1 },
                                );
                            } else {
                                self.finish_job(si);
                            }
                        }
                    }
                    IoKind::Write => self.finish_job(si),
                }
                self.pump_rebuild();
            }
        }
    }

    fn finish_job(&mut self, si: usize) {
        let rb = self.rebuilder.as_mut().unwrap();
        rb.jobs[si] = None;
        rb.done += 1;
        rb.stripe_done_at[si] = Some(self.now);
        if let PolicyRt::Stripe { inflight, .. } = &mut rb.policy {
            *inflight -= 1;
        }
        if rb.done == rb.total {
            rb.finished_at = Some(self.now);
        }
    }

    /// Runs to the stop condition and returns aggregated results.
    fn run(mut self) -> SimResult {
        let duration_limit = match self.cfg.stop {
            StopCondition::Duration(d) => Some(d),
            StopCondition::RebuildComplete => None,
        };
        if let Some(target) = self.cfg.rebuild.clone() {
            self.init_rebuild(target);
        }
        let first_gap = self.cfg.workload.interarrival_us(&mut self.rng);
        self.schedule(first_gap, EventKind::Arrival);

        while let Some(Reverse((time, _, kind))) = self.events.pop() {
            if self.cfg.stop == StopCondition::RebuildComplete {
                if let Some(rb) = &self.rebuilder {
                    if rb.finished_at.is_some() {
                        break;
                    }
                }
            }
            if let Some(limit) = duration_limit {
                if time > limit {
                    self.now = limit;
                    break;
                }
            }
            self.now = time;
            match kind {
                EventKind::Arrival => {
                    if duration_limit.is_none_or(|limit| self.now <= limit) {
                        let total = self.mapper.data_units_per_copy();
                        let size = self.cfg.workload.request_size(&mut self.rng).min(total);
                        let mut addr = self
                            .cfg
                            .workload
                            .addresses
                            .sample(total, &mut self.rng)
                            .min(total - size);
                        if self.cfg.workload.aligned && size > 0 {
                            addr = addr / size * size;
                        }
                        let kind = if self.rng.random_bool(self.cfg.workload.read_fraction) {
                            IoKind::Read
                        } else {
                            IoKind::Write
                        };
                        self.generated += 1;
                        self.issue_request(addr, size, kind);
                        let gap = self.cfg.workload.interarrival_us(&mut self.rng);
                        self.schedule(self.now + gap, EventKind::Arrival);
                    }
                }
                EventKind::DiskDone(disk) => {
                    let io = self.disks[disk].current.take().expect("completion without io");
                    let started = self.disks[disk].busy_since;
                    self.disks[disk].busy_us += self.now - started;
                    self.disks[disk].head = io.offset as u64;
                    self.on_io_done(disk, io);
                    self.start_next(disk);
                }
            }
        }
        self.finish()
    }

    fn finish(mut self) -> SimResult {
        let sim_time = self.now.max(1);
        self.responses.sort_unstable();
        let mean = if self.responses.is_empty() {
            0.0
        } else {
            self.responses.iter().sum::<u64>() as f64 / self.responses.len() as f64
        };
        let pct = |p: f64| -> u64 {
            if self.responses.is_empty() {
                0
            } else {
                let idx = ((self.responses.len() as f64 * p).ceil() as usize)
                    .clamp(1, self.responses.len());
                self.responses[idx - 1]
            }
        };
        SimResult {
            sim_time_us: sim_time,
            generated: self.generated,
            completed: self.completed,
            mean_response_us: mean,
            p95_response_us: pct(0.95),
            max_response_us: self.responses.last().copied().unwrap_or(0),
            disk_utilization: self
                .disks
                .iter()
                .map(|d| d.busy_us as f64 / sim_time as f64)
                .collect(),
            fg_reads: self.disks.iter().map(|d| d.fg_reads).collect(),
            fg_writes: self.disks.iter().map(|d| d.fg_writes).collect(),
            rebuild_reads: self.disks.iter().map(|d| d.rb_reads).collect(),
            rebuild_writes: self.disks.iter().map(|d| d.rb_writes).collect(),
            rebuild_finished_at: self.rebuilder.as_ref().and_then(|r| r.finished_at),
            stripe_rebuilt_at: self.rebuilder.map(|r| r.stripe_done_at).unwrap_or_default(),
        }
    }
}

/// Convenience wrapper: build and run in one call.
pub fn simulate(layout: &Layout, cfg: SimConfig) -> SimResult {
    ArraySim::new(layout, cfg).run()
}

/// Rebuild-only run (no foreground traffic), returning the result.
pub fn simulate_rebuild(
    layout: &Layout,
    failed: usize,
    target: RebuildTarget,
    seed: u64,
) -> SimResult {
    let cfg = SimConfig {
        seed,
        failed_disk: Some(failed),
        rebuild: Some(target),
        workload: crate::model::Workload { arrivals_per_sec: 0.0, ..Default::default() },
        stop: StopCondition::RebuildComplete,
        ..Default::default()
    };
    simulate(layout, cfg)
}

/// Checks the conservation law: a completed rebuild must have read each
/// surviving unit of each stripe crossing the failed disk exactly once.
pub fn rebuild_reads_match_layout(layout: &Layout, failed: usize, result: &SimResult) -> bool {
    let mut expect = vec![0u64; layout.v()];
    for stripe in layout.stripes() {
        if stripe.crosses(failed) {
            for u in stripe.units() {
                if u.disk as usize != failed {
                    expect[u.disk as usize] += 1;
                }
            }
        }
    }
    expect == result.rebuild_reads[..layout.v()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workload;
    use pdl_core::{raid5_layout, RingLayout};

    #[test]
    fn normal_mode_completes_requests() {
        let rl = RingLayout::for_v_k(5, 3);
        let cfg =
            SimConfig { seed: 1, stop: StopCondition::Duration(5_000_000), ..Default::default() };
        let r = simulate(rl.layout(), cfg);
        assert!(r.completed > 100, "completed {}", r.completed);
        assert!(r.mean_response_us > 0.0);
        assert!(r.max_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn determinism_per_seed() {
        let rl = RingLayout::for_v_k(5, 3);
        let cfg =
            SimConfig { seed: 9, stop: StopCondition::Duration(2_000_000), ..Default::default() };
        let a = simulate(rl.layout(), cfg.clone());
        let b = simulate(rl.layout(), cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_response_us, b.mean_response_us);
        assert_eq!(a.fg_reads, b.fg_reads);
    }

    #[test]
    fn rebuild_reads_conserve() {
        let rl = RingLayout::for_v_k(7, 3);
        let r = simulate_rebuild(rl.layout(), 2, RebuildTarget::ReadOnly, 3);
        assert!(r.rebuild_finished_at.is_some());
        assert!(rebuild_reads_match_layout(rl.layout(), 2, &r));
    }

    #[test]
    fn rebuild_with_spare_writes_everything() {
        let rl = RingLayout::for_v_k(7, 3);
        let r = simulate_rebuild(rl.layout(), 0, RebuildTarget::DedicatedSpare, 4);
        assert!(r.rebuild_finished_at.is_some());
        // spare disk (index v) received one write per stripe crossing disk 0
        let crossing = rl.layout().stripes().iter().filter(|s| s.crosses(0)).count() as u64;
        assert_eq!(r.rebuild_writes[7], crossing);
        // spare takes no reads
        assert_eq!(r.rebuild_reads[7], 0);
    }

    #[test]
    fn declustered_rebuilds_faster_than_raid5() {
        // Same v and same size: ring (v=9, k=3, size 24) vs RAID5 (9, 24).
        let rl = RingLayout::for_v_k(9, 3);
        let raid5 = raid5_layout(9, 24);
        assert_eq!(rl.layout().size(), raid5.size());
        let a = simulate_rebuild(rl.layout(), 4, RebuildTarget::ReadOnly, 7);
        let b = simulate_rebuild(&raid5, 4, RebuildTarget::ReadOnly, 7);
        let (ta, tb) = (a.rebuild_finished_at.unwrap(), b.rebuild_finished_at.unwrap());
        assert!(ta < tb, "declustered rebuild {ta}µs should beat RAID5 {tb}µs");
        // RAID5 reads (v-1)·size units; declustered k-1/(v-1) of that.
        let total_a: u64 = a.rebuild_reads.iter().sum();
        let total_b: u64 = b.rebuild_reads.iter().sum();
        assert_eq!(total_b, 8 * 24);
        assert_eq!(total_a, (3 - 1) * 24); // (k-1) per crossing stripe × r stripes… = 2·24
        assert!(total_a < total_b);
    }

    #[test]
    fn degraded_reads_fan_out() {
        // With a failed disk and read-only workload, reads targeting the
        // failed disk hit k-1 survivors.
        let rl = RingLayout::for_v_k(5, 3);
        let cfg = SimConfig {
            seed: 5,
            failed_disk: Some(1),
            workload: Workload { arrivals_per_sec: 20.0, read_fraction: 1.0, ..Default::default() },
            stop: StopCondition::Duration(5_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        // no IO should ever land on the failed disk
        assert_eq!(r.fg_reads[1] + r.fg_writes[1], 0);
        let total_ios: u64 = r.fg_reads.iter().sum();
        assert!(
            total_ios as usize > r.completed,
            "degraded fan-out must exceed one IO per request"
        );
    }

    #[test]
    fn degraded_writes_avoid_failed_disk() {
        let rl = RingLayout::for_v_k(7, 4);
        let cfg = SimConfig {
            seed: 6,
            failed_disk: Some(3),
            workload: Workload { arrivals_per_sec: 20.0, read_fraction: 0.0, ..Default::default() },
            stop: StopCondition::Duration(5_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        assert_eq!(r.fg_reads[3] + r.fg_writes[3], 0);
        assert!(r.completed > 50);
    }

    #[test]
    fn foreground_slows_rebuild() {
        let rl = RingLayout::for_v_k(9, 4);
        let quiet = simulate_rebuild(rl.layout(), 0, RebuildTarget::ReadOnly, 11);
        let busy_cfg = SimConfig {
            seed: 11,
            failed_disk: Some(0),
            rebuild: Some(RebuildTarget::ReadOnly),
            workload: Workload { arrivals_per_sec: 120.0, ..Default::default() },
            stop: StopCondition::RebuildComplete,
            ..Default::default()
        };
        let busy = simulate(rl.layout(), busy_cfg);
        assert!(
            busy.rebuild_finished_at.unwrap() > quiet.rebuild_finished_at.unwrap(),
            "foreground load must delay reconstruction"
        );
    }

    #[test]
    fn distributed_rebuild_spreads_writes() {
        use pdl_core::SparedLayout;
        let spared = SparedLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
        let failed = 2;
        let plan = spared.rebuild_plan(failed);
        let mut targets: Vec<Option<(u32, u32)>> = vec![None; spared.layout().b()];
        for (si, u) in &plan.targets {
            targets[*si] = Some((u.disk, u.offset));
        }
        let r = simulate_rebuild(spared.layout(), failed, RebuildTarget::Distributed(targets), 13);
        assert!(r.rebuild_finished_at.is_some());
        let writes: u64 = r.rebuild_writes.iter().sum();
        assert_eq!(writes as usize, plan.targets.len());
        // writes spread over many disks, none on the failed disk
        assert_eq!(r.rebuild_writes[failed], 0);
        let busy_disks = r.rebuild_writes.iter().filter(|&&w| w > 0).count();
        assert!(busy_disks >= spared.layout().v() / 2);
    }

    #[test]
    fn disk_oriented_policy_conserves_reads() {
        use crate::model::RebuildPolicy;
        let rl = RingLayout::for_v_k(9, 4);
        let cfg = SimConfig {
            seed: 5,
            failed_disk: Some(3),
            rebuild: Some(RebuildTarget::ReadOnly),
            rebuild_policy: RebuildPolicy::DiskOriented { depth: 2 },
            workload: Workload { arrivals_per_sec: 0.0, ..Default::default() },
            stop: StopCondition::RebuildComplete,
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        assert!(r.rebuild_finished_at.is_some());
        assert!(rebuild_reads_match_layout(rl.layout(), 3, &r));
    }

    #[test]
    fn disk_oriented_beats_narrow_stripe_oriented() {
        use crate::model::RebuildPolicy;
        // With stripe parallelism 1, only k-1 disks work at a time;
        // disk-oriented keeps all v-1 survivors streaming.
        let rl = RingLayout::for_v_k(9, 3);
        let run = |policy: RebuildPolicy| {
            let cfg = SimConfig {
                seed: 6,
                failed_disk: Some(0),
                rebuild: Some(RebuildTarget::ReadOnly),
                rebuild_policy: policy,
                workload: Workload { arrivals_per_sec: 0.0, ..Default::default() },
                stop: StopCondition::RebuildComplete,
                ..Default::default()
            };
            simulate(rl.layout(), cfg).rebuild_finished_at.unwrap()
        };
        let narrow = run(RebuildPolicy::StripeOriented { parallelism: 1 });
        let disk = run(RebuildPolicy::DiskOriented { depth: 2 });
        assert!(disk < narrow, "disk-oriented {disk} vs stripe(1) {narrow}");
    }

    #[test]
    fn both_policies_read_the_same_units() {
        use crate::model::RebuildPolicy;
        let rl = RingLayout::for_v_k(13, 4);
        let mk = |policy| SimConfig {
            seed: 9,
            failed_disk: Some(7),
            rebuild: Some(RebuildTarget::ReadOnly),
            rebuild_policy: policy,
            workload: Workload { arrivals_per_sec: 0.0, ..Default::default() },
            stop: StopCondition::RebuildComplete,
            ..Default::default()
        };
        let a = simulate(rl.layout(), mk(RebuildPolicy::StripeOriented { parallelism: 4 }));
        let b = simulate(rl.layout(), mk(RebuildPolicy::DiskOriented { depth: 3 }));
        assert_eq!(a.rebuild_reads, b.rebuild_reads);
    }

    #[test]
    fn stripe_rebuild_times_recorded() {
        let rl = RingLayout::for_v_k(7, 3);
        let r = simulate_rebuild(rl.layout(), 1, RebuildTarget::DedicatedSpare, 4);
        let crossing = rl.layout().stripes().iter().filter(|s| s.crosses(1)).count();
        let recorded = r.stripe_rebuilt_at.iter().flatten().count();
        assert_eq!(recorded, crossing);
        let t_end = r.rebuild_finished_at.unwrap();
        assert!(r.stripe_rebuilt_at.iter().flatten().all(|&t| t <= t_end));
        assert!(r.stripe_rebuilt_at.iter().flatten().any(|&t| t < t_end));
    }

    #[test]
    fn stop_at_duration_bounds_time() {
        let rl = RingLayout::for_v_k(5, 2);
        let cfg =
            SimConfig { seed: 2, stop: StopCondition::Duration(1_000_000), ..Default::default() };
        let r = simulate(rl.layout(), cfg);
        assert!(r.sim_time_us <= 1_000_000);
    }

    #[test]
    fn sstf_beats_fifo_under_linear_seeks() {
        use crate::model::{DiskModel, Scheduling, SeekModel};
        let rl = RingLayout::for_v_k(9, 3);
        let run = |sched: Scheduling| {
            let cfg = SimConfig {
                seed: 21,
                disk: DiskModel {
                    positioning_us: (2_000, 4_000),
                    transfer_us: 2_000,
                    seek: SeekModel::Linear { max_seek_us: 20_000 },
                },
                scheduling: sched,
                workload: Workload { arrivals_per_sec: 140.0, ..Default::default() },
                stop: StopCondition::Duration(20_000_000),
                ..Default::default()
            };
            simulate(rl.layout(), cfg)
        };
        let fifo = run(Scheduling::Fifo);
        let sstf = run(Scheduling::Sstf);
        assert!(
            sstf.mean_response_us < fifo.mean_response_us,
            "SSTF {} must beat FIFO {}",
            sstf.mean_response_us,
            fifo.mean_response_us
        );
        // throughput should not suffer
        assert!(sstf.completed * 10 >= fifo.completed * 9);
    }

    #[test]
    fn linear_seeks_slow_scattered_rebuild() {
        use crate::model::{DiskModel, SeekModel};
        let rl = RingLayout::for_v_k(9, 3);
        let run = |seek: SeekModel| {
            let cfg = SimConfig {
                seed: 22,
                disk: DiskModel { positioning_us: (5_000, 15_000), transfer_us: 2_000, seek },
                failed_disk: Some(0),
                rebuild: Some(RebuildTarget::ReadOnly),
                workload: Workload { arrivals_per_sec: 0.0, ..Default::default() },
                stop: StopCondition::RebuildComplete,
                ..Default::default()
            };
            simulate(rl.layout(), cfg).rebuild_finished_at.unwrap()
        };
        let flat = run(SeekModel::PositionIndependent);
        let seeky = run(SeekModel::Linear { max_seek_us: 30_000 });
        assert!(seeky > flat, "seek costs must show up: {seeky} vs {flat}");
    }

    #[test]
    fn full_stripe_writes_need_no_prereads() {
        // Condition 5 in action: aligned writes of k-1 units cover whole
        // stripes, so a pure-write workload issues zero reads.
        let rl = RingLayout::for_v_k(9, 4); // k-1 = 3 data units per stripe
        let cfg = SimConfig {
            seed: 41,
            workload: Workload {
                arrivals_per_sec: 30.0,
                read_fraction: 0.0,
                request_units: (3, 3),
                aligned: true,
                ..Default::default()
            },
            stop: StopCondition::Duration(5_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        assert!(r.completed > 50);
        let total_reads: u64 = r.fg_reads.iter().sum();
        assert_eq!(total_reads, 0, "aligned full-stripe writes must skip pre-reads");
    }

    #[test]
    fn small_writes_do_rmw() {
        let rl = RingLayout::for_v_k(9, 4);
        let cfg = SimConfig {
            seed: 42,
            workload: Workload {
                arrivals_per_sec: 30.0,
                read_fraction: 0.0,
                request_units: (1, 1),
                ..Default::default()
            },
            stop: StopCondition::Duration(5_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        let reads: u64 = r.fg_reads.iter().sum();
        let writes: u64 = r.fg_writes.iter().sum();
        assert!(reads > 0, "single-unit writes pre-read data and parity");
        // RMW: reads ≈ writes (2 each per request)
        assert!((reads as f64 - writes as f64).abs() / writes as f64 <= 0.2);
    }

    #[test]
    fn large_reads_coalesce() {
        // A v-unit read touches at most v disks with one IO each (per
        // phase), never v separate positioning penalties on one disk.
        let rl = RingLayout::for_v_k(9, 3);
        let cfg = SimConfig {
            seed: 43,
            workload: Workload {
                arrivals_per_sec: 10.0,
                read_fraction: 1.0,
                request_units: (9, 9),
                ..Default::default()
            },
            stop: StopCondition::Duration(10_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        assert!(r.completed > 20);
        let ios: u64 = r.fg_reads.iter().sum();
        // 9 units over ≤ 9 disks: strictly fewer IOs than units requested
        assert!(ios < 9 * r.completed as u64, "ios={ios} completed={}", r.completed);
    }

    #[test]
    fn degraded_large_reads_avoid_failed_disk() {
        let rl = RingLayout::for_v_k(9, 3);
        let cfg = SimConfig {
            seed: 44,
            failed_disk: Some(2),
            workload: Workload {
                arrivals_per_sec: 20.0,
                read_fraction: 1.0,
                request_units: (4, 8),
                ..Default::default()
            },
            stop: StopCondition::Duration(5_000_000),
            ..Default::default()
        };
        let r = simulate(rl.layout(), cfg);
        assert_eq!(r.fg_reads[2] + r.fg_writes[2], 0);
        assert!(r.completed > 30);
    }

    #[test]
    fn head_position_tracks_completions() {
        // After a run, every disk's head equals the offset of its last
        // completed IO — verified indirectly by determinism of results
        // across Fifo/PositionIndependent where order is offset-blind.
        let rl = RingLayout::for_v_k(5, 3);
        let cfg =
            SimConfig { seed: 3, stop: StopCondition::Duration(2_000_000), ..Default::default() };
        let a = simulate(rl.layout(), cfg.clone());
        let b = simulate(rl.layout(), cfg);
        assert_eq!(a.fg_reads, b.fg_reads);
        assert_eq!(a.mean_response_us, b.mean_response_us);
    }
}
