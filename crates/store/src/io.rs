//! # The store's one I/O dispatch point
//!
//! Every multi-run transfer the store makes — a client batch's
//! per-disk runs, a degraded stripe's survivors, a rebuild or reshape
//! chunk's prefetch band, a scrub stripe, a write plan's gathers, a
//! partial-stripe update's read set and write set (a small write's
//! two rounds: old units and parities in, new ones out) — is handed
//! to [`Io`] as a list of per-disk [`Run`]s over caller-owned buffers.
//! [`Io`] alone knows whether an async [`Engine`] is running:
//!
//! * **engine off** — each run is one backend call, issued in order
//!   under [`Integrity::retrying`] straight into (or out of) the
//!   caller's slices: no staging copy, no allocation;
//! * **engine on** — each run is routed by its disk. A disk whose
//!   service EWMA is below the engine's hand-off cost (measured once,
//!   at start) answers sooner on the caller's thread than through a
//!   worker, so its runs are issued inline, timed, and folded into the
//!   same EWMA the workers feed — either route keeps the estimate
//!   current, so a disk that starts stalling moves to the queues and
//!   one that recovers moves back. Every other run, including any on
//!   a disk not yet timed, is submitted before the inline ones are
//!   issued, so the queued disks work meanwhile. Every token is then
//!   drained (read payloads copied into the caller's buffers as they
//!   land) before the first error is reported — none is abandoned in
//!   flight — and the callers' per-run callbacks fire in run order on
//!   both routes.
//!
//! The mode switch is absorbed here too: a run the engine refuses or
//! sweeps because it is stopping never reached the backend
//! ([`is_engine_down`]) and is issued inline instead. With the full
//! drain, `start_engine` / `stop_engine` under live traffic can
//! neither fail a call nor let a write land after its call returned.
//!
//! One call is one *round*: its runs are independent, and with the
//! engine on they are in flight together, so the order in which they
//! reach the media is unspecified. A write round may be split in two:
//! [`Io::submit_writes`] puts it on its way and [`Io::land`] redeems it
//! later, so the caller can work while its queued runs land — the
//! rebuild reads its next chunk meanwhile. [`Io::write_runs`] is the
//! two back to back. A round bounds latency; it is not
//! a durability promise — a crash part-way through a write round may
//! leave any subset of its runs landed (ROADMAP item 1 owns that).
//!
//! [`Io`] is the only writer to a backend, and [`Io::land`] the only
//! recorder of a write's checksums. Run formation (sorting, gap
//! bridging, adjacency) and checksum verification and repair stay with
//! the callers.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::backend::Backend;
use crate::engine::{is_engine_down, Completion, Engine, Priority};
use crate::error::StoreError;
use crate::integrity::Integrity;
use crate::store::BlockStore;

/// One per-disk transfer: the consecutive units of `disk` starting at
/// `first`, scattered into (read) or gathered from (write) buffers
/// `parts` of the list handed over with the runs. Each buffer is a
/// whole number of units. A read may bridge a hole — just a buffer
/// the caller discards; a write never does.
#[derive(Debug, Default)]
pub(crate) struct Run {
    pub(crate) disk: usize,
    pub(crate) first: usize,
    pub(crate) parts: Range<usize>,
}

/// Where one run of a routed round stands: issued inline (`None`),
/// queued on the engine (its token), or failed.
type Slot = Result<Option<Completion>, StoreError>;

/// A write round put on its way by [`Io::submit_writes`] and not yet
/// redeemed by [`Io::land`].
#[must_use = "a submitted write round must be landed"]
pub(crate) enum Writes {
    /// Issued in order on the caller's thread (the engine is off): the
    /// first `landed` runs reached the backend and the next one failed
    /// with `err`, if any.
    Issued { landed: usize, err: Option<StoreError> },
    /// Routed through the engine: one slot per run.
    Routed(Vec<Slot>),
}

impl Writes {
    /// Whether a run is still queued on the engine. With the engine
    /// off, or every run routed inline, the round landed at submit.
    pub(crate) fn in_flight(&self) -> bool {
        matches!(self, Writes::Routed(slots) if slots.iter().any(|slot| matches!(slot, Ok(Some(_)))))
    }
}

/// The dispatcher for one store operation (see the [module docs](self)).
pub(crate) struct Io<'s, B> {
    backend: &'s B,
    integrity: &'s Integrity,
    engine: Option<Arc<Engine<B>>>,
}

impl<B: Backend> BlockStore<B> {
    /// The dispatcher for one operation. The engine is looked up
    /// here, once; a stop racing the operation is absorbed run by run.
    pub(crate) fn io(&self) -> Io<'_, B> {
        Io { backend: &self.backend, integrity: &self.integrity, engine: self.engine_if_on() }
    }
}

impl<B: Backend> Io<'_, B> {
    /// Reads every run into its buffers. `landed(i, bufs)` is called,
    /// in run order, once run `i`'s bytes are in place — with the
    /// engine on, while later queued runs may still be in flight — so
    /// the caller's per-run work (checksum verification) overlaps the
    /// I/O.
    pub(crate) fn read_runs(
        &self,
        runs: &[Run],
        bufs: &mut [&mut [u8]],
        prio: Priority,
        mut landed: impl FnMut(usize, &[&mut [u8]]),
    ) -> Result<(), StoreError> {
        let us = self.backend.unit_size();
        self.dispatch(
            runs,
            bufs,
            |eng, run, bufs| {
                let bytes: usize = bufs[run.parts.clone()].iter().map(|b| b.len()).sum();
                eng.submit_read_units(run.disk, run.first, bytes / us, prio)
            },
            |run, bufs| {
                self.integrity.retrying(run.disk, || match &mut bufs[run.parts.clone()] {
                    [unit] if unit.len() == us => self.backend.read_unit(run.disk, run.first, unit),
                    [span] => self.backend.read_units(run.disk, run.first, span),
                    many => self.backend.read_units_scatter(run.disk, run.first, many),
                })
            },
            |i, bufs, payload| {
                // Inline runs read straight into their buffers.
                if let Some(payload) = payload {
                    let mut rest = payload.as_slice();
                    for buf in &mut bufs[runs[i].parts.clone()] {
                        let (head, tail) = rest.split_at(buf.len());
                        buf.copy_from_slice(head);
                        rest = tail;
                    }
                }
                landed(i, bufs);
            },
        )
    }

    /// [`Io::read_runs`] into one staging buffer: run `i`'s `parts`
    /// are the indices of the units of `units` it fills, so its bytes
    /// land in one span and `landed(i, span)` hands that span over.
    pub(crate) fn read_into(
        &self,
        runs: &[Run],
        units: &mut [u8],
        prio: Priority,
        mut landed: impl FnMut(usize, &[u8]),
    ) -> Result<(), StoreError> {
        let us = self.backend.unit_size();
        let span = |run: &Run| run.parts.start * us..run.parts.end * us;
        self.dispatch(
            runs,
            units,
            |eng, run, _| eng.submit_read_units(run.disk, run.first, run.parts.len(), prio),
            |run, units| {
                let buf = &mut units[span(run)];
                self.integrity.retrying(run.disk, || match run.parts.len() {
                    1 => self.backend.read_unit(run.disk, run.first, buf),
                    _ => self.backend.read_units(run.disk, run.first, buf),
                })
            },
            |i, units, payload| {
                let buf = &mut units[span(&runs[i])];
                if let Some(payload) = payload {
                    buf.copy_from_slice(&payload);
                }
                landed(i, buf);
            },
        )
    }

    /// Writes every run from its sources: [`Io::submit_writes`], then
    /// [`Io::land`].
    pub(crate) fn write_runs(
        &self,
        runs: &[Run],
        srcs: &[&[u8]],
        prio: Priority,
    ) -> Result<(), StoreError> {
        let round = self.submit_writes(runs, srcs, prio);
        self.land(round, runs, srcs)
    }

    /// Submits a write round and returns with its queued runs still in
    /// flight; runs issued inline (every run, with the engine off) have
    /// landed by then. The caller keeps `runs` and `srcs` unchanged
    /// until it hands the round to [`Io::land`], which issues from them
    /// any run a stopping engine swept.
    pub(crate) fn submit_writes(&self, runs: &[Run], srcs: &[&[u8]], prio: Priority) -> Writes {
        let Some(eng) = &self.engine else {
            let mut landed = 0;
            let err = (runs.iter())
                .try_for_each(|run| self.write_inline(run, srcs).map(|()| landed += 1))
                .err();
            return Writes::Issued { landed, err };
        };
        Writes::Routed(self.route(
            eng,
            runs,
            &mut (),
            |run, _| {
                eng.submit_write_gather(run.disk, run.first, srcs[run.parts.clone()].concat(), prio)
            },
            |run, _| self.write_inline(run, srcs),
        ))
    }

    /// Waits for every queued run of `round`, submitted from `runs` and
    /// `srcs`, and reports the first error once none is in flight. It
    /// records the checksum of every unit of every run that reached the
    /// backend as one batch, in run order, also when another run fails
    /// the call.
    pub(crate) fn land(
        &self,
        round: Writes,
        runs: &[Run],
        srcs: &[&[u8]],
    ) -> Result<(), StoreError> {
        let us = self.backend.unit_size();
        let run_units = |i: usize| {
            let run = &runs[i];
            let units = srcs[run.parts.clone()].iter().flat_map(|src| src.chunks_exact(us));
            units.enumerate().map(move |(t, unit)| (run.disk, run.first + t, unit))
        };
        // Landed: the first `issued` runs (the engine is off), or each
        // routed run `drain` reports.
        let mut routed = Vec::new();
        let (issued, res) = match round {
            Writes::Issued { landed, err } => (landed, err.map_or(Ok(()), Err)),
            Writes::Routed(slots) => {
                routed.reserve(slots.len());
                let inline = |run: &Run, _: &mut ()| self.write_inline(run, srcs);
                (0, self.drain(runs, slots, &mut (), inline, |i, _, _| routed.push(i)))
            }
        };
        // Their units in run order, flattened by hand: `flat_map` over
        // this chain cost a 512 B single-block write about 60 ns (9 %)
        // in a one-thread loop on a 2-vCPU AVX-512 Xeon.
        let (mut landed, mut run) = ((0..issued).chain(routed), None);
        let units = std::iter::from_fn(|| loop {
            if let Some(unit) = run.as_mut().and_then(Iterator::next) {
                return Some(unit);
            }
            run = Some(run_units(landed.next()?));
        });
        self.integrity.sums.record(units);
        res
    }

    fn write_inline(&self, run: &Run, srcs: &[&[u8]]) -> Result<(), StoreError> {
        let us = self.backend.unit_size();
        self.integrity.retrying(run.disk, || match &srcs[run.parts.clone()] {
            [unit] if unit.len() == us => self.backend.write_unit(run.disk, run.first, unit),
            [span] => self.backend.write_units(run.disk, run.first, span),
            many => self.backend.write_units_gather(run.disk, run.first, many),
        })
    }

    /// One read round over whatever buffer list `ctx` the closures
    /// share. `done(i, ctx, payload)` runs for every run `i` that
    /// succeeded, in run order, with the engine's payload or `None`
    /// when the run was issued inline.
    fn dispatch<C: ?Sized>(
        &self,
        runs: &[Run],
        ctx: &mut C,
        submit: impl Fn(&Engine<B>, &Run, &C) -> Result<Completion, StoreError>,
        inline: impl Fn(&Run, &mut C) -> Result<(), StoreError>,
        mut done: impl FnMut(usize, &mut C, Option<Vec<u8>>),
    ) -> Result<(), StoreError> {
        let Some(eng) = &self.engine else {
            return (runs.iter().enumerate())
                .try_for_each(|(i, run)| inline(run, ctx).map(|()| done(i, ctx, None)));
        };
        let slots = self.route(eng, runs, ctx, |run, ctx| submit(eng, run, ctx), &inline);
        self.drain(runs, slots, ctx, inline, done)
    }

    /// Puts every run of a round on its way through `eng`: one slot per
    /// run, `Ok(None)` for a run issued inline, `Ok(Some(token))` for
    /// one queued. Every queued run is submitted before any inline one
    /// is issued, so the queued disks work while this thread serves the
    /// fast ones.
    fn route<C: ?Sized>(
        &self,
        eng: &Engine<B>,
        runs: &[Run],
        ctx: &mut C,
        submit: impl Fn(&Run, &C) -> Result<Completion, StoreError>,
        inline: impl Fn(&Run, &mut C) -> Result<(), StoreError>,
    ) -> Vec<Slot> {
        let mut slots: Vec<Slot> =
            (runs.iter())
                .map(|run| {
                    if eng.serves_inline(run.disk) {
                        Ok(None)
                    } else {
                        submit(run, ctx).map(Some)
                    }
                })
                .collect();
        for (run, slot) in runs.iter().zip(&mut slots) {
            if matches!(slot, Ok(None)) {
                let t0 = Instant::now();
                *slot = inline(run, ctx).map(|()| None);
                eng.note_inline(run.disk, t0.elapsed().as_nanos() as u64);
            }
        }
        slots
    }

    /// Waits for every token of a routed round, in run order, and
    /// calls `done` for each run that succeeded; the first error is
    /// reported only once every token has drained.
    fn drain<C: ?Sized>(
        &self,
        runs: &[Run],
        slots: Vec<Slot>,
        ctx: &mut C,
        inline: impl Fn(&Run, &mut C) -> Result<(), StoreError>,
        mut done: impl FnMut(usize, &mut C, Option<Vec<u8>>),
    ) -> Result<(), StoreError> {
        let mut first_err = None;
        for (i, (run, slot)) in runs.iter().zip(slots).enumerate() {
            let res = match slot.and_then(|token| token.map(Completion::wait).transpose()) {
                // Refused (submit) or swept (wait) by a stopping
                // engine: the run never reached the backend.
                Err(e) if is_engine_down(&e) => inline(run, ctx).map(|()| None),
                res => res,
            };
            match res {
                Ok(payload) => done(i, ctx, payload),
                Err(e) => _ = first_err.get_or_insert(e),
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::engine::{EngineConfig, EngineDiskSnapshot};
    use crate::support::faulty::{FaultConfig, FaultyBackend};
    use std::time::Duration;

    const US: usize = 16;

    /// A memory array whose every call first sleeps `stall_ms`: a
    /// device slower than any engine hand-off.
    fn stalling(disks: usize, stall_ms: u64) -> Arc<FaultyBackend<MemBackend>> {
        let stall =
            FaultConfig { slow_rate: 1.0, slow_us: stall_ms * 1_000, ..FaultConfig::quiet(1) };
        Arc::new(FaultyBackend::new(MemBackend::new(disks, 8, US), stall))
    }

    /// Writes three runs (one unit, a three-source gather, one
    /// two-unit source) and checks every unit's sum was recorded, then
    /// reads them back as a unit, a scatter with a discarded hole and a
    /// span, and checks every buffer got its own bytes.
    fn roundtrip<B: Backend>(io: &Io<'_, B>) {
        let unit = |tag: u8| vec![tag; US];
        let (a, b, c, d) = (unit(1), unit(2), unit(3), [unit(4), unit(5)].concat());
        let runs = [
            Run { disk: 0, first: 3, parts: 0..1 },
            Run { disk: 1, first: 0, parts: 1..4 },
            Run { disk: 2, first: 6, parts: 4..5 },
        ];
        (0..3).for_each(|disk| io.integrity.sums.clear_disk(disk));
        io.write_runs(&runs, &[&a, &b, &c, &a, &d], Priority::Client).unwrap();
        let units = [
            (0, 3, &a[..]),
            (1, 0, &b),
            (1, 1, &c),
            (1, 2, &a),
            (2, 6, &d[..US]),
            (2, 7, &d[US..]),
        ];
        for (disk, offset, unit) in units {
            let sums = &io.integrity.sums;
            assert!(sums.recorded(disk, offset), "unit ({disk}, {offset}) has no sum");
            assert!(
                sums.verify([(disk, offset, unit)], |_| {}),
                "unit ({disk}, {offset}) has another's sum"
            );
        }
        let mut landed = Vec::new();
        let mut got = [unit(0), unit(0), unit(0), unit(0), vec![0; 2 * US]];
        let mut bufs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
        io.read_runs(&runs, &mut bufs, Priority::Maintenance, |i, bufs| {
            landed.push(i);
            assert_eq!(bufs[runs[i].parts.start][0], [1, 2, 4][i], "run {i} is in place when told");
        })
        .unwrap();
        assert_eq!(landed, [0, 1, 2], "every run lands, in run order");
        // The first two runs again, into one staging buffer: run 1's
        // three units follow run 0's one.
        let mut staged = vec![0; 4 * US];
        io.read_into(&runs[..2], &mut staged, Priority::Client, |i, span| {
            assert_eq!((span.len(), span[0]), ([US, 3 * US][i], [1, 2][i]), "run {i}'s span");
        })
        .unwrap();
        assert_eq!(staged, [&a[..], &b, &c, &a].concat());
        assert_eq!(got, [a.clone(), b, c, a, d]);
    }

    /// Inline, queued (the device stalls 2 ms a call, far above the
    /// hand-off, so every run queues) and refused by a stopped engine.
    #[test]
    fn runs_land_in_their_own_buffers_on_every_path() {
        let backend = stalling(3, 2);
        let integrity = Arc::new(Integrity::new(3, 8));
        let mut io = Io { backend: &*backend, integrity: &integrity, engine: None };
        roundtrip(&io);
        let calls_inline: u64 =
            (0..3).map(|d| backend.read_calls(d) + backend.write_calls(d)).sum();
        backend.reset_counters();

        let eng = Engine::start(backend.clone(), integrity.clone(), EngineConfig::default());
        io.engine = Some(eng.clone());
        roundtrip(&io);
        let snap = eng.snapshot();
        assert_eq!((snap.client_submitted, snap.maintenance_submitted), (5, 3));
        assert_eq!(snap.completed, 8, "every token drained");
        let calls_engine: u64 =
            (0..3).map(|d| backend.read_calls(d) + backend.write_calls(d)).sum();
        assert_eq!(calls_engine, calls_inline, "one backend call per run in both modes");

        // A stopped engine refuses every run: each is issued inline
        // and the caller cannot tell.
        eng.stop();
        roundtrip(&io);
        assert_eq!(eng.snapshot().completed, 8, "nothing ran on the stopped engine");
    }

    /// A write round one of whose runs fails records the sums of
    /// exactly the runs that reached the medium: with the engine off
    /// the runs before the failure, with it on (every run queued) the
    /// two that did not fail, whichever fails first.
    #[test]
    fn a_failed_write_round_records_exactly_the_runs_that_landed() {
        for engine in [false, true] {
            let backend = stalling(3, 1);
            let integrity = Arc::new(Integrity::new(3, 8));
            let eng = engine.then(|| {
                Engine::start(backend.clone(), integrity.clone(), EngineConfig::default())
            });
            let io = Io { backend: &*backend, integrity: &integrity, engine: eng.clone() };
            let (unit, span) = (vec![1; US], vec![2; 3 * US]);
            let srcs: [&[u8]; 3] = [&unit, &span, &unit];
            let runs = [
                Run { disk: 0, first: 1, parts: 0..1 },
                Run { disk: 1, first: 2, parts: 1..2 },
                Run { disk: 2, first: 4, parts: 2..3 },
            ];
            backend.fail_write_after(1);
            assert!(io.write_runs(&runs, &srcs, Priority::Client).is_err());
            let mut landed = 0;
            for run in &runs {
                let src = srcs[run.parts.start];
                let mut got = vec![0; src.len()];
                backend.inner().read_units(run.disk, run.first, &mut got).unwrap();
                landed += usize::from(got == src);
                for (t, unit) in src.chunks_exact(US).enumerate() {
                    let offset = run.first + t;
                    let sums = &integrity.sums;
                    assert_eq!(sums.recorded(run.disk, offset), got == src, "engine {engine}");
                    assert!(sums.verify([(run.disk, offset, unit)], |_| {}), "engine {engine}");
                }
            }
            assert_eq!(landed, if engine { 2 } else { 1 }, "engine {engine}");
            if let Some(eng) = eng {
                eng.stop();
            }
        }
    }

    /// A 12-unit write round of 64-byte units — a three-unit span, a
    /// three-source gather, a two-unit span and a four-unit span, so
    /// its sums hash as a group of eight and one of four — records every
    /// unit that landed with exactly the sum per-unit `xxh64` gives it,
    /// and nothing else: whole, and with its third write call failing
    /// (engine off: the two runs before it land; engine on, every run
    /// queued: the three others).
    #[test]
    fn a_twelve_unit_round_records_per_unit_sums_of_what_landed() {
        use crate::integrity::{xxh64, ChecksumTable};
        const UNIT: usize = 64;
        for (engine, fail) in [(false, false), (false, true), (true, false), (true, true)] {
            let stall = FaultConfig { slow_rate: 1.0, slow_us: 1_000, ..FaultConfig::quiet(1) };
            let backend = Arc::new(FaultyBackend::new(MemBackend::new(4, 8, UNIT), stall));
            let integrity = Arc::new(Integrity::new(4, 8));
            let eng = engine.then(|| {
                Engine::start(backend.clone(), integrity.clone(), EngineConfig::default())
            });
            let io = Io { backend: &*backend, integrity: &integrity, engine: eng.clone() };
            let bytes: Vec<u8> = (0..12 * UNIT).map(|i| (i * 7 + i / UNIT) as u8).collect();
            let units = |r: Range<usize>| &bytes[r.start * UNIT..r.end * UNIT];
            let srcs =
                [units(0..3), units(3..4), units(4..5), units(5..6), units(6..8), units(8..12)];
            let runs = [
                Run { disk: 0, first: 1, parts: 0..1 },
                Run { disk: 1, first: 4, parts: 1..4 },
                Run { disk: 2, first: 0, parts: 4..5 },
                Run { disk: 3, first: 3, parts: 5..6 },
            ];
            if fail {
                backend.fail_write_after(2);
            }
            assert_eq!(io.write_runs(&runs, &srcs, Priority::Client).is_err(), fail);
            let (mut want, mut landed) = (Vec::new(), 0);
            for run in &runs {
                let src = srcs[run.parts.clone()].concat();
                let mut got = vec![0; src.len()];
                backend.inner().read_units(run.disk, run.first, &mut got).unwrap();
                if got == src {
                    landed += 1;
                    for (t, unit) in src.chunks_exact(UNIT).enumerate() {
                        let sum = ChecksumTable::encode(xxh64(ChecksumTable::SEED, unit));
                        want.push((run.disk, run.first + t, sum));
                    }
                }
            }
            let ctx = format!("engine {engine}, failing {fail}");
            assert_eq!(landed, [4, 2, 4, 3][usize::from(fail) + 2 * usize::from(engine)], "{ctx}");
            let mut got = Vec::new();
            integrity.sums.drain_dirty(|disk, offset, sum| got.push((disk, offset, sum)));
            got.sort_unstable();
            assert_eq!(got, want, "{ctx}: every landed unit, and only those");
            if let Some(eng) = eng {
                eng.stop();
            }
        }
    }

    /// The route tests seed a one-second hand-off: a disk timed at half
    /// of it is fast, one timed at ten times it is slow, and neither
    /// changes side from what a few memory calls add to its EWMA.
    const HANDOFF_NS: u64 = 1_000_000_000;
    const FAST_NS: u64 = HANDOFF_NS / 2;
    const SLOW_NS: u64 = 10 * HANDOFF_NS;

    /// Issues `calls` one-unit writes to a one-disk array whose disk
    /// starts at `ewma_ns`, and returns that disk's engine gauges.
    fn route_of(ewma_ns: u64, calls: u64) -> EngineDiskSnapshot {
        let backend = Arc::new(MemBackend::new(1, 8, US));
        let integrity = Arc::new(Integrity::new(1, 8));
        let eng = Engine::seeded(backend.clone(), integrity.clone(), HANDOFF_NS, &[ewma_ns]);
        let io = Io { backend: &*backend, integrity: &integrity, engine: Some(eng.clone()) };
        let run = [Run { disk: 0, first: 2, parts: 0..1 }];
        for _ in 0..calls {
            io.write_runs(&run, &[&[7; US]], Priority::Client).unwrap();
        }
        assert_eq!(backend.write_calls(0), calls, "one backend call per run on either route");
        eng.snapshot().disks.remove(0)
    }

    #[test]
    fn a_fast_disk_is_served_inline() {
        let d = route_of(FAST_NS, 4);
        assert_eq!((d.inline, d.submitted, d.completed), (4, 0, 0));
        assert!(d.ewma_service_us < FAST_NS / 1_000, "inline calls feed the disk's EWMA");
    }

    #[test]
    fn a_slow_disk_queues() {
        let d = route_of(SLOW_NS, 4);
        assert_eq!((d.inline, d.submitted, d.completed), (0, 4, 4));
        assert!(d.ewma_service_us < SLOW_NS / 1_000, "queued calls feed the disk's EWMA");
    }

    /// A disk with no sample yet queues; its first sample (a memory
    /// call, far below the hand-off) then sends it inline.
    #[test]
    fn an_untimed_disk_queues_until_its_first_sample() {
        let d = route_of(0, 1);
        assert_eq!((d.inline, d.submitted), (0, 1));
        let d = route_of(0, 3);
        assert_eq!((d.inline, d.submitted), (2, 1));
    }

    /// A batch whose fast run comes first: the slow run is submitted
    /// before the fast one is issued here, so the two 50 ms stalls
    /// overlap (issued in run order they could not: ≥ 100 ms), and the
    /// runs still land in run order.
    #[test]
    fn a_mixed_batch_queues_its_slow_runs_before_issuing_its_fast_ones() {
        const STALL_MS: u64 = 50;
        let backend = stalling(2, STALL_MS);
        let integrity = Arc::new(Integrity::new(2, 8));
        let eng =
            Engine::seeded(backend.clone(), integrity.clone(), HANDOFF_NS, &[SLOW_NS, FAST_NS]);
        let io = Io { backend: &*backend, integrity: &integrity, engine: Some(eng.clone()) };
        let runs = [Run { disk: 1, first: 0, parts: 0..1 }, Run { disk: 0, first: 0, parts: 1..2 }];
        let mut got = [vec![1; US], vec![1; US]];
        let mut bufs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
        let mut landed = Vec::new();
        let t0 = Instant::now();
        io.read_runs(&runs, &mut bufs, Priority::Client, |i, bufs| {
            assert_eq!(bufs[i], [0; US], "run {i} is in place when told");
            landed.push(i);
        })
        .unwrap();
        let took = t0.elapsed();
        assert_eq!(landed, [0, 1], "the runs land in run order");
        let snap = eng.snapshot();
        assert_eq!((snap.disks[0].submitted, snap.disks[0].inline), (1, 0), "slow disk queued");
        assert_eq!((snap.disks[1].submitted, snap.disks[1].inline), (0, 1), "fast disk inline");
        assert!(took < Duration::from_millis(2 * STALL_MS), "{took:?}: the stalls did not overlap");
    }
}
