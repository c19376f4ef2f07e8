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
//! reach the media is unspecified. A round bounds latency; it is not
//! a durability promise — a crash part-way through a write round may
//! leave any subset of its runs landed (ROADMAP item 1 owns that).
//!
//! Run formation (sorting, gap bridging, adjacency) and checksum
//! verification, repair and recording stay with the callers.

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

    /// Writes every run from its sources. `landed(i)` is called once
    /// for each run whose write reached the backend — also when the
    /// call as a whole fails — so the caller records exactly those
    /// checksums.
    pub(crate) fn write_runs(
        &self,
        runs: &[Run],
        srcs: &[&[u8]],
        prio: Priority,
        mut landed: impl FnMut(usize),
    ) -> Result<(), StoreError> {
        let us = self.backend.unit_size();
        self.dispatch(
            runs,
            &mut (),
            |eng, run, _| {
                eng.submit_write_gather(run.disk, run.first, srcs[run.parts.clone()].concat(), prio)
            },
            |run, _| {
                self.integrity.retrying(run.disk, || match &srcs[run.parts.clone()] {
                    [unit] if unit.len() == us => {
                        self.backend.write_unit(run.disk, run.first, unit)
                    }
                    many => self.backend.write_units_gather(run.disk, run.first, many),
                })
            },
            |i, _, _| landed(i),
        )
    }

    /// The one route / submit / drain loop, over whatever buffer list
    /// `ctx` the closures share. `done(i, ctx, payload)` runs for
    /// every run `i` that succeeded, in run order, with the engine's
    /// payload or `None` when the run was issued inline.
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
        // `Ok(None)` marks a run kept on this thread; every other run is
        // submitted before any of those is issued, so the queued disks
        // work while this thread serves the fast ones.
        let mut routed: Vec<_> = (runs.iter())
            .map(|run| {
                if eng.serves_inline(run.disk) {
                    Ok(None)
                } else {
                    submit(eng, run, ctx).map(Some)
                }
            })
            .collect();
        for (run, slot) in runs.iter().zip(&mut routed) {
            if matches!(slot, Ok(None)) {
                let t0 = Instant::now();
                *slot = inline(run, ctx).map(|()| None);
                eng.note_inline(run.disk, t0.elapsed().as_nanos() as u64);
            }
        }
        let mut first_err = None;
        for (i, (run, slot)) in runs.iter().zip(routed).enumerate() {
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
    use crate::backend::{FaultConfig, FaultyBackend, MemBackend};
    use crate::engine::{EngineConfig, EngineDiskSnapshot};
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
    /// two-unit source), reads them back as a unit, a scatter with a
    /// discarded hole and a span, and checks every buffer got its own
    /// bytes.
    fn roundtrip<B: Backend>(io: &Io<'_, B>) {
        let unit = |tag: u8| vec![tag; US];
        let (a, b, c, d) = (unit(1), unit(2), unit(3), [unit(4), unit(5)].concat());
        let runs = [
            Run { disk: 0, first: 3, parts: 0..1 },
            Run { disk: 1, first: 0, parts: 1..4 },
            Run { disk: 2, first: 6, parts: 4..5 },
        ];
        let mut landed = Vec::new();
        io.write_runs(&runs, &[&a, &b, &c, &a, &d], Priority::Client, |i| landed.push(i)).unwrap();
        assert_eq!(landed, [0, 1, 2], "every run lands, in submission order");
        let mut got = [unit(0), unit(0), unit(0), unit(0), vec![0; 2 * US]];
        let mut bufs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
        io.read_runs(&runs, &mut bufs, Priority::Maintenance, |i, bufs| {
            landed.push(i);
            assert_eq!(bufs[runs[i].parts.start][0], [1, 2, 4][i], "run {i} is in place when told");
        })
        .unwrap();
        assert_eq!(landed, [0, 1, 2, 0, 1, 2]);
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
            io.write_runs(&run, &[&[7; US]], Priority::Client, |_| {}).unwrap();
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
