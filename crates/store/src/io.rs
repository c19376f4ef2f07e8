//! # The store's one I/O dispatch point
//!
//! Every multi-run transfer the store makes — a client batch's
//! per-disk runs, a degraded stripe's survivors, a rebuild or reshape
//! chunk's prefetch band, a scrub stripe, a write plan's gathers —
//! is handed to [`Io`] as a list of per-disk [`Run`]s over
//! caller-owned buffers. [`Io`] alone knows whether an async
//! [`Engine`] is running:
//!
//! * **engine off** — each run is one backend call, issued in order
//!   under [`Integrity::retrying`] straight into (or out of) the
//!   caller's slices: no staging copy, no allocation;
//! * **engine on** — every run is submitted before any is waited on,
//!   so all touched disks work at once; every token is then drained
//!   (read payloads copied into the caller's buffers as they land)
//!   before the first error is reported — none is abandoned in flight.
//!
//! The mode switch is absorbed here too: a run the engine refuses or
//! sweeps because it is stopping never reached the backend
//! ([`is_engine_down`]) and is issued inline instead. With the full
//! drain, `start_engine` / `stop_engine` under live traffic can
//! neither fail a call nor let a write land after its call returned.
//!
//! Run formation (sorting, gap bridging, adjacency) and checksum
//! verification, repair and recording stay with the callers.

use std::ops::Range;
use std::sync::Arc;

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
#[derive(Debug)]
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
    /// Reads every run into its buffers. `landed(i, bufs)` is called
    /// as soon as run `i`'s bytes are in place — with the engine on,
    /// while later runs are still in flight — so the caller's
    /// per-run work (checksum verification) overlaps the I/O.
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

    /// The one submit-all / drain-all loop, over whatever buffer list
    /// `ctx` the closures share. `done(i, ctx, payload)` runs for
    /// every run `i` that succeeded, with the engine's payload or
    /// `None` when the run was issued inline.
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
        let tokens: Vec<_> = runs.iter().map(|run| submit(eng, run, ctx)).collect();
        let mut first_err = None;
        for (i, (run, token)) in runs.iter().zip(tokens).enumerate() {
            let res = match token.and_then(Completion::wait) {
                Ok(payload) => Ok(Some(payload)),
                // Refused (submit) or swept (wait) by a stopping
                // engine: the run never reached the backend.
                Err(e) if is_engine_down(&e) => inline(run, ctx).map(|()| None),
                Err(e) => Err(e),
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
    use crate::engine::EngineConfig;

    const US: usize = 16;

    /// Writes three runs (one unit, a three-source gather, one
    /// two-unit source), reads them back as a unit, a scatter with a
    /// discarded hole and a span, and checks every buffer got its own
    /// bytes.
    fn roundtrip(io: &Io<'_, MemBackend>) {
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
        assert_eq!(got, [a.clone(), b, c, a, d]);
    }

    #[test]
    fn runs_land_in_their_own_buffers_on_every_path() {
        let backend = Arc::new(MemBackend::new(3, 8, US));
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
        assert_eq!((snap.client_submitted, snap.maintenance_submitted), (3, 3));
        assert_eq!(snap.completed, 6, "every token drained");
        let calls_engine: u64 =
            (0..3).map(|d| backend.read_calls(d) + backend.write_calls(d)).sum();
        assert_eq!(calls_engine, calls_inline, "one backend call per run in both modes");

        // A stopped engine refuses every run: each is issued inline
        // and the caller cannot tell.
        eng.stop();
        roundtrip(&io);
        assert_eq!(eng.snapshot().completed, 6, "nothing ran on the stopped engine");
    }
}
