//! Workload traces: a concrete, replayable sequence of block-level
//! operations shared between the event simulator and the byte-level
//! block store (`pdl-store`).
//!
//! The simulator samples its accesses on the fly from a [`Workload`];
//! this module materializes the same sampling process into a [`Trace`]
//! so the identical access pattern can be replayed against real bytes
//! (and, being plain data, archived or diffed between runs).

use crate::model::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a trace: a block-level access (addresses and
/// lengths in logical data blocks, the simulator's "units", not
/// bytes) or a fault event (disk failure, transient recovery, rebuild
/// onto a spare) — so a trace can script an entire failure/recovery
/// scenario, not just its IO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Read `len` blocks starting at logical block `addr`.
    Read {
        /// Starting logical block address.
        addr: usize,
        /// Number of blocks.
        len: usize,
    },
    /// Write `len` blocks starting at logical block `addr`.
    Write {
        /// Starting logical block address.
        addr: usize,
        /// Number of blocks.
        len: usize,
    },
    /// Fail a logical disk (subsequent IO runs degraded).
    Fail {
        /// The logical disk to fail.
        disk: usize,
    },
    /// Clear a *transient* failure: the disk returns with its contents
    /// intact (no rebuild).
    Restore {
        /// The logical disk to restore.
        disk: usize,
    },
    /// Rebuild the lowest-numbered failed disk onto a spare.
    Rebuild {
        /// Physical disk to rebuild onto.
        spare: usize,
    },
}

/// A replayable access pattern over a logical block space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Operations in arrival order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Materializes `count` operations of `workload` over a space of
    /// `blocks` logical blocks, using the same sampling primitives as
    /// the event simulator (address distribution, size range,
    /// read/write mix, alignment). Deterministic per seed.
    pub fn from_workload(workload: &Workload, blocks: usize, count: usize, seed: u64) -> Trace {
        assert!(blocks > 0, "trace needs a nonempty block space");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let len = workload.request_size(&mut rng).min(blocks);
            let mut addr = workload.addresses.sample(blocks, &mut rng).min(blocks - len);
            if workload.aligned && len > 0 {
                addr = addr / len * len;
            }
            ops.push(if rng.random_bool(workload.read_fraction) {
                TraceOp::Read { addr, len }
            } else {
                TraceOp::Write { addr, len }
            });
        }
        Trace { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AddressDist;

    /// `(addr, len)` of a block op.
    fn span(op: &TraceOp) -> (usize, usize) {
        match *op {
            TraceOp::Read { addr, len } | TraceOp::Write { addr, len } => (addr, len),
            _ => panic!("the generator emits block ops only: {op:?}"),
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = Workload::default();
        let a = Trace::from_workload(&w, 100, 50, 7);
        let b = Trace::from_workload(&w, 100, 50, 7);
        assert_eq!(a, b);
        let c = Trace::from_workload(&w, 100, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn ops_stay_in_bounds() {
        let w = Workload {
            request_units: (1, 9),
            addresses: AddressDist::HotCold { hot_access: 0.8, hot_space: 0.2 },
            ..Workload::default()
        };
        let t = Trace::from_workload(&w, 64, 500, 3);
        assert_eq!(t.ops.len(), 500);
        for op in &t.ops {
            let (addr, len) = span(op);
            assert!(len > 0);
            assert!(addr + len <= 64, "op {op:?} out of bounds");
        }
    }

    #[test]
    fn read_fraction_respected() {
        let w = Workload { read_fraction: 0.75, ..Workload::default() };
        let t = Trace::from_workload(&w, 100, 4000, 11);
        let writes = t.ops.iter().filter(|o| matches!(o, TraceOp::Write { .. })).count();
        assert!((800..1200).contains(&writes), "writes {writes}");
    }

    #[test]
    fn aligned_workload_aligns() {
        let w = Workload { request_units: (4, 4), aligned: true, ..Workload::default() };
        let t = Trace::from_workload(&w, 64, 200, 5);
        for op in &t.ops {
            let (addr, len) = span(op);
            assert_eq!(addr % 4, 0);
            assert_eq!(len, 4);
        }
    }
}
