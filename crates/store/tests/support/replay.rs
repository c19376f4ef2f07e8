//! Trace replay: a simulator [`Trace`] — block-granular ops plus
//! fail/restore/rebuild fault events — run against a [`BlockStore`],
//! so simulator scenarios exercise real bytes.

use super::fill_pattern;
use pdl_sim::{Trace, TraceOp};
use pdl_store::{Backend, BlockStore, Rebuilder, StoreError};

/// Outcome counters from replaying a [`Trace`] against a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Read operations executed.
    pub reads: usize,
    /// Write operations executed.
    pub writes: usize,
    /// Blocks transferred by reads.
    pub blocks_read: usize,
    /// Blocks transferred by writes.
    pub blocks_written: usize,
    /// Disks failed by `Fail` events.
    pub disks_failed: usize,
    /// Disks restored by `Restore` events.
    pub disks_restored: usize,
    /// Rebuilds completed by `Rebuild` events.
    pub rebuilds: usize,
}

/// Replays `trace` against `store`. Write payloads are
/// [`fill_pattern`] of `(addr, op index)`, so two replays produce
/// identical on-disk content.
pub fn replay<B: Backend>(store: &BlockStore<B>, trace: &Trace) -> Result<ReplayStats, StoreError> {
    let us = store.unit_size();
    let mut stats = ReplayStats::default();
    let mut buf = vec![0u8; us];
    for (i, op) in trace.ops.iter().enumerate() {
        match *op {
            TraceOp::Read { addr, len } => {
                buf.resize(len * us, 0);
                store.read_blocks(addr, &mut buf)?;
                stats.reads += 1;
                stats.blocks_read += len;
            }
            TraceOp::Write { addr, len } => {
                let mut data = vec![0u8; len * us];
                for (j, chunk) in data.chunks_exact_mut(us).enumerate() {
                    fill_pattern(addr + j, i as u64, chunk);
                }
                store.write_blocks(addr, &data)?;
                stats.writes += 1;
                stats.blocks_written += len;
            }
            TraceOp::Fail { disk } => {
                store.fail_disk(disk)?;
                stats.disks_failed += 1;
            }
            TraceOp::Restore { disk } => {
                store.restore_disk(disk)?;
                stats.disks_restored += 1;
            }
            TraceOp::Rebuild { spare } => {
                Rebuilder::default().rebuild(store, spare)?;
                stats.rebuilds += 1;
            }
        }
    }
    Ok(stats)
}
