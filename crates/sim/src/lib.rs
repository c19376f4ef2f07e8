//! # pdl-sim
//!
//! Event-driven disk-array load and reconstruction simulator — the
//! stand-in for the Holland & Gibson simulation software the paper's
//! Section 5 planned to use. Simulates seeded Poisson workloads over any
//! [`pdl_core::Layout`] in normal, degraded, and rebuilding modes, with
//! dedicated-spare or distributed-sparing reconstruction, plus analytic
//! (queue-free) predictors for cross-checking.
//!
//! ```
//! use pdl_core::RingLayout;
//! use pdl_sim::{simulate_rebuild, RebuildTarget, rebuild_reads_match_layout};
//!
//! let rl = RingLayout::for_v_k(7, 3);
//! let res = simulate_rebuild(rl.layout(), 0, RebuildTarget::ReadOnly, 42);
//! assert!(res.rebuild_finished_at.is_some());
//! assert!(rebuild_reads_match_layout(rl.layout(), 0, &res));
//! ```

#![warn(missing_docs)]

mod analytic;
mod engine;
mod model;
mod trace;
mod vulnerability;

pub use analytic::write_bottleneck_ratio;
pub use engine::{rebuild_reads_match_layout, simulate, simulate_rebuild, SimResult};
pub use model::{
    AddressDist, DiskModel, RebuildPolicy, RebuildTarget, Scheduling, SeekModel, SimConfig,
    StopCondition, Workload,
};
pub use trace::{Trace, TraceOp};
pub use vulnerability::{worst_second_failure, DataLossReport};
