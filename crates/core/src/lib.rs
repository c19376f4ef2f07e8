//! # pdl-core
//!
//! Parity-declustered data layouts for disk arrays — the primary
//! contribution of Schwabe & Sutherland (SPAA'94 / JCSS'96), built on
//! the `pdl-algebra`, `pdl-design`, and `pdl-flow` substrates:
//!
//! * the [`Layout`] model with Conditions 1–4 validation and metrics
//!   ([`metrics`]);
//! * classic constructions: RAID5 full-width stripes (Fig. 1) and the
//!   Holland–Gibson k-copy BIBD layout (Fig. 3) in [`hg`];
//! * **ring-based layouts** — single-copy, perfectly balanced
//!   ([`ring_layout`]), with Theorem 8/9 disk removal;
//! * the **stairway transformation** growing layouts to nearby array
//!   sizes with bounded imbalance (Theorems 10–12, [`stairway`]);
//! * **flow-based parity assignment** achieving the optimal ±1 parity
//!   balance on any layout (Theorems 13–14, Corollaries 15–17,
//!   [`parity_assign`]);
//! * the Condition-4 address map ([`StripeMap`] in [`mapping`]: one
//!   table for single- and double-parity stripes, read by the
//!   simulator, the Condition 5–6 scores and the block store alike),
//!   feasibility sweeps ([`feasibility`]), and the Section-5
//!   extensions: distributed sparing ([`sparing`]), extendible layouts
//!   ([`extendible`]), and randomized baselines ([`randomized`]).
//!
//! ```
//! use pdl_core::{RingLayout, QualityReport};
//!
//! // A perfectly balanced declustered layout for 9 disks, stripes of 4.
//! let rl = RingLayout::for_v_k(9, 4);
//! let q = QualityReport::measure(rl.layout());
//! assert!(q.parity_balanced());
//! assert!(q.reconstruction_balanced());
//! assert_eq!(rl.layout().size(), 4 * 8); // k(v-1) units per disk
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod designer;
pub mod double_parity;
pub mod extendible;
pub mod feasibility;
pub mod hg;
pub mod layout;
pub mod mapping;
pub mod metrics;
pub mod parallelism;
pub mod parity_assign;
pub mod randomized;
pub mod reshape;
pub mod ring_layout;
pub mod sparing;
pub mod stairway;

pub use codec::{from_json, to_json, CodecError, LayoutSpec};
pub use designer::{best_bibd, build_layout};
pub use double_parity::DoubleParityLayout;
pub use extendible::{extend_via_stairway, relayout_cost, ExtensionReport};
pub use feasibility::{
    best_bibd_params, count_feasible, layout_size, stairway_params_exist, stairway_smallest_source,
    stairway_source_for, Method,
};
pub use hg::{holland_gibson_layout, raid5_layout, single_copy_layout};
pub use layout::{
    Layout, LayoutError, Stripe, StripeUnit, UnitRef, UnitRole, DEFAULT_FEASIBILITY_LIMIT,
};
pub use mapping::{AddrRef, StripeMap};
pub use metrics::{
    crossing_matrix, parity_counts, parity_overhead_range, parity_overheads,
    reconstruction_workload_range, reconstruction_workloads, QualityReport,
};
pub use parallelism::{large_write_score, parallelism_score, parallelism_worst, ParallelismReport};
pub use parity_assign::{
    copies_for_perfect_parity, minimal_balanced_layout, AssignError, StripePartition,
};
pub use randomized::{random_layout, random_layout_uniform};
pub use reshape::{plan_add, plan_remove, ReshapeMethod, ReshapePlan, ReshapePlanError};
pub use ring_layout::{max_safe_removals, RemovalError, RingLayout};
pub use sparing::{RebuildPlan, SparedLayout, SparedRole};
pub use stairway::{stairway_layout, StairwayError, StairwayParams};
