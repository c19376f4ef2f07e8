//! # pdl-core
//!
//! Parity-declustered data layouts for disk arrays — the primary
//! contribution of Schwabe & Sutherland (SPAA'94 / JCSS'96), built on
//! the `pdl-algebra`, `pdl-design`, and `pdl-flow` substrates:
//!
//! * the [`Layout`] model with Conditions 1–4 validation and metrics
//!   ([`QualityReport`]);
//! * classic constructions: RAID5 full-width stripes (Fig. 1,
//!   [`raid5_layout`]) and the Holland–Gibson k-copy BIBD layout
//!   (Fig. 3, [`holland_gibson_layout`]);
//! * **ring-based layouts** — single-copy, perfectly balanced
//!   ([`RingLayout`]), with Theorem 8/9 disk removal;
//! * the **stairway transformation** growing layouts to nearby array
//!   sizes with bounded imbalance (Theorems 10–12, [`stairway_layout`]);
//! * **flow-based parity assignment** achieving the optimal ±1 parity
//!   balance on any layout (Theorems 13–14, Corollaries 15–17,
//!   [`StripePartition`]);
//! * the Condition-4 address map ([`StripeMap`]: one table for single-
//!   and double-parity stripes, read by the simulator, the Condition
//!   5–6 scores and the block store alike), feasibility sweeps
//!   ([`count_feasible`]), and the Section-5 extensions: distributed
//!   sparing ([`SparedLayout`]), extendible layouts
//!   ([`extend_via_stairway`]), and randomized baselines
//!   ([`random_layout`]).
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

mod codec;
mod designer;
mod double_parity;
mod extendible;
mod feasibility;
mod hg;
mod layout;
mod mapping;
mod metrics;
mod parallelism;
mod parity_assign;
mod randomized;
mod reshape;
mod ring_layout;
mod sparing;
mod stairway;

pub use codec::{from_json, to_json, CodecError, LayoutSpec};
pub use designer::build_layout;
pub use double_parity::DoubleParityLayout;
pub use extendible::{extend_via_stairway, relayout_cost, ExtensionReport};
pub use feasibility::{
    count_feasible, layout_size, stairway_params_exist, stairway_source_for, Method,
};
pub use hg::{holland_gibson_layout, raid5_layout, single_copy_layout};
pub use layout::{Layout, LayoutError, Stripe, StripeUnit, UnitRef, DEFAULT_FEASIBILITY_LIMIT};
pub use mapping::{AddrRef, StripeMap};
pub use metrics::{crossing_matrix, parity_counts, reconstruction_workloads, QualityReport};
pub use parallelism::{parallelism_worst, ParallelismReport};
pub use parity_assign::{
    copies_for_perfect_parity, minimal_balanced_layout, AssignError, StripePartition,
};
pub use randomized::random_layout;
pub use reshape::{plan_add, plan_remove, ReshapeMethod, ReshapePlan, ReshapePlanError};
pub use ring_layout::{max_safe_removals, RemovalError, RingLayout};
pub use sparing::{RebuildPlan, SparedLayout};
pub use stairway::{stairway_layout, StairwayError, StairwayParams};
