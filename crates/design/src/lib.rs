//! # pdl-design
//!
//! Balanced incomplete block designs for parity declustering, implementing
//! Section 2 of Schwabe & Sutherland: ring-based block designs (Theorem 1),
//! the exact existence characterization `k ≤ M(v)` (Theorem 2), redundancy
//! reduction (Section 2.2), the symmetric-generator constructions
//! (Theorems 4 & 5), the optimally small subfield-generator designs
//! (Theorem 6), and the universal size lower bound (Theorem 7).
//!
//! ```
//! use pdl_design::{RingDesign, theorem6_design, bibd_min_blocks};
//!
//! // Full ring design on GF(9) with k = 3: b = v(v-1) = 72 blocks.
//! let d = RingDesign::for_v_k(9, 3);
//! assert_eq!(d.b(), 72);
//!
//! // Theorem 6 collapses it to the optimally small λ=1 design: b = 12.
//! let c = theorem6_design(9, 3);
//! assert_eq!(c.params.b as u64, bibd_min_blocks(9, 3));
//! ```

#![warn(missing_docs)]

mod block;
mod complete;
mod difference;
mod reduce;
mod ring_design;
mod steiner;
mod subfield;
mod symmetric;

pub use block::{BibdParams, BibdViolation, BlockDesign};
pub use complete::{binomial, complete_design};
pub use reduce::reduce_by_factor;
pub use ring_design::{ring_design_exists, RingDesign};
pub use steiner::{steiner_triple_system, sts_exists};
pub use subfield::{bibd_min_blocks, log_exact, theorem6_design};
pub use symmetric::{theorem4_design, theorem5_design, ConstructedBibd};
