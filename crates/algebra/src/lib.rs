//! # pdl-algebra
//!
//! Algebraic substrate for parity-declustered layout construction
//! (Schwabe & Sutherland, SPAA'94 / JCSS'96, Section 2): elementary
//! number theory, polynomials over prime fields, table-driven finite
//! fields `GF(p^m)`, and finite commutative rings with unit (including
//! the product-of-fields rings of Lemma 3).
//!
//! Ring and field elements are plain `usize` indices in `0..order`,
//! index 0 always the additive identity — designs and layouts built on
//! top stay table-friendly (Condition 4 of the paper: the logical→
//! physical map must be a small lookup table plus O(1) arithmetic).
//!
//! ```
//! use pdl_algebra::{FiniteField, Ring};
//! let f = FiniteField::new(9); // GF(3^2)
//! let a = 5;
//! let inv = Ring::inv(&f, a).unwrap();
//! assert_eq!(Ring::mul(&f, a, inv), 1);
//! ```

#![warn(missing_docs)]
// The vector loops in `gf256::kernel` and `xxh64::kernel` are this
// crate's only raw-pointer code; each block there must say why it is
// sound, and CI's clippy step enforces it.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod gf;
pub mod gf256;
pub mod nt;
pub mod poly;
pub mod ring;
pub mod xxh64;

pub use gf::FiniteField;
pub use poly::Poly;
pub use ring::{FiniteRing, ProductRing, Ring, Zn};
