//! # pdl-flow
//!
//! Network-flow substrate for the Section 4 parity-distribution method of
//! Schwabe & Sutherland: Dinic maximum flow, maximum flow with per-edge
//! lower bounds (the paper's parity-assignment graphs bound disk→sink
//! edges by `[⌊L(d)⌋, ⌈L(d)⌉]`), and Hopcroft–Karp bipartite matching
//! (used when re-assigning orphaned parity units in Theorem 9).
//!
//! ```
//! use pdl_flow::{FlowNetwork, max_flow_with_lower_bounds, BoundedEdge};
//!
//! let mut g = FlowNetwork::new(3);
//! g.add_edge(0, 1, 4);
//! g.add_edge(1, 2, 2);
//! assert_eq!(g.max_flow(0, 2), 2);
//!
//! let edges = [BoundedEdge { from: 0, to: 1, lower: 1, upper: 4 },
//!              BoundedEdge { from: 1, to: 2, lower: 0, upper: 2 }];
//! let f = max_flow_with_lower_bounds(3, &edges, 0, 2).unwrap();
//! assert_eq!(f.value, 2);
//! ```

#![warn(missing_docs)]

mod dinic;
mod lower;
mod matching;
mod two_phase;

pub use dinic::{EdgeId, FlowNetwork};
pub use lower::{max_flow_with_lower_bounds, BoundedEdge, BoundedFlow};
pub use matching::hopcroft_karp;
pub use two_phase::{assign_parity_two_phase, ParityInstance};
