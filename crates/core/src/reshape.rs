//! Target-layout planning for array reshaping (Section 5 directions):
//! given a source layout, compute the layout the array should migrate
//! to after adding or removing disks, preferring the constructions
//! that move the least data.
//!
//! Three methods, tried in order of decreasing movement economy:
//!
//! * **Stairway** (Theorems 10–12): when the source is a canonical
//!   ring layout and stairway parameters exist for the target width,
//!   the extension keeps every stripe intact and moves only the top
//!   staircase triangle.
//! * **Ring removal** (Theorems 8–9): when the source is a canonical
//!   ring layout, deleting disks re-homes only the orphaned units and
//!   parity targets.
//! * **Regeneration**: the universal fallback — a fresh ring layout
//!   at the target width. Moves nearly everything, but exists for any
//!   width the ring construction supports and gives exactly uniform
//!   stripe sizes (and therefore the exact `(k−1)/(v−1)` rebuild
//!   fraction).
//!
//! The store's migration engine copies data by *logical address*, so
//! correctness never depends on which method is chosen; the method is
//! reporting, and the store measures the data a method moves on its own
//! maps ([`crate::relayout_cost`]).

use crate::layout::Layout;
use crate::ring_layout::RingLayout;
use crate::stairway::stairway_layout;
use pdl_design::{ring_design_exists, RingDesign};
use std::fmt;

/// Which construction produced the target layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshapeMethod {
    /// Stairway extension of the source ring design (Theorems 10–12).
    Stairway,
    /// Theorem 8/9 disk removal from the source ring design.
    RingRemoval,
    /// Fresh ring layout generated at the target width.
    Regenerated,
}

impl fmt::Display for ReshapeMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReshapeMethod::Stairway => "stairway",
            ReshapeMethod::RingRemoval => "ring-removal",
            ReshapeMethod::Regenerated => "regenerated",
        })
    }
}

/// A computed reshape target: the layout to migrate to and how it was
/// constructed.
#[derive(Clone, Debug)]
pub struct ReshapePlan {
    /// The target layout (validated by construction).
    pub layout: Layout,
    /// The construction that produced [`ReshapePlan::layout`].
    pub method: ReshapeMethod,
}

/// Why no target layout could be computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReshapePlanError {
    /// No supported construction yields a layout at the target width
    /// for the source's stripe size.
    NoTargetLayout {
        /// Requested target disk count.
        v: usize,
        /// Stripe size carried over from the source.
        k: usize,
    },
    /// The request itself is malformed (zero disks added, removing
    /// every disk, ...).
    BadRequest(String),
}

impl fmt::Display for ReshapePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshapePlanError::NoTargetLayout { v, k } => {
                write!(f, "no declustered layout construction for v={v}, k={k}")
            }
            ReshapePlanError::BadRequest(msg) => write!(f, "bad reshape request: {msg}"),
        }
    }
}

impl std::error::Error for ReshapePlanError {}

/// The source's stripe size: the widest stripe (uniform layouts have
/// only one width; removal layouts carry a few width-`k−1` stripes).
fn source_k(src: &Layout) -> usize {
    src.stripe_size_range().1
}

/// Structural equality of two layouts (same disks, size, and exact
/// stripe/unit/parity structure) — detects a canonical ring source.
fn layout_eq(a: &Layout, b: &Layout) -> bool {
    a.v() == b.v()
        && a.size() == b.size()
        && a.b() == b.b()
        && a.stripes().iter().zip(b.stripes()).all(|(sa, sb)| {
            sa.parity_slot() == sb.parity_slot()
                && sa.len() == sb.len()
                && sa
                    .units()
                    .iter()
                    .zip(sb.units())
                    .all(|(ua, ub)| ua.disk == ub.disk && ua.offset == ub.offset)
        })
}

/// The source's ring design, when the source *is* the canonical ring
/// layout for its `(v, k)`.
fn source_ring_design(src: &Layout) -> Option<RingDesign> {
    let (v, k) = (src.v(), source_k(src));
    if !ring_design_exists(v as u64, k as u64) {
        return None;
    }
    let rl = RingLayout::for_v_k(v, k);
    layout_eq(src, rl.layout()).then(|| rl.design().clone())
}

/// The regeneration fallback: a fresh canonical ring layout at width
/// `v` with stripe size `k`.
fn regenerate(v: usize, k: usize) -> Result<Layout, ReshapePlanError> {
    if v <= k || !ring_design_exists(v as u64, k as u64) {
        return Err(ReshapePlanError::NoTargetLayout { v, k });
    }
    Ok(RingLayout::for_v_k(v, k).layout().clone())
}

/// Plans the target layout for growing the array by `added` disks.
pub fn plan_add(src: &Layout, added: usize) -> Result<ReshapePlan, ReshapePlanError> {
    if added == 0 {
        return Err(ReshapePlanError::BadRequest("added == 0".into()));
    }
    let v_tgt = src.v() + added;
    let k = source_k(src);
    if let Some(design) = source_ring_design(src) {
        if let Ok(layout) = stairway_layout(&design, v_tgt) {
            return Ok(ReshapePlan { layout, method: ReshapeMethod::Stairway });
        }
    }
    Ok(ReshapePlan { layout: regenerate(v_tgt, k)?, method: ReshapeMethod::Regenerated })
}

/// Plans the target layout for shrinking the array by deleting the
/// (source-numbered) disks in `removed`. Survivors are renumbered in
/// ascending order, matching the Theorem 8/9 convention.
pub fn plan_remove(src: &Layout, removed: &[usize]) -> Result<ReshapePlan, ReshapePlanError> {
    if removed.is_empty() {
        return Err(ReshapePlanError::BadRequest("removed is empty".into()));
    }
    let mut seen = vec![false; src.v()];
    for &d in removed {
        if d >= src.v() {
            return Err(ReshapePlanError::BadRequest(format!(
                "disk {d} out of range (v = {})",
                src.v()
            )));
        }
        if seen[d] {
            return Err(ReshapePlanError::BadRequest(format!("disk {d} removed twice")));
        }
        seen[d] = true;
    }
    let k = source_k(src);
    let v_tgt = src.v() - removed.len();
    if v_tgt <= k {
        return Err(ReshapePlanError::NoTargetLayout { v: v_tgt, k });
    }
    if let Some(design) = source_ring_design(src) {
        let rl = RingLayout::new(design);
        if let Ok(layout) = rl.remove_disks(removed) {
            return Ok(ReshapePlan { layout, method: ReshapeMethod::RingRemoval });
        }
    }
    Ok(ReshapePlan { layout: regenerate(v_tgt, k)?, method: ReshapeMethod::Regenerated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QualityReport;
    use crate::{relayout_cost, StripeMap};

    fn moved_fraction(src: &Layout, plan: &ReshapePlan) -> f64 {
        relayout_cost(&StripeMap::new(src, None), &StripeMap::new(&plan.layout, None))
    }

    #[test]
    fn add_from_canonical_ring_prefers_stairway() {
        let src = RingLayout::for_v_k(8, 3);
        let plan = plan_add(src.layout(), 1).unwrap();
        assert_eq!(plan.method, ReshapeMethod::Stairway);
        assert_eq!(plan.layout.v(), 9);
        assert!((0.0..=1.0).contains(&moved_fraction(src.layout(), &plan)));
    }

    #[test]
    fn add_falls_back_to_regeneration() {
        // 5 → 12 has no stairway parameters (see stairway tests), but
        // the ring construction exists at 12 with k = 3.
        let src = RingLayout::for_v_k(5, 3);
        let plan = plan_add(src.layout(), 7).unwrap();
        assert_eq!(plan.method, ReshapeMethod::Regenerated);
        assert_eq!(plan.layout.v(), 12);
        let q = QualityReport::measure(&plan.layout);
        assert!(q.parity_balanced());
        assert!(q.reconstruction_balanced());
    }

    #[test]
    fn remove_from_canonical_ring_uses_theorem_9() {
        let src = RingLayout::for_v_k(9, 4);
        let plan = plan_remove(src.layout(), &[2]).unwrap();
        assert_eq!(plan.method, ReshapeMethod::RingRemoval);
        assert_eq!(plan.layout.v(), 8);
        assert!((0.0..=1.0).contains(&moved_fraction(src.layout(), &plan)));
    }

    #[test]
    fn remove_validates_requests() {
        let src = RingLayout::for_v_k(7, 3);
        assert!(matches!(plan_remove(src.layout(), &[]), Err(ReshapePlanError::BadRequest(_))));
        assert!(matches!(plan_remove(src.layout(), &[9]), Err(ReshapePlanError::BadRequest(_))));
        assert!(matches!(plan_remove(src.layout(), &[1, 1]), Err(ReshapePlanError::BadRequest(_))));
        // Shrinking below k + 1 disks leaves no valid layout.
        assert!(matches!(
            plan_remove(src.layout(), &[0, 1, 2, 3]),
            Err(ReshapePlanError::NoTargetLayout { .. })
        ));
    }

    #[test]
    fn add_zero_is_rejected() {
        let src = RingLayout::for_v_k(7, 3);
        assert!(matches!(plan_add(src.layout(), 0), Err(ReshapePlanError::BadRequest(_))));
    }
}
