//! Extendible layouts (Section 5 open problem): growing an array by
//! adding disks with minimal data movement.
//!
//! The stairway transformation is a natural extension mechanism — the
//! `q`-disk layout's stripes survive intact (only their physical homes
//! move), whereas regenerating a fresh layout scrambles everything. This
//! module quantifies that: the *relayout cost* is the fraction of logical
//! data units whose physical location changes.

use crate::mapping::StripeMap;

/// Fraction of logical data units that live at different physical
/// locations under map `old` vs map `new` (comparing the first
/// `min(data_units(old), data_units(new))` logical addresses of one
/// copy; disks present only in `new` hold fresh units and do not count
/// as moves).
pub fn relayout_cost(old: &StripeMap, new: &StripeMap) -> f64 {
    let n = old.data_units_per_copy().min(new.data_units_per_copy());
    if n == 0 {
        return 0.0;
    }
    let moved = (0..n).filter(|&a| old.locate(a) != new.locate(a)).count();
    moved as f64 / n as f64
}

/// Movement report for one extension step.
#[derive(Clone, Copy, Debug)]
pub struct ExtensionReport {
    /// Disks before.
    pub v_old: usize,
    /// Disks after.
    pub v_new: usize,
    /// Fraction of previously stored data units that must move.
    pub moved_fraction: f64,
    /// Units per disk after extension.
    pub new_size: usize,
}

/// Extends a ring layout for `q` disks to `v` disks via the stairway
/// transformation and reports the piece-level data movement (see
/// [`crate::stairway::stairway_movement`]): bottom-staircase pieces keep
/// their exact physical position, so only the shifted top triangle (and
/// the wide-step deletions) must be copied.
pub fn extend_via_stairway(
    design: &pdl_design::RingDesign,
    v: usize,
) -> Result<ExtensionReport, crate::stairway::StairwayError> {
    let q = design.v();
    let extended = crate::stairway::stairway_layout(design, v)?;
    let moved = crate::stairway::stairway_movement(q, v)
        .expect("stairway_layout succeeded, so params exist");
    Ok(ExtensionReport { v_old: q, v_new: v, moved_fraction: moved, new_size: extended.size() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_layout::RingLayout;
    use pdl_design::RingDesign;

    fn map(rl: &RingLayout) -> StripeMap {
        StripeMap::new(rl.layout(), None)
    }

    #[test]
    fn identity_has_zero_cost() {
        let m = map(&RingLayout::for_v_k(7, 3));
        assert_eq!(relayout_cost(&m, &m), 0.0);
    }

    #[test]
    fn different_layouts_have_positive_cost() {
        let a = map(&RingLayout::for_v_k(7, 3));
        let b = map(&RingLayout::for_v_k(8, 3));
        assert!(relayout_cost(&a, &b) > 0.0);
    }

    #[test]
    fn stairway_extension_reports() {
        let design = RingDesign::for_v_k(8, 3);
        let rep = extend_via_stairway(&design, 10).unwrap();
        assert_eq!(rep.v_old, 8);
        assert_eq!(rep.v_new, 10);
        assert!(rep.moved_fraction > 0.0 && rep.moved_fraction <= 1.0);
    }

    #[test]
    fn stairway_moves_less_than_regeneration() {
        // Extending 8 → 9 via stairway moves only the top staircase
        // triangle (~half the pieces); regenerating a fresh 9-disk ring
        // layout relocates nearly everything.
        let design = RingDesign::for_v_k(8, 3);
        let base = RingLayout::new(design.clone());
        let rep = extend_via_stairway(&design, 9).unwrap();
        let regen = RingLayout::for_v_k(9, 3);
        let cost_regen = relayout_cost(&map(&base), &map(&regen));
        assert!(
            rep.moved_fraction < cost_regen,
            "stairway {} should beat regeneration {cost_regen}",
            rep.moved_fraction
        );
        // Theorem 10 case (d = 1): the top triangle is (c−1)(c−2)/2 of
        // (c−1)·q pieces → (q−1)/(2q) — just under one half.
        let expect = (8.0 - 1.0) / (2.0 * 8.0);
        assert!((rep.moved_fraction - expect).abs() < 1e-12, "{}", rep.moved_fraction);
    }

    #[test]
    fn movement_fraction_bounds() {
        use crate::stairway::stairway_movement;
        for (q, v) in [(8usize, 9usize), (8, 10), (9, 12), (9, 13), (13, 16)] {
            let m = stairway_movement(q, v).unwrap();
            assert!(m > 0.0 && m < 1.0, "q={q} v={v}: {m}");
        }
        assert_eq!(stairway_movement(5, 12), None);
    }
}
