//! The stairway transformation (Section 3.2, Theorems 10–12): growing a
//! ring-based layout for `q` disks into an approximately balanced layout
//! for `v > q` disks.
//!
//! `c` copies of the `q`-disk layout are stacked as a `c × q` grid of
//! *pieces* (piece = one disk's units in one copy, height `k(q−1)`). The
//! grid is cut along a staircase whose steps are `d = v−q` columns wide
//! (`w` of them one column wider when `d ∤ v`), and the part above the
//! staircase is shifted right `d` and down 1. Wide steps make the two
//! parts overlap in one piece; that piece's disk is removed from its copy
//! per Theorem 8, which is what introduces the (bounded) parity imbalance.

use crate::layout::{Layout, Stripe, StripeUnit};
use crate::ring_layout::ring_copy_stripes;
use pdl_design::RingDesign;
use std::fmt;

/// Parameters of a stairway transformation `q → v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StairwayParams {
    /// Source array size (a ring-based layout must exist for `q`).
    pub q: usize,
    /// Target array size.
    pub v: usize,
    /// Step width `d = v − q`.
    pub d: usize,
    /// Number of stacked copies: `v = c·d + w`.
    pub c: usize,
    /// Number of wide (width `d+1`) steps, `w < c`.
    pub w: usize,
}

impl StairwayParams {
    /// Solves conditions (8)–(9) of the paper for `q → v`:
    /// `v = c(v−q) + w`, `0 ≤ w < c`, taking the canonical `c = ⌊v/d⌋`.
    /// Returns `None` when no valid transformation exists (`v ≤ q`,
    /// `v > 2q`, or `w ≥ c`).
    pub fn solve(q: usize, v: usize) -> Option<StairwayParams> {
        if v <= q || q < 2 {
            return None;
        }
        let d = v - q;
        let c = v / d;
        let w = v - c * d;
        // Need at least one step (c ≥ 2) and w < c.
        (c >= 2 && w < c).then_some(StairwayParams { q, v, d, c, w })
    }

    /// Layout size `k(c−1)(q−1)` (Theorems 10–12).
    pub fn size(&self, k: usize) -> usize {
        k * (self.c - 1) * (self.q - 1)
    }

    /// Paper bounds on parity overhead: exactly `1/k` when `w = 0`
    /// (Theorems 10/11), otherwise
    /// `1/k + (1/k)·[(w−1), w]/((c−1)(q−1))` (Theorem 12).
    pub fn parity_overhead_bounds(&self, k: usize) -> (f64, f64) {
        let kf = k as f64;
        if self.w == 0 {
            (1.0 / kf, 1.0 / kf)
        } else {
            let denom = ((self.c - 1) * (self.q - 1)) as f64;
            (
                1.0 / kf + (self.w as f64 - 1.0) / (kf * denom),
                1.0 / kf + self.w as f64 / (kf * denom),
            )
        }
    }

    /// Paper bounds on reconstruction workload:
    /// `[(c−2)/(c−1)]·(k−1)/(q−1)` up to `(k−1)/(q−1)` (Theorems 11/12);
    /// Theorem 10 (`d = 1`) achieves exactly `(k−1)/q`.
    pub fn reconstruction_workload_bounds(&self, k: usize) -> (f64, f64) {
        let base = (k as f64 - 1.0) / (self.q as f64 - 1.0);
        (base * (self.c as f64 - 2.0) / (self.c as f64 - 1.0), base)
    }
}

impl fmt::Display for StairwayParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stairway q={} → v={} (d={}, c={}, w={})", self.q, self.v, self.d, self.c, self.w)
    }
}

/// Failures of the stairway construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StairwayError {
    /// No `(c, w)` satisfying conditions (8)–(9) exists for this `q → v`.
    NoValidParams {
        /// Source size.
        q: usize,
        /// Target size.
        v: usize,
    },
    /// Internal: piece placement produced an inconsistent grid.
    PlacementInconsistent(String),
}

impl fmt::Display for StairwayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StairwayError::NoValidParams { q, v } => {
                write!(f, "no stairway parameters for q={q} → v={v}")
            }
            StairwayError::PlacementInconsistent(m) => write!(f, "placement inconsistent: {m}"),
        }
    }
}

impl std::error::Error for StairwayError {}

/// Piece destination: `(new_column, landing_row)` with landing rows in
/// `1..=c−1` (renumbered to `0..c−1` minus 1 when offsets are emitted).
fn place_piece(step_of: &[usize], d: usize, row: usize, col: usize) -> (usize, usize) {
    if row <= step_of[col] {
        (col + d, row + 1) // top part: right d, down 1
    } else {
        (col, row) // bottom part stays
    }
}

/// Data movement when the stairway is used as an *extension* mechanism
/// (Section 5's extendibility concern): an array of `q` disks holding
/// `c−1` stacked copies of the ring layout grows to `v` disks. Identify
/// old copy `t` with stairway grid row `t+1`; bottom pieces then keep
/// both their disk and their offset, while top pieces (and the pieces
/// deleted to resolve wide-step overlap) must move. Returns the moved
/// fraction of old pieces, or `None` if no stairway exists for `q → v`.
pub(crate) fn stairway_movement(q: usize, v: usize) -> Option<f64> {
    let params = StairwayParams::solve(q, v)?;
    let StairwayParams { d, c, w, .. } = params;
    let widths: Vec<usize> = (0..c - 1).map(|s| d + usize::from(s >= c - 1 - w)).collect();
    // Top pieces in old rows 1..=c−1: row i has one top piece per column
    // j with step(j) ≥ i, i.e. q − (width of steps 0..i−1).
    let mut moved = w; // each wide step deletes one bottom piece in rows ≥ 1
    let mut prefix = 0usize;
    for i in 1..c {
        prefix += widths.get(i - 1).copied().unwrap_or(0);
        moved += q.saturating_sub(prefix);
    }
    Some(moved as f64 / ((c - 1) * q) as f64)
}

/// Applies the stairway transformation to the ring design for `q` disks,
/// producing a validated layout for `v` disks.
#[allow(clippy::needless_range_loop)]
pub fn stairway_layout(design: &RingDesign, v: usize) -> Result<Layout, StairwayError> {
    let q = design.v();
    let k = design.k();
    let params = StairwayParams::solve(q, v).ok_or(StairwayError::NoValidParams { q, v })?;
    let StairwayParams { d, c, w, .. } = params;

    // Step widths: c−1 steps, the last w of them wide (width d+1).
    let widths: Vec<usize> = (0..c - 1).map(|s| d + usize::from(s >= c - 1 - w)).collect();
    debug_assert_eq!(widths.iter().sum::<usize>(), q);
    let mut step_of = Vec::with_capacity(q);
    for (s, &wd) in widths.iter().enumerate() {
        step_of.extend(std::iter::repeat_n(s, wd));
    }

    // Wide step s: the shifted top overlaps the stayed bottom at piece
    // (row s+1, col last(s)); remove that disk from copy s+1 (Theorem 8).
    let mut removed_in_row: Vec<Option<usize>> = vec![None; c];
    let mut col_end = 0usize;
    for (s, &wd) in widths.iter().enumerate() {
        col_end += wd;
        if wd == d + 1 {
            removed_in_row[s + 1] = Some(col_end - 1);
        }
    }

    // Verify the placement tiles the new grid exactly: every new column
    // gets c−1 pieces with distinct landing rows 1..=c−1.
    let mut occupancy = vec![vec![false; c]; v];
    for row in 0..c {
        for col in 0..q {
            if removed_in_row[row] == Some(col) {
                continue;
            }
            let (nc, lr) = place_piece(&step_of, d, row, col);
            if nc >= v || lr == 0 || lr >= c || occupancy[nc][lr] {
                return Err(StairwayError::PlacementInconsistent(format!(
                    "piece ({row},{col}) → ({nc},{lr}) collides or escapes"
                )));
            }
            occupancy[nc][lr] = true;
        }
    }
    for (nc, col_occ) in occupancy.iter().enumerate() {
        let n = col_occ.iter().filter(|&&b| b).count();
        if n != c - 1 {
            return Err(StairwayError::PlacementInconsistent(format!(
                "new column {nc} has {n} pieces, expected {}",
                c - 1
            )));
        }
    }

    // Emit stripes: every copy contributes its (possibly disk-removed)
    // ring layout, with units re-homed through the piece map.
    let h = k * (q - 1); // piece height
    let mut stripes = Vec::with_capacity(c * design.b());
    for row in 0..c {
        for (units, parity) in ring_copy_stripes(design, removed_in_row[row]) {
            let mapped: Vec<StripeUnit> = units
                .into_iter()
                .map(|(col, off)| {
                    let (nc, lr) = place_piece(&step_of, d, row, col);
                    StripeUnit::new(nc, (lr - 1) * h + off)
                })
                .collect();
            stripes.push(Stripe::new(mapped, parity));
        }
    }
    Layout::from_stripes(v, params.size(k), stripes)
        .map_err(|e| StairwayError::PlacementInconsistent(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QualityReport;
    use pdl_design::RingDesign;

    fn check_against_bounds(q: usize, v: usize, k: usize) -> QualityReport {
        let params = StairwayParams::solve(q, v).unwrap();
        let design = RingDesign::for_v_k(q, k);
        let l = stairway_layout(&design, v).unwrap();
        assert_eq!(l.v(), v);
        assert_eq!(l.size(), params.size(k), "size = k(c-1)(q-1)");
        let r = QualityReport::measure(&l);
        let (olo, ohi) = params.parity_overhead_bounds(k);
        assert!(
            r.parity_overhead.0 >= olo - 1e-9 && r.parity_overhead.1 <= ohi + 1e-9,
            "q={q} v={v} k={k}: overhead {:?} outside [{olo},{ohi}]",
            r.parity_overhead
        );
        let (wlo, whi) = params.reconstruction_workload_bounds(k);
        assert!(
            r.reconstruction_workload.0 >= wlo - 1e-9 && r.reconstruction_workload.1 <= whi + 1e-9,
            "q={q} v={v} k={k}: workload {:?} outside [{wlo},{whi}]",
            r.reconstruction_workload
        );
        r
    }

    #[test]
    fn params_solver() {
        // Theorem 10 case: v = q+1 → d=1, c=v, w=0.
        assert_eq!(
            StairwayParams::solve(5, 6),
            Some(StairwayParams { q: 5, v: 6, d: 1, c: 6, w: 0 })
        );
        // Theorem 11 case: (v-q) | v.
        assert_eq!(
            StairwayParams::solve(8, 10),
            Some(StairwayParams { q: 8, v: 10, d: 2, c: 5, w: 0 })
        );
        // Theorem 12 case: wide steps needed. v=13, q=9 → d=4, c=3, w=1.
        assert_eq!(
            StairwayParams::solve(9, 13),
            Some(StairwayParams { q: 9, v: 13, d: 4, c: 3, w: 1 })
        );
        // Invalid: v too far from q.
        assert_eq!(StairwayParams::solve(5, 12), None);
        // Invalid: v ≤ q.
        assert_eq!(StairwayParams::solve(5, 5), None);
    }

    #[test]
    fn theorem10_exact_metrics() {
        // v = q+1: parity overhead exactly 1/k, workload exactly (k-1)/q.
        for (q, k) in [(4usize, 3usize), (5, 3), (7, 4), (8, 5), (9, 3)] {
            let v = q + 1;
            let r = check_against_bounds(q, v, k);
            assert!(r.parity_balanced(), "q={q} k={k}");
            assert!((r.parity_overhead.0 - 1.0 / k as f64).abs() < 1e-12);
            assert!(r.reconstruction_balanced(), "Theorem 10 workload is uniform");
            assert!(
                (r.reconstruction_workload.0 - (k as f64 - 1.0) / q as f64).abs() < 1e-12,
                "q={q} k={k}: workload {:?}",
                r.reconstruction_workload
            );
        }
    }

    #[test]
    fn theorem11_divisible_case() {
        // (v−q) | v: perfect parity balance, workload within [lo, hi].
        for (q, v, k) in [(8usize, 10usize, 3usize), (9, 12, 4), (16, 20, 5), (25, 30, 4)] {
            let r = check_against_bounds(q, v, k);
            assert!(r.parity_balanced(), "q={q} v={v} k={k}: Theorem 11 parity is perfect");
        }
    }

    #[test]
    fn theorem12_wide_steps() {
        // d ∤ v: w > 0 wide steps, slight parity imbalance within bounds.
        for (q, v, k) in [(9usize, 13usize, 4usize), (13, 16, 4), (11, 14, 5), (16, 21, 6)] {
            let params = StairwayParams::solve(q, v).unwrap();
            assert!(params.w > 0, "test case must exercise wide steps");
            check_against_bounds(q, v, k);
        }
    }

    #[test]
    fn stairway_rejects_invalid_targets() {
        let design = RingDesign::for_v_k(5, 3);
        assert!(matches!(stairway_layout(&design, 12), Err(StairwayError::NoValidParams { .. })));
        assert!(matches!(stairway_layout(&design, 5), Err(StairwayError::NoValidParams { .. })));
    }

    #[test]
    fn stairway_v_twice_q_is_degenerate_but_valid() {
        // v = 2q: c = 2, single step; two side-by-side copies.
        let design = RingDesign::for_v_k(7, 3);
        let l = stairway_layout(&design, 14).unwrap();
        assert_eq!(l.v(), 14);
        assert_eq!(l.size(), 3 * 6);
        let r = QualityReport::measure(&l);
        assert!(r.parity_balanced());
        // cross-half pairs share no stripes → min workload 0 (= (c-2)/(c-1) bound).
        assert_eq!(r.reconstruction_workload.0, 0.0);
    }

    #[test]
    fn composite_q_also_works() {
        // q need not be prime power as long as k ≤ M(q): q=15, k=3.
        let design = RingDesign::for_v_k(15, 3);
        let l = stairway_layout(&design, 18).unwrap();
        assert_eq!(l.v(), 18);
        let r = QualityReport::measure(&l);
        let params = StairwayParams::solve(15, 18).unwrap();
        let (olo, ohi) = params.parity_overhead_bounds(3);
        assert!(r.parity_overhead.0 >= olo - 1e-9 && r.parity_overhead.1 <= ohi + 1e-9);
    }

    #[test]
    fn all_stripes_still_k_or_k_minus_1() {
        let design = RingDesign::for_v_k(9, 4);
        let l = stairway_layout(&design, 13).unwrap(); // w = 1 → one removal
        let (lo, hi) = l.stripe_size_range();
        assert_eq!(hi, 4);
        assert!(lo >= 3);
    }
}
