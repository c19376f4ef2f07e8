//! Layout quality metrics — the measurable forms of Holland & Gibson's
//! Conditions 2 and 3 as the paper defines them in Section 1.
//!
//! * **Parity overhead** of a disk: the fraction of its units that are
//!   parity units; the disk with the most parity is the write bottleneck.
//! * **Reconstruction workload** of a pair `(failed, survivor)`: the
//!   fraction of the survivor that must be read to rebuild the failed
//!   disk — `#stripes crossing both / size`.

use crate::layout::Layout;
use std::fmt;

/// Number of parity units on each disk.
pub fn parity_counts(layout: &Layout) -> Vec<usize> {
    let mut counts = vec![0usize; layout.v()];
    for stripe in layout.stripes() {
        counts[stripe.parity_unit().disk as usize] += 1;
    }
    counts
}

/// Parity overhead per disk: `parity_count / size`.
pub(crate) fn parity_overheads(layout: &Layout) -> Vec<f64> {
    parity_counts(layout).iter().map(|&c| c as f64 / layout.size() as f64).collect()
}

/// `(min, max)` parity overhead over all disks.
pub(crate) fn parity_overhead_range(layout: &Layout) -> (f64, f64) {
    let ovs = parity_overheads(layout);
    let min = ovs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ovs.iter().cloned().fold(0.0, f64::max);
    (min, max)
}

/// `cross[f][d]` = number of stripes with units on both disks `f` and `d`
/// (diagonal = number of stripes crossing the disk).
pub fn crossing_matrix(layout: &Layout) -> Vec<Vec<usize>> {
    let v = layout.v();
    let mut m = vec![vec![0usize; v]; v];
    for stripe in layout.stripes() {
        let units = stripe.units();
        for (i, a) in units.iter().enumerate() {
            m[a.disk as usize][a.disk as usize] += 1;
            for b in units.iter().skip(i + 1) {
                m[a.disk as usize][b.disk as usize] += 1;
                m[b.disk as usize][a.disk as usize] += 1;
            }
        }
    }
    m
}

/// Reconstruction workload matrix: `w[f][d]` = fraction of disk `d` read
/// while reconstructing failed disk `f` (`f ≠ d`).
pub fn reconstruction_workloads(layout: &Layout) -> Vec<Vec<f64>> {
    let s = layout.size() as f64;
    crossing_matrix(layout)
        .into_iter()
        .enumerate()
        .map(|(f, row)| {
            row.into_iter()
                .enumerate()
                .map(|(d, c)| if f == d { 0.0 } else { c as f64 / s })
                .collect()
        })
        .collect()
}

/// `(min, max)` reconstruction workload over ordered pairs `f ≠ d`.
pub(crate) fn reconstruction_workload_range(layout: &Layout) -> (f64, f64) {
    let w = reconstruction_workloads(layout);
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    for (f, row) in w.iter().enumerate() {
        for (d, &x) in row.iter().enumerate() {
            if f != d {
                min = min.min(x);
                max = max.max(x);
            }
        }
    }
    (min, max)
}

/// A one-stop quality report covering Conditions 1–4.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Number of disks.
    pub v: usize,
    /// Units per disk (layout size; Condition 4 wants this small).
    pub size: usize,
    /// Number of stripes.
    pub b: usize,
    /// Smallest and largest stripe size.
    pub stripe_sizes: (usize, usize),
    /// Min/max parity units per disk (Condition 2: spread ≤ 1 is optimal).
    pub parity_units: (usize, usize),
    /// Min/max parity overhead.
    pub parity_overhead: (f64, f64),
    /// Min/max reconstruction workload over pairs (Condition 3).
    pub reconstruction_workload: (f64, f64),
    /// Whether size ≤ 10,000 (Condition 4 feasibility).
    pub feasible: bool,
}

impl QualityReport {
    /// Computes the full report for a layout.
    pub fn measure(layout: &Layout) -> Self {
        let counts = parity_counts(layout);
        let (pmin, pmax) =
            (counts.iter().copied().min().unwrap_or(0), counts.iter().copied().max().unwrap_or(0));
        QualityReport {
            v: layout.v(),
            size: layout.size(),
            b: layout.b(),
            stripe_sizes: layout.stripe_size_range(),
            parity_units: (pmin, pmax),
            parity_overhead: parity_overhead_range(layout),
            reconstruction_workload: reconstruction_workload_range(layout),
            feasible: layout.is_feasible(crate::layout::DEFAULT_FEASIBILITY_LIMIT),
        }
    }

    /// Perfectly balanced parity: every disk has the same number of
    /// parity units.
    pub fn parity_balanced(&self) -> bool {
        self.parity_units.0 == self.parity_units.1
    }

    /// Parity balanced to within one unit (the Theorem 14 guarantee).
    pub fn parity_nearly_balanced(&self) -> bool {
        self.parity_units.1 - self.parity_units.0 <= 1
    }

    /// Perfectly balanced reconstruction workload.
    pub fn reconstruction_balanced(&self) -> bool {
        let (lo, hi) = self.reconstruction_workload;
        (hi - lo).abs() < 1e-12
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "v={} size={} b={} stripes k∈[{},{}]",
            self.v, self.size, self.b, self.stripe_sizes.0, self.stripe_sizes.1
        )?;
        writeln!(
            f,
            "parity/disk ∈ [{},{}]  overhead ∈ [{:.4},{:.4}]",
            self.parity_units.0,
            self.parity_units.1,
            self.parity_overhead.0,
            self.parity_overhead.1
        )?;
        write!(
            f,
            "recon workload ∈ [{:.4},{:.4}]  feasible(10k)={}",
            self.reconstruction_workload.0, self.reconstruction_workload.1, self.feasible
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Stripe, StripeUnit};

    fn unit(d: usize, o: usize) -> StripeUnit {
        StripeUnit::new(d, o)
    }

    /// The paper's Fig. 2 layout: v=4, k=3 via the complete design, one
    /// copy, parity on the last unit of each stripe.
    fn fig2_like() -> Layout {
        // Stripes: {0,1,2},{0,1,3},{0,2,3},{1,2,3} at offsets packed
        // per-disk in order.
        let stripes = vec![
            Stripe::new(vec![unit(0, 0), unit(1, 0), unit(2, 0)], 2),
            Stripe::new(vec![unit(0, 1), unit(1, 1), unit(3, 0)], 2),
            Stripe::new(vec![unit(0, 2), unit(2, 1), unit(3, 1)], 2),
            Stripe::new(vec![unit(1, 2), unit(2, 2), unit(3, 2)], 2),
        ];
        Layout::from_stripes(4, 3, stripes).unwrap()
    }

    #[test]
    fn parity_counts_fig2() {
        // Parity on last units: disks 2,3,3,3 → counts [0,0,1,3].
        assert_eq!(parity_counts(&fig2_like()), vec![0, 0, 1, 3]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn crossing_matrix_symmetric_and_correct() {
        let m = crossing_matrix(&fig2_like());
        for f in 0..4 {
            assert_eq!(m[f][f], 3, "every disk crossed by r = 3 stripes");
            for d in 0..4 {
                assert_eq!(m[f][d], m[d][f]);
                if f != d {
                    // complete design λ = C(2,1) = 2
                    assert_eq!(m[f][d], 2);
                }
            }
        }
    }

    #[test]
    fn reconstruction_workload_fig2() {
        // (k-1)/(v-1) = 2/3 of each surviving disk.
        let (lo, hi) = reconstruction_workload_range(&fig2_like());
        assert!((lo - 2.0 / 3.0).abs() < 1e-12);
        assert!((hi - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quality_report_fields() {
        let r = QualityReport::measure(&fig2_like());
        assert_eq!(r.v, 4);
        assert_eq!(r.b, 4);
        assert!(!r.parity_balanced());
        assert!(r.reconstruction_balanced());
        assert!(r.feasible);
        let s = r.to_string();
        assert!(s.contains("v=4"));
    }

    #[test]
    fn raid5_style_workload_is_one() {
        // Full-width stripes: reconstruction reads 100% of every survivor.
        let stripes = vec![
            Stripe::new(vec![unit(0, 0), unit(1, 0), unit(2, 0)], 0),
            Stripe::new(vec![unit(0, 1), unit(1, 1), unit(2, 1)], 1),
            Stripe::new(vec![unit(0, 2), unit(1, 2), unit(2, 2)], 2),
        ];
        let l = Layout::from_stripes(3, 3, stripes).unwrap();
        let (lo, hi) = reconstruction_workload_range(&l);
        assert_eq!((lo, hi), (1.0, 1.0));
        let r = QualityReport::measure(&l);
        assert!(r.parity_balanced());
    }
}
