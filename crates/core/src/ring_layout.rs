//! Ring-based layouts and disk removal (Section 3.1, Theorems 8 & 9).
//!
//! A *ring-based layout* places one copy of a ring design so that the
//! parity unit of stripe `(x, y)` sits on disk `x`; since each disk `x`
//! is the parity target of exactly the `v−1` stripes `(x, ·)`, parity is
//! perfectly balanced with **no replication** — already an improvement
//! over the k-copy construction of Section 1.

use crate::hg::OffsetAllocator;
use crate::layout::{Layout, Stripe, StripeUnit};
use pdl_design::RingDesign;
use pdl_flow::hopcroft_karp;
use std::fmt;

/// A stripe under construction: units as `(old_disk, offset)` plus the
/// parity slot. Shared by the ring layout, disk removal, and the
/// stairway transformation (which re-maps offsets into pieces).
pub(crate) type ProtoStripe = (Vec<(usize, usize)>, usize);

/// Builds one copy of `design` as proto-stripes, optionally with one disk
/// removed per Theorem 8: units on the removed disk are dropped and the
/// parity of stripes `(removed, y)` moves to the tuple's `g_1`-th element
/// (disk `removed + y(g_1 − g_0)`).
pub(crate) fn ring_copy_stripes(design: &RingDesign, removed: Option<usize>) -> Vec<ProtoStripe> {
    let v = design.v();
    let mut alloc = OffsetAllocator::new(v);
    let mut out = Vec::with_capacity(design.b());
    for idx in 0..design.b() {
        let (x, y) = design.index_pair(idx);
        let block = design.block(x, y);
        let mut units = Vec::with_capacity(block.len());
        let mut parity_slot = usize::MAX;
        for (pos, &disk) in block.iter().enumerate() {
            if Some(disk) == removed {
                continue;
            }
            let parity_pos = if Some(x) == removed { 1 } else { 0 };
            if pos == parity_pos {
                parity_slot = units.len();
            }
            let u = alloc.take(disk);
            units.push((disk, u.offset as usize));
        }
        debug_assert_ne!(parity_slot, usize::MAX, "parity target must survive");
        out.push((units, parity_slot));
    }
    out
}

/// A ring-based layout: one copy of a ring design, size `k(v−1)`,
/// perfectly balanced parity and reconstruction workload.
#[derive(Clone, Debug)]
pub struct RingLayout {
    design: RingDesign,
    layout: Layout,
}

impl RingLayout {
    /// Builds the ring-based layout for `design`.
    pub fn new(design: RingDesign) -> Self {
        let v = design.v();
        let k = design.k();
        let stripes = ring_copy_stripes(&design, None)
            .into_iter()
            .map(|(units, p)| {
                Stripe::new(units.into_iter().map(|(d, o)| StripeUnit::new(d, o)).collect(), p)
            })
            .collect();
        let layout = Layout::from_stripes(v, k * (v - 1), stripes)
            .expect("ring-based construction is always valid");
        RingLayout { design, layout }
    }

    /// Convenience: the ring layout for the Lemma 3 ring on `v` with `k`
    /// generators. Panics if `k > M(v)` (Theorem 2).
    pub fn for_v_k(v: usize, k: usize) -> Self {
        RingLayout::new(RingDesign::for_v_k(v, k))
    }

    /// The underlying ring design.
    pub fn design(&self) -> &RingDesign {
        &self.design
    }

    /// The concrete layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Stripe size `k`.
    pub(crate) fn k(&self) -> usize {
        self.design.k()
    }

    /// Theorem 8: the layout on `v−1` disks obtained by deleting disk
    /// `removed`, reassigning its parity so balance stays perfect
    /// (every remaining disk ends with exactly `v` parity units).
    pub fn remove_disk(&self, removed: usize) -> Layout {
        let v = self.design.v();
        assert!(removed < v, "disk out of range");
        let renumber = |d: usize| if d > removed { d - 1 } else { d };
        let stripes = ring_copy_stripes(&self.design, Some(removed))
            .into_iter()
            .map(|(units, p)| {
                Stripe::new(
                    units.into_iter().map(|(d, o)| StripeUnit::new(renumber(d), o)).collect(),
                    p,
                )
            })
            .collect();
        Layout::from_stripes(v - 1, self.k() * (v - 1), stripes)
            .expect("Theorem 8 removal is always valid")
    }

    /// Theorem 9: the layout on `v−i` disks obtained by deleting the `i`
    /// disks in `removed`, with orphaned parity units (those whose
    /// Theorem-8 fallback disk was also removed) re-matched to distinct
    /// surviving disks. Succeeds whenever the paper's condition
    /// `i(i−1) ≤ k−i` holds (and often beyond it).
    pub fn remove_disks(&self, removed: &[usize]) -> Result<Layout, RemovalError> {
        let v = self.design.v();
        let k = self.k();
        let i = removed.len();
        let mut is_removed = vec![false; v];
        for &d in removed {
            assert!(d < v, "disk out of range");
            assert!(!is_removed[d], "duplicate disk {d} in removal set");
            is_removed[d] = true;
        }
        if i == 0 {
            return Ok(self.layout.clone());
        }
        assert!(i < k, "cannot remove i >= k disks (stripes would vanish)");

        // Pass 1: build surviving units and classify parity.
        let mut alloc = OffsetAllocator::new(v);
        let mut protos: Vec<(Vec<StripeUnit>, Vec<usize>, Option<usize>)> =
            Vec::with_capacity(self.design.b());
        let mut orphans: Vec<usize> = Vec::new(); // stripe indices needing matching
        for idx in 0..self.design.b() {
            let (x, y) = self.design.index_pair(idx);
            let block = self.design.block(x, y);
            let mut units = Vec::with_capacity(k);
            let mut disks = Vec::with_capacity(k);
            for &disk in block.iter().filter(|&&d| !is_removed[d]) {
                units.push(alloc.take(disk));
                disks.push(disk);
            }
            let parity_disk = if !is_removed[x] {
                Some(x)
            } else {
                // Theorem 8 fallback: the g1-th element.
                let fb = block[1];
                if is_removed[fb] {
                    None // orphaned
                } else {
                    Some(fb)
                }
            };
            if parity_disk.is_none() {
                orphans.push(idx);
            }
            protos.push((units, disks, parity_disk));
        }

        // Pass 2: match orphans to distinct surviving disks within their
        // stripes (the paper's i(i−1) ≤ k−i greedy, done optimally).
        let surviving: Vec<usize> = (0..v).filter(|&d| !is_removed[d]).collect();
        let disk_pos: Vec<usize> = {
            let mut m = vec![usize::MAX; v];
            for (j, &d) in surviving.iter().enumerate() {
                m[d] = j;
            }
            m
        };
        let adj: Vec<Vec<usize>> = orphans
            .iter()
            .map(|&idx| protos[idx].1.iter().map(|&d| disk_pos[d]).collect())
            .collect();
        let matching = hopcroft_karp(orphans.len(), surviving.len(), &adj);
        let matched = matching.iter().flatten().count();
        if matched < orphans.len() {
            return Err(RemovalError::OrphanMatchingFailed { orphans: orphans.len(), matched });
        }
        for (oi, &idx) in orphans.iter().enumerate() {
            protos[idx].2 = Some(surviving[matching[oi].unwrap()]);
        }

        // Pass 3: assemble with renumbered disks.
        let renumber = &disk_pos;
        let stripes = protos
            .into_iter()
            .map(|(units, disks, parity_disk)| {
                let pd = parity_disk.expect("all parities assigned");
                let slot = disks.iter().position(|&d| d == pd).expect("parity disk in stripe");
                Stripe::new(
                    units
                        .into_iter()
                        .map(|u| StripeUnit::new(renumber[u.disk as usize], u.offset as usize))
                        .collect(),
                    slot,
                )
            })
            .collect();
        Layout::from_stripes(v - i, k * (v - 1), stripes)
            .map_err(|e| RemovalError::InvalidLayout(e.to_string()))
    }
}

/// Failures of the Theorem 9 multi-disk removal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemovalError {
    /// Not all orphaned parity units could be matched to distinct disks.
    OrphanMatchingFailed {
        /// Orphans needing placement.
        orphans: usize,
        /// Matching size achieved.
        matched: usize,
    },
    /// The resulting stripe set failed layout validation (internal error).
    InvalidLayout(String),
}

impl fmt::Display for RemovalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemovalError::OrphanMatchingFailed { orphans, matched } => {
                write!(f, "only {matched} of {orphans} orphaned parity units could be placed")
            }
            RemovalError::InvalidLayout(e) => write!(f, "removal produced invalid layout: {e}"),
        }
    }
}

impl std::error::Error for RemovalError {}

/// Largest `i` satisfying the paper's Theorem 9 safety condition
/// `i(i−1) ≤ k−i` (≈ √k).
pub fn max_safe_removals(k: usize) -> usize {
    (0..=k).take_while(|&i| i * i <= k).last().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{parity_counts, QualityReport};

    #[test]
    fn ring_layout_size_and_balance() {
        for (v, k) in [(5usize, 3usize), (7, 4), (8, 3), (9, 5), (13, 4)] {
            let rl = RingLayout::for_v_k(v, k);
            let l = rl.layout();
            assert_eq!(l.size(), k * (v - 1), "size = k(v-1)");
            let r = QualityReport::measure(l);
            assert!(r.parity_balanced(), "v={v} k={k}");
            assert!(r.reconstruction_balanced(), "v={v} k={k}");
            // parity overhead exactly 1/k; workload (k-1)/(v-1)
            assert!((r.parity_overhead.0 - 1.0 / k as f64).abs() < 1e-12);
            assert!(
                (r.reconstruction_workload.0 - (k as f64 - 1.0) / (v as f64 - 1.0)).abs() < 1e-12
            );
            // every disk holds exactly v-1 parity units
            assert!(parity_counts(l).iter().all(|&c| c == v - 1));
        }
    }

    #[test]
    fn ring_layout_on_composite_v() {
        // v = 15, M(v) = 3: single-copy perfectly balanced layout exists.
        let rl = RingLayout::for_v_k(15, 3);
        let r = QualityReport::measure(rl.layout());
        assert!(r.parity_balanced());
        assert!(r.reconstruction_balanced());
        assert_eq!(rl.layout().size(), 3 * 14);
    }

    #[test]
    fn theorem8_metrics() {
        for (v, k) in [(5usize, 3usize), (8, 4), (9, 3), (13, 5)] {
            let rl = RingLayout::for_v_k(v, k);
            for removed in [0, v / 2, v - 1] {
                let l = rl.remove_disk(removed);
                assert_eq!(l.v(), v - 1);
                assert_eq!(l.size(), k * (v - 1), "size still k(v-1)");
                let (smin, smax) = l.stripe_size_range();
                assert_eq!((smin, smax), (k - 1, k), "stripes of size k and k-1");
                // every disk has exactly v parity units → overhead (1/k)(v/(v-1))
                assert!(parity_counts(&l).iter().all(|&c| c == v), "v={v} k={k}");
                let r = QualityReport::measure(&l);
                assert!(
                    (r.parity_overhead.1 - (v as f64) / (k as f64 * (v as f64 - 1.0))).abs()
                        < 1e-12
                );
                // reconstruction workload still exactly (k-1)/(v-1)
                assert!(
                    (r.reconstruction_workload.0 - (k as f64 - 1.0) / (v as f64 - 1.0)).abs()
                        < 1e-12
                );
                assert!(r.reconstruction_balanced());
            }
        }
    }

    #[test]
    fn theorem9_remove_two() {
        // k = 5 allows i = 2 (2·1 ≤ 5−2).
        let rl = RingLayout::for_v_k(11, 5);
        let l = rl.remove_disks(&[2, 7]).unwrap();
        assert_eq!(l.v(), 9);
        assert_eq!(l.size(), 5 * 10);
        let (smin, smax) = l.stripe_size_range();
        assert!(smin >= 3 && smax == 5);
        // parity counts in {v+i-1, v+i} = {12, 13}
        let counts = parity_counts(&l);
        assert!(counts.iter().all(|&c| c == 12 || c == 13), "{counts:?}");
        let r = QualityReport::measure(&l);
        // workload unchanged: (k-1)/(v-1) = 4/10
        assert!((r.reconstruction_workload.1 - 0.4).abs() < 1e-12);
        assert!(r.reconstruction_balanced());
    }

    #[test]
    fn theorem9_matches_theorem8_for_single_disk() {
        let rl = RingLayout::for_v_k(7, 3);
        let a = rl.remove_disk(3);
        let b = rl.remove_disks(&[3]).unwrap();
        assert_eq!(parity_counts(&a), parity_counts(&b));
        assert_eq!(a.size(), b.size());
    }

    #[test]
    fn theorem9_overhead_bounds() {
        // Paper: parity overhead between (v+i-1)/(k(v-1)) and (v+i)/(k(v-1)).
        let (v, k) = (13usize, 6usize);
        let rl = RingLayout::for_v_k(v, k);
        let i = 2;
        let l = rl.remove_disks(&[0, 5]).unwrap();
        let r = QualityReport::measure(&l);
        let lo = (v as f64 + i as f64 - 1.0) / (k as f64 * (v as f64 - 1.0));
        let hi = (v as f64 + i as f64) / (k as f64 * (v as f64 - 1.0));
        assert!(r.parity_overhead.0 >= lo - 1e-12);
        assert!(r.parity_overhead.1 <= hi + 1e-12);
    }

    #[test]
    fn max_safe_removals_examples() {
        assert_eq!(max_safe_removals(4), 2);
        assert_eq!(max_safe_removals(9), 3);
        assert_eq!(max_safe_removals(8), 2);
        assert_eq!(max_safe_removals(16), 4);
        assert_eq!(max_safe_removals(2), 1);
    }

    #[test]
    fn remove_zero_disks_is_identity() {
        let rl = RingLayout::for_v_k(5, 3);
        let l = rl.remove_disks(&[]).unwrap();
        assert_eq!(l.v(), 5);
        assert_eq!(parity_counts(&l), parity_counts(rl.layout()));
    }

    #[test]
    fn g0_position_is_parity_disk() {
        // Parity of stripe (x,y) must lie on disk x.
        let rl = RingLayout::for_v_k(9, 4);
        for idx in 0..rl.design().b() {
            let (x, _) = rl.design().index_pair(idx);
            let stripe = &rl.layout().stripes()[idx];
            assert_eq!(stripe.parity_unit().disk as usize, x);
        }
    }
}
