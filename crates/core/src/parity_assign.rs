//! Flow-based parity distribution (Section 4, Theorems 13–14 and
//! Corollaries 15–17).
//!
//! Given any partition of the array into stripes (each with at most one
//! unit per disk) *without* parity assigned, build the *parity assignment
//! graph* — source → stripes `[1,1]`, stripe → crossed disk `[0,1]`,
//! disk `d` → sink `[⌊L(d)⌋, ⌈L(d)⌉]` with `L(d) = Σ_{s ∋ d} c_s/k_s` —
//! and read an integral max flow back as the parity placement. Every
//! disk ends with `⌊L(d)⌋` or `⌈L(d)⌉` parity units: the best possible
//! balance, achieving perfection exactly when `v | b` (Corollary 17,
//! proving Holland & Gibson's lcm conjecture).

use crate::layout::{Layout, Stripe, StripeUnit};
use pdl_design::BlockDesign;
use pdl_flow::{max_flow_with_lower_bounds, BoundedEdge};
use std::fmt;

/// A stripe partition of the array with no parity assigned yet — the
/// input to the Section 4 method.
#[derive(Clone, Debug)]
pub struct StripePartition {
    v: usize,
    size: usize,
    stripes: Vec<Vec<StripeUnit>>,
}

/// Failures of flow-based assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssignError {
    /// The flow problem was infeasible (cannot happen for valid
    /// partitions; kept for robustness).
    Infeasible,
    /// A stripe was asked for more distinguished units than it has.
    CountTooLarge {
        /// Offending stripe.
        stripe: usize,
        /// Units requested.
        requested: usize,
        /// Stripe size.
        size: usize,
    },
    /// The resulting layout failed validation (internal error).
    InvalidLayout(String),
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::Infeasible => write!(f, "parity assignment flow is infeasible"),
            AssignError::CountTooLarge { stripe, requested, size } => {
                write!(f, "stripe {stripe} asked for {requested} units but has {size}")
            }
            AssignError::InvalidLayout(e) => write!(f, "assignment produced invalid layout: {e}"),
        }
    }
}

impl std::error::Error for AssignError {}

impl StripePartition {
    /// Builds a partition; validity (coverage, one-unit-per-disk) is
    /// checked when a [`Layout`] is produced.
    pub(crate) fn new(v: usize, size: usize, stripes: Vec<Vec<StripeUnit>>) -> Self {
        StripePartition { v, size, stripes }
    }

    /// Forgets the parity choice of an existing layout.
    pub fn from_layout(layout: &Layout) -> Self {
        StripePartition {
            v: layout.v(),
            size: layout.size(),
            stripes: layout.stripes().iter().map(|s| s.units().to_vec()).collect(),
        }
    }

    /// The stripes.
    pub fn stripes(&self) -> &[Vec<StripeUnit>] {
        &self.stripes
    }

    /// The parity load `L(d) = Σ_{s crossing d} c_s / k_s` of every disk,
    /// for per-stripe distinguished-unit counts `counts` (all 1 for plain
    /// parity).
    pub fn loads(&self, counts: &[usize]) -> Vec<f64> {
        assert_eq!(counts.len(), self.stripes.len());
        let mut l = vec![0f64; self.v];
        for (stripe, &c) in self.stripes.iter().zip(counts) {
            for u in stripe {
                l[u.disk as usize] += c as f64 / stripe.len() as f64;
            }
        }
        l
    }

    /// The generalized Theorem 14: choose `counts[s]` distinguished units
    /// in each stripe `s` so every disk carries `⌊L(d)⌋` or `⌈L(d)⌉` of
    /// them. Returns the chosen slots per stripe.
    pub fn assign_distinguished(&self, counts: &[usize]) -> Result<Vec<Vec<usize>>, AssignError> {
        assert_eq!(counts.len(), self.stripes.len());
        for (si, (stripe, &c)) in self.stripes.iter().zip(counts).enumerate() {
            if c > stripe.len() {
                return Err(AssignError::CountTooLarge {
                    stripe: si,
                    requested: c,
                    size: stripe.len(),
                });
            }
        }
        let b = self.stripes.len();
        let v = self.v;
        // Nodes: 0 = source, 1..=b stripes, b+1..=b+v disks, b+v+1 = sink.
        let (s, t) = (0usize, b + v + 1);
        let loads = self.loads(counts);
        let mut edges = Vec::new();
        let mut unit_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); b]; // (edge idx, slot)
        for (si, (stripe, &c)) in self.stripes.iter().zip(counts).enumerate() {
            edges.push(BoundedEdge { from: s, to: 1 + si, lower: c as i64, upper: c as i64 });
            for (slot, u) in stripe.iter().enumerate() {
                unit_edges[si].push((edges.len(), slot));
                edges.push(BoundedEdge {
                    from: 1 + si,
                    to: 1 + b + u.disk as usize,
                    lower: 0,
                    upper: 1,
                });
            }
        }
        for (d, &l) in loads.iter().enumerate() {
            // Guard against f64 noise: loads of exact integers must not
            // round to (n-1, n).
            let lo = (l + 1e-9).floor() as i64;
            let hi = (l - 1e-9).ceil() as i64;
            edges.push(BoundedEdge {
                from: 1 + b + d,
                to: t,
                lower: lo.min(hi),
                upper: lo.max(hi),
            });
        }
        let flow =
            max_flow_with_lower_bounds(t + 1, &edges, s, t).ok_or(AssignError::Infeasible)?;
        let total: i64 = counts.iter().map(|&c| c as i64).sum();
        if flow.value != total {
            return Err(AssignError::Infeasible);
        }
        Ok(unit_edges
            .iter()
            .map(|ue| {
                ue.iter()
                    .filter(|(ei, _)| flow.edge_flows[*ei] == 1)
                    .map(|&(_, slot)| slot)
                    .collect()
            })
            .collect())
    }

    /// Like [`assign_parity`](Self::assign_parity) but running the
    /// paper's literal two-phase G′ procedure (Theorem 13) instead of
    /// the generic lower-bound reduction. Same ⌊L⌋/⌈L⌉ guarantee;
    /// kept as an ablation target (see `bench_flow`).
    pub fn assign_parity_two_phase(&self) -> Result<Layout, AssignError> {
        let inst = pdl_flow::ParityInstance {
            v: self.v,
            stripes: self
                .stripes
                .iter()
                .map(|s| s.iter().map(|u| u.disk as usize).collect())
                .collect(),
        };
        let slots = pdl_flow::assign_parity_two_phase(&inst).ok_or(AssignError::Infeasible)?;
        let stripes = self
            .stripes
            .iter()
            .zip(&slots)
            .map(|(units, &slot)| Stripe::new(units.clone(), slot))
            .collect();
        Layout::from_stripes(self.v, self.size, stripes)
            .map_err(|e| AssignError::InvalidLayout(e.to_string()))
    }

    /// Theorem 14: assign one parity unit per stripe so every disk gets
    /// `⌊L(d)⌋` or `⌈L(d)⌉` parity units, and build the final layout.
    pub fn assign_parity(&self) -> Result<Layout, AssignError> {
        let counts = vec![1usize; self.stripes.len()];
        let chosen = self.assign_distinguished(&counts)?;
        let stripes = self
            .stripes
            .iter()
            .zip(&chosen)
            .map(|(units, slots)| {
                debug_assert_eq!(slots.len(), 1);
                Stripe::new(units.clone(), slots[0])
            })
            .collect();
        Layout::from_stripes(self.v, self.size, stripes)
            .map_err(|e| AssignError::InvalidLayout(e.to_string()))
    }
}

/// Corollary 17 / the Holland–Gibson lcm conjecture: the number of copies
/// of a `b`-block design needed for perfectly balanceable parity is
/// `lcm(b, v)/b`.
pub fn copies_for_perfect_parity(b: usize, v: usize) -> usize {
    (pdl_algebra::lcm(b as u64, v as u64) / b as u64) as usize
}

/// The improved Holland–Gibson pipeline: replicate the design the minimal
/// `lcm(b,v)/b` times, place it, and flow-assign parity — perfectly
/// balanced by Corollary 16, at size `r·lcm(b,v)/b` instead of `k·r`.
pub fn minimal_balanced_layout(design: &BlockDesign) -> Result<Layout, AssignError> {
    let copies = copies_for_perfect_parity(design.b(), design.v());
    let replicated = design.replicate(copies);
    let single = crate::hg::single_copy_layout(&replicated, 0);
    StripePartition::from_layout(&single).assign_parity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{parity_counts, QualityReport};
    use crate::ring_layout::RingLayout;
    use pdl_design::{complete_design, theorem4_design, theorem6_design};

    #[test]
    fn theorem14_floor_ceil_on_single_copy() {
        // One copy of the complete design v=4, k=3: b=4, L(d) = r/k = 1.
        let d = complete_design(4, 3, 100);
        let l = crate::hg::single_copy_layout(&d, 0);
        let balanced = StripePartition::from_layout(&l).assign_parity().unwrap();
        assert_eq!(parity_counts(&balanced), vec![1, 1, 1, 1], "b=4, v=4: perfect");
    }

    #[test]
    fn theorem14_when_v_does_not_divide_b() {
        // Fano-like: theorem4 q=7 k=3 → b=21, v=7: 21/7=3 perfect.
        let c = theorem4_design(7, 3);
        let l = crate::hg::single_copy_layout(&c.design, 0);
        let balanced = StripePartition::from_layout(&l).assign_parity().unwrap();
        assert_eq!(parity_counts(&balanced), vec![3; 7]);

        // v=8, k=2, theorem4: b = 8·7/gcd(7,1) = 56; 56/8 = 7 perfect.
        let c = theorem4_design(8, 2);
        let l = crate::hg::single_copy_layout(&c.design, 0);
        let balanced = StripePartition::from_layout(&l).assign_parity().unwrap();
        assert_eq!(parity_counts(&balanced), vec![7; 8]);
    }

    #[test]
    fn corollary16_within_one() {
        // Theorem 6 design v=9, k=3: b=12, v=9 → 12/9: counts in {1,2}.
        let c = theorem6_design(9, 3);
        let l = crate::hg::single_copy_layout(&c.design, 0);
        let balanced = StripePartition::from_layout(&l).assign_parity().unwrap();
        let counts = parity_counts(&balanced);
        assert_eq!(counts.iter().sum::<usize>(), 12);
        assert!(counts.iter().all(|&x| x == 1 || x == 2), "{counts:?}");
    }

    #[test]
    fn corollary17_lcm_replication() {
        assert_eq!(copies_for_perfect_parity(12, 9), 3); // lcm(12,9)=36
        assert_eq!(copies_for_perfect_parity(4, 4), 1);
        assert_eq!(copies_for_perfect_parity(7, 5), 5);
        assert_eq!(copies_for_perfect_parity(21, 7), 1);
    }

    #[test]
    fn minimal_balanced_layout_is_perfect_and_small() {
        // A case where the lcm method beats k-copy replication outright:
        // v=13, k=4 via Theorem 5 (g = gcd(12,4) = 4): b=39, r=12.
        // 13 | 39 → a single copy balances perfectly: size 12 vs k·r=48.
        let c = pdl_design::theorem5_design(13, 4);
        assert_eq!(c.params.b, 39);
        let l = minimal_balanced_layout(&c.design).unwrap();
        assert_eq!(l.size(), c.params.r, "a single copy suffices when v | b");
        let q = QualityReport::measure(&l);
        assert!(q.parity_balanced());
        assert_eq!(parity_counts(&l), vec![3; 13]);
    }

    #[test]
    fn irregular_stripe_sizes_still_floor_ceil() {
        // Mixed stripe sizes: Theorem 8 removal output re-balanced.
        let rl = RingLayout::for_v_k(7, 3);
        let removed = rl.remove_disk(2);
        let part = StripePartition::from_layout(&removed);
        let counts_vec = vec![1usize; part.stripes().len()];
        let loads = part.loads(&counts_vec);
        let balanced = part.assign_parity().unwrap();
        let counts = parity_counts(&balanced);
        for (d, &c) in counts.iter().enumerate() {
            let l = loads[d];
            assert!(
                c as f64 >= l.floor() - 1e-9 && c as f64 <= l.ceil() + 1e-9,
                "disk {d}: count {c} vs load {l}"
            );
        }
    }

    #[test]
    fn generalized_two_units_per_stripe() {
        // cs = 2: pick parity + spare, balanced within one.
        let d = complete_design(6, 3, 1000);
        let l = crate::hg::single_copy_layout(&d, 0);
        let part = StripePartition::from_layout(&l);
        let counts = vec![2usize; part.stripes().len()];
        let chosen = part.assign_distinguished(&counts).unwrap();
        let mut per_disk = [0usize; 6];
        for (stripe, slots) in part.stripes().iter().zip(&chosen) {
            assert_eq!(slots.len(), 2);
            assert_ne!(slots[0], slots[1]);
            for &s in slots {
                per_disk[stripe[s].disk as usize] += 1;
            }
        }
        let loads = part.loads(&counts);
        for (d, &c) in per_disk.iter().enumerate() {
            assert!(c as f64 >= loads[d].floor() - 1e-9 && c as f64 <= loads[d].ceil() + 1e-9);
        }
    }

    #[test]
    fn count_too_large_rejected() {
        let d = complete_design(4, 2, 100);
        let l = crate::hg::single_copy_layout(&d, 0);
        let part = StripePartition::from_layout(&l);
        let mut counts = vec![1usize; part.stripes().len()];
        counts[0] = 3;
        assert!(matches!(
            part.assign_distinguished(&counts),
            Err(AssignError::CountTooLarge { stripe: 0, .. })
        ));
    }

    #[test]
    fn two_phase_matches_generic_guarantee() {
        // Both flow formulations deliver the same floor/ceil balance on
        // the same partitions (assignments may differ).
        for (v, k) in [(9usize, 4usize), (13, 4), (7, 3)] {
            let rl = RingLayout::for_v_k(v, k);
            let removed = rl.remove_disk(0); // ragged stripes
            let part = StripePartition::from_layout(&removed);
            let loads = part.loads(&vec![1; part.stripes().len()]);
            let a = part.assign_parity().unwrap();
            let b = part.assign_parity_two_phase().unwrap();
            for l in [&a, &b] {
                for (d, &c) in parity_counts(l).iter().enumerate() {
                    assert!(
                        c as f64 >= loads[d].floor() - 1e-9 && c as f64 <= loads[d].ceil() + 1e-9,
                        "v={v} k={k} disk {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn reassignment_does_not_change_geometry() {
        let rl = RingLayout::for_v_k(8, 3);
        let before = rl.layout();
        let after = StripePartition::from_layout(before).assign_parity().unwrap();
        assert_eq!(before.v(), after.v());
        assert_eq!(before.size(), after.size());
        assert_eq!(before.b(), after.b());
        for (s1, s2) in before.stripes().iter().zip(after.stripes()) {
            assert_eq!(s1.units(), s2.units());
        }
    }
}
