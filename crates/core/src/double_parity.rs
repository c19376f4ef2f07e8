//! Double parity (P+Q) declustering — the paper's own suggested
//! extension of Theorem 14: "a natural extension that applies to the
//! more general problem of selecting some number of distinguished units
//! (perhaps more than one) from each stripe, and balancing them among
//! the disks."
//!
//! With two distinguished units per stripe (P and Q, e.g. XOR +
//! Reed–Solomon), the array tolerates any two simultaneous disk
//! failures; the generalized flow assignment balances the combined
//! parity load to within one unit per disk.

use crate::layout::{Layout, StripeUnit};
use crate::parity_assign::{AssignError, StripePartition};

/// A layout where every stripe carries two distinguished parity units
/// (P and Q), both populations balanced across disks by the generalized
/// Theorem 14 flow.
#[derive(Clone, Debug)]
pub struct DoubleParityLayout {
    layout: Layout,
    /// `(p_slot, q_slot)` per stripe, indices into the stripe's units.
    parity_slots: Vec<(usize, usize)>,
}

impl DoubleParityLayout {
    /// Chooses P and Q units for every stripe of `layout` (the layout's
    /// own single-parity choice is ignored). Stripes need at least 3
    /// units to keep one data unit; smaller stripes are rejected.
    pub fn new(layout: Layout) -> Result<Self, AssignError> {
        if let Some(bad) = layout.stripes().iter().position(|s| s.len() < 3) {
            return Err(AssignError::CountTooLarge {
                stripe: bad,
                requested: 2,
                size: layout.stripes()[bad].len() - 1,
            });
        }
        let part = StripePartition::from_layout(&layout);
        let counts = vec![2usize; layout.b()];
        let chosen = part.assign_distinguished(&counts)?;
        let parity_slots = chosen
            .into_iter()
            .map(|slots| {
                debug_assert_eq!(slots.len(), 2);
                (slots[0], slots[1])
            })
            .collect();
        Ok(DoubleParityLayout { layout, parity_slots })
    }

    /// Rebuilds a double-parity layout from a previously chosen slot
    /// assignment (e.g. one persisted by a store's metadata), validating
    /// that every stripe gets two distinct slots on distinct disks.
    /// Unlike [`DoubleParityLayout::new`] this does not re-run the flow
    /// assignment, so the exact on-disk parity placement round-trips.
    pub fn from_parts(
        layout: Layout,
        parity_slots: Vec<(usize, usize)>,
    ) -> Result<Self, AssignError> {
        if parity_slots.len() != layout.b() {
            return Err(AssignError::InvalidLayout(format!(
                "{} slot pairs for {} stripes",
                parity_slots.len(),
                layout.b()
            )));
        }
        for (s, &(p, q)) in parity_slots.iter().enumerate() {
            let units = layout.stripes()[s].units();
            if p >= units.len() || q >= units.len() {
                return Err(AssignError::InvalidLayout(format!(
                    "stripe {s}: parity slot out of range ({p}, {q}) in a {}-unit stripe",
                    units.len()
                )));
            }
            if p == q || units[p].disk == units[q].disk {
                return Err(AssignError::InvalidLayout(format!(
                    "stripe {s}: P and Q must be distinct units on distinct disks"
                )));
            }
        }
        Ok(DoubleParityLayout { layout, parity_slots })
    }

    /// The underlying layout geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The `(P, Q)` units of stripe `s`.
    pub(crate) fn parity_units(&self, s: usize) -> (StripeUnit, StripeUnit) {
        let (p, q) = self.parity_slots[s];
        let units = self.layout.stripes()[s].units();
        (units[p], units[q])
    }

    /// The `(P, Q)` slot pairs of every stripe, in stripe order — the
    /// serializable form of the assignment (see
    /// [`DoubleParityLayout::from_parts`]).
    pub fn all_parity_slots(&self) -> &[(usize, usize)] {
        &self.parity_slots
    }

    /// Combined parity units per disk (P + Q together).
    pub fn parity_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.layout.v()];
        for s in 0..self.layout.b() {
            let (p, q) = self.parity_units(s);
            counts[p.disk as usize] += 1;
            counts[q.disk as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::UnitRole;
    use crate::ring_layout::RingLayout;

    fn dp(v: usize, k: usize) -> DoubleParityLayout {
        DoubleParityLayout::new(RingLayout::for_v_k(v, k).layout().clone()).unwrap()
    }

    #[test]
    fn parity_balanced_within_one() {
        for (v, k) in [(9usize, 4usize), (13, 4), (16, 5), (25, 6)] {
            let d = dp(v, k);
            let counts = d.parity_counts();
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "v={v} k={k}: {counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), 2 * d.layout().b());
        }
    }

    #[test]
    fn p_and_q_are_distinct_units() {
        let d = dp(9, 4);
        for s in 0..d.layout().b() {
            let (p, q) = d.parity_units(s);
            assert_ne!(p, q);
            assert_ne!(p.disk, q.disk, "P and Q must sit on different disks");
        }
    }

    #[test]
    fn overhead_is_two_over_k() {
        let d = dp(13, 4);
        for c in d.parity_counts() {
            let o = c as f64 / d.layout().size() as f64;
            assert!((o - 2.0 / 4.0).abs() < 0.05, "overhead {o}");
        }
    }

    #[test]
    fn roles_count_correctly() {
        let d = dp(9, 4);
        let l = d.layout();
        let parity = (0..l.v())
            .flat_map(|disk| (0..l.size()).map(move |off| (disk, off)))
            .filter(|&(disk, off)| d.role(disk, off) == UnitRole::Parity)
            .count();
        assert_eq!(parity, 2 * l.b());
    }

    #[test]
    fn from_parts_roundtrips_assignment() {
        let d = dp(9, 4);
        let slots = d.all_parity_slots().to_vec();
        let back = DoubleParityLayout::from_parts(d.layout().clone(), slots.clone()).unwrap();
        assert_eq!(back.all_parity_slots(), &slots[..]);
        for s in 0..d.layout().b() {
            assert_eq!(back.parity_units(s), d.parity_units(s));
        }
    }

    #[test]
    fn from_parts_rejects_bad_slots() {
        let d = dp(9, 4);
        let layout = d.layout().clone();
        // Wrong count.
        assert!(DoubleParityLayout::from_parts(layout.clone(), vec![(0, 1)]).is_err());
        // P == Q.
        let bad: Vec<_> = (0..layout.b()).map(|_| (0usize, 0usize)).collect();
        assert!(DoubleParityLayout::from_parts(layout.clone(), bad).is_err());
        // Out of range.
        let bad: Vec<_> = (0..layout.b()).map(|_| (0usize, 99usize)).collect();
        assert!(DoubleParityLayout::from_parts(layout, bad).is_err());
    }

    #[test]
    fn stripes_too_small_rejected() {
        let rl = RingLayout::for_v_k(5, 2); // k=2 cannot hold P+Q+data
        assert!(DoubleParityLayout::new(rl.layout().clone()).is_err());
    }

    impl DoubleParityLayout {
        /// Role of a unit under double parity: the oracle the tests here
        /// and the map's tests check against.
        pub(crate) fn role(&self, disk: usize, offset: usize) -> UnitRole {
            let r = self.layout.unit_ref(disk, offset);
            let (p, q) = self.parity_slots[r.stripe as usize];
            if r.slot as usize == p || r.slot as usize == q {
                UnitRole::Parity
            } else {
                UnitRole::Data
            }
        }
    }
}
