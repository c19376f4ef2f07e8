//! Distributed sparing (Section 5 open problem): reserve one *spare*
//! unit per stripe, spread evenly across the array with the generalized
//! Theorem 14 flow, so a failed disk can be rebuilt in place without a
//! dedicated hot spare.
//!
//! This realizes the paper's closing suggestion that "the space used to
//! reconstruct a failed disk is distributed throughout the array in a
//! way similar to that in which the parity is distributed".

use crate::layout::{Layout, StripeUnit};
use crate::parity_assign::{AssignError, StripePartition};

/// A layout augmented with one spare unit per stripe, balanced across
/// disks to within one unit.
#[derive(Clone, Debug)]
pub struct SparedLayout {
    layout: Layout,
    /// `spare_slot[s]` indexes into stripe `s`'s unit list.
    spare_slot: Vec<usize>,
}

impl SparedLayout {
    /// Chooses spares for an existing layout: among each stripe's
    /// *data* units (the parity unit keeps its role), one is reserved as
    /// spare, with per-disk spare counts balanced to `⌊L⌋/⌈L⌉` by the
    /// generalized flow assignment.
    pub fn new(layout: Layout) -> Result<Self, AssignError> {
        // Build a partition over the stripes with the parity unit deleted,
        // so the flow chooses spares among data units only.
        let stripped: Vec<Vec<StripeUnit>> =
            layout.stripes().iter().map(|s| s.data_units().collect()).collect();
        let part = StripePartition::new(layout.v(), layout.size(), stripped);
        let counts = vec![1usize; layout.b()];
        let chosen = part.assign_distinguished(&counts)?;
        // Translate slot-in-data-units back to slot-in-full-stripe.
        let spare_slot = layout
            .stripes()
            .iter()
            .zip(&chosen)
            .map(|(stripe, slots)| {
                let data_idx = slots[0];
                let p = stripe.parity_slot();
                if data_idx >= p {
                    data_idx + 1
                } else {
                    data_idx
                }
            })
            .collect();
        Ok(SparedLayout { layout, spare_slot })
    }

    /// The underlying layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The spare unit of stripe `s`.
    pub(crate) fn spare_unit(&self, s: usize) -> StripeUnit {
        self.layout.stripes()[s].units()[self.spare_slot[s]]
    }

    /// Spare units per disk.
    pub fn spare_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.layout.v()];
        for s in 0..self.layout.b() {
            counts[self.spare_unit(s).disk as usize] += 1;
        }
        counts
    }

    /// Plan the reconstruction of `failed`: for each stripe crossing the
    /// failed disk, the lost unit is rebuilt into that stripe's spare
    /// unit. When the lost unit *was* the stripe's spare, nothing needs
    /// rebuilding but the stripe has lost its spare capacity; those
    /// stripes are reported in [`RebuildPlan::stranded`].
    pub fn rebuild_plan(&self, failed: usize) -> RebuildPlan {
        let mut targets = Vec::new();
        let mut stranded = Vec::new();
        for (si, stripe) in self.layout.stripes().iter().enumerate() {
            let Some(slot) = stripe.units().iter().position(|u| u.disk as usize == failed) else {
                continue;
            };
            if slot == self.spare_slot[si] {
                stranded.push(si);
            } else {
                targets.push((si, self.spare_unit(si)));
            }
        }
        RebuildPlan { failed, targets, stranded }
    }
}

/// The per-stripe rebuild targets for a failed disk.
#[derive(Clone, Debug)]
pub struct RebuildPlan {
    /// The failed disk.
    pub failed: usize,
    /// `(stripe, spare unit)` pairs receiving reconstructed units.
    pub targets: Vec<(usize, StripeUnit)>,
    /// Stripes whose spare was on the failed disk: nothing to rebuild,
    /// but their spare capacity is gone until re-provisioned.
    pub stranded: Vec<usize>,
}

impl RebuildPlan {
    /// Rebuild writes per disk — the distributed analogue of the single
    /// spare disk's write bottleneck.
    pub fn write_counts(&self, v: usize) -> Vec<usize> {
        let mut counts = vec![0usize; v];
        for (_, u) in &self.targets {
            counts[u.disk as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_layout::RingLayout;

    fn spared(v: usize, k: usize) -> SparedLayout {
        SparedLayout::new(RingLayout::for_v_k(v, k).layout().clone()).unwrap()
    }

    #[test]
    fn spares_balanced_within_one() {
        let s = spared(9, 4);
        let counts = s.spare_counts();
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), s.layout().b());
    }

    #[test]
    fn spare_is_never_the_parity_unit() {
        let s = spared(7, 3);
        for (si, stripe) in s.layout().stripes().iter().enumerate() {
            assert_ne!(s.spare_unit(si), stripe.parity_unit());
        }
    }

    #[test]
    fn roles_partition_units() {
        // Every unit is data, its stripe's parity, or its stripe's spare.
        let s = spared(8, 3);
        let l = s.layout();
        let (data, parity, spare) = (0u8, 1u8, 2u8);
        let mut role = vec![vec![data; l.size()]; l.v()];
        for (si, stripe) in l.stripes().iter().enumerate() {
            let (p, sp) = (stripe.parity_unit(), s.spare_unit(si));
            role[p.disk as usize][p.offset as usize] = parity;
            role[sp.disk as usize][sp.offset as usize] = spare;
        }
        let count = |r: u8| role.iter().flatten().filter(|&&x| x == r).count();
        assert_eq!(count(parity), l.b(), "one parity per stripe");
        assert_eq!(count(spare), l.b(), "one spare per stripe");
        assert_eq!(count(data) + count(parity) + count(spare), l.v() * l.size());
    }

    #[test]
    fn rebuild_plan_covers_failed_disk() {
        let s = spared(9, 4);
        let l = s.layout();
        let failed = 3;
        let plan = s.rebuild_plan(failed);
        let crossing = l.stripes().iter().filter(|st| st.crosses(failed)).count();
        assert_eq!(plan.targets.len() + plan.stranded.len(), crossing);
        // rebuild writes never land on the failed disk
        assert!(plan.targets.iter().all(|(_, u)| u.disk as usize != failed));
        // write load is spread: no disk takes more than a ceil share + slack
        let wc = plan.write_counts(l.v());
        let max = *wc.iter().max().unwrap();
        let total: usize = wc.iter().sum();
        assert!(max <= total.div_ceil(l.v() - 1) + 2, "writes {wc:?}");
    }

    #[test]
    fn stranded_spares_are_rare() {
        // Spares are balanced, so ~b/v stripes have their spare on any
        // given disk; only those crossing the failed disk strand.
        let s = spared(13, 4);
        let plan = s.rebuild_plan(0);
        let b = s.layout().b();
        assert!(plan.stranded.len() <= b / s.layout().v() + 2);
    }
}
