//! Randomized layouts in the spirit of Merchant & Yu's clustered RAID
//! (referenced in Section 5 as a comparison family): stripes choose `k`
//! disks (approximately) uniformly at random, subject to exact coverage.
//!
//! These satisfy the balance conditions only *in expectation*; the
//! Section 5 experiments compare their workload spread against the exact
//! and approximately-balanced combinatorial layouts.

use crate::layout::{Layout, StripeUnit};
use crate::parity_assign::{AssignError, StripePartition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Builds a random layout on `v` disks with stripe size `k` and
/// `rows · v / k` stripes (requires `k | rows·v`); parity is balanced
/// afterwards with the Section 4 flow method, isolating the *placement*
/// randomness from parity distribution exactly as the paper proposes.
///
/// Placement: each stripe picks the `k` disks with the most remaining
/// capacity (ties shuffled randomly), which guarantees exact coverage
/// for any `k ≤ v` — the classic longest-processing-time argument.
pub fn random_layout(v: usize, k: usize, rows: usize, seed: u64) -> Result<Layout, AssignError> {
    assert!(k >= 2 && k <= v, "need 2 <= k <= v");
    assert_eq!((rows * v) % k, 0, "k must divide rows·v for exact coverage");
    let b = rows * v / k;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<usize> = vec![rows; v];
    let mut next: Vec<u32> = vec![0; v];
    let mut stripes = Vec::with_capacity(b);
    for _ in 0..b {
        // Order disks by remaining capacity descending, random tiebreak.
        let mut order: Vec<usize> = (0..v).collect();
        order.shuffle(&mut rng);
        order.sort_by_key(|&d| std::cmp::Reverse(remaining[d]));
        let chosen = &order[..k];
        let units: Vec<StripeUnit> = chosen
            .iter()
            .map(|&d| {
                remaining[d] -= 1;
                let u = StripeUnit { disk: d as u32, offset: next[d] };
                next[d] += 1;
                u
            })
            .collect();
        stripes.push(units);
    }
    debug_assert!(remaining.iter().all(|&r| r == 0));
    StripePartition::new(v, rows, stripes).assign_parity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QualityReport;

    #[test]
    fn random_layout_valid_and_parity_balanced() {
        let l = random_layout(10, 4, 20, 1).unwrap();
        assert_eq!(l.v(), 10);
        assert_eq!(l.size(), 20);
        assert_eq!(l.b(), 50);
        let r = QualityReport::measure(&l);
        assert!(r.parity_nearly_balanced(), "flow assignment guarantees ±1");
        assert_eq!(l.stripe_size_range(), (4, 4));
    }

    #[test]
    fn random_layout_deterministic_per_seed() {
        let a = random_layout(8, 3, 9, 7).unwrap();
        let b = random_layout(8, 3, 9, 7).unwrap();
        assert_eq!(a.stripes().len(), b.stripes().len());
        for (x, y) in a.stripes().iter().zip(b.stripes()) {
            assert_eq!(x.units(), y.units());
        }
        let c = random_layout(8, 3, 9, 8).unwrap();
        let differs = a.stripes().iter().zip(c.stripes()).any(|(x, y)| x.units() != y.units());
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn random_workload_imbalanced_but_bounded() {
        // Random layouts have uneven pair coverage (that is the point of
        // the comparison) but workloads stay in (0, 1].
        let l = random_layout(12, 3, 30, 3).unwrap();
        let r = QualityReport::measure(&l);
        assert!(r.reconstruction_workload.1 <= 1.0);
        assert!(r.reconstruction_workload.1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn coverage_divisibility_enforced() {
        let _ = random_layout(5, 3, 7, 0);
    }
}
