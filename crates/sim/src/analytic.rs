//! Queue-free analytic evaluation of layouts under canonical workloads —
//! closed-form cross-checks for the event simulator, and fast predictors
//! for the parameter sweeps in the experiment binaries.

use pdl_core::Layout;

/// Expected disk-IO share per disk for a uniformly random single-unit
/// *write* (read-modify-write: 2 IOs on the data disk + 2 on the parity
/// disk). Returned values sum to 4.
///
/// The disk with the largest share is the paper's Condition-2
/// bottleneck: "the disk with the most parity units will be the worst
/// IO bottleneck for any single set of writes."
fn expected_write_load(layout: &Layout) -> Vec<f64> {
    let n = layout.data_unit_count() as f64;
    let mut load = vec![0f64; layout.v()];
    for stripe in layout.stripes() {
        let data = stripe.len() - 1;
        for u in stripe.data_units() {
            load[u.disk as usize] += 2.0 / n;
        }
        load[stripe.parity_unit().disk as usize] += 2.0 * data as f64 / n;
    }
    load
}

/// Ratio of the hottest disk's expected write load to the array mean —
/// 1.0 is perfectly balanced.
pub fn write_bottleneck_ratio(layout: &Layout) -> f64 {
    let load = expected_write_load(layout);
    let mean = load.iter().sum::<f64>() / load.len() as f64;
    load.iter().cloned().fold(0.0, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_rebuild;
    use crate::model::RebuildTarget;
    use pdl_core::{raid5_layout, RingLayout};

    #[test]
    fn write_load_sums_to_four() {
        let rl = RingLayout::for_v_k(7, 3);
        let load = expected_write_load(rl.layout());
        let total: f64 = load.iter().sum();
        assert!((total - 4.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn balanced_layout_has_unit_bottleneck() {
        let rl = RingLayout::for_v_k(9, 3);
        let ratio = write_bottleneck_ratio(rl.layout());
        assert!((ratio - 1.0).abs() < 1e-9, "ring layouts are perfectly balanced: {ratio}");
    }

    #[test]
    fn imbalanced_layout_has_higher_bottleneck() {
        use pdl_core::single_copy_layout;
        use pdl_design::complete_design;
        let l = single_copy_layout(&complete_design(5, 3, 1000), 0);
        let ratio = write_bottleneck_ratio(&l);
        assert!(ratio > 1.05, "fixed-slot parity must bottleneck: {ratio}");
    }

    #[test]
    fn reconstruction_reads_formula() {
        // A completed rebuild reads k_s - 1 survivors of every stripe
        // crossing the failed disk. Ring layout: r = k(v-1) crossing
        // stripes, k-1 reads each.
        let total = |l: &Layout, f: usize| -> u64 {
            simulate_rebuild(l, f, RebuildTarget::ReadOnly, 1).rebuild_reads.iter().sum()
        };
        let rl = RingLayout::for_v_k(9, 4);
        assert_eq!(total(rl.layout(), 5), 4 * 8 * 3);
        // RAID5: every stripe crosses, v-1 reads each.
        assert_eq!(total(&raid5_layout(6, 10), 0), 10 * 5);
    }
}
