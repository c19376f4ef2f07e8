//! Holland & Gibson's Conditions 5 and 6 — "Large Write Optimization"
//! and "Maximal Parallelism" — which the paper sets aside and Stockmeyer
//! (IBM RJ-9915, 1994) later analyzed for these same layouts. They
//! depend on the *logical ordering* of data units, so they are metrics
//! of a layout **plus** its [`StripeMap`] — the map the block store
//! serves, so a P+Q array's order (Q units skipped) scores here too
//! when the map is built with its slot pairs.
//!
//! * Condition 5: a write of one stripe's worth of logically contiguous
//!   data units should cover a full stripe, so parity is computed from
//!   the new data alone (no pre-reads).
//! * Condition 6: a read of `v` logically contiguous units should engage
//!   all `v` disks.

use crate::layout::Layout;
use crate::mapping::StripeMap;

/// Condition 5 score: the fraction of aligned logical groups of one
/// widest stripe's data units (`k−1` under single parity, `k−2` under
/// P+Q) that lie entirely within a single stripe. 1.0 means every such
/// write is a full-stripe write.
pub fn large_write_score(layout: &Layout, mapper: &StripeMap) -> f64 {
    let widest = (0..layout.b()).map(|s| mapper.stripe_data_range(s).1).max();
    let group = widest.unwrap_or(0).max(1);
    let n = mapper.data_units_per_copy();
    let groups = n / group;
    if groups == 0 {
        return 1.0;
    }
    let mut aligned = 0usize;
    for g in 0..groups {
        let first = mapper.stripe_of(g * group);
        if (1..group).all(|i| mapper.stripe_of(g * group + i) == first) {
            aligned += 1;
        }
    }
    aligned as f64 / groups as f64
}

/// Condition 6 score: over all aligned windows of `v` consecutive
/// logical data units, the mean number of distinct disks touched,
/// divided by `v`. 1.0 means any such read keeps every arm busy.
pub fn parallelism_score(layout: &Layout, mapper: &StripeMap) -> f64 {
    let v = layout.v();
    let n = mapper.data_units_per_copy();
    if n < v {
        return 0.0;
    }
    let windows = n / v;
    let mut total_distinct = 0usize;
    let mut seen = vec![usize::MAX; v];
    for w in 0..windows {
        for i in 0..v {
            let d = mapper.locate(w * v + i).disk as usize;
            if seen[d] != w {
                seen[d] = w;
                total_distinct += 1;
            }
        }
    }
    total_distinct as f64 / (windows * v) as f64
}

/// Worst-case variant of Condition 6: the minimum distinct-disk count
/// over all aligned `v`-unit windows, divided by `v`.
pub fn parallelism_worst(layout: &Layout, mapper: &StripeMap) -> f64 {
    let v = layout.v();
    let n = mapper.data_units_per_copy();
    if n < v {
        return 0.0;
    }
    let windows = n / v;
    let mut worst = v;
    let mut seen = vec![usize::MAX; v];
    for w in 0..windows {
        let mut distinct = 0usize;
        for i in 0..v {
            let d = mapper.locate(w * v + i).disk as usize;
            if seen[d] != w {
                seen[d] = w;
                distinct += 1;
            }
        }
        worst = worst.min(distinct);
    }
    worst as f64 / v as f64
}

/// Bundle of the Condition 5/6 scores for reporting.
#[derive(Clone, Copy, Debug)]
pub struct ParallelismReport {
    /// Condition 5: aligned full-stripe-write fraction.
    pub large_write: f64,
    /// Condition 6: mean distinct-disk fraction per v-unit window.
    pub parallelism_mean: f64,
    /// Condition 6: worst-case distinct-disk fraction.
    pub parallelism_worst: f64,
}

impl ParallelismReport {
    /// Measures both conditions for a single-parity layout.
    pub fn measure(layout: &Layout) -> Self {
        let mapper = StripeMap::new(layout, None);
        ParallelismReport {
            large_write: large_write_score(layout, &mapper),
            parallelism_mean: parallelism_score(layout, &mapper),
            parallelism_worst: parallelism_worst(layout, &mapper),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hg::{holland_gibson_layout, raid5_layout};
    use crate::ring_layout::RingLayout;
    use pdl_design::complete_design;

    #[test]
    fn raid5_is_ideal_on_both_conditions() {
        // Full-width stripes + stripe-ordered addressing: every (v-1)-unit
        // aligned write is a full stripe; every v-unit read touches… well,
        // v-1 data disks per stripe row plus spill-over. Large-write must
        // be exactly 1.
        let l = raid5_layout(5, 10);
        let r = ParallelismReport::measure(&l);
        assert_eq!(r.large_write, 1.0);
        assert!(r.parallelism_mean > 0.9, "{:?}", r);
    }

    #[test]
    fn ring_layout_scores() {
        let rl = RingLayout::for_v_k(9, 4);
        let r = ParallelismReport::measure(rl.layout());
        // stripe-ordered logical addressing makes aligned k-1 groups
        // coincide with stripes exactly
        assert_eq!(r.large_write, 1.0);
        assert!(r.parallelism_mean > 0.5, "{:?}", r);
        assert!(r.parallelism_worst <= r.parallelism_mean);
        // Under P+Q a stripe's worth is its k-2 data units.
        let dp = crate::DoubleParityLayout::new(rl.layout().clone()).unwrap();
        let pq = StripeMap::new(dp.layout(), Some(dp.all_parity_slots()));
        assert_eq!(large_write_score(dp.layout(), &pq), 1.0);
    }

    #[test]
    fn hg_layout_scores() {
        let l = holland_gibson_layout(&complete_design(5, 3, 100));
        let r = ParallelismReport::measure(&l);
        assert_eq!(r.large_write, 1.0);
        assert!(r.parallelism_mean > 0.4);
    }

    #[test]
    fn mixed_stripe_sizes_degrade_large_write() {
        // Theorem 8 output has stripes of size k and k-1: aligned groups
        // drift out of stripe alignment.
        let l = RingLayout::for_v_k(9, 4).remove_disk(0);
        let r = ParallelismReport::measure(&l);
        assert!(r.large_write < 1.0, "{:?}", r);
        assert!(r.large_write > 0.0);
    }

    #[test]
    fn scores_bounded() {
        for (v, k) in [(5usize, 3usize), (8, 4), (13, 4)] {
            let rl = RingLayout::for_v_k(v, k);
            let r = ParallelismReport::measure(rl.layout());
            for x in [r.large_write, r.parallelism_mean, r.parallelism_worst] {
                assert!((0.0..=1.0).contains(&x), "v={v} k={k}: {r:?}");
            }
        }
    }
}
