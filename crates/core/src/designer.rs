//! The layout designer: one entry point that builds a concrete,
//! validated [`Layout`] for any `(method, v, k)` the library supports —
//! the programmatic face of the paper's feasibility story.

use crate::feasibility::{stairway_smallest_source, Method};
use crate::hg::{holland_gibson_layout, single_copy_layout};
use crate::layout::Layout;
use crate::parity_assign::{minimal_balanced_layout, StripePartition};
use crate::ring_layout::RingLayout;
use crate::stairway::stairway_layout;
use pdl_algebra::{is_prime_power, min_prime_power_factor};
use pdl_design::{
    complete_design, steiner_triple_system, sts_exists, theorem4_design, theorem5_design,
    theorem6_design, BlockDesign,
};

/// The best BIBD our Section 2 + Steiner constructions produce at
/// `(v, k)` (smallest `b`), or `None` when none applies.
fn best_bibd(v: usize, k: usize) -> Option<BlockDesign> {
    if k < 2 || k > v {
        return None;
    }
    let mut best: Option<BlockDesign> = None;
    let mut consider = |d: BlockDesign| {
        if best.as_ref().is_none_or(|cur| d.b() < cur.b()) {
            best = Some(d);
        }
    };
    if is_prime_power(v as u64) {
        consider(theorem4_design(v, k).design);
        consider(theorem5_design(v, k).design);
        if is_prime_power(k as u64) && pdl_design::log_exact(v as u64, k as u64).is_some() {
            consider(theorem6_design(v, k).design);
        }
    }
    if k == 3 && sts_exists(v) {
        consider(steiner_triple_system(v).design);
    }
    best
}

/// Builds the concrete layout a [`Method`] promises at `(v, k)`, or
/// `None` when the method is inapplicable. The result's size matches
/// [`crate::feasibility::layout_size`] exactly (asserted in tests).
///
/// `max_blocks` caps complete-design materialization (they explode
/// combinatorially — that is the paper's point).
pub fn build_layout(method: Method, v: usize, k: usize, max_blocks: usize) -> Option<Layout> {
    if v < 2 || k < 2 || k > v {
        return None;
    }
    match method {
        Method::CompleteHG => {
            if pdl_design::binomial(v as u64, k as u64) > max_blocks as u128 {
                return None;
            }
            Some(holland_gibson_layout(&complete_design(v, k, max_blocks)))
        }
        Method::BibdHG => best_bibd(v, k).map(|d| holland_gibson_layout(&d)),
        Method::BibdLcmMinimal => {
            best_bibd(v, k).map(|d| minimal_balanced_layout(&d).expect("flow always feasible"))
        }
        Method::BibdSingleCopy => best_bibd(v, k).map(|d| {
            StripePartition::from_layout(&single_copy_layout(&d, 0))
                .assign_parity()
                .expect("flow always feasible")
        }),
        Method::RingBased => (k as u64 <= min_prime_power_factor(v as u64))
            .then(|| RingLayout::for_v_k(v, k).layout().clone()),
        Method::Stairway => {
            let (q, _) = stairway_smallest_source(v, k)?;
            let design = pdl_design::RingDesign::for_v_k(q, k);
            stairway_layout(&design, v).ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::layout_size;
    use crate::metrics::QualityReport;

    #[test]
    fn built_sizes_match_closed_forms() {
        for v in [7usize, 9, 12, 13, 15, 16, 21, 25] {
            for k in 2..=5usize {
                if k > v {
                    continue;
                }
                for m in Method::ALL {
                    let built = build_layout(m, v, k, 100_000);
                    let predicted = layout_size(m, v as u64, k as u64);
                    match (built, predicted) {
                        (Some(l), Some(s)) => {
                            assert_eq!(l.size() as u128, s, "{} v={v} k={k}", m.name())
                        }
                        (None, None) => {}
                        (Some(l), None) => {
                            panic!(
                                "{} v={v} k={k}: built size {} but no closed form",
                                m.name(),
                                l.size()
                            )
                        }
                        (None, Some(s)) => {
                            // complete designs capped by max_blocks are the
                            // only legitimate build-refusals
                            assert_eq!(m, Method::CompleteHG, "v={v} k={k} size {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_built_layout_is_nearly_balanced() {
        for v in [9usize, 13, 15] {
            for m in Method::ALL {
                if let Some(l) = build_layout(m, v, 3, 100_000) {
                    let q = QualityReport::measure(&l);
                    assert!(q.parity_nearly_balanced(), "{} v={v}: {:?}", m.name(), q.parity_units);
                }
            }
        }
    }

    #[test]
    fn best_bibd_picks_smallest() {
        // v=9, k=3: Theorem 6 and STS(9) both give b=12.
        assert_eq!(best_bibd(9, 3).unwrap().b(), 12);
        // v=15, k=3: only STS applies → b=35.
        assert_eq!(best_bibd(15, 3).unwrap().b(), 35);
        // v=13, k=4: Theorem 5 wins with 39 < 52.
        assert_eq!(best_bibd(13, 4).unwrap().b(), 39);
        // v=14, k=4: nothing applies.
        assert!(best_bibd(14, 4).is_none());
    }

    #[test]
    fn inapplicable_methods_return_none() {
        assert!(build_layout(Method::RingBased, 30, 5, 1000).is_none());
        assert!(build_layout(Method::BibdHG, 14, 4, 1000).is_none());
        assert!(build_layout(Method::Stairway, 4, 4, 1000).is_none());
    }
}
