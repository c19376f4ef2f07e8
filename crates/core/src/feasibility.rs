//! Feasibility analysis: which `(v, k)` pairs admit layouts of size at
//! most ~10,000 units under each construction — the paper's headline
//! motivation ("greatly increase the number of feasible layouts").
//!
//! Sizes are evaluated in closed form (no construction needed), so whole
//! `(v, k)` planes can be swept cheaply.

use crate::stairway::StairwayParams;
use pdl_algebra::{gcd, is_prime_power, lcm, min_prime_power_factor};
use pdl_design::binomial;

/// The layout-construction families compared throughout the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Complete block design + Holland–Gibson k-copy balancing.
    CompleteHG,
    /// Best of the paper's BIBD constructions (Thm 4/5/6) + k-copy balancing.
    BibdHG,
    /// Best BIBD + the minimal `lcm(b,v)/b`-copy flow balancing (Section 4).
    BibdLcmMinimal,
    /// Best BIBD, single copy, flow-assigned parity (±1 imbalance allowed).
    BibdSingleCopy,
    /// Ring-based layout (Section 3): single copy, perfect balance.
    RingBased,
    /// Stairway transformation from the nearest prime power below `v`.
    Stairway,
}

impl Method {
    /// All methods in presentation order.
    pub const ALL: [Method; 6] = [
        Method::CompleteHG,
        Method::BibdHG,
        Method::BibdLcmMinimal,
        Method::BibdSingleCopy,
        Method::RingBased,
        Method::Stairway,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::CompleteHG => "complete+HGk",
            Method::BibdHG => "bibd+HGk",
            Method::BibdLcmMinimal => "bibd+lcm",
            Method::BibdSingleCopy => "bibd+flow1",
            Method::RingBased => "ring",
            Method::Stairway => "stairway",
        }
    }
}

/// The smallest `(b, r)` our constructions achieve at `(v, k)`: the best
/// of Theorems 4, 5, 6 for prime-power `v`, plus Steiner triple systems
/// for `k = 3` on any `v ≡ 1, 3 (mod 6)`.
pub(crate) fn best_bibd_params(v: u64, k: u64) -> Option<(u64, u64)> {
    if k < 2 || k > v {
        return None;
    }
    let mut best: Option<(u64, u64)> = None;
    if is_prime_power(v) {
        let full_b = v * (v - 1);
        let mut best_f = gcd(v - 1, k - 1).max(gcd(v - 1, k)); // Thms 4 & 5
        if is_prime_power(k) && is_power_of(v, k) {
            best_f = best_f.max(k * (k - 1)); // Thm 6
        }
        best = Some((full_b / best_f, k * (v - 1) / best_f));
    }
    if k == 3 && pdl_design::sts_exists(v as usize) {
        let sts = (v * (v - 1) / 6, (v - 1) / 2);
        best = Some(match best {
            Some(prev) if prev.0 <= sts.0 => prev,
            _ => sts,
        });
    }
    best
}

/// True iff `v = k^m` for some `m ≥ 1`.
pub(crate) fn is_power_of(v: u64, k: u64) -> bool {
    pdl_design::log_exact(v, k).is_some()
}

/// Closed-form layout size (units per disk) for a method at `(v, k)`,
/// or `None` when the method is inapplicable.
pub fn layout_size(method: Method, v: u64, k: u64) -> Option<u128> {
    if v < 2 || k < 2 || k > v {
        return None;
    }
    match method {
        Method::CompleteHG => {
            // size = k · r, r = C(v-1, k-1)
            Some(k as u128 * binomial(v - 1, k - 1))
        }
        Method::BibdHG => best_bibd_params(v, k).map(|(_, r)| (k * r) as u128),
        Method::BibdLcmMinimal => {
            best_bibd_params(v, k).map(|(b, r)| (r * (lcm(b, v) / b)) as u128)
        }
        Method::BibdSingleCopy => best_bibd_params(v, k).map(|(_, r)| r as u128),
        Method::RingBased => (k <= min_prime_power_factor(v)).then(|| (k * (v - 1)) as u128),
        Method::Stairway => stairway_smallest_source(v as usize, k as usize)
            .map(|(_, p)| p.size(k as usize) as u128),
    }
}

/// Finds a source `q < v` for the stairway transformation: the largest
/// prime power `q` with `k ≤ q` admitting valid `(c, w)` parameters.
/// Larger `q` means smaller imbalance but a larger layout (more copies);
/// the size-optimal choice is the smallest such `q`.
pub fn stairway_source_for(v: usize, k: usize) -> Option<(usize, StairwayParams)> {
    if v < 3 {
        return None;
    }
    (k.max(2)..v)
        .rev()
        .filter(|&q| is_prime_power(q as u64))
        .find_map(|q| StairwayParams::solve(q, v).map(|p| (q, p)))
}

/// The size-optimal stairway source: the prime power `q ∈ [k, v)` whose
/// valid parameters minimize the layout size `k(c−1)(q−1)` — this is
/// the paper's size-vs-imbalance trade-off resolved for feasibility.
pub(crate) fn stairway_smallest_source(v: usize, k: usize) -> Option<(usize, StairwayParams)> {
    if v < 3 {
        return None;
    }
    (k.max(2)..v)
        .filter(|&q| is_prime_power(q as u64))
        .filter_map(|q| StairwayParams::solve(q, v).map(|p| (q, p)))
        .min_by_key(|(_, p)| p.size(k))
}

/// Like [`stairway_source_for`] but ignoring `k` (the Section 3.2 claim
/// concerns existence of `q`, `c`, `w` alone).
pub fn stairway_params_exist(v: usize) -> Option<(usize, StairwayParams)> {
    stairway_source_for(v, 2)
}

/// Sweeps the `(v, k)` plane and counts feasible pairs per method
/// (`size ≤ limit`). Returns `counts[method_index]` aligned with
/// [`Method::ALL`].
pub fn count_feasible(
    v_range: std::ops::RangeInclusive<u64>,
    k_max: u64,
    limit: u128,
) -> [usize; 6] {
    let mut counts = [0usize; 6];
    for v in v_range {
        for k in 2..=k_max.min(v) {
            for (mi, &m) in Method::ALL.iter().enumerate() {
                if let Some(size) = layout_size(m, v, k) {
                    if size <= limit {
                        counts[mi] += 1;
                    }
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DEFAULT_FEASIBILITY_LIMIT;

    #[test]
    fn complete_design_blows_up() {
        // v=41, k=5 complete: size = 5·C(40,4) = 457,470 — infeasible;
        // the paper's point about complete designs.
        let s = layout_size(Method::CompleteHG, 41, 5).unwrap();
        assert_eq!(s, 5 * 91390);
        assert!(s > DEFAULT_FEASIBILITY_LIMIT as u128);
        // ring-based: 5·40 = 200 — trivially feasible.
        assert_eq!(layout_size(Method::RingBased, 41, 5), Some(200));
    }

    #[test]
    fn best_bibd_prefers_larger_reduction() {
        // v=9, k=3: Thm4 g=gcd(8,2)=2, Thm5 g=gcd(8,3)=1, Thm6 k(k-1)=6.
        let (b, r) = best_bibd_params(9, 3).unwrap();
        assert_eq!((b, r), (12, 4));
        // v=13, k=4: Thm4 g=3, Thm5 g=4 → b=39, r=12.
        let (b, r) = best_bibd_params(13, 4).unwrap();
        assert_eq!((b, r), (39, 12));
    }

    #[test]
    fn single_copy_is_smallest_bibd_layout() {
        for (v, k) in [(9u64, 3u64), (13, 4), (25, 5), (27, 3)] {
            let s1 = layout_size(Method::BibdSingleCopy, v, k).unwrap();
            let sl = layout_size(Method::BibdLcmMinimal, v, k).unwrap();
            let sk = layout_size(Method::BibdHG, v, k).unwrap();
            assert!(s1 <= sl && sl <= sk, "v={v} k={k}: {s1} {sl} {sk}");
        }
    }

    #[test]
    fn sts_fills_k3_on_composite_v() {
        // v = 15 is not a prime power, but STS(15) exists: b=35, r=7.
        assert_eq!(best_bibd_params(15, 3), Some((35, 7)));
        assert_eq!(layout_size(Method::BibdSingleCopy, 15, 3), Some(7));
        // v = 33 = 3·11 likewise.
        assert_eq!(best_bibd_params(33, 3), Some((176, 16)));
        // k ≠ 3 on composite v still has no BIBD construction here.
        assert_eq!(best_bibd_params(15, 4), None);
        // inadmissible v ≡ 5 (mod 6), not a prime power: nothing.
        assert_eq!(best_bibd_params(35, 3), None);
    }

    #[test]
    fn ring_based_needs_k_le_m() {
        assert_eq!(layout_size(Method::RingBased, 12, 3), Some(33));
        assert_eq!(layout_size(Method::RingBased, 12, 4), None); // M(12)=3
        assert_eq!(layout_size(Method::RingBased, 30, 3), None); // M(30)=2
    }

    #[test]
    fn stairway_applies_where_ring_cannot() {
        // v=30: M(v)=2, ring-based limited to k=2; stairway from q=29
        // supports any k ≤ 29.
        let (q, p) = stairway_source_for(30, 5).unwrap();
        assert!(is_prime_power(q as u64) && q >= 5);
        assert_eq!(p.v, 30);
        assert!(layout_size(Method::Stairway, 30, 5).is_some());
    }

    #[test]
    fn stairway_exists_up_to_2000() {
        // Fast slice of the paper's v ≤ 10,000 claim (full check in the
        // claim_v10000 experiment binary).
        for v in 3..=2000usize {
            assert!(stairway_params_exist(v).is_some(), "no stairway params for v={v}");
        }
    }

    #[test]
    fn feasibility_counts_are_ordered() {
        // The paper's narrative: ring/stairway/single-copy methods admit
        // far more feasible layouts than complete designs.
        let counts = count_feasible(4..=100, 16, DEFAULT_FEASIBILITY_LIMIT as u128);
        let idx = |m: Method| Method::ALL.iter().position(|&x| x == m).unwrap();
        assert!(counts[idx(Method::RingBased)] > 0);
        assert!(counts[idx(Method::Stairway)] > counts[idx(Method::CompleteHG)], "{counts:?}");
        assert!(counts[idx(Method::BibdSingleCopy)] >= counts[idx(Method::BibdHG)], "{counts:?}");
    }

    #[test]
    fn method_names_unique() {
        let mut names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
