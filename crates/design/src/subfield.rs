//! Subfield-generator BIBDs (Section 2.2.2, Theorem 6) and the Theorem 7
//! size lower bound.
//!
//! When `k` is a prime power and `v = k^m`, taking the generators to be
//! the subfield `GF(k) ⊂ GF(v)` gives a redundancy factor of exactly
//! `k(k−1)`; removing it yields a `λ = 1` BIBD with
//! `b = v(v−1)/(k(k−1))`, `r = (v−1)/(k−1)` — optimally small by
//! Theorem 7.

use crate::reduce::reduce_by_factor;
use crate::ring_design::RingDesign;
use crate::symmetric::ConstructedBibd;
use pdl_algebra::{gcd, prime_power};
use pdl_algebra::{FiniteField, FiniteRing};

/// Theorem 7: any BIBD on `v` elements with block size `k` has
/// `b ≥ v(v−1) / gcd(v(v−1), k(k−1))`.
pub fn bibd_min_blocks(v: u64, k: u64) -> u64 {
    assert!(v >= 2 && k >= 2);
    v * (v - 1) / gcd(v * (v - 1), k * (k - 1))
}

/// Returns `Some(m)` if `v = k^m` for some `m ≥ 1`.
pub fn log_exact(v: u64, k: u64) -> Option<u32> {
    if k < 2 {
        return None;
    }
    let mut acc = 1u64;
    let mut m = 0u32;
    while acc < v {
        acc = acc.checked_mul(k)?;
        m += 1;
    }
    (acc == v && m >= 1).then_some(m)
}

/// Theorem 6: for prime-power `k` and `v = k^m`, the λ=1 BIBD with
/// `b = v(v−1)/(k(k−1))` and `r = (v−1)/(k−1)`, built by taking the
/// generators to be the subfield `GF(k)` of `GF(v)`.
pub fn theorem6_design(v: usize, k: usize) -> ConstructedBibd {
    assert!(prime_power(k as u64).is_some(), "k = {k} must be a prime power");
    let m = log_exact(v as u64, k as u64)
        .unwrap_or_else(|| panic!("v = {v} must be a power of k = {k}"));
    let _ = m;
    let field = FiniteField::new(v as u64);
    let gens = field.subfield(k); // sorted ⇒ gens[0] = 0
    debug_assert_eq!(gens[0], 0);
    let full = RingDesign::new(FiniteRing::Field(field), gens).to_block_design();
    let factor = k * (k - 1);
    let design = reduce_by_factor(&full, factor)
        .unwrap_or_else(|| panic!("v={v}, k={k}: expected redundancy factor {factor}"));
    let params = design
        .verify_bibd()
        .unwrap_or_else(|e| panic!("v={v}, k={k}: reduced design not a BIBD: {e}"));
    assert_eq!(params.b, v * (v - 1) / factor, "Theorem 6 b");
    assert_eq!(params.r, (v - 1) / (k - 1), "Theorem 6 r");
    assert_eq!(params.lambda, 1, "Theorem 6 λ");
    ConstructedBibd { design, params, reduction_factor: factor }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_examples() {
        // v=7, k=3: 42/gcd(42,6) = 7 (the Fano plane meets it).
        assert_eq!(bibd_min_blocks(7, 3), 7);
        // v=9, k=3: 72/gcd(72,6) = 12 (affine plane of order 3).
        assert_eq!(bibd_min_blocks(9, 3), 12);
        // v=16, k=4: 240/gcd(240,12) = 20.
        assert_eq!(bibd_min_blocks(16, 4), 20);
    }

    #[test]
    fn log_exact_works() {
        assert_eq!(log_exact(16, 4), Some(2));
        assert_eq!(log_exact(64, 4), Some(3));
        assert_eq!(log_exact(8, 2), Some(3));
        assert_eq!(log_exact(12, 4), None);
        assert_eq!(log_exact(4, 4), Some(1));
        assert_eq!(log_exact(10, 1), None);
    }

    #[test]
    fn theorem6_examples_meet_lower_bound() {
        for (v, k) in [
            (4usize, 2usize),
            (8, 2),
            (16, 2),
            (9, 3),
            (27, 3),
            (16, 4),
            (64, 4),
            (25, 5),
            (64, 8),
            (81, 9),
        ] {
            let c = theorem6_design(v, k);
            assert_eq!(c.params.lambda, 1, "v={v} k={k}");
            assert_eq!(
                c.params.b as u64,
                bibd_min_blocks(v as u64, k as u64),
                "v={v} k={k}: must be optimally small"
            );
            assert_eq!(c.reduction_factor, k * (k - 1));
        }
    }

    #[test]
    fn theorem6_generalizes_prime_k() {
        // Pietracaprina–Preparata covered prime k; Theorem 6 allows prime
        // powers: k = 4 (= 2²), k = 9 (= 3²), k = 8 (= 2³).
        for (v, k) in [(16usize, 4usize), (81, 9), (64, 8)] {
            let c = theorem6_design(v, k);
            assert_eq!(c.params.r, (v - 1) / (k - 1));
        }
    }

    #[test]
    fn theorem6_v_equals_k() {
        // m = 1: a single block containing the whole field.
        let c = theorem6_design(5, 5);
        assert_eq!(c.params.b, 1);
        assert_eq!(c.params.r, 1);
    }

    #[test]
    #[should_panic(expected = "power of k")]
    fn theorem6_rejects_bad_v() {
        theorem6_design(12, 4);
    }

    #[test]
    #[should_panic(expected = "prime power")]
    fn theorem6_rejects_composite_k() {
        theorem6_design(36, 6);
    }

    #[test]
    fn every_construction_respects_theorem7() {
        use crate::symmetric::{theorem4_design, theorem5_design};
        for q in [5usize, 7, 8, 9, 13] {
            for k in 2..q {
                let lb = bibd_min_blocks(q as u64, k as u64) as usize;
                assert!(theorem4_design(q, k).params.b >= lb, "thm4 q={q} k={k}");
                assert!(theorem5_design(q, k).params.b >= lb, "thm5 q={q} k={k}");
            }
        }
    }
}
