//! Steiner triple systems: `λ = 1` BIBDs with `k = 3`, existing for every
//! `v ≡ 1 or 3 (mod 6)` — the classic Bose (6t+3) and Skolem (6t+1)
//! constructions.
//!
//! The paper closes noting that "much room for improvement remains in
//! the construction of BIBDs"; STSs fill the `k = 3` column of the
//! `(v, k)` plane completely, including the many composite `v` (e.g.
//! `v = 15, 21, 33, …`) that the ring-based constructions cannot reach
//! with `λ = 1`, and give layouts of size `r = (v−1)/2` after Section 4
//! parity balancing.

use crate::block::BlockDesign;
use crate::symmetric::ConstructedBibd;

/// True iff a Steiner triple system on `v` points exists
/// (`v ≡ 1, 3 (mod 6)`, `v ≥ 3`).
pub fn sts_exists(v: usize) -> bool {
    v >= 3 && (v % 6 == 1 || v % 6 == 3)
}

/// The idempotent commutative quasigroup on `Z_n` for odd `n`:
/// `x∘y = (x+y)·(n+1)/2 mod n` (i.e. the "average" of x and y).
fn idempotent_quasigroup(n: usize) -> impl Fn(usize, usize) -> usize {
    debug_assert!(n % 2 == 1);
    let half = n.div_ceil(2);
    move |x: usize, y: usize| (x + y) * half % n
}

/// A half-idempotent commutative quasigroup on `Z_n` for even `n`:
/// relabel the addition table by σ(2i) = i, σ(2i+1) = n/2 + i, so that
/// `x∘x = x` for `x < n/2`.
fn half_idempotent_quasigroup(n: usize) -> impl Fn(usize, usize) -> usize {
    debug_assert!(n.is_multiple_of(2));
    move |x: usize, y: usize| {
        let z = (x + y) % n;
        if z.is_multiple_of(2) {
            z / 2
        } else {
            n / 2 + z / 2
        }
    }
}

/// Bose construction: an STS on `v = 6t+3` points.
///
/// Points are `Z_{2t+1} × {0,1,2}` (encoded `x + (2t+1)·level`); triples
/// are the `(x,0),(x,1),(x,2)` columns plus `{(x,j),(y,j),(x∘y,j+1)}`
/// for `x < y` under the idempotent quasigroup.
fn bose_sts(v: usize) -> BlockDesign {
    assert!(v >= 3 && v % 6 == 3, "Bose construction needs v ≡ 3 (mod 6), got {v}");
    let n = v / 3; // 2t+1, odd
    let op = idempotent_quasigroup(n);
    let pt = |x: usize, level: usize| x + n * level;
    let mut blocks = Vec::with_capacity(v * (v - 1) / 6);
    for x in 0..n {
        blocks.push(vec![pt(x, 0), pt(x, 1), pt(x, 2)]);
    }
    for j in 0..3 {
        for x in 0..n {
            for y in x + 1..n {
                blocks.push(vec![pt(x, j), pt(y, j), pt(op(x, y), (j + 1) % 3)]);
            }
        }
    }
    BlockDesign::new(v, blocks)
}

/// Skolem construction: an STS on `v = 6t+1` points.
///
/// Points are `{∞} ∪ Z_{2t} × {0,1,2}` (∞ encoded as `v−1`); triples are
/// the idempotent columns for `i < t`, the ∞-triples
/// `{∞, (t+i, j), (i, j+1)}`, and `{(x,j),(y,j),(x∘y,j+1)}` for `x < y`
/// under the half-idempotent quasigroup.
fn skolem_sts(v: usize) -> BlockDesign {
    assert!(v >= 7 && v % 6 == 1, "Skolem construction needs v ≡ 1 (mod 6), got {v}");
    let t = v / 6;
    let n = 2 * t;
    let op = half_idempotent_quasigroup(n);
    let pt = |x: usize, level: usize| x + n * level;
    let inf = v - 1;
    let mut blocks = Vec::with_capacity(v * (v - 1) / 6);
    for i in 0..t {
        blocks.push(vec![pt(i, 0), pt(i, 1), pt(i, 2)]);
    }
    for j in 0..3 {
        for i in 0..t {
            blocks.push(vec![inf, pt(t + i, j), pt(i, (j + 1) % 3)]);
        }
    }
    for j in 0..3 {
        for x in 0..n {
            for y in x + 1..n {
                blocks.push(vec![pt(x, j), pt(y, j), pt(op(x, y), (j + 1) % 3)]);
            }
        }
    }
    BlockDesign::new(v, blocks)
}

/// A Steiner triple system on `v` points (Bose or Skolem as appropriate),
/// verified, with the standard parameters `b = v(v−1)/6`, `r = (v−1)/2`,
/// `λ = 1`. Panics if `v` is not admissible.
pub fn steiner_triple_system(v: usize) -> ConstructedBibd {
    assert!(sts_exists(v), "no STS exists for v = {v} (need v ≡ 1, 3 mod 6)");
    let design = if v % 6 == 3 { bose_sts(v) } else { skolem_sts(v) };
    let params =
        design.verify_bibd().unwrap_or_else(|e| panic!("STS({v}) failed verification: {e}"));
    assert_eq!(params.b, v * (v - 1) / 6);
    assert_eq!(params.r, (v - 1) / 2);
    assert_eq!(params.lambda, 1);
    ConstructedBibd { design, params, reduction_factor: 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admissibility() {
        assert!(sts_exists(3));
        assert!(sts_exists(7));
        assert!(sts_exists(9));
        assert!(sts_exists(13));
        assert!(sts_exists(15));
        assert!(!sts_exists(5));
        assert!(!sts_exists(6));
        assert!(!sts_exists(11));
        assert!(!sts_exists(2));
    }

    #[test]
    fn quasigroup_properties() {
        for n in [3usize, 5, 7, 9, 11] {
            let op = idempotent_quasigroup(n);
            for x in 0..n {
                assert_eq!(op(x, x), x, "idempotent");
                for y in 0..n {
                    assert_eq!(op(x, y), op(y, x), "commutative");
                }
                let mut seen: Vec<usize> = (0..n).map(|y| op(x, y)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "latin row");
            }
        }
        for n in [2usize, 4, 6, 8, 10] {
            let op = half_idempotent_quasigroup(n);
            for x in 0..n / 2 {
                assert_eq!(op(x, x), x, "half-idempotent lower diagonal");
            }
            for x in 0..n {
                for y in 0..n {
                    assert_eq!(op(x, y), op(y, x));
                }
                let mut seen: Vec<usize> = (0..n).map(|y| op(x, y)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "latin row n={n}");
            }
        }
    }

    #[test]
    fn bose_small_cases() {
        for v in [3usize, 9, 15, 21, 27, 33, 39] {
            let c = steiner_triple_system(v);
            assert_eq!(c.params.lambda, 1, "v={v}");
            assert_eq!(c.params.b, v * (v - 1) / 6);
        }
    }

    #[test]
    fn skolem_small_cases() {
        for v in [7usize, 13, 19, 25, 31, 37, 43] {
            let c = steiner_triple_system(v);
            assert_eq!(c.params.lambda, 1, "v={v}");
            assert_eq!(c.params.r, (v - 1) / 2);
        }
    }

    #[test]
    fn fano_plane_is_skolem_sts_7() {
        let c = steiner_triple_system(7);
        assert_eq!(c.params.b, 7);
        assert_eq!(c.params.r, 3);
    }

    #[test]
    fn sts_meets_theorem7_bound() {
        use crate::subfield::bibd_min_blocks;
        for v in [9usize, 13, 15, 21, 25] {
            let c = steiner_triple_system(v);
            assert_eq!(c.params.b as u64, bibd_min_blocks(v as u64, 3), "λ=1 ⇒ optimally small");
        }
    }

    #[test]
    fn sts_covers_composite_v_ring_designs_cannot() {
        // v = 15 = 3·5 → M(v) = 3, ring designs give λ = 6 at best size
        // b = 210/6 = 35 after reduction; the STS gives b = 35 with λ=1…
        // the real win is v = 33 = 3·11: M(v) = 3 but λ=1 needs STS.
        let c = steiner_triple_system(33);
        assert_eq!(c.params.b, 33 * 32 / 6);
        // and v = 55 = 5·11 ≡ 1 (mod 6): M(55) = 5 but no λ=1 ring design.
        let c = steiner_triple_system(55);
        assert_eq!(c.params.lambda, 1);
    }

    #[test]
    #[should_panic(expected = "no STS")]
    fn rejects_inadmissible_v() {
        steiner_triple_system(11);
    }

    #[test]
    fn larger_systems_verify() {
        for v in [49usize, 51, 57, 63, 61, 67] {
            if sts_exists(v) {
                let c = steiner_triple_system(v);
                assert_eq!(c.params.lambda, 1, "v={v}");
            }
        }
    }
}
