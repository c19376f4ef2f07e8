//! Redundancy removal (Section 2.2).
//!
//! A ring-based design may contain the same tuple many times. If every
//! distinct tuple's multiplicity is a multiple of `f`, keeping `1/f` of
//! each yields a BIBD with `b`, `r`, `λ` all divided by `f`.

use crate::block::BlockDesign;

/// Reduces by exactly the factor `f`, if every multiplicity allows it.
///
/// The Theorem 4/5/6 constructions guarantee specific factors; reducing
/// by exactly that factor reproduces the paper's exact designs even when
/// more reduction happens to be possible.
pub fn reduce_by_factor(design: &BlockDesign, f: usize) -> Option<BlockDesign> {
    assert!(f >= 1);
    if f == 1 {
        return Some(design.clone());
    }
    let mult = design.block_multiplicities();
    if mult.values().any(|&m| m % f != 0) {
        return None;
    }
    let blocks =
        mult.into_iter().flat_map(|(block, m)| std::iter::repeat_n(block, m / f)).collect();
    Some(BlockDesign::new(design.v(), blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_design::RingDesign;

    #[test]
    fn reduce_triple_copies() {
        let base = BlockDesign::new(4, vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]]);
        let tripled = base.replicate(3);
        let reduced = reduce_by_factor(&tripled, 3).unwrap();
        assert_eq!(reduced.b(), 4);
        assert_eq!(reduced.block_multiplicities(), base.block_multiplicities());
    }

    #[test]
    fn reduce_preserves_bibd() {
        // Full ring design on GF(5), k=3 has λ=6; reducing by the
        // Theorem 4 factor gcd(v-1, k-1) = 2 keeps balance.
        let d = RingDesign::for_v_k(5, 3).to_block_design();
        let before = d.verify_bibd().unwrap();
        let f = 2;
        let after = reduce_by_factor(&d, f).unwrap().verify_bibd().unwrap();
        assert_eq!(before.b, after.b * f);
        assert_eq!(before.r, after.r * f);
        assert_eq!(before.lambda, after.lambda * f);
    }

    #[test]
    fn reduce_by_factor_exact() {
        let base = BlockDesign::new(3, vec![vec![0, 1], vec![1, 2]]);
        let x6 = base.replicate(6);
        let r2 = reduce_by_factor(&x6, 2).unwrap();
        assert_eq!(r2.b(), 6);
        let r3 = reduce_by_factor(&x6, 3).unwrap();
        assert_eq!(r3.b(), 4);
        assert!(reduce_by_factor(&x6, 4).is_none());
        assert_eq!(reduce_by_factor(&x6, 1).unwrap().b(), 12);
    }

    #[test]
    fn mixed_multiplicity_gcd() {
        // multiplicities 2 and 4 → their gcd 2 is the largest factor
        let mut blocks = vec![vec![0usize, 1]; 2];
        blocks.extend(vec![vec![1usize, 2]; 4]);
        let d = BlockDesign::new(3, blocks);
        assert_eq!(reduce_by_factor(&d, 2).unwrap().b(), 3);
        assert!(reduce_by_factor(&d, 4).is_none());
    }
}
