//! Ring-based block designs (Section 2.1, Theorems 1 and 2).
//!
//! Given a finite commutative ring `R` with unit and a generator set
//! `g_0, …, g_{k-1}` (pairwise differences invertible), the design's
//! tuples are `{x + y·(g_i − g_0) : i}` over all pairs `(x, y)` with
//! `y ≠ 0`. Theorem 1: this is a BIBD with `b = v(v−1)`, `r = k(v−1)`,
//! `λ = k(k−1)`, where `v = |R|`.

use crate::block::BlockDesign;
use pdl_algebra::min_prime_power_factor;
use pdl_algebra::{FiniteRing, Ring};

/// A ring-based block design, retaining the `(x, y)` tuple indexing that
/// the layout constructions of Section 3 rely on.
#[derive(Clone, Debug)]
pub struct RingDesign {
    ring: FiniteRing,
    generators: Vec<usize>,
    /// `blocks[pair_index(x, y)][i]` = the `g_i`-th element of tuple `(x, y)`.
    blocks: Vec<Vec<usize>>,
}

impl RingDesign {
    /// Builds the design for `ring` and `generators`.
    ///
    /// Panics if `generators` is not a valid generator set. The first
    /// generator is `g_0`; the Section 3 layouts additionally want
    /// `g_0 = 0`, which [`FiniteRing::lemma3_generators`] guarantees.
    pub(crate) fn new(ring: FiniteRing, generators: Vec<usize>) -> Self {
        assert!(generators.len() >= 2, "need at least two generators");
        assert!(ring.is_generator_set(&generators), "pairwise generator differences must be units");
        let v = ring.order();
        let g0 = generators[0];
        let diffs: Vec<usize> = generators.iter().map(|&g| ring.sub(g, g0)).collect();
        let mut blocks = Vec::with_capacity(v * (v - 1));
        for x in 0..v {
            for y in 1..v {
                blocks.push(diffs.iter().map(|&d| ring.add(x, ring.mul(y, d))).collect());
            }
        }
        RingDesign { ring, generators, blocks }
    }

    /// Convenience: the design on the Lemma 3 ring for `v` with the
    /// canonical size-`k` generator set. Panics if `k > M(v)` (Theorem 2).
    pub fn for_v_k(v: usize, k: usize) -> Self {
        let ring = FiniteRing::lemma3_ring(v as u64);
        let gens = ring.lemma3_generators(k);
        RingDesign::new(ring, gens)
    }

    /// Ground-set size `v` (= ring order = number of disks).
    pub fn v(&self) -> usize {
        self.ring.order()
    }

    /// Tuple size `k`.
    pub fn k(&self) -> usize {
        self.generators.len()
    }

    /// Number of tuples `b = v(v−1)`.
    pub fn b(&self) -> usize {
        self.blocks.len()
    }

    /// Flat index of the tuple for pair `(x, y)`, `y ∈ 1..v`.
    fn pair_index(&self, x: usize, y: usize) -> usize {
        let v = self.v();
        debug_assert!(x < v && y >= 1 && y < v);
        x * (v - 1) + (y - 1)
    }

    /// The pair `(x, y)` of the tuple at flat index `idx` (tuples are in
    /// `(x, y)` order, `y ∈ 1..v`).
    pub fn index_pair(&self, idx: usize) -> (usize, usize) {
        let v = self.v();
        (idx / (v - 1), idx % (v - 1) + 1)
    }

    /// The tuple for pair `(x, y)`; element `i` is the `g_i`-th element.
    pub fn block(&self, x: usize, y: usize) -> &[usize] {
        &self.blocks[self.pair_index(x, y)]
    }

    /// Forgets the ring structure, yielding a plain [`BlockDesign`].
    pub fn to_block_design(&self) -> BlockDesign {
        BlockDesign::new(self.v(), self.blocks.clone())
    }
}

/// Theorem 2: a ring-based design on a `v`-set with tuples of size `k`
/// exists iff `k ≤ M(v)`, the minimum prime-power factor of `v`.
pub fn ring_design_exists(v: u64, k: u64) -> bool {
    v >= 2 && k >= 2 && k <= min_prime_power_factor(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_algebra::FiniteField;

    #[test]
    fn theorem1_parameters_field() {
        for (q, k) in [(4usize, 3usize), (5, 3), (7, 4), (8, 5), (9, 4), (13, 6)] {
            let d = RingDesign::for_v_k(q, k);
            let p = d.to_block_design().verify_bibd().unwrap();
            assert_eq!(p.v, q);
            assert_eq!(p.b, q * (q - 1), "b=v(v-1) for q={q}");
            assert_eq!(p.r, k * (q - 1), "r=k(v-1) for q={q}");
            assert_eq!(p.k, k);
            assert_eq!(p.lambda, k * (k - 1), "λ=k(k-1) for q={q}");
        }
    }

    #[test]
    fn theorem1_parameters_product_ring() {
        // v = 12 = 4·3, M(v) = 3: k up to 3 works.
        let d = RingDesign::for_v_k(12, 3);
        let p = d.to_block_design().verify_bibd().unwrap();
        assert_eq!((p.v, p.b, p.r, p.k, p.lambda), (12, 132, 33, 3, 6));

        // v = 15 = 3·5, M(v) = 3.
        let d = RingDesign::for_v_k(15, 3);
        let p = d.to_block_design().verify_bibd().unwrap();
        assert_eq!((p.v, p.b, p.r, p.k, p.lambda), (15, 210, 42, 3, 6));
    }

    #[test]
    fn theorem1_parameters_zn() {
        // Z_7 is the field GF(7), {0,1,2} a generator set.
        let ring = FiniteRing::Field(FiniteField::new(7));
        let d = RingDesign::new(ring, vec![0, 1, 2]);
        let p = d.to_block_design().verify_bibd().unwrap();
        assert_eq!((p.b, p.r, p.lambda), (42, 18, 6));
    }

    #[test]
    fn tuple_indexing_roundtrip() {
        let d = RingDesign::for_v_k(8, 3);
        for idx in 0..d.b() {
            let (x, y) = d.index_pair(idx);
            assert_eq!(d.pair_index(x, y), idx);
        }
    }

    #[test]
    fn gi_th_element_structure() {
        // The i-th position of tuple (x,y) is x + y(g_i - g_0); position 0
        // is always x when g_0 = 0.
        let d = RingDesign::for_v_k(9, 4);
        for x in 0..9 {
            for y in 1..9 {
                assert_eq!(d.block(x, y)[0], x, "g0-th element must be x");
            }
        }
    }

    #[test]
    fn tuples_have_distinct_elements() {
        // Theorem 1's first claim: each tuple has exactly k elements.
        let d = RingDesign::for_v_k(25, 6);
        for block in d.to_block_design().blocks() {
            let mut s = block.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), d.k());
        }
    }

    #[test]
    fn theorem2_characterization_small() {
        // Constructive direction for v up to 60: k ≤ M(v) always builds a
        // verified BIBD, k = M(v)+1 panics.
        for v in 4u64..=60 {
            let m = min_prime_power_factor(v);
            for k in 2..=m.min(6) {
                assert!(ring_design_exists(v, k));
                let d = RingDesign::for_v_k(v as usize, k as usize);
                d.to_block_design().verify_bibd().unwrap();
            }
            assert!(!ring_design_exists(v, m + 1), "v={v}");
        }
    }

    #[test]
    #[should_panic]
    fn oversized_k_panics() {
        RingDesign::for_v_k(12, 4); // M(12) = 3
    }

    #[test]
    #[should_panic(expected = "units")]
    fn invalid_generator_set_rejected() {
        // Z_6 = GF(2) × GF(3): 2 ↦ (0, 2) is not a unit.
        let ring = FiniteRing::lemma3_ring(6);
        let two = ring.add(1, 1);
        RingDesign::new(ring, vec![0, two]);
    }

    #[test]
    fn field_ring_matches_direct_field() {
        // for_v_k on a prime power uses GF(q) directly.
        let d = RingDesign::for_v_k(9, 3);
        match &d.ring {
            FiniteRing::Field(f) => assert_eq!(FiniteField::order(f), 9),
            other => panic!("expected field, got {other:?}"),
        }
    }
}
