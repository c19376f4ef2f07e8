//! Difference families (Wallis \[16\]) as the test oracle for the
//! ring-based design.
//!
//! Section 2.1 closes by noting that "the ring-based block design
//! construction is a special case of the construction of block designs
//! from supplementary difference sets, where the initial blocks are the
//! tuples corresponding to the pairs (0, y) for y ≠ 0". The tests below
//! verify the remark literally on [`RingDesign`]: its initial blocks
//! form a `(v, k, k(k−1))` difference family, and developing them
//! through the ring's additive group reproduces the design.
//!
//! [`RingDesign`]: crate::RingDesign

#[cfg(test)]
mod tests {
    use crate::block::BlockDesign;
    use crate::ring_design::RingDesign;
    use pdl_algebra::{FiniteRing, Ring};

    /// Develops base blocks through the additive group of `ring`: the
    /// blocks `{x + e : e ∈ B}` for every base block `B` and element `x`.
    fn develop(ring: &FiniteRing, base_blocks: &[Vec<usize>]) -> BlockDesign {
        let v = ring.order();
        let blocks = base_blocks
            .iter()
            .flat_map(|base| (0..v).map(move |x| base.iter().map(|&e| ring.add(x, e)).collect()))
            .collect();
        BlockDesign::new(v, blocks)
    }

    /// The paper's *initial blocks*: the tuples for the pairs `(0, y)`.
    fn initial_blocks(d: &RingDesign) -> Vec<Vec<usize>> {
        (1..d.v()).map(|y| d.block(0, y).to_vec()).collect()
    }

    #[test]
    fn paper_remark_ring_design_is_developed_initial_blocks() {
        // The paper's Section 2.1 remark, verified literally: developing
        // the (0, y) tuples through the ring reproduces the full
        // ring-based design (as a multiset of blocks).
        for (v, k) in [(5usize, 3usize), (7, 3), (8, 4), (9, 3), (12, 3)] {
            let rd = RingDesign::for_v_k(v, k);
            let ring = FiniteRing::lemma3_ring(v as u64); // the ring `for_v_k` builds on
            let developed = develop(&ring, &initial_blocks(&rd));
            assert_eq!(
                developed.block_multiplicities(),
                rd.to_block_design().block_multiplicities(),
                "v={v} k={k}: development must reproduce the ring design"
            );
        }
    }

    #[test]
    fn ring_initial_blocks_form_difference_family() {
        // The initial blocks of a ring design are a (v, k, k(k−1))
        // difference family (λ matches Theorem 1): every nonzero element
        // is a difference a − b within one block exactly k(k−1) times.
        for (v, k) in [(7usize, 3usize), (9, 4), (13, 4)] {
            let rd = RingDesign::for_v_k(v, k);
            let ring = FiniteRing::lemma3_ring(v as u64);
            let mut counts = vec![0usize; v];
            for block in initial_blocks(&rd) {
                for (i, &a) in block.iter().enumerate() {
                    for (j, &b) in block.iter().enumerate() {
                        if i != j {
                            counts[ring.sub(a, b)] += 1;
                        }
                    }
                }
            }
            assert_eq!(counts[0], 0, "v={v} k={k}");
            assert!(counts[1..].iter().all(|&c| c == k * (k - 1)), "v={v} k={k}");
        }
    }
}
