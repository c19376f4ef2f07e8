//! Property-style tests for the design crate: BIBD identities across
//! all constructions, redundancy-reduction soundness, and verifier
//! completeness against mutated designs. Uses seeded random sampling
//! (the offline environment has no `proptest`) with 48 cases per
//! property.

use pdl_algebra::gcd;
use pdl_design::{
    bibd_min_blocks, reduce_by_factor, steiner_triple_system, sts_exists, theorem4_design,
    theorem5_design, BlockDesign, RingDesign,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRIME_POWERS: &[usize] = &[4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25];

const CASES: usize = 48;

/// Fisher-type identities hold for every verified construction:
/// bk = vr and λ(v−1) = r(k−1).
#[test]
fn counting_identities() {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())];
        let k = (2 + rng.random_range(0usize..4)).min(v - 1);
        for c in [theorem4_design(v, k), theorem5_design(v, k)] {
            let p = c.params;
            assert_eq!(p.b * p.k, p.v * p.r);
            assert_eq!(p.lambda * (p.v - 1), p.r * (p.k - 1));
            assert!(p.b as u64 >= bibd_min_blocks(v as u64, k as u64));
        }
    }
}

/// Reduction by the theorem factor, then re-replication, recovers the
/// original multiset of blocks.
#[test]
fn reduction_replication_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x4edc);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())];
        let k = (2 + rng.random_range(0usize..3)).min(v - 1);
        let full = RingDesign::for_v_k(v, k).to_block_design();
        let g = gcd(v as u64 - 1, k as u64 - 1) as usize;
        // The theorem-4 generators admit reduction by g; the default
        // lemma-3 generators may not, so reduce only where g divides.
        if let Some(reduced) = reduce_by_factor(&full, g) {
            assert_eq!(reduced.replicate(g).block_multiplicities(), full.block_multiplicities());
        }
    }
}

/// reduce_by_factor respects exactly the divisibility structure.
#[test]
fn reduce_by_factor_divisibility() {
    for copies in 1usize..7 {
        for f in 1usize..9 {
            let base = BlockDesign::new(4, vec![vec![0, 1], vec![2, 3], vec![0, 2]]);
            let rep = base.replicate(copies);
            let out = reduce_by_factor(&rep, f);
            assert_eq!(out.is_some(), copies % f == 0);
            if let Some(d) = out {
                assert_eq!(d.b(), rep.b() / f);
            }
        }
    }
}

/// The BIBD verifier rejects any single-element corruption of a
/// Steiner triple system.
#[test]
fn verifier_catches_mutations() {
    let mut rng = StdRng::seed_from_u64(0x5757);
    for _ in 0..CASES {
        let vs = [7usize, 9, 13, 15];
        let v = vs[rng.random_range(0..vs.len())];
        let block = rng.random_range(0usize..10);
        let seed: u64 = rng.random_range(0..u64::MAX);
        if !sts_exists(v) {
            continue;
        }
        let design = steiner_triple_system(v).design;
        let mut blocks: Vec<Vec<usize>> = design.blocks().to_vec();
        let bi = block % blocks.len();
        // replace one element with a different one not already in the block
        let old = blocks[bi][seed as usize % 3];
        let replacement = (0..v).find(|e| !blocks[bi].contains(e) && *e != old).unwrap();
        blocks[bi][seed as usize % 3] = replacement;
        let mutated = BlockDesign::new(v, blocks);
        assert!(mutated.verify_bibd().is_err(), "mutation must break balance");
    }
}

/// Steiner systems pair-cover exactly once.
#[test]
#[allow(clippy::needless_range_loop)]
fn sts_pair_coverage() {
    for v in [7usize, 9, 13, 15, 19, 21] {
        let design = steiner_triple_system(v).design;
        let counts = design.pair_counts();
        for i in 0..v {
            for j in i + 1..v {
                assert_eq!(counts[i][j], 1, "pair ({i},{j})");
            }
        }
    }
}

/// Every block of a ring design indexes back to its (x, y) pair.
#[test]
fn ring_design_block_structure() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())];
        let seed: u64 = rng.random_range(0..u64::MAX);
        let k = 3.min(v - 1);
        let d = RingDesign::for_v_k(v, k);
        let idx = (seed % d.b() as u64) as usize;
        let (x, y) = d.index_pair(idx);
        assert!(y >= 1 && y < v);
        let block = d.block(x, y);
        assert_eq!(block.len(), k);
        assert_eq!(block[0], x, "g0-th element is x");
    }
}
