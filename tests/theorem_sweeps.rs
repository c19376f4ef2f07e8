//! Broad parameter sweeps re-verifying every theorem's closed form —
//! the integration-level counterpart of the per-module unit tests.

use parity_decluster::algebra::{gcd, is_prime_power, min_prime_power_factor};
use parity_decluster::core::{
    copies_for_perfect_parity, stairway_layout, QualityReport, RingLayout, StairwayParams,
};
use parity_decluster::design::{
    bibd_min_blocks, theorem4_design, theorem5_design, theorem6_design, RingDesign,
};

/// All prime powers in `lo..=hi`, ascending.
fn prime_powers_in(lo: u64, hi: u64) -> Vec<u64> {
    (lo..=hi).filter(|&q| is_prime_power(q)).collect()
}

#[test]
fn theorem1_sweep() {
    for q in prime_powers_in(4, 32) {
        let v = q as usize;
        for k in [2usize, 3, 5, 7] {
            if k > v {
                continue;
            }
            let d = RingDesign::for_v_k(v, k);
            let p = d.to_block_design().verify_bibd().unwrap();
            assert_eq!((p.b, p.r, p.lambda), (v * (v - 1), k * (v - 1), k * (k - 1)));
        }
    }
}

#[test]
fn theorems_4_5_sweep() {
    for q in prime_powers_in(5, 32) {
        let v = q as usize;
        for k in 2..v.min(8) {
            let g4 = gcd(v as u64 - 1, k as u64 - 1) as usize;
            let g5 = gcd(v as u64 - 1, k as u64) as usize;
            assert_eq!(theorem4_design(v, k).params.b, v * (v - 1) / g4, "v={v} k={k}");
            assert_eq!(theorem5_design(v, k).params.b, v * (v - 1) / g5, "v={v} k={k}");
        }
    }
}

#[test]
fn theorem6_7_sweep() {
    for (k, max_m) in [(2usize, 6u32), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)] {
        for m in 2..=max_m {
            let v = k.pow(m);
            if v > 750 {
                continue;
            }
            let c = theorem6_design(v, k);
            assert_eq!(c.params.lambda, 1, "v={v} k={k}");
            assert_eq!(c.params.b as u64, bibd_min_blocks(v as u64, k as u64), "v={v} k={k}");
        }
    }
}

#[test]
fn theorem8_sweep() {
    for q in prime_powers_in(5, 17) {
        let v = q as usize;
        for k in [3usize, 4] {
            if k >= v {
                continue;
            }
            let rl = RingLayout::for_v_k(v, k);
            for removed in 0..v {
                let l = rl.remove_disk(removed);
                let q = QualityReport::measure(&l);
                assert!(q.reconstruction_balanced(), "v={v} k={k} rm={removed}");
                assert_eq!(q.parity_units.0, v);
                assert_eq!(q.parity_units.1, v);
            }
        }
    }
}

#[test]
fn theorem_10_11_12_sweep() {
    // All stairway targets reachable from each q, against their bounds.
    for q in prime_powers_in(5, 20) {
        let q = q as usize;
        let k = 3.min(q - 1);
        let design = RingDesign::for_v_k(q, k);
        for v in q + 1..=q + 8 {
            let Some(p) = StairwayParams::solve(q, v) else { continue };
            let l = stairway_layout(&design, v).unwrap();
            assert_eq!(l.size(), p.size(k), "q={q} v={v}");
            let m = QualityReport::measure(&l);
            let (olo, ohi) = p.parity_overhead_bounds(k);
            let (wlo, whi) = p.reconstruction_workload_bounds(k);
            assert!(
                m.parity_overhead.0 >= olo - 1e-9 && m.parity_overhead.1 <= ohi + 1e-9,
                "q={q} v={v}: overhead {:?} ∉ [{olo},{ohi}]",
                m.parity_overhead
            );
            assert!(
                m.reconstruction_workload.0 >= wlo - 1e-9
                    && m.reconstruction_workload.1 <= whi + 1e-9,
                "q={q} v={v}: workload {:?} ∉ [{wlo},{whi}]",
                m.reconstruction_workload
            );
        }
    }
}

#[test]
fn theorem2_boundary_sweep() {
    use parity_decluster::design::ring_design_exists;
    for v in 4u64..=150 {
        let m = min_prime_power_factor(v);
        assert!(ring_design_exists(v, m));
        assert!(!ring_design_exists(v, m + 1));
        // spot-build at the boundary
        if (2..=9).contains(&m) {
            let d = RingDesign::for_v_k(v as usize, m as usize);
            d.to_block_design().verify_bibd().unwrap();
        }
    }
}

#[test]
fn corollary17_sweep() {
    // perfect balance iff v | b, across the constructed designs
    for q in prime_powers_in(5, 16) {
        let v = q as usize;
        for k in 2..v.min(6) {
            let c = theorem4_design(v, k);
            let copies = copies_for_perfect_parity(c.params.b, v);
            assert_eq!((c.params.b * copies) % v, 0);
            for fewer in 1..copies {
                assert_ne!((c.params.b * fewer) % v, 0, "lcm minimality violated");
            }
        }
    }
}

#[test]
fn feasibility_claim_sample() {
    // The v ≤ 10,000 claim, sampled on a coarse grid here (the binary
    // claim_v10000 runs it exhaustively).
    for v in (10usize..=10_000).step_by(97) {
        assert!(
            parity_decluster::core::stairway_params_exist(v).is_some(),
            "no stairway for v={v}"
        );
    }
}
