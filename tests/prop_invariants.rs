//! Property-style tests on the core invariants: field and ring axioms,
//! design balance, layout coverage, flow-based parity bounds, and
//! simulator conservation laws. Uses seeded random sampling (the
//! offline environment has no `proptest`), with enough cases per
//! property to match the original proptest coverage.

use parity_decluster::algebra::{FiniteField, FiniteRing, Ring};
use parity_decluster::core::{
    parity_counts, random_layout, QualityReport, RingLayout, StripePartition, StripeUnit,
};
use parity_decluster::design::RingDesign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRIME_POWERS: &[u64] = &[4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32];

const CASES: usize = 64;

fn random_field(rng: &mut StdRng) -> FiniteField {
    FiniteField::new(PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())])
}

/// Field axioms hold for random element triples in random fields.
#[test]
fn field_axioms() {
    let mut rng = StdRng::seed_from_u64(0xf1e1d);
    for _ in 0..CASES {
        let f = random_field(&mut rng);
        let q = f.order();
        let seed: u64 = rng.random_range(0..u64::MAX);
        let a = (seed % q as u64) as usize;
        let b = (seed / 7 % q as u64) as usize;
        let c = (seed / 49 % q as u64) as usize;
        assert_eq!(f.add(a, b), f.add(b, a));
        assert_eq!(f.mul(a, b), f.mul(b, a));
        assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        assert_eq!(f.add(a, f.neg(a)), 0);
        if a != 0 {
            let inv = f.inv(a).unwrap();
            assert_eq!(f.mul(a, inv), 1);
        }
    }
}

/// Fermat in GF(q): a^q = a for every element.
#[test]
fn frobenius_fixes_field() {
    let mut rng = StdRng::seed_from_u64(0xf40b);
    for _ in 0..CASES {
        let f = random_field(&mut rng);
        let a = rng.random_range(0..f.order());
        let a_to_q = (0..f.order()).fold(1, |acc, _| Ring::mul(&f, acc, a));
        assert_eq!(a_to_q, a);
    }
}

/// Ring designs over random prime powers are BIBDs with the Theorem 1
/// parameters.
#[test]
fn ring_design_is_bibd() {
    let mut rng = StdRng::seed_from_u64(0xb1bd);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())] as usize;
        let k = (2 + rng.random_range(0usize..4)).min(v);
        let d = RingDesign::for_v_k(v, k);
        let p = d.to_block_design().verify_bibd().unwrap();
        assert_eq!(p.b, v * (v - 1));
        assert_eq!(p.r, k * (v - 1));
        assert_eq!(p.lambda, k * (k - 1));
    }
}

/// Ring layouts are valid and perfectly balanced for all (v, k).
#[test]
fn ring_layout_invariants() {
    let mut rng = StdRng::seed_from_u64(0x41a6);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())] as usize;
        let k = (2 + rng.random_range(0usize..4)).min(v);
        let rl = RingLayout::for_v_k(v, k);
        let report = QualityReport::measure(rl.layout());
        assert!(report.parity_balanced());
        assert!(report.reconstruction_balanced());
        assert_eq!(rl.layout().size(), k * (v - 1));
    }
}

/// Theorem 8: removing any disk keeps parity perfectly balanced.
#[test]
fn disk_removal_balanced() {
    let mut rng = StdRng::seed_from_u64(0xd15c);
    for _ in 0..CASES {
        let v = PRIME_POWERS[rng.random_range(0..PRIME_POWERS.len())] as usize;
        if v < 4 {
            continue;
        }
        let k = 3.min(v - 1).max(2);
        let rl = RingLayout::for_v_k(v, k);
        let removed = rng.random_range(0..v);
        let l = rl.remove_disk(removed);
        let counts = parity_counts(&l);
        assert!(counts.iter().all(|&c| c == v), "counts {counts:?}");
    }
}

/// Flow parity assignment achieves the floor/ceil bound on random
/// balanced-coverage layouts (the Theorem 14 guarantee on inputs no
/// combinatorial design covers).
#[test]
fn flow_assignment_floor_ceil() {
    let mut rng = StdRng::seed_from_u64(0xf10f);
    for _ in 0..CASES {
        let v = rng.random_range(5usize..12);
        let k = rng.random_range(2usize..5);
        if k >= v {
            continue;
        }
        let seed: u64 = rng.random_range(0..u64::MAX);
        // rows such that k | rows·v
        let rows = k * 3;
        let layout = random_layout(v, k, rows, seed).unwrap();
        let part = StripePartition::from_layout(&layout);
        let loads = part.loads(&vec![1; part.stripes().len()]);
        let counts = parity_counts(&layout);
        for (d, &c) in counts.iter().enumerate() {
            assert!(c as f64 >= loads[d].floor() - 1e-9);
            assert!(c as f64 <= loads[d].ceil() + 1e-9);
        }
    }
}

/// Random layouts sum their parity to exactly b and cover the array.
#[test]
fn random_layout_valid() {
    let mut rng = StdRng::seed_from_u64(0x4a9d);
    for _ in 0..CASES {
        let v = rng.random_range(4usize..10);
        let seed: u64 = rng.random_range(0..u64::MAX);
        let k = 3.min(v);
        let rows = k * 2;
        let layout = random_layout(v, k, rows, seed).unwrap();
        assert_eq!(layout.b(), rows * v / k);
        assert_eq!(parity_counts(&layout).iter().sum::<usize>(), layout.b());
        // every stripe has at most one unit per disk (validated at build,
        // but assert the public invariant anyway)
        for s in layout.stripes() {
            let mut disks: Vec<u32> = s.units().iter().map(|u| u.disk).collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), s.len());
        }
    }
}

/// Lemma 3 generator sets are valid in random composite rings.
#[test]
fn lemma3_generators_valid() {
    let mut rng = StdRng::seed_from_u64(0x13a3);
    for _ in 0..CASES {
        let v = rng.random_range(6u64..200);
        let m = parity_decluster::algebra::min_prime_power_factor(v) as usize;
        let k = m.clamp(2, 5);
        let ring = FiniteRing::lemma3_ring(v);
        let gens = ring.lemma3_generators(k);
        assert!(ring.is_generator_set(&gens));
        assert_eq!(gens[0], 0);
    }
}

/// Stairway parameters, when they exist, always satisfy (8) and (9).
#[test]
fn stairway_params_satisfy_conditions() {
    let mut rng = StdRng::seed_from_u64(0x57a1);
    for _ in 0..CASES {
        let q = rng.random_range(4usize..60);
        let v = q + rng.random_range(1usize..12);
        if let Some(p) = parity_decluster::core::StairwayParams::solve(q, v) {
            assert_eq!(p.c * p.d + p.w, v); // condition (8)
            assert!(p.w < p.c); // condition (9)
            assert_eq!(p.d, v - q);
            assert!(p.c >= 2);
        }
    }
}

/// The simulator conserves IOs: every generated read/write maps to at
/// least one disk IO, and rebuild reads match the layout exactly.
#[test]
fn simulator_conservation() {
    use parity_decluster::sim::{rebuild_reads_match_layout, simulate_rebuild, RebuildTarget};
    let mut rng = StdRng::seed_from_u64(0x51c0);
    for _ in 0..16 {
        let seed: u64 = rng.random_range(0..u64::MAX);
        let rl = RingLayout::for_v_k(7, 3);
        let failed = (seed % 7) as usize;
        let res = simulate_rebuild(rl.layout(), failed, RebuildTarget::ReadOnly, seed);
        assert!(res.rebuild_finished_at.is_some());
        assert!(rebuild_reads_match_layout(rl.layout(), failed, &res));
    }
}

/// Layout validation rejects any single-unit corruption.
#[test]
fn validation_catches_duplicates() {
    use parity_decluster::core::{Layout, Stripe};
    for v in 3usize..7 {
        // two stripes claiming the same unit must be rejected
        let s1 = Stripe::new(vec![StripeUnit::new(0, 0), StripeUnit::new(1, 0)], 0);
        let s2 = Stripe::new(vec![StripeUnit::new(0, 0), StripeUnit::new(2, 0)], 0);
        assert!(Layout::from_stripes(v, 1, vec![s1, s2]).is_err());
    }
}
