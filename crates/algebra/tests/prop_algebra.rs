//! Property-style tests for the algebraic substrate: number theory
//! against naive oracles, polynomial arithmetic laws, and ring axioms
//! over randomly chosen structures. Uses seeded random sampling (the
//! offline environment has no `proptest`) with 128 cases per property.

use pdl_algebra::{
    factorize, gcd, is_irreducible, is_prime_power, lcm, min_prime_power_factor, FiniteField,
    FiniteRing, Poly, ProductRing, Ring,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 128;

#[test]
fn gcd_against_naive() {
    let mut rng = StdRng::seed_from_u64(0x6cd);
    for _ in 0..CASES {
        let a = rng.random_range(0u64..5000);
        let b = rng.random_range(0u64..5000);
        let g = gcd(a, b);
        if a != 0 || b != 0 {
            assert!(g >= 1);
            assert_eq!(a % g, 0);
            assert_eq!(b % g, 0);
            // no larger common divisor
            for d in (g + 1)..=(a.min(b)) {
                assert!(!(a % d == 0 && b % d == 0));
            }
        } else {
            assert_eq!(g, 0);
        }
    }
}

#[test]
fn lcm_gcd_identity() {
    let mut rng = StdRng::seed_from_u64(0x1c3);
    for _ in 0..CASES {
        let a = rng.random_range(1u64..3000);
        let b = rng.random_range(1u64..3000);
        assert_eq!(lcm(a, b) * gcd(a, b), a * b);
    }
}

#[test]
fn factorization_multiplies_back() {
    let mut rng = StdRng::seed_from_u64(0xfac);
    for _ in 0..CASES {
        let n = rng.random_range(2u64..200_000);
        let f = factorize(n);
        let prod: u64 = f.iter().map(|&(p, e)| p.pow(e)).product();
        assert_eq!(prod, n);
        for &(p, _) in &f {
            assert!((2..p).all(|d| p % d != 0), "{p} is not prime");
        }
    }
}

#[test]
fn is_prime_against_trial() {
    let mut rng = StdRng::seed_from_u64(0x991);
    for _ in 0..CASES {
        let n = rng.random_range(0u64..3000);
        let naive = n >= 2 && (2..n).all(|d| n % d != 0);
        // A prime factorizes as itself.
        assert_eq!(factorize(n) == [(n, 1)], naive, "n={n}");
    }
}

#[test]
fn min_prime_power_factor_divides() {
    let mut rng = StdRng::seed_from_u64(0x3b9);
    for _ in 0..CASES {
        let v = rng.random_range(2u64..5000);
        let m = min_prime_power_factor(v);
        assert!(m >= 2);
        assert_eq!(v % m, 0);
        assert!(is_prime_power(m));
    }
}

fn random_coeffs(rng: &mut StdRng, max: u64, len_bound: usize) -> Vec<u64> {
    let len = rng.random_range(0..len_bound);
    (0..len).map(|_| rng.random_range(0..max)).collect()
}

/// `a + b` in `Z_p[x]`, as `a − (0 − b)`.
fn poly_add(a: &Poly, b: &Poly, p: u64) -> Poly {
    a.sub(&Poly::from_coeffs(Vec::new()).sub(b, p), p)
}

#[test]
fn poly_ring_laws() {
    let mut rng = StdRng::seed_from_u64(0x901);
    for _ in 0..CASES {
        let p = 5u64;
        let pa = Poly::from_coeffs(random_coeffs(&mut rng, 5, 6));
        let pb = Poly::from_coeffs(random_coeffs(&mut rng, 5, 6));
        let pc = Poly::from_coeffs(random_coeffs(&mut rng, 5, 6));
        assert_eq!(poly_add(&pa, &pb, p), poly_add(&pb, &pa, p));
        assert_eq!(pa.mul(&pb, p), pb.mul(&pa, p));
        assert_eq!(
            pa.mul(&poly_add(&pb, &pc, p), p),
            poly_add(&pa.mul(&pb, p), &pa.mul(&pc, p), p)
        );
        // subtraction inverts addition
        assert_eq!(poly_add(&pa, &pb, p).sub(&pb, p), pa);
    }
}

#[test]
fn poly_rem_is_remainder() {
    let mut rng = StdRng::seed_from_u64(0x4e3);
    for _ in 0..CASES {
        // (a mod f) differs from a by a multiple of f: check degree bound
        let p = 7u64;
        let f = Poly::from_coeffs(vec![3, 0, 1, 1]); // cubic, monic
        let pa = Poly::from_coeffs(random_coeffs(&mut rng, 7, 8));
        let r = pa.rem(&f, p);
        assert!(r.degree().is_none_or(|d| d < 3));
    }
}

#[test]
fn irreducible_products_are_reducible() {
    // all monic irreducible quadratics over Z_3
    let p = 3u64;
    let irr: Vec<Poly> = (0..9)
        .map(|n| Poly::from_coeffs(vec![n % 3, n / 3, 1]))
        .filter(|f| is_irreducible(f, p))
        .collect();
    for i in 0..3 {
        for j in 0..3 {
            let prod = irr[i].mul(&irr[j], p);
            assert!(!is_irreducible(&prod, p));
        }
    }
}

#[test]
fn product_ring_componentwise() {
    let mut rng = StdRng::seed_from_u64(0x9c4);
    for _ in 0..CASES {
        let x = rng.random_range(0usize..36);
        let y = rng.random_range(0usize..36);
        let r = ProductRing::new(vec![FiniteField::new(4), FiniteField::new(9)]);
        let (cx, cy) = (r.components(x), r.components(y));
        let sum = r.components(Ring::add(&r, x, y));
        let f4 = FiniteField::new(4);
        let f9 = FiniteField::new(9);
        assert_eq!(sum[0], f4.add(cx[0], cy[0]));
        assert_eq!(sum[1], f9.add(cx[1], cy[1]));
    }
}

#[test]
fn lemma3_ring_order() {
    let mut rng = StdRng::seed_from_u64(0x133);
    for _ in 0..CASES {
        let v = rng.random_range(2u64..400);
        let ring = FiniteRing::lemma3_ring(v);
        assert_eq!(ring.order() as u64, v);
        // 1 is always a unit; 0 never is
        assert!(ring.is_unit(ring.one()));
        assert!(!ring.is_unit(0));
    }
}

#[test]
fn field_multiplicative_group_cyclic() {
    for q in [4u64, 5, 7, 8, 9, 16, 25, 27] {
        let f = FiniteField::new(q);
        let g = f.element_of_order(q - 1);
        // powers of a primitive element enumerate all nonzero elements
        let mut seen = vec![false; f.order()];
        let mut cur = 1usize;
        for _ in 0..f.order() - 1 {
            assert!(!seen[cur]);
            seen[cur] = true;
            cur = f.mul(cur, g);
        }
        assert_eq!(cur, 1);
        assert!(!seen[0]);
    }
}

#[test]
fn subfield_is_closed_field() {
    for (q, k) in [(16u64, 4usize), (64, 8), (81, 9)] {
        let f = FiniteField::new(q);
        let sub = f.subfield(k);
        assert_eq!(sub.len(), k);
        for &a in &sub {
            for &b in &sub {
                assert!(sub.contains(&f.add(a, b)));
                assert!(sub.contains(&f.mul(a, b)));
            }
            if a != 0 {
                assert!(sub.contains(&f.inv(a).unwrap()));
            }
        }
    }
}

// ---- wide GF(2^8)/XOR kernels vs their scalar references ----------------
//
// `mul_slice`, `mul_add_slice` and `solve_two_erasures` run on one of
// up to two kernels per build (portable everywhere, plus AVX2 or NEON);
// each keeps a byte-at-a-time `*_scalar` twin. The two batteries below
// run every kernel the host can execute — so the portable fallback
// stays tested on hosts that never select it — against `mul` and the
// `*_scalar` oracles, on windows of over-allocated buffers so a stray
// load or store outside the slice is caught too.

/// Window start offsets `0..PAD`, and at least as many guard bytes
/// behind every window.
const PAD: usize = 32;

/// Runs `op` on `buf[off..off + len]` of a copy of `pristine`, checks
/// that no byte outside the window moved, and returns the window.
fn windowed(pristine: &[u8], off: usize, len: usize, op: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut work = pristine.to_vec();
    op(&mut work[off..off + len]);
    assert!(work[..off] == pristine[..off], "bytes before the window changed");
    assert!(work[off + len..] == pristine[off + len..], "bytes after the window changed");
    work[off..off + len].to_vec()
}

/// One case of the battery, on every kernel the host can run:
/// `mul_add_slice`, `mul_slice` (coefficient `c`) and
/// `solve_two_erasures` (coefficients `c`, `gy`) on windows
/// `a[d_off..][..len]` / `b[s_off..][..len]`, against the `*_scalar`
/// oracles; `per_byte` also checks the oracles against `gf256::mul`.
fn check_kernels_case(
    (a, d_off): (&[u8], usize),
    (b, s_off): (&[u8], usize),
    len: usize,
    (c, gy): (u8, u8),
    per_byte: bool,
) {
    use pdl_algebra::gf256;
    let (d0, s0) = (&a[d_off..d_off + len], &b[s_off..s_off + len]);

    let mut want_mul_add = d0.to_vec();
    gf256::mul_add_slice_scalar(&mut want_mul_add, s0, c);
    let mut want_mul = d0.to_vec();
    gf256::mul_slice_scalar(&mut want_mul, c);
    // S_p = a's window, S_q = b's window; D_x = ca·S_p ^ cb·S_q lands
    // in S_q's buffer, D_y = S_p ^ D_x in S_p's.
    let (ca, cb) = gf256::two_erasure_coeffs(c, gy);
    let mut want_x = s0.to_vec();
    gf256::mul_slice_scalar(&mut want_x, cb);
    gf256::mul_add_slice_scalar(&mut want_x, d0, ca);
    let mut want_y = d0.to_vec();
    gf256::xor_slice_scalar(&mut want_y, &want_x);
    if per_byte {
        for i in 0..len {
            assert_eq!(want_mul_add[i], d0[i] ^ gf256::mul(s0[i], c), "c={c} len={len} i={i}");
            assert_eq!(want_mul[i], gf256::mul(d0[i], c), "c={c} len={len} i={i}");
            let x = gf256::mul(ca, d0[i]) ^ gf256::mul(cb, s0[i]);
            assert_eq!((want_x[i], want_y[i]), (x, d0[i] ^ x), "c={c} gy={gy} len={len} i={i}");
        }
    }

    for kernel in gf256::Kernel::available() {
        let case = || format!("{} c={c} gy={gy} len={len} +{d_off}/+{s_off}", kernel.name());
        let got = windowed(a, d_off, len, |d| kernel.mul_add_slice(d, s0, c));
        assert!(got == want_mul_add, "mul_add_slice: {}", case());
        let got = windowed(a, d_off, len, |d| kernel.mul_slice(d, c));
        assert!(got == want_mul, "mul_slice: {}", case());
        let mut got_x = Vec::new();
        let got_y = windowed(a, d_off, len, |sp| {
            got_x = windowed(b, s_off, len, |sq| kernel.solve_two_erasures(sp, sq, c, gy));
        });
        assert!(got_x == want_x && got_y == want_y, "solve_two_erasures: {}", case());
    }
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; n];
    rand::RngCore::fill_bytes(rng, &mut bytes);
    bytes
}

/// Up to a few vectors — the scalar path (< 32) and every body /
/// 8-byte-lane / byte-tail split: all 32 × 32 (dst, src) misalignments
/// per length, the coefficient walking through all 256 four times per
/// length as the misalignment pair advances.
#[test]
fn wide_mul_kernels_match_scalar_all_coefficients() {
    let mut rng = StdRng::seed_from_u64(0x9f256);
    for len in (0..=97).chain([255, 256, 257]) {
        let (a, b) = (random_bytes(&mut rng, len + 2 * PAD), random_bytes(&mut rng, len + 2 * PAD));
        for pair in 0..PAD * PAD {
            let c = (pair + 37 * len) as u8;
            let gy = c ^ (1 + (pair % 255) as u8);
            check_kernels_case((&a, pair % PAD), (&b, pair / PAD), len, (c, gy), true);
        }
    }
}

/// Unit-sized slices: all 256 coefficients per length, each of the 32
/// dst and 32 src misalignments eight times, unpaired.
#[test]
fn wide_mul_kernels_match_scalar_unit_sized() {
    let mut rng = StdRng::seed_from_u64(0x9f257);
    for len in [4095, 4096, 4097, 65_536, 65_537] {
        let (a, b) = (random_bytes(&mut rng, len + 2 * PAD), random_bytes(&mut rng, len + 2 * PAD));
        for c in 0..=255u8 {
            let (d_off, s_off) = (c as usize % PAD, c as usize / 8);
            check_kernels_case((&a, d_off), (&b, s_off), len, (c, !c), false);
        }
    }
}

#[test]
fn wide_xor_matches_scalar_random_lengths() {
    use pdl_algebra::gf256;
    let mut rng = StdRng::seed_from_u64(0xae5);
    for round in 0..200 {
        let len = match round % 3 {
            0 => rng.random_range(1usize..9),
            1 => 8 * rng.random_range(1usize..64),
            _ => 8 * rng.random_range(1usize..64) + rng.random_range(1usize..8),
        };
        let src: Vec<u8> = (0..len).map(|_| rng.random_range(0u64..256) as u8).collect();
        let base: Vec<u8> = (0..len).map(|_| rng.random_range(0u64..256) as u8).collect();
        let mut wide = base.clone();
        let mut scalar = base.clone();
        gf256::xor_slice(&mut wide, &src);
        gf256::xor_slice_scalar(&mut scalar, &src);
        assert_eq!(wide, scalar, "xor_slice len={len}");
        // XOR is an involution: applying src again restores base.
        gf256::xor_slice(&mut wide, &src);
        assert_eq!(wide, base, "xor involution len={len}");
    }
}

#[test]
fn wide_kernels_compose_like_field_ops() {
    use pdl_algebra::gf256;
    // (a·x) ^ (b·x) == (a^b)·x on whole slices — distributivity
    // exercised through the wide kernels themselves.
    let mut rng = StdRng::seed_from_u64(0x77d1);
    for _ in 0..64 {
        let len = rng.random_range(1usize..300);
        let x: Vec<u8> = (0..len).map(|_| rng.random_range(0u64..256) as u8).collect();
        let (a, b) = (rng.random_range(0u64..256) as u8, rng.random_range(0u64..256) as u8);
        let mut lhs = vec![0u8; len];
        gf256::mul_add_slice(&mut lhs, &x, a);
        gf256::mul_add_slice(&mut lhs, &x, b);
        let mut rhs = vec![0u8; len];
        gf256::mul_add_slice(&mut rhs, &x, a ^ b);
        assert_eq!(lhs, rhs, "distributivity a={a} b={b} len={len}");
    }
}
