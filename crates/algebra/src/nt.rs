//! Elementary number theory used throughout the layout constructions.
//!
//! Everything here operates on `u64` and is exact. Factorization is by
//! trial division, which is ample for the parameter ranges the paper
//! explores (disk counts `v ≤ 10,000`, layout sweeps up to ~10^7).

/// Greatest common divisor (Euclid).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple. Panics on overflow in debug builds; the paper's
/// parameter ranges keep `lcm(b, v)` far below `u64::MAX`.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        return (a, 1, 0);
    }
    let (g, x, y) = extended_gcd(b, a % b);
    (g, y, x - (a / b) * y)
}

/// Modular inverse of `a` modulo `m`, if `gcd(a, m) = 1`.
pub(crate) fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some(0);
    }
    let (g, x, _) = extended_gcd((a % m) as i64, m as i64);
    if g != 1 {
        return None;
    }
    Some(x.rem_euclid(m as i64) as u64)
}

/// Factorization into `(prime, exponent)` pairs, primes ascending.
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    if n < 2 {
        return out;
    }
    let mut push = |p: u64, n: &mut u64| {
        let mut e = 0u32;
        while (*n).is_multiple_of(p) {
            *n /= p;
            e += 1;
        }
        if e > 0 {
            out.push((p, e));
        }
    };
    push(2, &mut n);
    push(3, &mut n);
    let mut d = 5u64;
    while d.saturating_mul(d) <= n {
        push(d, &mut n);
        push(d + 2, &mut n);
        d += 6;
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// Distinct prime divisors, ascending.
pub(crate) fn prime_divisors(n: u64) -> Vec<u64> {
    factorize(n).into_iter().map(|(p, _)| p).collect()
}

/// If `n = p^e` for a prime `p` and `e ≥ 1`, returns `Some((p, e))`.
pub fn prime_power(n: u64) -> Option<(u64, u32)> {
    let f = factorize(n);
    if f.len() == 1 {
        Some(f[0])
    } else {
        None
    }
}

/// Returns true when `n` is a prime power `p^e`, `e ≥ 1`.
pub fn is_prime_power(n: u64) -> bool {
    prime_power(n).is_some()
}

/// `M(v) = min { p_i^{e_i} }` over the factorization `v = Π p_i^{e_i}` —
/// the Theorem 2 bound: a ring-based block design on `v` elements with
/// block size `k` exists iff `k ≤ M(v)`.
pub fn min_prime_power_factor(v: u64) -> u64 {
    factorize(v).into_iter().map(|(p, e)| p.pow(e)).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(35, 64), 1);
        assert_eq!(gcd(48, 36), 12);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(21, 6), 42);
        assert_eq!(lcm(13, 13), 13);
    }

    #[test]
    fn extended_gcd_identity() {
        for (a, b) in [(240i64, 46i64), (17, 5), (1, 1), (100, 75)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g);
            assert_eq!(g, gcd(a as u64, b as u64) as i64);
        }
    }

    #[test]
    fn mod_inverse_works() {
        assert_eq!(mod_inverse(3, 7), Some(5));
        assert_eq!(mod_inverse(2, 4), None);
        assert_eq!(mod_inverse(1, 1), Some(0));
        for m in 2..50u64 {
            for a in 1..m {
                if gcd(a, m) == 1 {
                    let inv = mod_inverse(a, m).unwrap();
                    assert_eq!(a * inv % m, 1, "a={a} m={m}");
                } else {
                    assert_eq!(mod_inverse(a, m), None);
                }
            }
        }
    }

    #[test]
    fn primality_small() {
        // A prime factorizes as itself: `factorize` finds exactly these.
        let primes: Vec<u64> = (0..100).filter(|&n| factorize(n) == [(n, 1)]).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn primality_larger() {
        assert_eq!(factorize(7919), [(7919, 1)]);
        assert_eq!(factorize(104_729), [(104_729, 1)]);
        assert_eq!(factorize(104_730), [(2, 1), (3, 1), (5, 1), (3491, 1)]);
        assert_eq!(factorize(7919 * 7919), [(7919, 2)]);
    }

    #[test]
    fn factorize_roundtrip() {
        for n in 2..2000u64 {
            let f = factorize(n);
            let prod: u64 = f.iter().map(|&(p, e)| p.pow(e)).product();
            assert_eq!(prod, n);
            for &(p, _) in &f {
                assert!((2..p).all(|d| p % d != 0), "{p} not prime (n={n})");
            }
            for w in f.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn prime_power_detection() {
        assert_eq!(prime_power(8), Some((2, 3)));
        assert_eq!(prime_power(9), Some((3, 2)));
        assert_eq!(prime_power(7), Some((7, 1)));
        assert_eq!(prime_power(12), None);
        assert_eq!(prime_power(1), None);
        assert_eq!(prime_power(0), None);
    }

    #[test]
    fn min_prime_power_factor_examples() {
        // v = 12 = 2^2 * 3 → M(v) = min(4, 3) = 3
        assert_eq!(min_prime_power_factor(12), 3);
        // v = 100 = 2^2 * 5^2 → min(4, 25) = 4
        assert_eq!(min_prime_power_factor(100), 4);
        // prime powers are their own M(v)
        assert_eq!(min_prime_power_factor(49), 49);
        // v = 30 = 2*3*5 → 2
        assert_eq!(min_prime_power_factor(30), 2);
    }

    #[test]
    fn prime_powers_in_range() {
        let found: Vec<u64> = (0..=16).filter(|&q| is_prime_power(q)).collect();
        assert_eq!(found, vec![2, 3, 4, 5, 7, 8, 9, 11, 13, 16]);
    }
}
