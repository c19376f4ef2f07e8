//! Dense polynomials over the prime field `Z_p`, used only to bootstrap
//! `GF(p^m)` construction: finding an irreducible modulus and multiplying
//! field elements before the exp/log tables exist.
//!
//! Coefficients are `u64` values in `0..p`, index = degree, no trailing
//! zeros (the zero polynomial is the empty vector).

use crate::nt::{mod_inverse, prime_divisors};

/// A polynomial over `Z_p`. Immutable value type; all ops take `p`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Poly(pub Vec<u64>);

impl Poly {
    /// The zero polynomial.
    pub(crate) fn zero() -> Self {
        Poly(Vec::new())
    }

    /// The constant polynomial `c` (reduced mod p).
    pub(crate) fn constant(c: u64, p: u64) -> Self {
        Self::from_coeffs(vec![c % p])
    }

    /// `x` (the monomial of degree 1).
    pub(crate) fn x() -> Self {
        Poly(vec![0, 1])
    }

    /// Builds from a coefficient vector, trimming trailing zeros.
    pub fn from_coeffs(mut c: Vec<u64>) -> Self {
        while c.last() == Some(&0) {
            c.pop();
        }
        Poly(c)
    }

    /// True iff this is the zero polynomial.
    pub(crate) fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    /// Degree; the zero polynomial has no degree (returns `None`).
    pub fn degree(&self) -> Option<usize> {
        self.0.len().checked_sub(1)
    }

    /// Leading coefficient (0 for the zero polynomial).
    pub(crate) fn leading(&self) -> u64 {
        *self.0.last().unwrap_or(&0)
    }

    /// Subtraction in `Z_p[x]`.
    pub fn sub(&self, other: &Poly, p: u64) -> Poly {
        let n = self.0.len().max(other.0.len());
        let mut out = vec![0u64; n];
        for (i, slot) in out.iter_mut().enumerate() {
            let a = self.0.get(i).copied().unwrap_or(0);
            let b = other.0.get(i).copied().unwrap_or(0);
            *slot = (a + p - b) % p;
        }
        Poly::from_coeffs(out)
    }

    /// Schoolbook multiplication in `Z_p[x]`.
    pub fn mul(&self, other: &Poly, p: u64) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0u64; self.0.len() + other.0.len() - 1];
        for (i, &a) in self.0.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.0.iter().enumerate() {
                out[i + j] = (out[i + j] + a * b) % p;
            }
        }
        Poly::from_coeffs(out)
    }

    /// Remainder of `self` divided by `modulus` (which must be nonzero).
    pub fn rem(&self, modulus: &Poly, p: u64) -> Poly {
        assert!(!modulus.is_zero(), "division by zero polynomial");
        let dm = modulus.degree().unwrap();
        let lead_inv = mod_inverse(modulus.leading(), p).expect("leading coeff must be a unit");
        let mut r = self.0.clone();
        while r.len() > dm {
            let c = *r.last().unwrap();
            let shift = r.len() - 1 - dm;
            if c != 0 {
                let f = c * lead_inv % p;
                for (i, &m) in modulus.0.iter().enumerate() {
                    let idx = shift + i;
                    r[idx] = (r[idx] + p - f * m % p) % p;
                }
            }
            r.pop();
            while r.last() == Some(&0) {
                r.pop();
            }
            if r.len() <= dm {
                break;
            }
        }
        Poly::from_coeffs(r)
    }

    /// Polynomial gcd, made monic.
    pub(crate) fn gcd(&self, other: &Poly, p: u64) -> Poly {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b, p);
            a = b;
            b = r;
        }
        a.monic(p)
    }

    /// Scales so the leading coefficient is 1 (zero stays zero).
    pub(crate) fn monic(&self, p: u64) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let inv = mod_inverse(self.leading(), p).expect("leading coeff must be a unit");
        Poly::from_coeffs(self.0.iter().map(|&c| c * inv % p).collect())
    }

    /// `self^e mod modulus` by square-and-multiply.
    pub(crate) fn pow_mod(&self, mut e: u64, modulus: &Poly, p: u64) -> Poly {
        let mut base = self.rem(modulus, p);
        let mut acc = Poly::constant(1, p);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base, p).rem(modulus, p);
            }
            base = base.mul(&base, p).rem(modulus, p);
            e >>= 1;
        }
        acc
    }

    /// `self^(p^j) mod modulus` — iterated Frobenius, used by the
    /// irreducibility test. Computes by `j` successive `pow_mod(p)` steps.
    fn frobenius_iter(&self, j: u32, modulus: &Poly, p: u64) -> Poly {
        let mut acc = self.rem(modulus, p);
        for _ in 0..j {
            acc = acc.pow_mod(p, modulus, p);
        }
        acc
    }
}

/// Rabin's irreducibility test: monic `f` of degree `m` over `Z_p` is
/// irreducible iff `x^(p^m) ≡ x (mod f)` and, for every prime `q | m`,
/// `gcd(x^(p^(m/q)) − x, f) = 1`.
pub fn is_irreducible(f: &Poly, p: u64) -> bool {
    let m = match f.degree() {
        None | Some(0) => return false,
        Some(m) => m as u32,
    };
    if m == 1 {
        return true;
    }
    let x = Poly::x();
    // x^(p^m) mod f must equal x.
    if x.frobenius_iter(m, f, p) != x.rem(f, p) {
        return false;
    }
    for q in prime_divisors(m as u64) {
        let j = m / q as u32;
        let xpj = x.frobenius_iter(j, f, p);
        let diff = xpj.sub(&x, p);
        let g = diff.gcd(f, p);
        if g.degree() != Some(0) {
            return false;
        }
    }
    true
}

/// Finds a monic irreducible polynomial of degree `m` over `Z_p` by
/// enumerating candidates in lexicographic coefficient order. Existence is
/// guaranteed for every prime `p` and `m ≥ 1`.
pub(crate) fn find_irreducible(p: u64, m: u32) -> Poly {
    assert!(m >= 1, "degree must be at least 1");
    if m == 1 {
        return Poly::x(); // x itself: GF(p) needs no extension
    }
    let m = m as usize;
    // Enumerate lower coefficients as base-p counters; leading coeff = 1.
    let total = (p as u128).pow(m as u32);
    for n in 0..total {
        let mut coeffs = Vec::with_capacity(m + 1);
        let mut t = n;
        for _ in 0..m {
            coeffs.push((t % p as u128) as u64);
            t /= p as u128;
        }
        coeffs.push(1);
        let f = Poly::from_coeffs(coeffs);
        if is_irreducible(&f, p) {
            return f;
        }
    }
    unreachable!("an irreducible polynomial of degree {m} over GF({p}) always exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(c: &[u64]) -> Poly {
        Poly::from_coeffs(c.to_vec())
    }

    /// `a + b` in `Z_p[x]`, as `a − (0 − b)`.
    fn add(a: &Poly, b: &Poly, p: u64) -> Poly {
        a.sub(&Poly::zero().sub(b, p), p)
    }

    #[test]
    fn trim_and_degree() {
        assert!(poly(&[0, 0]).is_zero());
        assert_eq!(poly(&[3]).degree(), Some(0));
        assert_eq!(poly(&[1, 2, 0, 0]).degree(), Some(1));
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn mul_examples() {
        // (x+1)(x+2) = x^2 + 3x + 2 over Z_5
        let a = poly(&[1, 1]);
        let b = poly(&[2, 1]);
        assert_eq!(a.mul(&b, 5), poly(&[2, 3, 1]));
        // (x+1)^2 = x^2 + 1 over Z_2
        assert_eq!(a.mul(&a, 2), poly(&[1, 0, 1]));
        assert_eq!(a.mul(&Poly::zero(), 5), Poly::zero());
    }

    #[test]
    fn rem_examples() {
        // x^2 mod (x^2 + x + 1) = -(x+1) = x+1 over Z_2
        let f = poly(&[1, 1, 1]);
        let x2 = poly(&[0, 0, 1]);
        assert_eq!(x2.rem(&f, 2), poly(&[1, 1]));
        // division identity: a = q*f + r exercised via rem(a + f*b) == rem(a)
        let a = poly(&[3, 1, 4, 1]);
        let b = poly(&[2, 2]);
        let lhs = add(&a, &f.mul(&b, 5), 5).rem(&f, 5);
        assert_eq!(lhs, a.rem(&f, 5));
    }

    #[test]
    fn gcd_examples() {
        let p = 7;
        // gcd((x+1)(x+2), (x+1)(x+3)) = x+1
        let a = poly(&[1, 1]).mul(&poly(&[2, 1]), p);
        let b = poly(&[1, 1]).mul(&poly(&[3, 1]), p);
        assert_eq!(a.gcd(&b, p), poly(&[1, 1]));
    }

    #[test]
    fn pow_mod_small() {
        let f = poly(&[1, 1, 1]); // x^2+x+1 over Z_2; GF(4), mult order of x is 3
        let x = Poly::x();
        assert_eq!(x.pow_mod(3, &f, 2), Poly::constant(1, 2));
        assert_eq!(x.pow_mod(1, &f, 2), x);
        assert_eq!(x.pow_mod(4, &f, 2), x);
    }

    #[test]
    fn known_irreducibles() {
        assert!(is_irreducible(&poly(&[1, 1, 1]), 2)); // x^2+x+1
        assert!(!is_irreducible(&poly(&[1, 0, 1]), 2)); // x^2+1 = (x+1)^2
        assert!(is_irreducible(&poly(&[1, 1, 0, 1]), 2)); // x^3+x+1
        assert!(is_irreducible(&poly(&[1, 0, 0, 1, 1]), 2)); // x^4+x^3+1
        assert!(!is_irreducible(&poly(&[1, 0, 0, 0, 1]), 2)); // x^4+1
        assert!(is_irreducible(&poly(&[1, 0, 1]), 3)); // x^2+1 over Z_3
        assert!(!is_irreducible(&poly(&[2, 0, 1]), 3)); // x^2+2 = (x+1)(x+2)
    }

    #[test]
    fn irreducible_product_detected() {
        // Every product of two monic irreducibles of degree 2 over Z_3 must fail.
        let p = 3;
        let irr2: Vec<Poly> =
            (0..9).map(|n| poly(&[n % 3, n / 3, 1])).filter(|f| is_irreducible(f, p)).collect();
        assert_eq!(irr2.len(), 3); // (9-3)/2 = 3 monic irreducible quadratics
        for a in &irr2 {
            for b in &irr2 {
                assert!(!is_irreducible(&a.mul(b, p), p));
            }
        }
    }

    #[test]
    fn find_irreducible_all_small() {
        for p in [2u64, 3, 5, 7, 11, 13] {
            for m in 1..=4u32 {
                let f = find_irreducible(p, m);
                assert_eq!(f.degree(), Some(m as usize));
                assert_eq!(f.leading(), 1);
                assert!(is_irreducible(&f, p) || m == 1);
            }
        }
    }

    #[test]
    fn find_irreducible_bigger_degrees() {
        let f = find_irreducible(2, 10); // GF(1024)
        assert_eq!(f.degree(), Some(10));
        assert!(is_irreducible(&f, 2));
        let g = find_irreducible(3, 5); // GF(243)
        assert!(is_irreducible(&g, 3));
    }
}
