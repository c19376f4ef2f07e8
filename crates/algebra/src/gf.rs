//! The finite field `GF(p^m)`, table-driven.
//!
//! Elements are `usize` indices in `0..q` (`q = p^m`): the index is the
//! base-`p` packing of the coefficient vector of the residue polynomial
//! (coefficient of `x^j` = `j`-th base-`p` digit). Index 0 is the additive
//! identity and index 1 the multiplicative identity.
//!
//! After construction, multiplication, inversion, and powering are O(1)
//! via exp/log tables over a primitive element — the hot-path layout
//! constructions (Section 2 of the paper) do `Θ(v²)` field ops per design,
//! so table setup cost `O(q·m²)` amortizes immediately.

use crate::nt::prime_divisors;
use crate::poly::{find_irreducible, Poly};

/// A concrete finite field `GF(p^m)`.
#[derive(Clone, Debug)]
pub struct FiniteField {
    p: u64,
    m: u32,
    q: usize,
    modulus: Poly,
    /// `exp[i] = g^i` for `i in 0..q-1`, `g` a primitive element.
    exp: Vec<usize>,
    /// `log[exp[i]] = i`; `log[0]` is unused (set to usize::MAX).
    log: Vec<usize>,
}

impl FiniteField {
    /// Constructs `GF(q)`. Panics if `q` is not a prime power ≥ 2.
    pub fn new(q: u64) -> Self {
        let (p, m) = crate::nt::prime_power(q)
            .unwrap_or_else(|| panic!("GF({q}): order must be a prime power"));
        let modulus = find_irreducible(p, m);
        let mut field =
            FiniteField { p, m, q: q as usize, modulus, exp: Vec::new(), log: Vec::new() };
        field.build_tables();
        field
    }

    /// Field order `q = p^m`.
    pub(crate) fn order(&self) -> usize {
        self.q
    }

    fn index_to_poly(&self, mut i: usize) -> Poly {
        let mut coeffs = Vec::with_capacity(self.m as usize);
        for _ in 0..self.m {
            coeffs.push((i % self.p as usize) as u64);
            i /= self.p as usize;
        }
        Poly::from_coeffs(coeffs)
    }

    fn poly_to_index(&self, f: &Poly) -> usize {
        let mut idx = 0usize;
        for &c in f.0.iter().rev() {
            idx = idx * self.p as usize + c as usize;
        }
        idx
    }

    /// Raw (table-free) multiplication, used to bootstrap the tables.
    fn mul_raw(&self, a: usize, b: usize) -> usize {
        let fa = self.index_to_poly(a);
        let fb = self.index_to_poly(b);
        self.poly_to_index(&fa.mul(&fb, self.p).rem(&self.modulus, self.p))
    }

    fn pow_raw(&self, a: usize, mut e: u64) -> usize {
        let mut base = a;
        let mut acc = 1usize;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul_raw(acc, base);
            }
            base = self.mul_raw(base, base);
            e >>= 1;
        }
        acc
    }

    fn build_tables(&mut self) {
        let group = self.q as u64 - 1;
        let prime_divs = prime_divisors(group);
        // Find a primitive element: order exactly q-1.
        let g = (2..self.q)
            .find(|&cand| {
                self.pow_raw(cand, group) == 1
                    && prime_divs.iter().all(|&l| self.pow_raw(cand, group / l) != 1)
            })
            .unwrap_or(1); // GF(2): the group is trivial, g=1
        let mut exp = Vec::with_capacity(self.q - 1);
        let mut log = vec![usize::MAX; self.q];
        let mut cur = 1usize;
        for i in 0..self.q - 1 {
            exp.push(cur);
            debug_assert_eq!(log[cur], usize::MAX, "primitive element search failed");
            log[cur] = i;
            cur = self.mul_raw(cur, g);
        }
        assert_eq!(cur, 1, "generator does not have full order");
        self.exp = exp;
        self.log = log;
    }

    /// Addition: coefficient-wise mod p. O(m); O(1) when p = 2 (XOR).
    pub fn add(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.q && b < self.q);
        if self.p == 2 {
            return a ^ b;
        }
        let p = self.p as usize;
        let (mut a, mut b) = (a, b);
        let mut out = 0usize;
        let mut place = 1usize;
        for _ in 0..self.m {
            out += (a % p + b % p) % p * place;
            a /= p;
            b /= p;
            place *= p;
        }
        out
    }

    /// Additive inverse.
    pub(crate) fn neg(&self, a: usize) -> usize {
        debug_assert!(a < self.q);
        if self.p == 2 {
            return a;
        }
        let p = self.p as usize;
        let mut a = a;
        let mut out = 0usize;
        let mut place = 1usize;
        for _ in 0..self.m {
            out += (p - a % p) % p * place;
            a /= p;
            place *= p;
        }
        out
    }

    /// Subtraction `a - b`.
    pub fn sub(&self, a: usize, b: usize) -> usize {
        self.add(a, self.neg(b))
    }

    /// Multiplication via log tables (O(1)).
    pub fn mul(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.q && b < self.q);
        if a == 0 || b == 0 {
            return 0;
        }
        let s = self.log[a] + self.log[b];
        let n = self.q - 1;
        self.exp[if s >= n { s - n } else { s }]
    }

    /// Multiplicative inverse; `None` for 0.
    pub(crate) fn inv(&self, a: usize) -> Option<usize> {
        debug_assert!(a < self.q);
        if a == 0 {
            return None;
        }
        let n = self.q - 1;
        Some(self.exp[(n - self.log[a]) % n])
    }

    /// An element of multiplicative order exactly `d` (requires `d | q-1`).
    ///
    /// Used by the Theorem 4/5 constructions, which need an element of
    /// order `gcd(v-1, k-1)` or `gcd(v-1, k)`.
    pub fn element_of_order(&self, d: u64) -> usize {
        let n = (self.q - 1) as u64;
        assert!(d >= 1 && n.is_multiple_of(d), "order {d} must divide q-1 = {n}");
        if d == 1 {
            return 1;
        }
        self.exp[(n / d) as usize]
    }

    /// The unique subfield of order `k` (requires `k = p^d` with `d | m`).
    ///
    /// Returned as a sorted list of element indices: `{0} ∪` the unique
    /// multiplicative subgroup of order `k-1`. Used by Theorem 6
    /// (generators forming a subfield).
    pub fn subfield(&self, k: usize) -> Vec<usize> {
        let (kp, kd) = crate::nt::prime_power(k as u64)
            .unwrap_or_else(|| panic!("subfield order {k} must be a prime power"));
        assert_eq!(kp, self.p, "subfield must share the characteristic");
        assert_eq!(self.m % kd, 0, "GF({k}) is not a subfield of GF({})", self.q);
        let n = self.q - 1;
        let step = n / (k - 1);
        let mut elems: Vec<usize> =
            std::iter::once(0).chain((0..k - 1).map(|i| self.exp[i * step])).collect();
        elems.sort_unstable();
        elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplicative order of a nonzero element, by repeated
    /// multiplication.
    fn element_order(f: &FiniteField, a: usize) -> u64 {
        let mut x = a;
        let mut d = 1;
        while x != 1 {
            x = f.mul(x, a);
            d += 1;
        }
        d
    }

    /// `a^e`, by repeated multiplication.
    fn pow(f: &FiniteField, a: usize, e: u64) -> usize {
        (0..e).fold(1, |acc, _| f.mul(acc, a))
    }

    /// All divisors of `n`, ascending.
    fn divisors(n: u64) -> Vec<u64> {
        (1..=n).filter(|&d| n.is_multiple_of(d)).collect()
    }

    fn fields_under_test() -> Vec<FiniteField> {
        [2u64, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
            .iter()
            .map(|&q| FiniteField::new(q))
            .collect()
    }

    #[test]
    #[should_panic(expected = "prime power")]
    fn rejects_non_prime_power() {
        FiniteField::new(12);
    }

    #[test]
    fn identities() {
        for f in fields_under_test() {
            let q = f.order();
            for a in 0..q {
                assert_eq!(f.add(a, 0), a, "q={q}");
                assert_eq!(f.mul(a, 1), a, "q={q}");
                assert_eq!(f.add(a, f.neg(a)), 0, "q={q}");
                assert_eq!(f.mul(a, 0), 0, "q={q}");
            }
        }
    }

    #[test]
    fn inverses() {
        for f in fields_under_test() {
            let q = f.order();
            assert_eq!(f.inv(0), None);
            for a in 1..q {
                let inv = f.inv(a).unwrap();
                assert_eq!(f.mul(a, inv), 1, "q={q} a={a}");
            }
        }
    }

    #[test]
    fn commutativity_and_associativity_sampled() {
        for f in fields_under_test() {
            let q = f.order();
            let pick = |i: usize| (i * 7 + 3) % q;
            for i in 0..q.min(24) {
                for j in 0..q.min(24) {
                    let (a, b) = (pick(i), pick(j));
                    assert_eq!(f.add(a, b), f.add(b, a));
                    assert_eq!(f.mul(a, b), f.mul(b, a));
                    let c = pick(i + j);
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn exp_log_consistency() {
        for f in fields_under_test() {
            let q = f.order();
            // Every nonzero element appears exactly once in exp.
            let mut seen = vec![false; q];
            for i in 0..q - 1 {
                let e = f.exp[i];
                assert!(!seen[e]);
                seen[e] = true;
            }
            assert!(!seen[0]);
        }
    }

    #[test]
    fn primitive_element_has_full_order() {
        for f in fields_under_test() {
            let q = f.order();
            if q > 2 {
                let g = f.element_of_order(q as u64 - 1);
                assert_eq!(element_order(&f, g), (q - 1) as u64, "q={q}");
            }
        }
    }

    #[test]
    fn element_orders_divide_group_order() {
        for f in fields_under_test() {
            let n = (f.order() - 1) as u64;
            for a in 1..f.order() {
                let d = element_order(&f, a);
                assert_eq!(n % d, 0);
                assert_eq!(pow(&f, a, d), 1);
                // order is minimal
                for dd in divisors(d) {
                    if dd < d {
                        assert_ne!(pow(&f, a, dd), 1, "a={a} d={d} dd={dd}");
                    }
                }
            }
        }
    }

    #[test]
    fn element_of_order_exact() {
        for f in fields_under_test() {
            let n = (f.order() - 1) as u64;
            for d in divisors(n) {
                let a = f.element_of_order(d);
                assert_eq!(element_order(&f, a), d, "q={} d={d}", f.order());
            }
        }
    }

    #[test]
    fn frobenius_fixed_points_are_prime_subfield() {
        // Elements with a^p = a form GF(p).
        for f in fields_under_test() {
            let p = f.p;
            let fixed: Vec<usize> = (0..f.order()).filter(|&a| pow(&f, a, p) == a).collect();
            assert_eq!(fixed.len(), p as usize, "q={}", f.order());
        }
    }

    #[test]
    fn subfield_structure() {
        let f = FiniteField::new(16);
        let g4 = f.subfield(4);
        assert_eq!(g4.len(), 4);
        // closure under add and mul
        for &a in &g4 {
            for &b in &g4 {
                assert!(g4.contains(&f.add(a, b)));
                assert!(g4.contains(&f.mul(a, b)));
            }
        }
        assert!(g4.contains(&0) && g4.contains(&1));

        let f81 = FiniteField::new(81);
        let g9 = f81.subfield(9);
        assert_eq!(g9.len(), 9);
        for &a in &g9 {
            for &b in &g9 {
                assert!(g9.contains(&f81.add(a, b)));
                assert!(g9.contains(&f81.mul(a, b)));
            }
        }
        let g3 = f81.subfield(3);
        assert_eq!(g3.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a subfield")]
    fn subfield_rejects_bad_order() {
        FiniteField::new(16).subfield(8); // GF(8) ⊄ GF(16)
    }

    #[test]
    fn char_p_addition() {
        // p * a = 0 for all a (Algebra Fact 1 specialized to fields).
        for f in fields_under_test() {
            let p = f.p;
            for a in 0..f.order() {
                let mut acc = 0usize;
                for _ in 0..p {
                    acc = f.add(acc, a);
                }
                assert_eq!(acc, 0);
            }
        }
    }
}
