//! Finite commutative rings with unit, the algebraic substrate of
//! ring-based block designs (Section 2 of the paper).
//!
//! A [`Ring`] exposes its elements as indices `0..order()`, with index 0
//! the additive identity. The two concrete rings the paper's
//! constructions need are finite fields ([`FiniteField`]) and cross
//! products of fields ([`ProductRing`], Lemma 3). [`FiniteRing`] is a
//! closed enum over these, convenient for table-driven design code.

use crate::gf::FiniteField;
use crate::nt::factorize;

/// A finite commutative ring with unit, elements indexed `0..order()`.
///
/// Index 0 must be the additive identity; `one()` gives the index of the
/// multiplicative identity.
pub trait Ring {
    /// Number of elements in the ring.
    fn order(&self) -> usize;
    /// Index of the multiplicative identity.
    fn one(&self) -> usize;
    /// Addition.
    fn add(&self, a: usize, b: usize) -> usize;
    /// Additive inverse.
    fn neg(&self, a: usize) -> usize;
    /// Multiplication.
    fn mul(&self, a: usize, b: usize) -> usize;
    /// Multiplicative inverse, if the element is a unit.
    fn inv(&self, a: usize) -> Option<usize>;

    /// Subtraction `a - b`.
    fn sub(&self, a: usize, b: usize) -> usize {
        self.add(a, self.neg(b))
    }

    /// True iff `a` is a unit (has a multiplicative inverse).
    fn is_unit(&self, a: usize) -> bool {
        self.inv(a).is_some()
    }

    /// Checks the generator-set condition of Section 2.1: all pairwise
    /// differences `g_i - g_j` (i ≠ j) must be units.
    fn is_generator_set(&self, gens: &[usize]) -> bool {
        for (i, &gi) in gens.iter().enumerate() {
            for &gj in gens.iter().skip(i + 1) {
                if !self.is_unit(self.sub(gi, gj)) {
                    return false;
                }
            }
        }
        // Distinctness is implied by invertibility of differences only
        // when the ring is nontrivial; check it anyway.
        let mut sorted: Vec<usize> = gens.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() == gens.len()
    }
}

impl Ring for FiniteField {
    fn order(&self) -> usize {
        FiniteField::order(self)
    }
    fn one(&self) -> usize {
        1
    }
    fn add(&self, a: usize, b: usize) -> usize {
        FiniteField::add(self, a, b)
    }
    fn neg(&self, a: usize) -> usize {
        FiniteField::neg(self, a)
    }
    fn mul(&self, a: usize, b: usize) -> usize {
        FiniteField::mul(self, a, b)
    }
    fn inv(&self, a: usize) -> Option<usize> {
        FiniteField::inv(self, a)
    }
}

/// Cross product `R_1 × … × R_n` of finite fields (Section 2, Lemma 3).
///
/// Element index is the mixed-radix packing of component indices, with the
/// first component varying fastest.
#[derive(Clone, Debug)]
pub struct ProductRing {
    factors: Vec<FiniteField>,
    order: usize,
}

impl ProductRing {
    /// Builds the cross product of the given fields.
    pub fn new(factors: Vec<FiniteField>) -> Self {
        assert!(!factors.is_empty(), "product of zero rings is trivial");
        let order = factors.iter().map(|f| f.order()).product();
        ProductRing { factors, order }
    }

    /// Decomposes an index into per-factor component indices.
    pub fn components(&self, mut a: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.factors.len());
        for f in &self.factors {
            out.push(a % f.order());
            a /= f.order();
        }
        out
    }

    /// Packs component indices back into a ring index.
    pub(crate) fn pack(&self, comps: &[usize]) -> usize {
        assert_eq!(comps.len(), self.factors.len());
        let mut idx = 0usize;
        for (f, &c) in self.factors.iter().zip(comps).rev() {
            debug_assert!(c < f.order());
            idx = idx * f.order() + c;
        }
        idx
    }

    /// The component fields.
    pub(crate) fn factors(&self) -> &[FiniteField] {
        &self.factors
    }

    fn zip_op(
        &self,
        a: usize,
        b: usize,
        op: impl Fn(&FiniteField, usize, usize) -> usize,
    ) -> usize {
        let (mut a, mut b) = (a, b);
        let mut idx = 0usize;
        let mut place = 1usize;
        for f in &self.factors {
            let o = f.order();
            idx += op(f, a % o, b % o) * place;
            a /= o;
            b /= o;
            place *= o;
        }
        idx
    }
}

impl Ring for ProductRing {
    fn order(&self) -> usize {
        self.order
    }
    fn one(&self) -> usize {
        self.pack(&vec![1; self.factors.len()])
    }
    fn add(&self, a: usize, b: usize) -> usize {
        self.zip_op(a, b, |f, x, y| f.add(x, y))
    }
    fn neg(&self, a: usize) -> usize {
        let comps: Vec<usize> =
            self.components(a).iter().zip(&self.factors).map(|(&x, f)| f.neg(x)).collect();
        self.pack(&comps)
    }
    fn mul(&self, a: usize, b: usize) -> usize {
        self.zip_op(a, b, |f, x, y| f.mul(x, y))
    }
    fn inv(&self, a: usize) -> Option<usize> {
        let mut comps = Vec::with_capacity(self.factors.len());
        for (&x, f) in self.components(a).iter().zip(&self.factors) {
            comps.push(f.inv(x)?);
        }
        Some(self.pack(&comps))
    }
}

/// Closed enum over the ring families the paper uses, so design code can
/// store rings by value without trait objects.
#[derive(Clone, Debug)]
pub enum FiniteRing {
    /// A finite field GF(p^m).
    Field(FiniteField),
    /// A cross product of finite fields.
    Product(ProductRing),
}

impl FiniteRing {
    /// The ring `R_v` of Lemma 3: the product of fields `GF(p_i^{e_i})`
    /// over the factorization of `v`, which contains a generator set of
    /// the maximal size `M(v)`. For prime-power `v` this is just `GF(v)`.
    pub fn lemma3_ring(v: u64) -> Self {
        let f = factorize(v);
        assert!(!f.is_empty(), "v must be at least 2");
        if f.len() == 1 {
            FiniteRing::Field(FiniteField::new(v))
        } else {
            FiniteRing::Product(ProductRing::new(
                f.iter().map(|&(p, e)| FiniteField::new(p.pow(e))).collect(),
            ))
        }
    }

    /// A generator set of size `k` in this ring, following Lemma 3:
    /// component-wise tuples of `k` distinct elements in every factor
    /// field. Panics if `k` exceeds the ring's maximal generator-set size.
    pub fn lemma3_generators(&self, k: usize) -> Vec<usize> {
        match self {
            FiniteRing::Field(f) => {
                assert!(k <= f.order(), "k={k} exceeds field order {}", f.order());
                // Any k distinct field elements; include 0 so g0 = 0,
                // which the layout constructions of Section 3 rely on.
                (0..k).collect()
            }
            FiniteRing::Product(pr) => {
                let max = pr.factors().iter().map(|f| f.order()).min().unwrap();
                assert!(k <= max, "k={k} exceeds M(v)={max} for this product ring (Theorem 2)");
                (0..k).map(|j| pr.pack(&vec![j; pr.factors().len()])).collect()
            }
        }
    }
}

impl Ring for FiniteRing {
    fn order(&self) -> usize {
        match self {
            FiniteRing::Field(r) => Ring::order(r),
            FiniteRing::Product(r) => r.order(),
        }
    }
    fn one(&self) -> usize {
        match self {
            FiniteRing::Field(r) => Ring::one(r),
            FiniteRing::Product(r) => r.one(),
        }
    }
    fn add(&self, a: usize, b: usize) -> usize {
        match self {
            FiniteRing::Field(r) => Ring::add(r, a, b),
            FiniteRing::Product(r) => r.add(a, b),
        }
    }
    fn neg(&self, a: usize) -> usize {
        match self {
            FiniteRing::Field(r) => Ring::neg(r, a),
            FiniteRing::Product(r) => r.neg(a),
        }
    }
    fn mul(&self, a: usize, b: usize) -> usize {
        match self {
            FiniteRing::Field(r) => Ring::mul(r, a, b),
            FiniteRing::Product(r) => r.mul(a, b),
        }
    }
    fn inv(&self, a: usize) -> Option<usize> {
        match self {
            FiniteRing::Field(r) => Ring::inv(r, a),
            FiniteRing::Product(r) => r.inv(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nt::min_prime_power_factor;

    fn check_ring_axioms<R: Ring>(r: &R) {
        let n = r.order();
        let step = (n / 17).max(1);
        let sample: Vec<usize> = (0..n).step_by(step).collect();
        assert_eq!(r.add(0, 0), 0);
        for &a in &sample {
            assert_eq!(r.add(a, 0), a);
            assert_eq!(r.mul(a, r.one()), a);
            assert_eq!(r.add(a, r.neg(a)), 0);
            assert_eq!(r.mul(a, 0), 0);
            for &b in &sample {
                assert_eq!(r.add(a, b), r.add(b, a));
                assert_eq!(r.mul(a, b), r.mul(b, a));
                for &c in sample.iter().take(6) {
                    assert_eq!(r.add(r.add(a, b), c), r.add(a, r.add(b, c)));
                    assert_eq!(r.mul(r.mul(a, b), c), r.mul(a, r.mul(b, c)));
                    assert_eq!(r.mul(a, r.add(b, c)), r.add(r.mul(a, b), r.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn field_as_ring_axioms() {
        for q in [4u64, 9, 8, 27] {
            check_ring_axioms(&FiniteField::new(q));
        }
    }

    #[test]
    fn product_ring_axioms() {
        let r = ProductRing::new(vec![FiniteField::new(4), FiniteField::new(9)]);
        assert_eq!(Ring::order(&r), 36);
        check_ring_axioms(&r);
    }

    #[test]
    fn product_ring_components_roundtrip() {
        let r =
            ProductRing::new(vec![FiniteField::new(4), FiniteField::new(3), FiniteField::new(25)]);
        for a in 0..Ring::order(&r) {
            assert_eq!(r.pack(&r.components(a)), a);
        }
    }

    #[test]
    fn product_ring_units_are_componentwise() {
        let r = ProductRing::new(vec![FiniteField::new(2), FiniteField::new(3)]);
        // units = pairs with both components nonzero: 1 * 2 = 2 of them
        let units: Vec<usize> = (0..Ring::order(&r)).filter(|&a| r.is_unit(a)).collect();
        assert_eq!(units.len(), 2);
        // a product of >1 fields is not a field (paper, Section 2.1)
        assert!(units.len() < Ring::order(&r) - 1);
    }

    #[test]
    fn lemma3_generator_sets() {
        for v in [6u64, 12, 30, 36, 100, 7, 16, 81] {
            let m = min_prime_power_factor(v) as usize;
            let ring = FiniteRing::lemma3_ring(v);
            assert_eq!(ring.order(), v as usize);
            let gens = ring.lemma3_generators(m);
            assert_eq!(gens.len(), m);
            assert!(ring.is_generator_set(&gens), "v={v}");
            assert_eq!(gens[0], 0, "g0 must be the zero element (v={v})");
        }
    }

    #[test]
    #[should_panic(expected = "Theorem 2")]
    fn lemma3_rejects_oversized_k() {
        // v = 12, M(v) = 3: k = 4 must be impossible.
        let ring = FiniteRing::lemma3_ring(12);
        ring.lemma3_generators(4);
    }

    #[test]
    fn generator_set_check_catches_bad_sets() {
        // GF(2) × GF(3): 2 packs (0, 1) and 5 packs (1, 2).
        let ring = FiniteRing::lemma3_ring(6);
        // 2 - 0 = (0, 1) is not a unit.
        assert!(!ring.is_generator_set(&[0, 2]));
        assert!(ring.is_generator_set(&[0, 5]));
        assert!(!ring.is_generator_set(&[5, 5]));
    }

    #[test]
    fn field_every_subset_is_generator_set() {
        let f = FiniteRing::Field(FiniteField::new(9));
        assert!(f.is_generator_set(&[0, 1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
