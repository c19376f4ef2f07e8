//! The complete block design: all `C(v, k)` k-subsets of the ground set.
//!
//! This is the design implicitly used by classic full-array parity
//! declustering; the paper notes it becomes infeasible quickly as `v`
//! grows (its layout has size `k · C(v-1, k-1)` units per disk).

use crate::block::BlockDesign;

/// Binomial coefficient `C(n, k)` in u128 to avoid overflow during
/// feasibility sweeps; saturates at `u128::MAX`.
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
    }
    acc
}

/// Iterator over all k-subsets of `{0..v}` in lexicographic order.
struct Combinations {
    v: usize,
    k: usize,
    cur: Vec<usize>,
    done: bool,
}

impl Combinations {
    /// Creates the iterator (requires `1 ≤ k ≤ v`).
    fn new(v: usize, k: usize) -> Self {
        assert!(k >= 1 && k <= v, "need 1 <= k <= v (got k={k}, v={v})");
        Combinations { v, k, cur: (0..k).collect(), done: false }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.cur.clone();
        // Advance: find rightmost index that can be incremented.
        let (v, k) = (self.v, self.k);
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.cur[i] < v - (k - i) {
                self.cur[i] += 1;
                for j in i + 1..k {
                    self.cur[j] = self.cur[j - 1] + 1;
                }
                break;
            }
        }
        Some(out)
    }
}

/// Builds the complete block design for `v` and `k`.
///
/// Panics if the design would exceed `max_blocks` (guard against
/// accidentally materializing astronomically many blocks during sweeps).
pub fn complete_design(v: usize, k: usize, max_blocks: usize) -> BlockDesign {
    let b = binomial(v as u64, k as u64);
    assert!(
        b <= max_blocks as u128,
        "complete design for v={v}, k={k} has {b} blocks > cap {max_blocks}"
    );
    BlockDesign::new(v, Combinations::new(v, k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_table() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 4), 0);
        assert_eq!(binomial(50, 25), 126_410_606_437_752);
    }

    #[test]
    fn combinations_count_and_order() {
        let all: Vec<_> = Combinations::new(5, 3).collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], vec![0, 1, 2]);
        assert_eq!(all[9], vec![2, 3, 4]);
        for w in all.windows(2) {
            assert!(w[0] < w[1], "not lexicographic: {w:?}");
        }
    }

    #[test]
    fn complete_design_is_bibd() {
        for (v, k) in [(4usize, 3usize), (5, 2), (6, 3), (7, 4), (8, 2)] {
            let d = complete_design(v, k, 1_000_000);
            let p = d.verify_bibd().unwrap();
            // (b, r, λ) = (C(v,k), C(v-1,k-1), C(v-2,k-2))
            let (v, k) = (v as u64, k as u64);
            assert_eq!(p.b as u128, binomial(v, k));
            assert_eq!(p.r as u128, binomial(v - 1, k - 1));
            assert_eq!(p.lambda as u128, binomial(v - 2, k - 2));
        }
    }

    #[test]
    fn fig2_complete_design_v4_k3() {
        // The paper's Fig. 2 example: v=4, k=3 uses the 4 blocks of the
        // complete design.
        let d = complete_design(4, 3, 100);
        let p = d.verify_bibd().unwrap();
        assert_eq!((p.b, p.r, p.k, p.lambda), (4, 3, 3, 2));
    }

    #[test]
    #[should_panic(expected = "blocks > cap")]
    fn cap_guard() {
        complete_design(30, 15, 1000);
    }

    #[test]
    fn k_equals_v_single_block() {
        let d = complete_design(5, 5, 10);
        assert_eq!(d.b(), 1);
        assert_eq!(d.blocks()[0], vec![0, 1, 2, 3, 4]);
    }
}
