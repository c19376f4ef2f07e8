//! E6 — Theorems 4 & 5: redundancy-reduced BIBDs for prime-power v.
//! Theorem 4 divides (b, r, λ) by gcd(v−1, k−1); Theorem 5 by
//! gcd(v−1, k). Whichever gcd is larger gives the smaller design.

use pdl_algebra::gcd;
use pdl_bench::{header, row};
use pdl_design::{theorem4_design, theorem5_design};

fn main() {
    println!("E6 / Theorems 4 & 5: symmetric-generator reduced designs\n");
    let widths = [4, 4, 8, 6, 8, 6, 8, 10];
    println!("{}", header(&["v", "k", "full b", "g4", "b(T4)", "g5", "b(T5)", "winner"], &widths));
    for v in [5usize, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32] {
        for k in [3usize, 4, 5] {
            if k >= v {
                continue;
            }
            let g4 = gcd(v as u64 - 1, k as u64 - 1) as usize;
            let g5 = gcd(v as u64 - 1, k as u64) as usize;
            let c4 = theorem4_design(v, k);
            let c5 = theorem5_design(v, k);
            assert_eq!(c4.params.b, v * (v - 1) / g4);
            assert_eq!(c5.params.b, v * (v - 1) / g5);
            let winner = match c4.params.b.cmp(&c5.params.b) {
                std::cmp::Ordering::Less => "Thm 4",
                std::cmp::Ordering::Greater => "Thm 5",
                std::cmp::Ordering::Equal => "tie",
            };
            println!(
                "{}",
                row(
                    &[&v, &k, &(v * (v - 1)), &g4, &c4.params.b, &g5, &c5.params.b, &winner],
                    &widths
                )
            );
        }
    }
    println!("\npaper: b = v(v-1)/gcd(v-1,k-1) (Thm 4, = Hanani) and");
    println!("b = v(v-1)/gcd(v-1,k) (Thm 5, new) — confirmed; the two");
    println!("constructions dominate each other on disjoint (v,k) sets.");
}
