//! E5 — Theorem 2: a ring-based design on v elements with tuples of
//! size k exists iff k ≤ M(v), the smallest maximal prime-power factor.
//! Constructively verified for every v ≤ 120 (every k ≤ min(M(v), 8)
//! is built and BIBD-checked; k = M(v)+1 is confirmed impossible for
//! the Lemma 3 ring).

use pdl_algebra::min_prime_power_factor;
use pdl_bench::{header, row};
use pdl_design::{ring_design_exists, RingDesign};

fn main() {
    println!("E5 / Theorem 2: existence characterization k ≤ M(v)\n");
    let mut built = 0usize;
    for v in 4u64..=120 {
        let m = min_prime_power_factor(v);
        for k in 2..=m.min(8) {
            assert!(ring_design_exists(v, k), "v={v} k={k}");
            let d = RingDesign::for_v_k(v as usize, k as usize);
            d.to_block_design()
                .verify_bibd()
                .unwrap_or_else(|e| panic!("v={v} k={k}: construction failed verification: {e}"));
            built += 1;
        }
        assert!(!ring_design_exists(v, m + 1), "v={v}: k=M(v)+1 must not exist");
    }
    println!("constructed and verified {built} ring designs for v ≤ 120\n");

    println!("sample of M(v) — where ring designs run out:");
    let widths = [6, 22, 6];
    println!("{}", header(&["v", "factorization", "M(v)"], &widths));
    for v in [12u64, 30, 60, 100, 210, 1024, 1000, 2310] {
        let f = pdl_algebra::factorize(v)
            .iter()
            .map(|&(p, e)| if e == 1 { p.to_string() } else { format!("{p}^{e}") })
            .collect::<Vec<_>>()
            .join("·");
        println!("{}", row(&[&v, &f, &min_prime_power_factor(v)], &widths));
    }
    println!("\npaper: ring designs exist iff k ≤ M(v); v with small prime factors");
    println!("(e.g. v=30 → M=2) are the 'bad v's motivating Section 3 — confirmed.");
}
