//! # pdl-bench
//!
//! Experiment binaries and criterion benches that regenerate every
//! figure and table of the paper. Each binary's output is pinned byte
//! for byte in `crates/bench/expected/<binary>.txt`; the README says
//! what each experiment shows and how to run it. The library portion
//! holds shared table-formatting helpers used by the binaries and the
//! condensed claim checks ([`verify_all`]).

#![warn(missing_docs)]

use pdl_algebra::gcd;
use pdl_core::{
    copies_for_perfect_parity, parity_counts, raid5_layout, single_copy_layout, stairway_layout,
    DoubleParityLayout, QualityReport, RingLayout, SparedLayout, StairwayParams, StripePartition,
};
use pdl_design::{
    bibd_min_blocks, steiner_triple_system, theorem4_design, theorem5_design, theorem6_design,
    RingDesign,
};
use pdl_sim::{rebuild_reads_match_layout, simulate_rebuild, RebuildTarget};
use std::fmt::Display;

/// Prints a fixed-width table row.
pub fn row(cells: &[&dyn Display], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{:>w$}  ", cell.to_string(), w = w));
    }
    out.trim_end().to_string()
}

/// Prints a header row followed by a separator line.
pub fn header(names: &[&str], widths: &[usize]) -> String {
    let cells: Vec<&dyn Display> = names.iter().map(|n| n as &dyn Display).collect();
    let line = row(&cells, widths);
    let sep = "-".repeat(line.len());
    format!("{line}\n{sep}")
}

/// Formats an `f64` to 4 decimal places (common in the metric tables).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Checks a measured value against inclusive bounds with tolerance,
/// returning "ok" or a deviation note (used in paper-vs-measured tables).
pub fn bound_check(measured: (f64, f64), expected: (f64, f64)) -> &'static str {
    let eps = 1e-9;
    if measured.0 >= expected.0 - eps && measured.1 <= expected.1 + eps {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// The condensed verification gate: one check per paper claim (Thm 1
/// → Cor 17, the simulator, sparing, double parity) at small
/// parameters, as `(claim, holds)` pairs. The `verify_all` binary
/// prints the list; this crate's test suite asserts every entry. The
/// full experiment binaries (fig*/table*/sim*/claim*) sweep far wider.
pub fn verify_all() -> Vec<(&'static str, bool)> {
    let mut checks = Vec::new();

    // Section 2
    let d = RingDesign::for_v_k(9, 4).to_block_design().verify_bibd().unwrap();
    checks.push((
        "Thm 1: ring design is BIBD(b=v(v-1), r=k(v-1), λ=k(k-1))",
        (d.b, d.r, d.lambda) == (72, 32, 12),
    ));
    checks.push((
        "Thm 2: k ≤ M(v) characterization",
        pdl_design::ring_design_exists(12, 3) && !pdl_design::ring_design_exists(12, 4),
    ));
    checks.push((
        "Thm 4: b = v(v-1)/gcd(v-1,k-1)",
        theorem4_design(13, 5).params.b == 13 * 12 / gcd(12, 4) as usize,
    ));
    checks.push(("Thm 5: b = v(v-1)/gcd(v-1,k)", theorem5_design(13, 4).params.b == 39));
    let t6 = theorem6_design(16, 4).params;
    checks.push(("Thm 6: λ=1 subfield design", t6.lambda == 1 && t6.b == 20));
    checks.push(("Thm 7: Theorem 6 is optimally small", t6.b as u64 == bibd_min_blocks(16, 4)));
    checks.push((
        "Steiner (Bose/Skolem): λ=1 for k=3 at composite v",
        steiner_triple_system(15).params.lambda == 1,
    ));

    // Section 3
    let rl = RingLayout::for_v_k(9, 4);
    let q = QualityReport::measure(rl.layout());
    checks.push((
        "ring layout: size k(v-1), perfect balance",
        rl.layout().size() == 32 && q.parity_balanced() && q.reconstruction_balanced(),
    ));
    let q8 = QualityReport::measure(&rl.remove_disk(0));
    checks.push((
        "Thm 8: removal keeps perfect balance at v parity units/disk",
        q8.parity_units == (9, 9) && q8.reconstruction_balanced(),
    ));
    let l9 = RingLayout::for_v_k(11, 5).remove_disks(&[1, 7]).unwrap();
    let c9 = parity_counts(&l9);
    checks.push((
        "Thm 9: i-removal bounds parity within one",
        c9.iter().max().unwrap() - c9.iter().min().unwrap() <= 1,
    ));
    let p10 = StairwayParams::solve(8, 9).unwrap();
    let s10 = stairway_layout(&RingDesign::for_v_k(8, 3), 9).unwrap();
    let q10 = QualityReport::measure(&s10);
    checks.push((
        "Thm 10: stairway v=q+1 exact metrics",
        s10.size() == p10.size(3)
            && q10.parity_balanced()
            && (q10.reconstruction_workload.1 - 2.0 / 8.0).abs() < 1e-12,
    ));
    let s12 = stairway_layout(&RingDesign::for_v_k(9, 4), 13).unwrap();
    let p12 = StairwayParams::solve(9, 13).unwrap();
    let q12 = QualityReport::measure(&s12);
    let (olo, ohi) = p12.parity_overhead_bounds(4);
    checks.push((
        "Thm 12: wide-step stairway within overhead bounds",
        q12.parity_overhead.0 >= olo - 1e-9 && q12.parity_overhead.1 <= ohi + 1e-9,
    ));
    checks.push((
        "§3.2: stairway params exist (sampled)",
        (3..500).all(|v| pdl_core::stairway_params_exist(v).is_some()),
    ));

    // Section 4
    let single = single_copy_layout(&theorem6_design(9, 3).design, 0);
    let balanced = StripePartition::from_layout(&single).assign_parity().unwrap();
    let cb = parity_counts(&balanced);
    checks.push((
        "Thm 13/14: flow gives ⌊L⌋/⌈L⌉ parity per disk",
        cb.iter().max().unwrap() - cb.iter().min().unwrap() <= 1,
    ));
    checks.push(("Cor 17: lcm(b,v)/b replication", copies_for_perfect_parity(12, 9) == 3));
    let two = StripePartition::from_layout(&single).assign_parity_two_phase().unwrap();
    let ct = parity_counts(&two);
    checks.push((
        "Thm 13 (paper's two-phase G′ variant) agrees",
        ct.iter().max().unwrap() - ct.iter().min().unwrap() <= 1,
    ));

    // Section 5 (simulator + extensions)
    let res = simulate_rebuild(rl.layout(), 0, RebuildTarget::ReadOnly, 1);
    checks.push((
        "simulator: rebuild reads exactly the layout's crossing units",
        rebuild_reads_match_layout(rl.layout(), 0, &res),
    ));
    let r5 = raid5_layout(9, 32);
    let res5 = simulate_rebuild(&r5, 0, RebuildTarget::ReadOnly, 1);
    checks.push((
        "declustered rebuilds faster than RAID5 (same geometry)",
        res.rebuild_finished_at.unwrap() < res5.rebuild_finished_at.unwrap(),
    ));
    let spared = SparedLayout::new(rl.layout().clone()).unwrap();
    let sc = spared.spare_counts();
    checks.push((
        "distributed sparing balanced within one",
        sc.iter().max().unwrap() - sc.iter().min().unwrap() <= 1,
    ));
    let dp = DoubleParityLayout::new(rl.layout().clone()).unwrap();
    let dc = dp.parity_counts();
    checks.push((
        "double parity (generalized Thm 14) balanced within one",
        dc.iter().max().unwrap() - dc.iter().min().unwrap() <= 1,
    ));

    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_claim_holds() {
        let checks = verify_all();
        assert_eq!(checks.len(), 20);
        for (name, ok) in checks {
            assert!(ok, "FAILED: {name}");
        }
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&[&"a", &12, &3.5], &[3, 4, 6]);
        assert_eq!(r, "  a    12     3.5");
    }

    #[test]
    fn header_has_separator() {
        let h = header(&["x", "y"], &[2, 2]);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn bound_check_works() {
        assert_eq!(bound_check((0.5, 0.6), (0.4, 0.7)), "ok");
        assert_eq!(bound_check((0.5, 0.8), (0.4, 0.7)), "VIOLATED");
        assert_eq!(bound_check((0.5, 0.5), (0.5, 0.5)), "ok");
    }
}
