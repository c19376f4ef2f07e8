//! Array designer: given a disk count `v` and stripe size `k`, survey
//! every construction the paper offers and recommend the best feasible
//! layout — exactly the decision a storage administrator faces.
//!
//! Run with: `cargo run --release --example array_designer -- 30 5`
//! (defaults to v=30, k=5 if no arguments are given)

use parity_decluster::core::{
    layout_size, stairway_layout, Method, QualityReport, RingLayout, StairwayParams,
    DEFAULT_FEASIBILITY_LIMIT,
};
use parity_decluster::design::RingDesign;

fn main() {
    let mut args = std::env::args().skip(1);
    let v: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    assert!(k >= 2 && k <= v, "need 2 <= k <= v");

    println!("designing a parity-declustered layout for v={v} disks, stripe size k={k}");
    println!("feasibility limit: {DEFAULT_FEASIBILITY_LIMIT} units/disk\n");

    println!("{:<14} {:>14} {:>10}", "method", "units/disk", "feasible");
    println!("{}", "-".repeat(42));
    for m in Method::ALL {
        match layout_size(m, v as u64, k as u64) {
            Some(size) => {
                let feasible = size <= DEFAULT_FEASIBILITY_LIMIT as u128;
                println!("{:<14} {:>14} {:>10}", m.name(), size, feasible);
            }
            None => println!("{:<14} {:>14} {:>10}", m.name(), "n/a", "-"),
        }
    }

    // Build the recommended layout: exact ring layout when possible,
    // otherwise a stairway approximation from a nearby prime power.
    println!();
    let m_v = parity_decluster::algebra::min_prime_power_factor(v as u64) as usize;
    if k <= m_v {
        let rl = RingLayout::for_v_k(v, k);
        println!("recommendation: exact ring-based layout (k ≤ M(v) = {m_v})");
        println!("{}", QualityReport::measure(rl.layout()));
    } else {
        let (q, params) = parity_decluster::core::stairway_source_for(v, k)
            .expect("a stairway source exists for all v ≤ 10,000");
        let StairwayParams { c, w, d, .. } = params;
        println!(
            "recommendation: stairway layout from q={q} (d={d}, c={c}, w={w}) — \
             exact layouts need k ≤ M(v) = {m_v}"
        );
        let design = RingDesign::for_v_k(q, k);
        let l = stairway_layout(&design, v).expect("parameters validated");
        let report = QualityReport::measure(&l);
        println!("{report}");
        let (olo, ohi) = params.parity_overhead_bounds(k);
        println!(
            "Theorem 12 overhead bounds: [{olo:.4}, {ohi:.4}] — holds: {}",
            report.parity_overhead.0 >= olo - 1e-9 && report.parity_overhead.1 <= ohi + 1e-9
        );
    }
}
