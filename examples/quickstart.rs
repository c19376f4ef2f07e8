//! Quickstart: build a parity-declustered layout, inspect its quality,
//! and map a logical address.
//!
//! Run with: `cargo run --release --example quickstart`

use parity_decluster::core::{QualityReport, RingLayout, StripeMap};

fn main() {
    // An array of 9 disks with parity stripes of size 4: each stripe has
    // 3 data units + 1 parity unit on 4 distinct disks.
    let (v, k) = (9, 4);
    let rl = RingLayout::for_v_k(v, k);
    let layout = rl.layout();

    println!("ring-based layout for v={v}, k={k}");
    println!("units per disk: {} (= k(v-1))", layout.size());
    println!("parity stripes: {}\n", layout.b());

    // The layout satisfies all four Holland-Gibson conditions:
    let q = QualityReport::measure(layout);
    println!("{q}\n");
    assert!(q.parity_balanced(), "Condition 2: parity spread evenly");
    assert!(q.reconstruction_balanced(), "Condition 3: workload spread evenly");

    // Condition 3 in numbers: rebuilding a failed disk reads only
    // (k-1)/(v-1) = 37.5% of each survivor, vs 100% for RAID5.
    println!(
        "on failure, each surviving disk is read {:.1}% (RAID5: 100%)\n",
        q.reconstruction_workload.1 * 100.0
    );

    // Condition 4: logical→physical mapping is one table lookup. The
    // address resolves to its unit, stripe and layout copy; the stripe's
    // parity unit sits in the same copy, `copy × size` rows down.
    let map = StripeMap::new(layout, None);
    let addr = 1000;
    let at = map.locate_full(addr);
    let (p_slot, _) = map.parity_slots(at.stripe);
    let parity = layout.stripes()[at.stripe].units()[p_slot];
    println!(
        "logical unit {addr} → disk {} offset {} (parity on disk {} offset {})",
        at.unit.disk,
        at.unit.offset,
        parity.disk,
        parity.offset as usize + at.copy * layout.size()
    );
    println!(
        "mapping table: {} entries, ~{} KiB resident",
        map.data_units_per_copy(),
        map.table_bytes() / 1024
    );

    // A peek at the first rows of the layout (stripe ids, * = parity).
    println!("\nfirst rows of the layout:");
    print!("{}", layout.ascii_art(6));
}
