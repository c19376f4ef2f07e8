//! The four Holland–Gibson conditions (Section 1), checked across every
//! construction family the library offers.

use parity_decluster::core::{
    holland_gibson_layout, minimal_balanced_layout, raid5_layout, random_layout,
    single_copy_layout, stairway_layout, Layout, QualityReport, RingLayout, StripeMap,
    StripePartition, StripeUnit,
};
use parity_decluster::design::{complete_design, theorem4_design, theorem6_design, RingDesign};

fn all_layouts() -> Vec<(String, Layout)> {
    vec![
        ("raid5 v=6".into(), raid5_layout(6, 12)),
        ("hg complete v=5,k=3".into(), holland_gibson_layout(&complete_design(5, 3, 1000))),
        ("hg thm4 v=13,k=4".into(), holland_gibson_layout(&theorem4_design(13, 4).design)),
        ("ring v=9,k=4".into(), RingLayout::for_v_k(9, 4).layout().clone()),
        ("ring v=15,k=3".into(), RingLayout::for_v_k(15, 3).layout().clone()),
        ("thm8 v=9→8,k=4".into(), RingLayout::for_v_k(9, 4).remove_disk(0)),
        ("thm9 v=13→11,k=5".into(), RingLayout::for_v_k(13, 5).remove_disks(&[0, 6]).unwrap()),
        ("stairway 8→10,k=3".into(), stairway_layout(&RingDesign::for_v_k(8, 3), 10).unwrap()),
        ("stairway 9→13,k=4".into(), stairway_layout(&RingDesign::for_v_k(9, 4), 13).unwrap()),
        (
            "lcm-min thm6 v=9,k=3".into(),
            minimal_balanced_layout(&theorem6_design(9, 3).design).unwrap(),
        ),
        (
            "flow1 thm6 v=16,k=4".into(),
            StripePartition::from_layout(&single_copy_layout(&theorem6_design(16, 4).design, 0))
                .assign_parity()
                .unwrap(),
        ),
        ("random v=10,k=4".into(), random_layout(10, 4, 12, 42).unwrap()),
    ]
}

/// Condition 1: every layout can reconstruct any single failed disk —
/// each stripe holds at most one unit per disk (enforced by the Layout
/// validator, re-checked here) and every lost unit has surviving peers.
#[test]
fn condition1_reconstructability() {
    for (name, l) in all_layouts() {
        for stripe in l.stripes() {
            let mut disks: Vec<u32> = stripe.units().iter().map(|u| u.disk).collect();
            disks.sort_unstable();
            let n = disks.len();
            disks.dedup();
            assert_eq!(disks.len(), n, "{name}: stripe reuses a disk");
        }
        // losing any disk leaves at least one unit per crossing stripe
        for failed in 0..l.v() {
            for stripe in l.stripes().iter().filter(|s| s.crosses(failed)) {
                assert!(
                    stripe.len() >= 2 || !stripe.crosses(failed),
                    "{name}: stripe unrecoverable after disk {failed}"
                );
            }
        }
    }
}

/// Condition 2: parity spread — Δ ≤ 1 for everything flow-balanced or
/// combinatorial (random placement is re-balanced by the flow too).
#[test]
fn condition2_parity_distribution() {
    for (name, l) in all_layouts() {
        let q = QualityReport::measure(&l);
        assert!(q.parity_nearly_balanced(), "{name}: parity counts {:?}", q.parity_units);
    }
}

/// Condition 3: reconstruction workload stays within sane bounds and is
/// exactly balanced for the BIBD-based families.
#[test]
fn condition3_reconstruction_workload() {
    for (name, l) in all_layouts() {
        let q = QualityReport::measure(&l);
        assert!(q.reconstruction_workload.1 <= 1.0 + 1e-9, "{name}");
        if name.starts_with("ring") || name.starts_with("hg") || name.starts_with("raid5") {
            assert!(q.reconstruction_balanced(), "{name}: {:?}", q.reconstruction_workload);
        }
    }
}

/// Condition 4: the mapping is a table lookup + O(1) arithmetic and the
/// table is small; for every construction it follows the layout — over
/// three copies, addresses enumerate each stripe's data units in stripe
/// order, `copy × size` rows down.
#[test]
fn condition4_mapping_efficiency() {
    for (name, l) in all_layouts() {
        let m = StripeMap::new(&l, None);
        assert_eq!(m.data_units_per_copy(), l.data_unit_count(), "{name}");
        // table entries never exceed v × size (one per unit)
        assert!(m.data_units_per_copy() <= l.v() * l.size(), "{name}");
        let order: Vec<(StripeUnit, usize)> = (l.stripes().iter().enumerate())
            .flat_map(|(si, s)| s.data_units().map(move |u| (u, si)))
            .collect();
        let n = order.len();
        for addr in 0..3 * n {
            let (u, si) = order[addr % n];
            let offset = u.offset + (addr / n * l.size()) as u32;
            assert_eq!(m.locate(addr), StripeUnit { disk: u.disk, offset }, "{name}: {addr}");
            assert_eq!(m.stripe_of(addr), si, "{name}: addr {addr}");
        }
    }
}

/// Cross-cutting: total parity equals the stripe count everywhere.
#[test]
fn parity_totals() {
    for (name, l) in all_layouts() {
        let counts = parity_decluster::core::parity_counts(&l);
        assert_eq!(counts.iter().sum::<usize>(), l.b(), "{name}");
    }
}
