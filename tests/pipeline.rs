//! End-to-end integration: algebra → design → layout → flow → simulator.
//! Each test exercises the full pipeline the way a storage system would.

use parity_decluster::core::{
    parity_counts, raid5_layout, Layout, QualityReport, RingLayout, SparedLayout, StripeMap,
    StripePartition, StripeUnit,
};
use parity_decluster::design::{theorem5_design, theorem6_design, RingDesign};
use parity_decluster::sim::{
    rebuild_reads_match_layout, simulate, simulate_rebuild, RebuildTarget, SimConfig,
    StopCondition, Workload,
};

/// The address map against its oracle, the layout: over three copies,
/// logical addresses enumerate each stripe's data units in stripe
/// order, `copy × size` rows down.
fn assert_map_follows_layout(layout: &Layout) {
    let map = StripeMap::new(layout, None);
    let order: Vec<(StripeUnit, usize)> = (layout.stripes().iter().enumerate())
        .flat_map(|(si, s)| s.data_units().map(move |u| (u, si)))
        .collect();
    let n = order.len();
    assert_eq!(map.data_units_per_copy(), n);
    for addr in 0..3 * n {
        let (u, si) = order[addr % n];
        let offset = u.offset + (addr / n * layout.size()) as u32;
        assert_eq!(map.locate(addr), StripeUnit { disk: u.disk, offset }, "addr {addr}");
        assert_eq!(map.stripe_of(addr), si, "addr {addr}");
    }
}

/// GF(q) → ring design → ring layout → flow re-balance → simulate rebuild.
#[test]
fn full_pipeline_prime_power() {
    for (v, k) in [(9usize, 4usize), (13, 4), (16, 5)] {
        let rl = RingLayout::for_v_k(v, k);
        let layout = rl.layout();

        // metrics agree with theory
        let q = QualityReport::measure(layout);
        assert!(q.parity_balanced());
        assert!((q.reconstruction_workload.1 - (k as f64 - 1.0) / (v as f64 - 1.0)).abs() < 1e-12);

        // flow re-assignment preserves perfection
        let rebalanced = StripePartition::from_layout(layout).assign_parity().unwrap();
        let counts = parity_counts(&rebalanced);
        assert!(counts.iter().all(|&c| c == counts[0]), "v={v} k={k}");

        // address mapping follows the layout
        assert_map_follows_layout(layout);

        // simulated rebuild touches exactly the predicted units
        for failed in [0, v / 2] {
            let res = simulate_rebuild(layout, failed, RebuildTarget::ReadOnly, 99);
            assert!(rebuild_reads_match_layout(layout, failed, &res), "v={v} k={k} f={failed}");
        }
    }
}

/// Composite v via the Lemma 3 product ring, end to end.
#[test]
fn full_pipeline_composite_v() {
    // v = 21 = 3·7 → M(v) = 3.
    let rl = RingLayout::for_v_k(21, 3);
    let q = QualityReport::measure(rl.layout());
    assert!(q.parity_balanced() && q.reconstruction_balanced());
    let res = simulate_rebuild(rl.layout(), 10, RebuildTarget::ReadOnly, 5);
    assert!(rebuild_reads_match_layout(rl.layout(), 10, &res));
}

/// The simulator's measured per-disk rebuild reads equal the analytic
/// reconstruction workload matrix row, for every failed disk.
#[test]
#[allow(clippy::needless_range_loop)]
fn simulator_matches_analytic_workloads() {
    let rl = RingLayout::for_v_k(8, 3);
    let layout = rl.layout();
    let workloads = parity_decluster::core::reconstruction_workloads(layout);
    for failed in 0..8 {
        let res = simulate_rebuild(layout, failed, RebuildTarget::ReadOnly, failed as u64);
        for d in 0..8 {
            if d == failed {
                assert_eq!(res.rebuild_reads[d], 0);
            } else {
                let measured = res.rebuild_reads[d] as f64 / layout.size() as f64;
                assert!((measured - workloads[failed][d]).abs() < 1e-12, "failed={failed} d={d}");
            }
        }
    }
}

/// Theorem 6 design → single-copy layout → flow parity → degraded sim.
#[test]
fn lambda_one_design_pipeline() {
    let c = theorem6_design(16, 4);
    let single = parity_decluster::core::single_copy_layout(&c.design, 0);
    let layout = StripePartition::from_layout(&single).assign_parity().unwrap();
    assert_eq!(layout.size(), 5, "r = (v-1)/(k-1) = 5 units per disk");
    let q = QualityReport::measure(&layout);
    assert!(q.parity_nearly_balanced());
    // degraded traffic avoids the failed disk entirely
    let cfg = SimConfig {
        seed: 3,
        failed_disk: Some(7),
        workload: Workload { arrivals_per_sec: 200.0, ..Default::default() },
        stop: StopCondition::Duration(3_000_000),
        ..Default::default()
    };
    let res = simulate(&layout, cfg);
    assert_eq!(res.fg_reads[7] + res.fg_writes[7], 0);
    assert!(res.completed > 100);
}

/// Distributed sparing beats the dedicated spare on write bottleneck.
#[test]
fn distributed_sparing_spreads_rebuild_writes() {
    let rl = RingLayout::for_v_k(13, 4);
    let spared = SparedLayout::new(rl.layout().clone()).unwrap();
    let failed = 6;
    let plan = spared.rebuild_plan(failed);
    let mut targets: Vec<Option<(u32, u32)>> = vec![None; spared.layout().b()];
    for (si, u) in &plan.targets {
        targets[*si] = Some((u.disk, u.offset));
    }
    let dist = simulate_rebuild(spared.layout(), failed, RebuildTarget::Distributed(targets), 8);
    let ded = simulate_rebuild(spared.layout(), failed, RebuildTarget::DedicatedSpare, 8);
    // dedicated spare: all writes on one disk; distributed: spread out
    let ded_max = *ded.rebuild_writes.iter().max().unwrap();
    let dist_max = *dist.rebuild_writes.iter().max().unwrap();
    assert!(dist_max < ded_max, "distributed {dist_max} vs dedicated {ded_max}");
    assert!(dist.rebuild_finished_at.unwrap() <= ded.rebuild_finished_at.unwrap());
}

/// RAID5 and declustered layouts agree on totals but not distribution.
#[test]
fn raid5_vs_declustered_accounting() {
    let v = 9;
    let rl = RingLayout::for_v_k(v, 3);
    let size = rl.layout().size();
    let raid5 = raid5_layout(v, size);
    let a = simulate_rebuild(rl.layout(), 0, RebuildTarget::ReadOnly, 1);
    let b = simulate_rebuild(&raid5, 0, RebuildTarget::ReadOnly, 1);
    // both reconstruct `size` units, but RAID5 reads (v-1)/(k-1) more
    let ra: u64 = a.rebuild_reads.iter().sum();
    let rb: u64 = b.rebuild_reads.iter().sum();
    assert_eq!(ra, (3 - 1) * size as u64);
    assert_eq!(rb, (v as u64 - 1) * size as u64);
}

/// The address map follows a stairway-transformed layout.
#[test]
fn stairway_layout_is_fully_functional() {
    let design = RingDesign::for_v_k(13, 4);
    let layout = parity_decluster::core::stairway_layout(&design, 16).unwrap();
    assert_map_follows_layout(&layout);
    assert_eq!(StripeMap::new(&layout, None).data_units_per_copy(), layout.data_unit_count());
    let res = simulate_rebuild(&layout, 15, RebuildTarget::ReadOnly, 12);
    assert!(rebuild_reads_match_layout(&layout, 15, &res));
}

/// Theorem 5 designs slot into the lcm-minimal balanced pipeline.
#[test]
fn lcm_minimal_pipeline() {
    let c = theorem5_design(13, 4); // b = 39, 13 | 39
    let layout = parity_decluster::core::minimal_balanced_layout(&c.design).unwrap();
    assert_eq!(layout.size(), c.params.r);
    let q = QualityReport::measure(&layout);
    assert!(q.parity_balanced());
    assert_map_follows_layout(&layout);
}
