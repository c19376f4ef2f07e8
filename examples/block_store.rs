//! Quickstart for the `pdl-store` subsystem: build a declustered block
//! store on real bytes, fail a disk, read degraded, rebuild onto a
//! spare, and print the measured per-disk rebuild load next to the
//! paper's (k−1)/(v−1) prediction — then do it again with double
//! parity (P+Q) and **two** concurrent failures.
//!
//! Run with: `cargo run --release --example block_store`

use parity_decluster::core::{DoubleParityLayout, RingLayout};
use parity_decluster::sim::{Trace, TraceOp, Workload};
use parity_decluster::store::{BlockStore, MemBackend, Rebuilder};

/// Lands every write of a simulator trace on the store, each block's
/// bytes a function of its address and the op's index; returns the
/// writes and the blocks they carried.
fn load(store: &BlockStore<MemBackend>, trace: &Trace) -> (usize, usize) {
    let us = store.unit_size();
    let (mut writes, mut blocks) = (0, 0);
    for (i, op) in trace.ops.iter().enumerate() {
        if let TraceOp::Write { addr, len } = *op {
            let data: Vec<u8> = (0..len * us).map(|b| (addr * 31 + i * 7 + b) as u8).collect();
            store.write_blocks(addr, &data).expect("trace write");
            writes += 1;
            blocks += len;
        }
    }
    (writes, blocks)
}

fn main() {
    // A ring-declustered layout: v = 9 disks, stripes of k = 4.
    let (v, k) = (9usize, 4usize);
    let rl = RingLayout::for_v_k(v, k);
    let layout = rl.layout().clone();
    let unit_size = 4096;
    let copies = 4;

    // Backend: v disks plus one spare, `copies` layout copies deep.
    let backend = MemBackend::new(v + 1, copies * layout.size(), unit_size);
    let store = BlockStore::new(layout, backend).expect("geometry fits");
    println!(
        "block store: v={v} k={k}, {} blocks × {unit_size} B = {:.1} MiB data",
        store.blocks(),
        (store.blocks() * unit_size) as f64 / (1 << 20) as f64
    );

    // Fill with a deterministic pattern via a simulator-style trace.
    let workload = Workload { read_fraction: 0.0, request_units: (1, 8), ..Workload::default() };
    let trace = Trace::from_workload(&workload, store.blocks(), 2_000, 7);
    let (writes, blocks) = load(&store, &trace);
    println!("loaded via trace: {writes} writes, {blocks} blocks");
    store.verify_parity().expect("parity consistent");

    // Fail a disk; all data stays readable (reconstructed on the fly).
    let failed = 3;
    store.fail_disk(failed).expect("single failure tolerated");
    let mut buf = vec![0u8; unit_size];
    store.read_block(0, &mut buf).expect("degraded read");
    println!("disk {failed} failed — degraded reads OK");

    // Online rebuild onto the spare (physical disk v).
    store.reset_counters();
    let report = Rebuilder::default().rebuild(&store, v).expect("rebuild");
    store.verify_parity().expect("parity restored");

    println!(
        "rebuilt {} units onto spare {} with {} workers in {:.2?}",
        report.units_rebuilt, report.spare_disk, report.workers, report.elapsed
    );
    println!("\nper-surviving-disk rebuild reads (units):");
    for (d, &reads) in report.per_disk_reads.iter().enumerate() {
        if d == report.failed_disk {
            println!("  disk {d}: (failed)");
        } else {
            println!("  disk {d}: {reads}");
        }
    }
    let predicted = (k - 1) as f64 / (v - 1) as f64;
    println!(
        "\nmeasured mean read fraction {:.4}  |  paper's (k-1)/(v-1) = {predicted:.4}  |  \
         imbalance {:.2}%",
        report.mean_read_fraction(),
        report.read_imbalance() * 100.0
    );

    // ── Double parity: survive TWO concurrent failures ──────────────
    println!("\n=== P+Q double parity ===");
    let dp = DoubleParityLayout::new(rl.layout().clone()).expect("k >= 3");
    let backend = MemBackend::new(v + 2, copies * dp.layout().size(), unit_size);
    let store = BlockStore::new_pq(dp, backend).expect("geometry fits");
    println!(
        "pq store: tolerance {} failures, {} blocks (overhead 2/k = {:.0}%)",
        store.fault_tolerance(),
        store.blocks(),
        200.0 / k as f64
    );
    // Fewer data blocks per stripe (k−2, not k−1): size a fresh trace.
    let pq_trace = Trace::from_workload(&workload, store.blocks(), 2_000, 7);
    load(&store, &pq_trace);
    store.verify_parity().expect("P and Q consistent");

    store.fail_disk(2).expect("first failure");
    store.fail_disk(6).expect("second failure");
    store.read_block(0, &mut buf).expect("two-erasure degraded read");
    println!("disks 2 and 6 failed — doubly-degraded reads OK");

    store.reset_counters();
    let reports = Rebuilder::default().rebuild_all(&store, &[v, v + 1]).expect("double rebuild");
    store.verify_parity().expect("parity restored");
    for (phase, r) in reports.iter().enumerate() {
        println!(
            "phase {}: disk {} -> spare {}  mean read fraction {:.4} (predicted {predicted:.4}), \
             imbalance {:.2}%",
            phase + 1,
            r.failed_disk,
            r.spare_disk,
            r.mean_read_fraction(),
            r.read_imbalance() * 100.0
        );
    }
}
