//! Property tests across every layout family in `pdl-design`: the
//! parity invariants hold after arbitrary seeded write sequences
//! (XOR and P+Q), and double-failure reconstruction is bit-exact for
//! **every** pair of failed disks.

use pdl_core::{holland_gibson_layout, raid5_layout, DoubleParityLayout, Layout, RingLayout};
use pdl_design::{complete_design, steiner_triple_system, theorem4_design, theorem6_design};
use pdl_store::{Backend, BlockStore, MemBackend, ParityScheme, Rebuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const UNIT: usize = 32;

/// Unit sizes of the P+Q cases, chosen against the GF(2^8) multiply
/// kernel's 32-byte vector: exactly one vector (and exactly its
/// table-path threshold), a vector plus one 8-byte lane, three vectors
/// plus a byte tail, and a many-vector body plus a lane.
const PQ_UNITS: [usize; 4] = [32, 40, 100, 4104];

/// One layout per construction family exercised by the store:
/// ring-based (Theorem 1), RAID5 baseline, Holland–Gibson over the
/// complete design, the symmetric-generator designs (Theorem 4), the
/// subfield designs (Theorem 6), and Steiner triple systems.
fn families() -> Vec<(&'static str, Layout)> {
    vec![
        ("ring_v7_k3", RingLayout::for_v_k(7, 3).layout().clone()),
        ("ring_v9_k4", RingLayout::for_v_k(9, 4).layout().clone()),
        ("raid5_v6", raid5_layout(6, 12)),
        ("hg_complete_v6_k3", holland_gibson_layout(&complete_design(6, 3, 100))),
        ("hg_thm4_v13_k4", holland_gibson_layout(&theorem4_design(13, 4).design)),
        ("hg_thm6_v9_k3", holland_gibson_layout(&theorem6_design(9, 3).design)),
        ("hg_sts_v7", holland_gibson_layout(&steiner_triple_system(7).design)),
    ]
}

/// A seeded sequence of small writes and multi-block runs, mirrored
/// into a shadow image.
fn seeded_writes<B: Backend>(
    store: &mut BlockStore<B>,
    image: &mut [Vec<u8>],
    seed: u64,
    ops: usize,
) {
    let (blocks, unit) = (store.blocks(), store.unit_size());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ops {
        if rng.random_bool(0.3) {
            // Multi-block run (may hit the full-stripe fast path).
            let len = rng.random_range(1..=8usize).min(blocks);
            let addr = rng.random_range(0..=blocks - len);
            let mut data = vec![0u8; len * unit];
            rng.fill_bytes(&mut data);
            store.write_blocks(addr, &data).unwrap();
            for (j, chunk) in data.chunks_exact(unit).enumerate() {
                image[addr + j] = chunk.to_vec();
            }
        } else {
            let addr = rng.random_range(0..blocks);
            let mut data = vec![0u8; unit];
            rng.fill_bytes(&mut data);
            store.write_block(addr, &data).unwrap();
            image[addr] = data;
        }
    }
}

fn assert_image<B: Backend>(store: &BlockStore<B>, image: &[Vec<u8>], what: &str) {
    let mut out = vec![0u8; store.unit_size()];
    for (addr, block) in image.iter().enumerate() {
        store.read_block(addr, &mut out).unwrap();
        assert_eq!(&out, block, "{what}: block {addr} differs");
    }
}

/// XOR: after an arbitrary seeded write sequence the parity invariant
/// holds and every block reads back, for every layout family.
#[test]
fn xor_parity_holds_after_seeded_writes_all_families() {
    for (name, layout) in families() {
        for seed in [1u64, 42] {
            let backend = MemBackend::new(layout.v(), 2 * layout.size(), UNIT);
            let mut store = BlockStore::new(layout.clone(), backend).unwrap();
            let mut image = vec![vec![0u8; UNIT]; store.blocks()];
            seeded_writes(&mut store, &mut image, seed, 150);
            store.verify_parity().unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_image(&store, &image, name);
        }
    }
}

/// P+Q: the same property with both parity equations, for every
/// family that can carry two parity units (stripes of ≥ 3).
#[test]
fn pq_parity_holds_after_seeded_writes_all_families() {
    for (name, layout) in families() {
        if layout.stripe_size_range().0 < 3 {
            continue;
        }
        let dp = DoubleParityLayout::new(layout).unwrap();
        for unit in PQ_UNITS {
            for seed in [7u64, 99] {
                let backend = MemBackend::new(dp.layout().v(), 2 * dp.layout().size(), unit);
                let mut store = BlockStore::new_pq(dp.clone(), backend).unwrap();
                assert_eq!(store.scheme(), ParityScheme::PQ);
                let mut image = vec![vec![0u8; unit]; store.blocks()];
                seeded_writes(&mut store, &mut image, seed, 150);
                store
                    .verify_parity()
                    .unwrap_or_else(|e| panic!("{name} unit {unit} seed {seed}: {e}"));
                assert_image(&store, &image, &format!("{name} unit {unit}"));
            }
        }
    }
}

/// P+Q double-failure reconstruction is exact for **all** disk pairs:
/// every stripe therefore proves every (lost, lost) slot combination
/// it can express — data+data, data+P, data+Q, and P+Q. Then the same
/// decodes through the rebuild path: two wiped disks rebuilt onto
/// spares in two phases, and a third alone.
#[test]
fn pq_double_failure_exact_for_all_disk_pairs() {
    for (name, layout) in families() {
        if layout.stripe_size_range().0 < 3 {
            continue;
        }
        let v = layout.v();
        let dp = DoubleParityLayout::new(layout).unwrap();
        for unit in PQ_UNITS {
            let backend = MemBackend::new(v + 3, dp.layout().size(), unit);
            let mut store = BlockStore::new_pq(dp.clone(), backend).unwrap();
            let mut image = vec![vec![0u8; unit]; store.blocks()];
            seeded_writes(&mut store, &mut image, 0xfeed, 120);
            store.verify_parity().unwrap();

            for f1 in 0..v {
                for f2 in f1 + 1..v {
                    store.fail_disk(f1).unwrap();
                    store.fail_disk(f2).unwrap();
                    assert_image(
                        &store,
                        &image,
                        &format!("{name} unit {unit} failed ({f1}, {f2})"),
                    );
                    // Transient failures: contents are intact, so restore
                    // instead of rebuilding 36× per family.
                    store.restore_disk(f1).unwrap();
                    store.restore_disk(f2).unwrap();
                }
            }
            store.verify_parity().unwrap();

            for (failed, spares) in [(vec![0, v - 1], vec![v, v + 1]), (vec![1], vec![v + 2])] {
                for &f in &failed {
                    store.fail_disk(f).unwrap();
                    store.backend().wipe_disk(store.physical_disk(f)).unwrap();
                }
                Rebuilder::new(2).rebuild_all(&store, &spares).unwrap();
                assert!(!store.is_degraded());
                assert_image(&store, &image, &format!("{name} unit {unit} rebuilt {failed:?}"));
                store.verify_parity().unwrap();
            }
        }
    }
}

/// XOR single-failure reconstruction is exact for every disk, for
/// every family (the f=1 analogue of the pair sweep above).
#[test]
fn xor_single_failure_exact_for_all_disks() {
    for (name, layout) in families() {
        let v = layout.v();
        let backend = MemBackend::new(v, layout.size(), UNIT);
        let mut store = BlockStore::new(layout, backend).unwrap();
        let mut image = vec![vec![0u8; UNIT]; store.blocks()];
        seeded_writes(&mut store, &mut image, 0xabcd, 120);
        store.verify_parity().unwrap();
        for f in 0..v {
            store.fail_disk(f).unwrap();
            assert_image(&store, &image, &format!("{name} failed {f}"));
            store.restore_disk(f).unwrap();
        }
        store.verify_parity().unwrap();
    }
}
