//! The online-reshape battery: differential racing schedules against
//! a shadow model (reads/writes/fail/restore concurrent with
//! `add_disks`/`remove_disks` at 2/4/8 threads, mem + file backends,
//! XOR and P+Q), crash-resume from every persisted migration
//! checkpoint, an in-memory retry of a commit cut mid-slide, the
//! reopen of a document in the older shape, live progress counts,
//! refusal of malformed `reshape` sections, and post-reshape
//! invariants: the (k−1)/(v−1) rebuild balance on the target layout,
//! clean parity, and vectored-I/O accounting pins on the migration
//! engine. A commit cut at each of its barriers and reopened is
//! covered by the crate's unit tests (`meta.rs`), which can put a
//! faulty backend under an array directory.

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    create_file_store, create_file_store_pq, open_file_store, Backend, BlockStore, CachePolicy,
    FileBackend, MemBackend, OpKind, ParityScheme, Rebuilder, ReshapeDriverConfig, ReshapeState,
    StoreError, StoreMeta, META_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use support::faulty::{FaultConfig, FaultyBackend};
use support::fill_pattern;

const UNIT: usize = 64;

/// Deterministic xorshift64* — the battery must replay from its seed
/// alone, with no dependence on crate-external RNG state.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

fn prefill<B: Backend>(store: &BlockStore<B>, salt: u64) {
    let mut block = vec![0u8; store.unit_size()];
    for addr in 0..store.blocks() {
        fill_pattern(addr, salt, &mut block);
        store.write_block(addr, &block).unwrap();
    }
}

/// First physical disk not mapped to any logical disk.
fn first_spare<B: Backend>(store: &BlockStore<B>) -> usize {
    let mapped: Vec<usize> = (0..store.v()).map(|d| store.physical_disk(d)).collect();
    (0..store.backend().disks())
        .find(|p| !mapped.contains(p))
        .expect("an unmapped spare survives the reshape")
}

#[derive(Clone, Copy)]
enum Dir {
    Add(usize),
    Remove(usize),
}

/// The differential core: `threads` clients of seeded mixed traffic
/// over disjoint regions — every read checked bit-for-bit against a
/// shadow salt model — while one thread runs the whole reshape and
/// another injects a fail/restore schedule. After the race: a full
/// sweep, zeroed new capacity (on add), and clean parity.
fn racing_differential<B: Backend>(store: &BlockStore<B>, threads: usize, seed: u64, dir: Dir) {
    let blocks = store.blocks();
    let unit = store.unit_size();
    let ops = 150usize;
    prefill(store, seed);
    let salts: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(seed)).collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done = &done;
        let salts = &salts;
        s.spawn(move || {
            // Let the clients take the field so begin, every migration
            // batch, and the commit flip all overlap live traffic.
            std::thread::sleep(Duration::from_millis(1));
            let res = match dir {
                Dir::Add(n) => {
                    let mapped: Vec<usize> =
                        (0..store.v()).map(|d| store.physical_disk(d)).collect();
                    let joining: Vec<usize> = (0..store.backend().disks())
                        .filter(|p| !mapped.contains(p))
                        .take(n)
                        .collect();
                    assert_eq!(joining.len(), n, "seed {seed}: not enough spares to add");
                    store.add_disks(&joining)
                }
                Dir::Remove(n) => {
                    let v = store.v();
                    store.remove_disks(&(v - n..v).collect::<Vec<usize>>())
                }
            };
            res.unwrap_or_else(|e| panic!("seed {seed}: racing reshape failed: {e}"));
            done.store(true, Ordering::Release);
        });
        // Fail/restore schedule racing the reshape. Under write-through
        // traffic the first flush that skips the failed disk marks its
        // medium stale, so restore is usually refused — the run then
        // stays degraded and the migration must erasure-decode the
        // disk's units. Both outcomes are valid schedules.
        s.spawn(move || {
            while !done.load(Ordering::Acquire) {
                if store.fail_disk(1).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(300));
                match store.restore_disk(1) {
                    Ok(()) => {}
                    Err(StoreError::RebuildRequired { .. }) => break,
                    Err(e) => panic!("seed {seed}: restore: {e}"),
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let per = blocks / threads;
        assert!(per >= 4, "store too small for {threads} threads");
        for t in 0..threads {
            let lo = t * per;
            let hi = if t + 1 == threads { blocks } else { lo + per };
            s.spawn(move || {
                let mut rng = Rng(seed ^ ((t as u64 + 1) << 32) | 1);
                let mut buf = vec![0u8; 4 * unit];
                let mut want = vec![0u8; unit];
                for i in 0..ops {
                    let len = 1 + rng.below(4);
                    let addr = lo + rng.below(hi - lo - len + 1);
                    if rng.coin() {
                        let out = &mut buf[..len * unit];
                        store
                            .read_blocks(addr, out)
                            .unwrap_or_else(|e| panic!("seed {seed} t{t} op {i}: read: {e}"));
                        for (j, chunk) in out.chunks_exact(unit).enumerate() {
                            let salt = salts[addr + j].load(Ordering::Relaxed);
                            fill_pattern(addr + j, salt, &mut want);
                            assert_eq!(
                                chunk,
                                &want[..],
                                "seed {seed} t{t} op {i}: block {} diverged from the model",
                                addr + j
                            );
                        }
                    } else {
                        let salt = seed ^ ((t as u64 + 1) << 40) ^ ((i as u64 + 1) << 8);
                        let data = &mut buf[..len * unit];
                        for (j, chunk) in data.chunks_exact_mut(unit).enumerate() {
                            fill_pattern(addr + j, salt + j as u64, chunk);
                        }
                        store
                            .write_blocks(addr, data)
                            .unwrap_or_else(|e| panic!("seed {seed} t{t} op {i}: write: {e}"));
                        for j in 0..len {
                            salts[addr + j].store(salt + j as u64, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    match dir {
        Dir::Add(_) => assert!(store.blocks() > blocks, "add grew capacity"),
        Dir::Remove(_) => assert_eq!(store.blocks(), blocks, "remove preserves capacity"),
    }
    // If the fail/restore schedule left the array degraded, drain the
    // failure onto a surviving spare so parity is checkable — the
    // sweep below exercises the decode path either way.
    if store.is_degraded() {
        Rebuilder::default()
            .rebuild(store, first_spare(store))
            .unwrap_or_else(|e| panic!("seed {seed}: post-run rebuild: {e}"));
    }
    let mut got = vec![0u8; unit];
    let mut want = vec![0u8; unit];
    for (addr, salt) in salts.iter().enumerate() {
        store.read_block(addr, &mut got).unwrap();
        fill_pattern(addr, salt.load(Ordering::Relaxed), &mut want);
        assert_eq!(got, want, "seed {seed}: block {addr} corrupted after reshape");
    }
    for addr in blocks..store.blocks() {
        store.read_block(addr, &mut got).unwrap();
        assert!(got.iter().all(|&b| b == 0), "seed {seed}: new block {addr} not zero-filled");
    }
    store.verify_parity().unwrap();
}

fn xor_store_mem(v: usize, k: usize, copies: usize, spares: usize) -> BlockStore<MemBackend> {
    let layout = RingLayout::for_v_k(v, k).layout().clone();
    let backend = MemBackend::new(v + spares, copies * layout.size(), UNIT);
    BlockStore::new(layout, backend).unwrap()
}

fn pq_store_mem(v: usize, k: usize, copies: usize, spares: usize) -> BlockStore<MemBackend> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(v, k).layout().clone()).unwrap();
    let backend = MemBackend::new(v + spares, copies * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp, backend).unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdl-reshape-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn racing_add_differential_xor_mem() {
    for (i, threads) in [2usize, 4, 8].into_iter().enumerate() {
        let store = xor_store_mem(5, 3, 2, 2);
        racing_differential(&store, threads, 0xadd0 + i as u64, Dir::Add(1));
        assert_eq!(store.v(), 6);
    }
    // One more racing writer: its dual write into the target world
    // meets a transient backend error. Under write-back the source
    // write is cached, so the target-world mirror is the first backend
    // call — and it is retried like every other path's.
    let layout = RingLayout::for_v_k(5, 3).layout().clone();
    let mem = MemBackend::new(5 + 2, 2 * layout.size(), UNIT);
    let store = BlockStore::new(layout, FaultyBackend::new(mem, FaultConfig::quiet(7))).unwrap();
    prefill(&store, 7);
    let blocks = store.blocks();
    store.set_cache_policy(CachePolicy::write_back()).unwrap();
    store.begin_add_disks(&[5]).unwrap();
    let block = vec![0x5a; UNIT];
    store.backend().fail_next(1);
    store.write_block(3, &block).expect("a transient during the dual write is absorbed");
    assert_eq!(store.backend().injected_transients(), 1);
    assert_eq!(store.stats().integrity.transient_retries, 1);
    // The commit slide's first transfer meets one too: retried as well.
    while !store.reshape_step(0).unwrap() {}
    store.backend().fail_next(1);
    store.complete_reshape().expect("a transient during the commit slide is absorbed");
    assert_eq!(store.backend().injected_transients(), 2);
    assert_eq!(store.stats().integrity.transient_retries, 2);
    let (mut got, mut want) = (vec![0u8; UNIT], vec![0u8; UNIT]);
    for addr in 0..blocks {
        store.read_block(addr, &mut got).unwrap();
        fill_pattern(addr, 7, &mut want);
        assert_eq!(&got, if addr == 3 { &block } else { &want }, "block {addr} after the reshape");
    }
    store.verify_parity().unwrap();
}

#[test]
fn racing_remove_differential_xor_mem() {
    for (i, threads) in [2usize, 4, 8].into_iter().enumerate() {
        let store = xor_store_mem(7, 3, 2, 1);
        racing_differential(&store, threads, 0x5e30 + i as u64, Dir::Remove(1));
        assert_eq!(store.v(), 6);
    }
}

#[test]
fn racing_add_differential_pq_mem() {
    for (i, threads) in [2usize, 8].into_iter().enumerate() {
        let store = pq_store_mem(9, 4, 1, 3);
        racing_differential(&store, threads, 0xbead + i as u64, Dir::Add(1));
        assert_eq!(store.v(), 10);
    }
}

#[test]
fn racing_remove_differential_pq_mem() {
    let store = pq_store_mem(9, 4, 1, 2);
    racing_differential(&store, 4, 0xfade, Dir::Remove(1));
    assert_eq!(store.v(), 8);
}

#[test]
fn racing_add_differential_xor_file() {
    let dir = tmp_dir("addfile");
    let layout = RingLayout::for_v_k(5, 3).layout().clone();
    let backend = FileBackend::create(&dir, 5 + 2, 2 * layout.size(), UNIT).unwrap();
    let store = BlockStore::new(layout, backend).unwrap();
    racing_differential(&store, 8, 0xf11e, Dir::Add(1));
    assert_eq!(store.v(), 6);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn racing_remove_differential_pq_file() {
    let dir = tmp_dir("rmpqfile");
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let backend = FileBackend::create(&dir, 9 + 2, dp.layout().size(), UNIT).unwrap();
    let store = BlockStore::new_pq(dp, backend).unwrap();
    racing_differential(&store, 4, 0x9f11, Dir::Remove(1));
    assert_eq!(store.v(), 8);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copies every regular file of an array directory (disk files,
/// `store.json`, the checksum sidecar) — the crash image a power cut
/// at that instant would leave behind.
fn snapshot_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        if e.file_type().unwrap().is_file() {
            std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
        }
    }
}

fn persisted_reshape_cursor(dir: &Path) -> Option<(String, u64)> {
    let json = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
    let meta = StoreMeta::from_json(&json).unwrap();
    meta.reshape.map(|rs| (rs.phase, rs.cursor))
}

/// Satellite 2: snapshot the directory at *every* migration
/// checkpoint boundary, reopen each snapshot as a crashed store, and
/// prove the reshape resumes at the persisted cursor (never restarts)
/// and finishes bit-exact. A scrub pass completed before the reshape
/// must stay counted through every one of those documents: the
/// reshape and scrub checkpoints share `store.json`.
#[test]
fn crash_resume_at_every_checkpoint_file() {
    let dir = tmp_dir("ckpt");
    let layout = RingLayout::for_v_k(5, 3).layout().clone();
    let store = create_file_store(&dir, layout, UNIT, 2, 2).unwrap();
    let seed = 0xc4a5_u64;
    let blocks = store.blocks();
    prefill(&store, seed);
    assert!(store.scrub().unwrap().completed);
    assert_eq!(store.stats().integrity.scrub_passes, 1);
    store.begin_add_disks(&[5]).unwrap();
    // Snapshot 0 is the begin checkpoint (cursor 0); one more follows
    // every step of 7 stripes.
    let mut snaps: Vec<PathBuf> = Vec::new();
    let take_snapshot = |snaps: &mut Vec<PathBuf>| {
        let s = tmp_dir(&format!("ckpt-snap{}", snaps.len()));
        snapshot_dir(&dir, &s);
        snaps.push(s);
    };
    take_snapshot(&mut snaps);
    loop {
        let done = store.reshape_step(7).unwrap();
        take_snapshot(&mut snaps);
        if done {
            break;
        }
    }
    assert!(snaps.len() >= 4, "several checkpoint boundaries to crash at");
    // The original store commits cleanly.
    let report = store.complete_reshape().unwrap();
    assert_eq!(report.to_v, 6);
    drop(store);

    let mut saw_midway = false;
    for snap in &snaps {
        let (phase, cursor) = persisted_reshape_cursor(snap).expect("snapshot is mid-reshape");
        assert_eq!(phase, "migrate");
        let re = open_file_store(snap).unwrap();
        assert!(re.reshaping(), "reopened snapshot resumes the reshape");
        assert_eq!(re.stats().integrity.scrub_passes, 1, "migrate-phase reopen keeps the scrub");
        let progress = re.stats().reshape.expect("reshape visible in stats");
        assert_eq!(
            progress.stripes_done, cursor,
            "resumed cursor equals the persisted checkpoint — resumed, not restarted"
        );
        if cursor > 0 && progress.stripes_done < progress.stripes_total {
            saw_midway = true;
        }
        let run = re.drive_reshape(&ReshapeDriverConfig::default()).unwrap();
        assert_eq!(run.resumed_from, cursor, "the driver attached at the checkpoint");
        assert_eq!(run.report.expect("a driver nobody stops commits").to_v, 6);
        assert_eq!(re.v(), 6);
        re.flush().unwrap();
        drop(re);
        let re = open_file_store(snap).unwrap();
        assert_eq!(re.stats().integrity.scrub_passes, 1, "the resumed commit keeps the scrub");
        let mut got = vec![0u8; UNIT];
        let mut want = vec![0u8; UNIT];
        for addr in 0..blocks {
            re.read_block(addr, &mut got).unwrap();
            fill_pattern(addr, seed, &mut want);
            assert_eq!(got, want, "block {addr} corrupted resuming from {snap:?}");
        }
        re.verify_parity().unwrap();
        drop(re);
        std::fs::remove_dir_all(snap).unwrap();
    }
    assert!(saw_midway, "at least one snapshot crashed strictly mid-migration");

    // The committed original reopens at the target geometry too,
    // with its scrub history.
    let re = open_file_store(&dir).unwrap();
    assert_eq!(re.v(), 6);
    assert!(!re.reshaping());
    assert_eq!(re.stats().integrity.scrub_passes, 1, "the commit keeps the scrub");
    re.verify_parity().unwrap();
    drop(re);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A step of `n` stripes moves the live cursor by exactly `n`: with
/// `reshape_step(1)` the progress in `stats()` counts every stripe, and
/// at the end it agrees with the commit's report. XOR and P+Q.
#[test]
fn reshape_progress_counts_every_stripe_mem() {
    for store in [xor_store_mem(5, 3, 2, 1), pq_store_mem(9, 4, 1, 1)] {
        let scheme = store.scheme();
        prefill(&store, 0x9e0);
        store.begin_add_disks(&[first_spare(&store)]).unwrap();
        let mut last = store.stats().reshape.expect("an active reshape shows in stats");
        assert_eq!((last.stripes_done, last.units_copied), (0, 0), "{scheme:?}");
        loop {
            let done = store.reshape_step(1).unwrap();
            let now = store.stats().reshape.expect("active until the commit");
            assert_eq!(now.stripes_done, last.stripes_done + 1, "{scheme:?}: one stripe a step");
            assert!(now.units_copied > last.units_copied, "{scheme:?}: a stripe writes units");
            last = now;
            if done {
                break;
            }
        }
        assert_eq!(last.stripes_done, last.stripes_total, "{scheme:?}");
        let report = store.complete_reshape().unwrap();
        assert_eq!(last.stripes_total, report.stripes_migrated, "{scheme:?}");
        assert_eq!(last.units_copied, report.units_copied, "{scheme:?}");
        store.verify_parity().unwrap();
    }
}

/// A `store.json` written before a reshape step became one batch
/// carries two more fields at the end of its `reshape` section,
/// `batch_stripes` and `checkpoint_every`. Such a mid-migrate document
/// still opens, and a driver resumes at its cursor and commits
/// bit-exact with clean parity.
#[test]
fn older_reshape_section_still_resumes_file() {
    let dir = tmp_dir("oldshape");
    let layout = RingLayout::for_v_k(5, 3).layout().clone();
    let store = create_file_store(&dir, layout, UNIT, 2, 2).unwrap();
    let seed = 0x01d5_u64;
    let blocks = store.blocks();
    prefill(&store, seed);
    store.begin_add_disks(&[5]).unwrap();
    assert!(!store.reshape_step(7).unwrap());
    drop(store); // the crash
    let path = dir.join(META_FILE);
    let json = std::fs::read_to_string(&path).unwrap();
    let section = json.find("\"reshape\":{").expect("a reshape section");
    let field = section + json[section..].find("\"capacity_after\":").unwrap();
    let end = field + json[field..].find('}').unwrap();
    let older =
        format!("{},\"batch_stripes\":7,\"checkpoint_every\":1{}", &json[..end], &json[end..]);
    std::fs::write(&path, &older).unwrap();
    let re = open_file_store(&dir).unwrap();
    assert!(re.reshaping(), "the older document resumes the migration");
    let run = re.drive_reshape(&ReshapeDriverConfig::default()).unwrap();
    assert_eq!(run.resumed_from, 7, "resumed at the document's cursor");
    assert_eq!(run.report.expect("a driver nobody stops commits").to_v, 6);
    let (mut got, mut want) = (vec![0u8; UNIT], vec![0u8; UNIT]);
    for addr in 0..re.blocks() {
        want.fill(0);
        if addr < blocks {
            fill_pattern(addr, seed, &mut want);
        }
        re.read_block(addr, &mut got).unwrap();
        assert_eq!(got, want, "block {addr} after the resumed reshape");
    }
    re.verify_parity().unwrap();
    drop(re);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A commit cut in-process (a failed write mid-slide) retries from
/// the watermark in memory — never re-reading scratch rows its own
/// first attempt already slid over.
#[test]
fn commit_fault_in_memory_retry_mem() {
    let layout = RingLayout::for_v_k(5, 3).layout().clone();
    let mem = MemBackend::new(5 + 2, 2 * layout.size(), UNIT);
    let store = BlockStore::new(layout, FaultyBackend::new(mem, FaultConfig::quiet(3))).unwrap();
    let seed = 0x1e77_u64;
    let blocks = store.blocks();
    prefill(&store, seed);
    store.begin_add_disks(&[5]).unwrap();
    while !store.reshape_step(0).unwrap() {}
    assert_eq!(store.blocks(), blocks, "capacity flips only at commit");
    // One slide chunk writes one run to each of the six target disks:
    // the seventh write is the second chunk's first.
    store.backend().fail_write_after(6);
    let err = store.complete_reshape().unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "the failed write surfaces: {err}");
    assert!(store.reshaping(), "faulted commit leaves the reshape active");
    let report = store.complete_reshape().unwrap();
    assert_eq!(report.to_v, 6);
    assert!(store.blocks() > blocks);
    let mut got = vec![0u8; UNIT];
    let mut want = vec![0u8; UNIT];
    for addr in 0..blocks {
        store.read_block(addr, &mut got).unwrap();
        fill_pattern(addr, seed, &mut want);
        assert_eq!(got, want, "block {addr} corrupted by the commit retry");
    }
    store.verify_parity().unwrap();
}

/// The files that define an array, by name: every disk medium and
/// `store.json` (the checksum sidecar is best-effort and left out).
fn array_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("disk-") || name == META_FILE)
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// A `reshape` section is outside input: one malformed field, in a
/// mid-migrate or a mid-commit document, is refused as `Corrupt` by the
/// open, which writes nothing first.
#[test]
fn malformed_reshape_sections_are_refused_file() {
    let dir = tmp_dir("malformed");
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let store = create_file_store_pq(&dir, dp, UNIT, 1, 2).unwrap();
    let disks = store.backend().disks();
    prefill(&store, 0xbad5);
    store.begin_remove_disks(&[8]).unwrap();
    assert!(!store.reshape_step(2).unwrap());
    let migrate = tmp_dir("malformed-migrate");
    snapshot_dir(&dir, &migrate);
    while !store.reshape_step(0).unwrap() {}
    drop(store);
    // The commit's first barrier records exactly this document with
    // its phase turned to "commit": the mid-commit crash image before
    // any slide chunk.
    let commit = tmp_dir("malformed-commit");
    snapshot_dir(&dir, &commit);
    std::fs::remove_dir_all(&dir).unwrap();
    let json = std::fs::read_to_string(commit.join(META_FILE)).unwrap();
    let mut meta = StoreMeta::from_json(&json).unwrap();
    meta.reshape.as_mut().unwrap().phase = "commit".into();
    std::fs::write(commit.join(META_FILE), meta.to_json()).unwrap();
    let (_, total) = persisted_reshape_cursor(&commit).unwrap();
    type Edit = dyn Fn(&mut ReshapeState);
    let rows: [(&str, &Edit); 9] = [
        ("cursor past the total", &move |rs| rs.cursor = total + 1),
        ("slide_done past U_tgt", &|rs| {
            rs.slide_done = (rs.grown_units - rs.scratch_base) as u64 + 1;
        }),
        ("tgt_redirect repeated", &|rs| rs.tgt_redirect[1] = rs.tgt_redirect[0]),
        ("tgt_redirect out of range", &move |rs| rs.tgt_redirect[0] = disks),
        ("tgt_redirect of the wrong length", &|rs| _ = rs.tgt_redirect.pop()),
        ("grown_units off the file length", &|rs| rs.grown_units += 1),
        ("zero target_copies", &|rs| rs.target_copies = 0),
        ("no target_parity_slots under P+Q", &|rs| rs.target_parity_slots.clear()),
        ("removed disks that keep too many", &|rs| rs.removed.clear()),
    ];
    let mut accepted = Vec::new();
    for snap in [&migrate, &commit] {
        let case = tmp_dir("malformed-case");
        for (row, edit) in &rows {
            snapshot_dir(snap, &case);
            let json = std::fs::read_to_string(case.join(META_FILE)).unwrap();
            let mut meta = StoreMeta::from_json(&json).unwrap();
            let rs = meta.reshape.as_mut().unwrap();
            let phase = rs.phase.clone();
            edit(rs);
            std::fs::write(case.join(META_FILE), meta.to_json()).unwrap();
            let before = array_files(&case);
            let opened = open_file_store(&case);
            let refused = matches!(opened, Err(StoreError::Corrupt(_)));
            drop(opened);
            if !refused || array_files(&case) != before {
                accepted.push(format!("{phase}: {row}"));
            }
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert!(accepted.is_empty(), "not refused, or files written first: {accepted:#?}");
    // The untouched snapshots still open: one resumes, one commits.
    assert!(open_file_store(&migrate).unwrap().reshaping());
    let re = open_file_store(&commit).unwrap();
    assert_eq!((re.v(), re.reshaping()), (8, false));
    re.verify_parity().unwrap();
    drop(re);
    std::fs::remove_dir_all(&migrate).unwrap();
    std::fs::remove_dir_all(&commit).unwrap();
}

/// Satellite 3a: the paper's (k−1)/(v−1) rebuild balance holds on the
/// *target* layout — a disk failed after an add-reshape rebuilds with
/// the declustered read fraction of the new geometry.
#[test]
fn post_reshape_rebuild_balance_and_parity_mem() {
    let store = xor_store_mem(9, 4, 4, 2);
    prefill(&store, 0xba1a);
    let report = store.add_disks(&[9]).unwrap();
    assert_eq!(report.to_v, 10);
    assert_eq!(store.v(), 10);
    store.verify_parity().unwrap();
    store.fail_disk(0).unwrap();
    let rb = Rebuilder::default().rebuild(&store, 10).unwrap();
    let expect = (4.0 - 1.0) / (10.0 - 1.0);
    let got = rb.mean_read_fraction();
    assert!(
        (got - expect).abs() < 0.05,
        "target-layout rebuild balance: mean read fraction {got:.4}, want (k-1)/(v-1) = {expect:.4}"
    );
    store.verify_parity().unwrap();
}

/// A reshape reports the moved fraction of the store's own maps: the
/// share of the common one-copy address range whose `locate` differs
/// between the map before and the map after. Under P+Q that is not the
/// XOR map's figure, because a Q unit is not data.
#[test]
fn moved_fraction_is_measured_on_the_store_maps_mem() {
    for store in [xor_store_mem(9, 4, 2, 0), pq_store_mem(9, 4, 2, 0)] {
        let before = store.stripe_map();
        let report = store.remove_disks(&[0]).unwrap();
        let after = store.stripe_map();
        let n = before.data_units_per_copy().min(after.data_units_per_copy());
        let moved = (0..n).filter(|&a| before.locate(a) != after.locate(a)).count();
        assert_eq!(report.moved_fraction, moved as f64 / n as f64, "{:?}", store.scheme());
    }
}

/// Satellite 3b: migration I/O is vectored — with one step covering
/// one full target copy (`reshape_step(0)`), the engine issues at most
/// one read call per source disk and one write call per target disk —
/// and the per-disk unit counters only ever grow.
#[test]
fn migration_io_vectored_and_monotone_mem() {
    let store = xor_store_mem(5, 3, 1, 1);
    prefill(&store, 0x10ac);
    let before_reads: Vec<u64> = (0..6).map(|p| store.backend().read_count(p)).collect();
    let before_writes: Vec<u64> = (0..6).map(|p| store.backend().write_count(p)).collect();
    store.begin_add_disks(&[5]).unwrap();
    store.reset_counters();
    let done = store.reshape_step(0).unwrap();
    assert!(done, "one full-copy step covers the whole single-copy migration");
    for p in 0..5 {
        assert!(
            store.backend().read_calls(p) <= 1,
            "source disk {p}: {} read calls in one batch (want ≤ 1 vectored call)",
            store.backend().read_calls(p)
        );
    }
    for p in 0..6 {
        assert!(
            store.backend().write_calls(p) <= 1,
            "target disk {p}: {} write calls in one batch (want ≤ 1 vectored call)",
            store.backend().write_calls(p)
        );
    }
    let mid_reads: Vec<u64> = (0..6).map(|p| store.backend().read_count(p)).collect();
    let mid_writes: Vec<u64> = (0..6).map(|p| store.backend().write_count(p)).collect();
    store.complete_reshape().unwrap();
    let after_reads: Vec<u64> = (0..6).map(|p| store.backend().read_count(p)).collect();
    let after_writes: Vec<u64> = (0..6).map(|p| store.backend().write_count(p)).collect();
    for p in 0..6 {
        assert!(after_reads[p] >= mid_reads[p], "disk {p} read units regressed");
        assert!(after_writes[p] >= mid_writes[p], "disk {p} write units regressed");
    }
    // reset_counters is the only sanctioned way down; the snapshot
    // taken before the reshape began is unrelated to these.
    drop((before_reads, before_writes));
    assert_eq!(store.v(), 6);
    store.verify_parity().unwrap();
}

/// A corrupt source unit is repaired, not migrated: the band read
/// verifies every unit it copies or folds, so a latent error on the
/// source is decoded from parity before the batch assembles its
/// target stripes — the commit drops every checksum, so a unit
/// migrated corrupt would read back wrong with no error ever after.
/// XOR (ring v=7 k=3) and P+Q (ring v=9 k=4), grow onto the spare
/// and shrink by the last disk; two data units of disk 2 rot.
#[test]
fn reshape_repairs_a_corrupt_source_unit_before_migrating_it() {
    const SALT: u64 = 0xc0de;
    let stores = || {
        let layout = RingLayout::for_v_k(7, 3).layout().clone();
        let xor = MemBackend::new(8, layout.size(), UNIT);
        let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
        let pq = MemBackend::new(10, dp.layout().size(), UNIT);
        [
            BlockStore::new(layout, FaultyBackend::new(xor, FaultConfig::quiet(1))).unwrap(),
            BlockStore::new_pq(dp, FaultyBackend::new(pq, FaultConfig::quiet(2))).unwrap(),
        ]
    };
    for add in [true, false] {
        for store in stores() {
            let ctx = format!("{:?} {}", store.scheme(), if add { "add" } else { "remove" });
            prefill(&store, SALT);
            let blocks = store.blocks();
            let map = store.stripe_map();
            let rotted: Vec<usize> =
                (0..blocks).filter(|&a| map.locate(a).disk == 2).take(2).collect();
            assert_eq!(rotted.len(), 2, "{ctx}");
            for &a in &rotted {
                let u = map.locate(a);
                store.backend().corrupt_unit(store.physical_disk(2), u.offset as usize).unwrap();
            }
            let v = store.v();
            if add {
                store.add_disks(&[v]).unwrap();
            } else {
                store.remove_disks(&[v - 1]).unwrap();
            }
            let (mut got, mut want) = (vec![0u8; UNIT], vec![0u8; UNIT]);
            for addr in 0..blocks {
                store.read_block(addr, &mut got).unwrap();
                fill_pattern(addr, SALT, &mut want);
                assert_eq!(got, want, "{ctx}: block {addr} (rotted: {rotted:?})");
            }
            store.verify_parity().unwrap();
            assert_eq!(store.stats().integrity.checksum_repairs, 2, "{ctx}: one repair per rot");
        }
    }
}

/// An aligned full-stripe batch during an active reshape stays one
/// batch: its source side plans the stripe with no reads, so its only
/// reads are its dual writes' — the target data unit and its parities,
/// 2 per block under XOR and 3 under P+Q — and it records one `Write`
/// op, where one `write_block` per block would add each block's
/// partial-stripe reads and op.
#[test]
fn aligned_batch_during_a_reshape_reads_only_for_its_dual_writes_mem() {
    for store in [xor_store_mem(9, 4, 1, 1), pq_store_mem(9, 4, 1, 1)] {
        let ctx = format!("{:?}", store.scheme());
        let per_block = if store.scheme() == ParityScheme::PQ { 3 } else { 2 };
        prefill(&store, 0xba7c);
        let v = store.v();
        store.begin_add_disks(&[v]).unwrap();
        let (lo, k_data) = store.stripe_map().stripe_data_range(0);
        let data: Vec<u8> = (0..k_data * UNIT).map(|i| (i % 251) as u8 ^ 0x3c).collect();
        let ops_before = store.stats().op(OpKind::Write).unwrap().ops;
        store.reset_counters();
        store.write_blocks(lo, &data).unwrap();
        let b = store.backend();
        let reads: u64 = (0..b.disks()).map(|p| b.read_count(p)).sum();
        assert_eq!(reads, (per_block * k_data) as u64, "{ctx}: {k_data} blocks");
        let ops = store.stats().op(OpKind::Write).unwrap().ops - ops_before;
        assert_eq!(ops, 1, "{ctx}: one batch, one op");

        while !store.reshape_step(0).unwrap() {}
        store.complete_reshape().unwrap();
        let mut got = vec![0u8; data.len()];
        store.read_blocks(lo, &mut got).unwrap();
        assert_eq!(got, data, "{ctx}");
        store.verify_parity().unwrap();
    }
}

/// A dual write is one raw read round and one write round over the
/// target data unit and its parities. With a write-back cache holding
/// the source side of the write, a nonzero delta costs exactly one
/// read call and one write call on each target unit's disk — 3 + 3
/// under P+Q, 2 + 2 under XOR — and rewriting the same value reads
/// the same units and writes nothing. After the commit those disks
/// are exactly the ones holding the address's stripe.
#[test]
fn dual_write_is_one_read_round_and_one_write_round_mem() {
    for store in [xor_store_mem(7, 3, 1, 1), pq_store_mem(9, 4, 1, 1)] {
        let ctx = format!("{:?}", store.scheme());
        let n = if store.scheme() == ParityScheme::PQ { 3 } else { 2 };
        prefill(&store, 0xd0a1);
        store.set_cache_policy(CachePolicy::WriteBack { max_dirty: 1 << 16 }).unwrap();
        let v = store.v();
        store.begin_add_disks(&[v]).unwrap();
        let disks = store.backend().disks();
        let calls = |store: &BlockStore<MemBackend>| -> (Vec<u64>, Vec<u64>) {
            let b = store.backend();
            (
                (0..disks).map(|p| b.read_calls(p)).collect(),
                (0..disks).map(|p| b.write_calls(p)).collect(),
            )
        };
        let (addr, new) = (5, vec![0x5a; UNIT]);
        store.reset_counters();
        store.write_block(addr, &new).unwrap();
        let (reads, writes) = calls(&store);
        let touched: Vec<usize> = (0..disks).filter(|&p| reads[p] > 0).collect();
        assert_eq!(touched.len(), n, "{ctx}: reads {reads:?}");
        for &p in &touched {
            assert_eq!((reads[p], writes[p]), (1, 1), "{ctx}: disk {p}");
        }
        assert_eq!(writes.iter().sum::<u64>(), n as u64, "{ctx}: writes {writes:?}");

        store.reset_counters();
        store.write_block(addr, &new).unwrap();
        let (reads, writes) = calls(&store);
        assert_eq!(
            (0..disks).filter(|&p| reads[p] > 0).collect::<Vec<_>>(),
            touched,
            "{ctx}: the same value reads the same units"
        );
        assert_eq!(reads.iter().sum::<u64>(), n as u64, "{ctx}: reads {reads:?}");
        assert_eq!(writes.iter().sum::<u64>(), 0, "{ctx}: a zero delta writes nothing");

        while !store.reshape_step(0).unwrap() {}
        store.complete_reshape().unwrap();
        let (map, layout) = (store.stripe_map(), store.layout());
        let m = map.locate_full(addr);
        let (p_slot, q_slot) = map.parity_slots(m.stripe);
        let units = layout.stripes()[m.stripe].units();
        let mut stripe_disks: Vec<usize> = (std::iter::once(m.slot).chain([p_slot]).chain(q_slot))
            .map(|slot| store.physical_disk(units[slot].disk as usize))
            .collect();
        stripe_disks.sort_unstable();
        assert_eq!(stripe_disks, touched, "{ctx}: one call per target unit's disk");
        let mut got = vec![0u8; UNIT];
        store.read_block(addr, &mut got).unwrap();
        assert_eq!(got, new, "{ctx}");
        store.verify_parity().unwrap();
    }
}
