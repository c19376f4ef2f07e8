//! XXH64 — the 64-bit xxHash the block store keeps one of per unit —
//! and a batch form that hashes up to eight equal-length buffers at
//! once.
//!
//! Like [`gf256`](crate::gf256), it is written here rather than pulled
//! in as a dependency. [`xxh64`] is the one-buffer hash,
//! bit-compatible with the reference implementation (tested against
//! its published vectors). It runs four 64-bit lanes over each 32-byte
//! block, and each lane step is a multiply feeding a multiply, so one
//! buffer is bound by the latency of one `imul` chain.
//!
//! [`xxh64_batch`] hashes many buffers, each to exactly what [`xxh64`]
//! gives it. Independent buffers are independent chains, so a vector
//! kernel can run several at once:
//!
//! - **avx512** (x86_64, `avx512f` + `avx512dq`): two buffers share a
//!   512-bit register, four lanes each, and four registers — eight
//!   buffers — step together, so `vpmullq`'s latency is covered by
//!   four independent chains. Groups are eight buffers, then four (two
//!   registers); the rest, and any group whose buffers differ in
//!   length or are shorter than one 32-byte block, take [`xxh64`].
//! - **portable** (every target): [`xxh64`] on each buffer in turn.
//!
//! The vector kernel only runs the 32-byte block loop; each buffer's
//! four lanes are then finished (merged, tail bytes folded in,
//! avalanched) by the same scalar code [`xxh64`] ends with. Selection
//! needs no build flag or setting: the CPU features are detected at
//! run time on first use and the choice cached ([`kernel_name`]
//! reports it).

mod kernel;

#[doc(hidden)]
pub use kernel::Kernel;

/// XXH64 prime constants.
const P1: u64 = 0x9E3779B185EBCA87;
const P2: u64 = 0xC2B2AE3D27D4EB4F;
const P3: u64 = 0x165667B19E3779F9;
const P4: u64 = 0x85EBCA77C2B2AE63;
const P5: u64 = 0x27D4EB2F165667C5;

/// Bytes per block of the four-lane loop.
const BLOCK: usize = 32;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes")) as u64
}

/// The four lanes' starting values for `seed`.
#[inline]
fn lanes_init(seed: u64) -> [u64; 4] {
    [seed.wrapping_add(P1).wrapping_add(P2), seed.wrapping_add(P2), seed, seed.wrapping_sub(P1)]
}

/// XXH64 of `data` with `seed` — bit-compatible with the reference
/// implementation. Four independent 64-bit lanes over 32-byte blocks
/// keep the hot loop superscalar; a 512-byte unit hashes in 16 block
/// iterations.
pub fn xxh64(seed: u64, data: &[u8]) -> u64 {
    let body = data.len() - data.len() % BLOCK;
    let lanes = (data.len() >= BLOCK).then(|| {
        let mut v = lanes_init(seed);
        for block in data[..body].chunks_exact(BLOCK) {
            for (lane, word) in v.iter_mut().zip(block.chunks_exact(8)) {
                *lane = round(*lane, read_u64(word));
            }
        }
        v
    });
    finish(seed, lanes, &data[body..], data.len())
}

/// The end of an XXH64 of `len` bytes: merges the four `lanes` left by
/// its block loop (`None` when `len` is under one block), folds in the
/// `tail` bytes after the last block, and avalanches.
#[inline]
fn finish(seed: u64, lanes: Option<[u64; 4]>, tail: &[u8], len: usize) -> u64 {
    let mut h = match lanes {
        Some([v1, v2, v3, v4]) => {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            [v1, v2, v3, v4].into_iter().fold(h, merge_round)
        }
        None => seed.wrapping_add(P5),
    };
    h = h.wrapping_add(len as u64);
    let mut rest = tail;
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Name of the kernel [`xxh64_batch`] runs on in this process:
/// `"avx512"` or `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::active().name()
}

/// `out[i] = xxh64(seed, units[i])` for every `i`, eight or four
/// equal-length units at a time on the [vector kernel](self).
///
/// # Panics
/// Panics if `out` and `units` differ in length.
#[inline]
pub fn xxh64_batch(seed: u64, units: &[&[u8]], out: &mut [u64]) {
    Kernel::active().xxh64_batch(seed, units, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published XXH64 reference vectors (xxhash's own sanity table:
    /// the byte sequence is `2654435761^n`-generated, same as the
    /// upstream `XSUM_sanityCheck`).
    #[test]
    fn xxh64_matches_reference_vectors() {
        for (len, seed, want) in REFERENCE {
            assert_eq!(xxh64(seed, &reference_bytes()[..len]), want, "len {len} seed {seed}");
        }
    }

    /// `(length, seed, XXH64)` over [`reference_bytes`].
    const REFERENCE: [(usize, u64, u64); 8] = [
        (0, 0, 0xEF46DB3751D8E999),
        (0, 2654435761, 0xAC75FDA2929B17EF),
        (1, 0, 0x4FCE394CC88952D8),
        (1, 2654435761, 0x739840CB819FA723),
        (14, 0, 0xCFFA8DB881BC3A3D),
        (14, 2654435761, 0x5B9611585EFCC9CB),
        (101, 0, 0x0EAB543384F878AD),
        (101, 2654435761, 0xCAA65939306F1E21),
    ];

    fn reference_bytes() -> Vec<u8> {
        let mut gen: u32 = 2654435761;
        (0..101)
            .map(|_| {
                let b = (gen >> 24) as u8;
                gen = gen.wrapping_mul(gen);
                b
            })
            .collect()
    }

    /// A splitmix64 stream: seeded test bytes without a dependency.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        (0..n.div_ceil(8)).flat_map(|_| next().to_le_bytes()).take(n).collect()
    }

    /// The kernel equivalence battery: every kernel this host can run
    /// gives every unit of a batch exactly its scalar `xxh64` — at
    /// every batch size from 1 to 17 (full groups of eight and four
    /// and every remainder), at one block, unit and request sizes plus
    /// one length that leaves a tail of every width (8, 4 and 1 bytes),
    /// on unaligned units, for several seeds.
    #[test]
    fn every_kernel_matches_scalar_xxh64() {
        const MAX: usize = 17;
        for len in [32usize, 512, 4096, 65_536, 4096 + 13] {
            let buf = bytes(len as u64, MAX * (len + 2) + 1);
            // Unit `i` starts at byte `1 + i·(len + 2)`: at an odd
            // address for every block-multiple length.
            let units: Vec<&[u8]> = (0..MAX).map(|i| &buf[1 + i * (len + 2)..][..len]).collect();
            for seed in [0, 1, 0x70646c5f73756d73, u64::MAX] {
                let want: Vec<u64> = units.iter().map(|u| xxh64(seed, u)).collect();
                for kernel in Kernel::available() {
                    for n in 1..=MAX {
                        let mut got = vec![0u64; n];
                        kernel.xxh64_batch(seed, &units[..n], &mut got);
                        let ctx = format!("{} len {len} seed {seed:#x} batch {n}", kernel.name());
                        assert_eq!(got, want[..n], "{ctx}");
                    }
                }
            }
        }
    }

    /// A batch with one unit longer than the rest — at the head, in a
    /// full group, in the last group of four — falls back where the
    /// lengths differ and still hashes every unit exactly; so do the
    /// reference vectors, alone, as one mixed batch, and as eight
    /// copies of one length.
    #[test]
    fn unequal_lengths_and_reference_vectors_batch_exactly() {
        let buf = bytes(7, 17 * 600);
        for odd in [0, 5, 14] {
            let units: Vec<&[u8]> =
                (0..17).map(|i| &buf[i * 600..][..if i == odd { 544 } else { 512 }]).collect();
            let want: Vec<u64> = units.iter().map(|u| xxh64(3, u)).collect();
            for kernel in Kernel::available() {
                let mut got = vec![0u64; units.len()];
                kernel.xxh64_batch(3, &units, &mut got);
                assert_eq!(got, want, "{} longer unit at {odd}", kernel.name());
            }
        }
        let reference = reference_bytes();
        for kernel in Kernel::available() {
            let name = kernel.name();
            let mixed: Vec<&[u8]> = REFERENCE.iter().map(|&(len, ..)| &reference[..len]).collect();
            for seed in [0, 2654435761] {
                let mut got = [0u64; 8];
                kernel.xxh64_batch(seed, &mixed, &mut got);
                for ((len, case_seed, sum), got) in REFERENCE.into_iter().zip(got) {
                    if case_seed == seed {
                        assert_eq!(got, sum, "{name} mixed batch, len {len} seed {seed}");
                    }
                }
            }
            for (len, seed, sum) in REFERENCE {
                for n in [1, 4, 8, 12] {
                    let mut got = vec![0u64; n];
                    kernel.xxh64_batch(seed, &vec![&reference[..len]; n], &mut got);
                    assert_eq!(got, vec![sum; n], "{name} len {len} seed {seed} × {n}");
                }
            }
        }
    }

    #[test]
    fn kernel_name_is_the_active_available_kernel() {
        let name = kernel_name();
        println!("xxh64 kernel: {name}"); // CI shows this with --nocapture
        assert!(Kernel::available().any(|k| k.name() == name));
        assert_eq!(Kernel::available().next().map(Kernel::name), Some("portable"));
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn xxh64_batch_rejects_length_mismatch() {
        xxh64_batch(0, &[&[0u8; 64][..]; 8], &mut [0u64; 7]);
    }
}
