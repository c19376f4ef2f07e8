//! The batch loops behind [`xxh64_batch`](super::xxh64_batch), and
//! the only `unsafe` of the XXH64 code.
//!
//! A vector kernel runs the 32-byte block loop of several equal-length
//! buffers at once and hands each buffer's four lanes to the scalar
//! [`finish`](super::finish); the portable kernel is [`xxh64`] on each
//! buffer and doubles as the fallback for whatever a vector kernel
//! does not take.

use super::{finish, lanes_init, xxh64, BLOCK, P1, P2};
use std::sync::OnceLock;

/// One implementation of the batch hash. [`xxh64_batch`](super::xxh64_batch)
/// runs on [`Kernel::active`]; tests and benches reach every kernel
/// the host can run through [`Kernel::available`]. The field is private
/// so a vector kernel exists only where its CPU features do.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct Kernel(Imp);

#[derive(Clone, Copy, Debug)]
enum Imp {
    /// [`xxh64`] per buffer, safe code, every target.
    Portable,
    /// Eight or four buffers per pass, two to a 512-bit register;
    /// constructed only after AVX-512F and AVX-512DQ are detected.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every kernel this build contains that this host can run,
    /// slowest first (so the last one is the one to use).
    pub fn available() -> impl Iterator<Item = Kernel> {
        #[cfg(target_arch = "x86_64")]
        let vector = (std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"))
        .then_some(Imp::Avx512);
        #[cfg(not(target_arch = "x86_64"))]
        let vector = None;
        std::iter::once(Imp::Portable).chain(vector).map(Kernel)
    }

    /// The kernel [`xxh64_batch`](super::xxh64_batch) uses: the fastest
    /// available one, chosen on first use.
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| Kernel::available().last().expect("portable is always available"))
    }

    /// Short lower-case name for logs and bench artifacts.
    pub fn name(self) -> &'static str {
        match self.0 {
            Imp::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Imp::Avx512 => "avx512",
        }
    }

    /// [`xxh64_batch`](super::xxh64_batch) on this kernel.
    ///
    /// # Panics
    /// If `out` and `units` differ in length.
    pub fn xxh64_batch(self, seed: u64, units: &[&[u8]], out: &mut [u64]) {
        assert_eq!(units.len(), out.len(), "one sum per unit");
        let mut done = 0;
        match self.0 {
            Imp::Portable => {}
            #[cfg(target_arch = "x86_64")]
            Imp::Avx512 => {
                for group in [8, 4] {
                    while let Some(units) = units.get(done..done + group) {
                        let len = units[0].len();
                        if len < BLOCK || units.iter().any(|u| u.len() != len) {
                            break;
                        }
                        let out = &mut out[done..done + group];
                        if group == 8 {
                            // SAFETY: `Imp::Avx512` is only built by
                            // `available()`, after AVX-512F and
                            // AVX-512DQ were detected; the eight units
                            // are all `len` bytes long, checked above.
                            unsafe { avx512::<4>(seed, units, len, out) };
                        } else {
                            // SAFETY: as above, for four units.
                            unsafe { avx512::<2>(seed, units, len, out) };
                        }
                        done += group;
                    }
                }
            }
        }
        for (unit, sum) in units[done..].iter().zip(&mut out[done..]) {
            *sum = xxh64(seed, unit);
        }
    }
}

/// Hashes `2 × C` units of `len` bytes into `out`: register `c` holds
/// units `2c` (low half) and `2c + 1` (high half), four lanes each.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ; `units` and `out` must
/// hold `2 × C` entries and every unit must be `len` bytes long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn avx512<const C: usize>(seed: u64, units: &[&[u8]], len: usize, out: &mut [u64]) {
    use std::arch::x86_64::*;
    let [v1, v2, v3, v4] = lanes_init(seed).map(|v| v as i64);
    let mut acc = [_mm512_setr_epi64(v1, v2, v3, v4, v1, v2, v3, v4); C];
    let (p1, p2) = (_mm512_set1_epi64(P1 as i64), _mm512_set1_epi64(P2 as i64));
    let body = len - len % BLOCK;
    let ptrs: [(*const u8, *const u8); C] =
        std::array::from_fn(|c| (units[2 * c].as_ptr(), units[2 * c + 1].as_ptr()));
    for at in (0..body).step_by(BLOCK) {
        for (acc, &(lo, hi)) in acc.iter_mut().zip(&ptrs) {
            // SAFETY: `at + BLOCK <= body <= len`, and the caller
            // guarantees both units are `len` bytes long, so the 32
            // bytes at `lo + at` and at `hi + at` are in bounds;
            // `loadu` accepts any alignment.
            let input = unsafe {
                let lo = _mm256_loadu_si256(lo.add(at).cast());
                let hi = _mm256_loadu_si256(hi.add(at).cast());
                _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi)
            };
            // The scalar `round`, eight lanes wide.
            let sum = _mm512_add_epi64(*acc, _mm512_mullo_epi64(input, p2));
            *acc = _mm512_mullo_epi64(_mm512_rol_epi64::<31>(sum), p1);
        }
    }
    for (c, acc) in acc.iter().enumerate() {
        let mut lanes = [0u64; 8];
        // SAFETY: `lanes` is 64 writable bytes; `storeu` accepts any
        // alignment.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), *acc) };
        for (half, unit) in [2 * c, 2 * c + 1].into_iter().enumerate() {
            let mut four = [0u64; 4];
            four.copy_from_slice(&lanes[4 * half..4 * half + 4]);
            out[unit] = finish(seed, Some(four), &units[unit][body..], len);
        }
    }
}
