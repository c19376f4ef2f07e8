//! The split-nibble multiply loops behind [`mul_slice`](super::mul_slice)
//! and [`mul_add_slice`](super::mul_add_slice), and the only `unsafe`
//! in this crate.
//!
//! Every kernel computes `c·b = lo[b & 15] ^ hi[b >> 4]` from the two
//! 16-entry tables `nibble_tables(c)` builds. The vector kernels hold
//! each table in one register and do both lookups as byte shuffles, 32
//! (AVX2 `vpshufb`) or 16 (NEON `vqtbl1q_u8`) bytes per step; the
//! portable kernel indexes the same tables a byte at a time, eight
//! bytes per load/store, and doubles as the tail of the vector loops.
//! One const-generic body per architecture serves both operations:
//! `ACC = false` is `dst = c·dst`, `ACC = true` is `dst ^= c·src`.

use std::sync::OnceLock;

/// The `lo` / `hi` nibble product tables of one coefficient.
pub(super) type Tables = ([u8; 16], [u8; 16]);

/// One implementation of the multiply loop. The public `gf256`
/// functions run on [`Kernel::active`]; tests and benches reach every
/// kernel the host can run through [`Kernel::available`]. The field is
/// private so a vector kernel exists only where its CPU feature does.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct Kernel(Imp);

#[derive(Clone, Copy, Debug)]
enum Imp {
    /// Table lookups over `u64` lanes, safe code, every target.
    Portable,
    /// 32-byte `vpshufb` blocks; constructed only after AVX2 is detected.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 16-byte `vqtbl1q_u8` blocks; NEON is baseline on aarch64.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl Kernel {
    /// Every kernel this build contains that this host can run,
    /// slowest first (so the last one is the one to use).
    pub fn available() -> impl Iterator<Item = Kernel> {
        #[cfg(target_arch = "x86_64")]
        let vector = std::arch::is_x86_feature_detected!("avx2").then_some(Imp::Avx2);
        #[cfg(target_arch = "aarch64")]
        let vector = Some(Imp::Neon);
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let vector = None;
        std::iter::once(Imp::Portable).chain(vector).map(Kernel)
    }

    /// The kernel the public slice functions use: the fastest
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
            Imp::Avx2 => "avx2",
            #[cfg(target_arch = "aarch64")]
            Imp::Neon => "neon",
        }
    }

    /// `dst[i] = c·dst[i]` (`ACC = false`, `src` ignored) or
    /// `dst[i] ^= c·src[i]` (`ACC = true`) with `c` given by `tables`.
    ///
    /// # Panics
    /// With `ACC`, if `src.len() != dst.len()`.
    pub(super) fn apply<const ACC: bool>(self, tables: &Tables, dst: &mut [u8], src: &[u8]) {
        if ACC {
            assert_eq!(dst.len(), src.len(), "gf256 slice kernels need equal lengths");
        }
        match self.0 {
            Imp::Portable => portable::<ACC>(tables, dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Imp::Avx2` is only built by `available()`, after
            // AVX2 was detected; the lengths were checked just above.
            Imp::Avx2 => unsafe { avx2::<ACC>(tables, dst, src) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: the lengths were checked just above.
            Imp::Neon => unsafe { neon::<ACC>(tables, dst, src) },
        }
    }
}

/// The portable kernel; also finishes the < one-vector tail of the
/// vector kernels. With `ACC`, `src.len() == dst.len()`.
fn portable<const ACC: bool>(tables: &Tables, dst: &mut [u8], src: &[u8]) {
    let (lo, hi) = *tables;
    let one = |b: u8| lo[(b & 0xf) as usize] ^ hi[(b >> 4) as usize];
    let lanes = dst.len() - dst.len() % 8;
    let (dc, dr) = dst.split_at_mut(lanes);
    let (sc, sr) = if ACC { src.split_at(lanes) } else { (src, src) };
    let mut s_lanes = sc.chunks_exact(8);
    for d8 in dc.chunks_exact_mut(8) {
        let s8: &[u8] = if ACC { s_lanes.next().expect("src as long as dst") } else { d8 };
        let mut out = [0u8; 8];
        for (o, &b) in out.iter_mut().zip(s8) {
            *o = one(b);
        }
        if ACC {
            let d = u64::from_ne_bytes((&*d8).try_into().expect("8-byte lane"));
            out = (d ^ u64::from_ne_bytes(out)).to_ne_bytes();
        }
        d8.copy_from_slice(&out);
    }
    for (i, d) in dr.iter_mut().enumerate() {
        *d = if ACC { *d ^ one(sr[i]) } else { one(*d) };
    }
}

/// # Safety
/// The CPU must support AVX2, and with `ACC` `src.len()` must equal
/// `dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<const ACC: bool>(tables: &Tables, dst: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::*;
    const W: usize = 32;
    let body = dst.len() - dst.len() % W;
    let dp = dst.as_mut_ptr();
    // In place when not accumulating: read what is about to be
    // overwritten, through the one pointer that may write it.
    let sp = if ACC { src.as_ptr() } else { dp.cast_const() };
    // SAFETY: a `[u8; 16]` is 16 readable bytes; `loadu` has no
    // alignment requirement.
    let (lo, hi) = unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(tables.0.as_ptr().cast())),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(tables.1.as_ptr().cast())),
        )
    };
    let nibble = _mm256_set1_epi8(0x0f);
    for at in (0..body).step_by(W) {
        // SAFETY: `at + W <= body <= dst.len()`, and the caller
        // guarantees `src.len() == dst.len()` when `sp` points into
        // `src`, so all 32 bytes at `sp + at` and `dp + at` are in
        // bounds; `loadu`/`storeu` accept any alignment. `dst` is
        // exclusively borrowed, so nothing else observes the store.
        unsafe {
            let s = _mm256_loadu_si256(sp.add(at).cast());
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble));
            let mut out = _mm256_xor_si256(l, h);
            if ACC {
                out = _mm256_xor_si256(out, _mm256_loadu_si256(dp.add(at).cast()));
            }
            _mm256_storeu_si256(dp.add(at).cast(), out);
        }
    }
    portable::<ACC>(tables, &mut dst[body..], if ACC { &src[body..] } else { &[] });
}

/// # Safety
/// With `ACC`, `src.len()` must equal `dst.len()`.
#[cfg(target_arch = "aarch64")]
unsafe fn neon<const ACC: bool>(tables: &Tables, dst: &mut [u8], src: &[u8]) {
    use std::arch::aarch64::*;
    const W: usize = 16;
    let body = dst.len() - dst.len() % W;
    let dp = dst.as_mut_ptr();
    let sp = if ACC { src.as_ptr() } else { dp.cast_const() };
    // SAFETY: NEON is a baseline feature of every aarch64 target Rust
    // supports; a `[u8; 16]` is 16 readable bytes.
    let (lo, hi, nibble) =
        unsafe { (vld1q_u8(tables.0.as_ptr()), vld1q_u8(tables.1.as_ptr()), vdupq_n_u8(0x0f)) };
    for at in (0..body).step_by(W) {
        // SAFETY: `at + W <= body <= dst.len()`, and the caller
        // guarantees `src.len() == dst.len()` when `sp` points into
        // `src`, so all 16 bytes at `sp + at` and `dp + at` are in bounds;
        // `vld1q_u8`/`vst1q_u8` accept any alignment. `dst` is
        // exclusively borrowed, so nothing else observes the store.
        unsafe {
            let s = vld1q_u8(sp.add(at));
            let l = vqtbl1q_u8(lo, vandq_u8(s, nibble));
            let h = vqtbl1q_u8(hi, vshrq_n_u8::<4>(s));
            let mut out = veorq_u8(l, h);
            if ACC {
                out = veorq_u8(out, vld1q_u8(dp.add(at)));
            }
            vst1q_u8(dp.add(at), out);
        }
    }
    portable::<ACC>(tables, &mut dst[body..], if ACC { &src[body..] } else { &[] });
}
