//! `GF(2^8)` specialized for byte-granular erasure coding — the field
//! behind the P+Q (RAID-6-style) double-parity scheme in `pdl-store`.
//!
//! [`FiniteField`](crate::FiniteField) is the general table-driven
//! field used by the layout constructions; this module is its
//! fixed-size sibling tuned for the data path: compile-time exp/log
//! tables over the standard RAID-6 polynomial `x^8+x^4+x^3+x^2+1`
//! (0x11d, for which `x` = 2 is primitive), branch-free per-byte
//! multiply, and the slice kernels of the data path: [`xor_slice`]
//! over `u64` lanes, and [`mul_slice`] / [`mul_add_slice`] (and through
//! them [`solve_two_erasures`]) by the 4-bit split: `c·b = lo[b & 15] ^
//! hi[b >> 4]` over two 16-entry product tables built once per call.
//!
//! ## The three multiply kernels
//!
//! The split is what makes the multiply vectorisable — each table fits
//! one 128-bit register and a byte shuffle is sixteen table lookups:
//!
//! - **avx2** (x86_64): two `vpshufb` per 32-byte block;
//! - **neon** (aarch64): two `vqtbl1q_u8` per 16-byte block;
//! - **portable** (every target): the same tables indexed a byte at a
//!   time, eight bytes per load/store — the fallback, and the tail of
//!   the vector loops.
//!
//! Selection needs no build flag or setting: NEON is baseline on
//! aarch64, AVX2 is detected at run time on first use and the choice
//! cached ([`kernel_name`] reports it). Slices shorter than 32 bytes
//! skip the tables and take the `*_scalar` form. The byte-at-a-time
//! `*_scalar` twins (two exp/log lookups per byte, no tables) are the
//! oracle every kernel is tested against, bit for bit.
//!
//! ## The P+Q equations
//!
//! A stripe with data units `D_0..D_{n-1}` (indexed by their slot `j`)
//! carries two parity units:
//!
//! ```text
//! P = D_0 ^ D_1 ^ ... ^ D_{n-1}              (plain XOR)
//! Q = g^{j_0}·D_0 ^ g^{j_1}·D_1 ^ ...        (g = GENERATOR = 2)
//! ```
//!
//! Any two simultaneous erasures are solvable: with partial sums over
//! the survivors, the two lost values satisfy a 2×2 linear system over
//! `GF(2^8)` whose solution [`two_erasure_coeffs`] precomputes.

mod kernel;

#[doc(hidden)]
pub use kernel::Kernel;

/// The RAID-6 field polynomial `x^8 + x^4 + x^3 + x^2 + 1`.
pub const GF256_POLY: u16 = 0x11d;

/// The fixed generator (primitive element) `g = x = 2`.
pub const GENERATOR: u8 = 2;

/// `exp` doubled to 510 entries so `exp[log a + log b]` needs no modulo.
const fn build_exp() -> [u8; 510] {
    let mut exp = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF256_POLY;
        }
        i += 1;
    }
    exp
}

const fn build_log(exp: &[u8; 510]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

const EXP: [u8; 510] = build_exp();
const LOG: [u8; 256] = build_log(&EXP);

/// Field multiplication `a · b`.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse; `None` for 0.
#[inline]
pub fn inv(a: u8) -> Option<u8> {
    if a == 0 {
        None
    } else {
        Some(EXP[255 - LOG[a as usize] as usize])
    }
}

/// `g^e` for the fixed generator — the Q-parity coefficient of data
/// slot `e` (reduced mod 255, so any slot index is valid).
#[inline]
pub fn gen_pow(e: usize) -> u8 {
    EXP[e % 255]
}

/// `a / b`. Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b).expect("division by zero in GF(256)"))
}

/// The two 16-entry nibble product tables of `c`: `lo[n] = c·n` and
/// `hi[n] = c·(n << 4)`, so `c·b = lo[b & 0xf] ^ hi[b >> 4]` — the
/// 4-bit split that fits each table in one vector register instead of
/// a 256-byte row rebuilt per call.
fn nibble_tables(c: u8) -> kernel::Tables {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for n in 1..16u8 {
        lo[n as usize] = mul(c, n);
        hi[n as usize] = mul(c, n << 4);
    }
    (lo, hi)
}

/// Below this length building the nibble tables costs more than it
/// saves; fall back to the direct exp/log form (2 lookups per byte).
const WIDE_THRESHOLD: usize = 32;

/// Name of the multiply kernel [`mul_slice`], [`mul_add_slice`] and
/// [`solve_two_erasures`] run on in this process: `"avx2"`, `"neon"`
/// or `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::active().name()
}

/// XORs `src` into `dst`, eight bytes per step over `u64` lanes — the
/// P-parity and syndrome-accumulation kernel of every read, write,
/// degraded and rebuild path.
///
/// # Panics
/// Panics if the lengths differ.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len());
    let split = dst.len() - dst.len() % 8;
    let (dc, dr) = dst.split_at_mut(split);
    let (sc, sr) = src.split_at(split);
    for (d8, s8) in dc.chunks_exact_mut(8).zip(sc.chunks_exact(8)) {
        let d = u64::from_ne_bytes(d8.try_into().unwrap());
        let s = u64::from_ne_bytes(s8.try_into().unwrap());
        d8.copy_from_slice(&(d ^ s).to_ne_bytes());
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// Byte-at-a-time reference for [`xor_slice`] (property-test oracle).
pub fn xor_slice_scalar(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Byte-at-a-time reference for [`mul_slice`] (property-test oracle
/// and short-slice fallback): two exp/log lookups per nonzero byte.
pub fn mul_slice_scalar(dst: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let lc = LOG[c as usize] as usize;
    for d in dst {
        if *d != 0 {
            *d = EXP[lc + LOG[*d as usize] as usize];
        }
    }
}

/// Byte-at-a-time reference for [`mul_add_slice`] (property-test
/// oracle and short-slice fallback).
pub fn mul_add_slice_scalar(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice_scalar(dst, src);
        return;
    }
    let lc = LOG[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[lc + LOG[*s as usize] as usize];
        }
    }
}

/// `dst[i] = c · dst[i]` for every byte, on the selected
/// [kernel](self#the-three-multiply-kernels).
pub fn mul_slice(dst: &mut [u8], c: u8) {
    Kernel::active().mul_slice(dst, c)
}

/// `dst[i] ^= c · src[i]` — the fused kernel of Q-parity updates and
/// syndrome accumulation, on the selected
/// [kernel](self#the-three-multiply-kernels).
///
/// # Panics
/// Panics if the lengths differ.
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    Kernel::active().mul_add_slice(dst, src, c)
}

/// The slice operations on one chosen kernel. The public functions
/// above are these on [`Kernel::active`]; tests and benches call them
/// on each of [`Kernel::available`] so the fallback stays exercised
/// on hosts that never select it.
#[doc(hidden)]
impl Kernel {
    /// [`mul_slice`](self::mul_slice) on this kernel.
    pub fn mul_slice(self, dst: &mut [u8], c: u8) {
        if c == 1 {
            return;
        }
        if c == 0 {
            dst.fill(0);
            return;
        }
        if dst.len() < WIDE_THRESHOLD {
            mul_slice_scalar(dst, c);
            return;
        }
        self.apply::<false>(&nibble_tables(c), dst, &[]);
    }

    /// [`mul_add_slice`](self::mul_add_slice) on this kernel.
    pub fn mul_add_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len());
        if c == 0 {
            return;
        }
        if c == 1 {
            xor_slice(dst, src);
            return;
        }
        if dst.len() < WIDE_THRESHOLD {
            mul_add_slice_scalar(dst, src, c);
            return;
        }
        self.apply::<true>(&nibble_tables(c), dst, src);
    }

    /// [`solve_two_erasures`](self::solve_two_erasures) on this kernel.
    pub fn solve_two_erasures(self, sp: &mut [u8], sq: &mut [u8], gx: u8, gy: u8) {
        assert_eq!(sp.len(), sq.len());
        let (a, b) = two_erasure_coeffs(gx, gy);
        // D_x = a·S_p ^ b·S_q, computed into sq's buffer first so S_p
        // survives for D_y = S_p ^ D_x.
        self.mul_slice(sq, b);
        self.mul_add_slice(sq, sp, a);
        xor_slice(sp, sq); // now: sp = S_p ^ D_x = D_y
    }
}

/// Solves the double-erasure system for two lost **data** units at
/// Q-coefficients `gx` and `gy` (`gx ≠ gy`), given the syndromes
///
/// ```text
/// S_p = D_x ^ D_y            (P-equation partial sum)
/// S_q = gx·D_x ^ gy·D_y      (Q-equation partial sum)
/// ```
///
/// Returns `(a, b)` such that `D_x = a·S_p ^ b·S_q` (and then
/// `D_y = S_p ^ D_x`). Precomputing the coefficients keeps the
/// per-byte reconstruction loop to two table lookups and an XOR.
///
/// # Panics
/// Panics if `gx == gy` (the system is singular — two data units of
/// one stripe must carry distinct Q coefficients).
pub fn two_erasure_coeffs(gx: u8, gy: u8) -> (u8, u8) {
    assert_ne!(gx, gy, "two-erasure solve needs distinct Q coefficients");
    let denom = inv(gx ^ gy).expect("gx ^ gy is nonzero for gx != gy");
    (mul(gy, denom), denom)
}

/// Applies [`two_erasure_coeffs`] to whole syndrome buffers: on return
/// `sp` holds `D_x` and `sq` holds `D_y`.
///
/// # Panics
/// Panics if the lengths differ, or if `gx == gy`.
pub fn solve_two_erasures(sp: &mut [u8], sq: &mut [u8], gx: u8, gy: u8) {
    Kernel::active().solve_two_erasures(sp, sq, gx, gy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_exhaustive() {
        // Identity, zero, commutativity on the full 256×256 table.
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn associativity_and_distributivity_sampled() {
        for i in 0..64u32 {
            let a = (i * 37 + 11) as u8;
            let b = (i * 91 + 5) as u8;
            let c = (i * 53 + 101) as u8;
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
        }
    }

    #[test]
    fn inverses_roundtrip() {
        assert_eq!(inv(0), None);
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a).unwrap()), 1, "a={a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        for e in 0..255 {
            let v = gen_pow(e);
            assert!(!seen[v as usize], "g^{e} repeats");
            seen[v as usize] = true;
        }
        assert_eq!(gen_pow(0), 1);
        assert_eq!(gen_pow(1), GENERATOR);
        assert_eq!(gen_pow(255), 1, "order divides 255");
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less schoolbook multiply reduced by the polynomial.
        fn slow(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            for bit in 0..8 {
                if b & (1 << bit) != 0 {
                    acc ^= (a as u16) << bit;
                }
            }
            for bit in (8..16).rev() {
                if acc & (1 << bit) != 0 {
                    acc ^= GF256_POLY << (bit - 8);
                }
            }
            acc as u8
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn slice_kernels_match_scalar() {
        let src: Vec<u8> = (0..256).map(|i| (i * 7 + 3) as u8).collect();
        let mut dst: Vec<u8> = (0..256).map(|i| (i * 13 + 1) as u8).collect();
        let snapshot = dst.clone();
        mul_add_slice(&mut dst, &src, 0x1d);
        for i in 0..256 {
            assert_eq!(dst[i], snapshot[i] ^ mul(src[i], 0x1d));
        }
        mul_slice(&mut dst, 0x53);
        for i in 0..256 {
            assert_eq!(dst[i], mul(snapshot[i] ^ mul(src[i], 0x1d), 0x53));
        }
        mul_slice(&mut dst, 0);
        assert!(dst.iter().all(|&b| b == 0));

        // Short buffers take the direct (row-free) path; same result.
        for len in [1usize, 33, 255] {
            let src: Vec<u8> = (0..len).map(|i| (i * 5) as u8).collect();
            let mut dst: Vec<u8> = (0..len).map(|i| (i * 3 + 7) as u8).collect();
            let snapshot = dst.clone();
            mul_add_slice(&mut dst, &src, 0x8e);
            for i in 0..len {
                assert_eq!(dst[i], snapshot[i] ^ mul(src[i], 0x8e), "len {len}");
            }
            mul_slice(&mut dst, 0x02);
            for i in 0..len {
                assert_eq!(dst[i], mul(snapshot[i] ^ mul(src[i], 0x8e), 2), "len {len}");
            }
        }
    }

    #[test]
    fn two_erasure_solve_recovers_both() {
        // Encode two data bytes into syndromes, solve, compare.
        for x in 0..16usize {
            for y in 16..32usize {
                let (gx, gy) = (gen_pow(x), gen_pow(y));
                for dx in [0u8, 1, 0x47, 0xff] {
                    for dy in [0u8, 9, 0x80, 0xfe] {
                        let sp = dx ^ dy;
                        let sq = mul(gx, dx) ^ mul(gy, dy);
                        let (a, b) = two_erasure_coeffs(gx, gy);
                        let got_x = mul(a, sp) ^ mul(b, sq);
                        let got_y = sp ^ got_x;
                        assert_eq!((got_x, got_y), (dx, dy), "x={x} y={y}");
                    }
                }
            }
        }
    }

    #[test]
    fn solve_two_erasures_buffers() {
        let dx: Vec<u8> = (0..64).map(|i| (i * 11 + 2) as u8).collect();
        let dy: Vec<u8> = (0..64).map(|i| (i * 29 + 7) as u8).collect();
        let (gx, gy) = (gen_pow(3), gen_pow(9));
        let mut sp: Vec<u8> = dx.iter().zip(&dy).map(|(a, b)| a ^ b).collect();
        let mut sq: Vec<u8> = dx.iter().zip(&dy).map(|(a, b)| mul(gx, *a) ^ mul(gy, *b)).collect();
        solve_two_erasures(&mut sp, &mut sq, gx, gy);
        assert_eq!(sq, dx, "sq buffer holds D_x");
        assert_eq!(sp, dy, "sp buffer holds D_y");
    }

    #[test]
    #[should_panic(expected = "distinct Q coefficients")]
    fn equal_coefficients_rejected() {
        two_erasure_coeffs(5, 5);
    }

    #[test]
    fn kernel_name_is_the_active_available_kernel() {
        let name = kernel_name();
        println!("gf256 kernel: {name}"); // CI shows this with --nocapture
        assert!(Kernel::available().any(|k| k.name() == name));
        assert_eq!(Kernel::available().next().map(Kernel::name), Some("portable"));
    }

    // The vector kernels load through raw pointers sized by `dst`, so
    // a shorter `src` must be refused in release builds too (CI runs
    // this crate's tests with `--release` for exactly these three).

    #[test]
    #[should_panic(expected = "left == right")]
    fn xor_slice_rejects_length_mismatch() {
        xor_slice(&mut [0u8; 64], &[0u8; 63]);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn mul_add_slice_rejects_length_mismatch() {
        mul_add_slice(&mut [0u8; 64], &[0u8; 63], 0x8e);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn solve_two_erasures_rejects_length_mismatch() {
        solve_two_erasures(&mut [0u8; 63], &mut [0u8; 64], 2, 4);
    }
}
