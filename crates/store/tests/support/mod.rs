//! Test support for `pdl-store`: the seeded multi-threaded stress
//! harness, the fault-injecting backend, the probe backend that
//! watches its callers, trace replay and the deterministic block
//! pattern they all write. Integration tests
//! include it with `mod support;`; the crate's unit tests include the
//! same file as `crate::support`.

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

pub mod faulty;
pub mod probe;
pub mod replay;
pub mod stress;

/// Deterministic block payload: a pure function of `(addr, salt)`, so
/// a test re-derives any block's expected bytes instead of keeping a
/// copy.
pub fn fill_pattern(addr: usize, salt: u64, buf: &mut [u8]) {
    let mut x =
        (addr as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ salt.wrapping_mul(0xd1b54a32d192ed03);
    for chunk in buf.chunks_mut(8) {
        x ^= x >> 32;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 29;
        let b = x.to_le_bytes();
        chunk.copy_from_slice(&b[..chunk.len()]);
    }
}
