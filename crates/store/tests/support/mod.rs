//! Test support for `pdl-store`: the seeded multi-threaded stress
//! harness and the fault-injecting backend. Integration tests include
//! it with `mod support;`; the crate's unit tests include the same
//! file as `crate::support`.

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

pub mod faulty;
pub mod stress;
