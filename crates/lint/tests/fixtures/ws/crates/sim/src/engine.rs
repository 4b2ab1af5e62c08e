//! Fixture hot-path module (`crates/sim/src/engine.rs` is in the
//! panic-safety and allocation-discipline sets): one seeded `.unwrap()`
//! violation and one seeded `Vec::with_capacity` violation.

pub fn pop(v: &mut Vec<u64>) -> u64 {
    v.pop().unwrap()
}

pub fn fresh() -> Vec<u64> {
    Vec::with_capacity(16)
}
