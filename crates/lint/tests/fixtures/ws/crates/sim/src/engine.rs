//! Fixture hot-path module (`crates/sim/src/engine.rs` is in the
//! panic-safety set): one seeded `.unwrap()` violation.

pub fn pop(v: &mut Vec<u64>) -> u64 {
    v.pop().unwrap()
}
