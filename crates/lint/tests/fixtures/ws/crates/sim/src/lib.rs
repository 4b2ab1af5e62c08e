//! Fixture crate root: exactly one seeded violation per source-level
//! determinism rule, plus the missing `#![forbid(unsafe_code)]` that
//! seeds the hygiene finding at line 1. The stale pragma names
//! `panic-path`, whose hot-path file list does not cover this file: only
//! the audit that runs after call-graph propagation can report it.
//! Never compiled — only scanned.

pub fn wall_clock() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn thread_identity() -> String {
    format!("{:?}", thread::current().id())
}

pub fn env_read() -> Option<String> {
    std::env::var("MARNET_SEED").ok()
}

pub fn map_iteration() -> u64 {
    let counts: HashMap<u64, u64> = HashMap::new();
    counts.values().sum()
}

pub fn bad_pragma() -> u64 {
    // marnet-lint: allow(wall-clock)
    0
}

// marnet-lint: allow(panic-path): nothing below can panic
pub fn stale() -> u64 {
    0
}

pub fn float_sort(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
