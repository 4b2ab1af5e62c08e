//! # marnet-lint — workspace determinism & invariant auditor
//!
//! The whole reproduction rests on one promise: the discrete-event
//! simulator is *deterministic*, so lab artifacts are byte-identical at
//! any `--threads` and every Table II / sweep number is reproducible
//! from its spec hash. This crate makes that promise — and the
//! structural invariants that support it — statically checked instead of
//! tribal knowledge. It is a self-contained pass over the workspace's
//! own Rust sources: a hand-rolled lossy tokenizer (the build is
//! offline, so no `syn`; see [`tokens`]) feeding a rule engine that
//! reports human `file:line` findings.
//!
//! Every rule is denied: any finding fails the run. The rules and the
//! invariant each protects are listed by `marnet-lint --list-rules`,
//! generated from [`ALL_RULES`]; DESIGN.md §11.1 gives each rule's scope
//! and the defect only it catches.
//!
//! Legitimate exceptions are suppressed inline with a reasoned pragma:
//!
//! ```text
//! // marnet-lint: allow(wall-clock): benchmark timer measures the host
//! let t0 = Instant::now();
//! ```
//!
//! The pass is call-graph aware: a conservative intra-workspace call
//! graph (see [`callgraph`]) lets `panic-path` follow calls out of its
//! hot-path file list and audit the helpers those entry points lean on.
//! The stale-pragma audit runs after that propagation, over every file:
//! a pragma nothing consumed is an `unused-pragma` finding wherever it
//! sits, so the suppression inventory cannot outlive its reasons.
//!
//! Run it with `cargo run -p marnet-lint` (exit codes: 0 clean,
//! 1 findings, 2 usage error); `tests/workspace_clean.rs` runs the same
//! pass in `cargo test` and holds the product-code pragma count to a
//! budget, so the test suite fails on any undocumented violation and the
//! inventory can only ratchet down.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod layering;
pub mod pragma;
pub mod rules;
pub mod tokens;
pub mod workspace;

pub use callgraph::{CallGraph, EdgeKind};
pub use diag::{render_text, Diagnostic, Rule, ALL_RULES};
pub use rules::{scan_file, FileScope};
pub use workspace::{find_workspace_root, lint_workspace, Report, HOT_PATH, SIM_FACING};
