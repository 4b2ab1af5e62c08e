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
//! emits machine-readable JSON plus human `file:line` output.
//!
//! The rules (all denied — any finding fails the run; see DESIGN.md §11):
//!
//! | rule             | protects                                          |
//! |------------------|---------------------------------------------------|
//! | `wall-clock`     | results are a function of `SimTime` only          |
//! | `thread-id`      | artifacts byte-identical at any `--threads`       |
//! | `env-read`       | runs reproducible from the spec hash              |
//! | `map-iter`       | no hasher-dependent order reaches an artifact     |
//! | `panic-path`     | the event-core hot path degrades, never aborts    |
//! | `hot-path-alloc` | no allocating call on a pooled hot path           |
//! | `float-order`    | no NaN-undefined or hasher-ordered float result   |
//! | `layering`       | the crate DAG (`sim` reusable, `telemetry` leaf)  |
//! | `unsafe-hygiene` | every determinism argument is a safe-Rust one     |
//! | `bad-pragma`     | suppressions carry an auditable reason            |
//! | `unused-pragma`  | stale suppressions cannot linger                  |
//!
//! Legitimate exceptions are suppressed inline with a reasoned pragma:
//!
//! ```text
//! // marnet-lint: allow(wall-clock): benchmark timer measures the host
//! let t0 = Instant::now();
//! ```
//!
//! The pass is call-graph aware: a conservative intra-workspace call
//! graph (see [`callgraph`]) lets the entry-point-scoped families
//! (`panic-path`, `hot-path-alloc`, `unseeded-rng`) follow calls out of
//! their file lists and audit the helpers those entry points lean on.
//! The stale-pragma audit runs after that propagation, over every file:
//! a pragma nothing consumed is an `unused-pragma` finding wherever it
//! sits, so the suppression inventory cannot outlive its reasons.
//!
//! Run it with `cargo run -p marnet-lint` (exit codes: 0 clean,
//! 1 findings, 2 usage error); `tests/workspace_clean.rs` runs the same
//! pass in `cargo test` and holds the product-code pragma count to a
//! budget, so CI fails on any undocumented violation and the inventory
//! can only ratchet down.

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
pub use diag::{render_json, render_text, Diagnostic, Rule, ALL_RULES};
pub use rules::{scan_file, FileScope};
pub use workspace::{find_workspace_root, lint_workspace, Report, HOT_ALLOC, HOT_PATH, SIM_FACING};
