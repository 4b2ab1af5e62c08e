//! Diagnostics: the rule identifiers and the `file:line` rendering,
//! which the golden in `tests/goldens.rs` pins byte-for-byte.

use std::fmt;

/// Every rule the pass knows, with its kebab-case wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`, any
    /// `std::time` path) in sim-facing crates.
    WallClock,
    /// `thread::current()` (thread identity) in sim-facing crates.
    ThreadId,
    /// `std::env` reads in sim-facing crates.
    EnvRead,
    /// Iteration over a default-hasher `HashMap`/`HashSet` in sim-facing
    /// crates (construction and point lookups stay legal).
    MapIter,
    /// Order-sensitive float operations in sim-facing crates: a sort /
    /// min / max comparator built on `partial_cmp` (NaN makes the order
    /// undefined), or float accumulation over default-hasher map
    /// iteration (the sum depends on visitation order).
    FloatOrder,
    /// `unwrap()`/`expect()`/`panic!`-family/slice-indexing in the
    /// event-core hot-path modules.
    PanicPath,
    /// A crate dependency that violates the workspace layering DAG.
    Layering,
    /// A crate root missing `#![forbid(unsafe_code)]`.
    UnsafeHygiene,
    /// A `marnet-lint` pragma that does not parse or lacks a reason.
    BadPragma,
    /// A well-formed pragma that suppressed nothing (stale after a fix).
    UnusedPragma,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::WallClock,
    Rule::ThreadId,
    Rule::EnvRead,
    Rule::MapIter,
    Rule::FloatOrder,
    Rule::PanicPath,
    Rule::Layering,
    Rule::UnsafeHygiene,
    Rule::BadPragma,
    Rule::UnusedPragma,
];

impl Rule {
    /// The kebab-case name used in pragmas, `--list-rules` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::ThreadId => "thread-id",
            Rule::EnvRead => "env-read",
            Rule::MapIter => "map-iter",
            Rule::FloatOrder => "float-order",
            Rule::PanicPath => "panic-path",
            Rule::Layering => "layering",
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::BadPragma => "bad-pragma",
            Rule::UnusedPragma => "unused-pragma",
        }
    }

    /// Parses a kebab-case rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale: the paper-level invariant the rule protects.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "sim results must depend only on SimTime; a wall-clock read makes \
                 Table II / sweep numbers vary run to run"
            }
            Rule::ThreadId => {
                "artifacts are byte-identical at any --threads; thread identity \
                 leaks the schedule into results"
            }
            Rule::EnvRead => "environment reads make a run irreproducible from its spec hash",
            Rule::MapIter => {
                "default-hasher iteration order varies per process; any order \
                 reaching an artifact breaks byte-identical replication"
            }
            Rule::FloatOrder => {
                "float comparisons via partial_cmp and float sums over hashed maps \
                 make artifact bytes depend on NaN handling and visitation order; \
                 use total_cmp and ordered containers"
            }
            Rule::PanicPath => {
                "the event-core hot path must degrade, not abort: a panic mid-run \
                 loses the trial and poisons parallel replication"
            }
            Rule::Layering => {
                "the dependency DAG keeps sim reusable and telemetry leaf-like so \
                 recorder-off stays zero-overhead"
            }
            Rule::UnsafeHygiene => {
                "#![forbid(unsafe_code)] keeps every determinism argument a \
                 safe-Rust argument"
            }
            Rule::BadPragma => "suppressions must carry an auditable reason",
            Rule::UnusedPragma => "stale suppressions hide future violations",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line (0 for whole-file findings such as layering).
    pub line: usize,
    /// Human-readable description of this occurrence.
    pub message: String,
}

impl Diagnostic {
    /// Sort key: file path *bytes*, then line, then rule — a
    /// deterministic report order independent of scan order, locale, and
    /// platform collation (paths are already normalized to forward
    /// slashes, so byte order is identical on every host).
    fn key(&self) -> (&[u8], usize, Rule) {
        (self.file.as_bytes(), self.line, self.rule)
    }
}

/// Sorts diagnostics into canonical reporting order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.key().cmp(&b.key()));
}

/// Renders findings for humans, one `file:line` anchor per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        if d.line == 0 {
            out.push_str(&format!("{}: [{}] {}\n", d.file, d.rule, d.message));
        } else {
            out.push_str(&format!("{}:{}: [{}] {}\n", d.file, d.line, d.rule, d.message));
        }
    }
    out.push_str(&format!("{} finding(s)\n", diags.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }

    #[test]
    fn empty_report_renders() {
        assert_eq!(render_text(&[]), "0 finding(s)\n");
    }
}
