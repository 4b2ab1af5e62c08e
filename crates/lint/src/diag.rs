//! Diagnostics: the rule identifiers and the machine/human renderings.
//!
//! The JSON encoding is hand-rolled (two dozen lines) so the auditor
//! stays dependency-free; the schema is versioned and the goldens in
//! `tests/goldens.rs` pin it byte-for-byte.

use std::fmt;

/// JSON schema version emitted by [`render_json`]. v2 added the
/// `float-order` rule and call-graph-propagated findings (which carry a
/// "reachable from" witness in their message).
pub const SCHEMA_VERSION: u32 = 2;

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
    /// Unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`,
    /// `rand::random`) in sim-facing crates; all randomness must flow
    /// from `derive_rng(seed, label)` substreams.
    UnseededRng,
    /// Order-sensitive float operations in sim-facing crates: a sort /
    /// min / max comparator built on `partial_cmp` (NaN makes the order
    /// undefined), or float accumulation over default-hasher map
    /// iteration (the sum depends on visitation order).
    FloatOrder,
    /// `unwrap()`/`expect()`/`panic!`-family/slice-indexing in the
    /// event-core hot-path modules.
    PanicPath,
    /// A call that allocates (`Box::new`, `vec!`, `.to_vec()`,
    /// `::with_capacity`) in the event-core hot-path modules, which
    /// recycle buffers through pools and scratch vectors.
    HotPathAlloc,
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
    Rule::UnseededRng,
    Rule::FloatOrder,
    Rule::PanicPath,
    Rule::HotPathAlloc,
    Rule::Layering,
    Rule::UnsafeHygiene,
    Rule::BadPragma,
    Rule::UnusedPragma,
];

impl Rule {
    /// The kebab-case name used in pragmas, `--list-rules`, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::ThreadId => "thread-id",
            Rule::EnvRead => "env-read",
            Rule::MapIter => "map-iter",
            Rule::UnseededRng => "unseeded-rng",
            Rule::FloatOrder => "float-order",
            Rule::PanicPath => "panic-path",
            Rule::HotPathAlloc => "hot-path-alloc",
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
            Rule::UnseededRng => {
                "fault schedules and every other stochastic input must come from \
                 derive_rng substreams; OS entropy makes trials unreplayable"
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
            Rule::HotPathAlloc => {
                "the event-core modules recycle payloads and scratch buffers; a \
                 fresh allocation per event regresses allocs/event past its \
                 alloc_budget bar"
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

/// Escapes a string for JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as one stable JSON document.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"findings\": ["));
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            d.rule,
            json_escape(&d.file),
            d.line,
            json_escape(&d.message)
        ));
    }
    if diags.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!("  \"total\": {}\n}}\n", diags.len()));
    out
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
    fn json_is_stable_and_escaped() {
        let mut d = vec![
            Diagnostic {
                rule: Rule::WallClock,
                file: "b.rs".into(),
                line: 2,
                message: "say \"hi\"\n".into(),
            },
            Diagnostic { rule: Rule::EnvRead, file: "a.rs".into(), line: 9, message: "m".into() },
        ];
        sort(&mut d);
        let json = render_json(&d);
        assert!(json.starts_with("{\n  \"schema_version\": 2"));
        assert!(json.contains("\\\"hi\\\"\\n"));
        let a = json.find("a.rs").unwrap();
        let b = json.find("b.rs").unwrap();
        assert!(a < b, "sorted by file");
        assert!(json.ends_with("\"total\": 2\n}\n"));
    }

    #[test]
    fn empty_report_renders() {
        assert!(render_json(&[]).contains("\"total\": 0"));
        assert_eq!(render_text(&[]), "0 finding(s)\n");
    }
}
