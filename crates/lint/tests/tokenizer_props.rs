//! Property tests for the tokenizer's core guarantee: text inside string
//! literals, raw strings, char literals, and comments NEVER reaches the
//! rule engine. `"Instant::now()"` in a log message must not count as a
//! wall-clock read, whatever surrounds it.
//!
//! The vendored proptest stand-in has no string strategies, so sources
//! are assembled in the test body from drawn indices into snippet /
//! padding / container tables.

use marnet_lint::{scan_file, FileScope};
use proptest::prelude::*;

/// Text that would violate a determinism rule if it were code.
const SNIPPETS: &[&str] = &[
    "Instant::now()",
    "SystemTime::now()",
    "std::time::Duration::from_secs(1)",
    "thread::current()",
    "std::env::var(\"HOME\")",
    "let m: HashMap<u64, u64> = HashMap::new(); m.values()",
];

/// Padding that exercises tokenizer edge cases (quotes, escapes, hashes).
/// Kept free of `*/` and `"#` so block comments and `r#` raw strings stay
/// well-formed containers.
const PADS: &[&str] = &["", " ", "xx", "'", "#", "->", "0e5", "::"];

fn determinism_scope() -> FileScope {
    FileScope {
        rel_path: "crates/sim/src/fake.rs".into(),
        determinism: true,
        panic_path: true,
        hygiene: false,
    }
}

/// Wraps `inner` in the chosen container so it is literal/comment text.
fn contain(which: usize, inner: &str) -> String {
    match which % 4 {
        0 => format!("// {inner}\npub fn f() {{}}\n"),
        1 => format!("/* {inner} */\npub fn f() {{}}\n"),
        2 => format!("pub fn f() -> usize {{\n    let s = r#\"{inner}\"#;\n    s.len()\n}}\n"),
        // A normal string literal; snippets contain `"` only escaped-safe
        // content, so escape what needs escaping.
        _ => {
            let escaped = inner.replace('\\', "\\\\").replace('"', "\\\"");
            format!("pub fn f() -> usize {{\n    let s = \"{escaped}\";\n    s.len()\n}}\n")
        }
    }
}

proptest! {
    /// Dangerous text inside any literal/comment container, with
    /// arbitrary padding on both sides, never produces a finding.
    #[test]
    fn contained_snippets_never_fire(
        si in 0usize..6,
        pre in 0usize..8,
        post in 0usize..8,
        which in 0usize..4,
    ) {
        let inner = format!("{}{}{}", PADS[pre], SNIPPETS[si], PADS[post]);
        let src = contain(which, &inner);
        let findings = scan_file(&src, &determinism_scope());
        prop_assert!(
            findings.is_empty(),
            "expected no findings for contained text, got {findings:?} in:\n{src}"
        );
    }

    /// Positive control: the same snippet as code DOES fire, so the
    /// property above is not vacuously true because the scanner is blind.
    #[test]
    fn uncontained_snippets_do_fire(si in 0usize..6, pad in 0usize..8) {
        // Padding rides in a comment so it cannot corrupt the code path.
        let src = format!("pub fn f() {{ /* {} */ {}; }}\n", PADS[pad], SNIPPETS[si]);
        let findings = scan_file(&src, &determinism_scope());
        prop_assert!(!findings.is_empty(), "expected a finding for:\n{src}");
    }

    /// A pragma comment mentioning a rule name never suppresses anything
    /// in a different file region: unrelated comments are inert.
    #[test]
    fn plain_comments_about_rules_are_inert(si in 0usize..6, which in 0usize..2) {
        let note = if which == 0 {
            "// note: wall-clock and map-iter are checked by marnet-lint\n"
        } else {
            "// HashMap iteration order discussion, see DESIGN.md §11\n"
        };
        let src = format!("{note}pub fn f() {{ {}; }}\n", SNIPPETS[si]);
        let findings = scan_file(&src, &determinism_scope());
        // The code still fires; the comment neither adds nor removes.
        prop_assert!(!findings.is_empty());
        prop_assert!(findings.iter().all(|d| d.line >= 2), "{findings:?}");
    }
}
