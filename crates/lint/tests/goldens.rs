//! Golden diagnostics over the fixture workspace in `tests/fixtures/ws`.
//!
//! The fixture seeds exactly one violation per rule; these tests pin the
//! JSON report byte-for-byte (the schema is a machine interface — CI and
//! external tooling parse it) and the `file:line` anchors of the text
//! rendering.

use std::path::PathBuf;

use marnet_lint::{lint_workspace, render_json, render_text, Rule, ALL_RULES};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn every_rule_fires_exactly_once_in_the_fixture() {
    let report = lint_workspace(&fixture_root()).expect("fixture scan");
    for &rule in ALL_RULES {
        let n = report.findings.iter().filter(|d| d.rule == rule).count();
        assert_eq!(n, 1, "rule `{rule}` should fire exactly once, got {n}");
    }
    assert_eq!(report.findings.len(), ALL_RULES.len());
    assert_eq!(report.crates_checked, 1);
    assert_eq!(report.files_scanned, 2);
}

/// The fixture's stale pragma names `panic-path` in a file outside
/// `HOT_PATH` that no hot-path function reaches: only the audit that runs
/// after call-graph propagation, over every file, can see it.
#[test]
fn stale_pragma_outside_the_hot_path_list_is_reported() {
    let report = lint_workspace(&fixture_root()).expect("fixture scan");
    let stale: Vec<_> = report.findings.iter().filter(|d| d.rule == Rule::UnusedPragma).collect();
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!((stale[0].file.as_str(), stale[0].line), ("crates/sim/src/lib.rs", 31));
    assert!(stale[0].message.contains("allow(panic-path)"), "{}", stale[0].message);
}

#[test]
fn json_report_matches_golden_byte_for_byte() {
    let report = lint_workspace(&fixture_root()).expect("fixture scan");
    let expected = concat!(
        "{\n",
        "  \"schema_version\": 2,\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"layering\", \"file\": \"crates/sim/Cargo.toml\", \"line\": 10, \"message\": \"`sim` must not depend on `marnet-bench`; allowed: [telemetry]\"},\n",
        "    {\"rule\": \"panic-path\", \"file\": \"crates/sim/src/engine.rs\", \"line\": 6, \"message\": \"`.unwrap()` in an event-core hot-path module can abort a trial mid-run\"},\n",
        "    {\"rule\": \"hot-path-alloc\", \"file\": \"crates/sim/src/engine.rs\", \"line\": 10, \"message\": \"`::with_capacity` allocates up front in a pooled hot-path module; recycle through a pool or scratch buffer (or pragma a cold path)\"},\n",
        "    {\"rule\": \"unsafe-hygiene\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 1, \"message\": \"crate root is missing `#![forbid(unsafe_code)]`\"},\n",
        "    {\"rule\": \"wall-clock\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 9, \"message\": \"`Instant::now()` reads the wall clock\"},\n",
        "    {\"rule\": \"thread-id\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 14, \"message\": \"`thread::current()` leaks the host schedule into sim state\"},\n",
        "    {\"rule\": \"env-read\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 18, \"message\": \"`std::env` read in a sim-facing crate; runs must be a function of the spec\"},\n",
        "    {\"rule\": \"map-iter\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 23, \"message\": \"iteration over default-hasher map `counts` (`.values()`); order depends on hasher state — use BTreeMap/FxHashMap or sort the drain\"},\n",
        "    {\"rule\": \"bad-pragma\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 27, \"message\": \"pragma requires a reason: `allow(<rule>): <reason>`\"},\n",
        "    {\"rule\": \"unused-pragma\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 31, \"message\": \"pragma `allow(panic-path)` suppresses nothing here; remove it\"},\n",
        "    {\"rule\": \"unseeded-rng\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 37, \"message\": \"`thread_rng` draws OS entropy; use derive_rng(seed, label) so the trial replays byte-identically\"},\n",
        "    {\"rule\": \"float-order\", \"file\": \"crates/sim/src/lib.rs\", \"line\": 42, \"message\": \"`sort_by` comparator uses `partial_cmp`; NaN yields None and the produced order becomes input-order dependent — use `total_cmp`\"}\n",
        "  ],\n",
        "  \"total\": 12\n",
        "}\n",
    );
    assert_eq!(render_json(&report.findings), expected);
}

#[test]
fn text_report_anchors_every_finding() {
    let report = lint_workspace(&fixture_root()).expect("fixture scan");
    let text = render_text(&report.findings);
    assert!(text.contains("crates/sim/Cargo.toml:10: [layering]"), "{text}");
    assert!(text.contains("crates/sim/src/engine.rs:6: [panic-path]"), "{text}");
    assert!(text.contains("crates/sim/src/engine.rs:10: [hot-path-alloc]"), "{text}");
    assert!(text.contains("crates/sim/src/lib.rs:1: [unsafe-hygiene]"), "{text}");
    assert!(text.contains("crates/sim/src/lib.rs:42: [float-order]"), "{text}");
    assert!(text.ends_with("12 finding(s)\n"), "{text}");
}
