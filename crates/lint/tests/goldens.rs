//! Golden diagnostics over the fixture workspace in `tests/fixtures/ws`.
//!
//! The fixture seeds exactly one violation per rule; these tests pin the
//! report byte-for-byte: its order, its `file:line` anchors and every
//! message.

use std::path::PathBuf;

use marnet_lint::{lint_workspace, render_text, Rule, ALL_RULES};

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
fn text_report_matches_golden_byte_for_byte() {
    let report = lint_workspace(&fixture_root()).expect("fixture scan");
    let expected = concat!(
        "crates/sim/Cargo.toml:10: [layering] `sim` must not depend on `marnet-bench`; allowed: [telemetry]\n",
        "crates/sim/src/engine.rs:5: [panic-path] `.unwrap()` in an event-core hot-path module can abort a trial mid-run\n",
        "crates/sim/src/lib.rs:1: [unsafe-hygiene] crate root is missing `#![forbid(unsafe_code)]`\n",
        "crates/sim/src/lib.rs:9: [wall-clock] `Instant::now()` reads the wall clock\n",
        "crates/sim/src/lib.rs:14: [thread-id] `thread::current()` leaks the host schedule into sim state\n",
        "crates/sim/src/lib.rs:18: [env-read] `std::env` read in a sim-facing crate; runs must be a function of the spec\n",
        "crates/sim/src/lib.rs:23: [map-iter] iteration over default-hasher map `counts` (`.values()`); order depends on hasher state — use BTreeMap/FxHashMap or sort the drain\n",
        "crates/sim/src/lib.rs:27: [bad-pragma] pragma requires a reason: `allow(<rule>): <reason>`\n",
        "crates/sim/src/lib.rs:31: [unused-pragma] pragma `allow(panic-path)` suppresses nothing here; remove it\n",
        "crates/sim/src/lib.rs:37: [float-order] `sort_by` comparator uses `partial_cmp`; NaN yields None and the produced order becomes input-order dependent — use `total_cmp`\n",
        "10 finding(s)\n",
    );
    assert_eq!(render_text(&report.findings), expected);
}
