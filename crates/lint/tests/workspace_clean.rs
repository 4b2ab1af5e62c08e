//! The repo lints itself: `cargo test` fails on any undocumented
//! violation anywhere in the workspace — the lint gate itself; the
//! `marnet-lint` binary runs the same pass (`tests/cli_exit_codes.rs`) —
//! and on any change of the suppression inventory's size that the budget
//! below does not record.

use std::fs;
use std::path::{Path, PathBuf};

use marnet_lint::{lint_workspace, pragma, render_text, tokens::tokenize};

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("scan workspace");
    assert!(
        report.findings.is_empty(),
        "undocumented lint findings — fix them or add a reasoned \
         `// marnet-lint: allow(rule): <reason>` pragma:\n{}",
        render_text(&report.findings)
    );
    // Sanity-check the walker actually saw the workspace (an empty scan
    // would also report zero findings).
    assert!(report.crates_checked >= 10, "only {} crates checked", report.crates_checked);
    assert!(report.files_scanned >= 50, "only {} files scanned", report.files_scanned);
}

/// Pragmas in product code (`crates/*/src` outside the linter itself) at
/// the last change that lowered the count: 13 `panic-path`. The count must
/// equal it: lower it when a pragma goes (the test names the new number);
/// never raise it — prove the invariant by construction instead (an
/// iterator, a pattern, one audited accessor).
const PRAGMA_BUDGET: usize = 13;

fn count_pragmas(dir: &Path) -> usize {
    let mut n = 0;
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            n += count_pragmas(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path).expect("read source");
            n += pragma::collect(&tokenize(&source).comments).0.len();
        }
    }
    n
}

#[test]
fn product_code_pragmas_stay_within_budget() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut total = 0;
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        if dir.file_name().is_some_and(|n| n != "lint") && dir.join("src").is_dir() {
            total += count_pragmas(&dir.join("src"));
        }
    }
    assert!(
        total <= PRAGMA_BUDGET,
        "{total} lint pragmas in product code, budget {PRAGMA_BUDGET}: remove the need for the \
         new one instead of excusing it"
    );
    assert!(
        total >= PRAGMA_BUDGET,
        "{total} lint pragmas in product code beat the budget {PRAGMA_BUDGET}: lower \
         PRAGMA_BUDGET to {total}"
    );
}
