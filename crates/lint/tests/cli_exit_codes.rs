//! `marnet-lint` exit codes: the workspace CLI convention is 0 ok,
//! 1 findings, 2 usage error.

use std::path::PathBuf;
use std::process::Command;

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marnet-lint"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn clean_workspace_exits_zero() {
    let st = lint_bin().arg("--root").arg(repo_root()).status().expect("run");
    assert_eq!(st.code(), Some(0), "the tree at HEAD must lint clean");
}

#[test]
fn seeded_violations_exit_one() {
    let st = lint_bin().arg("--root").arg(fixture_root()).status().expect("run");
    assert_eq!(st.code(), Some(1));
}

#[test]
fn usage_errors_exit_two() {
    // Unknown flag.
    assert_eq!(lint_bin().arg("--frob").status().expect("run").code(), Some(2));
    // The severity, export and format switches are gone: all five are
    // unknown flags.
    let st = lint_bin().args(["--deny", "warp-drive"]).status().expect("run");
    assert_eq!(st.code(), Some(2));
    for gone in ["--deny-all", "--allow", "--call-graph", "--format"] {
        assert_eq!(lint_bin().arg(gone).status().expect("run").code(), Some(2), "{gone}");
    }
    // Dangling flag value.
    assert_eq!(lint_bin().arg("--root").status().expect("run").code(), Some(2));
    // Root without a manifest.
    let st = lint_bin().args(["--root", "/nonexistent"]).status().expect("run");
    assert_eq!(st.code(), Some(2));
}
