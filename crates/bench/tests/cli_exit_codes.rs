//! `perf_report` exit codes: the workspace CLI convention is 0 ok,
//! 1 a regression, 2 usage or I/O error. Every case here is refused before
//! the matrix runs, so none of them measures anything — and each runs in a
//! scratch directory, so a regression that did run would not touch the
//! committed `results/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh, empty working directory for one case.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn perf_report(dir: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run perf_report")
}

/// Asserts a refused run: exit 2, `needle` in the message, no report.
fn assert_refused(dir: &Path, out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(!dir.join("results/BENCH_sim.json").exists(), "a refused run wrote a report");
}

#[test]
fn a_mistyped_flag_exits_two() {
    let dir = scratch("perf_typo");
    fs::write(dir.join("ratchet.json"), "{\"schema\": 1}\n").expect("write ratchet");
    let out = perf_report(&dir, &["--smoke", "--rachet", "ratchet.json"]);
    assert_refused(&dir, &out, "unknown argument --rachet");
}

#[test]
fn a_missing_or_non_numeric_overhead_bound_exits_two() {
    let dir = scratch("perf_bound");
    let out = perf_report(&dir, &["--smoke", "--max-trace-overhead-pct"]);
    assert_refused(&dir, &out, "--max-trace-overhead-pct needs a value");
    let out = perf_report(&dir, &["--smoke", "--max-trace-overhead-pct", "lots"]);
    assert_refused(&dir, &out, "--max-trace-overhead-pct lots");
}

#[test]
fn a_nan_or_negative_overhead_bound_exits_two() {
    let dir = scratch("perf_bound_value");
    for bound in ["NaN", "-1", "inf"] {
        let out = perf_report(&dir, &["--smoke", "--max-trace-overhead-pct", bound]);
        assert_refused(&dir, &out, "the bound must be a finite number >= 0");
    }
}

#[test]
fn a_ratchet_row_the_matrix_does_not_produce_exits_two_and_keeps_the_file() {
    let dir = scratch("perf_rows");
    let body = "{\"schema\":1,\"smoke\":{\"rows\":5}}";
    fs::write(dir.join("ratchet.json"), body).expect("write ratchet");
    let out = perf_report(&dir, &["--smoke", "--ratchet", "ratchet.json"]);
    assert_refused(&dir, &out, "ratchet file ratchet.json [smoke] row rows is not a row");
    assert_eq!(fs::read_to_string(dir.join("ratchet.json")).expect("read"), body);
}

#[test]
fn a_ratchet_row_without_a_numeric_bar_exits_two() {
    let dir = scratch("perf_fields");
    let committed = include_str!("../../../results/PERF_RATCHET.json");
    // The committed file with one bar of the full section made a string.
    let body = committed.replacen("\"peak_heap_bytes\": ", "\"peak_heap_bytes\": \"", 1).replacen(
        "\n    },",
        "\"\n    },",
        1,
    );
    assert_ne!(body, committed);
    fs::write(dir.join("ratchet.json"), &body).expect("write ratchet");
    let out = perf_report(&dir, &["--ratchet", "ratchet.json"]);
    assert_refused(&dir, &out, "[full] row arq+fec-k8: peak_heap_bytes is missing or not a number");
}

#[test]
fn a_non_json_ratchet_exits_two_before_the_report_is_written() {
    let dir = scratch("perf_garbage");
    fs::write(dir.join("ratchet.json"), "not json").expect("write garbage");
    let out = perf_report(&dir, &["--smoke", "--ratchet", "ratchet.json"]);
    assert_refused(&dir, &out, "ratchet file ratchet.json is not JSON");
    assert_eq!(fs::read_to_string(dir.join("ratchet.json")).expect("read"), "not json");
}

#[test]
fn a_mistyped_ratchet_path_exits_two_instead_of_starting_afresh() {
    let dir = scratch("perf_missing");
    let out = perf_report(&dir, &["--smoke", "--ratchet", "results/PERF_RACHET.json"]);
    assert_refused(&dir, &out, "cannot read ratchet file results/PERF_RACHET.json");
    assert!(!dir.join("results/PERF_RACHET.json").exists());
}
