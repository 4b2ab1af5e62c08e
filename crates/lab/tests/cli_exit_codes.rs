//! `marnet-lab` exit codes: the workspace CLI convention is 0 ok,
//! 1 findings (baseline drift, failed trials), 2 usage or I/O error.
//!
//! The drift path is exercised by doctoring a baseline artifact's mean
//! far outside any confidence band and re-running the same spec.

use std::path::PathBuf;
use std::process::Command;

fn lab_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marnet-lab"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The cheapest real experiment invocation the suite has.
fn run_small(out: &PathBuf, extra: &[&str]) -> std::process::ExitStatus {
    lab_bin()
        .args(["table2_rtt", "--replicates", "2", "--threads", "1", "--seed", "11"])
        .arg("--out")
        .arg(out)
        .args(extra)
        .status()
        .expect("run marnet-lab")
}

#[test]
fn clean_run_and_matching_baseline_exit_zero() {
    let base = tmp("lab_ec_base.json");
    assert_eq!(run_small(&base, &[]).code(), Some(0));
    let rerun = tmp("lab_ec_rerun.json");
    let st = run_small(&rerun, &["--baseline", base.to_str().unwrap()]);
    assert_eq!(st.code(), Some(0), "identical spec+seed must not drift");
}

#[test]
fn doctored_baseline_drift_exits_one() {
    let base = tmp("lab_ec_drift_base.json");
    assert_eq!(run_small(&base, &[]).code(), Some(0));
    // Push every mean far outside any CI band (all lab metrics are
    // nonnegative, so prefixing a digit inflates them ~10-1000x).
    let text = std::fs::read_to_string(&base).expect("read artifact");
    let doctored = text.replace("\"mean\": ", "\"mean\": 9");
    assert_ne!(text, doctored, "artifact schema changed; update the doctoring");
    let doctored_path = tmp("lab_ec_drift_doctored.json");
    std::fs::write(&doctored_path, doctored).expect("write doctored baseline");
    let rerun = tmp("lab_ec_drift_rerun.json");
    let st = run_small(&rerun, &["--baseline", doctored_path.to_str().unwrap()]);
    assert_eq!(st.code(), Some(1));
}

#[test]
fn train_usage_and_io_errors_exit_two() {
    // Unknown flag.
    assert_eq!(lab_bin().args(["train", "--frob"]).status().expect("run").code(), Some(2));
    // Dangling flag value.
    assert_eq!(lab_bin().args(["train", "--seed"]).status().expect("run").code(), Some(2));
    // Elites above the population size.
    assert_eq!(
        lab_bin()
            .args(["train", "--population", "2", "--elites", "3"])
            .status()
            .expect("run")
            .code(),
        Some(2)
    );
    // `--baseline` is the experiments' flag, not train's: drift of the
    // training front is `marnet-lab check`'s question.
    assert_eq!(
        lab_bin().args(["train", "--baseline", "x.json"]).status().expect("run").code(),
        Some(2)
    );
}

#[test]
fn usage_and_io_errors_exit_two() {
    // No experiment named.
    assert_eq!(lab_bin().status().expect("run").code(), Some(2));
    // Unknown experiment.
    assert_eq!(lab_bin().arg("not_an_experiment").status().expect("run").code(), Some(2));
    // Unknown flag.
    assert_eq!(lab_bin().args(["table2_rtt", "--frob"]).status().expect("run").code(), Some(2));
    // Dangling flag value.
    assert_eq!(lab_bin().args(["table2_rtt", "--seed"]).status().expect("run").code(), Some(2));
    // Unreadable baseline: I/O error.
    let out = tmp("lab_ec_io.json");
    let st = run_small(&out, &["--baseline", "/nonexistent/baseline.json"]);
    assert_eq!(st.code(), Some(2));
    // A baseline that shares no grid point with the run (another
    // experiment's artifact): nothing was compared, so not "no drift".
    let other = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/lab_sweep_recovery.json");
    let st = run_small(&tmp("lab_ec_disjoint.json"), &["--baseline", other]);
    assert_eq!(st.code(), Some(2));
    // A baseline nested far deeper than the JSON parser's recursion limit
    // is a parse error, not a stack overflow.
    let deep = tmp("lab_ec_deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write deep baseline");
    let out = lab_bin()
        .args(["table2_rtt", "--replicates", "1", "--threads", "1", "--out"])
        .arg(tmp("lab_ec_deep_out.json"))
        .arg("--baseline")
        .arg(&deep)
        .output()
        .expect("run marnet-lab");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    // Telemetry flags on an experiment that runs no simulation: nothing
    // was captured, so neither an empty trace nor an artifact is written.
    let out = tmp("lab_ec_untraced.json");
    let trace = tmp("lab_ec_untraced.bin");
    let _ = std::fs::remove_file(&out);
    let closed_form = |extra: &[&str]| {
        lab_bin()
            .args(["sweep_offload", "--replicates", "1", "--threads", "1", "--out"])
            .arg(&out)
            .args(extra)
            .status()
            .expect("run marnet-lab")
            .code()
    };
    assert_eq!(closed_form(&["--trace", trace.to_str().unwrap()]), Some(2));
    assert_eq!(closed_form(&["--metrics"]), Some(2));
    assert!(!out.exists() && !trace.exists(), "a refused run must write nothing");
}
