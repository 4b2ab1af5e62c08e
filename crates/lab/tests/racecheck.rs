//! `marnet-lab racecheck`: the race detector must itself be
//! deterministic — same report bytes at any `--threads` and across
//! reruns — and its exit codes must follow the workspace convention
//! (0 no divergence outside `TIE_DEPENDENT`, 1 divergence found, 2 usage
//! error). The tests name two or three cheap targets; the whole registry
//! is the release-mode `marnet-lab check` job's.

use std::process::{Command, Output};

fn lab_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marnet-lab"))
}

fn run_racecheck(args: &[&str]) -> Output {
    lab_bin().arg("racecheck").args(args).output().expect("run marnet-lab racecheck")
}

#[test]
fn report_is_byte_identical_across_threads_and_reruns() {
    // Two clean targets and one on TIE_DEPENDENT, so the localization
    // lines are under the byte-identity contract too.
    let subset = ["table2_rtt", "fig3_asymmetry", "sweep_faults"];
    let with_threads = |t: &'static str| run_racecheck(&[&subset[..], &["--threads", t]].concat());
    let one = with_threads("1");
    let eight = with_threads("8");
    let again = with_threads("8");
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("sweep_faults: tie-dependent (on TIE_DEPENDENT)"), "{text}");
    assert!(text.contains("first divergent trial"), "{text}");
    assert_eq!(
        text,
        String::from_utf8_lossy(&eight.stdout),
        "racecheck report must not depend on --threads"
    );
    assert_eq!(
        String::from_utf8_lossy(&eight.stdout),
        String::from_utf8_lossy(&again.stdout),
        "racecheck report must be stable across reruns"
    );
}

#[test]
fn clean_targets_exit_zero() {
    let out = run_racecheck(&["table2_rtt", "table_bitrates"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 of 2 target(s) tie-order independent"), "{text}");
}

#[test]
fn demo_divergence_exits_one_with_a_first_divergence_trace() {
    let out = run_racecheck(&["--demo"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("demo: DIVERGENCE"), "{text}");
    assert!(text.contains("scalar first_arrival"), "{text}");
    assert!(text.contains("first divergence at event"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    // Unknown flag — the retired `--quick` and `--no-trace` among them.
    assert_eq!(run_racecheck(&["--frob"]).status.code(), Some(2));
    assert_eq!(run_racecheck(&["--quick"]).status.code(), Some(2));
    assert_eq!(run_racecheck(&["--no-trace"]).status.code(), Some(2));
    // Unknown target.
    assert_eq!(run_racecheck(&["table2_rtt", "not_an_experiment"]).status.code(), Some(2));
    // Dangling flag value.
    assert_eq!(run_racecheck(&["--seed"]).status.code(), Some(2));
    // Non-numeric value.
    assert_eq!(run_racecheck(&["--threads", "many"]).status.code(), Some(2));
    // Zero threads / replicates.
    assert_eq!(run_racecheck(&["--threads", "0"]).status.code(), Some(2));
    assert_eq!(run_racecheck(&["--replicates", "0"]).status.code(), Some(2));
}
