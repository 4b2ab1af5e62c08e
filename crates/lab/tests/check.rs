//! `marnet-lab check`: the regenerate gate names the first artifact and
//! line that no longer regenerates (exit 1) and refuses a missing or
//! unreadable artifact (exit 2). Kept cheap for the debug-profile run by
//! failing at the registry's first name — `table1_devices` is closed-form
//! and instant; the full exit-0 pass is the release-mode CI job's. The
//! training front goes through the same compare ([`check_train`]), the one
//! place its drift is checked.

use marnet_lab::check::{check_experiment, check_train, CheckError};
use marnet_lab::experiments::NAMES;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A scratch copy of the committed lab artifacts.
fn results_copy(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch results dir");
    for entry in fs::read_dir(committed_results()).expect("read results/") {
        let path = entry.expect("dir entry").path();
        let file = path.file_name().expect("file name").to_string_lossy().into_owned();
        if file.starts_with("lab_") {
            fs::copy(&path, dir.join(&file)).expect("copy artifact");
        }
    }
    dir
}

fn run_check(results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marnet-lab"))
        .args(["check", "--results"])
        .arg(results)
        .output()
        .expect("run marnet-lab check")
}

#[test]
fn an_edited_mean_exits_one_naming_the_file_and_line() {
    let dir = results_copy("check_edited");
    let path = dir.join("lab_table1_devices.json");
    let text = fs::read_to_string(&path).expect("read artifact");
    let line = text.lines().position(|l| l.contains("\"mean\": ")).expect("a mean") + 1;
    fs::write(&path, text.replacen("\"mean\": ", "\"mean\": 9", 1)).expect("doctor artifact");
    let out = run_check(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("lab_table1_devices.json does not regenerate"), "{stdout}");
    assert!(stdout.contains(&format!("line {line}\n")), "{stdout}");
}

#[test]
fn a_missing_or_garbage_artifact_exits_two() {
    let dir = results_copy("check_unreadable");
    let path = dir.join("lab_table1_devices.json");
    fs::write(&path, "not an artifact").expect("write garbage");
    let out = run_check(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("lab_table1_devices.json"));
    fs::remove_file(&path).expect("remove artifact");
    let out = run_check(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("lab_table1_devices.json"));
    // A dangling flag value and an unknown argument are usage errors too.
    let lab = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_marnet-lab")).args(args).output().expect("run").status
    };
    assert_eq!(lab(&["check", "--results"]).code(), Some(2));
    assert_eq!(lab(&["check", "--frob"]).code(), Some(2));
}

/// `results/` holds exactly what `check` regenerates: one artifact per
/// experiment plus the smoke training front. A committed file whose
/// producer is gone fails here rather than going stale.
#[test]
fn results_holds_exactly_the_artifacts_check_regenerates() {
    let mut committed: Vec<String> = fs::read_dir(committed_results())
        .expect("read results/")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    committed.sort();
    let mut expected: Vec<String> = NAMES.iter().map(|name| format!("lab_{name}.json")).collect();
    expected.push("lab_train_smoke.json".to_owned());
    expected.sort();
    assert_eq!(committed, expected);
}

#[test]
fn committed_artifacts_regenerate_at_one_thread_and_four() {
    let results = committed_results();
    for name in ["table_bitrates", "table2_rtt"] {
        let recorded = check_experiment(name, &results, &[1, 4]);
        assert!(recorded.is_ok(), "{name}: {recorded:?}");
    }
    // The same compare on a doctored copy names the differing line.
    let dir = results_copy("check_library");
    let path = dir.join("lab_table2_rtt.json");
    let text = fs::read_to_string(&path).expect("read artifact");
    fs::write(&path, text.replacen("\"p99\": ", "\"p99\": 9", 1)).expect("doctor artifact");
    match check_experiment("table2_rtt", &dir, &[1, 4]) {
        Err(CheckError::Differs(finding)) => {
            assert!(finding.contains("--threads 1"), "{finding}");
            assert!(finding.contains("\"p99\": 9"), "{finding}");
        }
        other => panic!("a doctored p99 must differ: {other:?}"),
    }
}

#[test]
fn an_edited_tuned_value_in_the_training_front_differs_naming_the_line() {
    let dir = results_copy("check_train_edited");
    let path = dir.join("lab_train_smoke.json");
    let text = fs::read_to_string(&path).expect("read training artifact");
    let line = text.lines().position(|l| l.contains("\"tuned\": 7")).expect("a tuned value") + 1;
    fs::write(&path, text.replacen("\"tuned\": 7", "\"tuned\": 97", 1)).expect("doctor front");
    match check_train(&dir, &[1]) {
        Err(CheckError::Differs(finding)) => {
            assert!(finding.contains("lab_train_smoke.json does not regenerate"), "{finding}");
            assert!(finding.contains(&format!("line {line}\n")), "{finding}");
        }
        other => panic!("a doctored tuned value must differ: {other:?}"),
    }
}

#[test]
fn a_garbage_training_front_is_unreadable() {
    let dir = results_copy("check_train_garbage");
    let path = dir.join("lab_train_smoke.json");
    fs::write(&path, "not a front").expect("write garbage");
    match check_train(&dir, &[1]) {
        Err(CheckError::Unreadable(msg)) => assert!(msg.contains("lab_train_smoke.json"), "{msg}"),
        other => panic!("a garbage front must be unreadable: {other:?}"),
    }
}
