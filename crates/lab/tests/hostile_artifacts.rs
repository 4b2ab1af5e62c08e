//! Artifacts are external bytes too: `--baseline` and `check` read files a
//! user may have edited, truncated or mixed up. Whatever a file holds,
//! [`Artifact::load`] and [`FrontArtifact::load`] must answer without
//! panicking, and a file they refuse is a usage/I-O error of both CLIs
//! (exit 2, with a message). Inputs are arbitrary bytes, truncations and
//! single-bit flips of the committed `results/lab_*.json`, plus fixed
//! cases that reach the parser's deepest error paths.

use marnet_lab::check::{check_train, CheckError};
use marnet_lab::Artifact;
use marnet_trainer::artifact::FrontArtifact;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The committed artifacts, `(file name, bytes)`, in name order.
fn committed() -> &'static [(String, Vec<u8>)] {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .expect("read results/")
            .map(|entry| entry.expect("dir entry").path())
            .filter_map(|path| {
                let name = path.file_name()?.to_str()?.to_string();
                (name.starts_with("lab_") && name.ends_with(".json"))
                    .then(|| (name, fs::read(&path).expect("read artifact")))
            })
            .collect();
        files.sort();
        assert!(files.len() > 20, "the committed artifacts are missing");
        files
    })
}

fn committed_file(name: &str) -> &'static [u8] {
    committed().iter().find(|(n, _)| n == name).map(|(_, b)| b.as_slice()).expect(name)
}

fn lab(args: &[&str], extra: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marnet-lab"))
        .args(args)
        .args(extra)
        .output()
        .expect("run marnet-lab")
}

/// Loads `bytes` with both loaders and hands them to both CLIs as
/// `{case}`: nothing may panic, and a file the experiment loader refuses
/// exits 2 from `--baseline` and from `check` with a message naming it.
/// A refused front is unreadable to `check`'s training compare.
fn check(bytes: &[u8], case: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(case);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create case dir");
    let path = dir.join("lab_table1_devices.json");
    fs::write(&path, bytes).expect("write artifact");
    let loaded = Artifact::load(&path);
    let front = dir.join("lab_train_smoke.json");
    fs::write(&front, bytes).expect("write front");
    if FrontArtifact::load(&front).is_err() {
        match check_train(&dir, &[1]) {
            Err(CheckError::Unreadable(msg)) => assert!(msg.contains("lab_train_smoke.json")),
            other => panic!("{case}: a refused front must be unreadable: {other:?}"),
        }
    }

    let out = dir.join("out.json");
    let baseline = lab(
        &["table1_devices", "--replicates", "1", "--threads", "1", "--out"],
        &[&out, Path::new("--baseline"), &path],
    );
    let stderr = String::from_utf8_lossy(&baseline.stderr);
    let code = baseline.status.code();
    match &loaded {
        Ok(_) => {
            assert!(matches!(code, Some(0..=2)), "{case}: --baseline exited {code:?}: {stderr}")
        }
        Err(e) => {
            assert_eq!(code, Some(2), "{case}: --baseline on a refused file ({e}): {stderr}");
            assert!(stderr.contains("failed to load baseline"), "{case}: {stderr}");
        }
    }
    // `check` regenerates a file that loads — the drift path other tests
    // cover — so only a refused one is worth its run here.
    if let Err(e) = &loaded {
        let out = lab(&["check", "--results"], &[&dir]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: check on a refused file ({e}): {stderr}");
        assert!(stderr.contains("lab_table1_devices.json"), "{case}: {stderr}");
    }
}

#[test]
fn fixed_cases_reach_the_deepest_error_paths() {
    let text = std::str::from_utf8(committed_file("lab_table1_devices.json")).expect("UTF-8");
    let mean = text.find("\"mean\": ").expect("a mean") + "\"mean\": ".len();
    let mean_end = mean + text[mean..].find([',', '\n']).expect("the mean ends");
    // Cut mid-number (`2.`): the number parses, the object around it never
    // ends.
    check(&text.as_bytes()[..mean + 2], "hostile_fixed_truncated");
    // A float literal past `f64::MAX` parses to infinity.
    let inf = format!("{}1e999{}", &text[..mean], &text[mean_end..]);
    check(inf.as_bytes(), "hostile_fixed_inf");
    // A lone surrogate escape in a grid value.
    let lone = text.replacen("\"glasses\"", "\"\\ud800\"", 1);
    assert_ne!(lone, text);
    check(lone.as_bytes(), "hostile_fixed_surrogate");
}

#[test]
fn every_committed_artifact_loads_with_its_loader() {
    for (name, bytes) in committed() {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hostile_{name}"));
        fs::write(&path, bytes).expect("write artifact");
        if name == "lab_train_smoke.json" {
            FrontArtifact::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            Artifact::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

/// One of the committed artifacts.
fn committed_bytes() -> impl Strategy<Value = Vec<u8>> {
    any::<prop::sample::Index>().prop_map(|i| {
        let files = committed();
        files[i.index(files.len())].1.clone()
    })
}

/// A hostile input: arbitrary bytes, a truncation of a committed
/// artifact, or a committed artifact with one bit flipped.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..200),
        (committed_bytes(), any::<prop::sample::Index>()).prop_map(|(mut bytes, cut)| {
            bytes.truncate(cut.index(bytes.len() + 1));
            bytes
        }),
        (committed_bytes(), any::<prop::sample::Index>()).prop_map(|(mut bytes, bit)| {
            let bit = bit.index(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_artifacts_never_panic_and_refused_files_exit_two(bytes in hostile()) {
        check(&bytes, "hostile_case");
    }
}
