//! # marnet-bench — the experiment harness
//!
//! [`scenarios`] holds the shared topologies, one entry point each: it
//! takes the scenario's parameters (the AR scenarios take an `&ArConfig`),
//! a seed and `&TelemetryOptions`, and returns the outcome, the simulator
//! event count and the telemetry capture. Callers that want no telemetry
//! pass `&TelemetryOptions::disabled()` and take `.0`.
//!
//! One single-seed binary per table/figure of the paper (see DESIGN.md §4
//! for the index) prints the regenerated rows/series and writes
//! `results/<name>.json`; run one with `cargo run -p marnet-bench --bin
//! <name>`. The experiments with replicates, confidence intervals,
//! `--trace` and `--metrics` (E2, E9, E11, E16, E17) are `marnet-lab`
//! experiments built on the same scenarios. The Criterion
//! micro-benchmarks live under `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scenarios;

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Prints a Markdown-ish table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row);
    }
}

/// Writes a JSON artifact under `results/`, creating the directory.
///
/// The write is atomic: the body lands in a temp file next to the target
/// which is then renamed into place, so a crash mid-write can never leave
/// a truncated artifact behind.
///
/// # Panics
///
/// Panics if the artifact cannot be serialized or written — experiment
/// binaries should fail loudly rather than drop results.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize results");
    let tmp = dir.join(format!(".{name}.json.tmp"));
    fs::write(&tmp, body).expect("write results");
    fs::rename(&tmp, &path).expect("publish results");
    println!("\n[artifact] {}", path.display());
}

/// Formats a float with the given precision; NaN prints as `-` and
/// negative zero is normalised — including values that only *round* to
/// zero at the requested precision (e.g. `fmt(-0.04, 1)`).
pub fn fmt(v: f64, prec: usize) -> String {
    if v.is_nan() {
        return "-".to_string();
    }
    let s = format!("{v:.prec$}");
    // Normalise after rounding: "-0", "-0.00", ... have no non-zero digit.
    if let Some(rest) = s.strip_prefix('-') {
        if rest.chars().all(|c| c == '0' || c == '.') {
            return rest.to_string();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
        assert_eq!(fmt(f64::NAN, 2), "-");
        assert_eq!(fmt(-0.0, 1), "0.0");
        // Values that only round to zero must not print a minus sign...
        assert_eq!(fmt(-0.04, 1), "0.0");
        assert_eq!(fmt(-0.0004, 2), "0.00");
        assert_eq!(fmt(-0.4, 0), "0");
        // ...while genuinely negative results keep theirs.
        assert_eq!(fmt(-0.06, 1), "-0.1");
        assert_eq!(fmt(-1.0, 1), "-1.0");
    }

    #[test]
    fn write_json_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("marnet_bench_wj_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        write_json("atomic_check", &vec![1u64, 2, 3]);
        let body = fs::read_to_string("results/atomic_check.json").unwrap();
        assert!(body.contains('1') && body.contains('3'));
        assert!(!PathBuf::from("results/.atomic_check.json.tmp").exists());
        std::env::set_current_dir(prev).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
