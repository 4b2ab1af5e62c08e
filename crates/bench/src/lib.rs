//! # marnet-bench — the scenario library
//!
//! [`scenarios`] holds every simulated topology of the reproduction, one
//! entry point each: it takes the scenario's parameters (the AR scenarios
//! take an `&ArConfig`), a seed and `&TelemetryOptions`, and returns the
//! outcome, the simulator event count and the telemetry capture. Callers
//! that want no telemetry pass `&TelemetryOptions::disabled()` and take
//! `.0`.
//!
//! The experiments that regenerate the paper's tables and figures are
//! `marnet-lab` experiments built on these scenarios (DESIGN.md §4 has the
//! index; `cargo run -p marnet-lab -- <name>`), and `tests/alloc_budget.rs`
//! holds six scenarios to their allocations per event and peak heap.
//! [`print_table`] and [`fmt`] are the table printer the lab's renderers
//! use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scenarios;

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
    fn table_printing_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
