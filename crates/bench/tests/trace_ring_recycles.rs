//! A traced run writes its records into memory an earlier traced run
//! already faulted in, not into fresh pages.
//!
//! The flight recorder's ring is one allocation of
//! `DEFAULT_TRACE_CAPACITY` events, sized to stay under glibc's 32 MiB
//! mmap-threshold ceiling (see the constant's docs). Once the first
//! run's trace is dropped, glibc serves later rings from its heap and the
//! pages they write are already mapped. At 2^20 events every run maps a
//! fresh ring and faults once per 128 records.
//!
//! The count is the thread's own minor faults, read from
//! `/proc/thread-self/stat`. This is a test binary of its own so that no
//! other test shares the allocator state it measures.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use marnet_bench::scenarios::{run_table2_instrumented, Table2Scenario};
use marnet_telemetry::{file, TelemetryOptions, TraceEvent, DEFAULT_TRACE_CAPACITY};

/// Minor faults of the calling thread so far: field 10 of
/// `/proc/thread-self/stat`, counted after the `)` that closes the
/// command name, which may itself hold spaces or parentheses.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("readable thread stat");
    let fields = &stat[stat.rfind(')').expect("a command name in parentheses") + 1..];
    // The fields after the name start at field 3 (state); minflt is 10.
    fields.split_whitespace().nth(7).and_then(|f| f.parse().ok()).expect("a numeric minflt")
}

#[test]
fn later_traced_runs_fault_in_almost_none_of_the_ring() {
    const RUNS: usize = 5;
    const PAGE: usize = 4096;
    let telemetry =
        TelemetryOptions { trace_capacity: Some(DEFAULT_TRACE_CAPACITY), metrics: false };
    let mut faults = Vec::new();
    let mut pages = 0;
    for _ in 0..RUNS {
        let before = minor_faults();
        let (_, _, capture) = run_table2_instrumented(
            Table2Scenario::LocalServerWifi,
            40_000,
            400,
            400,
            42,
            &telemetry,
        );
        let bytes = file::encode(&capture.events);
        assert!(bytes.len() > capture.events.len(), "the trace encodes");
        pages = capture.events.len() * std::mem::size_of::<TraceEvent>() / PAGE;
        drop(bytes);
        drop(capture);
        faults.push(minor_faults() - before);
    }
    println!("minor faults per run: {faults:?}; the trace touches {pages} pages");
    assert!(pages > 1_000, "the trace must span enough pages to tell: {pages}");
    for (run, &f) in faults.iter().enumerate().skip(RUNS - 2) {
        assert!(
            f * 20 < pages as u64,
            "run {run} took {f} minor faults for a {pages}-page trace (all runs: {faults:?}): \
             the ring is not being recycled"
        );
    }
}
