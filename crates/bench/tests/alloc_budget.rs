//! Allocation budget of the simulated scenarios: allocator calls per
//! simulator event and peak live heap, per scenario, against bars kept
//! here as constants.
//!
//! Both numbers are deterministic — the same on any host and in any build
//! profile — so unlike a wall-clock figure they can be held to a tight
//! bar. Speed itself is the benchmark's business (`benchmark/README.md`).
//!
//! A row fails above its bar plus the slack, and also when it beats the
//! bar by more than the slack: an improvement must lower the bar in the
//! same change, so the budget only ever moves forward.

// The one sanctioned escape from the workspace `unsafe_code` deny: a
// counting GlobalAlloc cannot be written without implementing an unsafe
// trait. Nothing here dereferences raw pointers beyond forwarding to
// `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use marnet_bench::scenarios::{
    run_cityscale_instrumented, run_faults_config_instrumented, run_queueing_instrumented,
    run_recovery_instrumented, run_table2_instrumented, FaultScenario, RecoveryMechanism,
    Table2Scenario,
};
use marnet_sim::queue::QueueConfig;
use marnet_telemetry::TelemetryOptions;

/// Allocator wrapper counting calls and tracking live bytes. The counters
/// are process-global, which is why this binary holds a single test.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards its arguments to `System` unchanged, so the
// caller's `GlobalAlloc` contract is `System`'s; the counters are plain
// atomics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(l.size() as i64, Ordering::Relaxed) + l.size() as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `l` is the caller's layout, valid by the trait contract.
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        // SAFETY: `p` came from `alloc` above, i.e. from `System`, with `l`.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Slack on allocator calls per event: a row fails outside `bar × (1 ± ALLOC_SLACK)`.
const ALLOC_SLACK: f64 = 0.02;
/// Slack on peak heap: a row fails outside `[bar / PEAK_SLACK, bar × PEAK_SLACK]`.
const PEAK_SLACK: f64 = 1.25;

/// One scenario and its two bars.
struct Row {
    label: &'static str,
    /// Allocator calls per simulator event in the measured run.
    allocs_per_event: f64,
    /// Peak live heap bytes above the live bytes at the measured run's start.
    peak_bytes: i64,
    /// Runs the scenario; returns its simulator event count.
    run: Box<dyn Fn() -> u64>,
}

fn rows() -> Vec<Row> {
    let off = TelemetryOptions::disabled;
    let recovery = |label, allocs_per_event, peak_bytes, mechanism| Row {
        label,
        allocs_per_event,
        peak_bytes,
        run: Box::new(move || run_recovery_instrumented(40, 0.05, mechanism, 2, 11, &off()).1),
    };
    vec![
        recovery("arq+fec-k8", 0.126858, 32_932, RecoveryMechanism::ArqFecK8),
        recovery("duplicate", 0.039282, 17_620, RecoveryMechanism::Duplicate),
        Row {
            label: "offload-wifi",
            allocs_per_event: 0.026608,
            peak_bytes: 8_728,
            run: Box::new(move || {
                run_table2_instrumented(Table2Scenario::CloudServerWifi, 200, 400, 400, 42, &off())
                    .1
            }),
        },
        // 900 MAR streams plus 100 bulk uploads through one strict-FIFO
        // uplink: 1000 routed flows through a single NIC pair.
        Row {
            label: "cell-1k",
            allocs_per_event: 0.045867,
            peak_bytes: 4_811_288,
            run: Box::new(move || {
                let cell = QueueConfig::bloated_uplink();
                run_queueing_instrumented(2_000.0, cell, 0, 900, 100, 2, 7, &off()).1
            }),
        },
        // The same cell under FQ-CoDel: flow hashing and per-flow queues.
        Row {
            label: "cell-1k-fq",
            allocs_per_event: 0.088716,
            peak_bytes: 5_611_896,
            run: Box::new(move || {
                let cell = QueueConfig::fq_codel_default();
                run_queueing_instrumented(2_000.0, cell, 0, 900, 100, 2, 7, &off()).1
            }),
        },
        Row {
            label: "cityscale-hybrid",
            allocs_per_event: 0.001008,
            peak_bytes: 619_060,
            run: Box::new(move || run_cityscale_instrumented(20_000, 10.0, 2, 42, &off()).1),
        },
        // The hardened stack through a link outage, a cold and a warm edge
        // restart: the watchdog, probe and resync paths no other row runs.
        Row {
            label: "faults-hardened",
            allocs_per_event: 0.020635,
            peak_bytes: 24_358,
            run: Box::new(move || {
                let cfg = FaultScenario::stack_config(true);
                FaultScenario::ALL
                    .into_iter()
                    .map(|s| run_faults_config_instrumented(s, &cfg, 500, 4, 42, &off()).1)
                    .sum()
            }),
        },
    ]
}

/// `(allocator calls per event, peak bytes above the start)` of one run,
/// after an unmeasured warm-up run that faults in lazily built state.
fn measure(row: &Row) -> (f64, i64) {
    (row.run)();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let events = (row.run)();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    assert!(events > 0, "{}: the scenario must process events", row.label);
    (allocs as f64 / events as f64, peak)
}

/// The breaches of `row`'s bars by a measurement, one message each.
fn breaches(row: &Row, allocs_per_event: f64, peak: i64) -> Vec<String> {
    let mut out = Vec::new();
    let label = row.label;
    let bar = row.allocs_per_event;
    if allocs_per_event > bar * (1.0 + ALLOC_SLACK) {
        out.push(format!("{label}: {allocs_per_event:.6} allocs/event is over its bar {bar}"));
    } else if allocs_per_event < bar * (1.0 - ALLOC_SLACK) {
        out.push(format!(
            "{label}: allocs/event beats its bar {bar}: lower the bar to {allocs_per_event:.6}"
        ));
    }
    let bar = row.peak_bytes as f64;
    if peak as f64 > bar * PEAK_SLACK {
        out.push(format!("{label}: peak heap {peak} B is over its bar {bar} B"));
    } else if (peak as f64) < bar / PEAK_SLACK {
        out.push(format!("{label}: peak heap beats its bar {bar} B: lower the bar to {peak}"));
    }
    out
}

#[test]
fn every_scenario_stays_within_its_allocation_and_peak_heap_bars() {
    let mut failures = Vec::new();
    for row in rows() {
        let (allocs_per_event, peak) = measure(&row);
        println!("{:<16} {allocs_per_event:.6} allocs/event  peak {peak} B", row.label);
        failures.extend(breaches(&row, allocs_per_event, peak));
    }
    assert!(failures.is_empty(), "allocation budget:\n{}", failures.join("\n"));
}
