//! `marnet-trace` exit codes: the workspace CLI convention is 0 ok,
//! 1 findings (trace divergence), 2 usage or I/O error.

use std::path::PathBuf;
use std::process::Command;

use marnet_telemetry::{component, file, TraceEvent, TraceKind};

fn trace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marnet-trace"))
}

fn write_trace(name: &str, events: &[TraceEvent]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    file::write_file(&path, events).expect("write trace");
    path
}

fn events(flow: u64) -> Vec<TraceEvent> {
    vec![
        TraceEvent::packet_enqueue(10, component::link(0), 1, flow, 1200, 0),
        TraceEvent::packet_deliver(20, component::link(0), 1, flow, 1200),
    ]
}

#[test]
fn identical_traces_diff_to_zero() {
    let a = write_trace("ec_a.trace", &events(7));
    let b = write_trace("ec_b.trace", &events(7));
    let st = trace_bin().args(["diff"]).arg(&a).arg(&b).status().expect("run");
    assert_eq!(st.code(), Some(0));
}

#[test]
fn divergent_traces_exit_one() {
    let a = write_trace("ec_c.trace", &events(7));
    let b = write_trace("ec_d.trace", &events(8));
    let st = trace_bin().args(["diff"]).arg(&a).arg(&b).status().expect("run");
    assert_eq!(st.code(), Some(1));
}

#[test]
fn usage_and_io_errors_exit_two() {
    // No arguments at all: usage error.
    let st = trace_bin().status().expect("run");
    assert_eq!(st.code(), Some(2));
    // Unknown subcommand.
    let st = trace_bin().args(["frobnicate"]).status().expect("run");
    assert_eq!(st.code(), Some(2));
    // Missing trace file: I/O error.
    let st = trace_bin().args(["dump", "/nonexistent/trace.bin"]).status().expect("run");
    assert_eq!(st.code(), Some(2));
}

/// Runs `marnet-trace` and asserts it refused with exit 2 and a message
/// holding every `needle`.
fn assert_refused(args: &[&str], needles: &[&str]) {
    let out = trace_bin().args(args).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {needle} not in {stderr}");
    }
}

/// A trace whose first packet went onto an idle link: one send-idle
/// record, which every reader sees as an enqueue, a dequeue and a busy.
/// Returns its path as a command-line argument.
fn send_idle_trace(name: &str) -> String {
    let mut first = TraceEvent::packet_enqueue(10, component::link(0), 1, 7, 1200, 0);
    assert!(first.fold_send_idle(10, component::link(0), 1));
    let last = TraceEvent::packet_deliver(20, component::link(1), 1, 7, 1200);
    write_trace(name, &[first, last]).to_str().expect("UTF-8 path").to_owned()
}

#[test]
fn dump_refuses_the_send_idle_kind_no_reader_sees() {
    let t = send_idle_trace("ec_si.trace");
    let expands_to = ["send-idle", "enqueue", "dequeue", "busy"];
    assert_refused(&["dump", &t, "--kind", "send-idle"], &expands_to);
}

#[test]
fn queues_refuses_a_component_filter() {
    let t = send_idle_trace("ec_q.trace");
    assert_refused(&["queues", &t, "--comp", "link#0"], &["--comp"]);
}

#[test]
fn diff_refuses_kind_and_limit_filters() {
    let (a, b) = (send_idle_trace("ec_da.trace"), send_idle_trace("ec_db.trace"));
    assert_refused(&["diff", &a, &b, "--kind", "drop", "--limit", "1"], &["--kind"]);
    assert_refused(&["diff", &a, &b, "--limit", "1"], &["--limit"]);
}

#[test]
fn flows_refuses_kind_and_limit_filters() {
    let t = send_idle_trace("ec_f.trace");
    assert_refused(&["flows", &t, "--kind", "drop", "--limit", "2"], &["--kind"]);
    assert_refused(&["flows", &t, "--limit", "2"], &["--limit"]);
    let st = trace_bin().args(["flows", &t, "--flow", "7"]).status().expect("run");
    assert_eq!(st.code(), Some(0), "flows takes --flow");
}

#[test]
fn help_lists_every_kind_a_reader_sees() {
    let out = trace_bin().arg("--help").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    for kind in TraceKind::ALL.into_iter().filter(|&k| k != TraceKind::PacketSendIdle) {
        assert!(help.contains(kind.name()), "--kind help omits {kind}");
    }
}
