//! Trace files are external bytes: whatever a file holds, `file::decode`
//! and every `marnet-trace` subcommand must answer without panicking, and
//! a file that does not decode is a usage/I-O error (exit 2, with a
//! message). Inputs are arbitrary bytes, truncations and single-bit flips
//! of a valid encoding, plus committed regression seeds. Every decoded
//! trace also goes through [`expand`], as every reader's does.

use std::path::{Path, PathBuf};
use std::process::Command;

use marnet_telemetry::{component, expand, file, DropReason, TraceEvent, TraceKind};
use proptest::prelude::*;

/// A small valid trace touching every subcommand's code paths: packet
/// events of two flows, a send-idle record, a queue delay, drops and link
/// state changes.
fn valid() -> Vec<u8> {
    let link = component::link(0);
    let mut send_idle = TraceEvent::packet_enqueue(5, link, 9, 8, 300, 1);
    assert!(send_idle.fold_send_idle(5, link, 9));
    file::encode(&[
        send_idle,
        TraceEvent::link_state(7, link, false, 0, 0),
        TraceEvent::packet_enqueue(10, link, 1, 7, 1_200, 2),
        TraceEvent::link_state(10, link, true, 1, 1_200),
        TraceEvent::packet_dequeue(30, link, 1, 20),
        TraceEvent::packet_drop(35, link, DropReason::QueueFull, 2, 8, 600),
        TraceEvent::packet_deliver(40, component::actor(3), 1, 7, 1_200),
        TraceEvent::link_state(40, link, false, 0, 0),
    ])
}

/// Inputs that once broke a subcommand, replayed on every run.
fn regression_seeds() -> Vec<Vec<u8>> {
    // Two dequeue delays whose u64 sum overflows `queues`' mean.
    let link = component::link(0);
    vec![file::encode(&[
        TraceEvent::packet_dequeue(1, link, 1, 1 << 63),
        TraceEvent::packet_dequeue(2, link, 2, 1 << 63),
    ])]
}

fn trace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marnet-trace"))
}

/// Runs `marnet-trace` on `args` and returns its exit code and stderr.
fn run(args: &[&Path], cmd: &str) -> (Option<i32>, String) {
    let out = trace_bin().arg(cmd).args(args).output().expect("run marnet-trace");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Decodes `bytes` in process and runs every subcommand on them as the
/// file `{name}.trace`: nothing may panic, a file that decodes is read
/// (and diffs equal to itself), and one that does not exits 2 naming the
/// problem.
fn check(bytes: &[u8], name: &str) {
    let decoded = file::decode(bytes);
    if let Ok(events) = &decoded {
        let expanded = expand(events);
        assert!(expanded.iter().all(|e| e.kind != TraceKind::PacketSendIdle));
        assert!(expanded.len() >= events.len());
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (path, good) = (dir.join(format!("{name}.trace")), dir.join(format!("{name}_valid.trace")));
    std::fs::write(&path, bytes).expect("write trace");
    std::fs::write(&good, valid()).expect("write trace");
    let path = path.as_path();
    // (subcommand, its result, the worst exit a decodable file may give):
    // only a diff against another trace may find a divergence (exit 1).
    let runs = [
        ("dump", run(&[path], "dump"), 0),
        ("flows", run(&[path], "flows"), 0),
        ("queues", run(&[path], "queues"), 0),
        ("diff self", run(&[path, path], "diff"), 0),
        ("diff valid", run(&[&good, path], "diff"), 1),
    ];
    for (cmd, (code, stderr), worst) in runs {
        match &decoded {
            Ok(_) => assert!(
                code.is_some_and(|c| (0..=worst).contains(&c)),
                "{cmd} on a decodable trace exited {code:?}: {stderr}"
            ),
            Err(e) => {
                assert_eq!(code, Some(2), "{cmd} on undecodable bytes ({e}): {stderr}");
                assert!(stderr.contains("marnet-trace:"), "{cmd} gave no message: {stderr:?}");
            }
        }
    }
}

#[test]
fn the_valid_trace_holds_a_send_idle_record() {
    let events = file::decode(&valid()).expect("valid trace decodes");
    assert!(events.iter().any(|e| e.kind == TraceKind::PacketSendIdle));
    assert_eq!(expand(&events).len(), events.len() + 2);
    check(&valid(), "hostile_valid");
}

#[test]
fn regression_seeds_stay_fixed() {
    for (i, bytes) in regression_seeds().iter().enumerate() {
        check(bytes, &format!("hostile_seed_{i}"));
    }
}

/// A hostile input: arbitrary bytes (half of them behind a valid magic, so
/// the record decoder sees them), a truncation of a valid encoding, or a
/// valid encoding with one bit flipped.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<bool>(), prop::collection::vec(any::<u8>(), 0..160)).prop_map(|(magic, body)| {
            if magic {
                [file::MAGIC.as_slice(), &body].concat()
            } else {
                body
            }
        }),
        any::<prop::sample::Index>().prop_map(|cut| {
            let mut bytes = valid();
            bytes.truncate(cut.index(bytes.len() + 1));
            bytes
        }),
        any::<prop::sample::Index>().prop_map(|bit| {
            let mut bytes = valid();
            let bit = bit.index(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_bytes_never_panic_and_bad_files_exit_two(bytes in hostile()) {
        check(&bytes, "hostile_case");
    }
}
