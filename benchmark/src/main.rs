//! `marnet-benchmark` — one workload per invocation, measured from outside
//! the program through the items named in `surface.rs`.
//!
//! ```text
//! marnet-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//! marnet-benchmark --list
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with all telemetry
//! off; `--trace 1` (alias `--traced`) is the separate traced run that
//! yields the per-layer metrics and writes the span log to `--out`. The
//! last line of stdout is one JSON object `{correct, attempted, failed,
//! metrics}`. Exit code 0 ok, 1 a check failed, 2 usage — the workspace
//! convention. See README.md.

mod alloc;
mod calib;
mod measure;
mod metrics;
mod span;
mod stats;
mod surface;
mod workloads;

use calib::{Kernel, REF_MOPS};
use measure::{count_run, lab_rep, sim_rep, OpMix, Rep, SimMode};
use metrics::{END_TO_END, PER_LAYER};
use serde::Value;
use span::SpanLog;
use stats::{good_quartile, median};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use surface::{Counts, Recorder, DRIVE_GROUPS};
use workloads::{body, Call, LAB_SWEEP, RECORDED, WORKLOADS};

/// Fewest timed repetitions of an untraced run, however short `--seconds`.
const MIN_REPS: usize = 7;
/// Plain/traced repetition pairs of a traced run.
const TRACED_REPS: u32 = 5;
/// Table II fidelity band: a median RTT further than this from the paper's
/// value fails the run (today's error is below half a percent).
const PAPER_RTT_BAND_PCT: f64 = 5.0;

const USAGE: &str = "usage: marnet-benchmark --workload NAME [--seed S] [--seconds T] \
                     [--trace 0|1 | --traced] [--out PATH]\n       marnet-benchmark --list";

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 12.0,
        trace: false,
        out: PathBuf::from("benchmark/out/trace.json"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(None),
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or_else(|| format!("unknown workload {name:?} (try --list)"))?;
    Ok(Some(args))
}

/// A workload ready to be repeated.
struct Runner {
    name: &'static str,
    seed: u64,
    threads: usize,
    /// Whether this is the traced run (`--trace 1`).
    traced: bool,
    calls: Vec<Call>,
    kernel: Kernel,
    log: SpanLog,
}

impl Runner {
    fn is_lab(&self) -> bool {
        self.name == LAB_SWEEP
    }

    /// One repetition with the program's telemetry as `recorder`; a
    /// repetition that records also encodes on the `recorded` workload.
    /// `checks` adds the untimed one-off checks (trace round trip, lab
    /// goldens, lab artifacts equal at `threads=n`); the traced run takes
    /// the `threads=n` lab pass in every repetition, for its timings.
    fn rep(&mut self, recorder: Recorder, checks: bool) -> Rep {
        if self.is_lab() {
            let threads_n = (checks || self.traced).then_some(self.threads);
            return lab_rep(
                self.seed,
                threads_n,
                recorder,
                checks,
                &mut self.kernel,
                &mut self.log,
            );
        }
        let encode = self.name == RECORDED && recorder != Recorder::Off;
        let mode = SimMode { recorder, encode, verify_roundtrip: checks };
        sim_rep(&self.calls, mode, &mut self.kernel, &mut self.log)
    }

    /// The recorder of the workload's own body: on for `recorded` only.
    fn native(&self) -> Recorder {
        if self.name == RECORDED {
            Recorder::Trace
        } else {
            Recorder::Off
        }
    }
}

/// Running totals of operations and the reference digests they are held
/// against.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, rep: &mut Rep) {
        if self.reference.is_empty() {
            self.reference = rep.digests.clone();
        }
        rep.fail_on_mismatch(&self.reference);
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// The warm-up: one untimed repetition with every one-off check, which
/// also fixes the reference digests.
fn warm_up(runner: &mut Runner, tally: &mut Tally) -> Rep {
    let mut warm = runner.rep(runner.native(), true);
    tally.absorb(&mut warm);
    if runner.name == RECORDED {
        // The recorder must be inert: the same seeds unrecorded give the
        // same digests.
        let mut unrecorded = runner.rep(Recorder::Off, false);
        tally.absorb(&mut unrecorded);
    }
    if warm.sim.paper_rtt_err_pct > 0.0 {
        tally.check(
            warm.sim.paper_rtt_err_pct <= PAPER_RTT_BAND_PCT,
            "a Table II median RTT left the paper's band",
        );
    }
    warm
}

fn untraced(runner: &mut Runner, seconds: f64) -> (Tally, Vec<(&'static str, f64)>) {
    let mut tally = Tally::default();
    let warm = warm_up(runner, &mut tally);
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let mut rep = runner.rep(runner.native(), false);
        tally.absorb(&mut rep);
        reps.push(rep);
    }
    eprintln!(
        "{}: {} reps, {:.0} work/s median, calibration {:.2} Mops/s median",
        runner.name,
        reps.len(),
        median(&reps.iter().map(Rep::rate).collect::<Vec<_>>()),
        median(&reps.iter().map(|r| r.calib / 1e6).collect::<Vec<_>>()),
    );
    (tally, end_to_end_values(&warm, &reps))
}

/// The end-to-end metrics of an untraced run. Host times are calibrated
/// and take the good-side quartile over the repetitions; the heap mark and the
/// simulated statistic repeat exactly, so any repetition's value will do.
fn end_to_end_values(warm: &Rep, reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let all = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => {
                    // Seconds at the reference machine speed: scaled by the
                    // repetition's calibration like every other host time.
                    let samples: Vec<f64> = reps
                        .iter()
                        .flat_map(|r| r.setup_s.iter().map(|s| s * r.calib / 1e6 / REF_MOPS))
                        .collect();
                    good_quartile(&samples, m.higher_is_better)
                }
                "work_per_mcalop" => good_quartile(&all(Rep::score), m.higher_is_better),
                "peak_heap_bytes" => median(&all(|r| r.peak_bytes as f64)),
                "in_budget_pct" => warm.sim.in_budget_pct,
                other => unreachable!("end-to-end metric {other} has no producer"),
            };
            (m.name, value)
        })
        .collect()
}

/// Per-layer values by name; setting an undeclared name is a bug.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "undeclared per-layer metric {name}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs every drive group between two calibration runs and records both
/// the raw value (for the share arithmetic) and the calibrated one.
fn run_drives(runner: &mut Runner, layers: &mut Layers) -> BTreeMap<&'static str, f64> {
    let mut raw = BTreeMap::new();
    for group in DRIVE_GROUPS {
        let before = runner.kernel.ops_per_sec();
        let drives = group(runner.threads);
        let speed = (before + runner.kernel.ops_per_sec()) / 2.0 / 1e6 / REF_MOPS;
        for d in drives {
            raw.insert(d.name, d.raw);
            layers.set(d.name, if d.time_like { d.raw * speed } else { d.raw / speed });
        }
    }
    raw
}

/// Attributes a simulator workload's run time to layers: count × drive ns
/// ÷ run ns.
/// The residual is actor code with no isolated drive (`core::endpoint` on
/// `ar-recovery`, `transport::{probe,nic,tcp}` on `offload-rtt` and the
/// cells, `flow::fluid` on `cityscale`). Shares must sum to at most 1: a
/// drive that over-counts pushes the residual below zero, which `aa.sh`
/// refuses. (It is an estimate from two noisy timings, so it only warns
/// here: a run's `correct` speaks for the program's outputs alone.)
fn set_shares(
    runner: &Runner,
    layers: &mut Layers,
    raw: &BTreeMap<&'static str, f64>,
    counts: &Counts,
    mix: OpMix,
    events: u64,
    run_s: f64,
) {
    let ns = |name: &str| raw.get(name).copied().unwrap_or(0.0);
    let run_ns = run_s * 1e9;
    // A deep event heap on the workloads that keep ≥ 1e3 events pending.
    let deep = matches!(runner.name, "dense-cell" | "aqm-cell" | "cityscale");
    let engine_ns =
        ns(if deep { "sim.engine.ns_per_event_deep" } else { "sim.engine.ns_per_event_shallow" });
    // The link drive queues through DropTail; the AQM cell pays the
    // difference to FQ-CoDel on top.
    let aqm_extra = if runner.name == "aqm-cell" {
        (ns("sim.queue.fqcodel_ns_per_pkt") - ns("sim.queue.droptail_ns_per_pkt")).max(0.0)
    } else {
        0.0
    };
    let emit_ns = if runner.native() == Recorder::Off {
        ns("telemetry.recorder.ns_per_emit_off")
    } else {
        ns("telemetry.recorder.ns_per_emit_chunked")
    };
    // One 1200-byte fragment through the XOR encoder costs 1200 × 8 bits
    // at `xor_gbps` (bits per ns).
    let xor_ns_per_pkt = 1_200.0 * 8.0 / ns("core.fec.xor_gbps").max(1e-9);
    let shares = [
        ("share.sim.engine", events as f64 * engine_ns),
        (
            "share.sim.link_queue",
            counts.pkts_enqueued as f64 * (ns("sim.link.ns_per_pkt") + aqm_extra),
        ),
        (
            "share.core.fec_recovery",
            mix.fec_pkts as f64 * (ns("core.fec.tracker_ns_per_pkt") + xor_ns_per_pkt)
                + mix.arq_pkts as f64 * ns("core.recovery.rtxbuf_ns_per_op"),
        ),
        ("share.flow.maxmin", counts.recomputes as f64 * ns("flow.maxmin.ns_per_recompute_c2")),
        ("share.telemetry", counts.events_recorded as f64 * emit_ns),
    ];
    let mut attributed = 0.0;
    for (name, cost_ns) in shares {
        attributed += cost_ns / run_ns;
        layers.set(name, cost_ns / run_ns);
    }
    layers.set("share.residual_actor", 1.0 - attributed);
    if attributed > 1.0 {
        eprintln!("warning: attributed shares sum to {attributed:.3} > 1: a drive over-counts");
    }
}

fn traced(runner: &mut Runner, out: &Path) -> (Tally, Vec<(&'static str, f64)>) {
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let warm = warm_up(runner, &mut tally);

    // Counts: one run with recorder and metrics registry on, untimed.
    let mut counts = Counts::default();
    let mut mix = OpMix::default();
    if !runner.is_lab() {
        let digests;
        (counts, mix, digests) = count_run(&runner.calls);
        tally.check(
            digests == tally.reference,
            "counting run's digests differ: telemetry is not inert",
        );
    }

    // Plain and traced repetitions, alternating.
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for rep_id in 0..TRACED_REPS {
        let mut rep = runner.rep(Recorder::Off, false);
        tally.absorb(&mut rep);
        plain.push(rep);
        runner.log.set_rep(Some(rep_id));
        let mut rep = runner.rep(Recorder::Trace, false);
        runner.log.set_rep(None);
        tally.absorb(&mut rep);
        recorded.push(rep);
    }
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // The body as the workload runs it: recorded on `recorded`, plain
    // everywhere else.
    let native = if runner.native() == Recorder::Off { &plain } else { &recorded };
    let run_s = med(native, |r| r.run_s);
    let events = if runner.is_lab() { 0 } else { warm.work };

    let raw = run_drives(runner, &mut layers);

    layers.set("sim.engine.events", events as f64);
    layers.set("sim.link.pkts_enqueued", counts.pkts_enqueued as f64);
    layers.set("sim.link.pkts_delivered", counts.pkts_delivered as f64);
    layers.set("sim.link.pkts_dropped", counts.pkts_dropped as f64);
    layers.set(
        "sim.queue.drop_share",
        counts.queue_drops as f64 / counts.pkts_enqueued.max(1) as f64,
    );
    layers.set("sim.outcome.mar_p95_ms", warm.sim.mar_p95_ms);
    layers.set("sim.outcome.paper_rtt_err_pct", warm.sim.paper_rtt_err_pct);
    layers.set("sim.outcome.delivered_pct", warm.sim.delivered_pct);
    layers
        .set("transport.nic.routes", runner.calls.iter().map(Call::nic_routes).sum::<u64>() as f64);
    layers.set("core.fec.repairs", counts.fec_repairs as f64);
    layers.set("core.recovery.overhead_pct", warm.sim.overhead_pct);
    layers.set("core.degradation.sheds", counts.sheds as f64);
    layers.set("core.degradation.class_admits", counts.class_admits as f64);
    layers.set("flow.fluid.flow_starts", counts.flow_starts as f64);
    layers.set("flow.fluid.flow_finishes", counts.flow_finishes as f64);
    layers.set("flow.fluid.rate_updates", counts.rate_updates as f64);
    layers.set("flow.maxmin.recomputes", counts.recomputes as f64);
    layers.set("telemetry.recorder.events_recorded", med(&recorded, |r| r.events_recorded as f64));
    layers.set(
        "telemetry.recorder.tax_pct",
        (1.0 - med(&recorded, Rep::rate) / med(&plain, Rep::rate)) * 100.0,
    );
    layers.set(
        "span.trace_overhead_pct",
        (med(&recorded, |r| r.wall_s) / med(&plain, |r| r.wall_s) - 1.0) * 100.0,
    );
    // Per work item: simulator event, or lab trial on lab-sweep.
    let work = warm.work.max(1) as f64;
    layers.set("alloc.allocs_per_event", med(&plain, |r| r.allocs as f64) / work);
    layers.set("alloc.bytes_per_event", med(&plain, |r| r.alloc_bytes as f64) / work);

    if runner.is_lab() {
        let tn_s = med(&plain, |r| r.tn.map_or(0.0, |(s, _)| s));
        let tn_score =
            med(&plain, |r| r.tn.map_or(0.0, |(s, calib)| r.work as f64 / s / calib * 1e6));
        let lab = warm.lab.as_ref();
        layers.set("lab.runner.trials", warm.work as f64);
        layers.set("lab.runner.failures", lab.map_or(0.0, |l| l.failures as f64));
        layers.set("lab.runner.run_s_t1", run_s);
        layers.set("lab.runner.run_s_tn", tn_s);
        layers.set("lab.runner.parallel_eff", run_s / (runner.threads as f64 * tn_s));
        layers.set("lab.runner.trials_per_mcalop_tn", tn_score);
        layers.set(
            "lab.artifact.bytes",
            lab.map_or(0.0, |l| l.artifacts.iter().map(String::len).sum::<usize>() as f64),
        );
        layers.set("trainer.engine.evaluations", lab.map_or(0.0, |l| l.evaluations as f64));
    }

    // Span self times: medians over the traced repetitions. On lab-sweep a
    // repetition holds two passes, so halve to get per-pass figures.
    let per_pass = if runner.is_lab() { 0.5 } else { 1.0 };
    let span_s = |log: &SpanLog, name: &str| median(&log.self_time_per_rep(name)) * per_pass;
    let log = &runner.log;
    layers.set("span.build_s", span_s(log, "build"));
    layers.set(
        "span.run_s",
        span_s(log, "run") + span_s(log, "run_experiment") + span_s(log, "train"),
    );
    layers.set("span.collect_s", span_s(log, "collect") + span_s(log, "aggregate"));
    layers.set("span.encode_s", span_s(log, "encode") + span_s(log, "to_json"));
    layers.set("lab.agg.aggregate_s", span_s(log, "aggregate"));
    layers.set("lab.artifact.to_json_s", span_s(log, "to_json"));
    layers.set("lab.artifact.load_diff_s", span_s(log, "load_diff"));
    layers.set("lab.train.run_s", span_s(log, "train"));
    if runner.is_lab() {
        // No event counts to attribute: the residual is the share of a
        // pass spent simulating (trials and training) rather than in the
        // lab's own build, merge, serialization and diff stages.
        let simulating = span_s(log, "run_experiment") + span_s(log, "train");
        let stages = ["build", "aggregate", "to_json", "load_diff"];
        let own: f64 = stages.iter().map(|name| span_s(log, name)).sum();
        layers.set("share.residual_actor", simulating / (simulating + own));
    } else {
        set_shares(runner, &mut layers, &raw, &counts, mix, events, run_s);
    }

    // Write the span log once, read it back and check it: the last of the
    // untimed checks `span.verify_s` adds up.
    let verify = Instant::now();
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, runner.log.to_json()));
    let reread = std::fs::read_to_string(out).ok();
    let parsed = reread.and_then(|text| serde_json::from_str::<Value>(&text).ok());
    tally.check(
        written.is_ok()
            && parsed.and_then(|v| v.as_array().map(<[_]>::len)) == Some(log.spans().len()),
        "span log did not round-trip through --out",
    );
    layers.set("span.verify_s", warm.verify_s + verify.elapsed().as_secs_f64());

    let calib: Vec<f64> = plain.iter().map(|r| r.calib / 1e6).collect();
    layers.set("host.events_per_s_med", med(&plain, Rep::rate));
    layers.set("host.events_per_s_best", plain.iter().map(Rep::rate).fold(0.0, f64::max));
    layers.set("host.calib_mops_med", median(&calib));
    layers.set("host.rep_wall_s_med", med(&plain, |r| r.wall_s));
    layers.set("host.reps", plain.len() as f64);
    layers.set("host.threads", runner.threads as f64);
    layers.set("host.traced_reps", recorded.len() as f64);

    let values = PER_LAYER.iter().map(|m| (m.name, layers.get(m.name))).collect();
    (tally, values)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(tally: &Tally, values: &[(&'static str, f64)]) -> String {
    let metrics = values
        .iter()
        .map(|&(name, value)| {
            let entry = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::String(unit_of(name).to_string())),
            ];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(tally.failed == 0)),
        ("attempted".to_string(), Value::UInt(tally.attempted)),
        ("failed".to_string(), Value::UInt(tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).expect("plain values serialize")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            for w in WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Load is one process and at most n = min(nproc, 4) threads.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut runner = Runner {
        name: args.workload,
        seed: args.seed,
        threads,
        traced: args.trace,
        calls: body(args.workload, args.seed).unwrap_or_default(),
        kernel: Kernel::new(),
        log: SpanLog::new(),
    };
    let (tally, values) = if args.trace {
        traced(&mut runner, &args.out)
    } else {
        untraced(&mut runner, args.seconds)
    };
    println!("workload {}  seed {}  threads {}", args.workload, args.seed, threads);
    for &(name, value) in &values {
        println!("  {name:<40} {value:>18.6} {}", unit_of(name));
    }
    println!("{}", result_json(&tally, &values));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
