//! One repetition of a workload body, measured from outside.
//!
//! A repetition is bracketed by two runs of the calibration kernel; its
//! score is `work ÷ timed seconds ÷ mean calibration rate`. The timed
//! region is the calls into the program only: collecting statistics and
//! checking outputs happen between calls, outside it. Load is closed-loop
//! and in-process: the next call starts when the previous one returned,
//! nothing touches a socket or the disk.

use crate::alloc;
use crate::calib::Kernel;
use crate::span::SpanLog;
use crate::surface::{
    lab_golden_mismatches, lab_pass, paper_rtt_err_pct, run_call, Counts, LabPass, Recorder, Trace,
};
use crate::workloads::{Call, Outcome, LAB_SWEEPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up samples taken per repetition.
const SETUP_SAMPLES: usize = 3;

/// Simulated statistics of one body, means over its calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Units in the 75 ms budget, % of offered.
    pub in_budget_pct: f64,
    /// Units delivered, % of offered.
    pub delivered_pct: f64,
    /// Largest p95 one-way MAR latency of a call, 0 if none reports one.
    pub mar_p95_ms: f64,
    /// Largest relative error of a median RTT against Table II, 0 if none.
    pub paper_rtt_err_pct: f64,
    /// Mean byte overhead of the recovery calls, 0 if none.
    pub overhead_pct: f64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Simulator events, or lab trials of one pass.
    pub work: u64,
    /// Seconds inside the program (at `threads=1` on `lab-sweep`).
    pub run_s: f64,
    /// Mean rate of the bracketing calibration runs, ops/s.
    pub calib: f64,
    /// `lab-sweep` only: seconds and calibration rate of the `threads=n`
    /// pass.
    pub tn: Option<(f64, f64)>,
    /// Seconds of the whole repetition, calibration excluded.
    pub wall_s: f64,
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Largest heap growth of one call (of the `threads=1` pass on
    /// `lab-sweep`), bytes.
    pub peak_bytes: u64,
    /// Allocator calls inside the timed region.
    pub allocs: u64,
    /// Bytes requested inside the timed region.
    pub alloc_bytes: u64,
    /// One digest per operation, for comparison against the warm-up's.
    pub digests: Vec<u64>,
    /// Operations attempted: scenario calls, or lab trials.
    pub attempted: u64,
    /// Operations that panicked, failed in the runner, or broke a check.
    pub failed: u64,
    /// Simulated statistics.
    pub sim: SimStats,
    /// Trace events recorded by the program during the repetition.
    pub events_recorded: u64,
    /// Seconds spent in the untimed one-off checks.
    pub verify_s: f64,
    /// `lab-sweep` only: the `threads=1` pass.
    pub lab: Option<LabPass>,
}

impl Rep {
    /// Work per 10⁶ calibration ops.
    pub fn score(&self) -> f64 {
        self.work as f64 / self.run_s / self.calib * 1e6
    }

    /// Work per second, uncalibrated.
    pub fn rate(&self) -> f64 {
        self.work as f64 / self.run_s
    }

    /// Counts one failed operation for every digest that differs from the
    /// reference repetition's (or is missing).
    pub fn fail_on_mismatch(&mut self, reference: &[u64]) {
        let differing = self.digests.iter().zip(reference).filter(|(a, b)| a != b).count()
            + self.digests.len().abs_diff(reference.len());
        self.failed += differing as u64;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn sim_stats(outcomes: &[Outcome]) -> SimStats {
    let n = outcomes.len().max(1) as f64;
    let mean = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    let overheads: Vec<f64> = outcomes.iter().filter_map(|o| o.overhead_pct).collect();
    SimStats {
        in_budget_pct: mean(|o| o.in_budget_pct),
        delivered_pct: mean(|o| o.delivered_pct),
        mar_p95_ms: outcomes.iter().filter_map(|o| o.mar_p95_ms).fold(0.0, f64::max),
        paper_rtt_err_pct: paper_rtt_err_pct(
            outcomes.iter().filter_map(|o| o.rtt_median_and_paper_ms),
        ),
        overhead_pct: overheads.iter().fold(0.0, |a, b| a + b) / overheads.len().max(1) as f64,
    }
}

/// Seconds the body's calls spend before virtual time 0.
fn setup_sample(calls: &[Call], recorder: Recorder, log: &mut SpanLog) -> f64 {
    let started = Instant::now();
    log.scope("build", || {
        for call in calls {
            std::hint::black_box(run_call(&call.at_horizon_zero(), recorder).events());
        }
    });
    started.elapsed().as_secs_f64()
}

/// How a simulator body is run.
#[derive(Debug, Clone, Copy)]
pub struct SimMode {
    /// The program's telemetry during the calls.
    pub recorder: Recorder,
    /// Encode each call's trace in memory inside the timed region (the
    /// `recorded` workload's write path).
    pub encode: bool,
    /// Decode every encoding again and compare (the read path; untimed).
    pub verify_roundtrip: bool,
}

/// Runs one repetition of a simulator workload's body.
pub fn sim_rep(calls: &[Call], mode: SimMode, kernel: &mut Kernel, log: &mut SpanLog) -> Rep {
    let mut rep = Rep { attempted: calls.len() as u64, ..Rep::default() };
    let mut outcomes = Vec::with_capacity(calls.len());
    let calib_before = kernel.ops_per_sec();
    let wall = Instant::now();
    let rep_span = log.open("rep");
    for call in calls {
        let base = alloc::reset_peak();
        let before = alloc::snapshot();
        let started = Instant::now();
        let ran =
            log.scope("run", || catch_unwind(AssertUnwindSafe(|| run_call(call, mode.recorder))));
        let Ok(mut ran) = ran else {
            rep.failed += 1;
            rep.digests.push(0);
            continue;
        };
        let trace = ran.take_trace();
        let encoded = mode.encode.then(|| log.scope("encode", || trace.encode()));
        rep.run_s += started.elapsed().as_secs_f64();
        let after = alloc::snapshot();
        rep.peak_bytes = rep.peak_bytes.max(alloc::peak_above(base));
        rep.allocs += after.allocs - before.allocs;
        rep.alloc_bytes += after.bytes - before.bytes;
        rep.events_recorded += trace.len() as u64;
        rep.work += ran.events();

        let mut ok = true;
        if let (true, Some(bytes)) = (mode.verify_roundtrip, &encoded) {
            let verifying = Instant::now();
            ok = log.scope("decode", || Trace::decode(bytes)).as_ref() == Some(&trace);
            rep.verify_s += verifying.elapsed().as_secs_f64();
        }
        drop((trace, encoded));
        match log.scope("collect", || catch_unwind(AssertUnwindSafe(|| ran.collect()))) {
            Ok(outcome) if ok && outcome.is_sane() => {
                rep.digests.push(outcome.digest());
                outcomes.push(outcome);
            }
            _ => {
                rep.failed += 1;
                rep.digests.push(0);
            }
        }
    }
    for _ in 0..SETUP_SAMPLES {
        rep.setup_s.push(setup_sample(calls, mode.recorder, log));
    }
    log.close(rep_span);
    rep.wall_s = wall.elapsed().as_secs_f64();
    rep.calib = (calib_before + kernel.ops_per_sec()) / 2.0;
    rep.sim = sim_stats(&outcomes);
    rep
}

/// Packets that went through the FEC and ARQ machinery, for sizing the
/// `core.*` drives' op mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Packets of calls whose mechanism runs FEC.
    pub fec_pkts: u64,
    /// Packets of calls whose mechanism retransmits.
    pub arq_pkts: u64,
}

/// The counting run: the body once with the flight recorder *and* the
/// metrics registry on. Returns the exact work counts, the FEC/ARQ packet
/// mix, and one digest per call — which must equal the unrecorded digests
/// (the recorder is inert).
pub fn count_run(calls: &[Call]) -> (Counts, OpMix, Vec<u64>) {
    let mut counts = Counts::default();
    let mut mix = OpMix::default();
    let digests = calls
        .iter()
        .map(|call| {
            let before = counts.pkts_enqueued;
            let digest = catch_unwind(AssertUnwindSafe(|| {
                let mut ran = run_call(call, Recorder::Full);
                ran.take_trace().tally_into(&mut counts);
                ran.count_into(&mut counts);
                ran.collect().digest()
            }))
            .unwrap_or(0);
            let pkts = counts.pkts_enqueued - before;
            mix.fec_pkts += if call.uses_fec() { pkts } else { 0 };
            mix.arq_pkts += if call.uses_arq() { pkts } else { 0 };
            digest
        })
        .collect();
    (counts, mix, digests)
}

/// Runs one repetition of `lab-sweep`: the lab pass at `threads=1` and,
/// when `threads_n` is given, again at that many threads (the gated score
/// comes from the first pass only, so untraced timed repetitions skip the
/// second). With `check_goldens` the committed reference artifacts
/// are reproduced and compared as well (untimed).
pub fn lab_rep(
    seed: u64,
    threads_n: Option<usize>,
    recorder: Recorder,
    check_goldens: bool,
    kernel: &mut Kernel,
    log: &mut SpanLog,
) -> Rep {
    let mut rep = Rep::default();
    let wall = Instant::now();
    let mut calib_s = 0.0;
    let rep_span = log.open("rep");
    let mut passes = Vec::with_capacity(2);
    for n in std::iter::once(1).chain(threads_n) {
        let calibrating = Instant::now();
        let calib_before = kernel.ops_per_sec();
        calib_s += calibrating.elapsed().as_secs_f64();
        let base = alloc::reset_peak();
        let before = alloc::snapshot();
        let started = Instant::now();
        let pass_span = log.open(if n == 1 { "pass_t1" } else { "pass_tn" });
        let pass = catch_unwind(AssertUnwindSafe(|| lab_pass(&LAB_SWEEPS, seed, n, recorder, log)));
        let run_s = started.elapsed().as_secs_f64();
        log.close(pass_span);
        let after = alloc::snapshot();
        let peak = alloc::peak_above(base);
        let calibrating = Instant::now();
        let calib = (calib_before + kernel.ops_per_sec()) / 2.0;
        calib_s += calibrating.elapsed().as_secs_f64();
        let Ok(pass) = pass else {
            rep.attempted += 1;
            rep.failed += 1;
            continue;
        };
        rep.attempted += pass.trials;
        // A drift against the committed baseline is a failed check.
        rep.failed += pass.failures + pass.drifts as u64;
        rep.setup_s.push(pass.build_s);
        if passes.is_empty() {
            (rep.run_s, rep.calib, rep.work) = (run_s, calib, pass.trials);
            (rep.peak_bytes, rep.allocs, rep.alloc_bytes) =
                (peak, after.allocs - before.allocs, after.bytes - before.bytes);
        } else {
            rep.tn = Some((run_s, calib));
        }
        passes.push(pass);
    }
    if let [t1, tn] = &passes[..] {
        // The determinism contract: same bytes at any thread count.
        if t1.artifacts != tn.artifacts {
            rep.failed += 1;
        }
    }
    if let Some(t1) = passes.into_iter().next() {
        rep.digests = t1.artifacts.iter().map(|a| fnv1a(a.as_bytes())).collect();
        rep.events_recorded = t1.events_recorded;
        rep.sim = SimStats {
            in_budget_pct: t1.in_budget_pct,
            paper_rtt_err_pct: t1.paper_rtt_err_pct,
            ..SimStats::default()
        };
        if check_goldens {
            let front = t1.artifacts.last().map_or("", String::as_str);
            let verifying = Instant::now();
            let bad = log.scope("verify", || lab_golden_mismatches(front));
            rep.verify_s = verifying.elapsed().as_secs_f64();
            for path in &bad {
                eprintln!("check failed: output differs from committed {path}");
            }
            rep.failed += bad.len() as u64;
        }
        rep.lab = Some(t1);
    }
    log.close(rep_span);
    rep.wall_s = wall.elapsed().as_secs_f64() - calib_s;
    rep
}
