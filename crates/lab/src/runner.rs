//! The parallel replicate executor.
//!
//! [`run_experiment`] expands a [`ScenarioSpec`] into `points × replicates`
//! trials and runs them on a scoped thread pool: workers claim trial
//! indices from an atomic counter, run the trial under `catch_unwind` (a
//! panicking replicate becomes a recorded failure, not a lost run), and
//! deposit results tagged with their index. After the scope joins, results
//! are placed into per-point slots and merged **in fixed index order**, so
//! the output — and any artifact serialized from it — is bit-identical at
//! any thread count.
//!
//! Seed rule: trial `(point p, replicate r)` of a spec with base seed `s`
//! and spec-hash `h` draws from the ChaCha12 substream
//! `derive_rng(s, "lab/{h:016x}/{p}/{r}")` — replicates are independent,
//! and editing the spec (which changes `h`) reseeds everything.
//!
//! The caller's ambient tie-break policy
//! ([`marnet_sim::config::with_ambient_tie_break`]) is thread-local, so the
//! runner carries it across the thread boundary: every trial runs under
//! the policy that was ambient where [`run_experiment`] was called. A
//! perturbed replay of a whole experiment is therefore
//! `with_ambient_tie_break(policy, || run_experiment(..))`.

use crate::spec::{GridPoint, ScenarioSpec};
use marnet_sim::config::{ambient_tie_break, with_ambient_tie_break};
use marnet_telemetry::{MetricsSnapshot, TelemetryCapture, TraceEvent};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What one trial hands back: named scalar metrics plus named sample
/// streams (e.g. per-probe latencies) for histogram merging.
#[derive(Debug, Clone, Default)]
pub struct TrialReport {
    /// One value per metric per replicate (means, percentages, counts).
    pub scalars: BTreeMap<String, f64>,
    /// Raw per-trial samples, pooled across replicates by the aggregator.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Flight-recorder events of this trial (empty unless tracing was on;
    /// the lab concatenates them in `(point, replicate)` order).
    pub events: Vec<TraceEvent>,
    /// Metrics snapshot of this trial, when metrics capture was on.
    pub metrics: Option<MetricsSnapshot>,
}

impl TrialReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a scalar metric. A non-finite value records nothing: a
    /// metric that does not exist for this trial is absent from the
    /// report (and from the point's `count` of replicates reporting it),
    /// never a NaN that would poison the cross-replicate mean and that the
    /// artifact's JSON cannot carry.
    pub fn scalar(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        if value.is_finite() {
            self.scalars.insert(key.into(), value);
        }
        self
    }

    /// Records a scalar metric that may not exist for this trial (the
    /// percentile of an empty histogram): `None` records nothing.
    pub fn scalar_opt(&mut self, key: impl Into<String>, value: Option<f64>) -> &mut Self {
        if let Some(value) = value {
            self.scalar(key, value);
        }
        self
    }

    /// Records a sample stream.
    pub fn samples(&mut self, key: impl Into<String>, values: Vec<f64>) -> &mut Self {
        self.samples.insert(key.into(), values);
        self
    }

    /// Attaches what an instrumented scenario run captured.
    pub fn capture(&mut self, capture: TelemetryCapture) -> &mut Self {
        self.events = capture.events;
        self.metrics = capture.metrics;
        self
    }
}

/// Identity and seed material handed to each trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Grid point being evaluated.
    pub point_index: usize,
    /// Replicate number within the point, `0..replicates`.
    pub replicate: u32,
    /// The trial's private 64-bit seed (already point- and
    /// replicate-specific); feed it to `Simulator::new` or equivalents.
    pub seed: u64,
}

impl TrialCtx {
    /// The trial's ChaCha12 substream, for trials that want an RNG rather
    /// than a seed.
    pub fn rng(&self) -> ChaCha12Rng {
        marnet_sim::rng::derive_rng(self.seed, "lab.trial")
    }
}

/// A replicate that panicked instead of reporting.
#[derive(Debug, Clone)]
pub struct TrialFailure {
    /// Grid point of the failed trial.
    pub point_index: usize,
    /// Replicate number of the failed trial.
    pub replicate: u32,
    /// The panic payload, stringified.
    pub message: String,
}

/// The outcome of [`run_experiment`]: the expanded grid and, per point,
/// the replicate reports in replicate order (`None` where one failed).
#[derive(Debug)]
pub struct ExperimentRun {
    /// The spec that was run.
    pub spec: ScenarioSpec,
    /// Its [`ScenarioSpec::spec_hash`], for provenance.
    pub spec_hash: u64,
    /// Expanded grid, `points[i].index == i`.
    pub points: Vec<GridPoint>,
    /// `reports[point][replicate]`, `None` for failed replicates.
    pub reports: Vec<Vec<Option<TrialReport>>>,
    /// Every failure, in (point, replicate) order.
    pub failures: Vec<TrialFailure>,
}

impl ExperimentRun {
    /// All recorded trace events concatenated in `(point, replicate)` order
    /// — the same deterministic order the results merge in, so the
    /// concatenation is byte-identical at any thread count.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.reports
            .iter()
            .flat_map(|point| point.iter())
            .filter_map(Option::as_ref)
            .flat_map(|r| r.events.iter().copied())
            .collect()
    }
}

/// The deterministic per-trial seed: base seed folded with the spec hash,
/// point index and replicate index through the library's labelled-stream
/// rule.
pub fn trial_seed(base_seed: u64, spec_hash: u64, point_index: usize, replicate: u32) -> u64 {
    use rand::Rng;
    let label = format!("lab/{spec_hash:016x}/{point_index}/{replicate}");
    marnet_sim::rng::derive_rng(base_seed, &label).gen()
}

/// Runs every trial of `spec` on up to `threads` worker threads and merges
/// the results in fixed order.
///
/// `trial` must be pure given its `(GridPoint, TrialCtx)` inputs — it runs
/// concurrently on many threads and its outputs are expected to be
/// reproducible. A panicking trial is caught and recorded in
/// [`ExperimentRun::failures`].
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_experiment<F>(spec: &ScenarioSpec, threads: usize, trial: F) -> ExperimentRun
where
    F: Fn(&GridPoint, &TrialCtx) -> TrialReport + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let spec_hash = spec.spec_hash();
    let points = spec.expand_grid();
    let replicates = spec.replicates as usize;
    let total = points.len() * replicates;

    // Workers claim job indices from `next` and deposit `(index, result)`;
    // placement below restores deterministic order.
    type Deposit = (usize, Result<TrialReport, String>);
    let next = AtomicUsize::new(0);
    let deposited: Mutex<Vec<Deposit>> = Mutex::new(Vec::with_capacity(total));
    let workers = threads.min(total.max(1));
    let tie_break = ambient_tie_break();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= total {
                    break;
                }
                let point = &points[job / replicates];
                let ctx = TrialCtx {
                    point_index: point.index,
                    replicate: (job % replicates) as u32,
                    seed: trial_seed(spec.seed, spec_hash, point.index, (job % replicates) as u32),
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    with_ambient_tie_break(tie_break, || trial(point, &ctx))
                }))
                .map_err(|payload| panic_message(payload.as_ref()));
                deposited.lock().expect("deposit lock").push((job, outcome));
            });
        }
    });

    // Fixed merge order: sort by job index, then place into slots.
    let mut deposited = deposited.into_inner().expect("deposit lock");
    deposited.sort_by_key(|(job, _)| *job);
    let mut reports: Vec<Vec<Option<TrialReport>>> =
        (0..points.len()).map(|_| vec![None; replicates]).collect();
    let mut failures = Vec::new();
    for (job, outcome) in deposited {
        let point_index = job / replicates;
        let replicate = (job % replicates) as u32;
        match outcome {
            Ok(report) => reports[point_index][replicate as usize] = Some(report),
            Err(message) => failures.push(TrialFailure { point_index, replicate, message }),
        }
    }

    ExperimentRun { spec: spec.clone(), spec_hash, points, reports, failures }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ParamValue, ScenarioSpec};

    fn demo_spec(replicates: u32) -> ScenarioSpec {
        ScenarioSpec::new("runner-demo", 99, replicates)
            .with_axis("x", vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)])
    }

    fn demo_trial(point: &GridPoint, ctx: &TrialCtx) -> TrialReport {
        use rand::Rng;
        let mut rng = ctx.rng();
        let x = point.param("x").as_int().unwrap() as f64;
        let mut report = TrialReport::new();
        report.scalar("noisy_x", x + rng.gen_range(-0.1..0.1));
        report.samples("draws", (0..8).map(|_| rng.gen_range(0.0..1.0)).collect());
        report
    }

    #[test]
    fn all_trials_run_and_land_in_order() {
        let spec = demo_spec(4);
        let run = run_experiment(&spec, 3, demo_trial);
        assert_eq!(run.points.len(), 3);
        assert!(run.failures.is_empty());
        for point in &run.reports {
            assert_eq!(point.len(), 4);
            assert!(point.iter().all(Option::is_some));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = demo_spec(6);
        let one = run_experiment(&spec, 1, demo_trial);
        let many = run_experiment(&spec, 8, demo_trial);
        for (a, b) in one.reports.iter().flatten().zip(many.reports.iter().flatten()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.scalars, b.scalars);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn replicates_are_independent_substreams() {
        let spec = demo_spec(3);
        let run = run_experiment(&spec, 2, demo_trial);
        let p0 = &run.reports[0];
        let a = p0[0].as_ref().unwrap().scalars["noisy_x"];
        let b = p0[1].as_ref().unwrap().scalars["noisy_x"];
        assert_ne!(a, b, "replicates must not repeat the same stream");
        // Different points also differ.
        let c = run.reports[1][0].as_ref().unwrap().scalars["noisy_x"];
        assert_ne!(a, c);
    }

    #[test]
    fn panicking_trials_become_failures() {
        let spec = demo_spec(2);
        let run = run_experiment(&spec, 4, |point, ctx| {
            if point.index == 1 && ctx.replicate == 0 {
                panic!("boom at point 1");
            }
            demo_trial(point, ctx)
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].point_index, 1);
        assert_eq!(run.failures[0].replicate, 0);
        assert!(run.failures[0].message.contains("boom"));
        assert!(run.reports[1][0].is_none());
        assert!(run.reports[1][1].is_some());
    }

    #[test]
    fn the_callers_tie_break_policy_reaches_every_trial() {
        use marnet_sim::config::TieBreak;
        let spec = demo_spec(4);
        for threads in [1, 4] {
            let run = with_ambient_tie_break(TieBreak::Lifo, || {
                run_experiment(&spec, threads, |_, _| {
                    let mut report = TrialReport::new();
                    report.scalar("lifo", f64::from(ambient_tie_break() == TieBreak::Lifo));
                    report
                })
            });
            let trials: Vec<_> = run.reports.iter().flatten().flatten().collect();
            assert_eq!(trials.len(), 12);
            assert!(trials.iter().all(|r| r.scalars["lifo"] == 1.0), "threads {threads}");
            assert_eq!(ambient_tie_break(), TieBreak::Fifo, "restored on the caller");
        }
    }
}
