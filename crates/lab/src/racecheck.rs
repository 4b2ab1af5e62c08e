//! `marnet-lab racecheck` — the schedule-perturbation race detector.
//!
//! Every headline claim in this repro rests on the engine's determinism
//! invariant, and the most insidious way to break it silently is code
//! whose *results* depend on the FIFO tie-break of equal-timestamp events.
//! That dependence is invisible to normal determinism tests (rerunning the
//! same binary replays the same tie order), so this module perturbs the
//! order instead: it replays every experiment of the registry
//! ([`experiments::NAMES`]) plus the smoke training run under every
//! [`TieBreak`] policy — `Fifo` (the reference), `Lifo`, and two seeded
//! deterministic shuffles — and compares the resulting artifacts **byte
//! for byte**, one target at a time.
//!
//! The perturbation mechanism is the ambient tie-break scope
//! ([`with_ambient_tie_break`]): scenario runners construct their
//! simulators internally via `Simulator::new(seed)`, and the lab runner
//! carries the caller's policy into its workers, so a perturbed replay is
//! the ordinary run inside a scope. The spec is *identical* across
//! policies (the policy is never written into it), so the spec hash — and,
//! for tie-order-independent code, every artifact byte — matches the
//! reference exactly.
//!
//! On a mismatch the detector localizes the fault: it names the first
//! differing artifact line, the first trial whose results moved and the
//! scalars that moved in it, and — experiments are replayed with the
//! flight recorder on — expands that trial's two traces and passes them
//! through [`marnet_telemetry::first_divergence`], the comparison
//! `marnet-trace diff` uses, to name the first event where the schedules
//! split (indices count expanded records, as `marnet-trace` does).
//!
//! [`TIE_DEPENDENT`] lists the targets whose committed numbers are known
//! to depend on tie order today. They are replayed and localized like the
//! rest; only a divergence on a target *not* on the list (or a failed
//! trial) fails the gate. The list may only shrink: a test holds that
//! every entry still diverges, so fixing a race means deleting its name.
//! Exit codes follow the workspace convention: 0 no unlisted divergence,
//! 1 divergence, 2 usage error.
//!
//! What a clean target proves — and doesn't: tie-order independence at
//! every published grid point, for the tie populations the replayed seeds
//! produce. It is evidence, not a proof over all schedules; see DESIGN §15.

use crate::agg::PointSummary;
use crate::artifact::Artifact;
use crate::experiments::{self, Experiment};
use crate::runner::{run_experiment, ExperimentRun, TrialCtx, TrialReport};
use crate::spec::{GridPoint, ScenarioSpec};
use crate::train::{run_training, TrainOptions};
use marnet_sim::config::{with_ambient_tie_break, TieBreak};
use marnet_sim::prelude::*;
use marnet_sim::rng::derive_rng;
use marnet_telemetry::{expand, first_divergence, TelemetryOptions, DEFAULT_TRACE_CAPACITY};
use rand::Rng;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// The target name of the smoke training run (`train --smoke`, the spec
/// behind `results/lab_train_smoke.json`).
pub(crate) const TRAIN_TARGET: &str = "train_smoke";

/// Targets whose artifact moves under a perturbed tie-break policy today
/// (ROADMAP item 1b: each is a same-instant race to fix with a phase rule
/// or a model-level tie key). An entry leaves this list in the PR that
/// fixes its race; none may be added.
pub const TIE_DEPENDENT: [&str; 7] = [
    "fig2_anomaly",
    "fig5_distribution",
    "sweep_queueing",
    "sweep_fairness",
    "sweep_faults",
    "sweep_variance",
    TRAIN_TARGET,
];

/// Resolved options of one racecheck run.
#[derive(Debug, Clone)]
pub struct RacecheckOptions {
    /// Targets to replay, by name; empty means every experiment of the
    /// registry plus the smoke training run.
    pub targets: Vec<String>,
    /// Base seed: trial seeds and the two `Seeded` shuffle keys derive
    /// from it.
    pub seed: u64,
    /// Replicates per grid point (each replicate is a distinct simulation
    /// seed, i.e. a distinct tie population). The training run keeps its
    /// own smoke budget.
    pub replicates: u32,
    /// Worker threads for the trial fan-out; the verdict and every line
    /// of the report are independent of this.
    pub threads: usize,
    /// Replay the intentionally tie-order-dependent demo scenario instead
    /// — a self-test that must exit 1.
    pub demo: bool,
}

impl Default for RacecheckOptions {
    fn default() -> Self {
        RacecheckOptions { targets: Vec::new(), seed: 42, replicates: 1, threads: 1, demo: false }
    }
}

/// The four policies a racecheck run compares, reference first. The two
/// shuffle keys derive from the base seed, so the whole run is a pure
/// function of the options.
pub fn policies(seed: u64) -> Vec<TieBreak> {
    let mut out = vec![TieBreak::Fifo, TieBreak::Lifo];
    for i in 0..2u32 {
        out.push(TieBreak::Seeded(derive_rng(seed, &format!("racecheck/seeded/{i}")).gen()));
    }
    out
}

/// Something racecheck can replay under a policy.
enum Target {
    /// A lab experiment, built with the flight recorder on.
    Lab(Experiment),
    /// The training run at these options.
    Train(TrainOptions),
}

/// Resolves a target name, or `None` for an unknown one.
fn target(name: &str, opts: &RacecheckOptions) -> Option<Target> {
    if name == TRAIN_TARGET {
        let (seed, threads) = (opts.seed, opts.threads);
        return Some(Target::Train(TrainOptions { seed, threads, ..TrainOptions::smoke() }));
    }
    let traced = TelemetryOptions { trace_capacity: Some(DEFAULT_TRACE_CAPACITY), metrics: false };
    experiments::build(name, opts.replicates, opts.seed, &traced).map(Target::Lab)
}

/// What one replay of a target under one policy produced.
struct Replay {
    /// The serialized artifact — the comparison gate.
    json: String,
    /// The run behind it, for localization (`None` for the training run,
    /// whose trials live inside the search).
    run: Option<ExperimentRun>,
}

/// Replays `target` with every simulator it builds under `policy`.
fn replay(target: &Target, policy: TieBreak, threads: usize) -> Replay {
    with_ambient_tie_break(policy, || match target {
        Target::Lab(exp) => {
            let run = run_experiment(&exp.spec, threads, |point, ctx| (exp.trial)(point, ctx));
            Replay { json: Artifact::from_run(&run).to_json(), run: Some(run) }
        }
        Target::Train(opts) => Replay { json: run_training(opts).1.to_json(), run: None },
    })
}

/// The panicked trials of a replay, one line each. (A training trial that
/// panics aborts the search — `run_training` asserts on it — so that
/// target has no failure list to carry.)
fn failures(replay: &Replay, policy: TieBreak) -> impl Iterator<Item = String> + '_ {
    replay.run.iter().flat_map(|run| &run.failures).map(move |f| {
        let (policy, point, replicate) = (policy.label(), f.point_index, f.replicate);
        format!("under {policy}: point {point} replicate {replicate}: {}", f.message)
    })
}

/// The first line at which two texts differ: its 1-based number and the
/// line on either side (`<eof>` where one text ended), or `None` when
/// they are equal.
pub(crate) fn first_differing_line<'a>(
    a: &'a str,
    b: &'a str,
) -> Option<(usize, &'a str, &'a str)> {
    if a == b {
        return None;
    }
    let (mut a_lines, mut b_lines) = (a.lines(), b.lines());
    let mut number = 1;
    loop {
        match (a_lines.next(), b_lines.next()) {
            (Some(x), Some(y)) if x == y => number += 1,
            (x, y) => return Some((number, x.unwrap_or("<eof>"), y.unwrap_or("<eof>"))),
        }
    }
}

/// Renders where `candidate` left the `reference`: the first differing
/// artifact line, the first trial whose results moved with its moved
/// scalars, and the first diverging event of that trial's trace.
fn localize(reference: &Replay, candidate: &Replay, labels: (&str, &str)) -> String {
    let mut out = String::new();
    if let Some((number, a, b)) = first_differing_line(&reference.json, &candidate.json) {
        let _ = writeln!(out, "first differing artifact line ({number}):");
        let _ = writeln!(out, "  {}: {}", labels.0, a.trim_start());
        let _ = writeln!(out, "  {}: {}", labels.1, b.trim_start());
    }
    let (Some(r_run), Some(c_run)) = (&reference.run, &candidate.run) else { return out };
    // Which trial's *results* moved. Trace order alone is not evidence:
    // the perturbation legitimately reorders equal-time events (and with
    // them packet-id allocation), so most trials' traces differ even when
    // every scalar matches. Scalars and samples are the semantic gate.
    let trials = r_run.points.iter().zip(&r_run.reports).zip(&c_run.reports).flat_map(
        |((point, r_reps), c_reps)| {
            r_reps.iter().zip(c_reps).enumerate().map(move |(i, (r, c))| (point, i, r, c))
        },
    );
    for (point, replicate, r, c) in trials {
        let (Some(r), Some(c)) = (r, c) else { continue };
        if r.scalars == c.scalars && r.samples == c.samples {
            continue;
        }
        let params: Vec<String> = point.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "first divergent trial: point {} ({}) replicate {replicate}",
            point.index,
            params.join(" ")
        );
        for (key, rv) in &r.scalars {
            let cv = c.scalars.get(key);
            if cv != Some(rv) {
                let cv = cv.map_or("<missing>".to_string(), f64::to_string);
                let _ = writeln!(out, "  scalar {key}: {rv} -> {cv}");
            }
        }
        for key in r.samples.keys().filter(|&k| r.samples.get(k) != c.samples.get(k)) {
            let _ = writeln!(out, "  sample stream {key} differs");
        }
        let diff = first_divergence(&expand(&r.events), &expand(&c.events));
        if !diff.is_identical() {
            out.push_str(&diff.render(labels.0, labels.1));
        }
        break;
    }
    out
}

/// One target's verdict over all perturbed policies.
struct TargetVerdict {
    /// Perturbed policies under which the artifact left the reference.
    moved_under: Vec<TieBreak>,
    /// Failed trials under any policy, reference included.
    failures: Vec<String>,
    /// Localization of the first policy that moved it (empty when none).
    localization: String,
}

/// Replays one target under the reference and every perturbed policy,
/// keeping only the reference run and the one being compared alive.
fn check_target(target: &Target, policies: &[TieBreak], threads: usize) -> TargetVerdict {
    let reference = replay(target, policies[0], threads);
    let mut verdict = TargetVerdict {
        moved_under: Vec::new(),
        failures: failures(&reference, policies[0]).collect(),
        localization: String::new(),
    };
    for &policy in &policies[1..] {
        let candidate = replay(target, policy, threads);
        verdict.failures.extend(failures(&candidate, policy));
        if candidate.json != reference.json {
            if verdict.moved_under.is_empty() {
                verdict.localization =
                    localize(&reference, &candidate, (&policies[0].label(), &policy.label()));
            }
            verdict.moved_under.push(policy);
        }
    }
    verdict
}

/// Runs the race check: each target under every policy, each perturbed
/// replay byte-compared against the FIFO reference. `Ok(true)` when no
/// trial failed and every target that moved is on [`TIE_DEPENDENT`],
/// `Ok(false)` otherwise, `Err` for an unknown target name. Output and
/// verdict are pure functions of `opts` (thread count excluded).
pub fn run_racecheck(opts: &RacecheckOptions) -> Result<bool, String> {
    let targets: Vec<(&str, Target)> = if opts.demo {
        vec![("demo", demo_target(opts))]
    } else {
        let all = experiments::NAMES.into_iter().chain([TRAIN_TARGET]);
        let named = opts.targets.iter().map(String::as_str);
        let names: Vec<&str> =
            if opts.targets.is_empty() { all.collect() } else { named.collect() };
        names
            .into_iter()
            .map(|name| match target(name, opts) {
                Some(target) => Ok((name, target)),
                None => Err(format!("unknown racecheck target {name:?}")),
            })
            .collect::<Result<_, String>>()?
    };

    let policies = policies(opts.seed);
    let labels: Vec<String> = policies.iter().map(|p| p.label()).collect();
    println!(
        "[racecheck] {} target(s) under {} policies ({}), {} replicate(s), seed {}",
        targets.len(),
        policies.len(),
        labels.join(", "),
        opts.replicates,
        opts.seed,
    );

    let (mut independent, mut listed, mut unlisted) = (0, Vec::new(), Vec::new());
    for (name, target) in &targets {
        let verdict = check_target(target, &policies, opts.threads);
        let on_list = TIE_DEPENDENT.contains(name);
        if !verdict.failures.is_empty() {
            println!("[racecheck] {name}: {} trial(s) FAILED", verdict.failures.len());
            for f in &verdict.failures {
                println!("  {f}");
            }
            unlisted.push(*name);
        } else if verdict.moved_under.is_empty() {
            println!(
                "[racecheck] {name}: byte-identical{}",
                if on_list {
                    " — on TIE_DEPENDENT, but did not move at these options"
                } else {
                    ""
                },
            );
            independent += 1;
        } else {
            let moved: Vec<String> = verdict.moved_under.iter().map(|p| p.label()).collect();
            println!(
                "[racecheck] {name}: {} under {}",
                if on_list { "tie-dependent (on TIE_DEPENDENT)" } else { "DIVERGENCE" },
                moved.join(", "),
            );
            for line in verdict.localization.lines() {
                println!("  {line}");
            }
            if on_list { &mut listed } else { &mut unlisted }.push(*name);
        }
    }
    println!(
        "[racecheck] verdict: {independent} of {} target(s) tie-order independent, \
         {} known tie-dependent{}",
        targets.len(),
        listed.len(),
        if unlisted.is_empty() {
            String::new()
        } else {
            format!(", DIVERGENT and not on TIE_DEPENDENT: {}", unlisted.join(", "))
        },
    );
    Ok(unlisted.is_empty())
}

/// The demo target: a deliberately tie-order-dependent scenario proving
/// the detector detects. Two equal-size packets leave on two identical
/// parallel links at t = 0 and arrive in the same instant; the recorded
/// scalar is the id of whichever arrives first — a pure function of the
/// tie-break policy, so the artifacts *must* diverge and racecheck must
/// exit 1.
fn demo_target(opts: &RacecheckOptions) -> Target {
    struct Src {
        a: LinkId,
        b: LinkId,
    }
    impl Actor for Src {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start) {
                let now = ctx.now();
                let first = Packet::new(ctx.next_packet_id(), 1, 600, now);
                let second = Packet::new(ctx.next_packet_id(), 1, 600, now);
                ctx.transmit(self.a, first);
                ctx.transmit(self.b, second);
            }
        }
    }
    struct Dst {
        order: Rc<RefCell<Vec<u64>>>,
    }
    impl Actor for Dst {
        fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
            if let Event::Packet { packet, .. } = ev {
                self.order.borrow_mut().push(packet.id);
            }
        }
    }

    fn trial(_point: &GridPoint, ctx: &TrialCtx) -> TrialReport {
        let mut sim = Simulator::new(ctx.seed);
        sim.enable_flight_recorder(DEFAULT_TRACE_CAPACITY);
        let src = sim.reserve_actor();
        let dst = sim.reserve_actor();
        let params = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5));
        let a = sim.add_link(src, dst, params.clone());
        let b = sim.add_link(src, dst, params);
        let order = Rc::new(RefCell::new(Vec::new()));
        sim.install_actor(src, Src { a, b });
        sim.install_actor(dst, Dst { order: Rc::clone(&order) });
        sim.run_until(SimTime::from_millis(20));

        let first = order.borrow().first().copied().unwrap_or(u64::MAX) as f64;
        let mut report = TrialReport::new();
        report.scalar("first_arrival", first);
        report.events = sim.take_trace();
        report
    }

    fn render(_points: &[PointSummary]) {}

    Target::Lab(Experiment {
        spec: ScenarioSpec::new("demo", opts.seed, opts.replicates),
        trial: Box::new(trial),
        render,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_differing_line_names_the_line_and_both_sides() {
        assert_eq!(first_differing_line("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_differing_line("a\nb\nc", "a\nx\nc"), Some((2, "b", "x")));
        assert_eq!(first_differing_line("a\nb", "a"), Some((2, "b", "<eof>")));
        assert_eq!(first_differing_line("a", "a\nb"), Some((2, "<eof>", "b")));
    }

    /// The list only shrinks: at most the seven names it started with,
    /// each a real target, and each still moving at the gate's default
    /// options — a fixed race that leaves its name behind fails here, as
    /// a stale pragma fails the lint.
    #[test]
    fn tie_dependent_list_only_shrinks_and_every_entry_still_diverges() {
        assert!(TIE_DEPENDENT.len() <= 7, "TIE_DEPENDENT may only shrink");
        let opts = RacecheckOptions::default();
        let policies = policies(opts.seed);
        for name in TIE_DEPENDENT {
            let target = target(name, &opts).unwrap_or_else(|| panic!("{name} is not a target"));
            let verdict = check_target(&target, &policies, 2);
            assert!(verdict.failures.is_empty(), "{name}: {:?}", verdict.failures);
            assert!(
                !verdict.moved_under.is_empty(),
                "{name} no longer depends on tie order: delete it from TIE_DEPENDENT"
            );
            assert!(verdict.localization.contains("first differing artifact line"), "{name}");
        }
    }
}
