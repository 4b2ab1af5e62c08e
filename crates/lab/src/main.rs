//! The `marnet-lab` CLI: replicated, parallel versions of the paper
//! experiments with confidence intervals and versioned artifacts.
//!
//! ```text
//! marnet-lab <experiment> [--replicates N] [--threads N] [--seed S]
//!                         [--out PATH] [--baseline PATH]
//!                         [--trace PATH] [--metrics]
//! marnet-lab train [--smoke] [...]
//! marnet-lab racecheck [NAME...] [--seed S] [--replicates N] [--threads N] [--demo]
//! marnet-lab check [--results DIR]
//! marnet-lab --list
//! ```
//!
//! The artifact is independent of `--threads`: the same spec and seed give
//! a byte-identical JSON file at any parallelism. `--trace` and
//! `--metrics` (both off by default) run the experiment instrumented:
//! `--trace PATH` writes every trial's flight-recorder events to a binary
//! trace file, concatenated in `(point, replicate)` order so the file too
//! is byte-identical at any thread count; `--metrics` merges each point's
//! replicate metric snapshots into a schema-v2 `metrics` artifact section.
//! Either flag on an experiment that runs no simulation (the closed-form
//! tables and sweeps) is a usage error: there is nothing to capture.
//!
//! Exit codes follow the workspace convention shared by `marnet-trace`
//! and `marnet-lint`: 0 ok, 1 findings (baseline drift or failed
//! trials), 2 usage or I/O error.

use marnet_lab::artifact::Artifact;
use marnet_lab::experiments;
use marnet_lab::runner::run_experiment;
use marnet_lab::train;
use marnet_telemetry::{file as trace_file, TelemetryOptions, DEFAULT_TRACE_CAPACITY};
use std::path::PathBuf;
use std::process::ExitCode;

/// One subcommand's argument cursor: the flag loops of the experiment
/// runner, `train`, `racecheck` and `check` differ only in their `match`.
struct Flags<'a> {
    argv: std::slice::Iter<'a, String>,
    usage: fn() -> String,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], usage: fn() -> String) -> Self {
        Flags { argv: args.iter(), usage }
    }

    /// The next argument; `--help` prints the usage and exits 0.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.argv.next()?.as_str();
        if matches!(arg, "--help" | "-h") {
            println!("{}", (self.usage)());
            std::process::exit(0);
        }
        Some(arg)
    }

    /// The value that must follow `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self.argv.next().map(String::as_str);
        value.ok_or_else(|| format!("{flag} needs a value\n{}", (self.usage)()))
    }

    /// The value that must follow `flag`, parsed.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The error for an argument no arm of the loop took.
    fn unknown(&self, arg: &str) -> String {
        format!("unknown argument {arg}\n{}", (self.usage)())
    }
}

/// A gate's exit code: 0 it holds, 1 findings, 2 usage or I/O error.
fn gate_exit(verdict: Result<bool, String>, tag: &str) -> ExitCode {
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("[{tag}] {msg}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    experiment: String,
    replicates: u32,
    threads: usize,
    seed: u64,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: bool,
}

fn usage() -> String {
    format!(
        "usage: marnet-lab <experiment> [--replicates N] [--threads N] [--seed S]\n\
         \u{20}                        [--out PATH] [--baseline PATH]\n\
         \u{20}                        [--trace PATH] [--metrics]\n\
         \u{20}      marnet-lab train [--smoke] [...]   (see `marnet-lab train --help`)\n\
         \u{20}      marnet-lab racecheck [NAME...] [...] (see `marnet-lab racecheck --help`)\n\
         \u{20}      marnet-lab check [--results DIR]\n\
         \u{20}      marnet-lab --list\n\
         experiments: {}",
        experiments::NAMES.join(", ")
    )
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut experiment = None;
    let mut replicates = 8u32;
    let mut threads = default_threads();
    let mut seed = 42u64;
    let mut out = None;
    let mut baseline = None;
    let mut trace = None;
    let mut metrics = false;

    let mut flags = Flags::new(args, usage);
    while let Some(arg) = flags.next() {
        match arg {
            "--list" => {
                println!("{}", experiments::NAMES.join("\n"));
                std::process::exit(0);
            }
            "--replicates" => replicates = flags.parse(arg)?,
            "--threads" => threads = flags.parse(arg)?,
            "--seed" => seed = flags.parse(arg)?,
            "--out" => out = Some(PathBuf::from(flags.value(arg)?)),
            "--baseline" => baseline = Some(PathBuf::from(flags.value(arg)?)),
            "--trace" => trace = Some(PathBuf::from(flags.value(arg)?)),
            "--metrics" => metrics = true,
            other if other.starts_with('-') => return Err(flags.unknown(other)),
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}\n{}", usage())),
        }
    }
    let experiment = experiment.ok_or_else(usage)?;
    if replicates == 0 {
        return Err("--replicates must be at least 1".into());
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(Args { experiment, replicates, threads, seed, out, baseline, trace, metrics })
}

fn racecheck_usage() -> String {
    "usage: marnet-lab racecheck [NAME...] [--seed S] [--replicates N] [--threads N] [--demo]\n\
     targets: every experiment of `marnet-lab --list` and train_smoke (default: all of them)"
        .to_string()
}

/// Parses and runs `marnet-lab racecheck`. Exit codes follow the workspace
/// convention: 0 ok (no divergence outside `TIE_DEPENDENT`), 1 findings (a
/// tie-break policy changed an unlisted artifact, or a trial failed),
/// 2 usage error.
fn racecheck_main(args: &[String]) -> ExitCode {
    let mut opts = marnet_lab::RacecheckOptions::default();
    let mut flags = Flags::new(args, racecheck_usage);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = flags.next() {
            match arg {
                "--seed" => opts.seed = flags.parse(arg)?,
                "--replicates" => opts.replicates = flags.parse(arg)?,
                "--threads" => opts.threads = flags.parse(arg)?,
                "--demo" => opts.demo = true,
                other if other.starts_with('-') => return Err(flags.unknown(other)),
                name => opts.targets.push(name.to_string()),
            }
        }
        if opts.replicates == 0 || opts.threads == 0 {
            return Err("--replicates and --threads must be at least 1".into());
        }
        Ok(())
    })();
    gate_exit(parsed.and_then(|()| marnet_lab::run_racecheck(&opts)), "racecheck")
}

fn check_usage() -> String {
    "usage: marnet-lab check [--results DIR]   (default: results)".to_string()
}

/// Parses and runs `marnet-lab check`: 0 every committed artifact
/// regenerates and racecheck holds, 1 findings, 2 a missing or unreadable
/// artifact or a usage error.
fn check_main(args: &[String]) -> ExitCode {
    let mut results = PathBuf::from("results");
    let mut flags = Flags::new(args, check_usage);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = flags.next() {
            match arg {
                "--results" => results = PathBuf::from(flags.value(arg)?),
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(())
    })();
    gate_exit(parsed.and_then(|()| marnet_lab::check::run_check(&results)), "check")
}

fn train_usage() -> String {
    "usage: marnet-lab train [--generations N] [--population N] [--elites N]\n\
     \u{20}                       [--replicates N] [--threads N] [--seed S]\n\
     \u{20}                       [--out PATH] [--smoke]"
        .to_string()
}

/// Parses and runs `marnet-lab train`. Exit codes follow the workspace
/// convention: 0 ok, 2 usage or I/O error (a drift check is `marnet-lab
/// check`).
fn train_main(args: &[String]) -> ExitCode {
    let mut generations = None;
    let mut population = None;
    let mut elites = None;
    let mut replicates = None;
    let mut threads = default_threads();
    let mut seed = 42u64;
    let mut out = None;
    let mut smoke = false;

    let mut flags = Flags::new(args, train_usage);
    let parsed = (|| -> Result<train::TrainOptions, String> {
        while let Some(arg) = flags.next() {
            match arg {
                "--generations" => generations = Some(flags.parse::<u32>(arg)?),
                "--population" => population = Some(flags.parse::<u32>(arg)?),
                "--elites" => elites = Some(flags.parse::<u32>(arg)?),
                "--replicates" => replicates = Some(flags.parse::<u32>(arg)?),
                "--threads" => threads = flags.parse(arg)?,
                "--seed" => seed = flags.parse(arg)?,
                "--out" => out = Some(PathBuf::from(flags.value(arg)?)),
                "--smoke" => smoke = true,
                other => return Err(flags.unknown(other)),
            }
        }
        let defaults =
            if smoke { train::TrainOptions::smoke() } else { train::TrainOptions::default() };
        let opts = train::TrainOptions {
            seed,
            generations: generations.unwrap_or(defaults.generations),
            population: population.unwrap_or(defaults.population),
            elites: elites.unwrap_or(defaults.elites),
            replicates: replicates.unwrap_or(defaults.replicates),
            threads,
            smoke,
        };
        if [opts.generations, opts.population, opts.replicates].contains(&0) || opts.threads == 0 {
            return Err(
                "--generations/--population/--replicates/--threads must be at least 1".into()
            );
        }
        if opts.elites == 0 || opts.elites > opts.population {
            return Err("--elites must be in 1..=population".into());
        }
        Ok(opts)
    })();
    let opts = match parsed {
        Ok(opts) => opts,
        Err(msg) => return gate_exit(Err(msg), "train"),
    };

    println!(
        "[train] cem search: {} generations × {} candidates × {} members × {} replicates \
         = {} sims on {} threads (seed {}{})",
        opts.generations,
        opts.population,
        train::MEMBERS.len(),
        opts.replicates,
        opts.generations as usize
            * opts.population as usize
            * train::MEMBERS.len()
            * opts.replicates as usize,
        opts.threads,
        opts.seed,
        if opts.smoke { ", smoke tier" } else { "" },
    );
    let (_result, artifact) = train::run_training(&opts);
    train::render(&artifact);

    let out = out.unwrap_or_else(|| {
        PathBuf::from("results").join(if opts.smoke {
            "lab_train_smoke.json"
        } else {
            "lab_train.json"
        })
    });
    gate_exit(train::finish(&artifact, &out).map(|()| true), "train")
}

fn main() -> ExitCode {
    // The subcommands have their own flag sets; peek before the
    // experiment-runner parser claims argv.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("train") => return train_main(&argv[1..]),
        Some("racecheck") => return racecheck_main(&argv[1..]),
        Some("check") => return check_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => return gate_exit(Err(msg), "lab"),
    };
    let telemetry = TelemetryOptions {
        trace_capacity: args.trace.is_some().then_some(DEFAULT_TRACE_CAPACITY),
        metrics: args.metrics,
    };
    let Some(experiment) =
        experiments::build(&args.experiment, args.replicates, args.seed, &telemetry)
    else {
        eprintln!("unknown experiment {:?}\n{}", args.experiment, usage());
        return ExitCode::from(2);
    };

    let spec = experiment.spec.clone();
    println!(
        "[lab] {}: {} points × {} replicates = {} trials on {} threads (seed {}, spec {:016x})",
        spec.name,
        spec.point_count(),
        spec.replicates,
        spec.trial_count(),
        args.threads,
        spec.seed,
        spec.spec_hash(),
    );

    let run = run_experiment(&spec, args.threads, |point, ctx| (experiment.trial)(point, ctx));
    for failure in &run.failures {
        eprintln!(
            "[lab] trial failed: point {} replicate {}: {}",
            failure.point_index, failure.replicate, failure.message
        );
    }

    let artifact = Artifact::from_run(&run);
    // A closed-form experiment builds no simulator, so it has nothing to
    // trace or meter; say so instead of writing an empty trace.
    let events = args.trace.is_some().then(|| run.trace_events());
    let untraced = events.as_ref().is_some_and(Vec::is_empty);
    let unmetered = args.metrics && artifact.metrics.is_none();
    if untraced || unmetered {
        eprintln!(
            "[lab] {} recorded no telemetry (a closed-form experiment runs no simulation): \
             {} has nothing to write",
            spec.name,
            if untraced { "--trace" } else { "--metrics" },
        );
        return ExitCode::from(2);
    }
    (experiment.render)(&artifact.points);

    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from("results").join(format!("lab_{}.json", spec.name)));
    if let Err(e) = artifact.write(&out) {
        eprintln!("[lab] failed to write artifact {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!(
        "\n[artifact] {} (schema v{}, spec {})",
        out.display(),
        artifact.schema_version,
        artifact.spec_hash
    );

    if let (Some(trace_path), Some(events)) = (&args.trace, &events) {
        if let Err(e) = trace_file::write_file(trace_path, events) {
            eprintln!("[lab] failed to write trace {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
        println!("[trace] {} ({} records)", trace_path.display(), events.len());
    }

    if let Some(baseline_path) = args.baseline {
        let baseline = match Artifact::load(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("[lab] failed to load baseline {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        // `Artifact::diff` skips points the baseline does not have; with
        // none in common it would report "no drift" about nothing.
        let shares_a_point =
            artifact.points.iter().any(|p| baseline.points.iter().any(|b| b.params == p.params));
        if !shares_a_point {
            eprintln!(
                "[lab] baseline {} shares no grid point with this run (it is a {:?} artifact, \
                 this run is {:?}): nothing to compare",
                baseline_path.display(),
                baseline.experiment,
                artifact.experiment
            );
            return ExitCode::from(2);
        }
        if baseline.experiment != artifact.experiment {
            eprintln!(
                "[baseline] warning: baseline is a {:?} artifact, this run is {:?}",
                baseline.experiment, artifact.experiment
            );
        }
        let drifts = artifact.diff(&baseline);
        if drifts.is_empty() {
            println!(
                "[baseline] no drift vs {} (all shared metrics within joint 95% CI)",
                baseline_path.display()
            );
        } else {
            println!(
                "[baseline] {} metric(s) drifted vs {}:",
                drifts.len(),
                baseline_path.display()
            );
            for d in &drifts {
                // A zero baseline has no relative change (`diff` stores NaN).
                let pct = if d.relative_change.is_nan() {
                    "n/a".to_string()
                } else {
                    let delta = d.current_mean - d.baseline_mean;
                    format!("{:+.1}%", delta / d.baseline_mean.abs() * 100.0)
                };
                println!(
                    "  {} :: {}: {:.4} -> {:.4} ({pct})",
                    d.point, d.metric, d.baseline_mean, d.current_mean
                );
            }
            return ExitCode::FAILURE;
        }
    }

    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
