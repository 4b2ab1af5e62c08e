//! The `marnet-lab` CLI: replicated, parallel versions of the paper
//! experiments with confidence intervals and versioned artifacts.
//!
//! ```text
//! marnet-lab <experiment> [--replicates N] [--threads N] [--seed S]
//!                         [--out PATH] [--baseline PATH]
//!                         [--trace PATH] [--metrics]
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
         \u{20}      marnet-lab racecheck [--quick] [...] (see `marnet-lab racecheck --help`)\n\
         \u{20}      marnet-lab --list\n\
         experiments: {}",
        experiments::NAMES.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = None;
    let mut replicates = 8u32;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seed = 42u64;
    let mut out = None;
    let mut baseline = None;
    let mut trace = None;
    let mut metrics = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value =
            |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match arg.as_str() {
            "--list" => {
                println!("{}", experiments::NAMES.join("\n"));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--replicates" => {
                replicates =
                    value("--replicates")?.parse().map_err(|e| format!("--replicates: {e}"))?;
            }
            "--threads" => {
                threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => metrics = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()));
            }
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
    "usage: marnet-lab racecheck [--seed S] [--replicates N] [--threads N]\n\
     \u{20}                           [--quick] [--demo] [--no-trace]"
        .to_string()
}

/// Parses and runs `marnet-lab racecheck`. Exit codes follow the workspace
/// convention: 0 ok (schedule-stable), 1 findings (a tie-break policy
/// changed an artifact), 2 usage error.
fn racecheck_main(args: &[String]) -> ExitCode {
    let mut opts = marnet_lab::RacecheckOptions::default();

    let parsed = (|| -> Result<(), String> {
        let mut argv = args.iter();
        while let Some(arg) = argv.next() {
            let mut value = |flag: &str| {
                argv.next().ok_or_else(|| format!("{flag} needs a value\n{}", racecheck_usage()))
            };
            match arg.as_str() {
                "--help" | "-h" => {
                    println!("{}", racecheck_usage());
                    std::process::exit(0);
                }
                "--seed" => {
                    opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--replicates" => {
                    opts.replicates =
                        value("--replicates")?.parse().map_err(|e| format!("--replicates: {e}"))?;
                }
                "--threads" => {
                    opts.threads =
                        value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                }
                "--quick" => opts.quick = true,
                "--demo" => opts.demo = true,
                "--no-trace" => opts.trace = false,
                other => return Err(format!("unknown argument {other}\n{}", racecheck_usage())),
            }
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    if opts.replicates == 0 || opts.threads == 0 {
        eprintln!("--replicates and --threads must be at least 1");
        return ExitCode::from(2);
    }

    if marnet_lab::run_racecheck(&opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn train_usage() -> String {
    "usage: marnet-lab train [--generations N] [--population N] [--elites N]\n\
     \u{20}                       [--replicates N] [--threads N] [--seed S]\n\
     \u{20}                       [--out PATH] [--baseline PATH] [--smoke]"
        .to_string()
}

/// Parses and runs `marnet-lab train`. Exit codes follow the workspace
/// convention: 0 ok, 1 findings (baseline drift), 2 usage or I/O error.
fn train_main(args: &[String]) -> ExitCode {
    let mut generations = None;
    let mut population = None;
    let mut elites = None;
    let mut replicates = None;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seed = 42u64;
    let mut out = None;
    let mut baseline = None;
    let mut smoke = false;

    let parsed = (|| -> Result<(), String> {
        let mut argv = args.iter();
        while let Some(arg) = argv.next() {
            let mut value = |flag: &str| {
                argv.next().ok_or_else(|| format!("{flag} needs a value\n{}", train_usage()))
            };
            match arg.as_str() {
                "--help" | "-h" => {
                    println!("{}", train_usage());
                    std::process::exit(0);
                }
                "--generations" => {
                    generations = Some(
                        value("--generations")?
                            .parse::<u32>()
                            .map_err(|e| format!("--generations: {e}"))?,
                    );
                }
                "--population" => {
                    population = Some(
                        value("--population")?
                            .parse::<u32>()
                            .map_err(|e| format!("--population: {e}"))?,
                    );
                }
                "--elites" => {
                    elites = Some(
                        value("--elites")?.parse::<u32>().map_err(|e| format!("--elites: {e}"))?,
                    );
                }
                "--replicates" => {
                    replicates = Some(
                        value("--replicates")?
                            .parse::<u32>()
                            .map_err(|e| format!("--replicates: {e}"))?,
                    );
                }
                "--threads" => {
                    threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                }
                "--seed" => {
                    seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--out" => out = Some(PathBuf::from(value("--out")?)),
                "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}\n{}", train_usage())),
            }
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::from(2);
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
    if opts.generations == 0 || opts.population == 0 || opts.replicates == 0 || opts.threads == 0 {
        eprintln!("--generations, --population, --replicates and --threads must be at least 1");
        return ExitCode::from(2);
    }
    if opts.elites == 0 || opts.elites > opts.population {
        eprintln!("--elites must be in 1..=population");
        return ExitCode::from(2);
    }

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
    match train::finish(&artifact, &out, baseline.as_deref()) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("[train] {msg}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // The `train` subcommand has its own flag set; peek before the
    // experiment-runner parser claims argv.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("train") {
        return train_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("racecheck") {
        return racecheck_main(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
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
        println!("[trace] {} ({} events)", trace_path.display(), events.len());
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
