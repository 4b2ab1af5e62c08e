//! The `marnet-lint` CLI.
//!
//! ```text
//! marnet-lint [--root PATH] [--list-rules]
//! ```
//!
//! Every rule is denied: any finding fails the run. Exit codes follow
//! the workspace convention: 0 ok (no findings), 1 findings, 2 usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use marnet_lint::{find_workspace_root, lint_workspace, render_text, ALL_RULES};

const USAGE: &str = "usage: marnet-lint [--root PATH] [--list-rules]

exit codes: 0 ok, 1 findings, 2 usage error";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("marnet-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value =
            |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(value("--root")?)),
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{rule}: {}", rule.rationale());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd)
                .ok_or_else(|| "no workspace Cargo.toml above the current directory".to_string())?
        }
    };
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} has no Cargo.toml", root.display()));
    }

    let report = lint_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    print!("{}", render_text(&report.findings));
    eprintln!(
        "scanned {} files across {} crates; call graph: {} fns, {} call edges",
        report.files_scanned,
        report.crates_checked,
        report.call_graph.fns.len(),
        report.call_graph.edges.len()
    );

    Ok(if report.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
