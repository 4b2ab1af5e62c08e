//! The workspace walker: decides which rules apply to which files and
//! runs the whole pass.
//!
//! Scope decisions, all path-based (no type information exists):
//!
//! * **Sim-facing crates** (`sim`, `core`, `transport`, `radio`, `app`,
//!   `edge`, `privacy`, `telemetry`, `faults`, `flow`, `trainer`) get the
//!   determinism family over their library sources. `src/bin/` is exempt:
//!   binaries are CLI entry points that legitimately read
//!   `std::env::args`.
//! * **Hot-path modules** (the event-core set: `sim::engine`,
//!   `core::endpoint`, `transport::nic`) additionally get the
//!   panic-safety family.
//! * **Every crate root** (`src/lib.rs`) gets the hygiene rule, and
//!   every crate manifest the layering rule.
//! * `tests/`, `benches/`, `examples/`, and `#[cfg(test)]` items are
//!   never scanned: invariants protect the simulation, not its harness.
//!
//! The pass is two-phase. Phase one scans each file under its direct
//! scope, exactly as above. Phase two builds the workspace call graph
//! ([`crate::callgraph`]) and *propagates* the panic-safety family along
//! it: a helper outside the hot-path file list that a hot-path function
//! calls (directly, via a path, or via an unambiguous same-crate method
//! name) is audited with the same rules, and its findings carry a
//! "reachable from" witness. Pragmas in the helper's file suppress
//! propagated findings the same way they suppress direct ones, and only
//! after propagation is the stale-pragma audit run: a pragma that neither
//! the direct scan nor any reached span consumed is an `unused-pragma`
//! finding, whichever file it sits in.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{CallGraph, FileInput};
use crate::diag::{self, Diagnostic, Rule};
use crate::layering;
use crate::rules::{self, scan_stream, FileScope, PragmaLedger};
use crate::tokens::{tokenize, TokenStream};

/// Crates whose library code faces the simulator and must stay
/// deterministic. `trainer` is here because its sampling loop feeds the
/// byte-identical artifact contract: a wall-clock or environment read in
/// the search would silently break reproducibility.
pub const SIM_FACING: &[&str] = &[
    "sim",
    "core",
    "transport",
    "radio",
    "app",
    "edge",
    "privacy",
    "telemetry",
    "faults",
    "flow",
    "trainer",
];

/// Event-core hot-path modules under the panic-safety rule (workspace-
/// relative, forward slashes).
pub const HOT_PATH: &[&str] =
    &["crates/sim/src/engine.rs", "crates/core/src/endpoint.rs", "crates/transport/src/nic.rs"];

/// The result of a whole-workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in canonical order.
    pub findings: Vec<Diagnostic>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Crate manifests checked for layering.
    pub crates_checked: usize,
    /// The workspace call graph the panic-safety family was propagated along.
    pub call_graph: CallGraph,
}

/// One scanned source file, kept for the call-graph phase.
struct ScannedFile {
    crate_name: String,
    rel_path: String,
    scope: FileScope,
    stream: TokenStream,
    /// The file's pragmas and which of them have suppressed something.
    pragmas: PragmaLedger,
}

/// Runs every rule over the workspace rooted at `root` (the directory
/// holding the workspace `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() {
                crate_dirs.push(path);
            }
        }
    }
    // Deterministic scan order regardless of directory enumeration.
    crate_dirs.sort();

    let mut scanned: Vec<ScannedFile> = Vec::new();
    for dir in &crate_dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        scan_crate(root, dir, &name, &mut report, &mut scanned)?;
    }

    // The umbrella crate at the root, when present: layering + hygiene.
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        scan_crate(root, root, "marnet", &mut report, &mut scanned)?;
    }

    // Phase two: the call graph and reachability propagation.
    let inputs: Vec<FileInput<'_>> = scanned
        .iter()
        .map(|f| FileInput { crate_name: &f.crate_name, rel_path: &f.rel_path, stream: &f.stream })
        .collect();
    let graph = CallGraph::build(&inputs);
    propagate(&graph, &mut scanned, &mut report.findings);
    report.call_graph = graph;
    for f in &scanned {
        report.findings.extend(f.pragmas.unused(&f.rel_path));
    }

    diag::sort(&mut report.findings);
    Ok(report)
}

/// Phase two: walk the call graph from every function defined in a
/// hot-path file and audit the helpers it reaches in other files with the
/// panic-safety family.
fn propagate(graph: &CallGraph, scanned: &mut [ScannedFile], findings: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> =
        (0..graph.fns.len()).filter(|&i| scanned[graph.fns[i].file_idx].scope.panic_path).collect();
    let reached = graph.reachable(&roots, |e| graph.follows_for_propagation(e));
    // Deterministic order: visit reached fns by (file, line).
    let mut targets: Vec<(usize, usize)> = reached
        .into_iter()
        .filter(|&(def, _)| !scanned[graph.fns[def].file_idx].scope.panic_path)
        .collect();
    targets.sort_by_key(|&(def, _)| (graph.fns[def].file_idx, graph.fns[def].line));

    // Group by file: findings are de-duplicated per file.
    let mut by_file: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (def, root) in targets {
        let fi = graph.fns[def].file_idx;
        match by_file.last_mut() {
            Some((last, list)) if *last == fi => list.push((def, root)),
            _ => by_file.push((fi, vec![(def, root)])),
        }
    }
    for (fi, defs) in by_file {
        let file = &mut scanned[fi];
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for (def, root) in defs {
            let d = &graph.fns[def];
            let (s, e) = d.tok_span;
            if s >= e {
                continue;
            }
            let mut raw: Vec<Diagnostic> = Vec::new();
            let witness = &graph.fns[root].path;
            {
                let mut push = |rule: Rule, line: usize, message: String| {
                    raw.push(Diagnostic {
                        rule,
                        file: file.rel_path.clone(),
                        line,
                        message: format!(
                            "{message} (in `{}`, reachable from `{witness}` via the call graph)",
                            d.path
                        ),
                    });
                };
                let in_test = |line: usize| file.pragmas.in_test(line);
                rules::scan_panic_path(&file.stream.tokens[s..e], &in_test, &mut push);
            }
            for f in file.pragmas.suppress(raw) {
                // Nested fns are contained in their parent's span;
                // dedup so a finding is not reported per enclosure.
                if seen.insert(f.line) {
                    findings.push(f);
                }
            }
        }
    }
}

/// Scans one crate: manifest layering plus every file under `src/`.
fn scan_crate(
    root: &Path,
    dir: &Path,
    name: &str,
    report: &mut Report,
    scanned: &mut Vec<ScannedFile>,
) -> io::Result<()> {
    let manifest_path = dir.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)?;
    report.findings.extend(layering::check_crate(name, &manifest, &rel(root, &manifest_path)));
    report.crates_checked += 1;

    let src = dir.join("src");
    if !src.is_dir() {
        return Ok(());
    }
    let determinism = SIM_FACING.contains(&name);
    let mut files = Vec::new();
    collect_rs(&src, &mut files)?;
    files.sort();
    for file in files {
        let rel_path = rel(root, &file);
        // Binaries parse argv and print; the determinism contract lives
        // in the library the binary drives.
        let in_bin = rel_path.contains("/src/bin/");
        let scope = FileScope {
            determinism: determinism && !in_bin,
            panic_path: HOT_PATH.contains(&rel_path.as_str()),
            hygiene: file == src.join("lib.rs"),
            rel_path,
        };
        let source = fs::read_to_string(&file)?;
        let stream = tokenize(&source);
        let (findings, pragmas) = scan_stream(&stream, &scope);
        report.findings.extend(findings);
        report.files_scanned += 1;
        scanned.push(ScannedFile {
            crate_name: name.to_string(),
            rel_path: scope.rel_path.clone(),
            scope,
            stream,
            pragmas,
        });
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
