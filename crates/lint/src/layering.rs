//! The crate-layering rule: parse `crates/*/Cargo.toml` and enforce the
//! workspace dependency DAG.
//!
//! The DAG is what keeps the reproduction honest at its seams: `sim`
//! stays a reusable substrate (it must never learn about the harness
//! crates that drive it), and `telemetry` stays leaf-like so the
//! recorder-off configuration is provably zero-overhead — nothing it
//! could call back into exists below it.
//!
//! Only `[dependencies]` sections are read; dev-dependencies are test
//! harness wiring (and an upward dev-dependency would be a cargo cycle
//! error anyway). Non-`marnet-*` dependencies are ignored: the vendored
//! stand-ins are outside the DAG.

use crate::diag::{Diagnostic, Rule};

/// Allowed `marnet-*` dependencies per crate (by short name). A crate
/// absent from this table is itself a finding: new crates must be placed
/// in the DAG deliberately.
pub const LAYERS: &[(&str, &[&str])] = &[
    // telemetry is the leaf: recorder-off must have nothing to call.
    ("telemetry", &[]),
    // lint is the auditor: it must never join the DAG it enforces.
    ("lint", &[]),
    ("sim", &["telemetry"]),
    // faults drives the sim engine and traces transitions; it must stay
    // below the protocol stack so any crate can inject faults.
    ("faults", &["sim", "telemetry"]),
    // flow is the fluid tier: it only needs the engine's event loop and
    // the trace vocabulary, and must stay below the protocol stack so
    // transports and scenarios can couple to it freely.
    ("flow", &["sim", "telemetry"]),
    ("radio", &["sim", "telemetry"]),
    ("transport", &["sim", "radio", "telemetry"]),
    ("core", &["sim", "radio", "transport", "telemetry"]),
    ("app", &["sim", "radio", "transport", "core", "telemetry"]),
    ("edge", &["sim", "transport", "core", "telemetry", "faults"]),
    ("privacy", &["sim", "radio", "transport", "core", "app", "telemetry"]),
    // trainer owns the policy search (space, engines, Pareto artifacts)
    // and is generic over the evaluation closure: it may see the policy
    // vocabulary (core) and the seeded-substream rule (sim), never the
    // scenarios or the runner — the lab implements the inner loop and
    // depends on trainer, not the other way around.
    ("trainer", &["sim", "core"]),
    ("bench", &["sim", "radio", "transport", "core", "app", "edge", "telemetry", "faults", "flow"]),
    (
        "lab",
        &[
            "sim",
            "radio",
            "transport",
            "core",
            "app",
            "edge",
            "privacy",
            "telemetry",
            "bench",
            "faults",
            "flow",
            "trainer",
        ],
    ),
    // The umbrella crate re-exports everything runnable; the auditor
    // stays out of it (it is a dev tool, not part of the suite).
    (
        "marnet",
        &[
            "sim",
            "radio",
            "transport",
            "core",
            "app",
            "edge",
            "privacy",
            "telemetry",
            "bench",
            "lab",
            "faults",
            "flow",
            "trainer",
        ],
    ),
];

/// One `marnet-*` entry found in a `[dependencies]` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Short name (`sim`, not `marnet-sim`).
    pub name: String,
    /// 1-based line of the dependency entry.
    pub line: usize,
}

/// Extracts the `marnet-*` dependencies of a manifest. Handles the forms
/// the workspace uses: `marnet-sim.workspace = true`,
/// `marnet-bench = { path = "../bench" }`, and plain `marnet-x = "…"`.
pub fn parse_deps(manifest: &str) -> Vec<Dep> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // Section header; exactly `[dependencies]` counts (not
            // `[dev-dependencies]`, `[workspace.dependencies]`, or
            // `[target.….dependencies]`).
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Key = everything before `=` or the `.workspace` shorthand dot.
        let key: &str = line.split(['=', '.', ' ', '\t']).next().unwrap_or("");
        if let Some(short) = key.strip_prefix("marnet-") {
            deps.push(Dep { name: short.to_string(), line: idx + 1 });
        }
    }
    deps
}

/// Checks one crate's manifest against the DAG. `crate_name` is the
/// short name (directory name under `crates/`, or `marnet` for the
/// umbrella); `rel_manifest` anchors the diagnostics.
pub fn check_crate(crate_name: &str, manifest: &str, rel_manifest: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some((_, allowed)) = LAYERS.iter().find(|(n, _)| *n == crate_name) else {
        out.push(Diagnostic {
            rule: Rule::Layering,
            file: rel_manifest.to_string(),
            line: 0,
            message: format!(
                "crate `{crate_name}` is not in the layering table; add it to \
                 crates/lint/src/layering.rs with its allowed dependencies"
            ),
        });
        return out;
    };
    for dep in parse_deps(manifest) {
        if !allowed.contains(&dep.name.as_str()) {
            out.push(Diagnostic {
                rule: Rule::Layering,
                file: rel_manifest.to_string(),
                line: dep.line,
                message: format!(
                    "`{crate_name}` must not depend on `marnet-{}`; allowed: [{}]",
                    dep.name,
                    allowed.join(", ")
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_OK: &str = "
[package]
name = \"marnet-sim\"

[dependencies]
rand.workspace = true
marnet-telemetry.workspace = true

[dev-dependencies]
proptest.workspace = true
";

    #[test]
    fn workspace_shorthand_and_table_forms_parse() {
        let manifest = "
[dependencies]
marnet-sim.workspace = true
marnet-bench = { path = \"../bench\" }
serde.workspace = true
";
        let deps = parse_deps(manifest);
        let names: Vec<&str> = deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["sim", "bench"]);
    }

    #[test]
    fn dev_dependencies_are_ignored() {
        let manifest = "
[dev-dependencies]
marnet-bench.workspace = true
";
        assert!(parse_deps(manifest).is_empty());
    }

    #[test]
    fn workspace_dependency_table_is_ignored() {
        let manifest = "
[workspace.dependencies]
marnet-sim = { path = \"crates/sim\" }
";
        assert!(parse_deps(manifest).is_empty());
    }

    #[test]
    fn legal_layering_passes() {
        assert!(check_crate("sim", SIM_OK, "crates/sim/Cargo.toml").is_empty());
    }

    #[test]
    fn upward_dependency_is_flagged_with_line() {
        let manifest = "
[dependencies]
marnet-bench.workspace = true
";
        let d = check_crate("sim", manifest, "crates/sim/Cargo.toml");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::Layering);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("marnet-bench"));
    }

    #[test]
    fn unknown_crate_is_flagged() {
        let d = check_crate("shiny", "[dependencies]\n", "crates/shiny/Cargo.toml");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("layering table"));
    }

    #[test]
    fn telemetry_must_stay_leaf() {
        let manifest = "
[dependencies]
marnet-sim.workspace = true
";
        let d = check_crate("telemetry", manifest, "crates/telemetry/Cargo.toml");
        assert_eq!(d.len(), 1);
    }
}
