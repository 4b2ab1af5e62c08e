//! The crate-layering rule: parse `crates/*/Cargo.toml` and enforce the
//! workspace dependency DAG.
//!
//! The DAG is what keeps the reproduction honest at its seams: `sim`
//! stays a reusable substrate (it must never learn about the harness
//! crates that drive it), and `telemetry` stays leaf-like so the
//! recorder-off configuration is provably zero-overhead — nothing it
//! could call back into exists below it.
//!
//! Only normal dependencies are read — `[dependencies]`, its
//! `[target.'cfg(…)'.dependencies]` twins and the one-dependency tables
//! `[dependencies.<name>]` under either; dev-dependencies are test
//! harness wiring (and an upward dev-dependency would be a cargo cycle
//! error anyway). A dependency counts by the package it names, so a
//! rename (`x = { package = "marnet-lab", … }`) is the edge to `lab`.
//! Non-`marnet-*` dependencies are ignored: the vendored stand-ins are
//! outside the DAG.

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

/// One `marnet-*` entry found in a dependencies section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Short name (`sim`, not `marnet-sim`).
    pub name: String,
    /// 1-based line of the dependency entry (of the header, for a
    /// `[dependencies.<name>]` table).
    pub line: usize,
}

/// Extracts the `marnet-*` dependencies of a manifest: every entry of a
/// `[dependencies]` or `[target.….dependencies]` section
/// (`marnet-sim.workspace = true`, `marnet-bench = { path = "../bench" }`,
/// `marnet-x = "…"`), and every `[dependencies.<name>]` /
/// `[target.….dependencies.<name>]` table. An entry that names a
/// `package` counts as that package.
pub fn parse_deps(manifest: &str) -> Vec<Dep> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    // The open `[dependencies.<name>]` table: its package so far, and line.
    let mut table: Option<(String, usize)> = None;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            deps.extend(table.take().and_then(|(package, line)| marnet_dep(&package, line)));
            let segs = header_segments(line);
            // `[target.<cfg>.…]` reads like the same header without it.
            let segs = match segs.as_slice() {
                [target, _, rest @ ..] if target == "target" => rest,
                all => all,
            };
            in_deps = segs == ["dependencies"];
            if let [deps_key, name] = segs {
                if deps_key == "dependencies" {
                    table = Some((name.clone(), idx + 1));
                }
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((package, _)) = &mut table {
            if let Some(renamed) = package_key(line) {
                *package = renamed.to_string();
            }
        } else if in_deps {
            // Key = everything before `=` or the `.workspace` shorthand dot.
            let key = line.split(['=', '.', ' ', '\t']).next().unwrap_or("");
            deps.extend(marnet_dep(package_key(line).unwrap_or(key), idx + 1));
        }
    }
    deps.extend(table.and_then(|(package, line)| marnet_dep(&package, line)));
    deps
}

/// A [`Dep`] for `package` when it is a `marnet-*` crate.
fn marnet_dep(package: &str, line: usize) -> Option<Dep> {
    package.strip_prefix("marnet-").map(|short| Dep { name: short.to_string(), line })
}

/// The dotted segments of a `[a.'b.c'.d]` section header, quotes
/// stripped; a dot inside quotes (a `cfg(…)` target) does not split.
fn header_segments(header: &str) -> Vec<String> {
    let inner = header.trim_start_matches('[').trim_end_matches(']');
    let mut segs = vec![String::new()];
    let mut quote: Option<char> = None;
    for c in inner.chars() {
        match (quote, c) {
            (None, '"' | '\'') => quote = Some(c),
            (Some(q), _) if c == q => quote = None,
            (None, '.') => segs.push(String::new()),
            (None, c) if c.is_whitespace() => {}
            (_, c) => {
                if let Some(seg) = segs.last_mut() {
                    seg.push(c);
                }
            }
        }
    }
    segs
}

/// The value of a `package = "…"` key on `line`, inline-table or bare.
fn package_key(line: &str) -> Option<&str> {
    line.match_indices("package").find_map(|(at, _)| {
        let rest = line[at + "package".len()..].trim_start().strip_prefix('=')?;
        let value = rest.trim_start().strip_prefix('"')?;
        value.split('"').next()
    })
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
    fn target_specific_dependencies_are_read() {
        let manifest = "
[target.'cfg(target_os = \"linux\")'.dependencies]
marnet-bench = { path = \"../bench\" }

[target.'cfg(unix)'.dev-dependencies]
marnet-lab.workspace = true
";
        let d = check_crate("sim", manifest, "crates/sim/Cargo.toml");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("marnet-bench"), "{}", d[0].message);
    }

    #[test]
    fn dependency_tables_are_read() {
        let manifest = "
[dependencies.marnet-telemetry]
path = \"../telemetry\"

[dependencies.marnet-lab]
path = \"../lab\"

[dev-dependencies.marnet-bench]
path = \"../bench\"
";
        let d = check_crate("sim", manifest, "crates/sim/Cargo.toml");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(d[0].message.contains("marnet-lab"), "{}", d[0].message);
    }

    #[test]
    fn renamed_dependencies_count_as_their_package() {
        let manifest = "
[dependencies]
lab = { package = \"marnet-lab\", path = \"../lab\" }
marnet-telemetry = { package = \"serde\", path = \"../package\" }

[dependencies.engine]
package = \"marnet-bench\"
path = \"../bench\"
";
        let d = check_crate("sim", manifest, "crates/sim/Cargo.toml");
        let found: Vec<(usize, bool)> =
            d.iter().map(|d| (d.line, d.message.contains("marnet-lab"))).collect();
        assert_eq!(found, [(3, true), (6, false)], "{d:?}");
        assert!(d[1].message.contains("marnet-bench"), "{}", d[1].message);
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
