//! DESIGN.md names modules as `crate::module` (with `crate::{a,b}` and
//! `crate::*` forms); each such path must resolve to a source file, so the
//! design document cannot keep describing a module after it is renamed or
//! deleted. Likewise every repository path that DESIGN.md, README.md or
//! EXPERIMENTS.md puts in backticks must name a file or directory that
//! exists.

use std::path::Path;

/// The inline code spans of a Markdown document: its odd `-separated
/// pieces, with fenced blocks left out.
fn code_spans(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = doc
        .lines()
        .filter(|line| {
            fenced ^= line.starts_with("```");
            !fenced && !line.starts_with("```")
        })
        .collect();
    prose.join("\n").split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// Top-level directories whose paths the documents name from the
/// repository root.
const ROOTED: [&str; 6] = ["crates/", "results/", "tests/", "examples/", "vendor/", ".github/"];

/// The words of `span` that are repository-rooted paths: each starts with
/// one of [`ROOTED`]. Templated paths (`<name>`, `*`, `{a,b}`) are skipped.
fn repo_paths(span: &str) -> impl Iterator<Item = &str> {
    span.split_whitespace()
        .filter(|word| ROOTED.iter().any(|root| word.starts_with(root)))
        .filter(|word| !word.contains(['<', '*', '{']))
}

/// The `crate::…` heads of `span`, where `crate` is a directory under
/// `crates/`: one `(crate, segment)` per module the span names, with
/// `segment` `*` for a glob.
fn module_paths(span: &str, crates: &[String]) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for krate in crates {
        let head = format!("{krate}::");
        for (at, _) in span.match_indices(&head) {
            let before = span[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':') {
                continue; // A suffix of a longer path, e.g. `marnet_sim::…`.
            }
            let rest = &span[at + head.len()..];
            let segments: Vec<&str> = if let Some(group) = rest.strip_prefix('{') {
                group.split('}').next().unwrap_or("").split(',').map(str::trim).collect()
            } else if rest.starts_with('*') {
                vec!["*"]
            } else {
                let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                vec![&rest[..end.unwrap_or(rest.len())]]
            };
            paths.extend(segments.into_iter().map(|s| (krate.clone(), s.to_string())));
        }
    }
    paths
}

#[test]
fn every_module_design_names_has_a_source_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();

    let named: Vec<(String, String)> =
        code_spans(&design).iter().flat_map(|s| module_paths(s, &crates)).collect();
    assert!(named.len() > 40, "found only {} module paths in DESIGN.md", named.len());
    let missing: Vec<String> = named
        .iter()
        .filter(|(krate, module)| {
            let src = root.join("crates").join(krate).join("src");
            match module.as_str() {
                "*" => !src.is_dir(),
                m => {
                    !src.join(format!("{m}.rs")).is_file() && !src.join(m).join("mod.rs").is_file()
                }
            }
        })
        .map(|(krate, module)| format!("{krate}::{module}"))
        .collect();
    assert!(missing.is_empty(), "DESIGN.md names modules with no source file: {missing:?}");
}

#[test]
fn every_repository_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a document");
        for path in code_spans(&text).iter().flat_map(|s| repo_paths(s)) {
            checked += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(checked > 30, "found only {checked} repository paths in the documents");
    assert!(missing.is_empty(), "the documents name paths that do not exist: {missing:?}");
}
