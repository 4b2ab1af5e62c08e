//! DESIGN.md names modules as `crate::module` (with `crate::{a,b}` and
//! `crate::*` forms); each such path must resolve to a source file, so the
//! design document cannot keep describing a module after it is renamed or
//! deleted.

use std::path::Path;

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
    // Prose outside fenced blocks; its odd `-separated pieces are the
    // inline code spans.
    let mut fenced = false;
    let prose: Vec<&str> = design
        .lines()
        .filter(|line| {
            fenced ^= line.starts_with("```");
            !fenced && !line.starts_with("```")
        })
        .collect();
    let prose = prose.join("\n");
    let spans = prose.split('`').skip(1).step_by(2);

    let named: Vec<(String, String)> = spans.flat_map(|s| module_paths(s, &crates)).collect();
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
