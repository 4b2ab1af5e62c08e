//! The source-level rules: determinism, panic-safety, hygiene.
//!
//! Everything here works on the lossy token stream of one file (see
//! [`crate::tokens`]); which rule families apply to a file is decided by
//! the workspace walker from its path (see [`crate::workspace`]).
//!
//! Two scoping decisions keep the pass honest without type information:
//!
//! * `#[cfg(test)]` / `#[test]` items are skipped — tests may read the
//!   environment or index slices freely; the invariants protect the
//!   simulation, not its test harness.
//! * Findings are suppressed only by an explicit, reasoned pragma on the
//!   same line or the line directly above ([`crate::pragma`]); a pragma
//!   that suppresses nothing — here or, in a workspace pass, in any span
//!   the call graph reaches — is itself reported, so stale suppressions
//!   cannot linger.

use crate::diag::{Diagnostic, Rule};
use crate::pragma::{self, Pragma};
use crate::tokens::{tokenize, Token, TokenKind, TokenStream};

/// Which rule families apply to the file being scanned.
#[derive(Debug, Clone, Default)]
pub struct FileScope {
    /// Workspace-relative path (diagnostics anchor).
    pub rel_path: String,
    /// Determinism rules (wall-clock, thread-id, env-read, map-iter):
    /// library source of a sim-facing crate.
    pub determinism: bool,
    /// Panic-safety rules: one of the event-core hot-path modules.
    pub panic_path: bool,
    /// Hygiene rule (`#![forbid(unsafe_code)]`): a crate root.
    pub hygiene: bool,
}

/// Map-iteration methods whose visitation order reaches the caller.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Constructors that keep the default (randomized) hasher.
const DEFAULT_CTORS: &[&str] = &["new", "default", "with_capacity", "from"];

/// Macros that abort the current trial.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One file's pragma ledger: which pragmas exist and which have
/// suppressed something so far. The workspace walker keeps suppressing
/// through it while it audits reached helpers, and only then asks for
/// [`PragmaLedger::unused`].
pub(crate) struct PragmaLedger {
    /// Each pragma with whether it has suppressed a finding yet.
    pragmas: Vec<(Pragma, bool)>,
    test_ranges: Vec<std::ops::RangeInclusive<usize>>,
}

impl PragmaLedger {
    /// True when `line` sits inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&line))
    }

    /// Applies pragma suppression to raw findings: a pragma silences
    /// findings of its rule on its own line or the line directly below.
    /// The same-line pragma is preferred, so consecutive pragma'd lines
    /// each consume their own pragma instead of the first one claiming
    /// both. Consumed pragmas are marked used.
    pub fn suppress(&mut self, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
        let mut findings: Vec<Diagnostic> = Vec::new();
        'raw: for d in raw {
            for same_line in [true, false] {
                for (p, used) in &mut self.pragmas {
                    let hit = if same_line { p.line == d.line } else { p.line + 1 == d.line };
                    if p.rule == d.rule && hit {
                        *used = true;
                        continue 'raw;
                    }
                }
            }
            findings.push(d);
        }
        findings
    }

    /// One `unused-pragma` finding per pragma outside test code that has
    /// suppressed nothing — whatever its rule and wherever the file sits:
    /// a rule that does not apply here leaves its pragma just as stale.
    pub fn unused(&self, rel_path: &str) -> Vec<Diagnostic> {
        self.pragmas
            .iter()
            .filter(|(p, used)| !used && !self.in_test(p.line))
            .map(|(p, _)| Diagnostic {
                rule: Rule::UnusedPragma,
                file: rel_path.to_string(),
                line: p.line,
                message: format!("pragma `allow({})` suppresses nothing here; remove it", p.rule),
            })
            .collect()
    }
}

/// Scans one file on its own, returning its (pragma-filtered)
/// diagnostics, stale pragmas included.
pub fn scan_file(src: &str, scope: &FileScope) -> Vec<Diagnostic> {
    let (mut findings, ledger) = scan_stream(&tokenize(src), scope);
    findings.extend(ledger.unused(&scope.rel_path));
    findings
}

/// Scans an already-tokenized file under its direct scope (the workspace
/// walker tokenizes once and shares the stream with the call-graph
/// builder). Stale pragmas are not reported here: a pragma may yet be
/// consumed by a finding the call graph propagates into this file.
pub(crate) fn scan_stream(
    stream: &TokenStream,
    scope: &FileScope,
) -> (Vec<Diagnostic>, PragmaLedger) {
    let toks = &stream.tokens;
    let (pragmas, pragma_errors) = pragma::collect(&stream.comments);
    let mut ledger = PragmaLedger {
        pragmas: pragmas.into_iter().map(|p| (p, false)).collect(),
        test_ranges: test_line_ranges(toks),
    };
    let in_test = |line: usize| ledger.in_test(line);

    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        raw.push(Diagnostic { rule, file: scope.rel_path.clone(), line, message });
    };

    if scope.determinism {
        scan_determinism(toks, &in_test, &mut push);
    }
    if scope.panic_path {
        scan_panic_path(toks, &in_test, &mut push);
    }
    if scope.hygiene && !has_forbid_unsafe(toks) {
        push(Rule::UnsafeHygiene, 1, "crate root is missing `#![forbid(unsafe_code)]`".into());
    }

    let mut findings = ledger.suppress(raw);
    for e in pragma_errors {
        if !ledger.in_test(e.line) {
            findings.push(Diagnostic {
                rule: Rule::BadPragma,
                file: scope.rel_path.clone(),
                line: e.line,
                message: e.message,
            });
        }
    }
    (findings, ledger)
}

/// True when the stream carries `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| texts(w) == ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"])
}

fn texts(w: &[Token]) -> Vec<&str> {
    w.iter().map(|t| t.text.as_str()).collect()
}

fn word_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Word && t.text == text)
}

fn punct_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Line ranges covered by `#[test]` / `#[cfg(test)]` items: from the
/// attribute to the closing brace of the item it decorates. Shared with
/// the call-graph builder, which excludes test definitions from roots.
pub(crate) fn test_line_ranges(toks: &[Token]) -> Vec<std::ops::RangeInclusive<usize>> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(punct_at(toks, i, "#") && punct_at(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        // Find the matching `]`, collecting the attribute's words.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr_words: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {
                    if toks[j].kind == TokenKind::Word {
                        attr_words.push(&toks[j].text);
                    }
                }
            }
            j += 1;
        }
        let is_test_attr = attr_words.contains(&"test")
            && matches!(attr_words.first(), Some(&"cfg") | Some(&"test"));
        if !is_test_attr {
            i = j;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes, then consume tokens to the item's
        // opening `{` (a `;` first means `mod x;` — nothing to skip).
        let mut k = j;
        loop {
            if k + 1 < toks.len() && punct_at(toks, k, "#") && punct_at(toks, k + 1, "[") {
                let mut d = 1usize;
                k += 2;
                while k < toks.len() && d > 0 {
                    match toks[k].text.as_str() {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                continue;
            }
            break;
        }
        let mut body_end = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                ";" => break,
                "{" => {
                    let mut d = 1usize;
                    k += 1;
                    while k < toks.len() && d > 0 {
                        match toks[k].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    body_end = Some(if k > 0 { toks[k - 1].line } else { start_line });
                    break;
                }
                _ => k += 1,
            }
        }
        if let Some(end_line) = body_end {
            ranges.push(start_line..=end_line);
            i = k;
        } else {
            i = j;
        }
    }
    ranges
}

/// The determinism family: wall-clock, thread identity, environment
/// reads, and default-hasher map iteration.
fn scan_determinism(
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(Rule, usize, String),
) {
    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_test(line) {
            continue;
        }
        if word_at(toks, i, "Instant") && punct_at(toks, i + 1, "::") && word_at(toks, i + 2, "now")
        {
            push(Rule::WallClock, line, "`Instant::now()` reads the wall clock".into());
        }
        if word_at(toks, i, "SystemTime")
            && punct_at(toks, i + 1, "::")
            && word_at(toks, i + 2, "now")
        {
            push(Rule::WallClock, line, "`SystemTime::now()` reads the wall clock".into());
        }
        if word_at(toks, i, "std") && punct_at(toks, i + 1, "::") && word_at(toks, i + 2, "time") {
            push(
                Rule::WallClock,
                line,
                "`std::time` in a sim-facing crate; simulation code must use SimTime".into(),
            );
        }
        if word_at(toks, i, "thread")
            && punct_at(toks, i + 1, "::")
            && word_at(toks, i + 2, "current")
        {
            push(
                Rule::ThreadId,
                line,
                "`thread::current()` leaks the host schedule into sim state".into(),
            );
        }
        if word_at(toks, i, "std") && punct_at(toks, i + 1, "::") && word_at(toks, i + 2, "env") {
            push(
                Rule::EnvRead,
                line,
                "`std::env` read in a sim-facing crate; runs must be a function of the spec".into(),
            );
        }
    }
    scan_map_iteration(toks, in_test, push);
    scan_float_order(toks, in_test, push);
}

/// Sort / min / max adapters whose comparator decides an order the
/// caller observes.
const ORDER_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Float-order hazards: comparators built on `partial_cmp` (NaN makes
/// the produced order undefined and input-order dependent) and float
/// accumulation over default-hasher map iteration (the sum's rounding
/// depends on visitation order). `total_cmp` is the fix for the former,
/// an ordered container for the latter.
fn scan_float_order(
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(Rule, usize, String),
) {
    let map_vars = collect_map_vars(toks);
    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_test(line) {
            continue;
        }
        // `.sort_by(|a, b| a.partial_cmp(b) …)` and friends: scan the
        // comparator's argument list for a `partial_cmp` call.
        if punct_at(toks, i, ".")
            && toks.get(i + 1).is_some_and(|m| {
                m.kind == TokenKind::Word && ORDER_METHODS.contains(&m.text.as_str())
            })
            && punct_at(toks, i + 2, "(")
        {
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 && j - i < 120 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "partial_cmp" if toks[j].kind == TokenKind::Word => {
                        push(
                            Rule::FloatOrder,
                            toks[i + 1].line,
                            format!(
                                "`{}` comparator uses `partial_cmp`; NaN yields None and \
                                 the produced order becomes input-order dependent — use \
                                 `total_cmp`",
                                toks[i + 1].text
                            ),
                        );
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `map.values().sum::<f64>()` — float reduction over an
        // unordered visitation.
        if toks[i].kind == TokenKind::Word
            && map_vars.contains(&toks[i].text.as_str())
            && punct_at(toks, i + 1, ".")
            && toks.get(i + 2).is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && punct_at(toks, i + 3, "(")
            && punct_at(toks, i + 4, ")")
            && punct_at(toks, i + 5, ".")
            && toks.get(i + 6).is_some_and(|m| {
                // `sum::<f64>()` / `product::<f32>()`, or `fold(0.0, …)`
                // (the tokenizer splits the float literal into `0 . 0`).
                match m.text.as_str() {
                    "sum" | "product" => toks[i + 6..toks.len().min(i + 12)]
                        .iter()
                        .any(|t| t.text == "f64" || t.text == "f32"),
                    "fold" => {
                        punct_at(toks, i + 7, "(")
                            && toks
                                .get(i + 8)
                                .is_some_and(|t| t.text.chars().all(|c| c.is_ascii_digit()))
                            && punct_at(toks, i + 9, ".")
                    }
                    _ => false,
                }
            })
        {
            push(
                Rule::FloatOrder,
                line,
                format!(
                    "float `{}` over default-hasher map `{}`; accumulation order — and \
                     therefore rounding — follows hasher state, so the result is not \
                     reproducible — use an ordered container or sort first",
                    toks[i + 6].text,
                    toks[i].text
                ),
            );
        }
    }
}

/// Identifiers declared or assigned as default-hasher
/// `HashMap`/`HashSet` in this file (shared by the map-iter and
/// float-order rules). The type may be path-qualified
/// (`std::collections::HashMap`).
fn collect_map_vars(toks: &[Token]) -> Vec<&str> {
    let mut map_vars: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Word || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        let is_map = t.text == "HashMap";
        // `p` is the first token of the type's path: skip `segment::`
        // pairs back from the type name.
        let mut p = i;
        while p >= 2 && punct_at(toks, p - 1, "::") && toks[p - 2].kind == TokenKind::Word {
            p -= 2;
        }
        // `name: HashMap<…>` — declaration with a type annotation.
        let annotated = p >= 2
            && punct_at(toks, p - 1, ":")
            && toks[p - 2].kind == TokenKind::Word
            && punct_at(toks, i + 1, "<")
            && default_hasher(toks, i + 1, is_map);
        // `name = HashMap::new()` — inferred binding to a constructor
        // (an annotated binding never matches: the token before `=` is
        // the annotation's closing `>`, not the name).
        let constructed = p >= 2
            && punct_at(toks, p - 1, "=")
            && toks[p - 2].kind == TokenKind::Word
            && punct_at(toks, i + 1, "::")
            && toks.get(i + 2).is_some_and(|c| DEFAULT_CTORS.contains(&c.text.as_str()));
        if annotated || constructed {
            let name = toks[p - 2].text.as_str();
            if !map_vars.contains(&name) {
                map_vars.push(name);
            }
        }
    }
    map_vars
}

/// Default-hasher map iteration: flag iteration over any identifier
/// tracked by [`collect_map_vars`].
fn scan_map_iteration(
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(Rule, usize, String),
) {
    let map_vars = collect_map_vars(toks);
    if map_vars.is_empty() {
        return;
    }

    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_test(line) {
            continue;
        }
        // `name.iter()` and friends, including `self.field.iter()`.
        if toks[i].kind == TokenKind::Word
            && map_vars.contains(&toks[i].text.as_str())
            && punct_at(toks, i + 1, ".")
            && toks.get(i + 2).is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && punct_at(toks, i + 3, "(")
        {
            push(
                Rule::MapIter,
                line,
                format!(
                    "iteration over default-hasher map `{}` (`.{}()`); order depends on \
                     hasher state — use BTreeMap/FxHashMap or sort the drain",
                    toks[i].text,
                    toks[i + 2].text
                ),
            );
        }
        // `for … in &map { … }` — direct loop over the map value.
        if word_at(toks, i, "for") {
            // Find the `in`, then inspect the loop expression up to `{`.
            let mut j = i + 1;
            let mut guard = 0;
            while j < toks.len() && !word_at(toks, j, "in") {
                if toks[j].text == "{" || guard > 24 {
                    j = toks.len();
                    break;
                }
                guard += 1;
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            let mut k = j + 1;
            let mut expr_words: Vec<&Token> = Vec::new();
            let mut calls = false;
            while k < toks.len() && toks[k].text != "{" && k - j < 24 {
                if toks[k].text == "(" {
                    calls = true;
                }
                if toks[k].kind == TokenKind::Word {
                    expr_words.push(&toks[k]);
                }
                k += 1;
            }
            if calls {
                continue; // `for x in map.iter()` is caught above.
            }
            if let Some(hit) = expr_words.iter().find(|w| map_vars.contains(&w.text.as_str())) {
                push(
                    Rule::MapIter,
                    toks[i].line,
                    format!(
                        "`for … in` over default-hasher map `{}`; order depends on hasher \
                         state — use BTreeMap/FxHashMap or sort first",
                        hit.text
                    ),
                );
            }
        }
    }
}

/// Counts whether the generic argument list opening at `toks[open]`
/// (which is `<`) leaves the default hasher in place: a third parameter
/// on `HashMap` (second on `HashSet`) means a custom hasher.
fn default_hasher(toks: &[Token], open: usize, is_map: bool) -> bool {
    let mut angle = 1usize;
    let mut round = 0usize;
    let mut square = 0usize;
    let mut commas = 0usize;
    let mut i = open + 1;
    while i < toks.len() && angle > 0 {
        match toks[i].text.as_str() {
            "<" => angle += 1,
            // `->` inside `Box<dyn Fn() -> T>` must not close the list.
            ">" if !punct_at(toks, i - 1, "-") => angle -= 1,
            "(" => round += 1,
            ")" => round = round.saturating_sub(1),
            "[" => square += 1,
            "]" => square = square.saturating_sub(1),
            "," if angle == 1 && round == 0 && square == 0 => commas += 1,
            _ => {}
        }
        i += 1;
    }
    let max_commas = if is_map { 1 } else { 0 };
    commas <= max_commas
}

/// The panic-safety family for hot-path modules: `.unwrap()`,
/// `.expect()`, aborting macros, and slice indexing. Also run, via the
/// call graph, over helpers reachable from hot-path entry points.
pub(crate) fn scan_panic_path(
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(Rule, usize, String),
) {
    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_test(line) {
            continue;
        }
        if punct_at(toks, i, ".")
            && toks.get(i + 1).is_some_and(|w| {
                w.kind == TokenKind::Word && (w.text == "unwrap" || w.text == "expect")
            })
            && punct_at(toks, i + 2, "(")
        {
            push(
                Rule::PanicPath,
                toks[i + 1].line,
                format!(
                    "`.{}()` in an event-core hot-path module can abort a trial mid-run",
                    toks[i + 1].text
                ),
            );
        }
        if toks[i].kind == TokenKind::Word
            && PANIC_MACROS.contains(&toks[i].text.as_str())
            && punct_at(toks, i + 1, "!")
        {
            push(
                Rule::PanicPath,
                line,
                format!("`{}!` in an event-core hot-path module", toks[i].text),
            );
        }
        // Slice indexing: `expr[` where expr ends in a word, `)` or `]`.
        // Keywords that cannot end an indexable expression are excluded so
        // slice *types* (`&mut [T]`, `dyn [..]`, `in [..]`) do not fire.
        const NON_EXPR_KEYWORDS: &[&str] =
            &["mut", "dyn", "in", "return", "break", "else", "as", "const", "static"];
        if punct_at(toks, i, "[")
            && i > 0
            && (toks[i - 1].kind == TokenKind::Word
                || toks[i - 1].text == ")"
                || toks[i - 1].text == "]")
            && !NON_EXPR_KEYWORDS.contains(&toks[i - 1].text.as_str())
        {
            push(
                Rule::PanicPath,
                line,
                format!(
                    "slice indexing after `{}` can panic on a bad bound; prove the \
                     invariant or use `get`",
                    toks[i - 1].text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str, determinism: bool, panic_path: bool, hygiene: bool) -> Vec<Diagnostic> {
        scan_file(src, &FileScope { rel_path: "x.rs".into(), determinism, panic_path, hygiene })
    }

    #[test]
    fn wall_clock_and_env_fire_in_sim_scope_only() {
        let src = "fn f() { let t = Instant::now(); let h = std::env::var(\"HOME\"); }";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].rule, Rule::WallClock);
        assert_eq!(d[1].rule, Rule::EnvRead);
        assert!(scan(src, false, false, false).is_empty());
    }

    #[test]
    fn literals_and_comments_never_fire() {
        let src = r#"
            // Instant::now() in a comment
            fn f() -> &'static str { "Instant::now(); std::env::var" }
        "#;
        assert!(scan(src, true, true, false).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "
            fn hot() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let _ = std::env::var(\"CASES\"); x.unwrap(); }
            }
        ";
        assert!(scan(src, true, true, false).is_empty());
    }

    #[test]
    fn map_iteration_is_flagged_but_lookup_is_not() {
        let src = "
            use std::collections::HashMap;
            struct S { names: HashMap<String, u32> }
            fn ok(s: &S) -> Option<&u32> { s.names.get(\"x\") }
            fn bad(s: &S) -> usize { s.names.iter().count() }
            fn worse(s: &S) { for (k, v) in &s.names { drop((k, v)); } }
        ";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::MapIter));
    }

    #[test]
    fn path_qualified_annotations_are_tracked() {
        let src = "
            fn f() -> f64 {
                let m: std::collections::HashMap<u32, f64> = Default::default();
                for (k, v) in m.iter() { drop((k, v)); }
                m.values().sum::<f64>()
            }
        ";
        let d = scan(src, true, false, false);
        let rules: Vec<Rule> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::MapIter, Rule::MapIter, Rule::FloatOrder], "{d:?}");
    }

    #[test]
    fn path_qualified_constructors_are_tracked() {
        let src = "
            fn f() -> f64 {
                let m = std::collections::HashMap::new();
                for (k, v) in m.iter() { drop((k, v)); }
                m.values().fold(0.0, |acc, v| acc + v)
            }
        ";
        let d = scan(src, true, false, false);
        let rules: Vec<Rule> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::MapIter, Rule::MapIter, Rule::FloatOrder], "{d:?}");
    }

    #[test]
    fn fx_and_custom_hashers_are_legal() {
        let src = "
            fn f() {
                let a: FxHashMap<u64, u64> = FxHashMap::default();
                let b: HashMap<u64, u64, BuildHasherDefault<FxHasher>> = HashMap::default();
                for x in a.iter() {}
                for y in b.keys() {}
            }
        ";
        let d = scan(src, true, false, false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tuple_keys_do_not_fake_a_custom_hasher() {
        let src = "
            fn f(m: HashMap<(u32, u32), Vec<u64>>) -> usize { m.keys().count() }
        ";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::MapIter);
    }

    #[test]
    fn float_order_flags_partial_cmp_comparators() {
        let src = "
            fn f(xs: &mut Vec<f64>) {
                xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect(\"finite\"));
                let _ = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());
            }
            fn ok(xs: &mut Vec<f64>) {
                xs.sort_by(|a, b| a.total_cmp(b));
                xs.sort_unstable();
            }
        ";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::FloatOrder));
        assert!(scan(src, false, false, false).is_empty());
    }

    #[test]
    fn float_order_flags_float_sums_over_hashed_maps() {
        let src = "
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, f64>) -> f64 {
                let shares: HashMap<u32, f64> = HashMap::new();
                let a: f64 = shares.values().sum::<f64>();
                let b = shares.values().fold(0.0, |acc, v| acc + v);
                a + b
            }
            fn ok(m: &HashMap<u32, u64>) -> u64 {
                let counts: HashMap<u32, u64> = HashMap::new();
                counts.values().sum::<u64>()
            }
        ";
        let d = scan(src, true, false, false);
        let float_order = d.iter().filter(|d| d.rule == Rule::FloatOrder).count();
        assert_eq!(float_order, 2, "{d:?}");
        // The map-iter rule fires on the same lines independently.
        assert!(d.iter().any(|d| d.rule == Rule::MapIter));
    }

    #[test]
    fn panic_path_rules() {
        let src = "
            fn hot(v: &[u8], i: usize) -> u8 {
                let x = v.first().unwrap();
                if *x > 3 { panic!(\"boom\") }
                v[i]
            }
        ";
        let d = scan(src, false, true, false);
        let rules: Vec<Rule> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::PanicPath; 3], "{d:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let d = scan("fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }", false, true, false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let src = "
            #[derive(Debug)]
            struct S;
            fn f() -> [u8; 2] { let buf: [u8; 2] = [0u8; 2]; buf }
        ";
        let d = scan(src, false, true, false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_suppresses_and_stale_pragma_reports() {
        let src = "
            // marnet-lint: allow(wall-clock): measuring the host for a bench report
            fn f() { let t = Instant::now(); }
            // marnet-lint: allow(wall-clock): stale
            fn g() {}
        ";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnusedPragma);
    }

    #[test]
    fn reasonless_pragma_is_bad() {
        let src = "fn f() {} // marnet-lint: allow(env-read)";
        let d = scan(src, true, false, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::BadPragma);
    }

    #[test]
    fn hygiene_checks_forbid_unsafe() {
        assert_eq!(scan("#![forbid(unsafe_code)]\n", false, false, true).len(), 0);
        let d = scan("//! docs only\n", false, false, true);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnsafeHygiene);
    }
}
