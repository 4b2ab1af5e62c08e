//! A conservative intra-workspace call graph, built from the same lossy
//! token streams the rules scan (see [`crate::tokens`]).
//!
//! The graph exists so the panic-safety family, whose scope is a *set of
//! entry points* in the event-core hot path, can follow calls out of
//! those entry points and audit the helpers they lean on, instead of
//! trusting a hand-maintained file list. The graph lives in memory for
//! the length of one pass; nothing is exported.
//!
//! ## Soundness model (token-level, no type information)
//!
//! Definitions are `fn name` tokens, qualified by the crate, the file's
//! module path, and any enclosing `mod` / `impl` / `trait` blocks (the
//! impl'd *type name* stands in for the impl block, so `SimCtx::push`
//! resolves like a path). Call sites come in three kinds, decreasingly
//! precise:
//!
//! * **direct** — a bare `name(…)`: resolved to the same-file definition
//!   with the longest shared module prefix (so a shadowing local `fn`
//!   wins over a sibling module's), else a unique same-crate match,
//!   else a unique workspace match, else every same-crate candidate
//!   (over-approximation, never silence).
//! * **path** — `a::b::name(…)`: resolved to every definition whose
//!   qualified path ends with those segments (`crate`/`self`/`super`
//!   prefixes are stripped; `Self::` resolves within the caller's
//!   module first).
//! * **method** — `recv.name(…)`: the receiver's type is unknown, so
//!   the edge conservatively targets *every* workspace `fn` of that
//!   name. Reachability propagation only follows a method edge when the
//!   name is unambiguous (exactly one definition) *and* the callee sits
//!   in the caller's crate — a workspace-unique name is still usually a
//!   std-trait method at the call site (`.collect()` resolves to
//!   `Iterator::collect`, not a stray workspace `fn collect`), and the
//!   same-crate guard keeps that noise out. The trade is a little
//!   completeness for not marking the whole workspace reachable through
//!   `push`/`new`-style names; the edge itself is still in the graph.
//!   What the closure therefore does *not* reach: cross-crate method
//!   calls (`PayloadPool::prepare` from `core`) and ambiguous names
//!   (`DelayLines::pop`). A pragma in such a function suppresses nothing
//!   and is reported as unused.
//!
//! Calls that resolve to no workspace definition (std, dependencies,
//! tuple-struct constructors, enum variants) produce no edge. Test-only
//! definitions (`#[cfg(test)]` / `#[test]` ranges) are excluded from
//! roots and never traversed: the invariants protect the simulation,
//! not its harness.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokens::{Token, TokenKind, TokenStream};

/// One function definition discovered in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Fully qualified path: crate, file modules, `mod`/`impl`/`trait`
    /// segments, then the name (e.g. `sim::engine::SimCtx::push`).
    pub path: String,
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body within the file's stream
    /// (empty for bodyless signatures).
    pub tok_span: (usize, usize),
    /// Index of the file in the builder's input (callers map this back
    /// to the token stream for span-scoped scanning).
    pub file_idx: usize,
    /// True when the definition sits inside a `#[cfg(test)]` / `#[test]`
    /// range; test definitions are never roots and never traversed.
    pub is_test: bool,
}

/// How a call site was resolved (see the module docs for precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Bare `name(…)` resolved by module proximity.
    Direct,
    /// Qualified `a::b::name(…)` resolved by path suffix.
    Path,
    /// `recv.name(…)` resolved to every definition of that name.
    Method,
}

/// One resolved call: `fns[from]` calls `fns[to]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Caller index into [`CallGraph::fns`].
    pub from: usize,
    /// Callee index into [`CallGraph::fns`].
    pub to: usize,
    /// Resolution precision.
    pub kind: EdgeKind,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every discovered definition, in (file, line) order.
    pub fns: Vec<FnDef>,
    /// Every resolved call, deduplicated.
    pub edges: Vec<Edge>,
    /// Number of definitions sharing each name (method-edge ambiguity).
    name_counts: BTreeMap<String, usize>,
    /// Adjacency: outgoing edge indices per function.
    out: Vec<Vec<usize>>,
}

/// One file handed to [`CallGraph::build`]: lint crate name,
/// workspace-relative path, and its token stream.
pub struct FileInput<'a> {
    /// Short crate name (`sim`, not `marnet-sim`).
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// The file's token stream.
    pub stream: &'a TokenStream,
}

impl std::fmt::Debug for FileInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileInput").field("rel_path", &self.rel_path).finish()
    }
}

/// Rust keywords that can precede `(` without being a call.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "move", "in", "let",
    "else", "as", "fn", "where", "await", "unsafe", "dyn", "impl", "ref", "mut",
];

impl CallGraph {
    /// Builds the graph over every input file: collect definitions, then
    /// resolve call sites. Deterministic for a given input order.
    pub fn build(files: &[FileInput<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        for (file_idx, f) in files.iter().enumerate() {
            collect_defs(f, file_idx, &mut g.fns);
        }
        for def in &g.fns {
            *g.name_counts.entry(def.name.clone()).or_insert(0) += 1;
        }
        let by_name: BTreeMap<&str, Vec<usize>> = {
            let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (i, d) in g.fns.iter().enumerate() {
                m.entry(d.name.as_str()).or_default().push(i);
            }
            m
        };
        let mut edges: BTreeSet<Edge> = BTreeSet::new();
        for (file_idx, f) in files.iter().enumerate() {
            collect_calls(f, file_idx, &g.fns, &by_name, &mut edges);
        }
        g.edges = edges.into_iter().collect();
        g.out = vec![Vec::new(); g.fns.len()];
        for (i, e) in g.edges.iter().enumerate() {
            g.out[e.from].push(i);
        }
        g
    }

    /// True when `name` has exactly one definition workspace-wide (the
    /// condition under which reachability follows a method edge).
    pub fn name_is_unique(&self, name: &str) -> bool {
        self.name_counts.get(name).copied() == Some(1)
    }

    /// The set of functions reachable from `roots` following every edge
    /// `follow` admits. Cycle-safe (visited set), never traverses into
    /// test definitions, roots are included in the result. Returns, per
    /// reached function, the index of the first root that discovered it
    /// (a witness for diagnostics).
    pub fn reachable(
        &self,
        roots: &[usize],
        follow: impl Fn(&Edge) -> bool,
    ) -> BTreeMap<usize, usize> {
        let mut origin: BTreeMap<usize, usize> = BTreeMap::new();
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for &r in roots {
            if !self.fns[r].is_test && !origin.contains_key(&r) {
                origin.insert(r, r);
                stack.push((r, r));
            }
        }
        while let Some((node, root)) = stack.pop() {
            for &ei in &self.out[node] {
                let e = &self.edges[ei];
                if self.fns[e.to].is_test || origin.contains_key(&e.to) || !follow(e) {
                    continue;
                }
                origin.insert(e.to, root);
                stack.push((e.to, root));
            }
        }
        origin
    }

    /// The default propagation policy: follow direct and path edges
    /// always, method edges only when the callee name is unambiguous
    /// *and* caller and callee share a crate. The same-crate guard
    /// matters because a method name can be workspace-unique as a
    /// *definition* yet ubiquitous as a *call*: `.collect()` in `sim`
    /// resolves to `Iterator::collect`, not to the one workspace fn
    /// that happens to be named `collect` in another crate.
    pub fn follows_for_propagation(&self, e: &Edge) -> bool {
        match e.kind {
            EdgeKind::Direct | EdgeKind::Path => true,
            EdgeKind::Method => {
                self.name_is_unique(&self.fns[e.to].name)
                    && crate_of(&self.fns[e.from].path) == crate_of(&self.fns[e.to].path)
            }
        }
    }
}

/// The crate segment of a qualified path (`sim::engine::push` → `sim`).
fn crate_of(path: &str) -> &str {
    path.split("::").next().unwrap_or(path)
}

/// Module segments derived from a file's path: `crates/sim/src/engine.rs`
/// → `["sim", "engine"]`, `lib.rs`/`main.rs`/`mod.rs` add no segment.
fn file_modules(crate_name: &str, rel_path: &str) -> Vec<String> {
    let mut mods = vec![crate_name.to_string()];
    if let Some(idx) = rel_path.find("/src/") {
        let tail = &rel_path[idx + 5..];
        for seg in tail.split('/') {
            let seg = seg.strip_suffix(".rs").unwrap_or(seg);
            if !matches!(seg, "lib" | "main" | "mod" | "bin") && !seg.is_empty() {
                mods.push(seg.to_string());
            }
        }
    }
    mods
}

/// Collects every `fn` definition in one file, tracking enclosing
/// `mod`/`impl`/`trait` blocks by brace depth.
fn collect_defs(f: &FileInput<'_>, file_idx: usize, out: &mut Vec<FnDef>) {
    let toks = &f.stream.tokens;
    let base = file_modules(f.crate_name, f.rel_path);
    let test_ranges = crate::rules::test_line_ranges(toks);
    let in_test = |line: usize| test_ranges.iter().any(|r| r.contains(&line));

    // (segment, brace depth the block opened at).
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                while stack.last().is_some_and(|(_, d)| *d > depth) {
                    stack.pop();
                }
            }
            "mod" if t.kind == TokenKind::Word => {
                // `mod name {` opens a segment; `mod name;` does not.
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Word) {
                    if toks.get(i + 2).is_some_and(|b| b.text == "{") {
                        stack.push((name.text.clone(), depth + 1));
                        depth += 1;
                        i += 3;
                        continue;
                    }
                }
            }
            "impl" | "trait" if t.kind == TokenKind::Word => {
                if let Some((seg, next)) = impl_segment(toks, i) {
                    stack.push((seg, depth + 1));
                    depth += 1;
                    i = next;
                    continue;
                }
            }
            "fn" if t.kind == TokenKind::Word => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Word) {
                    let (tok_span, next) = fn_body(toks, i + 2);
                    let mut path: Vec<&str> = base.iter().map(String::as_str).collect();
                    path.extend(stack.iter().map(|(s, _)| s.as_str()));
                    path.push(&name.text);
                    out.push(FnDef {
                        name: name.text.clone(),
                        path: path.join("::"),
                        file: f.rel_path.to_string(),
                        line: t.line,
                        tok_span,
                        file_idx,
                        is_test: in_test(t.line),
                    });
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Extracts the type segment of an `impl`/`trait` block starting at
/// `toks[at]`, returning `(segment, index just past the opening brace)`.
/// For `impl Trait for Type` the segment is `Type`; generics are
/// skipped. Returns `None` for bodyless forms (e.g. `impl Foo;`).
fn impl_segment(toks: &[Token], at: usize) -> Option<(String, usize)> {
    let mut angle = 0usize;
    let mut after_for = false;
    let mut first: Option<&str> = None;
    let mut forred: Option<&str> = None;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 => angle -= 1,
            "{" if angle == 0 => {
                let seg = forred.or(first)?;
                return Some((seg.to_string(), j + 1));
            }
            ";" if angle == 0 => return None,
            "for" if angle == 0 => after_for = true,
            "where" if angle == 0 => {
                // Segments are settled once the where clause starts.
                after_for = false;
            }
            _ if t.kind == TokenKind::Word && angle == 0 => {
                if after_for {
                    if forred.is_none() {
                        forred = Some(&t.text);
                    }
                } else if first.is_none() || after_for {
                    if first.is_none() {
                        first = Some(&t.text);
                    }
                } else {
                    // `impl a::b::Type` — keep the last path segment.
                    if toks.get(j - 1).is_some_and(|p| p.text == "::") {
                        first = Some(&t.text);
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Finds the body of a `fn` whose signature starts at `toks[from]`
/// (just past the name). Returns the body token span and the index to
/// resume scanning from. Bodyless signatures (trait methods ending in
/// `;`) return an empty span.
fn fn_body(toks: &[Token], from: usize) -> ((usize, usize), usize) {
    let mut j = from;
    let mut angle = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 && !toks[j - 1].text.starts_with('-') => angle -= 1,
            ";" if angle == 0 => return ((j, j), j + 1),
            "{" if angle == 0 => {
                let start = j;
                let mut d = 1usize;
                j += 1;
                while j < toks.len() && d > 0 {
                    match toks[j].text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                return ((start, j), j);
            }
            _ => {}
        }
        j += 1;
    }
    ((from, from), toks.len())
}

/// Collects and resolves every call site in one file.
fn collect_calls(
    f: &FileInput<'_>,
    file_idx: usize,
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    edges: &mut BTreeSet<Edge>,
) {
    let toks = &f.stream.tokens;
    // Definitions in this file, for innermost-enclosing-fn attribution.
    let local: Vec<usize> = (0..fns.len()).filter(|&i| fns[i].file_idx == file_idx).collect();
    let enclosing = |tok_idx: usize| -> Option<usize> {
        local
            .iter()
            .copied()
            .filter(|&i| {
                let (s, e) = fns[i].tok_span;
                s < tok_idx && tok_idx < e
            })
            .min_by_key(|&i| {
                let (s, e) = fns[i].tok_span;
                e - s
            })
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Word
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
            || NON_CALL_WORDS.contains(&t.text.as_str())
        {
            continue;
        }
        let Some(caller) = enclosing(i) else { continue };
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let (targets, kind) = if prev == Some(".") {
            (by_name.get(t.text.as_str()).cloned().unwrap_or_default(), EdgeKind::Method)
        } else if prev == Some("::") {
            let segs = path_segments(toks, i);
            (resolve_path(&segs, fns, by_name, &fns[caller]), EdgeKind::Path)
        } else if prev == Some("fn") {
            continue; // the definition itself
        } else {
            (resolve_bare(&t.text, fns, by_name, &fns[caller]), EdgeKind::Direct)
        };
        for to in targets {
            if to != caller {
                edges.insert(Edge { from: caller, to, kind, line: t.line });
            }
        }
    }
}

/// Walks back from the name at `toks[i]` collecting the `a::b::name`
/// segment list (in source order).
fn path_segments(toks: &[Token], i: usize) -> Vec<&str> {
    let mut segs = vec![toks[i].text.as_str()];
    let mut j = i;
    while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokenKind::Word {
        segs.push(toks[j - 2].text.as_str());
        j -= 2;
    }
    segs.reverse();
    segs
}

/// Resolves a qualified call by path suffix (see module docs).
fn resolve_path(
    segs: &[&str],
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnDef,
) -> Vec<usize> {
    let stripped: Vec<&str> =
        segs.iter().copied().skip_while(|s| matches!(*s, "crate" | "self" | "super")).collect();
    let (is_self, stripped) = match stripped.split_first() {
        Some((&"Self", rest)) if !rest.is_empty() => (true, rest.to_vec()),
        _ => (false, stripped),
    };
    let Some((&name, quals)) = stripped.split_last() else {
        return Vec::new();
    };
    let Some(cands) = by_name.get(name) else {
        return Vec::new();
    };
    if is_self {
        // `Self::x` — same impl block, i.e. the caller's path minus the
        // fn name plus `x`; fall back to same-file matches.
        let prefix = caller.path.rsplit_once("::").map_or("", |(p, _)| p);
        let same_impl: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| fns[c].path.rsplit_once("::").map_or("", |(p, _)| p) == prefix)
            .collect();
        if !same_impl.is_empty() {
            return same_impl;
        }
        return cands.iter().copied().filter(|&c| fns[c].file == caller.file).collect();
    }
    cands
        .iter()
        .copied()
        .filter(|&c| {
            let parts: Vec<&str> = fns[c].path.split("::").collect();
            let parts = &parts[..parts.len() - 1]; // drop the fn name (matched already)
            quals.iter().rev().zip(parts.iter().rev()).all(|(a, b)| a == b)
                && quals.len() <= parts.len() + 1
        })
        .collect()
}

/// Resolves a bare call by module proximity (see module docs).
fn resolve_bare(
    name: &str,
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnDef,
) -> Vec<usize> {
    let Some(cands) = by_name.get(name) else {
        return Vec::new();
    };
    // Same file: the candidate sharing the longest module prefix with the
    // caller wins (shadowing), ties are kept (over-approximation).
    let same_file: Vec<usize> =
        cands.iter().copied().filter(|&c| fns[c].file == caller.file).collect();
    if !same_file.is_empty() {
        let score = |c: usize| {
            fns[c].path.split("::").zip(caller.path.split("::")).take_while(|(a, b)| a == b).count()
        };
        let best = same_file.iter().copied().map(score).max().unwrap_or(0);
        return same_file.into_iter().filter(|&c| score(c) == best).collect();
    }
    let caller_crate = caller.path.split("::").next().unwrap_or_default();
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].path.split("::").next() == Some(caller_crate))
        .collect();
    if same_crate.len() == 1 {
        return same_crate;
    }
    if same_crate.is_empty() && cands.len() == 1 {
        return cands.clone();
    }
    // Ambiguous: every same-crate candidate (conservative).
    same_crate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn graph(files: &[(&str, &str, &str)]) -> (CallGraph, Vec<TokenStream>) {
        let streams: Vec<TokenStream> = files.iter().map(|(_, _, src)| tokenize(src)).collect();
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .zip(&streams)
            .map(|((krate, path, _), stream)| FileInput {
                crate_name: krate,
                rel_path: path,
                stream,
            })
            .collect();
        (CallGraph::build(&inputs), streams)
    }

    fn idx(g: &CallGraph, path: &str) -> usize {
        g.fns.iter().position(|d| d.path == path).unwrap_or_else(|| {
            panic!("no fn `{path}` in {:?}", g.fns.iter().map(|d| &d.path).collect::<Vec<_>>())
        })
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str, kind: EdgeKind) -> bool {
        let (f, t) = (idx(g, from), idx(g, to));
        g.edges.iter().any(|e| e.from == f && e.to == t && e.kind == kind)
    }

    #[test]
    fn defs_are_qualified_by_mod_impl_and_file() {
        let src = "
            pub fn top() {}
            mod inner { pub fn nested() {} }
            struct S;
            impl S { fn method(&self) {} }
            impl std::fmt::Display for S { fn fmt(&self) {} }
            trait T { fn provided() {} fn required(); }
        ";
        let (g, _) = graph(&[("sim", "crates/sim/src/engine.rs", src)]);
        let paths: Vec<&str> = g.fns.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "sim::engine::top",
                "sim::engine::inner::nested",
                "sim::engine::S::method",
                "sim::engine::S::fmt",
                "sim::engine::T::provided",
                "sim::engine::T::required",
            ]
        );
        // The bodyless trait signature has an empty span.
        let req = &g.fns[idx(&g, "sim::engine::T::required")];
        assert_eq!(req.tok_span.0, req.tok_span.1);
    }

    #[test]
    fn direct_path_and_method_calls_resolve() {
        let a = "
            pub fn helper() {}
            pub struct Q;
            impl Q { pub fn push(&mut self) { helper(); } }
        ";
        let b = "
            pub fn driver(q: &mut crate::q::Q) {
                crate::q::helper();
                q.push();
            }
        ";
        let (g, _) =
            graph(&[("sim", "crates/sim/src/q.rs", a), ("sim", "crates/sim/src/engine.rs", b)]);
        assert!(has_edge(&g, "sim::q::Q::push", "sim::q::helper", EdgeKind::Direct));
        assert!(has_edge(&g, "sim::engine::driver", "sim::q::helper", EdgeKind::Path));
        assert!(has_edge(&g, "sim::engine::driver", "sim::q::Q::push", EdgeKind::Method));
    }

    #[test]
    fn shadowed_names_resolve_to_the_nearest_module() {
        let src = "
            pub fn f() {}
            mod a { pub fn f() {} pub fn caller() { f(); } }
        ";
        let (g, _) = graph(&[("sim", "crates/sim/src/lib.rs", src)]);
        assert!(has_edge(&g, "sim::a::caller", "sim::a::f", EdgeKind::Direct));
        assert!(!has_edge(&g, "sim::a::caller", "sim::f", EdgeKind::Direct));
    }

    #[test]
    fn method_calls_are_conservative_over_all_same_named_fns() {
        let src = "
            struct A; struct B;
            impl A { fn go(&self) {} }
            impl B { fn go(&self) {} }
            fn drive(a: &A) { a.go(); }
        ";
        let (g, _) = graph(&[("sim", "crates/sim/src/lib.rs", src)]);
        // No type info: the method edge targets both `go`s.
        assert!(has_edge(&g, "sim::drive", "sim::A::go", EdgeKind::Method));
        assert!(has_edge(&g, "sim::drive", "sim::B::go", EdgeKind::Method));
        // ...but the propagation policy refuses to follow the ambiguous name.
        let ambiguous = g.edges.iter().find(|e| e.kind == EdgeKind::Method).unwrap();
        assert!(!g.follows_for_propagation(ambiguous));
    }

    #[test]
    fn cycles_terminate_and_reach_both_ways() {
        let src = "
            pub fn ping() { pong(); }
            pub fn pong() { ping(); }
            pub fn lonely() {}
        ";
        let (g, _) = graph(&[("sim", "crates/sim/src/lib.rs", src)]);
        let reached = g.reachable(&[idx(&g, "sim::ping")], |_| true);
        assert!(reached.contains_key(&idx(&g, "sim::pong")));
        assert!(reached.contains_key(&idx(&g, "sim::ping")));
        assert!(!reached.contains_key(&idx(&g, "sim::lonely")));
    }

    #[test]
    fn test_definitions_are_invisible_to_reachability_and_json() {
        let src = "
            pub fn entry() { helper(); }
            pub fn helper() {}
            #[cfg(test)]
            mod tests {
                fn t_helper() { super::helper(); }
            }
        ";
        let (g, _) = graph(&[("sim", "crates/sim/src/lib.rs", src)]);
        assert!(g.fns[idx(&g, "sim::tests::t_helper")].is_test);
        let reached = g.reachable(&[idx(&g, "sim::tests::t_helper")], |_| true);
        assert!(reached.is_empty(), "test fns are never roots");
    }

    #[test]
    fn cross_crate_method_edges_are_not_followed() {
        // `collect` is workspace-unique as a *definition*, but the method
        // call in `sim` is really `Iterator::collect`; the same-crate
        // guard must refuse to follow it into `lint`.
        let a = "pub fn collect() {}";
        let b = "pub fn run(it: I) { it.collect(); }";
        let (g, _) = graph(&[
            ("lint", "crates/lint/src/pragma.rs", a),
            ("sim", "crates/sim/src/engine.rs", b),
        ]);
        assert!(has_edge(&g, "sim::engine::run", "lint::pragma::collect", EdgeKind::Method));
        let e = g.edges.iter().find(|e| e.kind == EdgeKind::Method).unwrap();
        assert!(!g.follows_for_propagation(e), "cross-crate method edge must not propagate");
        // The same unique name within one crate is still followed.
        let c = "pub fn drain_all() {} pub fn run(q: Q) { q.drain_all(); }";
        let (g2, _) = graph(&[("sim", "crates/sim/src/engine.rs", c)]);
        let e2 = g2.edges.iter().find(|e| e.kind == EdgeKind::Method).unwrap();
        assert!(g2.follows_for_propagation(e2));
    }

    /// Property: reachability is monotone in the edge set. Randomized
    /// (seeded LCG, fully deterministic): generate a call graph, add one
    /// more call to some function body, and check the reachable set
    /// never shrinks. Exercises cycles, self-calls, and dead code.
    #[test]
    fn reachability_is_monotone_under_edge_addition() {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: usize| {
            // Deterministic xorshift — no host entropy in tests either.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _trial in 0..25 {
            let n = 3 + next(6); // 3..=8 functions
            let mut calls: Vec<Vec<usize>> =
                (0..n).map(|_| (0..next(3)).map(|_| next(n)).collect()).collect();
            let render = |calls: &[Vec<usize>]| {
                let mut src = String::new();
                for (i, cs) in calls.iter().enumerate() {
                    src.push_str(&format!("pub fn f{i}() {{ "));
                    for c in cs {
                        src.push_str(&format!("f{c}(); "));
                    }
                    src.push_str("}\n");
                }
                src
            };
            let before = render(&calls);
            let (g1, _) = graph(&[("sim", "crates/sim/src/lib.rs", &before)]);
            let roots = [idx(&g1, "sim::f0")];
            let r1: BTreeSet<String> = g1
                .reachable(&roots, |e| g1.follows_for_propagation(e))
                .keys()
                .map(|&d| g1.fns[d].path.clone())
                .collect();

            calls[next(n)].push(next(n));
            let after = render(&calls);
            let (g2, _) = graph(&[("sim", "crates/sim/src/lib.rs", &after)]);
            let roots2 = [idx(&g2, "sim::f0")];
            let r2: BTreeSet<String> = g2
                .reachable(&roots2, |e| g2.follows_for_propagation(e))
                .keys()
                .map(|&d| g2.fns[d].path.clone())
                .collect();
            assert!(
                r1.is_subset(&r2),
                "adding an edge shrank reachability:\nbefore:\n{before}\nafter:\n{after}\
                 \nreached before: {r1:?}\nreached after: {r2:?}"
            );
        }
    }
}
