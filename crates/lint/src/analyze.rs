//! The rule passes: token-pattern matchers over one lexed file.
//!
//! Everything here is deliberately heuristic — no type information, no
//! AST — but tuned so that every miss is on the safe side for the
//! codebase's idioms:
//!
//! * hash-container receivers are recognized from *declarations* in the
//!   same file (`name: HashMap<...>` fields/params, `let name =
//!   FxHashMap::default()` bindings), so a map handed across files under a
//!   fresh name can slip through — the reviewer's job, not the linter's;
//! * "feeds a sort" is a window scan: the rest of the statement plus the
//!   immediately following statement. A sort three statements later needs
//!   an `allow` with a reason, which is exactly the documentation the
//!   determinism contract wants at such a site.

use crate::allow;
use crate::callgraph::CallGraph;
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules;
use crate::semantic;
use crate::symbols;

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Workspace-relative path (forward slashes), used in findings.
    pub rel_path: String,
    /// Under `crates/bench/` — exempt from `wall-clock` (benches measure
    /// real time by definition).
    pub is_bench_crate: bool,
    /// Under a `tests/`, `benches/`, or `examples/` directory — exempt
    /// from `wall-clock`, `unordered-iter`, `float-accum`,
    /// `actor-isolation` (but **not** `ambient-rng`: tests must be
    /// seeded too, or failures don't reproduce).
    pub is_test_code: bool,
    /// Source of an actor crate (`ndn`, `core`, `k8s`, `datalake`,
    /// `baseline`) — the `actor-isolation` shared-state ban applies.
    pub is_actor_crate: bool,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The rustc-style single-line rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: rule[{}]: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Hash containers whose iteration order is arbitrary.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that iterate a container.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
];

/// Sinks that restore a canonical order downstream of hash iteration.
const SORTERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_by_cached_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Order-insensitive reductions (commutative over any iteration order —
/// float sums excepted, which `float-accum` handles first).
const REDUCERS: &[&str] = &[
    "count", "sum", "product", "min", "max", "min_by_key", "max_by_key", "all", "any", "len",
];

/// Shared-state primitives banned inside actor crates.
const SHARED_STATE: &[&str] = &["Mutex", "RwLock", "RefCell"];

/// One file handed to [`analyze_files`]: where it sits plus its source.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub ctx: FileCtx,
    pub src: String,
}

/// Analyze one file in isolation. Cross-file rules still run, but see
/// only this file — fixture tests exercise them by co-locating the actor
/// impl / registry / call chain in one source. Workspace scans go through
/// [`analyze_files`].
pub fn analyze(ctx: &FileCtx, src: &str) -> Vec<Finding> {
    analyze_files(&[SourceFile {
        ctx: ctx.clone(),
        src: src.to_string(),
    }])
}

/// Analyze a set of files as one workspace: per-file token rules, then
/// the symbol-graph/call-graph semantic rules ([`semantic`]), then allow
/// suppression per file. Findings come back sorted by (file, line, rule).
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    let mut lexeds: Vec<Lexed> = Vec::new();
    let mut allows_per = Vec::new();
    let mut bad_per = Vec::new();
    let mut regions_per: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut raw_per: Vec<Vec<Finding>> = Vec::new();
    for sf in files {
        let lexed = lex(&sf.src);
        let (allows, bad) = allow::collect(&lexed);
        let regions = test_regions(&lexed.toks);
        raw_per.push(raw_findings(&sf.ctx, &lexed, &regions));
        lexeds.push(lexed);
        allows_per.push(allows);
        bad_per.push(bad);
        regions_per.push(regions);
    }

    // The semantic layer sees every file at once.
    let ws = symbols::Workspace::build(
        files
            .iter()
            .zip(lexeds.iter())
            .zip(regions_per.iter())
            .map(|((sf, lexed), regions)| (sf.ctx.clone(), lexed.clone(), regions.clone()))
            .collect(),
    );
    let cg = CallGraph::build(&ws);
    let by_path: std::collections::BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, sf)| (sf.ctx.rel_path.as_str(), i))
        .collect();
    for f in semantic::run(&ws, &cg) {
        match by_path.get(f.file.as_str()) {
            Some(&i) => {
                if !raw_per[i]
                    .iter()
                    .any(|g| g.rule == f.rule && g.line == f.line)
                {
                    raw_per[i].push(f);
                }
            }
            None => unreachable!("semantic finding for unanalyzed file"),
        }
    }

    let mut findings = Vec::new();
    for (((sf, raw), allows), bad) in files
        .iter()
        .zip(raw_per)
        .zip(allows_per.iter_mut())
        .zip(bad_per)
    {
        findings.extend(suppress(&sf.ctx, raw, allows, bad));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings
}

/// Apply allow suppression to one file's raw findings and report
/// unused/malformed directives.
fn suppress(
    ctx: &FileCtx,
    raw: Vec<Finding>,
    allows: &mut [allow::Allow],
    bad_allows: Vec<allow::BadAllow>,
) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    'next: for f in raw {
        for a in allows.iter_mut() {
            if a.covers == f.line && a.rules.iter().any(|r| r == f.rule) {
                a.used = true;
                continue 'next;
            }
        }
        findings.push(f);
    }
    for a in allows.iter() {
        if !a.used {
            findings.push(Finding {
                file: ctx.rel_path.clone(),
                line: a.line,
                rule: rules::UNUSED_ALLOW,
                message: format!(
                    "allow({}) suppressed nothing — remove it or move it onto the offending line",
                    a.rules.join(", ")
                ),
            });
        }
    }
    for b in bad_allows {
        findings.push(Finding {
            file: ctx.rel_path.clone(),
            line: b.line,
            rule: rules::ALLOW_SYNTAX,
            message: b.message,
        });
    }
    findings
}

/// The per-file token-pattern rules (PR 7's catalogue), without allow
/// suppression — [`analyze_files`] applies that after the semantic layer
/// has contributed its findings.
fn raw_findings(ctx: &FileCtx, lexed: &Lexed, test_regions: &[(u32, u32)]) -> Vec<Finding> {
    let toks = &lexed.toks;
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));

    let mut raw: Vec<Finding> = Vec::new();
    let push = |rule: &'static str, line: u32, message: String, raw: &mut Vec<Finding>| {
        // One finding per (rule, line): several banned idents on a line
        // are one decision for the human reading the report.
        if !raw.iter().any(|f| f.rule == rule && f.line == line) {
            raw.push(Finding {
                file: ctx.rel_path.clone(),
                line,
                rule,
                message,
            });
        }
    };

    // --- wall-clock ------------------------------------------------------
    if !ctx.is_bench_crate && !ctx.is_test_code {
        for i in 0..toks.len() {
            if in_test(toks[i].line) {
                continue;
            }
            if toks[i].is_ident("Instant")
                && matches2(toks, i + 1, ':', ':')
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
            {
                push(
                    rules::WALL_CLOCK,
                    toks[i].line,
                    "`Instant::now()` outside crates/bench and test code — simulated time must come from the engine".into(),
                    &mut raw,
                );
            }
            if toks[i].is_ident("SystemTime") {
                push(
                    rules::WALL_CLOCK,
                    toks[i].line,
                    "`SystemTime` outside crates/bench and test code — wall-clock reads make runs host-dependent".into(),
                    &mut raw,
                );
            }
        }
    }

    // --- ambient-rng (applies everywhere, tests included) ----------------
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("thread_rng")
            || t.is_ident("OsRng")
            || t.is_ident("getrandom")
            || t.is_ident("from_entropy")
        {
            push(
                rules::AMBIENT_RNG,
                t.line,
                format!(
                    "ambient RNG `{}` — all randomness must derive from the master seed (Ctx::rng() or DetRng::derive*)",
                    t.text
                ),
                &mut raw,
            );
        }
        if t.is_ident("rand")
            && matches2(toks, i + 1, ':', ':')
            && toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            push(
                rules::AMBIENT_RNG,
                t.line,
                "`rand::random` — all randomness must derive from the master seed (Ctx::rng() or DetRng::derive*)".into(),
                &mut raw,
            );
        }
    }

    // --- unordered-iter / float-accum ------------------------------------
    if !ctx.is_test_code {
        let table = hash_symbols(toks);
        for cand in iteration_sites(toks, &table) {
            if in_test(cand.line) {
                continue;
            }
            let post = forward_window(toks, cand.start);
            let pre = backward_window(toks, cand.start);
            let has = |set: &[&str], win: &[usize]| {
                win.iter().any(|&j| {
                    toks[j].kind == TokKind::Ident && set.contains(&toks[j].text.as_str())
                })
            };
            let float_marker = pre
                .iter()
                .chain(post.iter())
                .any(|&j| is_float_marker(&toks[j]));
            let accumulates = has(&["sum", "product", "fold"], &post);
            if accumulates && float_marker {
                push(
                    rules::FLOAT_ACCUM,
                    cand.line,
                    format!(
                        "float accumulation over unordered iteration of `{}` — float sums are order-sensitive in the low bits; reduce in sorted order or annotate",
                        cand.receiver
                    ),
                    &mut raw,
                );
                continue;
            }
            // Sorters may appear after the iteration (`.collect()` then
            // `.sort()`, or `.collect::<BTreeMap<_, _>>()`) or before it
            // (`let v: BTreeSet<_> = map.keys().collect()`). A bare loop
            // header (`for k in map.keys() {`) carries no marker, so it
            // still flags.
            let ordered = has(SORTERS, &post) || has(SORTERS, &pre) || has(REDUCERS, &post);
            if !ordered {
                push(
                    rules::UNORDERED_ITER,
                    cand.line,
                    format!(
                        "iteration over hash container `{}` does not visibly feed a sort or order-insensitive reduction — sort the items or annotate why order cannot matter",
                        cand.receiver
                    ),
                    &mut raw,
                );
            }
        }
    }

    // --- actor-isolation --------------------------------------------------
    if !ctx.is_test_code {
        for i in 0..toks.len() {
            if in_test(toks[i].line) {
                continue;
            }
            if toks[i].is_ident("static") && toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
                push(
                    rules::ACTOR_ISOLATION,
                    toks[i].line,
                    "`static mut` — global mutable state breaks actor isolation (and is UB-prone); route state through an actor".into(),
                    &mut raw,
                );
            }
            if ctx.is_actor_crate
                && toks[i].kind == TokKind::Ident
                && SHARED_STATE.contains(&toks[i].text.as_str())
                && !in_use_statement(toks, i)
            {
                push(
                    rules::ACTOR_ISOLATION,
                    toks[i].line,
                    format!(
                        "shared-state primitive `{}` in an actor crate — actors communicate only through the engine; annotate with the architectural justification if this is deliberate",
                        toks[i].text
                    ),
                    &mut raw,
                );
            }
        }
    }

    raw
}

/// `toks[i] == a && toks[i+1] == b` for punctuation.
fn matches2(toks: &[Tok], i: usize, a: char, b: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(a)) && toks.get(i + 1).is_some_and(|t| t.is_punct(b))
}

/// Line ranges covered by `#[test]`- or `#[cfg(test)]`-gated items
/// (attribute line through the matching close brace).
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') || !toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Scan the attribute body for the ident `test`.
        let attr_line = toks[i].line;
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if toks[j].is_ident("test") {
                is_test_attr = true;
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Find the gated item's body: first `{` at depth 0 (then match it)
        // or `;` (attribute on a bodiless item).
        let mut depth = 0i32;
        let mut k = j;
        let mut close_line = attr_line;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
                if depth == 1 {
                    // Walk to the matching close brace.
                    let mut m = k + 1;
                    let mut d = 1i32;
                    while m < toks.len() && d > 0 {
                        if toks[m].is_punct('{') {
                            d += 1;
                        } else if toks[m].is_punct('}') {
                            d -= 1;
                        }
                        m += 1;
                    }
                    close_line = toks[m.saturating_sub(1).min(toks.len() - 1)].line;
                    k = m;
                    break;
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                close_line = t.line;
                k += 1;
                break;
            }
            k += 1;
        }
        regions.push((attr_line, close_line));
        i = k;
    }
    regions
}

/// Names declared with a hash-container type in this file: struct fields
/// and fn params (`name: HashMap<..>` / `name: &FxHashMap<..>`), plus
/// `let` bindings whose initializer mentions a hash type
/// (`let m = FxHashMap::default()`).
fn hash_symbols(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let add = |n: &str, names: &mut Vec<String>| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for i in 0..toks.len() {
        // `name : <type window containing a hash type>` — exclude `::`.
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
        {
            let mut depth = 0i32;
            for j in (i + 2)..toks.len().min(i + 50) {
                let t = &toks[j];
                if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0
                    && (t.is_punct(',') || t.is_punct(';') || t.is_punct('=') || t.is_punct('{'))
                {
                    break;
                } else if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                    add(&toks[i].text, &mut names);
                    break;
                }
            }
        }
        // `let [mut] name = <window containing a hash type>`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let mut depth = 0i32;
            for t in toks.iter().take(j + 80).skip(j + 1) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                    add(&name_tok.text, &mut names);
                    break;
                }
            }
        }
    }
    names
}

/// One detected hash-iteration site.
struct IterSite {
    /// Token index the scan windows anchor on.
    start: usize,
    line: u32,
    receiver: String,
}

/// Find iteration sites over known hash receivers: `recv.iter()`-style
/// chains and `for pat in [&][mut] path.recv {` loops.
fn iteration_sites(toks: &[Tok], table: &[String]) -> Vec<IterSite> {
    let mut sites = Vec::new();
    let known = |s: &str| table.iter().any(|n| n == s);
    for i in 0..toks.len() {
        // Method form: `<recv> . <iter_method> (`.
        if toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && known(&toks[i - 2].text)
        {
            sites.push(IterSite {
                start: i,
                line: toks[i].line,
                receiver: toks[i - 2].text.clone(),
            });
        }
        // For-loop form: `for <pat> in <expr ending in a known name> {`.
        if toks[i].is_ident("for") {
            // Locate `in` at pattern depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut found_in = None;
            while j < toks.len().min(i + 40) {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    // `impl Trait for Type {` and friends — not a loop.
                    break;
                } else if depth == 0 && t.is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_idx) = found_in else { continue };
            // The iterated expression: tokens up to the body `{`.
            let mut depth = 0i32;
            let mut last_ident: Option<usize> = None;
            let mut has_method_call = false;
            let mut k = in_idx + 1;
            while k < toks.len().min(in_idx + 40) {
                let t = &toks[k];
                if t.is_punct('{') && depth == 0 {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.kind == TokKind::Ident {
                    if ITER_METHODS.contains(&t.text.as_str())
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    {
                        // `for x in map.iter()` — the method form above
                        // already considered this site.
                        has_method_call = true;
                    }
                    last_ident = Some(k);
                }
                k += 1;
            }
            if has_method_call {
                continue;
            }
            if let Some(li) = last_ident {
                if known(&toks[li].text) {
                    sites.push(IterSite {
                        start: li,
                        line: toks[li].line,
                        receiver: toks[li].text.clone(),
                    });
                }
            }
        }
    }
    sites
}

/// Is token `i` inside a `use …;` item? Imports are not shared state —
/// only *usage* sites (types, constructors) need a justification, so the
/// actor-isolation rule skips them.
fn in_use_statement(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            // `use a::{b, c};` nests braces; keep walking if the brace
            // itself belongs to a use-tree (previous token is `::`-ish).
            if t.is_punct('{')
                && j >= 2
                && toks[j - 2].is_punct(':')
            {
                j -= 1;
                continue;
            }
            break;
        }
        j -= 1;
    }
    toks.get(j).is_some_and(|t| t.is_ident("use"))
}

/// Tokens from `start` to the end of the statement, plus the following
/// statement (where `ids.sort_unstable()` conventionally lives). A `{`
/// at depth 0 ends the window: whatever a block body does to the items
/// cannot canonicalize the order they were visited in.
fn forward_window(toks: &[Tok], start: usize) -> Vec<usize> {
    let mut win = Vec::new();
    let mut depth = 0i32;
    let mut i = start;
    let mut statements = 0u32;
    while i < toks.len().min(start + 220) {
        let t = &toks[i];
        if depth == 0 && t.is_punct('{') {
            break;
        }
        if depth == 0 && t.is_punct('}') {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            statements += 1;
            if statements == 2 {
                break;
            }
        }
        win.push(i);
        i += 1;
    }
    win
}

/// Tokens from the start of the enclosing statement up to `start` — where
/// a `let total: f64 = ...` type ascription lives.
fn backward_window(toks: &[Tok], start: usize) -> Vec<usize> {
    let mut win = Vec::new();
    let mut depth = 0i32;
    let mut i = start;
    while i > 0 && win.len() < 80 {
        i -= 1;
        let t = &toks[i];
        if t.is_punct('}') && depth == 0 {
            // The previous statement was a block — statement boundary.
            break;
        }
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            break;
        }
        win.push(i);
    }
    win
}

/// Token that signals float arithmetic: `f64`/`f32` (turbofish or
/// ascription) or a float literal (`0.0`, `1e-9`, `2f64`).
fn is_float_marker(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => t.text == "f64" || t.text == "f32",
        TokKind::Literal => {
            let s = &t.text;
            if !s.chars().next().is_some_and(|c| c.is_ascii_digit()) || s.starts_with("0x") {
                return false;
            }
            // `1.5`, `2f64`, `1e-9` — but not `1usize` (the `e` of a type
            // suffix is not an exponent unless a digit or sign follows).
            s.contains('.')
                || s.ends_with("f64")
                || s.ends_with("f32")
                || s
                    .char_indices()
                    .any(|(i, c)| {
                        (c == 'e' || c == 'E')
                            && s[i + 1..]
                                .chars()
                                .next()
                                .is_some_and(|n| n.is_ascii_digit() || n == '+' || n == '-')
                    })
        }
        _ => false,
    }
}
