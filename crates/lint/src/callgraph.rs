//! A conservative workspace call graph over the [`crate::symbols`] tables.
//!
//! Call sites are recognized from the token stream; resolution tries, in
//! order:
//!
//! 1. **Path calls** (`Type::method(`, `module::func(`): if the
//!    penultimate segment names a type with that method, the edge goes to
//!    those definitions; otherwise candidates are filtered to fns whose
//!    module path ends with the leading segments (after `use`-alias
//!    expansion).
//! 2. **Method calls** (`recv.method(`): the receiver's type comes from
//!    the PR-7 symbol-table machinery generalized to arbitrary types —
//!    `self` (the enclosing impl type), declared params (`ctx: &mut
//!    Ctx<'_>`), `let`-ascribed or constructor-bound locals (`let f =
//!    Forwarder::new(...)`), and one level of `self.field` lookup through
//!    struct field types. A hit resolves to that type's method.
//! 3. **Opaque fallback**: anything unresolvable keeps an edge *by bare
//!    name* to every workspace fn with that name. This over-approximates
//!    (dyn dispatch, chained receivers, trait calls all stay covered), so
//!    reachability never silently drops a path — the soundness the
//!    inter-procedural rules lean on.
//!
//! Bare lowercase calls (`helper(`) resolve within the defining file's
//! crate first; bare uppercase parens (`Some(`, `Packet(`) are constructor
//! applications, not calls.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::symbols::{base_ty_of, FnDef, FnId, Workspace};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name.
    pub tok: usize,
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// Resolved receiver type, when the receiver's declared type was found
    /// (method calls only).
    pub recv_ty: Option<String>,
    /// Resolved callee definitions; empty means the call is **opaque** —
    /// nothing in the workspace matched, or matching was by-name only and
    /// found nothing.
    pub callees: Vec<FnId>,
    /// True when resolution fell back to by-name matching (or found
    /// nothing at all) rather than a type/path hit.
    pub opaque: bool,
}

/// The call graph: per-fn call sites plus a reachability helper.
pub struct CallGraph {
    /// `sites[f]` — call sites found in fn `f`'s body (nested fn bodies
    /// excluded: those belong to the nested definition).
    pub sites: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Build the graph for every fn in `ws`.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut sites = Vec::with_capacity(ws.fns.len());
        for id in 0..ws.fns.len() {
            sites.push(extract_sites(ws, id));
        }
        CallGraph { sites }
    }

    /// Every fn reachable from `roots` (inclusive) following resolved
    /// edges.
    pub fn reachable(&self, roots: &[FnId]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut stack: Vec<FnId> = roots.to_vec();
        while let Some(f) = stack.pop() {
            for site in &self.sites[f] {
                for &callee in &site.callees {
                    if seen.insert(callee) {
                        stack.push(callee);
                    }
                }
            }
        }
        seen
    }
}

/// Local name → base type ident, for one fn: params, `let` ascriptions,
/// constructor bindings, and `.len()`/`.count()` results (usize — the
/// `div`-by-variable heuristic wants those).
pub fn local_types(ws: &Workspace, id: FnId) -> BTreeMap<String, String> {
    let f = &ws.fns[id];
    let toks = ws.toks_of(id);
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    if let Some(ty) = &f.self_ty {
        map.insert("self".into(), ty.clone());
    }
    // --- params: `ident : <type window>` at paren depth 1 of the sig ----
    let (s0, s1) = f.sig;
    let mut depth = 0i32;
    let mut i = s0;
    while i < s1 {
        let t = &toks[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if depth == 1
            && t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
        {
            // Type window: through the `,` at depth 1 or the closing `)`.
            let mut d = 0i32;
            let mut j = i + 2;
            let start = j;
            while j < s1 {
                let t = &toks[j];
                if (t.is_punct(',') || t.is_punct(')')) && d == 0 {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    d -= 1;
                }
                j += 1;
            }
            let win: Vec<usize> = (start..j).collect();
            if let Some(ty) = base_ty_of(toks, &win) {
                map.insert(t.text.clone(), ty);
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // --- lets in the body ------------------------------------------------
    let (b0, b1) = f.body;
    let mut i = b0;
    while i < b1 {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            i = j;
            continue;
        };
        let name = name_tok.text.clone();
        // Ascription: `let name: Type = ...`.
        if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut d = 0i32;
            let mut k = j + 2;
            let start = k;
            while k < b1 {
                let t = &toks[k];
                if (t.is_punct('=') || t.is_punct(';')) && d == 0 {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    d -= 1;
                }
                k += 1;
            }
            let win: Vec<usize> = (start..k).collect();
            if let Some(ty) = base_ty_of(toks, &win) {
                map.insert(name, ty);
            }
            i = k;
            continue;
        }
        // Constructor binding: `let name = Type::...(` / `Type {`.
        if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            let k = j + 2;
            if let Some(t) = toks.get(k) {
                if t.kind == TokKind::Ident
                    && t.text.chars().next().is_some_and(|c| c.is_uppercase())
                    && (toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        || toks.get(k + 1).is_some_and(|t| t.is_punct('{')))
                {
                    map.insert(name.clone(), t.text.clone());
                }
            }
            // `.len()` / `.count()` tail before the `;` → usize.
            let mut d = 0i32;
            let mut k = j + 2;
            while k < b1 {
                let t = &toks[k];
                if t.is_punct(';') && d == 0 {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    d -= 1;
                }
                if d == 0
                    && t.is_punct('.')
                    && toks
                        .get(k + 1)
                        .is_some_and(|t| t.is_ident("len") || t.is_ident("count"))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')'))
                    && toks.get(k + 4).is_some_and(|t| t.is_punct(';'))
                {
                    map.insert(name.clone(), "usize".into());
                }
                k += 1;
            }
            i = k;
            continue;
        }
        i = j + 1;
    }
    map
}

/// Token ranges of fns nested strictly inside `id`'s body (they get their
/// own definitions; the outer fn must not scan them).
fn nested_ranges(ws: &Workspace, id: FnId) -> Vec<(usize, usize)> {
    let f = &ws.fns[id];
    let (b0, b1) = f.body;
    ws.files[f.file]
        .fns
        .iter()
        .filter(|&&other| other != id)
        .map(|&other| ws.fns[other].body)
        .filter(|&(o0, o1)| o0 > b0 && o1 <= b1)
        .collect()
}

/// Walk `id`'s body and extract call sites.
fn extract_sites(ws: &Workspace, id: FnId) -> Vec<CallSite> {
    let f = &ws.fns[id];
    let toks = ws.toks_of(id);
    let (b0, b1) = f.body;
    if b0 == b1 {
        return Vec::new();
    }
    let locals = local_types(ws, id);
    let nested = nested_ranges(ws, id);
    let in_nested = |i: usize| nested.iter().any(|&(a, b)| (a..b).contains(&i));
    let mut out = Vec::new();
    let mut i = b0;
    while i < b1 {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let name = t.text.clone();
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        // `fn name(` — a declaration, not a call.
        if prev.is_some_and(|p| p.is_ident("fn")) {
            i += 1;
            continue;
        }
        // Method call: `recv . name (`.
        if prev.is_some_and(|p| p.is_punct('.')) {
            let site = resolve_method(ws, f, &locals, toks, i, name);
            out.push(site);
            i += 1;
            continue;
        }
        // Path call: `seg :: name (`.
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            let site = resolve_path(ws, f, toks, i, name);
            out.push(site);
            i += 1;
            continue;
        }
        // Bare call — skip keywords, constructors, and macro heads.
        if KEYWORDS.contains(&name.as_str())
            || name.chars().next().is_some_and(|c| c.is_uppercase())
        {
            i += 1;
            continue;
        }
        let callees = resolve_bare(ws, f, &name);
        let opaque = callees.is_empty();
        out.push(CallSite {
            tok: i,
            line: t.line,
            name,
            recv_ty: None,
            callees,
            opaque,
        });
        i += 1;
    }
    out
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "fn", "unsafe", "as",
    "else", "break", "continue", "where", "use", "pub", "mod", "impl", "trait", "struct", "enum",
];

fn resolve_method(
    ws: &Workspace,
    f: &FnDef,
    locals: &BTreeMap<String, String>,
    toks: &[Tok],
    i: usize,
    name: String,
) -> CallSite {
    // Receiver tokens: walk back over `.`-joined segments.
    //   v.name(          → v
    //   self.name(       → self
    //   self.field.name( → field type via the struct table
    let mut recv_ty: Option<String> = None;
    if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokKind::Ident {
        let r = &toks[i - 2].text;
        let prev_is_chain = i >= 3 && (toks[i - 3].is_punct('.') || toks[i - 3].is_punct(')'));
        if !prev_is_chain {
            recv_ty = locals.get(r).cloned();
        } else if i >= 4 && toks[i - 3].is_punct('.') && toks[i - 4].is_ident("self") {
            // `self.field.name(` — field type of the enclosing impl type.
            if let Some(self_ty) = &f.self_ty {
                recv_ty = ws.files[f.file]
                    .fields
                    .get(&(self_ty.clone(), r.clone()))
                    .cloned();
            }
        }
    }
    if let Some(ty) = &recv_ty {
        if let Some(ids) = ws.methods.get(&(ty.clone(), name.clone())) {
            return CallSite {
                tok: i,
                line: toks[i].line,
                name,
                recv_ty,
                callees: ids.clone(),
                opaque: false,
            };
        }
    }
    // Opaque: every method/fn with this name, anywhere.
    let callees = ws.by_name.get(&name).cloned().unwrap_or_default();
    CallSite {
        tok: i,
        line: toks[i].line,
        name,
        recv_ty,
        callees,
        opaque: true,
    }
}

fn resolve_path(ws: &Workspace, f: &FnDef, toks: &[Tok], i: usize, name: String) -> CallSite {
    // Collect leading path segments: `a :: b :: name (`.
    let mut segs: Vec<String> = Vec::new();
    let mut j = i;
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        // Skip a turbofish/generic group: `Type::<T>::name` — rare; the
        // segment before `<...>` still resolves below via by-name.
        if j < 3 || toks[j - 3].kind != TokKind::Ident {
            break;
        }
        segs.push(toks[j - 3].text.clone());
        j -= 3;
    }
    segs.reverse();
    // Expand a leading `use` alias (`pit::Pit::insert` where
    // `pit` was imported) into its full path for module matching.
    if let Some(first) = segs.first() {
        if let Some(full) = ws.files[f.file].aliases.get(first) {
            let mut expanded = full.clone();
            expanded.extend(segs[1..].iter().cloned());
            segs = expanded;
        }
    }
    // `Type::method(` — penultimate segment is a type with this method.
    if let Some(ty) = segs.last() {
        if let Some(ids) = ws.methods.get(&(ty.clone(), name.clone())) {
            return CallSite {
                tok: i,
                line: toks[i].line,
                name,
                recv_ty: Some(ty.clone()),
                callees: ids.clone(),
                opaque: false,
            };
        }
    }
    // `module::func(` — by-name candidates whose module path ends with the
    // written segments (crate-prefix aliases like `lidc_ndn` match the
    // crate name `ndn` loosely via suffix/contains).
    let candidates = ws.by_name.get(&name).cloned().unwrap_or_default();
    if !segs.is_empty() {
        let narrowed: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                let m = &ws.fns[c].module;
                segs.iter().all(|s| {
                    let s = s.strip_prefix("lidc_").unwrap_or(s);
                    m.iter().any(|seg| seg == s) || ws.fns[c].self_ty.as_deref() == Some(s)
                })
            })
            .collect();
        if !narrowed.is_empty() {
            return CallSite {
                tok: i,
                line: toks[i].line,
                name,
                recv_ty: None,
                callees: narrowed,
                opaque: false,
            };
        }
    }
    CallSite {
        tok: i,
        line: toks[i].line,
        name,
        recv_ty: None,
        callees: candidates,
        opaque: true,
    }
}

fn resolve_bare(ws: &Workspace, f: &FnDef, name: &str) -> Vec<FnId> {
    let candidates = ws.by_name.get(name).cloned().unwrap_or_default();
    // Same file first, then same crate, then everything — the usual
    // shadowing order, approximated.
    let same_file: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&c| ws.fns[c].file == f.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&c| ws.fns[c].module.first() == f.module.first())
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::test_regions;
    use crate::classify;
    use crate::lexer::lex;

    fn build(files: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| {
                    let lexed = lex(s);
                    let regions = test_regions(&lexed.toks);
                    (classify(p), lexed, regions)
                })
                .collect(),
        );
        let cg = CallGraph::build(&ws);
        (ws, cg)
    }

    fn fn_named(ws: &Workspace, name: &str) -> FnId {
        ws.by_name.get(name).map(|v| v[0]).unwrap()
    }

    #[test]
    fn direct_call_resolves_same_file() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "fn a() { b(); }\nfn b() {}",
        )]);
        let a = fn_named(&ws, "a");
        let b = fn_named(&ws, "b");
        assert_eq!(cg.sites[a].len(), 1);
        assert_eq!(cg.sites[a][0].callees, vec![b]);
        assert!(!cg.sites[a][0].opaque);
        assert!(cg.reachable(&[a]).contains(&b));
    }

    #[test]
    fn method_resolves_via_declared_param_type() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "struct Pit;\nimpl Pit {\n    fn probe(&self) {}\n}\nfn scan(pit: &mut Pit) { pit.probe(); }",
        )]);
        let scan = fn_named(&ws, "scan");
        let probe = fn_named(&ws, "probe");
        let site = &cg.sites[scan][0];
        assert_eq!(site.recv_ty.as_deref(), Some("Pit"));
        assert_eq!(site.callees, vec![probe]);
        assert!(!site.opaque);
    }

    #[test]
    fn method_resolves_via_let_bound_constructor() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "struct Fwd;\nimpl Fwd {\n    fn new() -> Fwd { Fwd }\n    fn go(&self) {}\n}\nfn run() {\n    let f = Fwd::new();\n    f.go();\n}",
        )]);
        let run = fn_named(&ws, "run");
        let go = fn_named(&ws, "go");
        let go_site = cg.sites[run].iter().find(|s| s.name == "go").unwrap();
        assert_eq!(go_site.recv_ty.as_deref(), Some("Fwd"));
        assert_eq!(go_site.callees, vec![go]);
    }

    #[test]
    fn self_field_resolves_through_struct_table() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "struct Pit;\nimpl Pit {\n    fn sweep(&mut self) {}\n}\nstruct Fwd { pit: Pit }\nimpl Fwd {\n    fn tick(&mut self) { self.pit.sweep(); }\n}",
        )]);
        let tick = fn_named(&ws, "tick");
        let sweep = fn_named(&ws, "sweep");
        let site = &cg.sites[tick][0];
        assert_eq!(site.recv_ty.as_deref(), Some("Pit"));
        assert_eq!(site.callees, vec![sweep]);
    }

    #[test]
    fn unresolvable_method_keeps_opaque_by_name_edges() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "struct A;\nimpl A {\n    fn select(&self) {}\n}\nstruct B;\nimpl B {\n    fn select(&self) {}\n}\nfn pick(x: &Chooser) { x.strategy().select(); }",
        )]);
        let pick = fn_named(&ws, "pick");
        let site = cg.sites[pick].iter().find(|s| s.name == "select").unwrap();
        assert!(site.opaque, "chained receiver is unresolvable");
        assert_eq!(site.callees.len(), 2, "by-name fallback keeps both impls");
    }

    #[test]
    fn cross_file_path_call_resolves_by_module() {
        let (ws, cg) = build(&[
            (
                "crates/ndn/src/net.rs",
                "pub fn connect() {}",
            ),
            (
                "crates/core/src/overlay.rs",
                "use lidc_ndn::net;\nfn wire() { net::connect(); }",
            ),
        ]);
        let wire = fn_named(&ws, "wire");
        let connect = fn_named(&ws, "connect");
        let site = &cg.sites[wire][0];
        assert_eq!(site.callees, vec![connect]);
        assert!(!site.opaque);
    }

    #[test]
    fn reachability_transits_methods_and_stops_at_unrelated() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "struct T;\nimpl T {\n    fn a(&self) { self.b(); }\n    fn b(&self) { free(); }\n}\nfn free() {}\nfn island() {}",
        )]);
        let a = fn_named(&ws, "a");
        let r = cg.reachable(&[a]);
        assert!(r.contains(&fn_named(&ws, "b")));
        assert!(r.contains(&fn_named(&ws, "free")));
        assert!(!r.contains(&fn_named(&ws, "island")));
    }

    #[test]
    fn nested_fn_bodies_are_not_scanned_as_outer_sites() {
        let (ws, cg) = build(&[(
            "crates/ndn/src/x.rs",
            "fn outer() {\n    fn inner() { deep(); }\n    inner();\n}\nfn deep() {}",
        )]);
        let outer = fn_named(&ws, "outer");
        let names: Vec<&str> = cg.sites[outer].iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["inner"], "deep() belongs to inner, not outer");
        // But reachability still flows outer → inner → deep.
        assert!(cg.reachable(&[outer]).contains(&fn_named(&ws, "deep")));
    }
}
