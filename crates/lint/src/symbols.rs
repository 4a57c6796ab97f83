//! The workspace symbol graph: who defines what, where.
//!
//! PR 7's rules were per-file token patterns; the inter-procedural
//! `panic-path` rule needs to know which *function* a token lives in and
//! which functions that function can call. This module builds
//! the definition side of that picture from the lexed token streams:
//!
//! * every `fn` item — free functions, `impl` methods (with their enclosing
//!   type and, for `impl Trait for Type`, the trait), trait default
//!   methods, and nested fns — with its body token range;
//! * per-file `use` aliases (`use a::b::C;`, `use a::b::{C, D as E};`) so
//!   path calls resolve across crates;
//! * struct field types (`self.field.method()` receiver resolution);
//! * the module path each item sits in (crate name + `mod` nesting).
//!
//! Everything stays deliberately conservative and heuristic — no rustc, no
//! type inference beyond declared/let-bound types (the PR-7 machinery,
//! generalized from hash containers to arbitrary base type idents). Where
//! resolution fails, the call graph keeps an *opaque* edge so reachability
//! over-approximates instead of silently dropping paths.

use std::collections::BTreeMap;

use crate::analyze::FileCtx;
use crate::lexer::{Lexed, Tok, TokKind};

/// Index of a function definition in [`Workspace::fns`].
pub type FnId = usize;

/// One `fn` definition anywhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// The function's bare name.
    pub name: String,
    /// Base ident of the enclosing `impl` type (`Forwarder` for
    /// `impl Actor for Forwarder`), if any.
    pub self_ty: Option<String>,
    /// Base ident of the implemented trait (`Actor` in the example), or the
    /// trait a default method body sits in.
    pub trait_name: Option<String>,
    /// Module path: crate name, then `mod` nesting inside the file.
    pub module: Vec<String>,
    /// Token index range of the signature: `fn` through the token before
    /// the body `{` (or the terminating `;`).
    pub sig: (usize, usize),
    /// Token index range of the body including both braces; `start == end`
    /// for bodiless trait declarations.
    pub body: (usize, usize),
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Defined inside a test region or a test/bench/example file — such
    /// fns participate in resolution (soundness) but never host findings.
    pub is_test: bool,
}

/// One analyzed file: classification, token stream, and its symbols.
pub struct FileSyms {
    pub ctx: FileCtx,
    pub lexed: Lexed,
    /// `#[test]` / `#[cfg(test)]` line regions (from `analyze`).
    pub test_regions: Vec<(u32, u32)>,
    /// `use` aliases: local name → full path segments.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Struct field types: (struct name, field name) → base type ident.
    pub fields: BTreeMap<(String, String), String>,
    /// FnIds defined in this file, in source order.
    pub fns: Vec<FnId>,
}

/// The whole workspace's symbol tables.
pub struct Workspace {
    pub files: Vec<FileSyms>,
    pub fns: Vec<FnDef>,
    /// Bare fn/method name → every definition with that name.
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// (enclosing type, method name) → definitions.
    pub methods: BTreeMap<(String, String), Vec<FnId>>,
}

/// Derive the module path prefix from a workspace-relative path:
/// crate name (`crates/ndn/...` → `ndn`, else the root crate `lidc`),
/// then the in-crate file path with `src`/`lib`/`main`/`mod` elided
/// (`crates/ndn/src/net.rs` → `["ndn", "net"]`).
fn module_of(rel_path: &str) -> Vec<String> {
    let mut parts: Vec<&str> = rel_path.split('/').collect();
    let krate = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts.drain(..2).nth(1).unwrap().to_string()
    } else {
        "lidc".to_string()
    };
    let mut module = vec![krate];
    for (i, part) in parts.iter().enumerate() {
        let seg = if i + 1 == parts.len() {
            part.strip_suffix(".rs").unwrap_or(part)
        } else {
            part
        };
        if matches!(seg, "src" | "lib" | "main" | "mod") {
            continue;
        }
        module.push(seg.to_string());
    }
    module
}

/// One scanned file: its classification, lexed stream, and `#[test]` /
/// `#[cfg(test)]` line regions.
pub type ScannedFile = (FileCtx, Lexed, Vec<(u32, u32)>);

impl Workspace {
    /// Build the symbol graph over `files`, in scan order.
    pub fn build(files: Vec<ScannedFile>) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            methods: BTreeMap::new(),
        };
        for (ctx, lexed, test_regions) in files {
            let file_idx = ws.files.len();
            let module = module_of(&ctx.rel_path);
            let mut fs = FileSyms {
                ctx,
                lexed,
                test_regions,
                aliases: BTreeMap::new(),
                fields: BTreeMap::new(),
                fns: Vec::new(),
            };
            let end = fs.lexed.toks.len();
            let toks = fs.lexed.toks.clone();
            let regions = fs.test_regions.clone();
            let mut items = ItemParser {
                file: file_idx,
                file_is_test: fs.ctx.is_test_code,
                test_regions: &regions,
                toks: &toks,
                module,
                aliases: &mut fs.aliases,
                fields: &mut fs.fields,
                out: &mut ws.fns,
                fn_ids: &mut fs.fns,
            };
            items.parse_items(0, end, None);
            ws.files.push(fs);
        }
        for (id, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = &f.self_ty {
                ws.methods
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        ws
    }

    /// The token stream of the file defining `id`.
    pub fn toks_of(&self, id: FnId) -> &[Tok] {
        &self.files[self.fns[id].file].lexed.toks
    }

    /// True when `line` in `file` sits in a test region.
    pub fn in_test_region(&self, file: usize, line: u32) -> bool {
        self.files[file]
            .test_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Enclosing-impl context while parsing.
#[derive(Clone)]
struct ImplCtx {
    self_ty: Option<String>,
    trait_name: Option<String>,
}

struct ItemParser<'a> {
    file: usize,
    file_is_test: bool,
    test_regions: &'a [(u32, u32)],
    toks: &'a [Tok],
    module: Vec<String>,
    aliases: &'a mut BTreeMap<String, Vec<String>>,
    fields: &'a mut BTreeMap<(String, String), String>,
    out: &'a mut Vec<FnDef>,
    fn_ids: &'a mut Vec<FnId>,
}

impl ItemParser<'_> {
    /// Parse item-position constructs in `[i, end)`; `impl_ctx` is set
    /// inside an `impl`/`trait` body (so `fn` items become methods).
    fn parse_items(&mut self, mut i: usize, end: usize, impl_ctx: Option<&ImplCtx>) {
        while i < end {
            let t = &self.toks[i];
            if t.is_ident("mod") && self.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let name = self.toks[i + 1].text.clone();
                match self.toks.get(i + 2) {
                    Some(t) if t.is_punct('{') => {
                        let close = match_brace(self.toks, i + 2, end);
                        self.module.push(name);
                        self.parse_items(i + 3, close, None);
                        self.module.pop();
                        i = close + 1;
                        continue;
                    }
                    _ => {
                        i += 2;
                        continue;
                    }
                }
            }
            if t.is_ident("use") {
                i = self.parse_use(i, end);
                continue;
            }
            if t.is_ident("impl") {
                i = self.parse_impl(i, end);
                continue;
            }
            if t.is_ident("trait")
                && self.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let name = self.toks[i + 1].text.clone();
                // Find the trait body `{` at depth 0 (skipping supertrait
                // bounds and where clauses), then parse default methods.
                let mut j = i + 2;
                let mut depth = 0i32;
                while j < end {
                    let t = &self.toks[j];
                    if t.is_punct('{') && depth == 0 {
                        break;
                    }
                    bump_depth_at(self.toks, j, &mut depth);
                    if t.is_punct(';') && depth == 0 {
                        break; // `trait Alias = ...;` — nothing to parse
                    }
                    j += 1;
                }
                if j < end && self.toks[j].is_punct('{') {
                    let close = match_brace(self.toks, j, end);
                    let ctx = ImplCtx {
                        self_ty: None,
                        trait_name: Some(name),
                    };
                    self.parse_items(j + 1, close, Some(&ctx));
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if t.is_ident("struct")
                && self.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                i = self.parse_struct(i, end);
                continue;
            }
            if t.is_ident("fn") && self.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                i = self.parse_fn(i, end, impl_ctx);
                continue;
            }
            // Skip balanced brace groups we don't model (enum bodies, const
            // initializers, macro invocation bodies...).
            if t.is_punct('{') {
                i = match_brace(self.toks, i, end) + 1;
                continue;
            }
            i += 1;
        }
    }

    /// `use a::b::C;` / `use a::b::{C, D as E, f::G};` — record leaf
    /// aliases. Returns the index after the `;`.
    fn parse_use(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // prefix lengths at `{`
        let mut last: Option<String> = None;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct(';') {
                if let Some(name) = last.take() {
                    let mut path = prefix.clone();
                    path.push(name.clone());
                    self.aliases.insert(name, path);
                }
                return j + 1;
            }
            if t.kind == TokKind::Ident {
                if t.text == "as" {
                    // `X as Y`: the alias is Y, the path leaf is X.
                    let leaf = last.take();
                    if let (Some(leaf), Some(alias)) = (
                        leaf,
                        self.toks.get(j + 1).filter(|t| t.kind == TokKind::Ident),
                    ) {
                        let mut path = prefix.clone();
                        path.push(leaf);
                        self.aliases.insert(alias.text.clone(), path);
                    }
                    j += 2;
                    continue;
                }
                last = Some(t.text.clone());
            } else if t.is_punct(':')
                && self.toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                j += 2;
                continue;
            } else if t.is_punct('{') {
                stack.push(prefix.len());
            } else if t.is_punct(',') {
                if let Some(name) = last.take() {
                    let mut path = prefix.clone();
                    path.push(name.clone());
                    self.aliases.insert(name, path);
                }
                // Reset to the depth of the innermost group.
                if let Some(&base) = stack.last() {
                    prefix.truncate(base);
                }
            } else if t.is_punct('}') {
                if let Some(name) = last.take() {
                    let mut path = prefix.clone();
                    path.push(name.clone());
                    self.aliases.insert(name, path);
                }
                if let Some(base) = stack.pop() {
                    prefix.truncate(base);
                }
            } else if t.is_punct('*') {
                last = None; // glob — nothing to alias
            }
            j += 1;
        }
        end
    }

    /// `impl<...> [Trait for] Type { ... }` — parse the header, then the
    /// body as methods. Returns the index after the body.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        // Skip the generic parameter group right after `impl`.
        if j < end && self.toks[j].is_punct('<') {
            j = match_angle(self.toks, j, end) + 1;
        }
        // Collect header tokens up to the body `{` (stopping a depth-0
        // `where` clause changes nothing: `for` can't appear there first).
        let mut depth = 0i32;
        let mut header: Vec<usize> = Vec::new();
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('{') && depth == 0 {
                break;
            }
            if t.is_punct(';') && depth == 0 {
                return j + 1; // `impl Trait for Type;`-style (rare)
            }
            bump_depth_at(self.toks, j, &mut depth);
            header.push(j);
            j += 1;
        }
        if j >= end {
            return end;
        }
        // Split at a top-level `for` (lifetimes `for<'a>` sit inside `<>`
        // groups and are never at our recorded depth 0 — match_angle above
        // and bump_depth track `<` only after `impl`, so a `for<'a>` HRTB
        // in a where clause could confuse us; impl headers in this
        // workspace don't use them).
        let split = header.iter().position(|&k| {
            self.toks[k].is_ident("for")
                && !self.toks.get(k + 1).is_some_and(|t| t.is_punct('<'))
        });
        let (trait_name, ty_toks) = match split {
            Some(p) => (
                base_ty_of(self.toks, &header[..p]),
                header[p + 1..].to_vec(),
            ),
            None => (None, header.clone()),
        };
        let self_ty = base_ty_of(self.toks, &ty_toks);
        let close = match_brace(self.toks, j, end);
        let ctx = ImplCtx {
            self_ty,
            trait_name,
        };
        self.parse_items(j + 1, close, Some(&ctx));
        close + 1
    }

    /// `struct Name { field: Type, ... }` — record field base types.
    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let name = self.toks[i + 1].text.clone();
        let mut j = i + 2;
        let mut depth = 0i32;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('{') && depth == 0 {
                break;
            }
            if t.is_punct(';') && depth == 0 {
                return j + 1; // unit or tuple struct
            }
            if t.is_punct('(') && depth == 0 {
                // Tuple struct: skip the field list, then expect `;`.
                let mut d = 1i32;
                j += 1;
                while j < end && d > 0 {
                    if self.toks[j].is_punct('(') {
                        d += 1;
                    } else if self.toks[j].is_punct(')') {
                        d -= 1;
                    }
                    j += 1;
                }
                continue;
            }
            bump_depth_at(self.toks, j, &mut depth);
            j += 1;
        }
        if j >= end {
            return end;
        }
        let close = match_brace(self.toks, j, end);
        // Fields: `ident :` at brace depth 1, type window up to the
        // field-separating `,` at depth 1.
        let mut k = j + 1;
        while k < close {
            let t = &self.toks[k];
            if t.kind == TokKind::Ident
                && self.toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && !self.toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                let field = t.text.clone();
                // Type window: through the `,` at depth 0 (rel. to here).
                let mut d = 0i32;
                let mut m = k + 2;
                let start = m;
                while m < close {
                    let t = &self.toks[m];
                    if t.is_punct(',') && d == 0 {
                        break;
                    }
                    bump_depth_at(self.toks, m, &mut d);
                    m += 1;
                }
                let win: Vec<usize> = (start..m).collect();
                if let Some(ty) = base_ty_of(self.toks, &win) {
                    self.fields.insert((name.clone(), field), ty);
                }
                k = m + 1;
                continue;
            }
            // Skip attribute groups and visibility modifiers naturally.
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                let mut d = 1i32;
                k += 1;
                while k < close && d > 0 {
                    let t = &self.toks[k];
                    if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                        d += 1;
                    } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                        d -= 1;
                    }
                    k += 1;
                }
                continue;
            }
            k += 1;
        }
        close + 1
    }

    /// `fn name(...) [-> T] [where ...] { body }` — record the definition
    /// and recurse into the body for nested items. Returns the index after
    /// the body (or the `;` for bodiless declarations).
    fn parse_fn(&mut self, i: usize, end: usize, impl_ctx: Option<&ImplCtx>) -> usize {
        let name = self.toks[i + 1].text.clone();
        let line = self.toks[i].line;
        // Scan for the body `{` at depth 0, or a `;` (trait declaration).
        let mut j = i + 2;
        let mut depth = 0i32;
        // Skip generic params on the fn itself.
        if j < end && self.toks[j].is_punct('<') {
            j = match_angle(self.toks, j, end) + 1;
        }
        let sig_start = i;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('{') && depth == 0 {
                break;
            }
            if t.is_punct(';') && depth == 0 {
                // Bodiless: trait method declaration / extern fn.
                self.push_fn(name, line, (sig_start, j), (j, j), impl_ctx);
                return j + 1;
            }
            bump_depth_at(self.toks, j, &mut depth);
            j += 1;
        }
        if j >= end {
            return end;
        }
        let close = match_brace(self.toks, j, end);
        self.push_fn(
            name,
            line,
            (sig_start, j),
            (j, close + 1),
            impl_ctx,
        );
        // Nested items (fns, impls) inside the body.
        self.parse_items(j + 1, close, None);
        close + 1
    }

    fn push_fn(
        &mut self,
        name: String,
        line: u32,
        sig: (usize, usize),
        body: (usize, usize),
        impl_ctx: Option<&ImplCtx>,
    ) {
        let in_test_region = self
            .test_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line));
        let id = self.out.len();
        self.out.push(FnDef {
            file: self.file,
            name,
            self_ty: impl_ctx.and_then(|c| c.self_ty.clone()),
            trait_name: impl_ctx.and_then(|c| c.trait_name.clone()),
            module: self.module.clone(),
            sig,
            body,
            line,
            is_test: self.file_is_test || in_test_region,
        });
        self.fn_ids.push(id);
    }
}

/// Index of the `}` matching the `{` at `open` (or `end - 1`).
pub fn match_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < end {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Index of the `>` matching the `<` at `open` (or `end - 1`). The lexer
/// emits `>>` as two tokens, so plain counting works.
fn match_angle(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < end {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

fn bump_depth(t: &Tok, depth: &mut i32) {
    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
        *depth += 1;
    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
        *depth -= 1;
    }
}

/// [`bump_depth`], except a `>` that closes a `->` return arrow (or a
/// `=>` fat arrow) is an operator, not a generic-group close. The lexer
/// emits single-char puncts, so the arrow arrives as two tokens.
fn bump_depth_at(toks: &[Tok], i: usize, depth: &mut i32) {
    if toks[i].is_punct('>')
        && i > 0
        && (toks[i - 1].is_punct('-') || toks[i - 1].is_punct('='))
    {
        return;
    }
    bump_depth(&toks[i], depth);
}

/// Base type ident of a type token window: skips references, `mut`,
/// `dyn`/`impl`, lifetimes; resolves the path's **last** segment before any
/// generic arguments (`tables::pit::Pit<K>` → `Pit`,
/// `&mut Ctx<'_>` → `Ctx`, `Arc<RwLock<T>>` → `Arc`).
pub fn base_ty_of(toks: &[Tok], win: &[usize]) -> Option<String> {
    let mut last: Option<String> = None;
    let mut depth = 0i32;
    for &k in win {
        let t = &toks[k];
        if t.is_punct('<') {
            // Generic args of the segment we just read — done at depth 0.
            if depth == 0 && last.is_some() {
                return last;
            }
            depth += 1;
            continue;
        }
        if t.is_punct('>') {
            depth -= 1;
            continue;
        }
        if depth > 0 {
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "mut" | "dyn" | "impl" | "const" => {}
                "where" => break,
                _ => last = Some(t.text.clone()),
            }
        } else if t.is_punct('(') && last.is_none() {
            // Tuple / fn-pointer type — no single base ident.
            return None;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::test_regions;
    use crate::classify;
    use crate::lexer::lex;

    fn build_one(path: &str, src: &str) -> Workspace {
        let lexed = lex(src);
        let regions = test_regions(&lexed.toks);
        Workspace::build(vec![(classify(path), lexed, regions)])
    }

    #[test]
    fn free_fn_and_method_defs() {
        let ws = build_one(
            "crates/ndn/src/x.rs",
            "fn free() { helper(); }\n\
             struct Fwd { pit: Pit }\n\
             impl Fwd {\n    fn probe(&self) {}\n}\n\
             impl Actor for Fwd {\n    fn on_message(&mut self) {}\n}",
        );
        let names: Vec<&str> = ws.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "probe", "on_message"]);
        assert_eq!(ws.fns[0].self_ty, None);
        assert_eq!(ws.fns[1].self_ty.as_deref(), Some("Fwd"));
        assert_eq!(ws.fns[2].self_ty.as_deref(), Some("Fwd"));
        assert_eq!(ws.fns[2].trait_name.as_deref(), Some("Actor"));
        assert_eq!(ws.fns[0].module, vec!["ndn", "x"]);
        assert_eq!(
            ws.files[0].fields.get(&("Fwd".into(), "pit".into())),
            Some(&"Pit".to_string())
        );
    }

    #[test]
    fn generic_impl_and_module_nesting() {
        let ws = build_one(
            "crates/core/src/x.rs",
            "mod inner {\n    impl<K: Ord> Table<K> {\n        fn get(&self) {}\n    }\n}",
        );
        assert_eq!(ws.fns.len(), 1);
        assert_eq!(ws.fns[0].self_ty.as_deref(), Some("Table"));
        assert_eq!(ws.fns[0].module, vec!["core", "x", "inner"]);
    }

    #[test]
    fn use_aliases_resolve_leaves_and_renames() {
        let ws = build_one(
            "crates/core/src/x.rs",
            "use lidc_ndn::net::connect;\nuse std::collections::{BTreeMap, HashMap as Unordered};\n",
        );
        let al = &ws.files[0].aliases;
        assert_eq!(
            al.get("connect"),
            Some(&vec!["lidc_ndn".to_string(), "net".into(), "connect".into()])
        );
        assert_eq!(
            al.get("Unordered"),
            Some(&vec!["std".to_string(), "collections".into(), "HashMap".into()])
        );
        assert!(al.get("HashMap").is_none(), "renamed import keeps only the alias");
    }

    #[test]
    fn nested_fns_are_separate_defs() {
        let ws = build_one(
            "crates/core/src/x.rs",
            "fn outer() {\n    fn inner() {}\n    inner();\n}",
        );
        let names: Vec<&str> = ws.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &ws.fns[0];
        let inner = &ws.fns[1];
        assert!(
            inner.body.0 > outer.body.0 && inner.body.1 <= outer.body.1,
            "inner body nests inside outer body"
        );
    }

    #[test]
    fn trait_default_methods_carry_the_trait() {
        let ws = build_one(
            "crates/simcore/src/x.rs",
            "trait Actor {\n    fn on_message(&mut self);\n    fn on_batch(&mut self) {\n        self.on_message();\n    }\n}",
        );
        assert_eq!(ws.fns.len(), 2);
        assert_eq!(ws.fns[0].trait_name.as_deref(), Some("Actor"));
        assert_eq!(ws.fns[0].body.0, ws.fns[0].body.1, "declaration has no body");
        assert!(ws.fns[1].body.1 > ws.fns[1].body.0);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let ws = build_one(
            "crates/core/src/x.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}",
        );
        assert!(!ws.fns[0].is_test);
        assert!(ws.fns[1].is_test);
    }

    #[test]
    fn base_ty_examples() {
        let cases = [
            ("Ctx<'_>", Some("Ctx")),
            ("&mut Ctx<'_>", Some("Ctx")),
            ("tables::pit::Pit<K>", Some("Pit")),
            ("Arc<RwLock<T>>", Some("Arc")),
            ("u64", Some("u64")),
        ];
        for (src, want) in cases {
            let lexed = lex(src);
            let win: Vec<usize> = (0..lexed.toks.len()).collect();
            assert_eq!(
                base_ty_of(&lexed.toks, &win).as_deref(),
                want,
                "src = {src}"
            );
        }
    }
}
