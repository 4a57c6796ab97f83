//! Fixture tests: every rule is demonstrated by a snippet the engine
//! flags — and stops flagging under a scoped `allow` — plus the
//! exemption matrix (test regions, bench crate, engine crate) and the
//! policing of the allow directives themselves.

use lidc_lint::{analyze, classify, FileCtx};

/// Actor-crate source context (the strictest configuration).
fn actor_ctx() -> FileCtx {
    classify("crates/ndn/src/forwarder.rs")
}

/// Non-actor library source context.
fn lib_ctx() -> FileCtx {
    classify("crates/genomics/src/aligner.rs")
}

fn rules_at(ctx: &FileCtx, src: &str) -> Vec<(String, u32)> {
    analyze(ctx, src)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

#[test]
fn wall_clock_instant_now_flagged_and_allowed() {
    let src = "fn t() { let s = std::time::Instant::now(); }";
    let f = rules_at(&lib_ctx(), src);
    assert_eq!(f, vec![("wall-clock".to_string(), 1)]);

    let allowed = "fn t() {\n    // lidc-lint: allow(wall-clock) reason=\"calibration measures the host\"\n    let s = std::time::Instant::now();\n}";
    assert!(rules_at(&lib_ctx(), allowed).is_empty(), "allow suppresses and is marked used");
}

#[test]
fn wall_clock_system_time_flagged() {
    let src = "use std::time::SystemTime;\nfn t() -> SystemTime { SystemTime::now() }";
    let f = rules_at(&lib_ctx(), src);
    assert!(f.iter().all(|(r, _)| r == "wall-clock"));
    assert_eq!(f.len(), 2, "one finding per line, deduped within a line");
}

#[test]
fn wall_clock_exempt_in_bench_crate_tests_and_cfg_test() {
    let src = "fn t() { let s = std::time::Instant::now(); }";
    assert!(rules_at(&classify("crates/bench/src/bin/table1.rs"), src).is_empty());
    assert!(rules_at(&classify("crates/ndn/tests/props.rs"), src).is_empty());

    let gated = "#[cfg(test)]\nmod tests {\n    fn t() { let s = std::time::Instant::now(); }\n}";
    assert!(rules_at(&lib_ctx(), gated).is_empty(), "cfg(test) region is exempt");
}

#[test]
fn ambient_rng_flagged_even_in_tests() {
    let src = "fn r() -> u64 { rand::thread_rng().gen() }";
    assert_eq!(rules_at(&lib_ctx(), src), vec![("ambient-rng".to_string(), 1)]);
    assert_eq!(
        rules_at(&classify("tests/chaos.rs"), src),
        vec![("ambient-rng".to_string(), 1)],
        "seeded tests are part of the contract too"
    );
    let src2 = "fn r() -> f64 { rand::random() }";
    assert_eq!(rules_at(&lib_ctx(), src2), vec![("ambient-rng".to_string(), 1)]);
}

#[test]
fn unordered_iter_flagged_without_sort() {
    let src = "struct S { faces: HashMap<u32, Face> }\nimpl S {\n    fn ids(&self) -> Vec<u32> {\n        self.faces.keys().copied().collect()\n    }\n}";
    assert_eq!(rules_at(&actor_ctx(), src), vec![("unordered-iter".to_string(), 4)]);
}

#[test]
fn unordered_iter_ok_when_feeding_a_sort() {
    let same_stmt = "struct S { faces: HashMap<u32, Face> }\nfn f(s: &S) {\n    let v: BTreeSet<u32> = s.faces.keys().copied().collect();\n}";
    assert!(rules_at(&actor_ctx(), same_stmt).is_empty());

    let next_stmt = "struct S { faces: HashMap<u32, Face> }\nimpl S {\n    fn ids(&self) -> Vec<u32> {\n        let mut ids: Vec<u32> = self.faces.keys().copied().collect();\n        ids.sort_unstable();\n        ids\n    }\n}";
    assert!(rules_at(&actor_ctx(), next_stmt).is_empty(), "sort in the following statement counts");
}

#[test]
fn unordered_iter_ok_under_order_insensitive_reduction() {
    let src = "struct S { faces: HashMap<u32, Face> }\nfn n(s: &S) -> usize { s.faces.values().count() }";
    assert!(rules_at(&actor_ctx(), src).is_empty());
    let sum = "struct S { load: FxHashMap<u32, u64> }\nfn n(s: &S) -> u64 { s.load.values().sum::<u64>() }";
    assert!(rules_at(&actor_ctx(), sum).is_empty(), "integer sums commute");
}

#[test]
fn unordered_iter_for_loop_requires_annotation() {
    let src = "struct S { faces: HashMap<u32, Face> }\nfn f(s: &S) {\n    for (k, v) in &s.faces {\n        touch(k, v);\n    }\n}";
    assert_eq!(rules_at(&actor_ctx(), src), vec![("unordered-iter".to_string(), 3)]);

    let allowed = "struct S { faces: HashMap<u32, Face> }\nfn f(s: &S) {\n    // lidc-lint: allow(unordered-iter) reason=\"commutative per-face counter bump\"\n    for (k, v) in &s.faces {\n        touch(k, v);\n    }\n}";
    assert!(rules_at(&actor_ctx(), allowed).is_empty());
}

#[test]
fn unordered_iter_for_loop_header_method_form_flagged_once() {
    let src = "struct S { pit: FxHashMap<u64, Entry> }\nfn f(s: &S) {\n    for key in s.pit.keys() {\n        touch(key);\n    }\n}";
    assert_eq!(rules_at(&actor_ctx(), src), vec![("unordered-iter".to_string(), 3)]);
}

#[test]
fn unordered_iter_tracks_let_bound_constructors() {
    let src = "fn f() {\n    let mut seen = FxHashSet::default();\n    fill(&mut seen);\n    for s in &seen { touch(s); }\n}";
    assert_eq!(rules_at(&actor_ctx(), src), vec![("unordered-iter".to_string(), 4)]);
}

#[test]
fn float_accum_flagged_over_hash_iteration() {
    let src = "struct S { load: HashMap<u32, f64> }\nfn t(s: &S) -> f64 { s.load.values().sum::<f64>() }";
    assert_eq!(rules_at(&actor_ctx(), src), vec![("float-accum".to_string(), 2)]);

    let ascribed = "struct S { load: HashMap<u32, f64> }\nfn t(s: &S) -> f64 {\n    let total: f64 = s.load.values().sum();\n    total\n}";
    assert_eq!(rules_at(&actor_ctx(), ascribed), vec![("float-accum".to_string(), 3)]);
}

#[test]
fn float_accum_allowed_with_reason() {
    let src = "struct S { load: HashMap<u32, f64> }\nfn t(s: &S) -> f64 {\n    // lidc-lint: allow(float-accum) reason=\"diagnostic display only, never compared\"\n    s.load.values().sum::<f64>()\n}";
    assert!(rules_at(&actor_ctx(), src).is_empty());
}

#[test]
fn actor_isolation_flags_shared_state_in_actor_crates_only() {
    let src = "use parking_lot::RwLock;\nstruct S { inner: Arc<RwLock<State>> }";
    let f = rules_at(&actor_ctx(), src);
    assert_eq!(
        f,
        vec![("actor-isolation".to_string(), 2)],
        "the usage site flags; the import alone is not shared state"
    );
    assert!(
        rules_at(&lib_ctx(), src).is_empty(),
        "genomics is a compute library, not an actor crate"
    );
    assert!(
        rules_at(&classify("crates/simcore/src/engine.rs"), src).is_empty(),
        "the engine implements the machinery and is exempt"
    );

    let use_tree = "use std::sync::{Arc, Mutex};\nuse std::cell::RefCell;";
    assert!(
        rules_at(&actor_ctx(), use_tree).is_empty(),
        "brace-nested use trees are imports too"
    );
}

#[test]
fn actor_isolation_flags_static_mut_everywhere() {
    let src = "static mut COUNTER: u64 = 0;";
    assert_eq!(
        rules_at(&classify("crates/simcore/src/engine.rs"), src),
        vec![("actor-isolation".to_string(), 1)],
        "static mut is banned even in the engine"
    );
}

#[test]
fn unused_allow_is_a_finding() {
    let src = "// lidc-lint: allow(wall-clock) reason=\"left behind after a refactor\"\nfn f() { }";
    assert_eq!(rules_at(&lib_ctx(), src), vec![("unused-allow".to_string(), 1)]);
}

#[test]
fn malformed_allow_is_a_finding() {
    let src = "fn f() { } // lidc-lint: allow(wall-clock)";
    assert_eq!(rules_at(&lib_ctx(), src), vec![("allow-syntax".to_string(), 1)]);
    let unknown = "fn f() { } // lidc-lint: allow(no-such-rule) reason=\"x\"";
    assert_eq!(rules_at(&lib_ctx(), unknown), vec![("allow-syntax".to_string(), 1)]);
}

#[test]
fn allow_on_wrong_rule_does_not_suppress() {
    let src = "fn t() {\n    // lidc-lint: allow(ambient-rng) reason=\"wrong rule\"\n    let s = std::time::Instant::now();\n}";
    let f = rules_at(&lib_ctx(), src);
    assert!(f.contains(&("wall-clock".to_string(), 3)), "finding survives: {f:?}");
    assert!(f.contains(&("unused-allow".to_string(), 2)), "and the allow is unused: {f:?}");
}

#[test]
fn trailing_allow_covers_its_own_line() {
    let src = "fn t() {\n    let s = std::time::Instant::now(); // lidc-lint: allow(wall-clock) reason=\"host calibration\"\n}";
    assert!(rules_at(&lib_ctx(), src).is_empty());
}

#[test]
fn idents_inside_strings_and_comments_never_fire() {
    let src = "fn f() -> &'static str {\n    // Instant::now and thread_rng and HashMap in a comment\n    \"SystemTime rand::random static mut\"\n}";
    assert!(rules_at(&actor_ctx(), src).is_empty());
}

#[test]
fn findings_render_rustc_style() {
    let src = "fn t() { let s = std::time::Instant::now(); }";
    let f = analyze(&classify("crates/core/src/gateway.rs"), src);
    assert_eq!(f.len(), 1);
    let line = f[0].render();
    assert!(
        line.starts_with("crates/core/src/gateway.rs:1: rule[wall-clock]: "),
        "got: {line}"
    );
}

// ---------------------------------------------------------------------
// Cross-file semantic rules (PR 9). These need `analyze_files` — the
// call graph only exists across a whole file set.

use lidc_lint::{analyze_files, SourceFile};

fn multi(files: &[(&str, &str)]) -> Vec<(String, String, u32)> {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile { ctx: classify(p), src: (*s).to_string() })
        .collect();
    analyze_files(&files)
        .into_iter()
        .map(|f| (f.file, f.rule.to_string(), f.line))
        .collect()
}

const HANDLER_CALLS_HELPER: &str = "pub struct F;\n\
impl Actor for F {\n\
    fn on_message(&mut self, ctx: &mut Ctx<'_>) {\n\
        helpers::poke();\n\
    }\n\
}";

#[test]
fn panic_path_flags_unwrap_reachable_from_handler_cross_file() {
    let helper = "pub fn poke() {\n    let v: Option<u32> = None;\n    v.unwrap();\n}";
    let f = multi(&[
        ("crates/ndn/src/actor_fixture.rs", HANDLER_CALLS_HELPER),
        ("crates/ndn/src/helpers.rs", helper),
    ]);
    assert_eq!(
        f,
        vec![("crates/ndn/src/helpers.rs".to_string(), "panic-path".to_string(), 3)],
        "the panic site is flagged in the callee, not at the handler"
    );
}

#[test]
fn panic_path_allow_on_the_site_suppresses() {
    let helper = "pub fn poke() {\n    let v: Option<u32> = Some(1);\n    // lidc-lint: allow(panic-path) reason=\"v is Some on the line above\"\n    v.unwrap();\n}";
    let f = multi(&[
        ("crates/ndn/src/actor_fixture.rs", HANDLER_CALLS_HELPER),
        ("crates/ndn/src/helpers.rs", helper),
    ]);
    assert!(f.is_empty(), "scoped allow must suppress (and count as used): {f:?}");
}

#[test]
fn panic_path_ignores_non_actor_crates_and_unreachable_fns() {
    // Same shape in a compute library: not an actor crate, no finding.
    let f = multi(&[
        ("crates/genomics/src/actor_fixture.rs", HANDLER_CALLS_HELPER),
        ("crates/genomics/src/helpers.rs", "pub fn poke() { None::<u32>.unwrap(); }"),
    ]);
    assert!(f.is_empty(), "genomics is not an actor crate: {f:?}");

    // An unwrap in a fn no handler reaches stays silent.
    let f = multi(&[(
        "crates/ndn/src/quiet.rs",
        "pub fn cold() { None::<u32>.unwrap(); }",
    )]);
    assert!(f.is_empty(), "unreachable from any handler: {f:?}");
}

/// A minimal stand-in for the checked-in metric registry.
const REGISTRY_FIXTURE: &str = "/// Interests forwarded.\npub const NDN_TX: &str = \"ndn.tx\";\n";

#[test]
fn metric_key_flags_unregistered_and_orphaned_keys() {
    let user = "fn f(ctx: &mut Ctx<'_>) {\n    ctx.metrics().incr(\"ndn.tx\", 1);\n    ctx.metrics().incr(\"ndn.txx\", 1);\n}";
    let f = multi(&[
        (lidc_lint::semantic::REGISTRY_PATH, REGISTRY_FIXTURE),
        ("crates/ndn/src/metrics_user.rs", user),
    ]);
    assert_eq!(
        f,
        vec![("crates/ndn/src/metrics_user.rs".to_string(), "metric-key".to_string(), 3)],
        "the typo'd key is flagged; the registered one is not"
    );

    // A registered key that nothing records is an orphan — flagged at
    // the registry, so the schema cannot rot.
    let f = multi(&[
        (lidc_lint::semantic::REGISTRY_PATH, REGISTRY_FIXTURE),
        ("crates/ndn/src/metrics_user.rs", "fn f() {}"),
    ]);
    assert_eq!(
        f,
        vec![(lidc_lint::semantic::REGISTRY_PATH.to_string(), "metric-key".to_string(), 2)],
        "the orphaned registry entry is flagged at its declaration"
    );
}

#[test]
fn metric_key_dynamic_key_needs_allow() {
    let user = "fn f(ctx: &mut Ctx<'_>, key: &str) {\n    ctx.metrics().incr(key, 1);\n}";
    let f = multi(&[
        (lidc_lint::semantic::REGISTRY_PATH, REGISTRY_FIXTURE),
        ("crates/ndn/src/metrics_user.rs", user),
    ]);
    // The dynamic key plus the now-orphaned registry entry.
    assert!(
        f.contains(&("crates/ndn/src/metrics_user.rs".to_string(), "metric-key".to_string(), 2)),
        "a non-literal key cannot be checked and must be flagged: {f:?}"
    );

    let allowed = "fn f(ctx: &mut Ctx<'_>, key: &str) {\n    // lidc-lint: allow(metric-key) reason=\"key is one of the registered ndn.* constants\"\n    ctx.metrics().incr(key, 1);\n}";
    let f = multi(&[
        (lidc_lint::semantic::REGISTRY_PATH, REGISTRY_FIXTURE),
        ("crates/ndn/src/recorder.rs", "fn rec(ctx: &mut Ctx<'_>) { ctx.metrics().incr(\"ndn.tx\", 1); }"),
        ("crates/ndn/src/metrics_user.rs", allowed),
    ]);
    assert!(f.is_empty(), "the annotated dynamic key is accepted: {f:?}");
}
