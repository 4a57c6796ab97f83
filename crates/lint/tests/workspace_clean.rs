//! The acceptance gate: the whole workspace scans clean. Any new
//! violation — or any allow that went stale — fails this test (and the
//! dedicated CI step that runs the binary).

use lidc_lint::lexer::{lex, Tok};
use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let findings = lidc_lint::scan_workspace(&root).expect("scan");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let a = lidc_lint::scan_workspace(&root).expect("scan");
    let b = lidc_lint::scan_workspace(&root).expect("scan");
    assert_eq!(a, b, "a linter about determinism had better be deterministic");
}

/// The catalogue must carry all seven enforced rules (plus the two that
/// police the allow directives themselves), and the workspace must be
/// clean under every one of them — reported per rule so a regression
/// names the contract it broke.
#[test]
fn every_rule_is_cataloged_and_workspace_clean() {
    let enforced = [
        "wall-clock",
        "ambient-rng",
        "unordered-iter",
        "actor-isolation",
        "float-accum",
        "panic-path",
        "metric-key",
    ];
    let police = ["unused-allow", "allow-syntax"];
    assert_eq!(
        lidc_lint::rules::ALL.len(),
        enforced.len() + police.len(),
        "the catalogue lists exactly these rules"
    );
    for r in enforced.iter().chain(&police) {
        assert!(
            lidc_lint::rules::ALL.contains(r),
            "rule `{r}` missing from the catalogue"
        );
        assert!(!lidc_lint::rules::describe(r).is_empty());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let findings = lidc_lint::scan_workspace(&root).expect("scan");
    for r in enforced.iter().chain(&police) {
        let hits: Vec<String> =
            findings.iter().filter(|f| f.rule == *r).map(|f| f.render()).collect();
        assert!(hits.is_empty(), "rule `{r}` regressed:\n{}", hits.join("\n"));
    }
}

/// True when `toks` carry the inner attribute `#![<level>(unsafe_code)]`.
fn has_unsafe_code_attr(toks: &[Tok], level: &str) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(level)
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Product sources (`crates/*/src`, `src/`) hold exactly one `unsafe`
/// keyword: the feature-checked call into the SHA-NI kernel in
/// `crates/ndn/src/crypto.rs`. `lidc-ndn` denies unsafe code (so that one
/// call can be allowed) and every other library crate root forbids it.
/// Sources are lexed, so `unsafe` inside comments and strings is ignored.
#[test]
fn product_code_has_exactly_one_unsafe_keyword() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let mut unsafe_sites = Vec::new();
    let mut forbidding_roots = Vec::new();
    for path in lidc_lint::workspace_files(&root).expect("walk") {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        let parts: Vec<&str> = rel.split('/').collect();
        let in_product = parts[0] == "src" || matches!(parts[..], ["crates", _, "src", ..]);
        if !in_product {
            continue;
        }
        let toks = lex(&std::fs::read_to_string(&path).expect("read")).toks;
        for t in toks.iter().filter(|t| t.is_ident("unsafe")) {
            unsafe_sites.push(format!("{rel}:{}", t.line));
        }
        let crate_root = matches!(parts[..], ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"]);
        if rel == "crates/ndn/src/lib.rs" {
            assert!(has_unsafe_code_attr(&toks, "deny"), "{rel} must deny unsafe_code");
        } else if crate_root {
            assert!(has_unsafe_code_attr(&toks, "forbid"), "{rel} must forbid unsafe_code");
            forbidding_roots.push(rel);
        }
    }
    assert_eq!(unsafe_sites.len(), 1, "product `unsafe` keywords: {unsafe_sites:?}");
    assert!(
        unsafe_sites[0].starts_with("crates/ndn/src/crypto.rs:"),
        "the one `unsafe` belongs to the SHA-NI call: {unsafe_sites:?}"
    );
    assert!(
        forbidding_roots.iter().any(|r| r == "src/lib.rs") && forbidding_roots.len() >= 9,
        "every library crate root was checked: {forbidding_roots:?}"
    );
}

/// `--changed` reporting is a strict narrowing of the full scan: it must
/// never invent findings the workspace pass does not have.
#[test]
fn changed_scan_is_a_subset_of_the_full_scan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    if !root.join(".git").exists() {
        return; // packaged source, no git metadata — nothing to diff
    }
    let full = lidc_lint::scan_workspace(&root).expect("scan");
    let changed = lidc_lint::scan_changed(&root, "HEAD").expect("changed scan");
    for f in &changed {
        assert!(full.contains(f), "changed-only finding {} not in the full scan", f.render());
    }
}
