//! `lidc_lint` — workspace determinism & actor-isolation static analysis.
//!
//! The LIDC workspace's central claim is a determinism contract:
//! bit-identical schedules, metrics, and chaos fingerprints for a fixed
//! seed. That contract is enforced by convention (BTreeMap by default,
//! per-actor `DetRng` streams, seeded `FaultSchedule::generate`) — and
//! conventions erode. This crate is the tool that makes the convention
//! checkable on every commit: a hand-rolled lexer plus lightweight
//! token-pattern rule passes (no rustc plumbing, no vendored dependencies)
//! that flag the ways nondeterminism has actually tried to enter this
//! codebase:
//!
//! * [`rules::WALL_CLOCK`] — `Instant::now` / `SystemTime` outside
//!   `crates/bench` and test code;
//! * [`rules::AMBIENT_RNG`] — `thread_rng` / `rand::random` / OS entropy
//!   anywhere;
//! * [`rules::UNORDERED_ITER`] — hash-container iteration that doesn't
//!   visibly feed a sort or an order-insensitive reduction;
//! * [`rules::ACTOR_ISOLATION`] — `static mut`, or `Mutex`/`RwLock`/
//!   `RefCell` shared state inside actor crates;
//! * [`rules::FLOAT_ACCUM`] — float accumulation over unordered
//!   iteration.
//!
//! Sites where a rule is deliberately broken carry a scoped, justified
//! escape hatch (`// lidc-lint: allow(<rule>) reason="..."` — see
//! [`allow`]); an allow that suppresses nothing is itself a finding.
//! `docs/DETERMINISM.md` is the human-facing statement of the contract.

#![forbid(unsafe_code)]

pub mod allow;
pub mod analyze;
pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod semantic;
pub mod symbols;

pub use analyze::{analyze, analyze_files, FileCtx, Finding, SourceFile};

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is actor code: state lives inside actors, and
/// actors communicate only through the engine. (`simcore` is the engine —
/// it *implements* the concurrency machinery — and `genomics` is a pure
/// compute library called from actors; neither is subject to the
/// shared-state ban.)
const ACTOR_CRATES: &[&str] = &[
    "crates/ndn/",
    "crates/core/",
    "crates/k8s/",
    "crates/datalake/",
    "crates/baseline/",
];

/// Classify a workspace-relative path into a [`FileCtx`].
pub fn classify(rel_path: &str) -> FileCtx {
    let is_test_code = rel_path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    FileCtx {
        rel_path: rel_path.to_string(),
        is_bench_crate: rel_path.starts_with("crates/bench/"),
        is_test_code,
        is_actor_crate: !is_test_code && ACTOR_CRATES.iter().any(|c| rel_path.starts_with(c)),
    }
}

/// Scan one file on disk. `root` anchors the relative path used in
/// findings and classification.
pub fn scan_file(root: &Path, path: &Path) -> std::io::Result<Vec<Finding>> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let src = fs::read_to_string(path)?;
    Ok(analyze(&classify(&rel), &src))
}

/// Directories never scanned: vendored stand-ins (external idiom, not
/// ours to police), build output, VCS metadata, and the linter's own
/// test fixtures (which exist to violate the rules).
fn skip_dir(rel: &str) -> bool {
    rel == "vendor"
        || rel == "target"
        || rel.starts_with(".")
        || rel == "crates/lint/tests/fixtures"
        || rel.ends_with("/target")
}

/// Recursively collect every `.rs` file under `root` that the lint
/// polices, in sorted order (deterministic output, of course).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Load every policed `.rs` file under `root` into memory, classified.
/// The semantic rules need the whole workspace in view even when the
/// caller only wants findings for a subset of files.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<analyze::SourceFile>> {
    let mut out = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(analyze::SourceFile {
            ctx: classify(&rel),
            src: fs::read_to_string(&path)?,
        });
    }
    Ok(out)
}

/// Scan the whole workspace rooted at `root` — per-file rules plus the
/// cross-file semantic rules. Findings come back sorted by
/// (file, line, rule).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze_files(&load_workspace(root)?))
}

/// Scan the workspace but keep only findings in files `git` reports as
/// changed relative to `base` (tracked diffs plus untracked files). The
/// whole workspace is still loaded and analyzed so the cross-file rules
/// see every caller — only the *reporting* is narrowed, which is what a
/// pre-commit hook wants: fast signal, no false "clean" from a blinkered
/// call graph.
pub fn scan_changed(root: &Path, base: &str) -> std::io::Result<Vec<Finding>> {
    let changed = git_changed_files(root, base)?;
    let mut findings = analyze_files(&load_workspace(root)?);
    findings.retain(|f| changed.contains(&f.file));
    Ok(findings)
}

/// The `.rs` files `git diff --name-only <base>` lists, plus untracked
/// ones, as workspace-relative forward-slash paths.
fn git_changed_files(root: &Path, base: &str) -> std::io::Result<std::collections::BTreeSet<String>> {
    let mut out = std::collections::BTreeSet::new();
    for args in [
        vec!["diff", "--name-only", base, "--"],
        vec!["ls-files", "--others", "--exclude-standard"],
    ] {
        let run = std::process::Command::new("git").arg("-C").arg(root).args(&args).output()?;
        if !run.status.success() {
            return Err(std::io::Error::other(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&run.stderr).trim()
            )));
        }
        for line in String::from_utf8_lossy(&run.stdout).lines() {
            let line = line.trim();
            if line.ends_with(".rs") {
                out.insert(line.replace('\\', "/"));
            }
        }
    }
    Ok(out)
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render findings as a JSON array (hand-rolled: the linter takes no
/// dependencies).
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}{}\n",
            esc(&f.file),
            f.line,
            esc(f.rule),
            esc(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let c = classify("crates/ndn/src/forwarder.rs");
        assert!(c.is_actor_crate && !c.is_test_code && !c.is_bench_crate);
        let c = classify("crates/ndn/tests/props.rs");
        assert!(!c.is_actor_crate && c.is_test_code);
        let c = classify("crates/bench/src/bin/table1.rs");
        assert!(c.is_bench_crate && !c.is_actor_crate);
        let c = classify("crates/bench/benches/micro.rs");
        assert!(c.is_test_code);
        let c = classify("crates/simcore/src/engine.rs");
        assert!(!c.is_actor_crate, "the engine implements the machinery");
        let c = classify("tests/chaos.rs");
        assert!(c.is_test_code);
        let c = classify("src/lib.rs");
        assert!(!c.is_test_code && !c.is_actor_crate);
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let f = vec![Finding {
            file: "a\\b.rs".into(),
            line: 3,
            rule: "wall-clock",
            message: "say \"no\"".into(),
        }];
        let j = to_json(&f);
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("\\\"no\\\""));
    }
}
