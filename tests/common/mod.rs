//! Golden-file assertions shared by the integration tests.
//!
//! `tests/golden/<name>.txt` pins a run's observable output byte for byte,
//! so a refactor of the engine or the stack above it proves it kept
//! behaviour by leaving that directory untouched. Re-record with
//! `LIDC_UPDATE_GOLDEN=1 cargo test` and review the diff like code.

use std::path::PathBuf;

/// Compare `actual` with `tests/golden/<name>.txt` (or overwrite the file
/// when `LIDC_UPDATE_GOLDEN` is set).
pub fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("LIDC_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e} (record it with LIDC_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "golden {name} changed\n--- expected ({})\n{expected}\n--- actual\n{actual}",
        path.display()
    );
}
