//! Shared by the integration tests that pin exporter output.

use std::path::Path;

/// Assert `actual` equals the committed `tests/golden/<name>` byte for
/// byte. The exporters are views of the recorded events, so a changed
/// byte is an exporter bug, not a schema change; after a deliberate
/// format change, regenerate with `BLESS=1 cargo test -p simt-runtime`.
pub fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        actual == want,
        "{name} differs from the committed golden file:\n--- golden\n{want}\n--- actual\n{actual}"
    );
}
