//! The README's `crates/` table names exactly the workspace's
//! first-party crates, so adding, folding or renaming a crate cannot
//! leave it stale.

use std::collections::BTreeSet;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(path: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(directory, package name)` of every non-vendor workspace member.
fn workspace_crates() -> BTreeSet<(String, String)> {
    let manifest = read("Cargo.toml");
    let members = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root Cargo.toml lists its members")
        .0;
    members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty() && !m.starts_with("crates/vendor/"))
        .map(|path| {
            let dir = path
                .strip_prefix("crates/")
                .expect("members live in crates/");
            // The first `name` of a member manifest is its [package]'s.
            let name = read(&format!("{path}/Cargo.toml"))
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .map(|n| n.trim_end_matches('"').to_string())
                .unwrap_or_else(|| panic!("{path}/Cargo.toml names no package"));
            (dir.to_string(), name)
        })
        .collect()
}

/// `(directory, package name)` of every row of the README's `crates/`
/// table: the rows are the lines indented by exactly two spaces, and
/// `vendor/` is not a crate.
fn readme_crates() -> BTreeSet<(String, String)> {
    let readme = read("README.md");
    let table = readme
        .split_once("\ncrates/\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .expect("README has a crates/ table")
        .0;
    table
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (dir, name) = (cols.next()?, cols.next()?);
            (!dir.ends_with('/')).then(|| (dir.to_string(), name.to_string()))
        })
        .collect()
}

#[test]
fn readme_crate_table_matches_the_workspace() {
    assert_eq!(readme_crates(), workspace_crates());
}
