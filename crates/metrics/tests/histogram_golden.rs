//! `Histogram::snapshot` pinned byte for byte: the JSON of fixed sample
//! sequences — empty, one value, duplicate-heavy, the value table
//! exactly full, one past it, far past it, the extremes of `u64`, and a
//! sequence beside its reverse (past the table, *which* values are kept
//! exactly depends on the order they arrived in) — against
//! `tests/golden/histogram_snapshots.txt`. After a deliberate format
//! change, regenerate with `BLESS=1 cargo test -p simt-metrics --test
//! histogram_golden`.

use simt_metrics::Histogram;
use std::path::Path;

/// A fixed pseudo-random walk over `modulus` distinct values.
fn walk(len: u64, modulus: u64) -> Vec<u64> {
    (0..len)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) % modulus * 37 + 5)
        .collect()
}

fn cases() -> Vec<(&'static str, Vec<u64>)> {
    let mut dups = Vec::new();
    for i in 0..300u64 {
        dups.push([7, 7, 130, 7, 2048, 0, 130][i as usize % 7]);
    }
    let walked = walk(400, 90);
    let mut reversed = walked.clone();
    reversed.reverse();
    vec![
        ("empty", Vec::new()),
        ("single", vec![339]),
        ("duplicate_heavy", dups),
        ("distinct_64", (0..64).map(|i| i * 97 + 3).collect()),
        ("distinct_65", (0..65).map(|i| i * 97 + 3).collect()),
        ("distinct_200", (0..200).map(|i| i * i * 31 + i).collect()),
        (
            "extremes",
            vec![0, u64::MAX - 1, u64::MAX, 5, u64::MAX, 0, u64::MAX - 1],
        ),
        ("walk", walked),
        ("walk_reversed", reversed),
    ]
}

#[test]
fn histogram_snapshots_match_the_golden_file() {
    let mut actual = String::new();
    for (name, samples) in cases() {
        let h = &mut Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot("launch_cycles", name);
        actual.push_str(&format!("== {name} ==\n"));
        actual.push_str(&serde_json::to_string(&snap).unwrap());
        actual.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/histogram_snapshots.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        actual == want,
        "histogram snapshots differ from the golden file:\n--- golden\n{want}\n--- actual\n{actual}"
    );
}
