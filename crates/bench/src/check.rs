//! The perf-regression gate behind `tables --check`.
//!
//! Compares freshly regenerated benchmark/metrics artifacts against the
//! committed baselines, leaf by leaf. Every JSON leaf is classified by
//! its path:
//!
//! - **Exact** — modeled quantities (cycles, instruction counts,
//!   register use, the seeded fitter's MHz, cache hits, histogram
//!   shapes). These are deterministic functions of the code, so any
//!   drift is a real behavioural change: the gate fails.
//! - **Throughput** — placement-dependent (multi-worker race)
//!   quantities: makespans and what derives from them, per-device
//!   splits, watermarks. Cross-stream placement follows host completion
//!   order, so they are checked against a ±15 % band and *reported*,
//!   never enforced. No gated artifact carries a wall-clock leaf; host
//!   time is `bench-e2e`'s to report.
//! - **Ignored** — free-form fields with no regression meaning.
//!
//! The classifier works on lowercase slash-joined paths rooted at the
//! artifact name (`metrics/snapshot/histograms/launch_cycles{saxpy}/p99`).
//! Sequences of objects that carry a `name` (+ optional `label`) field
//! are keyed by it instead of by index, so reordering rows or adding a
//! new kernel does not shift every later path.

use serde::Value;

/// How one leaf is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Deterministic modeled quantity: must match bit-for-bit
    /// (floats: within 1e-9 relative).
    Exact,
    /// Placement-dependent quantity: ±15 % band, report-only.
    Throughput,
    /// Not a regression signal.
    Ignore,
}

/// Relative tolerance for throughput-class leaves.
pub const THROUGHPUT_TOLERANCE: f64 = 0.15;

/// Path substrings that mark a leaf as throughput-class: quantities
/// that depend on the OS thread race of a multi-worker pool, and the
/// derived rates and percentages that ride along in the same rows.
/// Every marker matches a leaf of some committed baseline
/// (`no_marker_is_dead`).
const THROUGHPUT_MARKERS: &[&str] = &[
    "modeled_us",
    "rate",
    "speedup",
    "pct",
    "makespan",
    "occupancy",
    "watermark",
    "vdone",
    "depth",
    "outstanding",
    "busy",
    "device_compute",
    "device_copy",
];

/// Path substrings with no regression meaning at all.
const IGNORE_MARKERS: &[&str] = &["/health"];

/// Classify a slash-joined lowercase leaf path.
pub fn classify(path: &str) -> Class {
    if IGNORE_MARKERS.iter().any(|m| path.contains(m)) {
        return Class::Ignore;
    }
    if THROUGHPUT_MARKERS.iter().any(|m| path.contains(m)) {
        return Class::Throughput;
    }
    // Cache hit/miss counters are deterministic on the single-device
    // harnesses but racy on the multi-worker metrics pool (two workers
    // can miss the same kernel concurrently): report-only there.
    if path.starts_with("metrics/") && (path.contains("hits") || path.contains("misses")) {
        return Class::Throughput;
    }
    Class::Exact
}

/// One compared leaf that deviated.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Slash-joined path of the leaf inside the artifact.
    pub path: String,
    /// Judgement class of the leaf.
    pub class: Class,
    /// Baseline rendering.
    pub baseline: String,
    /// Current rendering.
    pub current: String,
    /// Relative delta for numeric leaves (`None` for type/shape
    /// mismatches and non-numeric leaves).
    pub delta: Option<f64>,
    /// Whether the deviation is inside the class's tolerance band.
    pub within_band: bool,
}

impl Finding {
    /// An enforced failure: an exact-class leaf that moved.
    pub fn is_failure(&self) -> bool {
        self.class == Class::Exact && !self.within_band
    }
}

/// Outcome of comparing one artifact pair.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Leaves compared.
    pub leaves: usize,
    /// Deviations, in walk order.
    pub findings: Vec<Finding>,
}

impl Comparison {
    /// Enforced (exact-class) failures.
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_failure())
    }

    /// Report-only deviations outside the throughput band.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| !f.is_failure() && !f.within_band)
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::I64(i) => i.to_string(),
        Value::U64(u) => u.to_string(),
        Value::F64(f) => format!("{f:.6}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(s) => format!("[{} items]", s.len()),
        Value::Map(m) => format!("{{{} fields}}", m.len()),
    }
}

/// The key a sequence element sorts under: its `name` (plus `{label}`
/// and `@threads` — the sim harness repeats each workload name per
/// thread count) when it has one, else its index.
fn seq_key(v: &Value, i: usize) -> String {
    let field = |name: &str| match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    };
    match field("name") {
        Some(Value::Str(name)) => {
            let mut key = name.clone();
            if let Some(Value::Str(label)) = field("label") {
                key.push_str(&format!("{{{label}}}"));
            }
            match field("threads") {
                Some(Value::U64(t)) => key.push_str(&format!("@{t}")),
                Some(Value::I64(t)) => key.push_str(&format!("@{t}")),
                _ => {}
            }
            key
        }
        _ => i.to_string(),
    }
}

fn push(out: &mut Comparison, path: &str, class: Class, base: &Value, cur: &Value, note: &str) {
    out.findings.push(Finding {
        path: path.to_string(),
        class,
        baseline: format!("{} {note}", render(base)).trim_end().to_string(),
        current: render(cur),
        delta: None,
        within_band: false,
    });
}

fn walk(out: &mut Comparison, path: &str, base: &Value, cur: &Value) {
    let class = classify(path);
    if class == Class::Ignore {
        return;
    }
    match (base, cur) {
        (Value::Map(b), Value::Map(c)) => {
            for (k, bv) in b {
                let sub = format!("{path}/{}", k.to_lowercase());
                match c.iter().find(|(ck, _)| ck == k) {
                    Some((_, cv)) => walk(out, &sub, bv, cv),
                    None => push(out, &sub, class, bv, &Value::Null, "(missing)"),
                }
            }
        }
        (Value::Seq(b), Value::Seq(c)) => {
            for (i, bv) in b.iter().enumerate() {
                let key = seq_key(bv, i);
                let sub = format!("{path}/{}", key.to_lowercase());
                let cv = if key == i.to_string() {
                    c.get(i)
                } else {
                    c.iter().find(|v| seq_key(v, usize::MAX) == key)
                };
                match cv {
                    Some(cv) => walk(out, &sub, bv, cv),
                    None => push(out, &sub, class, bv, &Value::Null, "(missing)"),
                }
            }
        }
        _ => {
            out.leaves += 1;
            let (bn, cn) = (num(base), num(cur));
            if let (Some(b), Some(c)) = (bn, cn) {
                let delta = if b == 0.0 {
                    if c == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (c - b) / b.abs()
                };
                let band = match class {
                    Class::Exact => 1e-9,
                    _ => THROUGHPUT_TOLERANCE,
                };
                if delta.abs() > band {
                    out.findings.push(Finding {
                        path: path.to_string(),
                        class,
                        baseline: render(base),
                        current: render(cur),
                        delta: Some(delta),
                        within_band: false,
                    });
                }
            } else if base != cur {
                push(out, path, class, base, cur, "");
            }
        }
    }
}

/// Compare a committed baseline artifact against its regenerated
/// counterpart. `name` roots every path (use the artifact file stem).
pub fn compare(name: &str, baseline: &Value, current: &Value) -> Comparison {
    let mut out = Comparison::default();
    walk(&mut out, &name.to_lowercase(), baseline, current);
    out
}

/// Double every exact-class numeric leaf whose path mentions cycles —
/// the synthetic regression `tables --check --inject` uses to prove
/// the gate trips.
pub fn inject_cycle_regression(name: &str, v: &mut Value) -> usize {
    fn go(path: &str, v: &mut Value, hits: &mut usize) {
        match v {
            Value::Map(fields) => {
                for (k, fv) in fields.iter_mut() {
                    go(&format!("{path}/{}", k.to_lowercase()), fv, hits);
                }
            }
            Value::Seq(items) => {
                // Index-based paths are fine here: classification only
                // needs the field names on the path, not stable keys.
                for (i, item) in items.iter_mut().enumerate() {
                    go(&format!("{path}/{i}"), item, hits);
                }
            }
            Value::U64(u) if path.contains("cycles") && classify(path) == Class::Exact => {
                *u *= 2;
                *hits += 1;
            }
            Value::I64(i) if path.contains("cycles") && classify(path) == Class::Exact => {
                *i *= 2;
                *hits += 1;
            }
            _ => {}
        }
    }
    let mut hits = 0;
    go(&name.to_lowercase(), v, &mut hits);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(fields: Vec<(&str, Value)>) -> Value {
        Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn classification_by_path() {
        use Class::*;
        for (path, class, why) in [
            ("bench_sim/rows/saxpy@64/dyn_instrs", Exact, ""),
            (
                "bench_runtime/sweep/0/makespan_cycles",
                Throughput,
                "makespan outranks cycles",
            ),
            (
                "bench_runtime/sweep/3/modeled_us",
                Throughput,
                "the makespan in microseconds",
            ),
            (
                "bench_compiler/kernels/fir16/regs_used",
                Exact,
                "`_us` must not swallow `regs_used`",
            ),
            (
                "bench_runtime/unconstrained_restricted_mhz",
                Exact,
                "seeded fitter",
            ),
            ("bench_runtime/stamped3_best_mhz", Exact, "seeded fitter"),
            ("bench_runtime/device_fmax_mhz", Exact, "a constant"),
            (
                "metrics/snapshot/histograms/launch_cycles{saxpy}/p99",
                Exact,
                "",
            ),
            (
                "metrics/snapshot/counters/compile_cache_hits_total",
                Throughput,
                "cache counters are racy on the multi-worker pool",
            ),
            (
                "bench_compiler/cache/hits",
                Exact,
                "single-device harness cache is deterministic",
            ),
            (
                "bench_chaos/transient/backoff_p50_cycles",
                Exact,
                "seeded drill",
            ),
            ("metrics/health/healthy", Ignore, ""),
        ] {
            assert_eq!(classify(path), class, "{path}: {why}");
        }
    }

    /// Leaf paths of `v`, spelled the way `walk` spells them.
    fn leaf_paths(path: &str, v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Map(fields) => fields
                .iter()
                .for_each(|(k, v)| leaf_paths(&format!("{path}/{}", k.to_lowercase()), v, out)),
            Value::Seq(items) => items.iter().enumerate().for_each(|(i, v)| {
                leaf_paths(&format!("{path}/{}", seq_key(v, i).to_lowercase()), v, out)
            }),
            _ => out.push(path.to_string()),
        }
    }

    /// A marker that matches no leaf of any committed baseline is dead
    /// weight, and a hazard: it will silently demote the first new leaf
    /// whose name happens to contain it (`_us` did that to `regs_used`).
    #[test]
    fn no_marker_is_dead() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let ignored = std::fs::read_to_string(format!("{root}/.gitignore")).unwrap();
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let committed = !ignored.lines().any(|l| l.trim_start_matches('/') == name);
            if (name.starts_with("BENCH_") || name == "METRICS.json") && committed {
                let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
                let v: Value = serde_json::from_str(&text).unwrap();
                let stem = name.trim_end_matches(".json").to_lowercase();
                leaf_paths(&stem, &v, &mut paths);
            }
        }
        assert!(paths.len() > 1000, "baselines not found under {root}");
        for m in THROUGHPUT_MARKERS {
            assert!(
                paths.iter().any(|p| p.contains(m)),
                "marker `{m}` matches no leaf of any committed baseline"
            );
        }
    }

    #[test]
    fn exact_drift_fails_throughput_drift_warns() {
        let base = map(vec![
            ("cycles", Value::U64(100)),
            ("speedup", Value::F64(2.0)),
        ]);
        let cur = map(vec![
            ("cycles", Value::U64(101)),
            ("speedup", Value::F64(1.0)),
        ]);
        let cmp = compare("bench_x", &base, &cur);
        assert_eq!(cmp.leaves, 2);
        assert_eq!(cmp.failures().count(), 1);
        assert_eq!(cmp.warnings().count(), 1);
        let fail = cmp.failures().next().unwrap();
        assert_eq!(fail.path, "bench_x/cycles");
        assert_eq!(fail.class, Class::Exact);
    }

    #[test]
    fn throughput_within_band_is_silent() {
        let base = map(vec![("modeled_us", Value::F64(10.0))]);
        let cur = map(vec![("modeled_us", Value::F64(11.0))]);
        let cmp = compare("bench_x", &base, &cur);
        assert_eq!(cmp.findings.len(), 0, "10% is inside the ±15% band");
    }

    #[test]
    fn named_rows_match_by_name_not_position() {
        let base = map(vec![(
            "rows",
            Value::Seq(vec![
                map(vec![
                    ("name", Value::Str("a".into())),
                    ("cycles", Value::U64(5)),
                ]),
                map(vec![
                    ("name", Value::Str("b".into())),
                    ("cycles", Value::U64(7)),
                ]),
            ]),
        )]);
        let cur = map(vec![(
            "rows",
            Value::Seq(vec![
                map(vec![
                    ("name", Value::Str("b".into())),
                    ("cycles", Value::U64(7)),
                ]),
                map(vec![
                    ("name", Value::Str("a".into())),
                    ("cycles", Value::U64(5)),
                ]),
            ]),
        )]);
        let cmp = compare("bench_x", &base, &cur);
        assert_eq!(cmp.failures().count(), 0, "reordering is not a regression");
        // A genuinely missing row is.
        let cur2 = map(vec![(
            "rows",
            Value::Seq(vec![map(vec![
                ("name", Value::Str("a".into())),
                ("cycles", Value::U64(5)),
            ])]),
        )]);
        let cmp2 = compare("bench_x", &base, &cur2);
        assert!(cmp2.failures().any(|f| f.path.contains("rows/b")));
    }

    #[test]
    fn injection_doubles_only_exact_cycle_leaves() {
        let mut v = map(vec![
            ("span_cycles", Value::U64(40)),
            ("makespan_cycles", Value::U64(40)),
            ("modeled_us", Value::F64(3.0)),
        ]);
        let hits = inject_cycle_regression("bench_x", &mut v);
        assert_eq!(hits, 1, "only the exact-class cycle leaf is touched");
        let cmp = compare(
            "bench_x",
            &map(vec![
                ("span_cycles", Value::U64(40)),
                ("makespan_cycles", Value::U64(40)),
                ("modeled_us", Value::F64(3.0)),
            ]),
            &v,
        );
        assert_eq!(cmp.failures().count(), 1);
    }
}
