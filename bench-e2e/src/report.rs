//! Named metrics and the result line the driver reads.

use std::fmt::Write as _;

/// One measured value.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered list of metrics, plus remarks that qualify them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Append a remark, printed after the metrics as a `#` line.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One `name value unit` line per metric, then the remarks.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<44} {:>20} {}", m.name, fmt_value(m.value), m.unit);
        }
        for n in &self.notes {
            println!("# {n}");
        }
    }

    /// The metrics as the `metrics` object of the result line.
    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// Every digit of a finite value; JSON has no NaN or infinity.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Report) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.json()
    )
}

/// An end-to-end metric: how `--selfcheck` compares two runs of it.
/// (Its unit, direction and bound are `BENCHMARK.json`'s to state.)
pub struct E2e {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Modeled-clock metrics repeat exactly for a fixed seed.
    pub exact: bool,
}

/// `setup_s` is a few milliseconds of thread spawns and hand-offs, and
/// comes out 50 % apart depending on which core the 1-device leg's
/// worker lands on. `BENCHMARK.json` bounds it at the contract's
/// ceiling of 0.25, which the driver applies to medians of ten runs;
/// between two single runs `--selfcheck` allows this instead.
pub const SETUP_SELFCHECK_BOUND: f64 = 0.60;

const fn e2e(name: &'static str, higher_is_better: bool, exact: bool) -> E2e {
    E2e {
        name,
        higher_is_better,
        exact,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const E2E: [E2e; 7] = [
    e2e("host_launches_per_s", true, false),
    e2e("host_thread_ops_per_s", true, false),
    e2e("host_rss_mib", false, false),
    e2e("setup_s", false, false),
    e2e("modeled_makespan_us", false, true),
    e2e("modeled_cycles_per_launch", false, true),
    e2e("modeled_thread_ops_per_cycle", true, true),
];

/// The `bound` `BENCHMARK.json` gives an end-to-end metric.
pub fn manifest_bound(manifest: &str, name: &str) -> Option<f64> {
    let entry = &manifest[manifest.find(&format!("\"name\": \"{name}\""))?..];
    let value = &entry[entry.find("\"bound\":")? + "\"bound\":".len()..];
    value[..value.find(['}', ',', '\n'])?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_e2e_metric_has_a_bound_in_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for m in &E2E {
            let bound = manifest_bound(manifest, m.name);
            assert!(
                bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "{}: {bound:?}",
                m.name
            );
        }
    }
}
