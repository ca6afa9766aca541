//! Prometheus text-format exporter for [`MetricsSnapshot`].
//!
//! Renders the `text/plain; version=0.0.4` exposition format: `# TYPE`
//! headers grouped per metric name, `simt_`-prefixed sanitized names,
//! histograms as cumulative `_bucket{le="..."}` series over the log₂
//! bucket boundaries plus `_sum` and `_count`. Purely a formatter —
//! deterministic because the snapshot is sorted.

use crate::snapshot::MetricsSnapshot;
use crate::{bucket_ceil, BUCKET_COUNT};
use std::fmt::Write as _;

/// Sanitize a metric or label token into `[a-zA-Z0-9_:]`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label *value* per the exposition format.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_clause(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{label=\"{}\"}}", escape_label(label))
    }
}

fn type_header(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if *last != name {
        let _ = writeln!(out, "# TYPE simt_{name} {kind}");
        *last = name.to_string();
    }
}

/// Render a snapshot as Prometheus exposition text.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for c in &snap.counters {
        let name = sanitize(&c.name);
        type_header(&mut out, &mut last, &name, "counter");
        let _ = writeln!(out, "simt_{name}{} {}", label_clause(&c.label), c.value);
    }
    for g in &snap.gauges {
        let name = sanitize(&g.name);
        type_header(&mut out, &mut last, &name, "gauge");
        let _ = writeln!(out, "simt_{name}{} {}", label_clause(&g.label), g.value);
        let wname = format!("{name}_watermark");
        let _ = writeln!(
            out,
            "simt_{wname}{} {}",
            label_clause(&g.label),
            g.watermark
        );
    }
    for h in &snap.histograms {
        let name = sanitize(&h.name);
        type_header(&mut out, &mut last, &name, "histogram");
        // Cumulative buckets over the log₂ boundaries actually used.
        let highest = h
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0)
            .min(BUCKET_COUNT - 2);
        let mut cumulative = 0u64;
        for i in 0..=highest {
            cumulative += h.buckets[i];
            let le = bucket_ceil(i);
            let clause = if h.label.is_empty() {
                format!("{{le=\"{le}\"}}")
            } else {
                format!("{{label=\"{}\",le=\"{le}\"}}", escape_label(&h.label))
            };
            let _ = writeln!(out, "simt_{name}_bucket{clause} {cumulative}");
        }
        let inf_clause = if h.label.is_empty() {
            "{le=\"+Inf\"}".to_string()
        } else {
            format!("{{label=\"{}\",le=\"+Inf\"}}", escape_label(&h.label))
        };
        let _ = writeln!(out, "simt_{name}_bucket{inf_clause} {}", h.count);
        let _ = writeln!(out, "simt_{name}_sum{} {}", label_clause(&h.label), h.sum);
        let _ = writeln!(
            out,
            "simt_{name}_count{} {}",
            label_clause(&h.label),
            h.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, Histogram, MetricsSnapshot};

    #[test]
    fn renders_all_three_metric_kinds() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter(names::LAUNCHES, "", 12);
        snap.push_watermark_gauge(names::QUEUE_DEPTH, "stream0", 3, 3);
        let mut h = Histogram::new();
        h.record(100);
        h.record(130);
        h.record(900);
        snap.histograms
            .push(h.snapshot(names::LAUNCH_CYCLES, "saxpy"));
        let text = render(&snap);
        assert!(text.contains("# TYPE simt_launches_total counter"));
        assert!(text.contains("simt_launches_total 12"));
        assert!(text.contains("simt_stream_queue_depth{label=\"stream0\"} 3"));
        assert!(text.contains("simt_stream_queue_depth_watermark{label=\"stream0\"} 3"));
        assert!(text.contains("# TYPE simt_launch_cycles histogram"));
        assert!(text.contains("simt_launch_cycles_bucket{label=\"saxpy\",le=\"+Inf\"} 3"));
        assert!(text.contains("simt_launch_cycles_sum{label=\"saxpy\"} 1130"));
        assert!(text.contains("simt_launch_cycles_count{label=\"saxpy\"} 3"));
    }

    #[test]
    fn buckets_are_cumulative_and_bounded_by_count() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 16, 1000] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new();
        snap.histograms.push(h.snapshot("launch_cycles", ""));
        let text = render(&snap);
        let mut prev = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "buckets must be cumulative: {line}");
            assert!(v <= 7);
            prev = v;
            bucket_lines += 1;
        }
        assert!(bucket_lines > 2);
        assert_eq!(prev, 7, "+Inf bucket equals total count");
    }

    #[test]
    fn hostile_labels_are_escaped() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("launches_total", "evil\"name\nwith\\stuff", 1);
        let text = render(&snap);
        assert!(text.contains("label=\"evil\\\"name\\nwith\\\\stuff\""));
    }
}
