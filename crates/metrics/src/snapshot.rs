//! Plain-data snapshots of the pool's metrics: what the exporters
//! serialize, what the health monitor reads, and what the regression
//! gate diffs. Everything here is deterministic given the
//! recorded samples — collections are sorted by `(name, label)` and
//! percentiles are integer nearest-rank, so two runs that recorded the
//! same multisets serialize byte-identically.

use crate::{bucket_ceil, BUCKET_COUNT};
use serde::{Deserialize, Serialize};

/// One exact `(value, multiplicity)` pair out of a histogram's value
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueCount {
    /// The recorded value (modeled cycles).
    pub value: u64,
    /// How many times it was recorded.
    pub count: u64,
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name (see [`crate::names`]).
    pub name: String,
    /// Metric label (`""` for pool-wide metrics).
    pub label: String,
    /// Counter value.
    pub value: u64,
}

/// Snapshot of one gauge. Values are `f64` so derived gauges (hit
/// ratios, occupancy) fit alongside integral ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric label.
    pub label: String,
    /// Last value set.
    pub value: f64,
    /// High watermark (equals `value` for derived gauges).
    pub watermark: f64,
}

/// Snapshot of one histogram: log₂ buckets for shape, the exact value
/// multiset for percentiles, and the precomputed p50/p90/p99.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric label.
    pub label: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping if astronomically large).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log₂ bucket counts, `buckets[i]` per [`crate::bucket_index`].
    pub buckets: Vec<u64>,
    /// Exact `(value, count)` pairs, sorted ascending by value.
    pub values: Vec<ValueCount>,
    /// Samples not retained in `values`.
    pub overflow: u64,
    /// True iff every sample is in `values`, making percentiles exact.
    pub exact: bool,
    /// Exact (or bucket-ceiling) 50th percentile.
    pub p50: u64,
    /// Exact (or bucket-ceiling) 90th percentile.
    pub p90: u64,
    /// Exact (or bucket-ceiling) 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Assemble a snapshot and precompute its percentiles.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        label: String,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Vec<u64>,
        values: Vec<ValueCount>,
        overflow: u64,
    ) -> Self {
        let mut s = HistogramSnapshot {
            name,
            label,
            count,
            sum,
            min,
            max,
            buckets,
            values,
            overflow,
            exact: overflow == 0,
            p50: 0,
            p90: 0,
            p99: 0,
        };
        s.p50 = s.percentile(50, 100);
        s.p90 = s.percentile(90, 100);
        s.p99 = s.percentile(99, 100);
        s
    }

    /// An empty histogram snapshot (used when merging a label set that
    /// one side never recorded).
    pub fn empty(name: &str, label: &str) -> Self {
        HistogramSnapshot::from_parts(
            name.to_string(),
            label.to_string(),
            0,
            0,
            0,
            0,
            vec![0; BUCKET_COUNT],
            Vec::new(),
            0,
        )
    }

    /// Nearest-rank percentile `num/den` (e.g. `percentile(99, 100)`).
    ///
    /// With `exact == true` this walks the value multiset and returns a
    /// value that was actually recorded. Otherwise it walks the log₂
    /// buckets and returns the bucket's inclusive upper bound (clamped
    /// to `max`) — an upper bound on the true percentile.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        if self.exact {
            let mut seen = 0u64;
            for vc in &self.values {
                seen += vc.count;
                if seen >= rank {
                    return vc.value;
                }
            }
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot of the *same metric* into this one —
    /// value multisets are combined without a slot limit, so merging is
    /// exact and associative (property-tested in `prop_metrics`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.name, other.name);
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
        } else {
            self.min = self.min.min(other.min);
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.overflow += other.overflow;
        self.exact = self.exact && other.exact;
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += ob;
        }
        let mut merged: Vec<ValueCount> =
            Vec::with_capacity(self.values.len() + other.values.len());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() || j < other.values.len() {
            let take_left = j >= other.values.len()
                || (i < self.values.len() && self.values[i].value <= other.values[j].value);
            if take_left {
                let mut vc = self.values[i];
                i += 1;
                if j < other.values.len() && other.values[j].value == vc.value {
                    vc.count += other.values[j].count;
                    j += 1;
                }
                merged.push(vc);
            } else {
                merged.push(other.values[j]);
                j += 1;
            }
        }
        self.values = merged;
        self.p50 = self.percentile(50, 100);
        self.p90 = self.percentile(90, 100);
        self.p99 = self.percentile(99, 100);
    }
}

/// A full, deterministic snapshot of every metric row, as the runtime
/// writes it out.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by `(name, label)`.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-sort every collection by `(name, label)` — call after pushing
    /// derived entries so serialization stays deterministic.
    pub fn sort(&mut self) {
        self.counters
            .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        self.gauges
            .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        self.histograms
            .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    }

    /// Append a counter entry (sort afterwards).
    pub fn push_counter(&mut self, name: &str, label: &str, value: u64) {
        self.counters.push(CounterSnapshot {
            name: name.to_string(),
            label: label.to_string(),
            value,
        });
    }

    /// Append a derived gauge entry with `watermark == value`.
    pub fn push_gauge(&mut self, name: &str, label: &str, value: f64) {
        self.gauges.push(GaugeSnapshot {
            name: name.to_string(),
            label: label.to_string(),
            value,
            watermark: value,
        });
    }

    /// Append a gauge entry that remembers the highest value it ever
    /// had (queue depths, outstanding commands).
    pub fn push_watermark_gauge(&mut self, name: &str, label: &str, value: u64, watermark: u64) {
        self.gauges.push(GaugeSnapshot {
            name: name.to_string(),
            label: label.to_string(),
            value: value as f64,
            watermark: watermark as f64,
        });
    }

    /// Find a counter by name and label.
    pub fn counter(&self, name: &str, label: &str) -> Option<&CounterSnapshot> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
    }

    /// Find a gauge by name and label.
    pub fn gauge(&self, name: &str, label: &str) -> Option<&GaugeSnapshot> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label == label)
    }

    /// Find a histogram by name and label.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
    }

    /// All histograms with the given name (one per label).
    pub fn histograms_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a HistogramSnapshot> + 'a {
        self.histograms.iter().filter(move |h| h.name == name)
    }

    /// Merge all histograms named `name` into one pool-wide snapshot
    /// (exact: the merge keeps full value multisets).
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::empty(name, "");
        for h in self.histograms_named(name) {
            acc.merge(h);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(name: &str, label: &str, samples: &[u64]) -> HistogramSnapshot {
        let mut h = crate::Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h.snapshot(name, label)
    }

    #[test]
    fn merge_matches_recording_everything_in_one_histogram() {
        let a = hist_of("launch_cycles", "s0", &[5, 9, 9, 100]);
        let b = hist_of("launch_cycles", "s1", &[1, 9, 64]);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = hist_of("launch_cycles", "", &[5, 9, 9, 100, 1, 9, 64]);
        assert_eq!(merged.count, direct.count);
        assert_eq!(merged.sum, direct.sum);
        assert_eq!(merged.min, direct.min);
        assert_eq!(merged.max, direct.max);
        assert_eq!(merged.buckets, direct.buckets);
        assert_eq!(merged.values, direct.values);
        assert_eq!(merged.p50, direct.p50);
        assert_eq!(merged.p99, direct.p99);
    }

    #[test]
    fn merging_an_empty_side_is_identity() {
        let a = hist_of("x", "", &[3, 3, 17]);
        let mut m = a.clone();
        m.merge(&HistogramSnapshot::empty("x", ""));
        assert_eq!(m, a);
        let mut e = HistogramSnapshot::empty("x", "");
        e.merge(&a);
        assert_eq!(e.count, a.count);
        assert_eq!(e.values, a.values);
        assert_eq!(e.p50, a.p50);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        use serde::{Deserialize, Serialize};
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("launches_total", "", 42);
        snap.push_gauge("modeled_occupancy", "", 0.875);
        snap.histograms
            .push(hist_of("launch_cycles", "saxpy", &[10, 20, 20]));
        snap.sort();
        let v = snap.to_value();
        let back = MetricsSnapshot::from_value(&v).expect("round trip");
        assert_eq!(back, snap);
    }
}
