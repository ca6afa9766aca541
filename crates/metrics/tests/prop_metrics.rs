//! Property suite for the metrics primitives, mirroring
//! `simt-core/tests/prop_profile.rs`: histogram invariants hold for
//! arbitrary sample multisets, merging is exact and associative, and
//! snapshots are a pure function of the recorded multiset (record
//! order never shows through).

use proptest::prelude::*;
use simt_metrics::{
    bucket_ceil, bucket_index, Histogram, HistogramSnapshot, MetricsSnapshot, BUCKET_COUNT,
};

/// Sample vectors that exercise all regimes: empty, small exact sets,
/// duplicate-heavy sets, and sets wide enough to overflow the exact
/// value table.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            0u64,
            1,
            2,
            3,
            7,
            100,
            130,
            131,
            1 << 10,
            (1 << 10) + 1,
            1 << 20,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ]),
        0..200,
    )
}

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    snapshot_named("launch_cycles", "prop", samples)
}

fn snapshot_named(name: &str, label: &str, samples: &[u64]) -> HistogramSnapshot {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot(name, label)
}

/// Brute-force nearest-rank percentile over the raw samples.
fn brute_percentile(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as u64 * num).div_ceil(den)).max(1) as usize;
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants for any sample multiset: Σbuckets == count,
    /// every sample lands in its log₂ bucket, percentiles are ordered
    /// and bounded by min/max.
    #[test]
    fn histogram_invariants(samples in arb_samples()) {
        let snap = snapshot_of(&samples);
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.buckets.len(), BUCKET_COUNT);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        prop_assert_eq!(snap.sum, samples.iter().fold(0u64, |a, &v| a.wrapping_add(v)));

        // Each bucket's occupancy matches a direct count.
        for (i, &n) in snap.buckets.iter().enumerate() {
            let expect = samples.iter().filter(|&&v| bucket_index(v) == i).count() as u64;
            prop_assert_eq!(n, expect, "bucket {}", i);
            if i < BUCKET_COUNT - 1 && n > 0 {
                prop_assert!(snap.max >= bucket_ceil(i).min(snap.max));
            }
        }

        if !samples.is_empty() {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            prop_assert_eq!(snap.min, sorted[0]);
            prop_assert_eq!(snap.max, *sorted.last().unwrap());
            prop_assert!(snap.min <= snap.p50);
            prop_assert!(snap.p50 <= snap.p90);
            prop_assert!(snap.p90 <= snap.p99);
            prop_assert!(snap.p99 <= snap.max);
            // Exact snapshots match brute force at every percentile;
            // inexact ones are still an upper bound on the truth.
            for (num, den) in [(50u64, 100u64), (90, 100), (99, 100), (1, 100), (100, 100)] {
                let truth = brute_percentile(&sorted, num, den);
                if snap.exact {
                    prop_assert_eq!(snap.percentile(num, den), truth);
                } else {
                    prop_assert!(snap.percentile(num, den) >= truth);
                    prop_assert!(snap.percentile(num, den) <= snap.max);
                }
            }
            // Exactness accounting: values retained + overflow == count.
            let retained: u64 = snap.values.iter().map(|vc| vc.count).sum();
            prop_assert_eq!(retained + snap.overflow, snap.count);
            prop_assert_eq!(snap.exact, snap.overflow == 0);
        } else {
            prop_assert_eq!((snap.min, snap.max, snap.p50, snap.p99), (0, 0, 0, 0));
            prop_assert!(snap.exact);
        }
    }

    /// Merging two snapshots equals recording the concatenated multiset
    /// into one histogram (merge keeps full value multisets, so this is
    /// exact even past the live table's slot budget).
    #[test]
    fn merge_equals_concatenation(a in arb_samples(), b in arb_samples()) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let direct = snapshot_of(&both);
        prop_assert_eq!(merged.count, direct.count);
        prop_assert_eq!(merged.sum, direct.sum);
        prop_assert_eq!(merged.min, direct.min);
        prop_assert_eq!(merged.max, direct.max);
        prop_assert_eq!(&merged.buckets, &direct.buckets);
        if merged.exact && direct.exact {
            prop_assert_eq!(&merged.values, &direct.values);
            prop_assert_eq!(merged.p50, direct.p50);
            prop_assert_eq!(merged.p90, direct.p90);
            prop_assert_eq!(merged.p99, direct.p99);
        }
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c), field for field.
    #[test]
    fn merge_is_associative(a in arb_samples(), b in arb_samples(), c in arb_samples()) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// A snapshot is a pure function of the recorded multiset: record
    /// order doesn't matter.
    #[test]
    fn snapshot_is_order_independent(samples in arb_samples()) {
        let serial = snapshot_of(&samples);

        let mut reversed: Vec<u64> = samples.clone();
        reversed.reverse();
        prop_assert_eq!(snapshot_of(&reversed), serial);
    }

    /// JSON export is lossless: a snapshot round-trips through the
    /// serde value tree unchanged.
    #[test]
    fn snapshot_round_trips_through_serde(a in arb_samples(), b in arb_samples()) {
        use serde::{Deserialize, Serialize};
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("launches_total", "", a.len() as u64);
        snap.push_gauge("stream_queue_depth", "stream1", b.len() as f64);
        snap.histograms.push(snapshot_named("launch_cycles", "k0", &a));
        snap.histograms.push(snapshot_named("stream_copy_cycles", "stream1", &b));
        snap.sort();
        let back = MetricsSnapshot::from_value(&snap.to_value()).unwrap();
        prop_assert_eq!(back, snap);
    }
}
