//! # simt-metrics — always-on metrics for the device pool
//!
//! Where `simt-profile` answers *what happened on this run* (opt-in,
//! bounded, per-event), this crate answers *how is the pool doing*
//! (always-on, aggregated, constant-memory). Three primitives, all
//! lock-free on the record path:
//!
//! * [`Counter`] — a monotonic relaxed-atomic counter;
//! * [`Gauge`] — a last-written value plus its **high watermark**
//!   (queue depths, outstanding commands);
//! * [`Histogram`] — a log₂-bucketed distribution over **modeled
//!   cycles**. Next to the bucket counts it keeps a small lock-free
//!   table of exact `(value, count)` pairs: modeled latencies are
//!   deterministic and low-cardinality, so in practice every recorded
//!   value is retained exactly and p50/p90/p99/max are **exact**
//!   (nearest-rank over the true multiset, asserted against brute-force
//!   percentiles in tests). If a histogram ever sees more than
//!   [`VALUE_SLOTS`] distinct values, percentiles degrade to log₂
//!   bucket upper bounds and the snapshot is flagged `exact = false`.
//!
//! A [`Registry`] names metrics with a `(name, label)` pair — the label
//! scheme is shared with the tracer's track names (`kernel` labels are
//! `LaunchSpec::name`s, device and stream labels match the Chrome-trace
//! process/thread names), so a hot metric cross-references directly
//! into a trace. Snapshots ([`MetricsSnapshot`]) are deterministic
//! (sorted by name then label) and export as serde JSON or Prometheus
//! text ([`prometheus::render`]). A [`HealthMonitor`] walks a snapshot
//! and flags stalls, starvation and tracer drops as typed
//! [`HealthFinding`]s.
//!
//! Nothing in this crate reads a wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod prometheus;
mod snapshot;

pub use health::{HealthConfig, HealthFinding, HealthMonitor, HealthReport};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, ValueCount,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Well-known metric names: the vocabulary the runtime records under
/// and the health monitor reads back. Labels: per-kernel metrics use
/// the kernel's `LaunchSpec::name`, per-device metrics use `device{N}`
/// and per-stream metrics use `stream{N}` — the same track names the
/// Chrome trace exporter emits, so a hot metric cross-references into
/// a trace by label.
pub mod names {
    /// Histogram, label = kernel name: modeled cycles per launch.
    pub const LAUNCH_CYCLES: &str = "launch_cycles";
    /// Histogram, label = stream: modeled cycles per launch on that stream.
    pub const STREAM_LAUNCH_CYCLES: &str = "stream_launch_cycles";
    /// Histogram, label = stream: modeled cycles per copy on that stream.
    pub const STREAM_COPY_CYCLES: &str = "stream_copy_cycles";
    /// Histogram, no label: modeled critical-path span of one graph replay.
    pub const GRAPH_SPAN_CYCLES: &str = "graph_replay_span_cycles";
    /// Counter: kernel launches retired pool-wide.
    pub const LAUNCHES: &str = "launches_total";
    /// Counter: copies retired pool-wide.
    pub const COPIES: &str = "copies_total";
    /// Counter: dynamic instructions retired pool-wide.
    pub const DYN_INSTRS: &str = "dyn_instrs_total";
    /// Counter: thread-operations retired pool-wide.
    pub const THREAD_OPS: &str = "thread_ops_total";
    /// Counter, label = device: modeled busy cycles placed on the device.
    pub const DEVICE_BUSY_CYCLES: &str = "device_busy_cycles";
    /// Gauge (+ watermark): commands queued or in flight pool-wide.
    pub const OUTSTANDING: &str = "outstanding_commands";
    /// Gauge (+ watermark), label = stream: commands queued on the stream.
    pub const QUEUE_DEPTH: &str = "stream_queue_depth";
    /// Gauge: modeled makespan of everything the pool has retired.
    pub const MAKESPAN_CYCLES: &str = "makespan_cycles";
    /// Gauge, label = device: the device's compute-engine virtual clock.
    pub const DEVICE_COMPUTE_CYCLES: &str = "device_compute_cycles";
    /// Gauge, label = device: the device's copy-engine virtual clock.
    pub const DEVICE_COPY_CYCLES: &str = "device_copy_cycles";
    /// Gauge, label = stream: virtual time the stream's last command ended.
    pub const STREAM_VDONE_CYCLES: &str = "stream_vdone_cycles";
    /// Gauge: fraction of `devices × makespan` spent busy (0..=1).
    pub const OCCUPANCY: &str = "modeled_occupancy";
    /// Counter: tracer ring-buffer events dropped (0 when tracing is off).
    pub const TRACER_DROPPED: &str = "tracer_dropped_events_total";
    /// Counter: compile-cache artifact hits.
    pub const COMPILE_CACHE_HITS: &str = "compile_cache_hits_total";
    /// Counter: compile-cache artifact misses.
    pub const COMPILE_CACHE_MISSES: &str = "compile_cache_misses_total";
    /// Counter: compile-cache LRU evictions.
    pub const COMPILE_CACHE_EVICTIONS: &str = "compile_cache_evictions_total";
    /// Counter: predecoded-artifact hits.
    pub const DECODE_CACHE_HITS: &str = "decode_cache_hits_total";
    /// Counter: predecoded-artifact misses.
    pub const DECODE_CACHE_MISSES: &str = "decode_cache_misses_total";
    /// Gauge: compile-cache hit ratio (0..=1).
    pub const COMPILE_HIT_RATE: &str = "compile_cache_hit_rate";
    /// Gauge: decode-cache hit ratio (0..=1).
    pub const DECODE_HIT_RATE: &str = "decode_cache_hit_rate";
    /// Counter, label = fault family: faults injected by the chaos plan.
    pub const FAULTS_INJECTED: &str = "faults_injected_total";
    /// Counter: commands requeued after a recoverable fault.
    pub const RETRIES: &str = "retries_total";
    /// Counter: retries steered away from the blamed device (pools
    /// with more than one device).
    pub const FAILOVERS: &str = "failovers_total";
    /// Counter: previously-faulted commands that eventually succeeded.
    pub const RECOVERED: &str = "recovered_commands_total";
    /// Counter: commands that exhausted their retry budget.
    pub const TERMINAL_FAILURES: &str = "terminal_failures_total";
    /// Counter: watchdog timeouts (injected hangs and real overruns).
    pub const TIMEOUTS: &str = "watchdog_timeouts_total";
    /// Counter: devices quarantined by the fault tracker.
    pub const QUARANTINES: &str = "device_quarantines_total";
    /// Histogram: modeled backoff cycles charged per retry.
    pub const RETRY_BACKOFF_CYCLES: &str = "retry_backoff_cycles";
    /// Gauge, label = device: health state severity (0 healthy,
    /// 1 degraded, 2 quarantined).
    pub const DEVICE_HEALTH: &str = "device_health_state";
    /// Counter, label = device: faults blamed on the device since its
    /// last reset.
    pub const DEVICE_FAULTS: &str = "device_faults_total";
}

/// A monotonic counter (relaxed atomics; `add` is one `fetch_add`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so counters can live in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge: the last value [`Gauge::set`] wrote, plus the highest value
/// ever written (the **high watermark** — queue-depth peaks survive the
/// queue draining).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    watermark: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
        }
    }

    /// Set the current value; the watermark only ever rises.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
        self.watermark.fetch_max(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// Highest value ever set.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const BUCKET_COUNT: usize = 65;

/// Capacity of a histogram's exact-value table: the most distinct
/// values one live histogram retains exactly.
pub const VALUE_SLOTS: usize = 64;

/// The log₂ bucket a value falls in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value percentiles report
/// when the exact table overflowed).
pub fn bucket_ceil(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A log₂-bucketed histogram over modeled cycles with an exact-value
/// side table (see the crate docs for the exactness contract). All
/// recording is lock-free: bucket counts, count/sum/min/max and the
/// open-addressed value table use relaxed atomics only.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Open-addressed value table: `keys[i]` holds `value + 1` (0 =
    /// empty) and `key_counts[i]` its multiplicity.
    keys: [AtomicU64; VALUE_SLOTS],
    key_counts: [AtomicU64; VALUE_SLOTS],
    /// Samples whose value could not be retained exactly (table full,
    /// or the unrepresentable `u64::MAX`).
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            keys: [const { AtomicU64::new(0) }; VALUE_SLOTS],
            key_counts: [const { AtomicU64::new(0) }; VALUE_SLOTS],
            overflow: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        let key = v.wrapping_add(1);
        if key == 0 {
            // u64::MAX would collide with the empty sentinel.
            self.overflow.fetch_add(1, Relaxed);
            return;
        }
        // Linear probe from a multiplicative hash of the value.
        let h = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        for i in 0..VALUE_SLOTS {
            let slot = (h + i) % VALUE_SLOTS;
            let cur = self.keys[slot].load(Relaxed);
            if cur == key {
                self.key_counts[slot].fetch_add(1, Relaxed);
                return;
            }
            if cur == 0 {
                match self.keys[slot].compare_exchange(0, key, Relaxed, Relaxed) {
                    Ok(_) => {
                        self.key_counts[slot].fetch_add(1, Relaxed);
                        return;
                    }
                    Err(actual) if actual == key => {
                        self.key_counts[slot].fetch_add(1, Relaxed);
                        return;
                    }
                    Err(_) => continue,
                }
            }
        }
        self.overflow.fetch_add(1, Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Snapshot into plain data (deterministic: the value table is
    /// sorted by value regardless of record order).
    pub fn snapshot(&self, name: &str, label: &str) -> HistogramSnapshot {
        let count = self.count();
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let mut values: Vec<ValueCount> = Vec::new();
        for i in 0..VALUE_SLOTS {
            let key = self.keys[i].load(Relaxed);
            let n = self.key_counts[i].load(Relaxed);
            if key != 0 && n > 0 {
                values.push(ValueCount {
                    value: key - 1,
                    count: n,
                });
            }
        }
        values.sort_unstable_by_key(|vc| vc.value);
        let overflow = self.overflow.load(Relaxed);
        HistogramSnapshot::from_parts(
            name.to_string(),
            label.to_string(),
            count,
            self.sum.load(Relaxed),
            if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            self.max.load(Relaxed),
            buckets,
            values,
            overflow,
        )
    }
}

/// A pool-wide metric registry: get-or-create metrics by
/// `(name, label)`. Creation takes a mutex; recording through the
/// returned [`Arc`] is lock-free, so hot paths cache the handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<(String, String), Arc<Counter>>>,
    gauges: Mutex<BTreeMap<(String, String), Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<(String, String), Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{label}`.
    pub fn counter(&self, name: &str, label: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(
            map.entry((name.to_string(), label.to_string()))
                .or_default(),
        )
    }

    /// Get or create the gauge `name{label}`.
    pub fn gauge(&self, name: &str, label: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        Arc::clone(
            map.entry((name.to_string(), label.to_string()))
                .or_default(),
        )
    }

    /// Get or create the histogram `name{label}`.
    pub fn histogram(&self, name: &str, label: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        Arc::clone(
            map.entry((name.to_string(), label.to_string()))
                .or_default(),
        )
    }

    /// Snapshot every metric, sorted by `(name, label)` — two
    /// registries fed the same samples snapshot identically no matter
    /// the record order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for ((name, label), c) in self.counters.lock().unwrap().iter() {
            snap.counters.push(CounterSnapshot {
                name: name.clone(),
                label: label.clone(),
                value: c.get(),
            });
        }
        for ((name, label), g) in self.gauges.lock().unwrap().iter() {
            snap.gauges.push(GaugeSnapshot {
                name: name.clone(),
                label: label.clone(),
                value: g.get() as f64,
                watermark: g.watermark() as f64,
            });
        }
        for ((name, label), h) in self.histograms.lock().unwrap().iter() {
            snap.histograms.push(h.snapshot(name, label));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_what_they_say() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.watermark(), 7);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKET_COUNT - 1 {
            // Each bucket's inclusive bounds map back to the bucket.
            assert_eq!(bucket_index(1 << (i - 1)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_ceil(i)), i, "ceil of bucket {i}");
        }
    }

    #[test]
    fn histogram_percentiles_are_exact_against_brute_force() {
        let h = Histogram::new();
        let samples = [130u64, 12, 900, 12, 130, 7, 7, 7, 2048, 12];
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot("launch_cycles", "saxpy");
        assert!(snap.exact);
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for (num, den) in [(50u64, 100u64), (90, 100), (99, 100), (25, 100)] {
            let rank = ((snap.count * num).div_ceil(den)).max(1) as usize;
            assert_eq!(
                snap.percentile(num, den),
                sorted[rank - 1],
                "p{num}/{den} vs brute force"
            );
        }
        assert_eq!(snap.min, 7);
        assert_eq!(snap.max, 2048);
        assert_eq!(snap.p50, snap.percentile(50, 100));
    }

    #[test]
    fn histogram_degrades_gracefully_past_the_value_table() {
        let h = Histogram::new();
        // More distinct values than the table holds.
        for v in 0..(VALUE_SLOTS as u64 + 40) {
            h.record(v * 3 + 1);
        }
        let snap = h.snapshot("x", "");
        assert!(!snap.exact, "overflowed table must not claim exactness");
        assert_eq!(snap.count, VALUE_SLOTS as u64 + 40);
        assert_eq!(snap.overflow, 40);
        // Percentiles fall back to bucket upper bounds: still ordered,
        // still an upper bound on the true value, never above max.
        let p50 = snap.p50;
        let p99 = snap.p99;
        assert!(p50 <= p99 && p99 <= snap.max);
        let mut sorted: Vec<u64> = (0..(VALUE_SLOTS as u64 + 40)).map(|v| v * 3 + 1).collect();
        sorted.sort_unstable();
        let rank50 = (snap.count.div_ceil(2)).max(1) as usize;
        assert!(
            p50 >= sorted[rank50 - 1],
            "bucket ceiling bounds the true p50"
        );
    }

    #[test]
    fn registry_interns_by_name_and_label() {
        let r = Registry::new();
        let a = r.counter(names::LAUNCHES, "");
        let b = r.counter(names::LAUNCHES, "");
        a.inc();
        b.inc();
        assert_eq!(r.counter(names::LAUNCHES, "").get(), 2);
        r.histogram(names::LAUNCH_CYCLES, "saxpy").record(100);
        r.gauge(names::QUEUE_DEPTH, "stream0").set(5);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(
            snap.histogram(names::LAUNCH_CYCLES, "saxpy").unwrap().count,
            1
        );
    }
}
