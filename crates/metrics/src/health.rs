//! Health watchdog: walks a [`MetricsSnapshot`]'s virtual timelines and
//! flags conditions a human would otherwise only notice by staring at a
//! Chrome trace — devices sitting idle while work is queued, streams
//! aging far past the pool's median service latency, and observability
//! data loss (tracer-ring drops).
//!
//! The monitor is pure over snapshots: feed it a synthetic
//! [`MetricsSnapshot`] in tests and it is fully deterministic. Every
//! quantity it reasons about is modeled cycles; no wall-clock.

use crate::names;
use crate::snapshot::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Thresholds for the watchdog. Defaults are deliberately permissive —
/// the monitor should stay quiet on healthy runs and only speak up on
/// pathological ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// A device is stalled when it was idle for more than this fraction
    /// of the pool makespan *while the pool had parallel work*.
    pub stall_idle_fraction: f64,
    /// Only consider stalls when the outstanding-command watermark
    /// reached this many commands (one command can't keep two devices
    /// busy).
    pub stall_min_parallelism: u64,
    /// A stream is starved when its un-serviced age exceeds this many
    /// multiples of the pool's median launch latency.
    pub starvation_factor: u64,
}

/// Retry pressure is excessive when retries exceed this fraction of
/// retired launches: one retry per two launches.
const EXCESSIVE_RETRY_FACTOR: f64 = 0.5;

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stall_idle_fraction: 0.5,
            stall_min_parallelism: 2,
            starvation_factor: 8,
        }
    }
}

/// One typed finding out of a health walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthFinding {
    /// A device was idle for most of the makespan despite parallel work.
    DeviceStall {
        /// Device label (`device{N}`).
        device: String,
        /// Modeled cycles the device spent busy.
        busy_cycles: u64,
        /// Pool makespan in modeled cycles.
        makespan_cycles: u64,
        /// Idle fraction in permille (integer so findings stay `Eq`-ish
        /// and serialize exactly).
        idle_permille: u64,
    },
    /// A stream has queued work aging far past median service latency.
    StreamStarvation {
        /// Stream label (`stream{N}`).
        stream: String,
        /// Commands still queued on the stream.
        pending: u64,
        /// Modeled cycles since the stream last retired a command.
        age_cycles: u64,
        /// Pool median launch latency the age is measured against.
        median_latency_cycles: u64,
    },
    /// The tracer ring dropped events — traces for this run are partial.
    TracerDrops {
        /// Events dropped at the ring.
        dropped: u64,
    },
    /// A device crossed its fault budget and left the placement pool.
    DeviceQuarantined {
        /// Device label (`device{N}`).
        device: String,
        /// Faults blamed on the device.
        faults: u64,
    },
    /// Retry pressure above threshold: faults are being absorbed, but
    /// at a cost that should not pass silently.
    ExcessiveRetries {
        /// Retries recorded pool-wide.
        retries: u64,
        /// Launches retired pool-wide.
        launches: u64,
    },
}

impl HealthFinding {
    /// Compact single-line label (`device_stall(device1)`), the form
    /// the runtime's event ring logs for a health transition.
    pub fn label(&self) -> String {
        match self {
            HealthFinding::DeviceStall { device, .. } => format!("device_stall({device})"),
            HealthFinding::StreamStarvation { stream, .. } => {
                format!("stream_starvation({stream})")
            }
            HealthFinding::TracerDrops { dropped } => format!("tracer_drops({dropped})"),
            HealthFinding::DeviceQuarantined { device, .. } => {
                format!("device_quarantined({device})")
            }
            HealthFinding::ExcessiveRetries { retries, launches } => {
                format!("excessive_retries({retries}/{launches})")
            }
        }
    }
}

/// The result of one health walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// True iff no findings.
    pub healthy: bool,
    /// All findings, in deterministic (snapshot) order.
    pub findings: Vec<HealthFinding>,
}

/// Walks snapshots and produces [`HealthReport`]s.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    cfg: HealthConfig,
}

impl HealthMonitor {
    /// A monitor with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor { cfg }
    }

    /// Walk one snapshot.
    pub fn check(&self, snap: &MetricsSnapshot) -> HealthReport {
        let mut findings = Vec::new();
        self.check_stalls(snap, &mut findings);
        self.check_starvation(snap, &mut findings);
        self.check_drops(snap, &mut findings);
        self.check_faults(snap, &mut findings);
        HealthReport {
            healthy: findings.is_empty(),
            findings,
        }
    }

    /// Device stall: idle fraction above threshold while the
    /// outstanding-command watermark proved there was parallel work.
    fn check_stalls(&self, snap: &MetricsSnapshot, out: &mut Vec<HealthFinding>) {
        let makespan = match snap.gauge(names::MAKESPAN_CYCLES, "") {
            Some(g) if g.value > 0.0 => g.value as u64,
            _ => return,
        };
        let watermark = snap
            .gauge(names::OUTSTANDING, "")
            .map(|g| g.watermark as u64)
            .unwrap_or(0);
        if watermark < self.cfg.stall_min_parallelism {
            return;
        }
        for c in snap
            .counters
            .iter()
            .filter(|c| c.name == names::DEVICE_BUSY_CYCLES)
        {
            let busy = c.value.min(makespan);
            let idle = makespan - busy;
            let idle_fraction = idle as f64 / makespan as f64;
            if idle_fraction > self.cfg.stall_idle_fraction {
                out.push(HealthFinding::DeviceStall {
                    device: c.label.clone(),
                    busy_cycles: c.value,
                    makespan_cycles: makespan,
                    idle_permille: (idle_fraction * 1000.0) as u64,
                });
            }
        }
    }

    /// Starvation: a stream with queued work whose virtual frontier
    /// lags the pool makespan by many multiples of the median launch
    /// latency.
    fn check_starvation(&self, snap: &MetricsSnapshot, out: &mut Vec<HealthFinding>) {
        let makespan = match snap.gauge(names::MAKESPAN_CYCLES, "") {
            Some(g) if g.value > 0.0 => g.value as u64,
            _ => return,
        };
        let median = snap.merged_histogram(names::LAUNCH_CYCLES).p50;
        if median == 0 {
            return;
        }
        for g in snap.gauges.iter().filter(|g| g.name == names::QUEUE_DEPTH) {
            let pending = g.value as u64;
            if pending == 0 {
                continue;
            }
            let vdone = snap
                .gauge(names::STREAM_VDONE_CYCLES, &g.label)
                .map(|v| v.value as u64)
                .unwrap_or(0);
            let age = makespan.saturating_sub(vdone);
            if age > self.cfg.starvation_factor.saturating_mul(median) {
                out.push(HealthFinding::StreamStarvation {
                    stream: g.label.clone(),
                    pending,
                    age_cycles: age,
                    median_latency_cycles: median,
                });
            }
        }
    }

    /// Observability data loss is itself a health finding: a partial
    /// trace silently lies about what happened.
    fn check_drops(&self, snap: &MetricsSnapshot, out: &mut Vec<HealthFinding>) {
        if let Some(c) = snap.counter(names::TRACER_DROPPED, "") {
            if c.value > 0 {
                out.push(HealthFinding::TracerDrops { dropped: c.value });
            }
        }
    }

    /// Fault-tolerance findings: quarantined devices (health-state
    /// gauge at severity 2) and retry pressure past the configured
    /// fraction of retired launches.
    fn check_faults(&self, snap: &MetricsSnapshot, out: &mut Vec<HealthFinding>) {
        for g in snap
            .gauges
            .iter()
            .filter(|g| g.name == names::DEVICE_HEALTH && g.value >= 2.0)
        {
            let faults = snap
                .counter(names::DEVICE_FAULTS, &g.label)
                .map(|c| c.value)
                .unwrap_or(0);
            out.push(HealthFinding::DeviceQuarantined {
                device: g.label.clone(),
                faults,
            });
        }
        let retries = snap
            .counter(names::RETRIES, "")
            .map(|c| c.value)
            .unwrap_or(0);
        if retries == 0 {
            return;
        }
        let launches = snap
            .counter(names::LAUNCHES, "")
            .map(|c| c.value)
            .unwrap_or(0);
        if retries as f64 > EXCESSIVE_RETRY_FACTOR * launches as f64 {
            out.push(HealthFinding::ExcessiveRetries { retries, launches });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    /// A synthetic snapshot: 2 devices, 2 streams, median launch 100.
    fn base_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_gauge(names::MAKESPAN_CYCLES, "", 10_000.0);
        s.gauges.push(crate::GaugeSnapshot {
            name: names::OUTSTANDING.to_string(),
            label: String::new(),
            value: 0.0,
            watermark: 8.0,
        });
        s.push_counter(names::DEVICE_BUSY_CYCLES, "device0", 9_500);
        s.push_counter(names::DEVICE_BUSY_CYCLES, "device1", 9_000);
        s.push_gauge(names::QUEUE_DEPTH, "stream0", 0.0);
        s.push_gauge(names::QUEUE_DEPTH, "stream1", 0.0);
        s.push_gauge(names::STREAM_VDONE_CYCLES, "stream0", 10_000.0);
        s.push_gauge(names::STREAM_VDONE_CYCLES, "stream1", 9_800.0);
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        s.histograms.push(h.snapshot(names::LAUNCH_CYCLES, "saxpy"));
        s.sort();
        s
    }

    #[test]
    fn healthy_snapshot_reports_healthy() {
        let report = HealthMonitor::default().check(&base_snapshot());
        assert!(report.healthy, "unexpected findings: {:?}", report.findings);
    }

    #[test]
    fn idle_device_with_parallel_work_is_a_stall() {
        let mut s = base_snapshot();
        for c in &mut s.counters {
            if c.name == names::DEVICE_BUSY_CYCLES && c.label == "device1" {
                c.value = 1_000; // idle 90% of a 10k makespan
            }
        }
        let report = HealthMonitor::default().check(&s);
        assert!(!report.healthy);
        match &report.findings[..] {
            [HealthFinding::DeviceStall {
                device,
                idle_permille,
                ..
            }] => {
                assert_eq!(device, "device1");
                assert_eq!(*idle_permille, 900);
            }
            other => panic!("expected one DeviceStall, got {other:?}"),
        }
    }

    #[test]
    fn single_command_runs_never_count_as_stalls() {
        let mut s = base_snapshot();
        for g in &mut s.gauges {
            if g.name == names::OUTSTANDING {
                g.watermark = 1.0; // serial workload: device1 idle is expected
            }
        }
        for c in &mut s.counters {
            if c.name == names::DEVICE_BUSY_CYCLES && c.label == "device1" {
                c.value = 0;
            }
        }
        assert!(HealthMonitor::default().check(&s).healthy);
    }

    #[test]
    fn aged_stream_with_pending_work_is_starved() {
        let mut s = base_snapshot();
        for g in &mut s.gauges {
            if g.name == names::QUEUE_DEPTH && g.label == "stream1" {
                g.value = 3.0;
                g.watermark = 3.0;
            }
            if g.name == names::STREAM_VDONE_CYCLES && g.label == "stream1" {
                g.value = 100.0; // age 9900 ≫ 8 × median(100)
                g.watermark = 100.0;
            }
        }
        let report = HealthMonitor::default().check(&s);
        match &report.findings[..] {
            [HealthFinding::StreamStarvation {
                stream,
                pending,
                age_cycles,
                median_latency_cycles,
            }] => {
                assert_eq!(stream, "stream1");
                assert_eq!(*pending, 3);
                assert_eq!(*age_cycles, 9_900);
                assert_eq!(*median_latency_cycles, 100);
            }
            other => panic!("expected one StreamStarvation, got {other:?}"),
        }
    }

    #[test]
    fn drops_surface_as_findings() {
        let mut s = base_snapshot();
        s.push_counter(names::TRACER_DROPPED, "", 17);
        s.sort();
        let report = HealthMonitor::default().check(&s);
        assert_eq!(
            report.findings,
            vec![HealthFinding::TracerDrops { dropped: 17 }]
        );
    }

    #[test]
    fn quarantined_device_is_a_finding() {
        let mut s = base_snapshot();
        s.push_gauge(names::DEVICE_HEALTH, "device0", 0.0);
        s.push_gauge(names::DEVICE_HEALTH, "device1", 2.0);
        s.push_counter(names::DEVICE_FAULTS, "device1", 5);
        s.sort();
        let report = HealthMonitor::default().check(&s);
        match &report.findings[..] {
            [HealthFinding::DeviceQuarantined { device, faults }] => {
                assert_eq!(device, "device1");
                assert_eq!(*faults, 5);
                assert_eq!(
                    report.findings[0].label(),
                    "device_quarantined(device1)".to_string()
                );
            }
            other => panic!("expected one DeviceQuarantined, got {other:?}"),
        }
    }

    #[test]
    fn degraded_devices_are_not_quarantine_findings() {
        let mut s = base_snapshot();
        s.push_gauge(names::DEVICE_HEALTH, "device0", 1.0);
        s.sort();
        assert!(HealthMonitor::default().check(&s).healthy);
    }

    #[test]
    fn retry_pressure_past_threshold_is_excessive() {
        let mut s = base_snapshot();
        s.push_counter(names::LAUNCHES, "", 10);
        s.push_counter(names::RETRIES, "", 6); // > 0.5 × 10
        s.sort();
        let report = HealthMonitor::default().check(&s);
        assert_eq!(
            report.findings,
            vec![HealthFinding::ExcessiveRetries {
                retries: 6,
                launches: 10,
            }]
        );
        // A few absorbed retries stay quiet.
        let mut quiet = base_snapshot();
        quiet.push_counter(names::LAUNCHES, "", 10);
        quiet.push_counter(names::RETRIES, "", 2);
        quiet.sort();
        assert!(HealthMonitor::default().check(&quiet).healthy);
    }

    #[test]
    fn report_round_trips_through_serde() {
        use serde::{Deserialize, Serialize};
        let report = HealthReport {
            healthy: false,
            findings: vec![
                HealthFinding::TracerDrops { dropped: 1 },
                HealthFinding::DeviceStall {
                    device: "device0".into(),
                    busy_cycles: 10,
                    makespan_cycles: 100,
                    idle_permille: 900,
                },
            ],
        };
        let back = HealthReport::from_value(&report.to_value()).expect("round trip");
        assert_eq!(back, report);
    }
}
