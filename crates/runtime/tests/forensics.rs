//! Forensics integration: black-box determinism, postmortem
//! bundles, configurable health thresholds, and cache counters in the
//! always-on metrics snapshot.

use proptest::prelude::*;
use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_metrics::names;
use simt_profile::{CommandKind, Event};
use simt_runtime::{
    HealthConfig, HealthFinding, HealthMonitor, ProfileConfig, Runtime, RuntimeConfig,
};

mod common;

/// One deterministic run: a single device and a backlog built under
/// pause, so the drain order — and with it the flight window — is a
/// pure function of the submitted work. Returns the drained runtime.
fn forensic_runtime(launches: usize, scale: i32) -> Runtime {
    forensic_runtime_with(launches, scale, Some(ProfileConfig::full()))
}

/// [`forensic_runtime`] under the given profiler setting.
fn forensic_runtime_with(launches: usize, scale: i32, profile: Option<ProfileConfig>) -> Runtime {
    let cfg = RuntimeConfig {
        devices: 1,
        profile,
        ..Default::default()
    };
    let rt = Runtime::new(cfg);
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    let s = rt.stream();
    rt.pause();
    for _ in 0..launches {
        s.launch(LaunchSpec::saxpy_ir(scale, &x, &y));
    }
    rt.resume();
    rt.synchronize().unwrap();
    rt
}

/// The serialized flight dump and postmortem bundle of one
/// [`forensic_runtime`].
fn forensic_run(launches: usize, scale: i32) -> (String, String) {
    let rt = forensic_runtime(launches, scale);
    let flight = rt.flight().expect("the black box is on by default");
    let dump = serde_json::to_string(&flight).unwrap();
    let report = rt
        .postmortem("proptest")
        .expect("metrics are on by default");
    (dump, serde_json::to_string(&report).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same program, same seed ⇒ byte-identical flight dumps and
    /// postmortem bundles (everything in them is modeled cycles and
    /// sequence numbers; no wall-clock leaks in).
    #[test]
    fn flight_and_postmortem_are_byte_deterministic(
        launches in 1usize..4,
        scale in -3i32..4,
    ) {
        let (f1, p1) = forensic_run(launches, scale);
        let (f2, p2) = forensic_run(launches, scale);
        prop_assert_eq!(f1, f2);
        prop_assert_eq!(p1, p2);
    }
}

#[test]
fn metrics_exports_of_the_deterministic_run_match_the_golden_files() {
    let snap = forensic_runtime(3, 2)
        .metrics_snapshot()
        .expect("metrics are on by default");
    common::assert_golden(
        "metrics_snapshot.json",
        &serde_json::to_string_pretty(&snap).unwrap(),
    );
    common::assert_golden("metrics.prom", &simt_metrics::prometheus::render(&snap));
}

#[test]
fn injected_stall_postmortem_names_the_device_and_its_hottest_pc() {
    // A single serialized stream never overlaps commands, so placement
    // ties always break toward device0 and device1 idles through the
    // whole makespan: an injected stall. The paused backlog drives the
    // outstanding watermark past stall_min_parallelism so the watchdog
    // is allowed to call it one.
    let cfg = RuntimeConfig::default() // 2 devices
        .with_profile(ProfileConfig::full())
        .with_health(HealthConfig {
            stall_idle_fraction: 0.4,
            stall_min_parallelism: 2,
            starvation_factor: 8,
        });
    let rt = Runtime::new(cfg);
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let s = rt.stream();
    rt.pause();
    for _ in 0..6 {
        s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    }
    rt.resume();
    rt.synchronize().unwrap();

    let report = rt
        .postmortem("injected device stall")
        .expect("metrics are on by default");
    assert!(!report.health.healthy);
    let stalled = report
        .health
        .findings
        .iter()
        .find_map(|f| match f {
            HealthFinding::DeviceStall { device, .. } => Some(device.clone()),
            _ => None,
        })
        .expect("a DeviceStall finding");
    assert_eq!(stalled, "device1");

    // The finding also lands in the flight window, ordered against the
    // scheduler activity that led up to it.
    let ev = &report.flight.events;
    assert!(ev.iter().any(|r| matches!(
        &r.event,
        Event::Health { finding } if finding == "device_stall(device1)"
    )));
    // ... which contains the full scheduler story of the run.
    assert!(ev.iter().any(|r| matches!(r.event, Event::Pause)));
    assert!(ev.iter().any(|r| matches!(r.event, Event::Resume)));
    assert!(ev.iter().any(|r| matches!(r.event, Event::Enqueue { .. })));
    assert!(ev.iter().any(|r| matches!(r.event, Event::Batch { .. })));
    assert!(ev.iter().any(|r| matches!(r.event, Event::Placed { .. })));
    assert!(ev.iter().any(|r| matches!(r.event, Event::Publish { .. })));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, Event::CacheLookup { .. })));
    assert!(!report.timelines.is_empty());

    // Per-PC hotspots (per_pc profiling was on) name the kernel's
    // hottest instruction, with disassembly and IR attribution.
    let hot = report.hotspots.first().expect("profiled kernel hotspots");
    assert!(hot.total_cycles > 0);
    let pc = hot.pcs.first().expect("a hottest PC");
    assert!(pc.cycles > 0 && pc.issues > 0);
    assert!(!pc.asm.is_empty());
    assert!(
        hot.pcs.iter().any(|p| p.ir_value.is_some()),
        "IR-built kernel should have source-map attribution"
    );
    let text = report.render_text();
    assert!(text.contains("device_stall(device1)") || text.contains("DeviceStall"));

    // The thresholds are live configuration, not cosmetics: the same
    // snapshot under a permissive monitor reads healthy.
    let permissive = HealthMonitor::new(HealthConfig {
        stall_min_parallelism: u64::MAX,
        ..Default::default()
    });
    assert!(permissive.check(&report.metrics).healthy);
}

#[test]
fn the_black_box_is_the_tail_of_the_trace() {
    // Profiling on: one ring serves both views. The black box is its
    // newest `flight_capacity` records — same events, same sequence
    // numbers — and the trace is all of them.
    let cfg = RuntimeConfig {
        devices: 1,
        flight_capacity: 8,
        ..Default::default()
    }
    .with_profile(ProfileConfig::full());
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    rt.pause();
    for _ in 0..3 {
        s.launch(LaunchSpec::saxpy_ir(
            2,
            &int_vector(64, 1),
            &int_vector(64, 2),
        ));
    }
    rt.resume();
    rt.synchronize().unwrap();
    let trace = rt.tracer().expect("profiled pool").records();
    let window = rt.flight().expect("black box on");
    assert!(trace.len() > 8, "the trace outgrew the window");
    assert_eq!(window.capacity, 8);
    assert_eq!(window.recorded, trace.len() as u64);
    assert_eq!(window.events, trace[trace.len() - 8..]);
    // Detail (pass runs, kernel names) is in the trace because the
    // profiler is on; a plain pool's black box records neither.
    assert!(trace
        .iter()
        .any(|r| matches!(r.event, Event::PassRun { .. })));
    let plain = forensic_runtime_with(3, 2, None).flight().unwrap();
    assert!(plain.events.iter().all(|r| !matches!(
        r.event,
        Event::PassRun { .. }
            | Event::Placed {
                kernel: Some(_),
                ..
            }
    )));
    assert!(plain
        .events
        .iter()
        .any(|r| matches!(r.event, Event::Placed { kernel: None, .. })));
}

#[test]
fn flight_capacity_zero_disables_the_recorder_but_not_postmortems() {
    let rt = Runtime::new(RuntimeConfig::default().with_flight_capacity(0));
    // Neither view asked for: the pool owns no ring at all.
    assert!(rt.flight().is_none());
    assert!(rt.tracer().is_none());
    let s = rt.stream();
    s.launch(LaunchSpec::sum(&int_vector(64, 1)));
    rt.synchronize().unwrap();
    let report = rt.postmortem("caller request").expect("metrics are on");
    assert_eq!(report.reason, "caller request");
    assert_eq!(report.flight.capacity, 0);
    assert!(report.flight.events.is_empty());
    assert!(report.timelines.is_empty());
    // No profiling either: the bundle degrades to health + metrics.
    assert!(report.hotspots.is_empty());
    assert!(report.metrics.gauge(names::MAKESPAN_CYCLES, "").is_some());
}

#[test]
fn failed_commands_land_in_the_flight_window() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    let mut bad = LaunchSpec::sum(&int_vector(16, 1));
    bad.source = simt_kernels::KernelSource::Asm("  frob r1\n  exit".into());
    let h = s.launch(bad);
    assert!(h.wait().is_err());
    let dump = rt.flight().expect("the black box is on by default");
    assert!(dump.events.iter().any(|r| matches!(
        &r.event,
        Event::Failed { kind: CommandKind::Launch, error, .. } if error.contains("assembly")
    )));
}

#[test]
fn cache_counters_surface_in_snapshot_and_prometheus() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    rt.synchronize().unwrap();
    let snap = rt.metrics_snapshot().expect("metrics are on by default");
    let counter = |name: &str| snap.counter(name, "").map(|c| c.value);
    assert!(counter(names::COMPILE_CACHE_MISSES).unwrap_or(0) >= 1);
    assert!(counter(names::COMPILE_CACHE_HITS).unwrap_or(0) >= 1);
    assert_eq!(counter(names::COMPILE_CACHE_EVICTIONS), Some(0));
    assert!(counter(names::DECODE_CACHE_HITS).unwrap_or(0) >= 1);
    assert!(counter(names::DECODE_CACHE_MISSES).unwrap_or(0) >= 1);
    let prom = simt_metrics::prometheus::render(&snap);
    for name in [
        names::COMPILE_CACHE_HITS,
        names::COMPILE_CACHE_MISSES,
        names::COMPILE_CACHE_EVICTIONS,
        names::DECODE_CACHE_HITS,
        names::DECODE_CACHE_MISSES,
    ] {
        assert!(prom.contains(name), "{name} missing from METRICS.prom text");
    }
}
