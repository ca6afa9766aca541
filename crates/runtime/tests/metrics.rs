//! Integration: the always-on metrics pipeline end to end — counter
//! totals cross-checked against per-handle execution stats, per-kernel
//! latency histograms validated against brute-force nearest-rank
//! percentiles over the very cycles the handles reported, snapshot
//! determinism across identical runs and across pool widths, graph
//! replay span accounting, the health watchdog on a clean run, and
//! the `with_metrics(false)` off switch.

use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
use simt_kernels::LaunchSpec;
use simt_metrics::names;
use simt_runtime::{GraphBuilder, MetricsSnapshot, NodeId, Runtime, RuntimeConfig};
use std::collections::BTreeMap;

/// A deterministic job list with repeated kernels (so per-kernel
/// histograms have multi-sample distributions) and varied shapes (so
/// the distributions are non-degenerate).
fn jobs() -> Vec<LaunchSpec> {
    let mut jobs = Vec::new();
    for round in 0..5u64 {
        let n = 64 << (round as usize % 3);
        let x = int_vector(n, round);
        let y = int_vector(n, 100 + round);
        jobs.push(LaunchSpec::saxpy(2 + round as i32, &x, &y));
        jobs.push(LaunchSpec::dot(&x, &y));
        jobs.push(LaunchSpec::sum(&x));
        let taps = lowpass_taps(8);
        let sig = q15_signal(64 + 7, 30 + round);
        jobs.push(LaunchSpec::fir(&sig, &taps, 64));
    }
    jobs
}

/// Pump the job list through a pool of `devices` devices over
/// `streams` streams with a paused backlog, returning the snapshot and
/// the per-launch (kernel, cycles, instructions, thread_ops) records
/// the handles reported.
fn pump(devices: usize, streams: usize) -> (MetricsSnapshot, Vec<(String, u64, u64, u64)>) {
    let rt = Runtime::new(RuntimeConfig::with_devices(devices));
    let handles: Vec<_> = (0..streams).map(|_| rt.stream()).collect();
    rt.pause();
    let mut pending = Vec::new();
    for (i, spec) in jobs().into_iter().enumerate() {
        let s = &handles[i % streams];
        let name = spec.name.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        let h = s.launch(spec);
        let out = s.copy_out(off, len);
        pending.push((name, h, out));
    }
    rt.resume();
    rt.synchronize().unwrap();
    let mut launches = Vec::new();
    for (name, h, out) in pending {
        let stats = h.wait().unwrap();
        out.wait().unwrap();
        launches.push((name, stats.cycles, stats.instructions, stats.thread_ops));
    }
    (rt.metrics_snapshot().unwrap(), launches)
}

/// Brute-force nearest-rank percentile over an unsorted sample set.
fn brute_percentile(samples: &[u64], num: u64, den: u64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((v.len() as u64 * num).div_ceil(den)).max(1) as usize;
    v[rank - 1]
}

#[test]
fn counter_totals_match_handle_stats() {
    let (snap, launches) = pump(2, 4);
    let n = launches.len() as u64;
    let count = |name: &str| {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum::<u64>()
    };
    assert_eq!(count(names::LAUNCHES), n);
    assert_eq!(count(names::COPIES), n, "one copy-out per launch");
    assert_eq!(
        count(names::DYN_INSTRS),
        launches.iter().map(|l| l.2).sum::<u64>(),
        "dyn-instr counter vs sum of handle stats"
    );
    assert_eq!(
        count(names::THREAD_OPS),
        launches.iter().map(|l| l.3).sum::<u64>()
    );
    // The per-stream latency histograms jointly hold every launch and
    // every copy.
    let stream_launches = snap.merged_histogram(names::STREAM_LAUNCH_CYCLES);
    let stream_copies = snap.merged_histogram(names::STREAM_COPY_CYCLES);
    assert_eq!(stream_launches.count, n);
    assert_eq!(stream_copies.count, n);
    // Device busy time is compute plus DMA: the sum of every modeled
    // launch cycle the handles reported and every modeled copy cycle
    // the stream histograms recorded.
    assert_eq!(
        count(names::DEVICE_BUSY_CYCLES),
        launches.iter().map(|l| l.1).sum::<u64>() + stream_copies.sum,
        "busy cycles vs launch + copy cycles"
    );
    // All work retired: the outstanding gauge is back to zero, but its
    // watermark remembers the full paused backlog (launch + copy-out
    // per job, all enqueued before any claim).
    let outstanding = snap.gauge(names::OUTSTANDING, "").unwrap();
    assert_eq!(outstanding.value, 0.0);
    assert_eq!(outstanding.watermark, 2.0 * n as f64);
    // Compile-cache accounting made it into the snapshot and agrees
    // with itself: every program either hit or missed.
    let hits = count(names::COMPILE_CACHE_HITS);
    let misses = count(names::COMPILE_CACHE_MISSES);
    assert!(hits + misses >= n, "{hits} hits + {misses} misses");
}

#[test]
fn per_kernel_percentiles_are_exact_against_brute_force() {
    let (snap, launches) = pump(2, 4);
    let mut by_kernel: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (name, cycles, _, _) in &launches {
        by_kernel.entry(name.clone()).or_default().push(*cycles);
    }
    assert!(by_kernel.len() >= 4);
    for (kernel, cycles) in &by_kernel {
        let h = snap
            .histogram(names::LAUNCH_CYCLES, kernel)
            .unwrap_or_else(|| panic!("no latency histogram for `{kernel}`"));
        assert!(h.exact, "{kernel}: small sample sets stay exact");
        assert_eq!(h.count, cycles.len() as u64);
        assert_eq!(h.sum, cycles.iter().sum::<u64>());
        assert_eq!(h.max, *cycles.iter().max().unwrap());
        assert_eq!(h.min, *cycles.iter().min().unwrap());
        assert_eq!(h.p50, brute_percentile(cycles, 50, 100), "{kernel}: p50");
        assert_eq!(h.p90, brute_percentile(cycles, 90, 100), "{kernel}: p90");
        assert_eq!(h.p99, brute_percentile(cycles, 99, 100), "{kernel}: p99");
        assert_eq!(h.percentile(1, 4), brute_percentile(cycles, 1, 4));
    }
    // The pool-wide merged view is exact too, over all launches at once.
    let all: Vec<u64> = launches.iter().map(|l| l.1).collect();
    let merged = snap.merged_histogram(names::LAUNCH_CYCLES);
    assert_eq!(merged.count, all.len() as u64);
    assert_eq!(merged.p99, brute_percentile(&all, 99, 100));
}

#[test]
fn snapshots_are_deterministic_across_identical_runs() {
    // One device + a paused backlog: claim order, placement and every
    // watermark are fully determined, so two identical programs yield
    // bit-identical snapshots — gauges, watermarks, makespan and all.
    let (a, _) = pump(1, 4);
    let (b, _) = pump(1, 4);
    assert_eq!(a, b);
}

#[test]
fn modeled_latencies_are_pool_width_independent() {
    // Serial (1 device) vs parallel (2 devices): placement differs,
    // but modeled per-launch cycles are a property of the kernel, so
    // every per-kernel and per-stream latency histogram is identical.
    let (serial, _) = pump(1, 4);
    let (parallel, _) = pump(2, 4);
    for name in [
        names::LAUNCH_CYCLES,
        names::STREAM_LAUNCH_CYCLES,
        names::STREAM_COPY_CYCLES,
    ] {
        let s: Vec<_> = serial.histograms_named(name).collect();
        let p: Vec<_> = parallel.histograms_named(name).collect();
        assert_eq!(s, p, "{name} differs between pool widths");
    }
    for name in [names::LAUNCHES, names::COPIES, names::DYN_INSTRS] {
        let total = |snap: &MetricsSnapshot| {
            snap.counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum::<u64>()
        };
        assert_eq!(total(&serial), total(&parallel), "{name}");
    }
}

#[test]
fn graph_replays_record_span_and_kernel_histograms() {
    let rt = Runtime::new(RuntimeConfig::default());
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    let p = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let mut b = GraphBuilder::new();
    let copies: Vec<NodeId> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(p.out_off, p.out_len, &prev);
    let exec = rt.instantiate(b.finish().unwrap()).unwrap();

    let mut spans = Vec::new();
    for _ in 0..3 {
        spans.push(rt.replay(&exec).unwrap().span_cycles);
    }
    let snap = rt.metrics_snapshot().unwrap();
    let h = snap.merged_histogram(names::GRAPH_SPAN_CYCLES);
    assert_eq!(h.count, 3, "one span sample per replay");
    assert_eq!(h.sum, spans.iter().sum::<u64>());
    assert_eq!(h.max, *spans.iter().max().unwrap());
    assert_eq!(h.min, *spans.iter().min().unwrap());
    // Each stage kernel's latency histogram saw every replayed launch
    // exactly once: graph nodes retire through the path stream
    // commands take, and only that path records it.
    for stage in &p.stages {
        let k = snap.histogram(names::LAUNCH_CYCLES, &stage.name).unwrap();
        assert_eq!(k.count, 3, "{}", stage.name);
    }
    assert_eq!(snap.counter(names::LAUNCHES, "").unwrap().value, 9);
}

#[test]
fn health_is_clean_on_a_normal_run() {
    let rt = Runtime::new(RuntimeConfig::default());
    let streams: Vec<_> = (0..4).map(|_| rt.stream()).collect();
    for (i, spec) in jobs().into_iter().enumerate() {
        streams[i % streams.len()].launch(spec);
    }
    rt.synchronize().unwrap();
    let report = rt.health().unwrap();
    assert!(report.healthy, "unexpected findings: {:?}", report.findings);
    let snap = rt.metrics_snapshot().unwrap();
    assert_eq!(snap.counter(names::TRACER_DROPPED, "").unwrap().value, 0);
    let occ = snap.gauge(names::OCCUPANCY, "").unwrap().value;
    assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
}

/// A pool that has retired more commands than any bounded log holds
/// has lost nothing it promised to keep: the books count every command,
/// the black box laps by design, and neither is a health finding. (A
/// capped completion trace used to flag every pool older than 65 536
/// commands, forever.)
#[test]
fn a_long_running_pool_reports_no_observability_loss() {
    const COMMANDS: u64 = 70_000;
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    for i in 0..COMMANDS {
        s.copy_in(0, &[i as u32]);
        if i % 4096 == 4095 {
            rt.synchronize().unwrap();
        }
    }
    rt.synchronize().unwrap();
    assert_eq!(rt.stats().commands(), COMMANDS);
    // (One stream of copies leaves the second device idle, which the
    // watchdog does flag; what it must not flag is lost data.)
    let findings = rt.health().unwrap().findings;
    assert!(
        !findings.iter().any(|f| f.label().contains("drops")),
        "unexpected findings: {findings:?}"
    );
    let snap = rt.metrics_snapshot().unwrap();
    assert_eq!(snap.counter(names::TRACER_DROPPED, "").unwrap().value, 0);
    assert_eq!(snap.counter(names::COPIES, "").unwrap().value, COMMANDS);
}

#[test]
fn metrics_can_be_switched_off() {
    let rt = Runtime::new(RuntimeConfig::default().with_metrics(false));
    let s = rt.stream();
    let spec = LaunchSpec::saxpy(3, &int_vector(64, 1), &int_vector(64, 2));
    let expected = spec.expected.clone();
    let (off, len) = (spec.out_off, spec.out_len);
    s.launch(spec);
    let out = s.copy_out(off, len);
    rt.synchronize().unwrap();
    assert_eq!(out.wait().unwrap(), expected, "work still runs");
    assert!(rt.metrics_snapshot().is_none());
    assert!(rt.health().is_none());
}
