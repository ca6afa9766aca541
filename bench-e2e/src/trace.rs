//! The traced run: the workload's rounds again with the span recorder
//! on (interleaved with untraced rounds, so the recorder's own cost is
//! measured), a 1-device serial leg whose spans must account for the
//! wave wall, the shares the pool's public statistics give, and the
//! workload-independent layer probes.

use crate::layers::{self, BareKernel, Block};
use crate::report::Report;
use crate::run::{self, pool, Calibrator, Round};
use crate::spans::Spans;
use crate::stats::{self, Samples};
use crate::workloads::{Load, Session, WaveOut};
use simt_compiler::{CompileCache, OptLevel};
use simt_kernels::{KernelSource, LaunchSpec};
use simt_runtime::RuntimeStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced rounds, each paired with an untraced one.
const TRACE_ROUNDS: usize = 8;
/// Rounds per side of each sink's A/B comparison.
const SINK_ROUNDS: usize = 6;
/// Passes the serial leg makes; medians over them are reported.
const SERIAL_PASSES: usize = 7;
/// A serial pass over the graph workload is this many cycles (one wave
/// of three replays is too short to time alone).
const SERIAL_GRAPH_CYCLES: usize = 32;
/// The serial leg's self times must account for this much of its wall.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// One cold compile + decode of a spec through a private cache.
fn bare_compile_ns(spec: &LaunchSpec) -> f64 {
    let cache = CompileCache::new();
    let t = Instant::now();
    match &spec.source {
        KernelSource::Ir(k) => {
            cache
                .get_or_compile_decoded(k, &spec.config, OptLevel::Full)
                .expect("kernel compiles");
        }
        KernelSource::Asm(asm) => {
            cache
                .get_or_assemble_decoded(asm, &spec.config)
                .expect("kernel assembles");
        }
    }
    t.elapsed().as_nanos() as f64
}

/// What the serial leg found, each the median over its passes.
struct Serial {
    /// Σ bare `Processor::run` of a pass's launches / the pass's wall.
    run_share: f64,
    /// Σ bare compile + decode of the launches that missed the compile
    /// cache / the pass's wall.
    compile_share: f64,
    /// (wall − Σ bare run) / launches, ns.
    overhead_ns: f64,
    /// Self time of the wave roots / wall: wall in no layer's span.
    unattributed: f64,
    /// Everything checked.
    checked: WaveOut,
}

/// The serial leg: one device, one stream, so launches execute one
/// after another and the generator's spans cover the whole wall. The
/// pool is warm unless the workload is about cold kernels. Each pass
/// is followed at once by the same launches run bare, and every ratio
/// is taken within a pass before the median over passes — on a box
/// whose speed changes from one 10 ms to the next, a ratio is only as
/// good as its two sides are close in time.
fn serial_leg(load: &Arc<Load>, fmax_mhz: f64, cold: bool, sp: &mut Spans) -> Serial {
    let mut sess = Session::new(load, pool(1, fmax_mhz), 1);
    let cycles = match &**load {
        Load::Stream(_) => 1,
        Load::Graph(_) => SERIAL_GRAPH_CYCLES,
    };
    let waves = sess.waves_per_cycle() * cycles;
    if !cold {
        for _ in 0..waves {
            let warm = sess.wave(&mut Spans::off());
            assert_eq!(warm.failed, 0, "serial warm-up wave failed");
        }
    }
    // One cycle's launches, each with a bare processor of its own.
    let mut cycle: Vec<(LaunchSpec, &[Block], BareKernel)> = match &**load {
        Load::Stream(stream) => stream
            .jobs
            .iter()
            .map(|j| {
                (
                    j.spec.clone(),
                    j.inputs.as_slice(),
                    BareKernel::new(&j.spec),
                )
            })
            .collect(),
        Load::Graph(cases) => cases
            .iter()
            .zip(sess.graphs())
            .flat_map(|(case, g)| {
                g.launch_specs.iter().map(|spec| {
                    (
                        spec.clone(),
                        case.pipeline.inputs.as_slice(),
                        BareKernel::new(spec),
                    )
                })
            })
            .collect(),
    };
    let mut checked = WaveOut::default();
    let (mut run_share, mut compile_share, mut overhead, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERIAL_PASSES {
        let misses = sess.rt.compile_cache().misses();
        let mut out = WaveOut::default();
        for _ in 0..waves {
            sess.prepare();
            out.add(&sess.wave(sp));
        }
        let times = sp.take_round();
        let wall: f64 = times.values().map(|t| t.ns as f64).sum();
        let launches = out.launches.max(1) as f64;
        let missed = (sess.rt.compile_cache().misses() - misses) as f64 / launches;
        checked.add(&out);
        // The same launches bare, on the kind of thread that executed
        // them: the caller's for graph replay; for streams a thread of
        // their own like the pool's worker — spawned while this one runs,
        // both start on the other core, and on a shared box the two
        // cores are often not equally fast. Second run of two, so a
        // fresh thread's cold cache is not charged to the kernel.
        let mut bare_pass = || {
            let (mut run_ns, mut compile_ns) = (0.0, 0.0);
            for (spec, inputs, bare) in &mut cycle {
                bare.time_run(inputs);
                run_ns += bare.time_run(inputs).0;
                if missed > 0.0 {
                    compile_ns += bare_compile_ns(spec) * missed;
                }
            }
            (run_ns, compile_ns)
        };
        let (run_ns, compile_ns) = match &**load {
            Load::Graph(_) => bare_pass(),
            Load::Stream(_) => {
                std::thread::scope(|s| s.spawn(bare_pass).join().expect("bare runs do not panic"))
            }
        };
        run_share.push(run_ns * cycles as f64 / wall);
        compile_share.push(compile_ns * cycles as f64 / wall);
        overhead.push((wall - run_ns * cycles as f64) / launches);
        unattributed.push(times.get("harness.wave").map_or(0.0, |t| t.ns as f64) / wall);
    }
    Serial {
        run_share: stats::median(&run_share),
        compile_share: stats::median(&compile_share),
        overhead_ns: stats::median(&overhead),
        unattributed: stats::median(&unattributed),
        checked,
    }
}

/// Shares the pool's own statistics give over a window of rounds.
fn pool_shares(r: &mut Report, before: &RuntimeStats, after: &RuntimeStats) {
    let sum = |f: fn(&simt_runtime::DeviceStats) -> u64, s: &RuntimeStats| -> f64 {
        s.devices.iter().map(f).sum::<u64>() as f64
    };
    let delta = |f: fn(&simt_runtime::DeviceStats) -> u64| sum(f, after) - sum(f, before);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    r.push(
        "runtime.batch_size_mean",
        ratio(delta(|d| d.batched_commands), delta(|d| d.batches)),
        "count",
    );
    let (hits, misses) = (delta(|d| d.cache_hits), delta(|d| d.cache_misses));
    r.push(
        "runtime.build_reuse_share",
        ratio(hits, hits + misses),
        "fraction",
    );
    let busy: f64 = after
        .devices
        .iter()
        .zip(&before.devices)
        .map(|(a, b)| (a.busy_wall - b.busy_wall).as_secs_f64())
        .sum();
    let wall = (after.wall - before.wall).as_secs_f64() * after.devices.len() as f64;
    r.push("runtime.busy_wall_share", ratio(busy, wall), "fraction");
    let dev0 = (after.devices[0].placements - before.devices[0].placements) as f64;
    r.push(
        "runtime.placement_dev0_share",
        ratio(dev0, delta(|d| d.placements)),
        "fraction",
    );
    r.push(
        "runtime.modeled_occupancy",
        after.modeled_occupancy(),
        "fraction",
    );
}

/// The traced run's output.
pub struct Traced {
    /// Every per-layer metric.
    pub report: Report,
    /// Everything checked along the way.
    pub checked: WaveOut,
    /// The span file's contents.
    pub spans_json: String,
}

/// Run the traced run of one workload. `seconds` scales the rounds.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Traced, String> {
    let round_len = Duration::from_secs_f64((seconds / 40.0).min(0.5));
    let mut r = Report::default();
    let mut ready = run::set_up(workload, seed)?;
    let mut checked = ready.leg.out;
    checked.add(&ready.warm);
    let sess = &mut ready.sess;
    let calib = Calibrator::new();

    // Untraced and traced rounds, interleaved.
    let (mut off, mut on) = (Spans::off(), Spans::on());
    let mut wave_us = Samples::default();
    checked.add(&run::round(sess, &mut off, round_len, &mut wave_us, &calib).out);
    wave_us.clear();
    let cache = |s: &Session| {
        let c = s.rt.compile_cache();
        [
            c.hits(),
            c.misses(),
            c.decode_hits(),
            c.decode_misses(),
            c.evictions(),
        ]
        .map(|v| v as f64)
    };
    let (stats_before, cache_before) = (sess.rt.stats(), cache(sess));
    let mut plain: Vec<Round> = Vec::new();
    let mut traced_rates = Vec::new();
    // Best (lowest) per-launch or per-call ns of each span name.
    let mut best: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for _ in 0..TRACE_ROUNDS {
        plain.push(run::round(sess, &mut off, round_len, &mut wave_us, &calib));
        let rd = run::round(sess, &mut on, round_len, &mut Samples::default(), &calib);
        traced_rates.push(rd.launches_per_s());
        checked.add(&rd.out);
        let times = on.take_round();
        for (name, t) in &times {
            let per_launch = t.ns as f64 / rd.out.launches.max(1) as f64;
            let per_call = t.ns as f64 / t.calls.max(1) as f64;
            let slot = best.entry(name).or_insert((f64::MAX, f64::MAX));
            *slot = (slot.0.min(per_launch), slot.1.min(per_call));
        }
    }
    for rd in &plain {
        checked.add(&rd.out);
    }
    let (stats_after, cache_after) = (sess.rt.stats(), cache(sess));
    let per_launch = |name: &str| best.get(name).map_or(0.0, |b| b.0);
    let per_call = |name: &str| best.get(name).map_or(0.0, |b| b.1);
    r.push("runtime.enqueue_ns", per_launch("runtime.enqueue"), "ns");
    r.push(
        "runtime.sync_wait_ns",
        per_launch("runtime.sync_wait"),
        "ns",
    );
    r.push(
        "runtime.handle_wait_ns",
        per_launch("runtime.handle_wait"),
        "ns",
    );
    r.push("runtime.event_ns", per_call("runtime.event"), "ns");
    r.push("runtime.replay_ns", per_call("runtime.replay"), "ns");
    r.push(
        "runtime.set_copy_in_ns",
        per_call("runtime.set_copy_in"),
        "ns",
    );
    r.push(
        "harness.generator_ns",
        per_launch("harness.spec_clone")
            + per_launch("harness.verify")
            + per_launch("harness.wave"),
        "ns",
    );
    let rates: Vec<f64> = plain.iter().map(Round::launches_per_s).collect();
    r.push(
        "runtime.wave_p50_us",
        stats::percentile(wave_us.kept(), 50.0),
        "us",
    );
    r.push(
        "runtime.wave_p99_us",
        stats::percentile(wave_us.kept(), 99.0),
        "us",
    );
    r.push("runtime.wave_samples", wave_us.seen() as f64, "count");
    r.push(
        "runtime.round_median_launches_per_s",
        stats::median(&rates),
        "launches/s",
    );
    r.push("runtime.round_mad_pct", stats::mad_pct(&rates), "%");
    let raw: Vec<f64> = plain.iter().map(Round::raw_launches_per_s).collect();
    r.push(
        "runtime.round_best_raw_launches_per_s",
        stats::max(&raw),
        "launches/s",
    );
    pool_shares(&mut r, &stats_before, &stats_after);
    let d: Vec<f64> = cache_after
        .iter()
        .zip(&cache_before)
        .map(|(a, b)| a - b)
        .collect();
    let share = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    r.push("compiler.hit_rate", share(d[0], d[1]), "fraction");
    r.push("compiler.decode_hit_rate", share(d[2], d[3]), "fraction");
    r.push("compiler.evictions", d[4], "count");

    // The serial leg, spans on.
    let cold = workload == "compile_cold";
    let serial = serial_leg(&ready.load, ready.leg.fmax_mhz, cold, &mut on);
    checked.add(&serial.checked);
    if serial.unattributed > MAX_UNATTRIBUTED {
        return Err(format!(
            "serial leg: {:.1} % of the wave wall is in no layer's span",
            100.0 * serial.unattributed
        ));
    }
    r.push("runtime.overhead_ns_per_launch", serial.overhead_ns, "ns");
    r.push("core.run_share", serial.run_share, "fraction");
    r.push(
        "compiler.compile_decode_share",
        serial.compile_share,
        "fraction",
    );
    r.push(
        "harness.unattributed_share",
        serial.unattributed,
        "fraction",
    );

    // Everything that does not depend on the workload.
    checked.add(&layers::probe(
        &mut r,
        seed,
        round_len / 2,
        SINK_ROUNDS,
        &calib,
    ));

    let calib: Vec<f64> = plain.iter().map(|rd| rd.calib_ns).collect();
    r.push("harness.calib_ns", stats::median(&calib), "ns");
    r.push(
        "harness.trace_overhead_pct",
        100.0 * (1.0 - stats::median(&traced_rates) / stats::median(&rates)),
        "%",
    );
    r.push("harness.rounds", plain.len() as f64, "count");
    r.push(
        "harness.failed_share",
        checked.failed as f64 / checked.attempted as f64,
        "fraction",
    );
    Ok(Traced {
        report: r,
        checked,
        spans_json: on.to_json(workload, seed),
    })
}
