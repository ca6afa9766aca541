//! Per-layer probes that do not depend on the workload under test:
//! each times one public call of one crate from outside, or reads an
//! exact count that crate reports. Time values are the best of several
//! batches; counts are exact and repeat for a fixed seed.

use crate::report::Report;
use crate::run::{self, Calibrator};
use crate::spans::Spans;
use crate::stats::{self, Samples};
use crate::workloads::{self, Load, Session, SplitMix64, STREAMS};
use crate::{model, workloads::WaveOut};
use fpga_fabric::Device;
use fpga_fitter::{compile as fit, seed_sweep, CompileOptions};
use simt_compiler::regalloc::{allocate, linearize};
use simt_compiler::{compile, optimize, CompileCache, Kernel, Op, OptLevel, Ty};
use simt_core::{DecodedProgram, ExecStats, Processor, ProcessorConfig, RunOptions};
use simt_datapath::{
    Int32Multiplier, MultiplicativeShifter, PipelinedAdder32, ShiftKind, Signedness,
};
use simt_isa::{assemble, from_image, to_image, CycleClass, SP_COUNT};
use simt_kernels::iir::Biquad;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_matrix, q15_signal};
use simt_kernels::{KernelSource, LaunchSpec};
use simt_metrics::names;
use simt_runtime::{ChaosConfig, ProfileConfig, Runtime, RuntimeConfig};
use simt_system::{System, SystemConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best mean ns per call over `reps` batches of `iters` calls.
pub fn best_ns<T>(reps: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::MAX, f64::min)
}

/// The four kernel families the core and compiler probes walk, at the
/// paper's 1024 threads.
fn families(rng: &mut SplitMix64) -> Vec<(&'static str, LaunchSpec)> {
    let n = 1024;
    let taps = lowpass_taps(16);
    let sig = q15_signal(n + 15, rng.next());
    vec![
        (
            "saxpy",
            LaunchSpec::saxpy(3, &int_vector(n, rng.next()), &int_vector(n, rng.next())),
        ),
        ("fir", LaunchSpec::fir(&sig, &taps, n)),
        (
            "matmul_ir",
            LaunchSpec::matmul_ir(
                &q15_matrix(32, 16, rng.next()),
                &q15_matrix(16, 32, rng.next()),
                32,
                16,
                32,
            ),
        ),
        (
            "iir_ir",
            LaunchSpec::iir_ir(&q15_signal(n * 4, rng.next()), n, 4, Biquad::lowpass()),
        ),
    ]
}

/// The IR kernel behind each family (the hand-written pair map to
/// their IR frontends).
fn family_ir(name: &str, spec: &LaunchSpec) -> Kernel {
    match (&spec.source, name) {
        (KernelSource::Ir(k), _) => k.clone(),
        (_, "saxpy") => simt_kernels::vector::saxpy_ir(3),
        _ => simt_kernels::fir::fir_ir(16),
    }
}

/// An `(offset, words)` block of kernel input.
pub type Block = (usize, Vec<u32>);

/// A processor of its own with one spec's decoded program, for timing
/// `Processor::run` with nothing of the runtime around it.
pub struct BareKernel {
    proc: Processor,
    decoded: Arc<DecodedProgram>,
}

impl BareKernel {
    /// Compile and decode `spec` and build its processor.
    pub fn new(spec: &LaunchSpec) -> Self {
        let program = spec.source.compile(&spec.config).expect("kernel compiles");
        let decoded = Arc::new(DecodedProgram::decode(Arc::new(program), &spec.config));
        let proc = Processor::new(spec.config.clone()).expect("spec config is valid");
        BareKernel { proc, decoded }
    }

    /// From power-on state: load `inputs` and the program, then time
    /// `run` alone.
    pub fn time(
        &mut self,
        inputs: &[Block],
        run: impl FnOnce(&mut Processor) -> ExecStats,
    ) -> (f64, ExecStats) {
        self.proc.reset();
        for (off, words) in inputs {
            self.proc
                .shared_mut()
                .load_words(*off, words)
                .expect("inputs fit shared memory");
        }
        self.proc
            .load_decoded(Arc::clone(&self.decoded))
            .expect("decode matches the config");
        let t = Instant::now();
        let stats = run(&mut self.proc);
        (t.elapsed().as_nanos() as f64, stats)
    }

    /// [`BareKernel::time`] of the predecoded `Processor::run`.
    pub fn time_run(&mut self, inputs: &[Block]) -> (f64, ExecStats) {
        self.time(inputs, |p| {
            p.run(RunOptions::default()).expect("kernel runs")
        })
    }
}

/// Best-of-`reps` ns of `run` over a spec's own inputs.
fn best_run_ns(
    spec: &LaunchSpec,
    reps: usize,
    mut run: impl FnMut(&mut Processor) -> ExecStats,
) -> (f64, ExecStats) {
    let mut bare = BareKernel::new(spec);
    let mut best = (f64::MAX, ExecStats::default());
    for _ in 0..reps {
        let (ns, stats) = bare.time(&spec.inputs, &mut run);
        best = (best.0.min(ns), stats);
    }
    best
}

/// `kernels`: building specs and pipelines (host references included).
fn kernels(r: &mut Report, seed: u64) {
    let jobs = workloads::stream_small(&mut SplitMix64(seed)).jobs.len() as f64;
    let spec = best_ns(3, 1, || workloads::stream_small(&mut SplitMix64(seed))) / jobs;
    r.push("kernels.spec_build_ns", spec, "ns");
    let pipes = workloads::graph_replay(&mut SplitMix64(seed));
    let built: usize = pipes.iter().map(|c| c.variants.len()).sum();
    let pipe = best_ns(3, 1, || workloads::graph_replay(&mut SplitMix64(seed))) / built as f64;
    r.push("kernels.pipeline_build_ns", pipe, "ns");
}

/// `isa`: the text assembler and the I-Mem image round trip.
fn isa(r: &mut Report) {
    let src = simt_kernels::fir::fir_asm(16);
    r.push(
        "isa.assemble_ns",
        best_ns(5, 20, || assemble(&src).expect("fir assembles")),
        "ns",
    );
    let program = assemble(&src).expect("fir assembles");
    r.push(
        "isa.image_roundtrip_ns",
        best_ns(5, 50, || {
            from_image(&to_image(&program)).expect("image round-trips")
        }),
        "ns",
    );
}

/// `compiler`: the pipeline stage by stage and the cache cold and warm.
fn compiler(r: &mut Report, fams: &[(&'static str, LaunchSpec)]) {
    let irs: Vec<(&str, Kernel, &ProcessorConfig)> = fams
        .iter()
        .map(|(name, spec)| (*name, family_ir(name, spec), &spec.config))
        .collect();
    let per_family = |f: &mut dyn FnMut(&Kernel, &ProcessorConfig)| {
        best_ns(5, 4, || {
            for (_, k, cfg) in &irs {
                f(k, cfg);
            }
        }) / irs.len() as f64
    };
    r.push(
        "compiler.compile_o2_ns",
        per_family(&mut |k, cfg| {
            black_box(compile(k, cfg, OptLevel::Full).expect("family compiles"));
        }),
        "ns",
    );
    r.push(
        "compiler.compile_o0_ns",
        per_family(&mut |k, cfg| {
            black_box(compile(k, cfg, OptLevel::None).expect("family compiles"));
        }),
        "ns",
    );
    r.push(
        "compiler.optimize_ns",
        per_family(&mut |k, _| {
            let mut k = k.clone();
            black_box(optimize(&mut k));
        }),
        "ns",
    );
    // Register allocation over the optimized kernel with every
    // non-constant word value materialized (what lowering asks for,
    // less the constants that miss an immediate slot).
    let optimized: Vec<(Kernel, &ProcessorConfig)> = irs
        .iter()
        .map(|(_, k, cfg)| {
            let mut k = k.clone();
            optimize(&mut k);
            (k, *cfg)
        })
        .collect();
    r.push(
        "compiler.regalloc_ns",
        best_ns(5, 4, || {
            for (k, cfg) in &optimized {
                let mut mat = HashSet::new();
                k.for_each_inst(|v, inst| {
                    if inst.op.ty() == Ty::Word && !matches!(inst.op, Op::Const(_)) {
                        mat.insert(v);
                    }
                });
                let lin = linearize(k);
                let _ = black_box(allocate(k, &lin, &mat, cfg.regs_per_thread, cfg.predicates));
            }
        }) / optimized.len() as f64,
        "ns",
    );
    r.push(
        "compiler.cache_miss_ns",
        per_family(&mut |k, cfg| {
            let cache = CompileCache::new();
            black_box(
                cache
                    .get_or_compile_decoded(k, cfg, OptLevel::Full)
                    .expect("family compiles"),
            );
        }),
        "ns",
    );
    let warm = CompileCache::new();
    r.push(
        "compiler.cache_hit_ns",
        per_family(&mut |k, cfg| {
            black_box(
                warm.get_or_compile_decoded(k, cfg, OptLevel::Full)
                    .expect("family compiles"),
            );
        }),
        "ns",
    );
    for (name, k, cfg) in &irs {
        let out = compile(k, cfg, OptLevel::Full).expect("family compiles");
        r.push(
            format!("compiler.instrs_out.{name}"),
            out.program.len() as f64,
            "count",
        );
        r.push(
            format!("compiler.ir_insts_removed_share.{name}"),
            out.report.reduction(),
            "fraction",
        );
    }
}

/// `core`: decode, load, reset, and the run loops, family by family.
fn core(r: &mut Report, fams: &[(&'static str, LaunchSpec)]) {
    let (_, fir) = &fams[1];
    let program = Arc::new(fir.source.compile(&fir.config).expect("fir compiles"));
    r.push(
        "core.decode_ns",
        best_ns(5, 20, || {
            DecodedProgram::decode(Arc::clone(&program), &fir.config)
        }),
        "ns",
    );
    let BareKernel { mut proc, decoded } = BareKernel::new(fir);
    r.push(
        "core.load_decoded_ns",
        best_ns(5, 200, || {
            proc.load_decoded(Arc::clone(&decoded))
                .expect("decode matches")
        }),
        "ns",
    );
    r.push("core.reset_ns", best_ns(5, 50, || proc.reset()), "ns");

    for (name, spec) in fams {
        let (ns, s) = best_run_ns(spec, 7, |p| {
            p.run(RunOptions::default()).expect("kernel runs")
        });
        assert!(
            s.buckets_consistent(),
            "{name}: fill + op + load + store + single + flush != cycles: {s:?}"
        );
        r.push(format!("core.run_ns.{name}"), ns, "ns");
        r.push(
            format!("core.ns_per_thread_op.{name}"),
            ns / s.thread_ops as f64,
            "ns",
        );
        for (what, v) in [
            ("cycles", s.cycles),
            ("instructions", s.instructions),
            ("fill_cycles", s.fill_cycles),
            ("branch_flush_cycles", s.branch_flush_cycles),
            ("load_cycles", s.load_cycles),
            ("store_cycles", s.store_cycles),
        ] {
            r.push(format!("core.{what}.{name}"), v as f64, "count");
        }
        // Active threads against the configured ceiling, over the
        // instructions that carry threads (Snippet 2's occupancy).
        let mut trace = Vec::new();
        BareKernel::new(spec).time(&spec.inputs, |p| {
            let (stats, entries) = p.run_traced(RunOptions::default()).expect("kernel runs");
            trace = entries;
            stats
        });
        let data = trace
            .iter()
            .filter(|e| e.opcode.cycle_class() != CycleClass::SingleCycle)
            .count();
        r.push(
            format!("core.active_thread_share.{name}"),
            s.thread_ops as f64 / (data * spec.config.threads) as f64,
            "fraction",
        );
        // The 4R-1W port schedule has no arbitration conflicts; a port
        // slot is lost only when a partial row leaves it without a word.
        let slots = s.mem.read_cycles * (SP_COUNT as u64 / 4) + s.mem.write_cycles;
        r.push(
            format!("core.mem_conflict_share.{name}"),
            slots.saturating_sub(s.mem.reads + s.mem.writes) as f64 / slots.max(1) as f64,
            "fraction",
        );
    }
    let (ns, _) = best_run_ns(fir, 3, |p| {
        p.run(RunOptions::cycle_accurate()).expect("kernel runs")
    });
    r.push("core.run_cycle_accurate_ns", ns, "ns");
    let (ns, _) = best_run_ns(fir, 3, |p| {
        p.run_reference(RunOptions::default()).expect("kernel runs")
    });
    r.push("core.run_reference_ns", ns, "ns");
}

/// `datapath`: a multiply / shift / add mix through the bit-exact
/// evaluators the reference interpreter dispatches to.
fn datapath(r: &mut Report) {
    let (mul, shift, add) = (
        Int32Multiplier::new(),
        MultiplicativeShifter::new(32),
        PipelinedAdder32::new(),
    );
    let mut rng = SplitMix64(7);
    let xs: Vec<(u32, u32)> = (0..1024)
        .map(|_| (rng.next() as u32, rng.next() as u32))
        .collect();
    let ns = best_ns(5, 20, || {
        xs.iter().fold(0u32, |acc, &(a, b)| {
            let m = mul.mul_lo(a, b, Signedness::Signed);
            let s = shift.shift(ShiftKind::Asr, m, b & 31);
            add.add(acc, s)
        })
    });
    r.push("datapath.eval_ns_per_op", ns / (3 * xs.len()) as f64, "ns");
}

/// `graph` and instantiation: build, fuse, instantiate one pipeline.
fn graph(r: &mut Report, seed: u64) {
    let cases = workloads::graph_replay(&mut SplitMix64(seed));
    let n = cases.len() as f64;
    r.push(
        "graph.build_ns",
        best_ns(5, 4, || {
            for c in &cases {
                black_box(workloads::record(&c.pipeline).finish().expect("DAG"));
            }
        }) / n,
        "ns",
    );
    let graphs: Vec<_> = cases
        .iter()
        .map(|c| workloads::record(&c.pipeline).finish().expect("DAG"))
        .collect();
    r.push(
        "graph.fuse_ns",
        best_ns(5, 2, || {
            for g in &graphs {
                black_box(simt_runtime::fuse(g));
            }
        }) / n,
        "ns",
    );
    let fused: Vec<_> = graphs.iter().map(simt_runtime::fuse).collect();
    let sum = |f: fn(&simt_runtime::FusionReport) -> usize| -> f64 {
        fused.iter().map(|(_, rep)| f(rep)).sum::<usize>() as f64
    };
    r.push("graph.launches_fused", sum(|x| x.launches_fused), "count");
    r.push("graph.stores_elided", sum(|x| x.stores_elided), "count");
    r.push(
        "graph.loads_forwarded",
        sum(|x| x.loads_eliminated),
        "count",
    );
    // Instantiation on a fresh pool each time, so every kernel compiles.
    let ns = (0..3)
        .map(|_| {
            let rt = Runtime::new(RuntimeConfig::default());
            let t = Instant::now();
            for (g, _) in &fused {
                black_box(rt.instantiate(g.clone()).expect("instantiates"));
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .fold(f64::MAX, f64::min);
    r.push("runtime.instantiate_ns", ns, "ns");
}

/// `runtime`: pool spin-up and join, and how much the modeled makespan
/// of one fixed wave moves between fresh 2-device pools.
fn runtime(r: &mut Report, small: &Arc<Load>) {
    r.push(
        "runtime.new_drop_ns",
        best_ns(5, 4, || drop(Runtime::new(RuntimeConfig::default()))),
        "ns",
    );
    let makespans: Vec<f64> = (0..40)
        .map(|_| {
            let mut sess = Session::new(small, RuntimeConfig::default(), STREAMS);
            let out = sess.wave(&mut Spans::off());
            assert_eq!(out.failed, 0, "makespan probe wave failed");
            sess.rt.stats().makespan_cycles as f64
        })
        .collect();
    let distinct: HashSet<u64> = makespans.iter().map(|&m| m as u64).collect();
    r.push(
        "runtime.makespan2_cycles_min",
        stats::min(&makespans),
        "cycles",
    );
    r.push(
        "runtime.makespan2_cycles_median",
        stats::median(&makespans),
        "cycles",
    );
    r.push(
        "runtime.makespan2_cycles_max",
        stats::max(&makespans),
        "cycles",
    );
    r.push("runtime.makespan2_distinct", distinct.len() as f64, "count");
}

/// Median launches/s (load-corrected) and the rounds' MAD (%) of one
/// pool configuration.
struct Side {
    rate: f64,
    mad_pct: f64,
}

/// `metrics`, `forensics`, `profile`: each sink's cost per launch, from
/// `stream_small` rounds on a pool with the sink changed, interleaved
/// round by round with the default pool; and each sink's export call.
fn sinks(
    r: &mut Report,
    small: &Arc<Load>,
    round_len: Duration,
    rounds: usize,
    calib: &Calibrator,
) {
    let variants: [(&str, RuntimeConfig); 4] = [
        ("default", RuntimeConfig::default()),
        ("metrics", RuntimeConfig::default().with_metrics(false)),
        (
            "forensics",
            RuntimeConfig::default().with_flight_capacity(0),
        ),
        (
            "profile",
            RuntimeConfig::default().with_profile(ProfileConfig::full()),
        ),
    ];
    let mut sessions: Vec<Session> = variants
        .iter()
        .map(|(_, cfg)| Session::new(small, cfg.clone(), STREAMS))
        .collect();
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); sessions.len()];
    let mut sp = Spans::off();
    for round in 0..=rounds {
        for (sess, rates) in sessions.iter_mut().zip(&mut rates) {
            let rd = run::round(sess, &mut sp, round_len, &mut Samples::default(), calib);
            assert_eq!(rd.out.failed, 0, "sink probe wave failed");
            // Round 0 warms every pool.
            if round > 0 {
                rates.push(rd.launches_per_s());
            }
        }
    }
    let side = |i: usize| Side {
        rate: stats::median(&rates[i]),
        mad_pct: stats::mad_pct(&rates[i]),
    };
    let base = side(0);
    // ns per launch = 1e9 / (launches/s); a sink's overhead is the
    // default pool's minus the pool without it (the profiler: the pool
    // with it minus the default). A difference inside the two sides'
    // MAD is printed as unresolved, never as a speed-up.
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        let other = side(i);
        let (with, without) = if *name == "profile" {
            (&other, &base)
        } else {
            (&base, &other)
        };
        let overhead = 1e9 / with.rate - 1e9 / without.rate;
        let noise = 1e9 / base.rate * (base.mad_pct + other.mad_pct) / 100.0;
        r.push(format!("{name}.overhead_ns_per_launch"), overhead, "ns");
        r.note(format!(
            "{name}.overhead_ns_per_launch: {overhead:.0} ns, sides' MAD {:.1} % / {:.1} % \
             (= {noise:.0} ns){}",
            base.mad_pct,
            other.mad_pct,
            if overhead.abs() < noise {
                " -> unresolved"
            } else {
                ""
            }
        ));
    }
    let default_rt = &sessions[0].rt;
    r.push(
        "metrics.snapshot_ns",
        best_ns(5, 20, || default_rt.metrics_snapshot()),
        "ns",
    );
    let snap = default_rt.metrics_snapshot().expect("metrics are on");
    r.push(
        "metrics.prometheus_render_ns",
        best_ns(5, 20, || simt_metrics::prometheus::render(&snap)),
        "ns",
    );
    r.push(
        "forensics.postmortem_ns",
        best_ns(3, 3, || default_rt.postmortem("bench-e2e")),
        "ns",
    );
    let tracer = sessions[3].rt.tracer().expect("profile pool has a tracer");
    let events = tracer.events();
    r.push(
        "profile.chrome_export_ns",
        best_ns(3, 1, || {
            simt_profile::chrome::chrome_trace(&events, tracer.dropped())
        }),
        "ns",
    );
    r.push("profile.events_dropped", tracer.dropped() as f64, "count");
}

/// `chaos`: `stream_small` waves under a fixed-seed transient-only
/// fault plan; every fault must be recovered with bit-exact outputs.
fn chaos(r: &mut Report, small: &Arc<Load>) -> WaveOut {
    const WAVES: usize = 24;
    let leg = |cfg: RuntimeConfig| {
        let mut sess = Session::new(small, cfg, STREAMS);
        let mut sp = Spans::off();
        sess.wave(&mut sp);
        let mut out = WaveOut::default();
        let t = Instant::now();
        for _ in 0..WAVES {
            out.add(&sess.wave(&mut sp));
        }
        let ns = t.elapsed().as_nanos() as f64 / out.launches.max(1) as f64;
        (ns, out, sess.rt.metrics_snapshot().expect("metrics are on"))
    };
    let (clean_ns, _, _) = leg(RuntimeConfig::default());
    let plan = ChaosConfig::new(0xC4A05).with_transient_launch_rate(0.05);
    let (chaos_ns, out, snap) = leg(RuntimeConfig::default().with_chaos(plan));
    let total = |name: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum::<u64>() as f64
    };
    let faulted = total(names::RECOVERED) + total(names::TERMINAL_FAILURES);
    r.push(
        "chaos.recovery_share",
        if faulted > 0.0 {
            total(names::RECOVERED) / faulted
        } else {
            1.0
        },
        "fraction",
    );
    r.push(
        "chaos.retries_per_launch",
        total(names::RETRIES) / total(names::LAUNCHES).max(1.0),
        "count",
    );
    r.push("chaos.ns_per_launch_ratio", chaos_ns / clean_ns, "ratio");
    out
}

/// `fitter`: one compile, one five-seed sweep, and what they report.
fn fitter(r: &mut Report, seed: u64) {
    let cfg = ProcessorConfig::default();
    let dev = Device::agfd019();
    let opts = CompileOptions::stamped(3, 0.93);
    r.push(
        "fitter.compile_ns",
        best_ns(5, 20, || fit(&cfg, &dev, &opts)),
        "ns",
    );
    let seeds: Vec<u64> = (0..model::SWEEP_SEEDS).collect();
    r.push(
        "fitter.seed_sweep_ns",
        best_ns(5, 10, || seed_sweep(&cfg, &dev, &opts, &seeds)),
        "ns",
    );
    let best = model::system_compile(seed);
    r.push("fitter.fmax_restricted_mhz", best.fmax_restricted(), "MHz");
    r.push("fitter.fmax_logic_mhz", best.fmax_logic(), "MHz");
    r.push("fitter.alms", best.area.gpgpu.alms as f64, "count");
    r.push("fitter.m20k", best.area.gpgpu.m20k as f64, "count");
    r.push("fitter.dsp", best.area.gpgpu.dsp as f64, "count");
    let anchors = model::anchors();
    r.push("fitter.anchor_err_pct", model::max_err_pct(&anchors), "%");
    for a in anchors {
        r.note(format!(
            "anchor {:<32} paper {:>8} model {:>10.3} err {:.3} %",
            a.name,
            a.paper,
            a.model,
            a.err_pct()
        ));
    }
}

/// `system`: a 3-core phase and the link model copies are charged at.
fn system(r: &mut Report, fams: &[(&'static str, LaunchSpec)]) {
    let (_, saxpy) = &fams[0];
    let mut sys = System::new(SystemConfig {
        core: saxpy.config.clone(),
        ..SystemConfig::default()
    })
    .expect("system config is valid");
    let program = saxpy.source.compile(&saxpy.config).expect("saxpy compiles");
    sys.load_all(&program).expect("program loads");
    let cores = sys.cores() as f64;
    let ns = best_ns(5, 4, || {
        sys.run_phase(RunOptions::default())
            .expect("phase runs")
            .len()
    });
    r.push("system.run_phase_ns_per_core", ns / cores, "ns");
    let clocks = sys.transfer(0, 0, 1, 0, 1024).expect("transfer fits");
    r.push("system.transfer_cycles", clocks as f64, "cycles");
}

/// Run every workload-independent probe. Returns what the chaos leg
/// checked, to be counted with the run's other checks.
pub fn probe(
    r: &mut Report,
    seed: u64,
    round_len: Duration,
    sink_rounds: usize,
    calib: &Calibrator,
) -> WaveOut {
    let mut rng = SplitMix64(seed ^ 0x001A_7E45);
    let fams = families(&mut rng);
    let small = Arc::new(Load::Stream(workloads::stream_small(&mut SplitMix64(seed))));
    kernels(r, seed);
    isa(r);
    compiler(r, &fams);
    core(r, &fams);
    datapath(r);
    graph(r, seed);
    runtime(r, &small);
    sinks(r, &small, round_len, sink_rounds, calib);
    let checked = chaos(r, &small);
    fitter(r, seed);
    system(r, &fams);
    checked
}
