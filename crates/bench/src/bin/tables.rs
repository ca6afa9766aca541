//! Regenerate every table, figure and committed artifact of the
//! reproduction.
//!
//! ```sh
//! cargo run -p simt-bench --bin tables            # everything (= --all)
//! cargo run -p simt-bench --bin tables -- --table2 --fig5
//! cargo run -p simt-bench --bin tables -- --list  # every flag and what it writes
//! cargo run -p simt-bench --bin tables -- --check # the artifact gate
//! ```
//!
//! Every section is one row of [`SECTIONS`]; `--all`, `--<flag>`,
//! `--check [--inject]`, `--list` and the unknown-flag error all derive
//! from that table, so it is the only list to edit. A section's `gated`
//! files are the committed baselines (`--check` regenerates and diffs
//! them, and they regenerate deterministically apart from the
//! multi-worker placement leaves [`simt_bench::check`] classes
//! report-only); its `ungated` files are local outputs and CI uploads,
//! named in `.gitignore`. Every generator asserts its own invariants
//! before it writes, so a file that exists was validated.
//!
//! Nothing here reads a wall clock. Host time — per interpreter, per
//! compile, per launch, with spread — is `bench-e2e --trace 1`'s to
//! say (see `BENCHMARK.json`); per-opcode ns/lane is
//! `cargo run --release -p simt-core --example opbench`.

use fpga_fitter::{compile, floorplan, CompileOptions, DesignVariant};
use serde::Serialize;
use simt_bench::{best_of_five, reference, row, SEEDS};
use simt_core::{InstructionTiming, Processor, ProcessorConfig, RunOptions};
use simt_datapath::{MultiplicativeShifter, ShiftKind};
use simt_isa::CycleClass;
use std::path::PathBuf;
use std::sync::OnceLock;

/// When set, every artifact write lands here instead of the working
/// directory — `--check` regenerates into a scratch dir so the
/// committed baselines stay untouched.
static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

fn write_artifact(name: &str, contents: &str) {
    let path = match OUT_DIR.get() {
        Some(dir) => dir.join(name),
        None => PathBuf::from(name),
    };
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("(wrote {})\n", path.display());
}

/// One section of the harness.
struct Section {
    /// The command-line flag that selects it.
    flag: &'static str,
    run: fn(),
    /// Committed baselines it writes: `--check` regenerates and diffs
    /// exactly these, and they are the only artifacts tracked in git.
    gated: &'static [&'static str],
    /// Its other outputs — event logs, forensic bundles, a second
    /// rendering of a gated run, a sweep whose size is an argument.
    /// `.gitignore` names them; CI uploads them.
    ungated: &'static [&'static str],
}

const fn section(
    flag: &'static str,
    run: fn(),
    gated: &'static [&'static str],
    ungated: &'static [&'static str],
) -> Section {
    Section {
        flag,
        run,
        gated,
        ungated,
    }
}

/// Every section, in `--all` order: flag, generator, gated, ungated.
const SECTIONS: &[Section] = &[
    section("--table1", table1, &[], &[]),
    section("--registers", registers, &[], &[]),
    section("--fmax", fmax_results, &[], &[]),
    section("--table2", table2, &[], &[]),
    section("--baseline", baseline, &[], &[]),
    section("--shifter", shifter, &[], &[]),
    section("--fig5", fig5, &[], &[]),
    section("--fig6", fig6, &[], &[]),
    section("--fig7", fig7, &[], &[]),
    section("--cycles", cycles, &[], &[]),
    section("--routing", routing, &[], &[]),
    section("--predicates", predicates, &[], &[]),
    section("--scaling", scaling, &[], &[]),
    section("--sweep", sweep, &[], &[]),
    section("--isa", isa_reference, &[], &[]),
    section("--runtime", runtime, &["BENCH_runtime.json"], &[]),
    section("--compiler", compiler, &["BENCH_compiler.json"], &[]),
    section("--graph", graph, &["BENCH_graph.json"], &[]),
    section("--sim", sim, &["BENCH_sim.json"], &[]),
    section(
        "--profile",
        profile,
        &[],
        &["PROFILE_trace.json", "PROFILE_summary.json"],
    ),
    section("--metrics", metrics, &["METRICS.json"], &["METRICS.prom"]),
    section("--postmortem", postmortem, &[], &["POSTMORTEM.json"]),
    section("--fuzz", fuzz, &[], &["BENCH_fuzz.json"]),
    section(
        "--chaos",
        chaos,
        &["BENCH_chaos.json"],
        &["POSTMORTEM_chaos.json"],
    ),
];

/// What one invocation does.
enum Mode {
    List,
    Check { inject: bool },
    Run(Vec<&'static Section>),
}

/// `--fuzz [N]`: the seed count riding behind the flag, default 500.
fn fuzz_seeds(args: &[String]) -> u64 {
    let mut after = args.iter().skip_while(|a| *a != "--fuzz").skip(1);
    after.next().and_then(|n| n.parse().ok()).unwrap_or(500)
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let is = |flag: &str| args.iter().any(|a| a == flag);
    for (i, a) in args.iter().enumerate() {
        let fuzz_count = i > 0 && args[i - 1] == "--fuzz" && a.parse::<u64>().is_ok();
        let known = ["--all", "--check", "--inject", "--list"].contains(&a.as_str());
        if !(known || fuzz_count || SECTIONS.iter().any(|s| s.flag == a)) {
            let flags: Vec<_> = SECTIONS.iter().map(|s| s.flag).collect();
            return Err(format!(
                "unknown argument `{a}`\nsections: {}\nmodes:    --all (the default) | --check [--inject] | --list",
                flags.join(" ")
            ));
        }
    }
    if is("--inject") && !is("--check") {
        return Err("`--inject` only modifies `--check`".into());
    }
    Ok(if is("--list") {
        Mode::List
    } else if is("--check") {
        Mode::Check {
            inject: is("--inject"),
        }
    } else {
        let all = is("--all") || !SECTIONS.iter().any(|s| is(s.flag));
        Mode::Run(SECTIONS.iter().filter(|s| all || is(s.flag)).collect())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
        Ok(Mode::List) => {
            println!(
                "{:<13} {:<21} ungated (.gitignored)",
                "flag", "gated (committed)"
            );
            for s in SECTIONS {
                println!(
                    "{:<13} {:<21} {}",
                    s.flag,
                    s.gated.join(" "),
                    s.ungated.join(" ")
                );
            }
        }
        Ok(Mode::Check { inject }) => check(inject),
        Ok(Mode::Run(sections)) => sections.iter().for_each(|s| (s.run)()),
    }
}

/// One workload row of `--sim`: the same program run through the
/// reference and the predecoded interpreter.
#[derive(Debug, Clone, Serialize)]
struct SimWorkloadRow {
    name: String,
    threads: usize,
    /// Dynamic instructions one run issues.
    dyn_instrs: u64,
    /// Thread-operations one run retires.
    thread_ops: u64,
    /// Asserted at generation time: identical registers, predicates,
    /// shared memory, traces and ExecStats on both interpreters.
    bit_exact: bool,
}

/// The machine-readable snapshot written to `BENCH_sim.json`.
#[derive(Debug, Clone, Serialize)]
struct SimBenchReport {
    schema_version: u32,
    rows: Vec<SimWorkloadRow>,
    /// Decode-cache behaviour of repeated runtime launches (asserted:
    /// re-runs hit the cached decode).
    decode_misses: u64,
    decode_hits: u64,
}

/// One sim-harness workload: a compiled program plus its configuration.
struct SimWorkload {
    name: String,
    threads: usize,
    program: simt_isa::Program,
    config: ProcessorConfig,
}

fn sim_workloads() -> Vec<SimWorkload> {
    use simt_compiler::{compile, OptLevel};
    use simt_kernels::{fir, iir, matmul, vector};

    let mut v = Vec::new();
    for threads in [64usize, 256, 1024] {
        v.push(SimWorkload {
            name: "saxpy".into(),
            threads,
            program: simt_isa::assemble(&vector::saxpy_asm(3)).expect("saxpy assembles"),
            config: ProcessorConfig::default()
                .with_threads(threads)
                .with_shared_words(4096),
        });
        v.push(SimWorkload {
            name: "fir".into(),
            threads,
            program: simt_isa::assemble(&fir::fir_asm(16)).expect("fir assembles"),
            config: ProcessorConfig::default()
                .with_threads(threads)
                .with_shared_words(8192),
        });
        // matmul: one thread per output element, m*n = threads, n a
        // power of two, k = 16 (the paper-bench inner-product length).
        let (m, n) = match threads {
            64 => (8, 8),
            256 => (16, 16),
            _ => (32, 32),
        };
        let cfg = ProcessorConfig::default()
            .with_threads(threads)
            .with_shared_words(8192);
        v.push(SimWorkload {
            name: "matmul_ir".into(),
            threads,
            program: compile(&matmul::matmul_ir(m, 16, n), &cfg, OptLevel::Full)
                .expect("matmul_ir compiles")
                .program,
            config: cfg.clone(),
        });
        // iir: one thread per channel; samples sized to the shared
        // window (n·m ≤ 4096 words on each side of Y_OFF).
        let samples = 4096 / threads;
        v.push(SimWorkload {
            name: "iir_ir".into(),
            threads,
            program: compile(
                &iir::iir_ir(threads, samples, iir::Biquad::lowpass()),
                &cfg,
                OptLevel::Full,
            )
            .expect("iir_ir compiles")
            .program,
            config: cfg,
        });
    }
    v
}

/// Pseudo-random but reproducible shared-memory image (both
/// interpreters see identical data; kernel addressing is tid-derived,
/// so any image is in-bounds).
fn sim_seed_memory(words: usize) -> Vec<u32> {
    (0..words as u32)
        .map(|i| i.wrapping_mul(2654435761))
        .collect()
}

/// Build a loaded processor for a workload.
fn sim_processor(w: &SimWorkload) -> Processor {
    let mut cpu = Processor::new(w.config.clone()).expect("config validates");
    cpu.shared_mut()
        .load_words(0, &sim_seed_memory(w.config.shared_words))
        .expect("seed image fits");
    cpu.load_program(&w.program).expect("program loads");
    cpu
}

fn sim() {
    use simt_kernels::workload::int_vector;
    use simt_kernels::LaunchSpec;
    use simt_runtime::{Runtime, RuntimeConfig};

    println!("== interpreter bit-exactness: reference vs predecoded (host time: bench-e2e) ==");
    println!(
        "{:<10} {:>7} {:>9} {:>11} {:>9}",
        "workload", "threads", "dyn instr", "thread ops", "bit-exact"
    );

    let mut rows = Vec::new();
    for w in sim_workloads() {
        // Bit-exactness: fresh processors, same seed image, both
        // interpreters traced — registers, predicates, shared memory,
        // traces and stats must be identical.
        let mut fast = sim_processor(&w);
        let (fast_stats, fast_trace) = fast.run_traced(RunOptions::default()).expect("runs");
        let mut reference = sim_processor(&w);
        let (ref_stats, ref_trace) = reference
            .run_reference_traced(RunOptions::default())
            .expect("runs");
        assert_eq!(fast_stats, ref_stats, "{}: ExecStats diverged", w.name);
        assert_eq!(fast_trace, ref_trace, "{}: traces diverged", w.name);
        assert_eq!(
            fast.shared().as_slice(),
            reference.shared().as_slice(),
            "{}: shared memory diverged",
            w.name
        );
        for r in 0..w.config.regs_per_thread as u8 {
            assert_eq!(
                fast.regfile().gather(r),
                reference.regfile().gather(r),
                "{}: r{} diverged",
                w.name,
                r
            );
        }

        let row = SimWorkloadRow {
            name: w.name.clone(),
            threads: w.threads,
            dyn_instrs: fast_stats.instructions,
            thread_ops: fast_stats.thread_ops,
            bit_exact: true,
        };
        println!(
            "{:<10} {:>7} {:>9} {:>11} {:>9}",
            row.name, row.threads, row.dyn_instrs, row.thread_ops, row.bit_exact
        );
        rows.push(row);
    }
    assert_eq!(rows.len(), 12, "four families at three thread counts");

    // Decode-cache smoke: repeated runtime launches of one kernel must
    // decode once and hit the cached decode on every re-run.
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    for _ in 0..4 {
        s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    }
    rt.synchronize().expect("cache smoke runs clean");
    let (decode_misses, decode_hits) = (
        rt.compile_cache().decode_misses(),
        rt.compile_cache().decode_hits(),
    );
    assert_eq!(decode_misses, 1, "one decode per distinct kernel");
    assert!(decode_hits >= 3, "re-runs must hit the cached decode");
    println!("\ndecode cache over 4 repeated launches: {decode_misses} miss, {decode_hits} hits");

    let report = SimBenchReport {
        schema_version: 6,
        rows,
        decode_misses,
        decode_hits,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    write_artifact("BENCH_sim.json", &json);
}

/// One pipeline family: eager stream vs unfused vs fused graph replay.
#[derive(Debug, Clone, Serialize)]
struct GraphPipelineRow {
    name: String,
    stages: usize,
    eager_makespan_cycles: u64,
    unfused_span_cycles: u64,
    fused_span_cycles: u64,
    fused_speedup_vs_eager: f64,
    launches_fused: u64,
    stores_elided: u64,
    loads_forwarded: u64,
    ir_insts_before: usize,
    ir_insts_after: usize,
}

/// The machine-readable snapshot written to `BENCH_graph.json`.
#[derive(Debug, Clone, Serialize)]
struct GraphBenchReport {
    schema_version: u32,
    devices: usize,
    pipelines: Vec<GraphPipelineRow>,
    /// Compiles paid once at `Runtime::instantiate` (whole-graph
    /// compilation through the pool cache).
    instantiate_compiles: u64,
    /// Compile-cache hits across every replayed launch.
    replay_compile_hits: u64,
    /// Compiles a replay had to perform (0: replays never recompile).
    replay_compile_misses: u64,
    replay_cache_hit_rate: f64,
}

fn graph() {
    use simt_kernels::pipeline::Pipeline;
    use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
    use simt_runtime::{fuse, GraphBuilder, Runtime, RuntimeConfig};

    println!("== simt-graph: fused execution-graph replay vs eager streams ==");
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let w = int_vector(256, 3);
    let taps = lowpass_taps(16);
    let sig = q15_signal(256 + 15, 4);
    let pipelines = vec![
        Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0),
        Pipeline::saxpy_dot(-7, &x, &y, &w, 0),
        Pipeline::fir_sum(&sig, &taps, 256, 0),
    ];

    let record = |p: &Pipeline| {
        let mut b = GraphBuilder::new();
        let copies: Vec<_> = p
            .inputs
            .iter()
            .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
            .collect();
        let mut prev = copies;
        for stage in &p.stages {
            prev = vec![b.launch(stage.clone(), &prev)];
        }
        b.copy_out(p.out_off, p.out_len, &prev);
        b.finish().expect("pipeline DAG is valid")
    };

    println!(
        "{:<18} {:>6} {:>10} {:>10} {:>10} {:>8} {:>7} {:>7}",
        "pipeline", "stages", "eager clk", "replay clk", "fused clk", "speedup", "stores", "loads"
    );
    let mut rows = Vec::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut instantiate_compiles = 0u64;
    for p in &pipelines {
        // Eager stream baseline.
        let eager = Runtime::new(RuntimeConfig::default());
        let s = eager.stream();
        for (dst, words) in &p.inputs {
            s.copy_in(*dst, words);
        }
        for stage in &p.stages {
            s.launch(stage.clone());
        }
        let out = s.copy_out(p.out_off, p.out_len);
        eager.synchronize().expect("eager pipeline runs clean");
        assert_eq!(out.wait().unwrap(), p.expected, "{}: eager", p.name);
        let eager_makespan = eager.stats().makespan_cycles;

        // Unfused and fused graph replays, each on a fresh pool.
        let graph = record(p);
        let rt = Runtime::new(RuntimeConfig::default());
        let exec = rt.instantiate(graph.clone()).expect("instantiate");
        let unfused = rt.replay(&exec).expect("unfused replay");
        assert_eq!(unfused.outputs[0].1, p.expected, "{}: unfused", p.name);

        let (fused_graph, report) = fuse(&graph);
        let rt2 = Runtime::new(RuntimeConfig::default());
        let fexec = rt2.instantiate(fused_graph).expect("instantiate fused");
        let compiled_at_instantiate = rt2.compile_cache().misses();
        let fused = rt2.replay(&fexec).expect("fused replay");
        assert_eq!(fused.outputs[0].1, p.expected, "{}: fused", p.name);
        // Replays after instantiation never recompile.
        let again = rt2.replay(&fexec).expect("re-replay");
        hits += fused.compile_hits + again.compile_hits;
        misses += rt2.compile_cache().misses() - compiled_at_instantiate;
        instantiate_compiles += compiled_at_instantiate;

        let row = GraphPipelineRow {
            name: p.name.clone(),
            stages: p.len(),
            eager_makespan_cycles: eager_makespan,
            unfused_span_cycles: unfused.span_cycles,
            fused_span_cycles: fused.span_cycles,
            fused_speedup_vs_eager: eager_makespan as f64 / fused.span_cycles as f64,
            launches_fused: report.launches_fused as u64,
            stores_elided: report.stores_elided as u64,
            loads_forwarded: report.loads_eliminated as u64,
            ir_insts_before: report.insts_before,
            ir_insts_after: report.insts_after,
        };
        println!(
            "{:<18} {:>6} {:>10} {:>10} {:>10} {:>7.2}x {:>7} {:>7}",
            row.name,
            row.stages,
            row.eager_makespan_cycles,
            row.unfused_span_cycles,
            row.fused_span_cycles,
            row.fused_speedup_vs_eager,
            row.stores_elided,
            row.loads_forwarded
        );
        assert!(
            row.fused_span_cycles < row.eager_makespan_cycles,
            "{}: fusion must beat the eager schedule",
            row.name
        );
        assert!(
            row.stores_elided >= row.launches_fused,
            "{}: every fused edge elides its handoff store",
            row.name
        );
        rows.push(row);
    }

    let report = GraphBenchReport {
        schema_version: 1,
        devices: RuntimeConfig::default().devices,
        pipelines: rows,
        instantiate_compiles,
        replay_compile_hits: hits,
        replay_compile_misses: misses,
        replay_cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    write_artifact("BENCH_graph.json", &json);
}

/// One kernel family through the IR pipeline.
#[derive(Debug, Clone, Serialize)]
struct CompilerKernelRow {
    name: String,
    ir_insts: usize,
    ir_insts_optimized: usize,
    naive_len: usize,
    optimized_len: usize,
    handwritten_len: usize,
    reduction_pct: f64,
    regs_used: usize,
    /// Modeled execution cycles of the hand-written kernel.
    handwritten_cycles: u64,
    /// Modeled execution cycles of the optimized IR lowering — must
    /// never exceed the hand-written count (asserted).
    optimized_cycles: u64,
}

/// Compile-cache behaviour under repeated runtime launches.
#[derive(Debug, Clone, Serialize)]
struct CompileCacheStats {
    launches: u64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

/// The machine-readable snapshot written to `BENCH_compiler.json`.
#[derive(Debug, Clone, Serialize)]
struct CompilerBenchReport {
    schema_version: u32,
    kernels: Vec<CompilerKernelRow>,
    cache: CompileCacheStats,
}

/// Modeled execution cycles of a program on a fresh (zero-initialized)
/// core — cycle counts depend only on the instruction stream and the
/// configuration, not on the data.
fn modeled_cycles(program: &simt_isa::Program, cfg: &ProcessorConfig) -> u64 {
    let mut cpu = Processor::new(cfg.clone()).expect("config validates");
    cpu.load_program(program).expect("program loads");
    cpu.run(RunOptions::default()).expect("program runs").cycles
}

fn compiler() {
    use simt_compiler::{compile, OptLevel};
    use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
    use simt_kernels::{fir, iir, matmul, reduce, vector, LaunchSpec};
    use simt_runtime::{Runtime, RuntimeConfig};

    println!("== simt-compiler: pass pipeline, loop-carried kernels, compile cache ==");
    let subjects: Vec<(String, simt_compiler::Kernel, ProcessorConfig, String)> = vec![
        (
            "saxpy".into(),
            vector::saxpy_ir(3),
            ProcessorConfig::default()
                .with_threads(1024)
                .with_shared_words(4096),
            vector::saxpy_asm(3),
        ),
        (
            "dot1024".into(),
            reduce::dot_ir(1024),
            ProcessorConfig::default()
                .with_threads(1024)
                .with_shared_words(4096),
            reduce::dot_asm_scaled(1024),
        ),
        (
            "sum256".into(),
            reduce::sum_ir(256),
            ProcessorConfig::default()
                .with_threads(256)
                .with_shared_words(4096),
            reduce::sum_asm_scaled(256),
        ),
        (
            "fir16".into(),
            fir::fir_ir(16),
            ProcessorConfig::default()
                .with_threads(1024)
                .with_shared_words(8192),
            fir::fir_asm(16),
        ),
        (
            "matmul8x16x8".into(),
            matmul::matmul_ir(8, 16, 8),
            ProcessorConfig::default()
                .with_threads(64)
                .with_shared_words(8192),
            matmul::matmul_asm(8, 16, 8),
        ),
        (
            "iir16x32".into(),
            iir::iir_ir(16, 32, iir::Biquad::lowpass()),
            ProcessorConfig::default()
                .with_threads(16)
                .with_shared_words(8192),
            iir::iir_asm(16, 32, iir::Biquad::lowpass()),
        ),
    ];

    println!(
        "{:<13} {:>5} {:>6} {:>6} {:>5} {:>5} {:>5} {:>9} {:>9}",
        "kernel", "IR", "IR opt", "naive", "opt", "hand", "regs", "hand clk", "IR clk"
    );
    let mut rows = Vec::new();
    for (name, kernel, cfg, hand_asm) in subjects {
        let naive = compile(&kernel, &cfg, OptLevel::None).expect("naive lowering");
        let full = compile(&kernel, &cfg, OptLevel::Full).expect("optimized lowering");
        let hand = simt_isa::assemble(&hand_asm).expect("handwritten kernel");
        let row = CompilerKernelRow {
            name: name.clone(),
            ir_insts: full.report.insts_before,
            ir_insts_optimized: full.report.insts_after,
            naive_len: naive.program.len(),
            optimized_len: full.program.len(),
            handwritten_len: hand.len(),
            reduction_pct: full.report.reduction() * 100.0,
            regs_used: full.regs_used,
            handwritten_cycles: modeled_cycles(&hand, &cfg),
            optimized_cycles: modeled_cycles(&full.program, &cfg),
        };
        println!(
            "{:<13} {:>5} {:>6} {:>6} {:>5} {:>5} {:>5} {:>9} {:>9}",
            row.name,
            row.ir_insts,
            row.ir_insts_optimized,
            row.naive_len,
            row.optimized_len,
            row.handwritten_len,
            row.regs_used,
            row.handwritten_cycles,
            row.optimized_cycles
        );
        assert!(
            row.optimized_len <= row.naive_len,
            "{name}: pipeline grew the program"
        );
        assert!(
            row.optimized_cycles <= row.handwritten_cycles,
            "{name}: IR lowering must match or beat the hand-written cycles \
             ({} vs {})",
            row.optimized_cycles,
            row.handwritten_cycles
        );
        rows.push(row);
    }

    // Repeated launches through a single-device runtime: the compile
    // cache takes every repeat.
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let sig = q15_signal(128 + 15, 3);
    let taps = lowpass_taps(16);
    for _ in 0..8 {
        s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
        s.launch(LaunchSpec::dot_ir(&x, &y));
        s.launch(LaunchSpec::fir_ir(&sig, &taps, 128));
    }
    rt.synchronize().expect("cache workload runs clean");
    let stats = rt.stats();
    let cache = CompileCacheStats {
        launches: stats.launches(),
        hits: stats.compile_hits(),
        misses: stats.compile_misses(),
        hit_rate: stats.compile_hit_rate(),
    };
    println!(
        "\ncompile cache over {} repeated launches: {} misses, {} hits ({:.0}% hit rate)",
        cache.launches,
        cache.misses,
        cache.hits,
        cache.hit_rate * 100.0
    );

    let report = CompilerBenchReport {
        schema_version: 2,
        kernels: rows,
        cache,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    write_artifact("BENCH_compiler.json", &json);
}

/// One row of the stream-count sweep.
#[derive(Debug, Clone, Serialize)]
struct RuntimeSweepRow {
    streams: usize,
    makespan_cycles: u64,
    modeled_us: f64,
    occupancy: f64,
    speedup_vs_serial: f64,
    launches: u64,
    copy_words: u64,
}

/// The machine-readable snapshot written to `BENCH_runtime.json`.
#[derive(Debug, Clone, Serialize)]
struct RuntimeBenchReport {
    schema_version: u32,
    devices: usize,
    jobs: usize,
    device_fmax_mhz: f64,
    sweep: Vec<RuntimeSweepRow>,
    unconstrained_restricted_mhz: f64,
    stamped3_best_mhz: f64,
}

fn runtime() {
    use simt_kernels::workload::int_vector;
    use simt_kernels::LaunchSpec;
    use simt_runtime::{Runtime, RuntimeConfig};

    println!("== simt-runtime: stream scaling on the 2-device pool ==");
    const JOBS: usize = 16;
    let pump = |streams: usize| {
        let rt = Runtime::new(RuntimeConfig::default());
        let handles: Vec<_> = (0..streams).map(|_| rt.stream()).collect();
        for i in 0..JOBS {
            let s = &handles[i % streams];
            let x = int_vector(1024, i as u64);
            let y = int_vector(1024, 100 + i as u64);
            let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
            for (off, words) in &inputs {
                s.copy_in(*off, words);
            }
            let (off, len) = (spec.out_off, spec.out_len);
            s.launch(spec);
            let _ = s.copy_out(off, len);
        }
        rt.synchronize().unwrap();
        rt.stats()
    };

    let mut sweep = Vec::new();
    let mut serial = 0u64;
    println!(
        "{:>8} {:>12} {:>12} {:>11} {:>9}",
        "streams", "makespan clk", "modeled us", "occupancy%", "speedup"
    );
    for streams in [1usize, 2, 4, 8] {
        let stats = pump(streams);
        if streams == 1 {
            serial = stats.makespan_cycles;
        }
        let row = RuntimeSweepRow {
            streams,
            makespan_cycles: stats.makespan_cycles,
            modeled_us: stats.modeled_seconds() * 1e6,
            occupancy: stats.modeled_occupancy(),
            speedup_vs_serial: serial as f64 / stats.makespan_cycles as f64,
            launches: stats.launches(),
            copy_words: stats.streams.iter().map(|s| s.copy_words).sum(),
        };
        println!(
            "{:>8} {:>12} {:>12.2} {:>11.0} {:>8.2}x",
            row.streams,
            row.makespan_cycles,
            row.modeled_us,
            row.occupancy * 100.0,
            row.speedup_vs_serial
        );
        sweep.push(row);
    }

    // Headline clocks, so one JSON tracks the whole perf trajectory.
    let (cfg, dev) = reference();
    let un = compile(&cfg, &dev, &CompileOptions::unconstrained());
    let stamped = best_of_five(&CompileOptions::stamped(3, 0.93));
    let report = RuntimeBenchReport {
        schema_version: 1,
        devices: simt_runtime::RuntimeConfig::default().devices,
        jobs: JOBS,
        device_fmax_mhz: simt_runtime::DeviceConfig::default().fmax_mhz,
        sweep,
        unconstrained_restricted_mhz: un.fmax_restricted(),
        stamped3_best_mhz: stamped.fmax_restricted(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    write_artifact("BENCH_runtime.json", &json);
}

fn sweep() {
    println!("== utilization sweep (restricted Fmax vs bounding-box utilization) ==");
    let (cfg, dev) = reference();
    println!("{:>6} {:>10} {:>10}", "util%", "logic MHz", "restr MHz");
    for pct in [62usize, 70, 78, 86, 90, 93, 96] {
        let r = compile(&cfg, &dev, &CompileOptions::constrained(pct as f64 / 100.0));
        println!(
            "{:>6} {:>10.0} {:>10.0}",
            pct,
            r.fmax_logic(),
            r.fmax_restricted()
        );
    }
    println!("(the restricted clock saturates at the DSP ceiling until congestion");
    println!(" pushes the control-enable path past it — the §5 story in one series)\n");
}

fn isa_reference() {
    use simt_isa::Opcode;
    println!("== ISA reference: the 61 instructions ==");
    println!(
        "{:<4} {:<10} {:<11} {:<12} semantics",
        "op", "mnemonic", "class", "cycle class"
    );
    for &op in Opcode::ALL {
        println!(
            "{:<4} {:<10} {:<11} {:<12} {}{}",
            op.as_u8(),
            op.mnemonic(),
            format!("{:?}", op.class()),
            format!("{:?}", op.cycle_class()),
            op.describe(),
            if op.needs_predicates() {
                "  [predicate build]"
            } else {
                ""
            },
        );
    }
    println!();
}

fn table1() {
    println!("== Table 1: SIMT processor resources (16 SP, 16K regs, 16KB shared) ==");
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::constrained(0.93));
    let a = &r.area;
    println!(
        "{:<10} {:>3} {:>6} {:>6} {:>5} {:>4}",
        "Module", "No.", "ALMs", "Regs", "M20K", "DSP"
    );
    let pr = |name: &str, no: &str, m: fpga_fitter::ModuleArea| {
        println!(
            "{name:<10} {no:>3} {:>6} {:>6} {:>5} {:>4}",
            m.alms, m.regs, m.m20k, m.dsp
        );
    };
    pr("GPGPU", "-", a.gpgpu);
    pr("SP", "16", a.sp);
    pr(" Mul+Sft", "-", a.mul_sft);
    pr(" Logic", "-", a.logic);
    pr("Inst", "1", a.inst);
    pr("Shared", "1", a.shared);
    println!("\npaper:     GPGPU 7038/24534/99/32, SP 371/1337/4/2, Mul+Sft 145/424/0/2,");
    println!("           Logic 83/424/0/0, Inst 275/651/3/0, Shared 133/233/64*/0");
    println!("(*the paper's Shared M20K row is inconsistent with its own total;");
    println!("  our 32-block replica model reproduces the 99-block device total, 16*4 + 3 + 32)\n");
}

fn registers() {
    println!("== SP register composition (§5) ==");
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::constrained(0.93));
    let b = &r.area.sp_reg_budget;
    println!("{}", row("primary registers", 763.0, b.primary as f64));
    println!("{}", row("secondary registers", 154.0, b.secondary as f64));
    println!("{}", row("hyper registers", 420.0, b.hyper as f64));
    println!();
}

fn fmax_results() {
    println!("== §5 Fmax results (paper vs measured, MHz) ==");
    let (cfg, dev) = reference();
    let un = compile(&cfg, &dev, &CompileOptions::unconstrained());
    println!(
        "{}",
        row("unconstrained (logic Fmax)", 984.0, un.fmax_logic())
    );
    println!(
        "{}",
        row(
            "unconstrained (restricted Fmax)",
            956.0,
            un.fmax_restricted()
        )
    );
    println!("  restricted by: {}", un.sta.restricted_by);
    println!("  critical soft path: {}", un.sta.critical.name);
    let c86 = best_of_five(&CompileOptions::constrained(0.86));
    println!(
        "{}",
        row(
            "86% bounding box (>950 claimed)",
            950.0,
            c86.fmax_restricted()
        )
    );
    let c93 = best_of_five(&CompileOptions::constrained(0.93));
    println!("{}", row("93% bounding box", 927.0, c93.fmax_restricted()));
    println!();
}

fn table2() {
    println!("== Table 2: stamping (best of 5 seeds, 93% boxes, sector-separated) ==");
    let (cfg, dev) = reference();
    for (stamps, paper) in [(1usize, 927.0), (3usize, 854.0)] {
        let sweep =
            fpga_fitter::seed_sweep(&cfg, &dev, &CompileOptions::stamped(stamps, 0.93), &SEEDS);
        let best = fpga_fitter::best_of(&sweep);
        println!(
            "{}   seeds: [{}]",
            row(
                &format!("{stamps}-stamp best compile"),
                paper,
                best.fmax_restricted()
            ),
            sweep
                .iter()
                .map(|r| format!("{:.0}", r.fmax_restricted()))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!();
}

fn baseline() {
    println!("== eGPU fp32 baseline vs this work (§2.1) ==");
    let (cfg, dev) = reference();
    let base = compile(
        &cfg,
        &dev,
        &CompileOptions::unconstrained().with_variant(DesignVariant::egpu_baseline()),
    );
    let this = compile(&cfg, &dev, &CompileOptions::unconstrained());
    println!(
        "{}",
        row(
            "eGPU baseline (fp32 DSP ceiling)",
            771.0,
            base.fmax_restricted()
        )
    );
    println!(
        "{}",
        row(
            "this work (integer DSP modes)",
            956.0,
            this.fmax_restricted()
        )
    );
    println!(
        "speedup {:.2}x (paper: 956/771 = 1.24x)\n",
        this.fmax_restricted() / base.fmax_restricted()
    );
}

fn shifter() {
    println!("== §4 shifter closure study ==");
    let (cfg, dev) = reference();
    let cases = [
        (
            "barrel, standalone SP",
            DesignVariant::with_barrel_shifter().standalone_sp(),
            1000.0,
        ),
        (
            "barrel, full 16-SP SM",
            DesignVariant::with_barrel_shifter(),
            850.0,
        ),
        ("multiplicative, full SM", DesignVariant::this_work(), 984.0),
    ];
    for (label, variant, anchor) in cases {
        let r = compile(
            &cfg,
            &dev,
            &CompileOptions::unconstrained().with_variant(variant),
        );
        println!(
            "{}   critical: {}",
            row(label, anchor, r.fmax_logic()),
            r.sta.critical.name
        );
    }
    println!("(paper: barrel closes standalone, drops the assembled SM below 850 MHz;");
    println!(" the multiplicative shifter restores the near-GHz soft-logic Fmax)\n");
}

fn fig5() {
    println!("== Figure 5: arithmetic shift right, 12-bit example ==");
    let sh = MultiplicativeShifter::new(12);
    let t = sh.shift_traced(ShiftKind::Asr, 0b1100_0110_1111, 5);
    println!("input          {:012b}  (-913)", t.input);
    println!("bit-reversed   {:012b}", t.reversed_input.unwrap());
    println!("one-hot shift  {:012b}  (5 -> bit 5)", t.one_hot);
    println!("product low    {:012b}", t.product_low);
    println!("re-reversed    {:012b}", t.reversed_product.unwrap());
    println!("unary OR mask  {:012b}  (five leading ones)", t.or_mask);
    println!(
        "result         {:012b}  ({})",
        t.result,
        (t.result as i32) - 4096
    );
    assert_eq!((t.result as i32) - 4096, -29);
    println!("(-913 >> 5 = -29, matching the paper's walk-through)\n");
}

fn fig6() {
    println!("== Figure 6: unconstrained placement ==");
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::unconstrained());
    println!("{}", floorplan::render(&dev, &r.placement));
}

fn fig7() {
    println!("== Figure 7: tightly constrained placement (93%) ==");
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::constrained(0.93));
    println!("{}", floorplan::render(&dev, &r.placement));
}

fn routing() {
    println!("== §6 routing-driven analysis (barrel-shifter SM vs 1 GHz) ==");
    let (cfg, dev) = reference();
    let r = compile(
        &cfg,
        &dev,
        &CompileOptions::unconstrained().with_variant(DesignVariant::with_barrel_shifter()),
    );
    let entries =
        fpga_fitter::routing_analysis(&r.sta, 1000.0, &fpga_fabric::TimingModel::default());
    println!("{:<44} {:>10} {:>12}", "path", "slack(ps)", "route share");
    for e in entries.iter().take(8) {
        println!(
            "{:<44} {:>10.0} {:>11.0}%",
            e.name,
            e.slack_ps,
            e.route_fraction * 100.0
        );
    }
    println!("(failing paths with a high routing share are the placement-fixable ones —");
    println!(" the barrel 16-bit level fails on distance, cnot on logic depth)\n");
}

fn predicates() {
    println!("== §2 predicate cost (optional configuration parameter) ==");
    let base = fpga_fitter::area_model(&ProcessorConfig::default());
    let pred = fpga_fitter::area_model(&ProcessorConfig::default().with_predicates(true));
    println!(
        "{}",
        row("SP ALMs without predicates", 371.0, base.sp.alms as f64)
    );
    println!(
        "{}",
        row(
            "SP ALMs with predicates (+50% claim)",
            371.0 * 1.5,
            pred.sp.alms as f64
        )
    );
    println!(
        "GPGPU total grows {:.0} -> {:.0} ALMs ({:+.0}%)\n",
        base.gpgpu.alms as f64,
        pred.gpgpu.alms as f64,
        (pred.gpgpu.alms as f64 / base.gpgpu.alms as f64 - 1.0) * 100.0
    );
}

fn scaling() {
    println!("== §2 dynamic thread scaling ablation (1024-wide dot product) ==");
    use simt_kernels::reduce::{dot_predicated, dot_scaled};
    use simt_kernels::workload::int_vector;
    let x = int_vector(1024, 11);
    let y = int_vector(1024, 22);
    let (_, scaled) = dot_scaled(&x, &y).unwrap();
    let (_, masked) = dot_predicated(&x, &y).unwrap();
    println!(
        "scaled (.tk) tree:      {:>6} clocks ({} store clocks)",
        scaled.stats.cycles, scaled.stats.store_cycles
    );
    println!(
        "predicated (@p0) tree:  {:>6} clocks ({} store clocks)",
        masked.stats.cycles, masked.stats.store_cycles
    );
    println!(
        "speedup {:.2}x — plus the predicated build pays the +50% logic\n",
        masked.stats.cycles as f64 / scaled.stats.cycles as f64
    );
}

fn cycles() {
    println!("== §3.1 cycle model (512 threads, 16 SPs) ==");
    println!(
        "{}",
        row(
            "operation instruction clocks",
            32.0,
            InstructionTiming::cycles(CycleClass::Operation, 512) as f64
        )
    );
    println!(
        "{}",
        row(
            "load instruction clocks (4 x 32)",
            128.0,
            InstructionTiming::cycles(CycleClass::Load, 512) as f64
        )
    );
    println!(
        "{}",
        row(
            "store instruction clocks (16 x 32)",
            512.0,
            InstructionTiming::cycles(CycleClass::Store, 512) as f64
        )
    );
    println!(
        "{}",
        row(
            "single-cycle instruction clocks",
            1.0,
            InstructionTiming::cycles(CycleClass::SingleCycle, 512) as f64
        )
    );

    // End-to-end check on the simulator.
    let mut cpu = Processor::new(ProcessorConfig::default().with_threads(512)).unwrap();
    let p = simt_isa::assemble(
        "  stid r1\n  add r2, r1, r1\n  lds r3, [r1+0]\n  sts [r1+0], r2\n  exit",
    )
    .unwrap();
    cpu.load_program(&p).unwrap();
    let s = cpu.run(RunOptions::default()).unwrap();
    println!(
        "  simulator roll-up: {} clocks (2 ops + load + store + exit + fill)",
        s.cycles
    );
    println!();
}

/// `--profile`: trace a mixed stream + graph workload through a
/// profiled runtime and write the two exporter artifacts —
/// `PROFILE_trace.json` (Chrome trace-event JSON) and
/// `PROFILE_summary.json` (the flat roll-up) — plus a per-PC hotspot
/// table for the IR biquad bank.
fn profile() {
    use simt_kernels::pipeline::Pipeline;
    use simt_kernels::workload::{int_vector, q15_signal};
    use simt_kernels::{iir, LaunchSpec};
    use simt_profile::chrome::chrome_trace;
    use simt_profile::summary::summarize;
    use simt_profile::ProfileConfig;
    use simt_runtime::{fuse, GraphBuilder, NodeId, Runtime, RuntimeConfig};

    println!("== simt-profile: traced stream + graph workload ==");
    let rt = Runtime::new(RuntimeConfig::default().with_profile(ProfileConfig::full()));

    // Stream phase: every command class — copies, an IR launch chain
    // with a cross-stream event edge, and a copy-out.
    let (n, m) = (16, 8);
    let iir_spec = LaunchSpec::iir_ir(&q15_signal(n * m, 7), n, m, iir::Biquad::lowpass());
    let s0 = rt.stream();
    let s1 = rt.stream();
    s0.copy_in(8192, &[1, 2, 3, 4]);
    s0.launch(iir_spec.clone());
    let e = rt.event();
    s0.record_event(&e);
    s1.wait_event(&e);
    s1.launch(iir_spec.clone());
    let out = s1.copy_out(iir_spec.out_off, iir_spec.out_len);
    rt.synchronize().expect("stream phase runs clean");
    assert_eq!(out.wait().unwrap(), iir_spec.expected, "iir_ir output");

    // Graph phase: a fused three-stage pipeline replayed on the pool.
    let x = int_vector(256, 7);
    let y = int_vector(256, 11);
    let pipe = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let mut b = GraphBuilder::new();
    let copies: Vec<NodeId> = pipe
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &pipe.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(pipe.out_off, pipe.out_len, &prev);
    let (fused, _) = fuse(&b.finish().expect("acyclic graph"));
    let exec = rt.instantiate(fused).expect("instantiate");
    let replay = rt.replay(&exec).expect("replay");
    assert!(
        replay.outputs.iter().any(|(_, w)| *w == pipe.expected),
        "fused replay output"
    );

    // Validate, then export both artifacts.
    let tracer = rt.tracer().expect("profiled runtime has a tracer");
    let events = tracer.events();
    let summary = summarize(&events, tracer.dropped());
    assert_eq!(summary.dropped, 0, "default-capacity ring dropped events");
    assert!(
        summary.kernel_retires >= 2 && summary.pass_runs >= 1,
        "both iir launches retire and the compiler's passes are traced: {summary:?}"
    );
    let trace = chrome_trace(&events, tracer.dropped());
    let parsed: serde::Value = serde_json::from_str(&trace).expect("Chrome trace parses back");
    let serde::Value::Seq(items) = parsed else {
        panic!("Chrome trace must be an array, got {}", parsed.kind());
    };
    assert!(!items.is_empty(), "Chrome trace is empty");
    for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
        assert!(
            items.iter().all(|item| item.get_field(key).is_ok()),
            "a trace event lacks `{key}`"
        );
    }
    println!(
        "{} events ({} dropped) across {} categories:",
        summary.events,
        summary.dropped,
        summary.by_category.len()
    );
    for c in &summary.by_category {
        println!("  {:<10} {:>6}", c.category, c.events);
    }
    for cat in ["kernel", "copy", "sync", "graph", "cache", "compiler"] {
        assert!(
            summary
                .by_category
                .iter()
                .any(|c| c.category == cat && c.events > 0),
            "workload must record at least one `{cat}` event"
        );
    }

    // Per-PC hotspots of the traced biquad bank (both launches merged).
    let profiles = rt.pc_profiles();
    let prof = &profiles[&iir_spec.name];
    println!(
        "\n{} per-PC profile: {:.1}% of {} clk attributed, top 5:",
        iir_spec.name,
        100.0 * prof.attribution_fraction(),
        prof.total_cycles()
    );
    for (pc, c) in prof.hottest(5) {
        println!("  pc {pc:>3}  {:>8} clk  {:>6} issues", c.cycles, c.issues);
    }
    println!();
    write_artifact("PROFILE_trace.json", &trace);
    write_artifact(
        "PROFILE_summary.json",
        &serde_json::to_string_pretty(&summary).expect("summary serializes"),
    );
}

/// The machine-readable snapshot written to `METRICS.json`.
#[derive(Debug, Clone, Serialize)]
struct MetricsReport {
    schema_version: u32,
    /// Every counter, watermark gauge and modeled-cycle histogram of
    /// the workload pool, sorted.
    snapshot: simt_runtime::MetricsSnapshot,
    /// The health watchdog's verdict over the same snapshot.
    health: simt_runtime::HealthReport,
}

/// `--metrics`: drive a deterministic graph + stream workload through
/// a 2-device pool with the always-on metrics and write the two
/// exporter artifacts — `METRICS.json` (serde JSON snapshot + health
/// report) and `METRICS.prom` (Prometheus text format). Per-kernel
/// latency percentiles are asserted against a brute-force
/// nearest-rank percentile over the very cycles the launch handles
/// reported before anything is written.
fn metrics() {
    use simt_kernels::pipeline::Pipeline;
    use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
    use simt_kernels::LaunchSpec;
    use simt_metrics::names;
    use simt_runtime::{GraphBuilder, NodeId, Runtime, RuntimeConfig};
    use std::collections::BTreeMap;

    println!("== simt-metrics: always-on pool metrics over a mixed workload ==");
    let rt = Runtime::new(RuntimeConfig::default());

    // Graph phase first, on fresh virtual clocks: a three-stage fused
    // pipeline replayed three times — its spans land in the replay
    // critical-path histogram deterministically.
    let x = int_vector(256, 7);
    let y = int_vector(256, 11);
    let pipe = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let mut b = GraphBuilder::new();
    let copies: Vec<NodeId> = pipe
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &pipe.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(pipe.out_off, pipe.out_len, &prev);
    let exec = rt.instantiate(b.finish().expect("acyclic graph")).unwrap();
    for _ in 0..3 {
        let replay = rt.replay(&exec).expect("replay runs clean");
        assert!(
            replay.outputs.iter().any(|(_, w)| *w == pipe.expected),
            "replay output"
        );
    }

    // Stream phase: a paused backlog of mixed kernels over 4 streams,
    // released at once — per-kernel and per-stream latency histograms
    // with multi-sample distributions.
    let streams: Vec<_> = (0..4).map(|_| rt.stream()).collect();
    let mut specs = Vec::new();
    for round in 0..5u64 {
        let n = 64 << (round as usize % 3);
        let vx = int_vector(n, round);
        let vy = int_vector(n, 100 + round);
        specs.push(LaunchSpec::saxpy(2 + round as i32, &vx, &vy));
        specs.push(LaunchSpec::dot(&vx, &vy));
        specs.push(LaunchSpec::sum(&vx));
        let taps = lowpass_taps(8);
        let sig = q15_signal(64 + 7, 30 + round);
        specs.push(LaunchSpec::fir(&sig, &taps, 64));
    }
    rt.pause();
    let mut pending = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let s = &streams[i % streams.len()];
        let name = spec.name.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        let h = s.launch(spec);
        let _ = s.copy_out(off, len);
        pending.push((name, h));
    }
    rt.resume();
    rt.synchronize().expect("stream phase runs clean");

    // Generation-time exactness: per-kernel histogram percentiles vs a
    // brute-force nearest-rank percentile over the handle cycles.
    let mut by_kernel: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (name, h) in pending {
        by_kernel
            .entry(name)
            .or_default()
            .push(h.wait().unwrap().cycles);
    }
    let brute = |cycles: &[u64], num: u64, den: u64| {
        let mut v = cycles.to_vec();
        v.sort_unstable();
        let rank = ((v.len() as u64 * num).div_ceil(den)).max(1) as usize;
        v[rank - 1]
    };
    let snapshot = rt.metrics_snapshot().expect("metrics are on by default");
    println!(
        "{:<10} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "kernel", "n", "p50 clk", "p90 clk", "p99 clk", "max clk"
    );
    for (kernel, cycles) in &by_kernel {
        let h = snapshot
            .histogram(names::LAUNCH_CYCLES, kernel)
            .unwrap_or_else(|| panic!("no latency histogram for `{kernel}`"));
        assert!(h.exact, "{kernel}: histogram degraded to bucket bounds");
        assert_eq!(h.count, cycles.len() as u64, "{kernel}: sample count");
        for (p, got) in [(50, h.p50), (90, h.p90), (99, h.p99)] {
            assert_eq!(
                got,
                brute(cycles, p, 100),
                "{kernel}: p{p} diverged from brute force"
            );
        }
        assert_eq!(h.max, *cycles.iter().max().unwrap(), "{kernel}: max");
        println!(
            "{kernel:<10} {:>5} {:>9} {:>9} {:>9} {:>9}",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    assert!(by_kernel.len() >= 4, "kernel families: {by_kernel:?}");
    let per_stream = snapshot
        .histograms
        .iter()
        .filter(|h| h.name == names::STREAM_LAUNCH_CYCLES);
    assert_eq!(per_stream.count(), 4, "one launch histogram per stream");
    // Every histogram of the pool, not only the per-kernel ones: exact,
    // and each reported quantile a value that was actually recorded.
    for h in snapshot.histograms.iter().filter(|h| h.count > 0) {
        assert!(h.exact && h.overflow == 0, "{}{{{}}}", h.name, h.label);
        for q in [h.p50, h.p90, h.p99, h.min, h.max] {
            assert!(
                h.values.iter().any(|v| v.value == q),
                "{}{{{}}}: {q} is not a recorded sample",
                h.name,
                h.label
            );
        }
    }
    let spans = snapshot.merged_histogram(names::GRAPH_SPAN_CYCLES);
    assert_eq!(spans.count, 3, "one span sample per replay");
    println!(
        "graph replay span: n={} p50={} max={} clk",
        spans.count, spans.p50, spans.max
    );

    let health = rt.health().expect("metrics are on by default");
    assert!(
        health.healthy && health.findings.is_empty(),
        "a clean workload must read healthy: {:?}",
        health.findings
    );
    println!("health: ok");

    let report = MetricsReport {
        schema_version: 1,
        snapshot: snapshot.clone(),
        health,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let prom = simt_metrics::prometheus::render(&snapshot);
    assert!(
        prom.contains("# TYPE simt_launches_total counter") && prom.contains("simt_launch_cycles"),
        "Prometheus exposition lost its launch series"
    );
    write_artifact("METRICS.json", &json);
    write_artifact("METRICS.prom", &prom);
}

/// `--postmortem`: stage a deliberate device stall — a serialized
/// stream on a 2-device pool leaves device1 idle through the whole
/// makespan — under a strict health watchdog, and export the forensic
/// bundle the way a production harness would on a health transition:
/// `POSTMORTEM.json` plus its human-readable text rendering. The
/// bundle is pure modeled state (flight sequence numbers, modeled
/// cycles), so the artifact is byte-deterministic.
fn postmortem() {
    use simt_kernels::workload::int_vector;
    use simt_kernels::LaunchSpec;
    use simt_profile::ProfileConfig;
    use simt_runtime::{HealthConfig, HealthFinding, Runtime, RuntimeConfig};

    println!("== simt-runtime: injected stall -> postmortem bundle ==");
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
    rt.synchronize().expect("stall workload runs clean");

    let report = rt
        .postmortem("injected device stall (serialized stream on a 2-device pool)")
        .expect("metrics are on by default");
    assert!(!report.health.healthy, "the staged stall must be detected");
    let stalled = report
        .health
        .findings
        .iter()
        .find_map(|f| match f {
            HealthFinding::DeviceStall { device, .. } => Some(device.clone()),
            _ => None,
        })
        .expect("a DeviceStall finding");
    assert_eq!(stalled, "device1", "placement ties break toward device0");
    assert!(
        report
            .flight
            .events
            .iter()
            .any(|r| matches!(r.event, simt_profile::Event::Health { .. })),
        "the finding must land in the flight window"
    );
    assert!(!report.timelines.is_empty(), "gauge timelines");
    let hottest = &report.hotspots[0].pcs[0];
    assert!(hottest.cycles > 0 && !hottest.asm.is_empty(), "{hottest:?}");
    print!("{}", report.render_text());
    write_artifact(
        "POSTMORTEM.json",
        &serde_json::to_string_pretty(&report).expect("postmortem serializes"),
    );
}

/// One deduplicated skip reason of a fuzz sweep.
#[derive(Debug, Clone, Serialize)]
struct FuzzSkipReason {
    reason: String,
    count: usize,
}

/// Machine-readable snapshot of one `--fuzz` sweep (`BENCH_fuzz.json`).
/// Ungated: its content follows the seed count on the command line,
/// and the sweep gates itself (exit 1 on any divergence).
#[derive(Debug, Clone, Serialize)]
struct FuzzSnapshot {
    schema_version: u32,
    seeds: u64,
    passes: usize,
    skipped: usize,
    divergences: usize,
    /// Programs generated in wild (anywhere-aliasing) memory mode.
    wild: usize,
    /// Programs generated in fusible pipeline memory mode.
    pipeline: usize,
    /// Launches the graph fusion pass fused, summed over passing seeds.
    fused_launches: usize,
    /// Live IR instructions, summed over passing seeds.
    ir_insts: usize,
    skip_reasons: Vec<FuzzSkipReason>,
}

/// `--fuzz [N]`: run seeds `0..N` (default 500) through the full
/// differential matrix ([`simt_fuzzgen::fuzz_one`]), print a coverage
/// summary, and write `BENCH_fuzz.json`. On any divergence, greedily
/// minimize the first one, dump it in the corpus text format, and
/// exit 1. See `docs/FUZZING.md`.
fn fuzz() {
    use simt_fuzzgen::gen::{materialize, program_for_seed, GenMode};
    use simt_fuzzgen::{differ, fuzz_one, minimize, text, Verdict};

    let seeds = fuzz_seeds(&std::env::args().collect::<Vec<_>>());
    println!("== differential fuzz: {seeds} seed(s) ==\n");
    let mut snap = FuzzSnapshot {
        schema_version: 1,
        seeds,
        passes: 0,
        skipped: 0,
        divergences: 0,
        wild: 0,
        pipeline: 0,
        fused_launches: 0,
        ir_insts: 0,
        skip_reasons: Vec::new(),
    };
    let mut skip_counts: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut first_divergence: Option<u64> = None;

    for seed in 0..seeds {
        match program_for_seed(seed).mode {
            GenMode::Wild => snap.wild += 1,
            GenMode::Pipeline => snap.pipeline += 1,
        }
        match fuzz_one(seed) {
            Verdict::Pass(r) => {
                snap.passes += 1;
                snap.fused_launches += r.fused_launches;
                snap.ir_insts += r.ir_insts;
            }
            Verdict::Skipped(why) => {
                snap.skipped += 1;
                *skip_counts.entry(why).or_default() += 1;
            }
            Verdict::Divergence(d) => {
                snap.divergences += 1;
                first_divergence.get_or_insert(seed);
                println!(
                    "seed {seed}: DIVERGENCE {} (stage {}): {}",
                    d.pair, d.stage, d.detail
                );
            }
        }
        if (seed + 1) % 100 == 0 {
            println!(
                "  {}/{seeds}: {} pass, {} skip, {} diverge",
                seed + 1,
                snap.passes,
                snap.skipped,
                snap.divergences
            );
        }
    }

    snap.skip_reasons = skip_counts
        .into_iter()
        .map(|(reason, count)| FuzzSkipReason { reason, count })
        .collect();

    println!(
        "\n{} pass / {} skip / {} diverge  ({} wild + {} pipeline, {} launches fused)",
        snap.passes, snap.skipped, snap.divergences, snap.wild, snap.pipeline, snap.fused_launches
    );
    // A clean sweep that covered nothing is a failure too (a handful of
    // seeds, as when hunting a reproducer, is exempt).
    if first_divergence.is_none() && seeds >= 100 {
        assert!(
            snap.passes as u64 * 5 >= seeds * 4,
            "sweep degenerated into skips: {:?}",
            snap.skip_reasons
        );
        assert!(
            snap.wild > 0 && snap.pipeline > 0,
            "both memory modes must be exercised"
        );
        assert!(snap.fused_launches > 0, "the fusion path never engaged");
    }
    write_artifact(
        "BENCH_fuzz.json",
        &serde_json::to_string_pretty(&snap).expect("fuzz snapshot serializes"),
    );

    if let Some(seed) = first_divergence {
        println!("minimizing seed {seed}...");
        let min = minimize(&program_for_seed(seed), |p| {
            differ::check(p).is_divergence()
        });
        let m = materialize(&min);
        println!("# minimized reproducer (seed {seed}) — save under crates/fuzzgen/corpus/");
        print!("{}", text::to_text(&m));
        match differ::check_materialized(&m) {
            Verdict::Divergence(d) => {
                println!("# {} (stage {}): {}", d.pair, d.stage, d.detail)
            }
            other => println!("# note: minimized case no longer diverges: {other:?}"),
        }
        std::process::exit(1);
    }
}

/// The transient-fault half of one `--chaos` drill.
#[derive(Debug, Clone, Serialize)]
struct ChaosTransient {
    jobs: usize,
    faults_injected: u64,
    retries: u64,
    failovers: u64,
    recovered: u64,
    terminal_failures: u64,
    poisoned_streams: u64,
    /// `recovered / (recovered + terminal_failures)` — 1.0 means every
    /// injected fault was absorbed by the retry machinery.
    recovery_rate: f64,
    backoff_p50_cycles: u64,
    backoff_p90_cycles: u64,
    backoff_p99_cycles: u64,
    /// Wrapping sum of every copy-out word — equals the fault-free
    /// oracle's checksum iff recovery was bit-exact.
    out_checksum: u64,
    bit_exact_vs_oracle: bool,
}

/// The sticky-failure half of one `--chaos` drill.
#[derive(Debug, Clone, Serialize)]
struct ChaosSticky {
    jobs: usize,
    quarantined_device: usize,
    device_faults: u64,
    quarantines: u64,
    /// Stream completions per device over the whole drill — the
    /// quarantined device's share freezes at its pre-quarantine count.
    completions_per_device: Vec<u64>,
    /// Completions per device for work submitted *after* the
    /// quarantine; the quarantined device's entry must be 0.
    post_quarantine_completions: Vec<u64>,
    postmortems: usize,
}

/// Machine-readable snapshot of one `--chaos` drill
/// (`BENCH_chaos.json`): seeded, single-stream, and so a gated
/// baseline like any other modeled artifact.
#[derive(Debug, Clone, Serialize)]
struct ChaosSnapshot {
    schema_version: u32,
    transient_seed: u64,
    sticky_seed: u64,
    transient: ChaosTransient,
    sticky: ChaosSticky,
}

/// `--chaos`: the fault-injection drill. Part one installs a
/// transient-only plan (launch faults, hung kernels, copy faults) and
/// asserts the retry/failover machinery recovers every command
/// bit-exactly against a fault-free oracle. Part two installs a sticky
/// device failure and asserts the failing device is quarantined within
/// the fault budget, that placement and the automatic postmortem
/// react, and exports the bundle (`POSTMORTEM_chaos.json`). Both halves
/// are seeded, so `BENCH_chaos.json` is byte-deterministic. See
/// `docs/RESILIENCE.md`.
fn chaos() {
    use simt_kernels::workload::int_vector;
    use simt_kernels::LaunchSpec;
    use simt_metrics::names;
    use simt_runtime::{ChaosConfig, DeviceHealth, RecoveryConfig, Runtime, RuntimeConfig, Stream};

    const TRANSIENT_SEED: u64 = 0xC0FFEE;
    const STICKY_SEED: u64 = 7;

    println!("== chaos drill: deterministic fault injection -> recovery ==\n");

    let counter = |rt: &Runtime, name: &str| -> u64 {
        rt.metrics_snapshot()
            .expect("metrics are on by default")
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    };
    let run_jobs = |rt: &Runtime, s: &Stream, n: usize| -> Vec<Vec<u32>> {
        let mut outs = Vec::new();
        for i in 0..n {
            let x = int_vector(128, i as u64 + 1);
            let y = int_vector(128, 2 * i as u64 + 1);
            let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
            for (off, words) in &inputs {
                s.copy_in(*off, words);
            }
            let (off, len) = (spec.out_off, spec.out_len);
            s.launch(spec);
            outs.push(s.copy_out(off, len));
        }
        rt.synchronize().expect("chaos drill must fully recover");
        outs.into_iter()
            .map(|h| h.wait().expect("recovered copy-out"))
            .collect()
    };
    let checksum = |outs: &[Vec<u32>]| -> u64 {
        outs.iter()
            .flatten()
            .fold(0u64, |acc, &w| acc.wrapping_mul(31).wrapping_add(w as u64))
    };

    // Part 1 — transient plan: every fault family except the sticky
    // device, with enough retry budget that recovery is total.
    let jobs = 32;
    let oracle_rt = Runtime::new(RuntimeConfig::default());
    let oracle_stream = oracle_rt.stream();
    let oracle = run_jobs(&oracle_rt, &oracle_stream, jobs);

    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_chaos(
                ChaosConfig::new(TRANSIENT_SEED)
                    .with_transient_launch_rate(0.3)
                    .with_hung_kernel_rate(0.1)
                    .with_copy_fault_rate(0.2),
            )
            .with_recovery(RecoveryConfig {
                max_attempts: 12,
                quarantine_after: u64::MAX,
                ..RecoveryConfig::default()
            }),
    );
    let s = rt.stream();
    let recovered_out = run_jobs(&rt, &s, jobs);
    let bit_exact = recovered_out == oracle;
    let recovered = counter(&rt, names::RECOVERED);
    let terminal = counter(&rt, names::TERMINAL_FAILURES);
    let backoff = rt
        .metrics_snapshot()
        .expect("metrics on")
        .merged_histogram(names::RETRY_BACKOFF_CYCLES);
    let transient = ChaosTransient {
        jobs,
        faults_injected: counter(&rt, names::FAULTS_INJECTED),
        retries: counter(&rt, names::RETRIES),
        failovers: counter(&rt, names::FAILOVERS),
        recovered,
        terminal_failures: terminal,
        poisoned_streams: u64::from(terminal > 0),
        recovery_rate: recovered as f64 / (recovered + terminal).max(1) as f64,
        backoff_p50_cycles: backoff.p50,
        backoff_p90_cycles: backoff.p90,
        backoff_p99_cycles: backoff.p99,
        out_checksum: checksum(&recovered_out),
        bit_exact_vs_oracle: bit_exact,
    };
    assert!(bit_exact, "recovered outputs diverged from the oracle");
    assert!(transient.faults_injected > 0, "the plan injected nothing");
    assert_eq!(terminal, 0, "every fault must be absorbed by a retry");
    assert!(
        transient.backoff_p50_cycles >= 1,
        "retries must pay modeled backoff"
    );
    println!(
        "transient: {} faults over {} jobs, {} retries, {} failovers, recovery rate {:.2}, backoff p50/p90/p99 = {}/{}/{} cycles",
        transient.faults_injected,
        jobs,
        transient.retries,
        transient.failovers,
        transient.recovery_rate,
        transient.backoff_p50_cycles,
        transient.backoff_p90_cycles,
        transient.backoff_p99_cycles
    );

    // Part 2 — sticky plan: device1 fails every command routed to it
    // until the health tracker quarantines it.
    let rt2 = Runtime::new(
        RuntimeConfig::default() // 2 devices
            .with_chaos(ChaosConfig::new(STICKY_SEED).with_sticky_device(1, 0))
            .with_recovery(RecoveryConfig {
                max_attempts: 6,
                ..RecoveryConfig::default()
            }),
    );
    let s2 = rt2.stream();
    let pre = run_jobs(&rt2, &s2, jobs);
    assert_eq!(pre, oracle, "sticky-drill outputs diverged from the oracle");
    assert_eq!(
        rt2.device_health()[1],
        DeviceHealth::Quarantined,
        "the sticky device must be quarantined within the fault budget"
    );
    // Stream commands retired per device, straight off the books.
    let per_device = || -> Vec<u64> {
        let devices = rt2.stats().devices;
        devices.iter().map(|d| d.batched_commands).collect()
    };
    let at_quarantine = per_device();
    let _post = run_jobs(&rt2, &s2, 8);
    let completions_per_device = per_device();
    let reports = rt2.quarantine_postmortems();
    assert_eq!(reports.len(), 1, "one automatic quarantine postmortem");
    assert_eq!(reports[0].reason, "device-quarantined");
    let sticky = ChaosSticky {
        jobs: jobs + 8,
        quarantined_device: 1,
        device_faults: rt2
            .metrics_snapshot()
            .expect("metrics on")
            .counters
            .iter()
            .filter(|c| c.name == names::DEVICE_FAULTS && c.label == "device1")
            .map(|c| c.value)
            .sum(),
        quarantines: counter(&rt2, names::QUARANTINES),
        post_quarantine_completions: completions_per_device
            .iter()
            .zip(&at_quarantine)
            .map(|(after, before)| after - before)
            .collect(),
        completions_per_device,
        postmortems: reports.len(),
    };
    assert_eq!(sticky.quarantines, 1, "one device, quarantined once");
    assert_eq!(
        sticky.post_quarantine_completions[1], 0,
        "placement must avoid the quarantined device"
    );
    println!(
        "sticky: device1 quarantined after {} faults; completions per device {:?} (post-quarantine {:?})",
        sticky.device_faults, sticky.completions_per_device, sticky.post_quarantine_completions
    );

    let snap = ChaosSnapshot {
        schema_version: 1,
        transient_seed: TRANSIENT_SEED,
        sticky_seed: STICKY_SEED,
        transient,
        sticky,
    };
    write_artifact(
        "BENCH_chaos.json",
        &serde_json::to_string_pretty(&snap).expect("chaos snapshot serializes"),
    );
    write_artifact(
        "POSTMORTEM_chaos.json",
        &serde_json::to_string_pretty(&reports[0]).expect("postmortem serializes"),
    );
}

/// Workload families the gate knows how to re-profile when a leaf
/// naming one of them regresses: the four sim-harness kernels, each
/// with an IR frontend so the attribution carries source-map data.
const ATTRIBUTABLE_WORKLOADS: &[&str] = &["saxpy", "fir", "matmul_ir", "iir_ir"];

/// Rewrite the sequence indices of a [`simt_bench::check`] finding
/// path as `{index}:{name}` wherever the indexed element is an object
/// carrying a `name` field (plus `:{label}` when a non-empty label
/// rides along), so leaf paths in `CHECK_REPORT.json` name their
/// workloads: `rows/2/dyn_instrs` becomes `rows/2:fir/dyn_instrs`,
/// which is what [`simt_bench::report::CheckReport::implicated_workloads`]
/// matches against.
fn annotate_leaf_path(current: &serde::Value, path: &str) -> String {
    let field = |entries: &[(String, serde::Value)], key: &str| {
        entries.iter().find_map(|(k, v)| match v {
            serde::Value::Str(s) if k == key && !s.is_empty() => Some(s.clone()),
            _ => None,
        })
    };
    let mut node = Some(current);
    let mut out = Vec::new();
    // The first segment is the artifact stem, not part of the tree.
    for seg in path.split('/').skip(1) {
        let mut rendered = seg.to_string();
        node = match node {
            Some(serde::Value::Seq(items)) => {
                let item = seg.parse::<usize>().ok().and_then(|i| items.get(i));
                if let Some(serde::Value::Map(entries)) = item {
                    if let Some(name) = field(entries, "name") {
                        rendered = match field(entries, "label") {
                            Some(label) => format!("{seg}:{name}:{label}"),
                            None => format!("{seg}:{name}"),
                        };
                    }
                }
                item
            }
            Some(serde::Value::Map(entries)) => entries
                .iter()
                .find(|(k, _)| k.to_ascii_lowercase() == seg)
                .map(|(_, v)| v),
            _ => None,
        };
        out.push(rendered);
    }
    out.join("/")
}

/// A gate finding as a check-report leaf: rooted at the artifact file
/// name, with sequence indices annotated with workload names.
fn leaf_delta(
    artifact: &str,
    current: &serde::Value,
    f: &simt_bench::check::Finding,
) -> simt_bench::report::LeafDelta {
    simt_bench::report::LeafDelta {
        path: format!("{artifact}:/{}", annotate_leaf_path(current, &f.path)),
        class: format!("{:?}", f.class),
        baseline: f.baseline.parse().unwrap_or(0.0),
        current: f.current.parse().unwrap_or(0.0),
        delta: f.delta.unwrap_or(0.0),
    }
}

/// Re-run one implicated workload under the full profiler at two
/// thread shapes and collect where its modeled cycles live: per-PC
/// hotspots with disassembly and IR attribution (via the postmortem
/// bundle), the optimizer's pass ledger, and per-node spans of a
/// graph replay on the virtual timeline — so a reviewer can see
/// whether a regression scales with parallelism or is a fixed cost.
fn attribute_workload(workload: &str) -> simt_bench::report::WorkloadAttribution {
    use simt_bench::report::{NodeSpan, PassDelta, ShapeProfile, WorkloadAttribution};
    use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
    use simt_kernels::{iir, LaunchSpec};
    use simt_profile::{Event, ProfileConfig};
    use simt_runtime::{CommandKind, GraphBuilder, NodeId, Runtime, RuntimeConfig};

    let mut shapes = Vec::new();
    for threads in [64usize, 1024] {
        let spec = match workload {
            "saxpy" => LaunchSpec::saxpy_ir(3, &int_vector(threads, 1), &int_vector(threads, 2)),
            "fir" => {
                let taps = lowpass_taps(16);
                LaunchSpec::fir_ir(&q15_signal(threads + taps.len() - 1, 5), &taps, threads)
            }
            "matmul_ir" => {
                let (m, k, n) = if threads == 64 {
                    (8, 16, 8)
                } else {
                    (32, 16, 32)
                };
                LaunchSpec::matmul_ir(&int_vector(m * k, 3), &int_vector(k * n, 4), m, k, n)
            }
            "iir_ir" => {
                let samples = 4096 / threads;
                LaunchSpec::iir_ir(
                    &q15_signal(threads * samples, 9),
                    threads,
                    samples,
                    iir::Biquad::lowpass(),
                )
            }
            other => panic!("no attribution recipe for workload `{other}`"),
        };
        let rt = Runtime::new(
            RuntimeConfig {
                devices: 1,
                ..Default::default()
            }
            .with_profile(ProfileConfig::full()),
        );
        let name = spec.name.clone();
        let (kernel, inputs) = spec.detach_inputs();
        let mut b = GraphBuilder::new();
        let copies: Vec<NodeId> = inputs
            .iter()
            .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
            .collect();
        let launch = b.launch(kernel.clone(), &copies);
        b.copy_out(kernel.out_off, kernel.out_len, &[launch]);
        let exec = rt
            .instantiate(b.finish().expect("attribution graph is acyclic"))
            .expect("attribution graph instantiates");
        let replay = rt.replay(&exec).expect("attribution replay runs clean");
        assert!(
            replay.outputs.iter().any(|(_, w)| *w == kernel.expected),
            "{name}: attribution replay output"
        );

        let report = rt
            .postmortem("perf-regression attribution")
            .expect("metrics are on by default");
        let hot = report.hotspots.iter().find(|h| h.kernel == name);
        // One kernel compiles per runtime, so every pass event is its.
        let passes = rt
            .tracer()
            .expect("profiled runtime has a tracer")
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::PassRun {
                    pass,
                    insts_before,
                    insts_after,
                    ..
                } => Some(PassDelta {
                    pass,
                    insts_before: insts_before as u64,
                    insts_after: insts_after as u64,
                }),
                _ => None,
            })
            .collect();
        let graph_nodes = replay
            .placements
            .iter()
            .map(|p| NodeSpan {
                node: p.node.index(),
                label: match p.kind {
                    CommandKind::Launch => name.clone(),
                    kind => format!("{kind:?}"),
                },
                device: p.device,
                start: p.start,
                end: p.end,
            })
            .collect();
        shapes.push(ShapeProfile {
            threads,
            total_cycles: hot.map(|h| h.total_cycles).unwrap_or(0),
            fill_cycles: hot.map(|h| h.fill_cycles).unwrap_or(0),
            pcs: hot.map(|h| h.pcs.clone()).unwrap_or_default(),
            passes,
            graph_nodes,
        });
    }
    WorkloadAttribution {
        workload: workload.to_string(),
        shapes,
    }
}

/// `--check [--inject]`: run every gated section of [`SECTIONS`] into
/// a scratch directory, compare each gated file against its committed
/// baseline with [`simt_bench::check`], print the deviations, and exit
/// nonzero if any *exact-class* (modeled) leaf moved. Throughput-class
/// (placement-dependent) deviations are reported but never enforced.
/// On failure the gate re-profiles the implicated workloads and writes
/// `CHECK_REPORT.json` (a [`simt_bench::report::CheckReport`]) into the
/// working directory, so the exit-1 names where the cycles moved.
/// `--inject` doubles every exact-class cycle leaf of the fresh
/// artifacts first — the self-test proving the gate trips and the
/// report attributes, asserted on the report before the exit.
fn check(inject: bool) {
    use simt_bench::check::{compare, inject_cycle_regression};
    use simt_bench::report::{CheckReport, LeafDelta, CHECK_REPORT_SCHEMA_VERSION};

    let scratch = std::env::temp_dir().join(format!("simt-tables-check-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    OUT_DIR.set(scratch.clone()).expect("check runs once");

    println!("== regenerating artifacts into {} ==\n", scratch.display());
    let gated = SECTIONS.iter().filter(|s| !s.gated.is_empty());
    gated.for_each(|s| (s.run)());

    println!("== perf-regression gate: committed baselines vs this tree ==");
    let mut all_failures: Vec<LeafDelta> = Vec::new();
    let mut all_warnings: Vec<LeafDelta> = Vec::new();
    let mut injected = 0usize;
    for artifact in SECTIONS.iter().flat_map(|s| s.gated) {
        let stem = artifact.trim_end_matches(".json").to_ascii_lowercase();
        // Gated = committed: a missing baseline is a broken checkout
        // (or the wrong working directory), never a pass.
        let committed = std::fs::read_to_string(artifact)
            .unwrap_or_else(|e| panic!("{artifact}: no committed baseline in the cwd: {e}"));
        let baseline: serde::Value = serde_json::from_str(&committed)
            .unwrap_or_else(|e| panic!("{artifact}: baseline does not parse: {e:?}"));
        let fresh = std::fs::read_to_string(scratch.join(artifact))
            .unwrap_or_else(|e| panic!("{artifact}: regeneration missing: {e}"));
        let mut current: serde::Value =
            serde_json::from_str(&fresh).expect("fresh artifact parses");
        if inject {
            injected += inject_cycle_regression(&stem, &mut current);
        }
        let cmp = compare(&stem, &baseline, &current);
        let fails: Vec<_> = cmp.failures().collect();
        let warns: Vec<_> = cmp.warnings().collect();
        println!(
            "{artifact:<22} {}  {} leaves, {} enforced regressions, {} throughput drifts",
            if fails.is_empty() { "OK  " } else { "FAIL" },
            cmp.leaves,
            fails.len(),
            warns.len()
        );
        let show = |f: &simt_bench::check::Finding, tag: &str| {
            let delta = match f.delta {
                Some(d) if d.is_finite() => format!("{:+.1}%", d * 100.0),
                Some(_) => "new".into(),
                None => "-".into(),
            };
            println!(
                "  {tag} {:<58} {:>14} -> {:<14} {delta}",
                f.path, f.baseline, f.current
            );
        };
        for f in &fails {
            show(f, "FAIL");
        }
        for f in warns.iter().take(15) {
            show(f, "warn");
        }
        if warns.len() > 15 {
            println!(
                "  ... and {} more throughput drifts (report-only)",
                warns.len() - 15
            );
        }
        all_failures.extend(fails.iter().map(|f| leaf_delta(artifact, &current, f)));
        all_warnings.extend(warns.iter().map(|f| leaf_delta(artifact, &current, f)));
        // Shape sanity: artifacts must actually contain exact-class
        // leaves, otherwise the gate is vacuous.
        assert!(cmp.leaves > 0, "{artifact}: no leaves compared");
    }
    if inject {
        assert!(injected > 0, "--inject found no cycle leaves to double");
        println!("\n(injected a 2x regression into {injected} cycle leaves)");
    }
    let failures = all_failures.len();
    if failures > 0 {
        let implicated = CheckReport::implicated_workloads(&all_failures, ATTRIBUTABLE_WORKLOADS);
        println!(
            "\n== attributing {failures} regressions to {} workload(s): {} ==",
            implicated.len(),
            if implicated.is_empty() {
                "none recognized".to_string()
            } else {
                implicated.join(", ")
            }
        );
        let report = CheckReport {
            schema_version: CHECK_REPORT_SCHEMA_VERSION,
            injected: inject,
            failures: all_failures,
            warnings: all_warnings,
            attributions: implicated.iter().map(|w| attribute_workload(w)).collect(),
        };
        std::fs::write(
            "CHECK_REPORT.json",
            serde_json::to_string_pretty(&report).expect("check report serializes"),
        )
        .expect("write CHECK_REPORT.json");
        if inject {
            // The self-test's other half: the report must name the
            // doubled leaves and carry a two-shape profile of each
            // implicated workload.
            assert!(
                report.failures.iter().all(|f| f.path.contains("cycles")),
                "failures must be the injected cycle leaves"
            );
            assert!(!report.attributions.is_empty(), "nothing re-profiled");
            for a in &report.attributions {
                assert!(
                    a.shapes.len() == 2 && a.shapes.iter().all(|s| !s.pcs.is_empty()),
                    "{}: attribution lacks per-PC data",
                    a.workload
                );
            }
        }
        print!("{}", report.render_text());
        println!("\ngate: FAILED — {failures} modeled-cycle regressions (wrote CHECK_REPORT.json)");
        std::process::exit(1);
    }
    println!("\ngate: ok — no modeled-cycle regressions");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_are_unique_and_dashed() {
        let flags: BTreeSet<_> = SECTIONS.iter().map(|s| s.flag).collect();
        assert_eq!(flags.len(), SECTIONS.len(), "duplicate flag");
        assert!(flags.iter().all(|f| f.starts_with("--")));
    }

    #[test]
    fn unknown_arguments_are_usage_errors_that_list_the_flags() {
        for bad in [
            &["--tabel1"][..],
            &["--sim", "--nope"],
            &["50"],
            &["--inject"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must not parse");
        }
        let usage = parse(&args(&["--tabel1"])).err().unwrap();
        assert!(SECTIONS.iter().all(|s| usage.contains(s.flag)), "{usage}");

        let flags = |list: &[&str]| match parse(&args(list)) {
            Ok(Mode::Run(sections)) => sections.iter().map(|s| s.flag).collect::<Vec<_>>(),
            _ => panic!("{list:?} must select sections"),
        };
        assert_eq!(flags(&[]).len(), SECTIONS.len(), "no flag = --all");
        assert_eq!(flags(&["--fuzz", "50"]), ["--fuzz"]);
        assert_eq!(flags(&["--sim", "--table1"]), ["--table1", "--sim"]);
        assert_eq!(fuzz_seeds(&args(&["--fuzz", "50"])), 50);
        assert_eq!(fuzz_seeds(&args(&["--fuzz", "--sim"])), 500);
    }

    /// Committed = gated: the artifacts tracked at the workspace root
    /// are exactly the files `--check` diffs, and everything else a
    /// section writes is named in `.gitignore`.
    #[test]
    fn tracked_root_artifacts_are_exactly_the_gated_ones() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let gitignore = std::fs::read_to_string(format!("{root}/.gitignore")).unwrap();
        let ignored: BTreeSet<&str> = gitignore
            .lines()
            .map(|l| l.trim_start_matches('/'))
            .collect();
        let tracked: BTreeSet<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| {
                ["BENCH_", "METRICS", "POSTMORTEM", "PROFILE_"]
                    .iter()
                    .any(|prefix| n.starts_with(prefix))
                    && !ignored.contains(n.as_str())
            })
            .collect();
        let gated: BTreeSet<String> = SECTIONS
            .iter()
            .flat_map(|s| s.gated)
            .map(|f| f.to_string())
            .collect();
        assert_eq!(tracked, gated);
        for f in SECTIONS.iter().flat_map(|s| s.ungated) {
            assert!(ignored.contains(f), "{f} is ungated but not .gitignored");
        }
    }
}
