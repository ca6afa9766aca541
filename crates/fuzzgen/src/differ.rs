//! The differential executor: one fuzz case through **every**
//! execution path the repository provides, asserting bit-exact
//! agreement.
//!
//! ## The path-pair matrix
//!
//! Per optimization level (`O0`, `O2`), the two-stage program runs
//! through three interpreter paths, chained stage to stage exactly the
//! way the runtime chains launches (full shared memory carries over):
//!
//! | path | interpreter | mode |
//! |------|-------------|------|
//! | `ref-fn` | reference | functional (baseline) |
//! | `pre-fn` | predecoded | functional |
//! | `pre-ca` | predecoded | cycle-accurate |
//!
//! Every non-baseline path must match the baseline in **full observable
//! state**: [`ExecStats`], the instruction trace, every register of
//! every lane, all four predicate registers, and all of shared memory —
//! per stage, not just at the end.
//!
//! Across levels, `O0` and `O2` must agree on **final shared memory**
//! (registers and stats legitimately differ under optimization; the
//! pass pipeline's contract is that stores are never elided, so memory
//! is fully comparable).
//!
//! Finally the same two launches run through the host runtime three
//! ways — an eager stream, a stream capture replayed as a graph, and
//! the same graph after IR-level fusion — and each copy-out window must
//! equal the local `O2` composition.

use crate::gen::{materialize, FuzzProgram, Materialized, IN_OFF, MEM_WORDS};
use simt_compiler::{compile, CompileError, OptLevel};
use simt_core::{ExecStats, Processor, RunOptions, TraceEntry};
use simt_isa::Program;
use simt_kernels::{KernelSource, LaunchSpec};
use simt_runtime::{fuse, ChaosConfig, RecoveryConfig, Runtime, RuntimeConfig};

/// Outcome of one fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every path pair agreed.
    Pass(PassReport),
    /// The case hit a typed resource limit before it could run (counted,
    /// never fatal).
    Skipped(String),
    /// Two paths disagreed — the finding the whole crate exists for.
    Divergence(DivergenceReport),
}

impl Verdict {
    /// True for [`Verdict::Divergence`].
    pub fn is_divergence(&self) -> bool {
        matches!(self, Verdict::Divergence(_))
    }
}

/// What a passing case exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassReport {
    /// Launches the graph fusion pass fused for this case.
    pub fused_launches: usize,
    /// Total live IR instructions across both stages (O2, post-passes
    /// figure comes from the pipeline report's `insts_after`).
    pub ir_insts: usize,
}

/// A reproducible disagreement between two execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Which pair of paths disagreed (e.g. `"O2/pre-ca vs O2/ref-fn"`).
    pub pair: String,
    /// Pipeline stage the disagreement surfaced on (0-based; stages.len()
    /// for whole-chain comparisons).
    pub stage: usize,
    /// First observed difference, human-readable.
    pub detail: String,
}

/// Full observable machine state after one stage on one path.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: ExecStats,
    trace: Vec<TraceEntry>,
    regs: Vec<Vec<u32>>,
    preds: Vec<[bool; 4]>,
    shared: Vec<u32>,
}

/// Describe the first difference between two observations.
fn diff_observed(a: &Observed, b: &Observed) -> Option<String> {
    if a.stats != b.stats {
        return Some(format!("stats: {:?} vs {:?}", a.stats, b.stats));
    }
    if a.trace != b.trace {
        let i = a
            .trace
            .iter()
            .zip(&b.trace)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.trace.len().min(b.trace.len()));
        return Some(format!(
            "trace entry {i}: {:?} vs {:?} (lens {} vs {})",
            a.trace.get(i),
            b.trace.get(i),
            a.trace.len(),
            b.trace.len()
        ));
    }
    for (r, (ra, rb)) in a.regs.iter().zip(&b.regs).enumerate() {
        if let Some(t) = ra.iter().zip(rb).position(|(x, y)| x != y) {
            return Some(format!("r{r} lane {t}: {:#x} vs {:#x}", ra[t], rb[t]));
        }
    }
    for (t, (pa, pb)) in a.preds.iter().zip(&b.preds).enumerate() {
        if pa != pb {
            return Some(format!("predicates lane {t}: {pa:?} vs {pb:?}"));
        }
    }
    if let Some(w) = a.shared.iter().zip(&b.shared).position(|(x, y)| x != y) {
        return Some(format!(
            "shared[{w}]: {:#x} vs {:#x}",
            a.shared[w], b.shared[w]
        ));
    }
    None
}

/// One execution path through the interpreters.
#[derive(Debug, Clone, Copy)]
struct Path {
    label: &'static str,
    reference: bool,
    cycle_accurate: bool,
}

const PATHS: &[Path] = &[
    Path {
        label: "ref-fn",
        reference: true,
        cycle_accurate: false,
    },
    Path {
        label: "pre-fn",
        reference: false,
        cycle_accurate: false,
    },
    Path {
        label: "pre-ca",
        reference: false,
        cycle_accurate: true,
    },
];

/// Run one compiled stage on one path, starting from `mem`.
fn run_stage(
    program: &Program,
    m: &Materialized,
    mem: &[u32],
    path: Path,
) -> Result<Observed, String> {
    let threads = m.config.threads;
    let regs = m.config.regs_per_thread;
    let mut cpu = Processor::new(m.config.clone()).map_err(|e| format!("config: {e}"))?;
    cpu.shared_mut()
        .load_words(0, mem)
        .map_err(|e| format!("seed memory: {e}"))?;
    cpu.load_program(program)
        .map_err(|e| format!("load: {e}"))?;
    let opts = if path.cycle_accurate {
        RunOptions::cycle_accurate()
    } else {
        RunOptions::default()
    };
    let (stats, trace) = if path.reference {
        cpu.run_reference_traced(opts)
            .map_err(|e| format!("exec: {e}"))?
    } else {
        cpu.run_traced(opts).map_err(|e| format!("exec: {e}"))?
    };
    Ok(Observed {
        stats,
        trace,
        regs: (0..regs as u8).map(|r| cpu.regfile().gather(r)).collect(),
        preds: (0..threads)
            .map(|t| [0, 1, 2, 3].map(|p| cpu.regfile().read_pred(t, p)))
            .collect(),
        shared: cpu.shared().as_slice().to_vec(),
    })
}

/// The initial full-memory image of a case (zeros with the input window
/// populated), matching a fresh stream buffer after `copy_in`.
fn initial_memory(m: &Materialized) -> Vec<u32> {
    let mut mem = vec![0u32; MEM_WORDS];
    let input = m.input();
    mem[IN_OFF..IN_OFF + input.len()].copy_from_slice(&input);
    mem
}

/// Compile every stage at one level, mapping resource exhaustion to a
/// skip and anything else to a divergence (the generator's validity
/// contract was broken).
fn compile_stages(m: &Materialized, opt: OptLevel, label: &str) -> Result<Vec<Program>, Verdict> {
    m.kernels
        .iter()
        .enumerate()
        .map(|(i, k)| match compile(k, &m.config, opt) {
            Ok(c) => Ok(c.program),
            Err(
                e @ (CompileError::OutOfRegisters { .. }
                | CompileError::OutOfPredicates { .. }
                | CompileError::ProgramTooLarge { .. }),
            ) => Err(Verdict::Skipped(format!("{label} stage {i}: {e}"))),
            Err(e) => Err(Verdict::Divergence(DivergenceReport {
                pair: format!("{label}-compile"),
                stage: i,
                detail: e.to_string(),
            })),
        })
        .collect()
}

/// Run the interpreter matrix for one opt level; returns the baseline's
/// final memory.
fn check_interpreters(
    m: &Materialized,
    programs: &[Program],
    level: &str,
) -> Result<Vec<u32>, Verdict> {
    let mut mems: Vec<Vec<u32>> = PATHS.iter().map(|_| initial_memory(m)).collect();
    for (stage, program) in programs.iter().enumerate() {
        let mut baseline: Option<Observed> = None;
        for (pi, path) in PATHS.iter().enumerate() {
            let obs = run_stage(program, m, &mems[pi], *path).map_err(|detail| {
                Verdict::Divergence(DivergenceReport {
                    pair: format!("{level}/{}", path.label),
                    stage,
                    detail,
                })
            })?;
            mems[pi] = obs.shared.clone();
            match &baseline {
                None => baseline = Some(obs),
                Some(base) => {
                    if let Some(detail) = diff_observed(base, &obs) {
                        return Err(Verdict::Divergence(DivergenceReport {
                            pair: format!("{level}/{} vs {level}/{}", path.label, PATHS[0].label),
                            stage,
                            detail,
                        }));
                    }
                }
            }
        }
    }
    Ok(mems.swap_remove(0))
}

/// Build the two launch specs of a materialized case.
fn specs(m: &Materialized) -> Vec<LaunchSpec> {
    m.kernels
        .iter()
        .zip(&m.stage_outs)
        .map(|(k, &(out_off, out_len))| LaunchSpec {
            name: k.name.clone(),
            config: m.config.clone(),
            source: KernelSource::Ir(k.clone()),
            inputs: vec![],
            out_off,
            out_len,
            expected: vec![],
        })
        .collect()
}

/// Run the runtime paths (eager stream, captured graph replay, fused
/// graph replay) and compare each copy-out window to `oracle`.
fn check_runtime(m: &Materialized, oracle: &[u32]) -> Result<usize, Verdict> {
    let diverge = |pair: &str, detail: String| {
        Verdict::Divergence(DivergenceReport {
            pair: format!("runtime-{pair} vs local-O2"),
            stage: m.kernels.len(),
            detail,
        })
    };
    let window = |pair: &str, got: &[u32]| -> Result<(), Verdict> {
        if got != oracle {
            let w = got
                .iter()
                .zip(oracle)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(diverge(
                pair,
                format!(
                    "word {} (abs {}): {:#x} vs {:#x}",
                    w,
                    m.out.0 + w,
                    got.get(w).copied().unwrap_or(0),
                    oracle[w]
                ),
            ));
        }
        Ok(())
    };
    let input = m.input();
    let rt = Runtime::new(RuntimeConfig::default());

    // Eager stream.
    let s = rt.stream();
    s.copy_in(IN_OFF, &input);
    for spec in specs(m) {
        s.launch(spec);
    }
    let out = s.copy_out(m.out.0, m.out.1);
    rt.synchronize()
        .map_err(|e| diverge("eager", e.to_string()))?;
    let eager = out.wait().map_err(|e| diverge("eager", e.to_string()))?;
    window("eager", &eager)?;

    // Stream capture → graph → replay.
    let c = rt.stream();
    c.begin_capture()
        .map_err(|e| diverge("capture", e.to_string()))?;
    c.copy_in(IN_OFF, &input);
    for spec in specs(m) {
        c.launch(spec);
    }
    c.copy_out(m.out.0, m.out.1);
    let graph = c
        .end_capture()
        .map_err(|e| diverge("capture", e.to_string()))?;
    let exec = rt
        .instantiate(graph.clone())
        .map_err(|e| diverge("replay", e.to_string()))?;
    let replay = rt
        .replay(&exec)
        .map_err(|e| diverge("replay", e.to_string()))?;
    window("replay", &replay.outputs[0].1)?;

    // Fused graph → replay.
    let (fused_graph, report) = fuse(&graph);
    let fexec = rt
        .instantiate(fused_graph)
        .map_err(|e| diverge("fused", e.to_string()))?;
    let freplay = rt
        .replay(&fexec)
        .map_err(|e| diverge("fused", e.to_string()))?;
    window("fused", &freplay.outputs[0].1)?;

    Ok(report.launches_fused)
}

/// Run the eager runtime path under a seeded chaos fault plan and
/// compare the recovered copy-out window to `oracle`. Injected faults
/// never execute, so a run the retry machinery recovers must be
/// bit-exact with the fault-free composition. A case that exhausts its
/// retry budget surfaces a typed error and counts as a skip — the
/// recovery contract is "recovered ⇒ bit-exact", not "always recovers".
fn check_runtime_chaos(m: &Materialized, oracle: &[u32], chaos_seed: u64) -> Result<(), Verdict> {
    let diverge = |detail: String| {
        Verdict::Divergence(DivergenceReport {
            pair: "chaos-eager vs local-O2".into(),
            stage: m.kernels.len(),
            detail,
        })
    };
    let chaos = ChaosConfig::new(chaos_seed)
        .with_transient_launch_rate(0.25)
        .with_hung_kernel_rate(0.1)
        .with_copy_fault_rate(0.15);
    let recovery = RecoveryConfig {
        max_attempts: 10,
        quarantine_after: u64::MAX,
        ..RecoveryConfig::default()
    };
    let rt = Runtime::new(
        RuntimeConfig::with_devices(2)
            .with_chaos(chaos)
            .with_recovery(recovery),
    );
    let s = rt.stream();
    s.copy_in(IN_OFF, &m.input());
    for spec in specs(m) {
        s.launch(spec);
    }
    let out = s.copy_out(m.out.0, m.out.1);
    if let Err(e) = rt.synchronize() {
        return Err(Verdict::Skipped(format!("chaos retries exhausted: {e}")));
    }
    let got = out
        .wait()
        .map_err(|e| Verdict::Skipped(format!("chaos retries exhausted: {e}")))?;
    if got != oracle {
        let w = got
            .iter()
            .zip(oracle)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(diverge(format!(
            "word {} (abs {}): {:#x} vs {:#x}",
            w,
            m.out.0 + w,
            got.get(w).copied().unwrap_or(0),
            oracle[w]
        )));
    }
    Ok(())
}

/// Materialize one AST-level program, derive its fault-free `O2`
/// oracle, then run the eager runtime path under the seeded chaos plan
/// and assert the recovered output matches the oracle bit-exactly.
pub fn check_chaos(p: &FuzzProgram, chaos_seed: u64) -> Verdict {
    let m = materialize(p);
    let o2 = match compile_stages(&m, OptLevel::Full, "O2") {
        Ok(p) => p,
        Err(v) => return v,
    };
    let mem_o2 = match check_interpreters(&m, &o2, "O2") {
        Ok(mem) => mem,
        Err(v) => return v,
    };
    let oracle = &mem_o2[m.out.0..m.out.0 + m.out.1];
    match check_runtime_chaos(&m, oracle, chaos_seed) {
        Ok(()) => Verdict::Pass(PassReport {
            fused_launches: 0,
            ir_insts: m.kernels.iter().map(|k| k.live_insts()).sum(),
        }),
        Err(v) => v,
    }
}

/// Run one materialized case through the complete matrix.
pub fn check_materialized(m: &Materialized) -> Verdict {
    let o0 = match compile_stages(m, OptLevel::None, "O0") {
        Ok(p) => p,
        Err(v) => return v,
    };
    let o2 = match compile_stages(m, OptLevel::Full, "O2") {
        Ok(p) => p,
        Err(v) => return v,
    };

    let mem_o0 = match check_interpreters(m, &o0, "O0") {
        Ok(mem) => mem,
        Err(v) => return v,
    };
    let mem_o2 = match check_interpreters(m, &o2, "O2") {
        Ok(mem) => mem,
        Err(v) => return v,
    };

    // Cross-opt: final shared memory must be identical (stores are
    // never elided by the pass pipeline).
    if let Some(w) = mem_o0.iter().zip(&mem_o2).position(|(a, b)| a != b) {
        return Verdict::Divergence(DivergenceReport {
            pair: "O0 vs O2".into(),
            stage: m.kernels.len(),
            detail: format!("shared[{w}]: {:#x} vs {:#x}", mem_o0[w], mem_o2[w]),
        });
    }

    let oracle = &mem_o2[m.out.0..m.out.0 + m.out.1];
    let fused_launches = match check_runtime(m, oracle) {
        Ok(n) => n,
        Err(v) => return v,
    };

    Verdict::Pass(PassReport {
        fused_launches,
        ir_insts: m.kernels.iter().map(|k| k.live_insts()).sum(),
    })
}

/// Materialize and check one AST-level program.
pub fn check(p: &FuzzProgram) -> Verdict {
    check_materialized(&materialize(p))
}
