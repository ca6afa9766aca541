//! Differential property tests: the predecoded µop interpreter
//! ([`Processor::run`]) must be **bit-exact** against the reference
//! interpreter ([`Processor::run_reference`]) — identical register
//! files, predicates, shared memory, traces and [`ExecStats`] — over
//! random programs covering the full value-opcode surface, guards,
//! dynamic thread scaling, zero-overhead loops (nested, zero-trip and
//! empty-body) and forward branches, in both execution modes, on
//! narrow blocks (1–96 threads) and a wide one (512 threads, 32 rows).
//!
//! The program generators live in `tests/common` and are shared with
//! the profiler determinism suite (`prop_profile.rs`).

mod common;

use common::{arb_program, config, seed_memory, MAX_THREADS, REGS, WIDE_THREADS};
use proptest::prelude::*;
use simt_core::{ExecStats, Processor, RunOptions, TraceEntry};
use simt_isa::Program;

/// Full observable machine state after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: ExecStats,
    trace: Vec<TraceEntry>,
    regs: Vec<Vec<u32>>,
    preds: Vec<[bool; 4]>,
    shared: Vec<u32>,
}

fn run_observed(program: &Program, threads: usize, opts: RunOptions, reference: bool) -> Observed {
    let mut cpu = Processor::new(config(threads)).unwrap();
    cpu.shared_mut().load_words(0, &seed_memory()).unwrap();
    cpu.load_program(program).unwrap();
    let (stats, trace) = if reference {
        cpu.run_reference_traced(opts).unwrap()
    } else {
        cpu.run_traced(opts).unwrap()
    };
    Observed {
        stats,
        trace,
        regs: (0..REGS).map(|r| cpu.regfile().gather(r)).collect(),
        preds: (0..threads)
            .map(|t| [0, 1, 2, 3].map(|p| cpu.regfile().read_pred(t, p)))
            .collect(),
        shared: cpu.shared().as_slice().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: predecoded == reference, bit for bit,
    /// in functional mode.
    #[test]
    fn predecoded_matches_reference_functional(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let fast = run_observed(&program, threads, RunOptions::default(), false);
        let reference = run_observed(&program, threads, RunOptions::default(), true);
        prop_assert_eq!(fast, reference);
    }

    /// Same in cycle-accurate mode (which additionally steps the
    /// counter hardware on both interpreters).
    #[test]
    fn predecoded_matches_reference_cycle_accurate(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let fast = run_observed(&program, threads, RunOptions::cycle_accurate(), false);
        let reference = run_observed(&program, threads, RunOptions::cycle_accurate(), true);
        prop_assert_eq!(fast, reference);
    }

    /// The wide-block case: 512 threads (a 32-row block, so dynamic
    /// scaling yields multi-row active sets) — store ordering and
    /// predicate updates must match the reference lane for lane.
    #[test]
    fn predecoded_matches_reference_wide_block(program in arb_program()) {
        let fast = run_observed(&program, WIDE_THREADS, RunOptions::default(), false);
        let reference = run_observed(&program, WIDE_THREADS, RunOptions::default(), true);
        prop_assert_eq!(fast, reference);
    }

    /// Functional and cycle-accurate predecoded runs are
    /// observationally identical (the never-diverge invariant of
    /// docs/SIMULATOR.md, on the fast path).
    #[test]
    fn predecoded_modes_agree(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let f = run_observed(&program, threads, RunOptions::default(), false);
        let ca = run_observed(&program, threads, RunOptions::cycle_accurate(), false);
        prop_assert_eq!(f, ca);
    }
}

/// Deterministic coverage of the control opcodes the generator leaves
/// out (call/ret, bar, nop) plus predicated branches — both
/// interpreters, traced, bit-compared.
#[test]
fn control_flow_matches_reference() {
    let src = "  stid r0
           movi r1, 3
           movi r2, 5
           setp.lt p1, r1, r2
           @p1 call f
           @!p1 brp skip
           nop
           bar
    skip:
           sts [r0+0], r3
           exit
    f:
           addi r3, r1, 100
           ret";
    let program = simt_isa::assemble(src).unwrap();
    for threads in [1usize, 16, 48, 96] {
        for opts in [RunOptions::default(), RunOptions::cycle_accurate()] {
            let fast = run_observed(&program, threads, opts, false);
            let reference = run_observed(&program, threads, opts, true);
            assert_eq!(fast, reference, "threads={threads} opts={opts:?}");
        }
    }
}
