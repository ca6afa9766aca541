//! Profiler determinism and completeness properties, over the same
//! random-program generators as the decode differential suite
//! (`tests/common`):
//!
//! * a profiled run is **observationally identical** to an unprofiled
//!   run (same stats, registers, shared memory);
//! * the per-PC profile **accounts for every clock**: pipeline fill
//!   plus the per-PC charges reproduce `ExecStats` exactly, and issue /
//!   thread-op totals match the instruction counters;
//! * same program + same seed ⇒ **identical profiles**, across repeat
//!   runs and across execution modes;
//! * on a wide block (512 threads) the profile equals the one derived
//!   independently from the **reference** interpreter's trace.

mod common;

use common::{arb_program, config, seed_memory, MAX_THREADS, WIDE_THREADS};
use proptest::prelude::*;
use simt_core::{ExecStats, PcProfile, Processor, RunOptions, FETCH_PIPELINE_DEPTH};
use simt_isa::{CycleClass, Program};

fn run_profiled(program: &Program, threads: usize, opts: RunOptions) -> (ExecStats, PcProfile) {
    let mut cpu = Processor::new(config(threads)).unwrap();
    cpu.shared_mut().load_words(0, &seed_memory()).unwrap();
    cpu.load_program(program).unwrap();
    cpu.run_profiled(opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Profiling observes without perturbing: stats and architectural
    /// state match the unprofiled run bit for bit.
    #[test]
    fn profiled_run_is_transparent(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let mut plain = Processor::new(config(threads)).unwrap();
        plain.shared_mut().load_words(0, &seed_memory()).unwrap();
        plain.load_program(&program).unwrap();
        let stats = plain.run(RunOptions::default()).unwrap();

        let mut prof = Processor::new(config(threads)).unwrap();
        prof.shared_mut().load_words(0, &seed_memory()).unwrap();
        prof.load_program(&program).unwrap();
        let (pstats, _) = prof.run_profiled(RunOptions::default()).unwrap();

        prop_assert_eq!(pstats, stats);
        prop_assert_eq!(prof.shared().as_slice(), plain.shared().as_slice());
    }

    /// Complete attribution: fill + Σ per-PC cycles == total cycles,
    /// Σ issues == instructions, Σ thread-ops == thread_ops. Nothing
    /// is lost, nothing is double-charged.
    #[test]
    fn every_clock_has_an_owner(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let (stats, profile) = run_profiled(&program, threads, RunOptions::default());
        prop_assert_eq!(profile.len(), program.len());
        prop_assert_eq!(profile.total_cycles(), stats.cycles);
        prop_assert_eq!(profile.fill_cycles, stats.fill_cycles);
        let issues: u64 = profile.counters.iter().map(|c| c.issues).sum();
        prop_assert_eq!(issues, stats.instructions);
        let ops: u64 = profile.counters.iter().map(|c| c.thread_ops).sum();
        prop_assert_eq!(ops, stats.thread_ops);
    }

    /// Same program + same seed ⇒ identical profile streams across
    /// repeat runs and across functional / cycle-accurate modes.
    #[test]
    fn profile_is_deterministic(
        program in arb_program(),
        threads in 1usize..=MAX_THREADS,
    ) {
        let a = run_profiled(&program, threads, RunOptions::default());
        let b = run_profiled(&program, threads, RunOptions::default());
        prop_assert_eq!(&a, &b);
        let ca = run_profiled(&program, threads, RunOptions::cycle_accurate());
        prop_assert_eq!(&a, &ca);
    }

    /// The wide-block case (512 threads, 32 rows): the predecoded
    /// loop's profile equals the one rebuilt from the reference
    /// interpreter's trace — each entry charges its clocks, plus the
    /// flush if it redirected the PC, plus its thread-ops, to its PC.
    #[test]
    fn wide_block_profile_matches_reference_trace(program in arb_program()) {
        let (stats, profile) = run_profiled(&program, WIDE_THREADS, RunOptions::default());

        let mut reference = Processor::new(config(WIDE_THREADS)).unwrap();
        reference.shared_mut().load_words(0, &seed_memory()).unwrap();
        reference.load_program(&program).unwrap();
        let (ref_stats, trace) = reference.run_reference_traced(RunOptions::default()).unwrap();
        let mut derived = PcProfile::with_len(program.len());
        derived.fill_cycles = ref_stats.fill_cycles;
        for e in &trace {
            let flush = if e.jumped.is_some() { FETCH_PIPELINE_DEPTH } else { 0 };
            let ops = if e.opcode.cycle_class() == CycleClass::SingleCycle {
                0
            } else {
                e.active as u64
            };
            derived.record(e.pc, e.clocks + flush, ops);
        }

        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(profile, derived);
    }
}

/// Deterministic spot check: a counted loop's body PCs absorb the
/// loop's cycles and re-issue per iteration.
#[test]
fn loop_body_dominates_profile() {
    let program = simt_isa::assemble(
        "  stid r0
           movi r1, 0
           loop 10, body_end
           addi r1, r1, 1
           sts [r0+0], r1
    body_end:
           exit",
    )
    .unwrap();
    let (stats, profile) = run_profiled(&program, 16, RunOptions::default());
    assert_eq!(profile.total_cycles(), stats.cycles);
    // PCs 3 and 4 are the loop body; each issues 10 times.
    assert_eq!(profile.counters[3].issues, 10);
    assert_eq!(profile.counters[4].issues, 10);
    let hottest = profile.hottest(1)[0].0;
    assert!(
        hottest == 3 || hottest == 4,
        "hottest PC {hottest} should be in the loop body"
    );
}
