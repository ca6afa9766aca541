//! The reset contract: after `reset()` a processor is indistinguishable
//! from a freshly built one, **whatever dirtied it** — a finished run, a
//! trapped run, a watchdog-killed run, a host write to the highest
//! register, a host predicate write, a restored snapshot — and a reused
//! processor runs the next program exactly as a fresh one would.
//!
//! Every case works on *one long-lived processor per configuration*, so
//! whatever a reset forgets to undo is still there for the next case to
//! trip over. The shipped kernel families and the `simt-fuzzgen`
//! programs (scattered and conflicting stores) go through the same
//! contract in `crates/fuzzgen/tests/reset_contract.rs`, where those
//! crates are already dependencies.

mod common;

use common::{arb_program, config, seed_memory, MAX_THREADS, MEM_WORDS, REGS};
use proptest::prelude::*;
use simt_core::{ExecError, Processor, ProcessorConfig, RunOptions};
use simt_isa::{assemble, Program};

/// `reset()` and compare with a processor built this instant: the whole
/// snapshot (registers, predicates, memory; the loaded program is kept
/// across a reset, so it is carried over) and the memory statistics.
#[track_caller]
fn assert_reset_is_power_on(cpu: &mut Processor, what: &str) {
    cpu.reset();
    let fresh = Processor::new(cpu.config().clone()).unwrap();
    let mut want = fresh.snapshot();
    want.program = cpu.program().cloned();
    assert!(cpu.snapshot() == want, "{what}: reset left state behind");
    assert_eq!(cpu.shared().stats(), fresh.shared().stats(), "{what}");
}

/// Run `program` on the long-lived `cpu` (reset first) and on a fresh
/// processor, from the same memory image: same verdict, same final
/// state. Then the reset contract again.
#[track_caller]
fn assert_reuse_equals_fresh(
    cpu: &mut Processor,
    program: &Program,
    image: &[u32],
    run: impl Fn(&mut Processor) -> Result<simt_core::ExecStats, ExecError>,
    what: &str,
) {
    let mut fresh = Processor::new(cpu.config().clone()).unwrap();
    cpu.reset();
    for p in [&mut *cpu, &mut fresh] {
        p.shared_mut().load_words(0, image).unwrap();
        p.load_program(program).unwrap();
    }
    let (got, want) = (run(cpu), run(&mut fresh));
    assert_eq!(got, want, "{what}: verdict");
    assert!(cpu.snapshot() == fresh.snapshot(), "{what}: final state");
    assert_eq!(cpu.shared().stats(), fresh.shared().stats(), "{what}");
    assert_reset_is_power_on(cpu, what);
}

fn small() -> ProcessorConfig {
    // 64 threads x 16 registers, 1024 shared words, predicates on.
    ProcessorConfig::small()
}

/// Hand-written shapes, each touching state a reset must find again:
/// the highest register, every predicate, the last memory word, stores
/// that scatter, collide, are partly or wholly guarded off, or run on a
/// scaled-down thread set.
const SHAPES: &[(&str, &str)] = &[
    (
        "unit-stride store, highest register",
        "  stid r1\n  muli r15, r1, 7\n  sts [r1+0], r15\n  exit",
    ),
    (
        "store into the last words of memory",
        "  stid r1\n  sts [r1+960], r1\n  exit",
    ),
    (
        "scattered store (stride 13)",
        "  stid r1\n  muli r2, r1, 13\n  sts [r2+3], r1\n  exit",
    ),
    (
        "descending store",
        "  stid r1\n  movi r2, 900\n  sub r3, r2, r1\n  sts [r3+0], r1\n  exit",
    ),
    (
        "conflicting store: every lane to one word",
        "  stid r1\n  movi r2, 511\n  sts [r2+0], r1\n  exit",
    ),
    (
        "guarded store, odd lanes only",
        "  stid r1\n  andi r2, r1, 1\n  movi r3, 0\n  setp.ne p3, r2, r3\n  @p3 sts [r1+128], r1\n  exit",
    ),
    (
        "guarded store, every lane off",
        "  stid r1\n  movi r2, 0\n  setp.lt p2, r1, r2\n  @p2 sts [r1+0], r1\n  @p2 movi r9, 5\n  exit",
    ),
    (
        "scaled store and scaled op",
        "  stid r1\n  addi.t2 r14, r1, 9\n  sts.t3 [r1+700], r14\n  exit",
    ),
    (
        "load into a high register, store-free",
        "  stid r1\n  lds r13, [r1+32]\n  setp.eq p0, r13, r1\n  setp.ge p1, r1, r13\n  exit",
    ),
    (
        "loop of stores walking upwards",
        "  stid r1\n  loop 6, end\n  addi r1, r1, 64\n  sts [r1+0], r1\n end:\n  exit",
    ),
];

#[test]
fn reset_after_every_store_and_register_shape() {
    let mut cpu = Processor::new(small()).unwrap();
    let image: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(40503) | 1).collect();
    for (what, src) in SHAPES {
        let program = assemble(src).unwrap_or_else(|e| panic!("{what}: {e}"));
        for (mode, opts) in [
            ("functional", RunOptions::default()),
            ("cycle-accurate", RunOptions::cycle_accurate()),
        ] {
            let what = format!("{what} ({mode})");
            assert_reuse_equals_fresh(&mut cpu, &program, &image, |p| p.run(opts), &what);
            // From zeroed memory too: a word a store sets back to the
            // value the image already held is still a written word.
            assert_reuse_equals_fresh(&mut cpu, &program, &[], |p| p.run(opts), &what);
            let what = format!("{what}, reference interpreter");
            assert_reuse_equals_fresh(&mut cpu, &program, &image, |p| p.run_reference(opts), &what);
        }
    }
}

#[test]
fn reset_after_host_writes() {
    for threads in [1usize, 16, 17, 64, 1024] {
        let config = small().with_threads(threads);
        let top = config.regs_per_thread as u8 - 1;
        let last = config.shared_words - 1;
        let mut cpu = Processor::new(config).unwrap();
        let t = threads - 1;

        cpu.regfile_mut().write(t, top, 0xDEAD_BEEF);
        assert_reset_is_power_on(&mut cpu, "write to the highest register");
        cpu.regfile_mut().write(0, 0, 1);
        assert_reset_is_power_on(&mut cpu, "write to r0 of thread 0");
        cpu.regfile_mut().broadcast(top, 7);
        assert_reset_is_power_on(&mut cpu, "broadcast to the highest register");
        cpu.regfile_mut().scatter(top - 1, &vec![9; threads]);
        assert_reset_is_power_on(&mut cpu, "scatter");
        for pred in 0..4 {
            cpu.regfile_mut().write_pred(t, pred, true);
            assert_reset_is_power_on(&mut cpu, "write_pred");
        }
        // A predicate written and cleared again is zero either way.
        cpu.regfile_mut().write_pred(0, 1, true);
        cpu.regfile_mut().write_pred(0, 1, false);
        assert_reset_is_power_on(&mut cpu, "write_pred set then cleared");

        cpu.shared_mut().write(0, 0, last, 5).unwrap();
        assert_reset_is_power_on(&mut cpu, "host write to the last word");
        cpu.shared_mut().load_words(last, &[6]).unwrap();
        cpu.shared_mut().load_words(0, &[7, 8]).unwrap();
        assert_reset_is_power_on(&mut cpu, "two load_words, both ends");
        // Rejected host accesses change nothing and leave nothing.
        assert!(cpu.shared_mut().load_words(last, &[1, 2]).is_err());
        assert!(cpu.shared_mut().write(0, 0, last + 1, 1).is_err());
        assert_reset_is_power_on(&mut cpu, "rejected host writes");
    }
}

#[test]
fn reset_after_restoring_a_dirty_snapshot() {
    let mut dirty = Processor::new(small()).unwrap();
    let p = assemble(
        "  stid r1\n  muli r15, r1, 3\n  movi r2, 8\n  setp.lt p3, r1, r2\n  sts [r1+900], r15\n  exit",
    )
    .unwrap();
    dirty.load_program(&p).unwrap();
    dirty.run(RunOptions::default()).unwrap();
    let snap = dirty.snapshot();

    // Into a clean, long-lived processor — twice, with a run between.
    let mut cpu = Processor::new(small()).unwrap();
    cpu.restore(&snap).unwrap();
    assert!(cpu.snapshot() == snap);
    assert_reset_is_power_on(&mut cpu, "restore of a dirty snapshot");
    cpu.restore(&snap).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    assert_reset_is_power_on(&mut cpu, "restore, then run");
    // Restoring a *clean* snapshot over dirty state is a reset of its own.
    let blank = Processor::new(small()).unwrap().snapshot();
    cpu.restore(&snap).unwrap();
    cpu.restore(&blank).unwrap();
    assert!(cpu.snapshot() == blank, "restore of a blank snapshot");
    assert_reset_is_power_on(&mut cpu, "restore of a blank snapshot");
}

#[test]
fn reset_after_a_trapped_run() {
    let mut cpu = Processor::new(small()).unwrap();
    let image: Vec<u32> = (0..1024u32).map(|i| i ^ 0x5A5A).collect();
    // Scattered store that leaves memory at lane 40: lanes 0..40 have
    // stored (stride 25 -> word 1000 is lane 40) when the trap fires.
    let store_trap = assemble("  stid r1\n  muli r2, r1, 25\n  sts [r2+24], r1\n  exit").unwrap();
    // Unit-stride column whose window leaves memory: lanes 0..24 store.
    let window_trap = assemble("  stid r1\n  sts [r1+1000], r1\n  exit").unwrap();
    // Gather that traps half way, into the highest register.
    let load_trap = assemble("  stid r1\n  muli r2, r1, 30\n  lds r15, [r2+0]\n  exit").unwrap();
    // A store that succeeds, then a trap: the first store stays stored.
    let late_trap = assemble(
        "  stid r1\n  sts [r1+64], r1\n  movi r3, 4096\n  setp.eq p1, r1, r1\n  lds r4, [r3+0]\n  exit",
    )
    .unwrap();
    for (what, program) in [
        ("scattered store trap", &store_trap),
        ("unit-stride store trap", &window_trap),
        ("gather trap", &load_trap),
        ("trap after a good store", &late_trap),
    ] {
        for reference in [false, true] {
            let run = |p: &mut Processor| {
                let r = if reference {
                    p.run_reference(RunOptions::default())
                } else {
                    p.run(RunOptions::default())
                };
                assert!(
                    matches!(r, Err(ExecError::SharedOutOfBounds { .. })),
                    "{what}: {r:?}"
                );
                r
            };
            assert_reuse_equals_fresh(&mut cpu, program, &image, run, what);
        }
    }
}

#[test]
fn reset_after_a_watchdog_kill() {
    let mut cpu = Processor::new(small()).unwrap();
    // Stores and a predicate write, then a spin the watchdog ends.
    let p = assemble(
        "  stid r1\n  muli r12, r1, 5\n  sts [r12+1], r1\n  setp.eq p2, r1, r1\n spin:\n  addi r11, r11, 1\n  bra spin",
    )
    .unwrap();
    for reference in [false, true] {
        let run = |p: &mut Processor| {
            let opts = RunOptions {
                max_cycles: 2_000,
                ..Default::default()
            };
            let r = if reference {
                p.run_reference(opts)
            } else {
                p.run(opts)
            };
            assert_eq!(r, Err(ExecError::Watchdog { cycles: 2_000 }));
            r
        };
        assert_reuse_equals_fresh(&mut cpu, &p, &[], run, "watchdog kill");
    }
}

/// 256 generated programs (the differential suite's generator: every
/// value opcode, guards, `.tk` scales, loops, branches, tid-based memory
/// traffic) chained through one processor per thread count, each run on
/// the interpreter the case number picks.
#[test]
fn reset_after_generated_programs() {
    let strategy = arb_program();
    let mut rng = TestRng::with_seed(0x5EED_0022);
    let image = seed_memory();
    assert_eq!(image.len(), MEM_WORDS);
    for threads in [1usize, 16, 37, MAX_THREADS] {
        let mut cpu = Processor::new(config(threads)).unwrap();
        assert_eq!(cpu.config().regs_per_thread, REGS as usize);
        for case in 0..64 {
            let program = strategy.generate(&mut rng);
            let what = format!("{threads} threads, case {case}");
            let run = |p: &mut Processor| match case % 3 {
                0 => p.run(RunOptions::default()),
                1 => p.run(RunOptions::cycle_accurate()),
                _ => p.run_reference(RunOptions::default()),
            };
            assert_reuse_equals_fresh(&mut cpu, &program, &image, run, &what);
        }
    }
}
