//! Snapshot / restore: checkpointing reproduces execution exactly.

use simt_core::{LoadError, Processor, ProcessorConfig, RunOptions, Snapshot};
use simt_isa::assemble;

#[test]
fn snapshot_restores_full_state() {
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let p1 = assemble("  stid r1\n  muli r2, r1, 7\n  sts [r1+0], r2\n  exit").unwrap();
    cpu.load_program(&p1).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();

    // Diverge: run a second kernel that clobbers everything.
    let p2 = assemble("  stid r1\n  movi r2, 0\n  sts [r1+0], r2\n  exit").unwrap();
    cpu.load_program(&p2).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    assert_eq!(cpu.shared().as_slice()[5], 0);

    // Restore and verify the first kernel's world is back.
    cpu.restore(&snap).unwrap();
    assert_eq!(cpu.shared().as_slice()[5], 35);
    assert_eq!(cpu.regfile().read(5, 2), 35);
    // The restored program is p1: running it again reproduces the state.
    cpu.run(RunOptions::default()).unwrap();
    assert_eq!(cpu.shared().as_slice()[5], 35);
}

#[test]
fn ab_experiment_from_common_checkpoint() {
    // Take one checkpoint, run two different continuations, compare.
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let prep = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    cpu.load_program(&prep).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();

    let double =
        assemble("  stid r1\n  lds r2, [r1+0]\n  shli r2, r2, 1\n  sts [r1+0], r2\n  exit")
            .unwrap();
    cpu.load_program(&double).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let doubled = cpu.shared().as_slice()[7];

    let mut cpu2 = Processor::new(ProcessorConfig::small()).unwrap();
    cpu2.restore(&snap).unwrap();
    let triple =
        assemble("  stid r1\n  lds r2, [r1+0]\n  muli r2, r2, 3\n  sts [r1+0], r2\n  exit")
            .unwrap();
    cpu2.load_program(&triple).unwrap();
    cpu2.run(RunOptions::default()).unwrap();
    let tripled = cpu2.shared().as_slice()[7];

    assert_eq!(doubled, 14);
    assert_eq!(tripled, 21);
}

#[test]
fn snapshot_serializes() {
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let p = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: simt_core::sm::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
}

/// A processor with a program loaded and every kind of state written,
/// and a good snapshot of it.
fn ran() -> (Processor, Snapshot) {
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let p = assemble("  stid r1\n  movi r2, 8\n  setp.lt p1, r1, r2\n  sts [r1+0], r1\n  exit")
        .unwrap();
    cpu.load_program(&p).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();
    (cpu, snap)
}

/// Restoring `bad` over a dirty processor fails with `want` and
/// changes nothing.
fn assert_rejected(bad: &Snapshot, want: LoadError) {
    let (mut cpu, before) = ran();
    assert_eq!(cpu.restore(bad), Err(want));
    assert!(cpu.snapshot() == before, "a rejected restore left a mark");
}

#[test]
fn mismatched_config_rejected() {
    let (_, mut snap) = ran();
    snap.config = ProcessorConfig::small().with_threads(16);
    assert_rejected(&snap, LoadError::ConfigMismatch);
}

#[test]
fn wrong_length_registers_rejected() {
    let (_, mut snap) = ran();
    let expected = snap.regs.len();
    snap.regs.pop();
    assert_rejected(
        &snap,
        LoadError::SnapshotRegs {
            len: expected - 1,
            expected,
        },
    );
}

#[test]
fn wrong_length_predicates_rejected() {
    let (_, mut snap) = ran();
    let expected = snap.preds.len();
    snap.preds.push(0);
    assert_rejected(
        &snap,
        LoadError::SnapshotPreds {
            len: expected + 1,
            expected,
        },
    );
}

#[test]
fn oversize_shared_memory_rejected() {
    let (_, mut snap) = ran();
    let capacity = snap.shared.len();
    snap.shared.push(7);
    assert_rejected(
        &snap,
        LoadError::SnapshotShared {
            len: capacity + 1,
            capacity,
        },
    );
}

#[test]
fn invalid_program_rejected() {
    // `small()` has 16 registers per thread: r20 fails the load checks.
    let (_, mut snap) = ran();
    snap.program = Some(assemble("  movi r20, 1\n  exit").unwrap());
    assert_rejected(
        &snap,
        LoadError::RegisterRange {
            pc: 0,
            reg: 20,
            limit: 16,
        },
    );
}

#[test]
fn register_file_round_trips_at_every_row_shape() {
    // One thread, one full row, a row plus one, the Table 1 size and the
    // 4096-thread ceiling: host accessors and snapshot -> restore must
    // agree with per-(thread, register) reads whatever the column stride.
    for threads in [1usize, 16, 17, 1024, 4096] {
        let config = ProcessorConfig::default()
            .with_threads(threads)
            .with_predicates(true);
        let regs = config.regs_per_thread as u8;
        let mut cpu = Processor::new(config.clone()).unwrap();
        let value = |t: usize, r: u8| (t as u32) << 8 | r as u32;

        // scatter / gather / read, every register.
        for r in 0..regs {
            let column: Vec<u32> = (0..threads).map(|t| value(t, r)).collect();
            cpu.regfile_mut().scatter(r, &column);
            assert_eq!(cpu.regfile().gather(r), column, "{threads} threads r{r}");
        }
        for t in [0, threads / 2, threads - 1] {
            for r in 0..regs {
                assert_eq!(cpu.regfile().read(t, r), value(t, r));
            }
        }
        // write touches exactly one (thread, register).
        let (t, r) = (threads - 1, regs - 1);
        cpu.regfile_mut().write(t, r, 0xDEAD_BEEF);
        cpu.regfile_mut().write_pred(t, 2, true);
        for r2 in 0..regs {
            let mut want: Vec<u32> = (0..threads).map(|t| value(t, r2)).collect();
            if r2 == r {
                want[t] = 0xDEAD_BEEF;
            }
            assert_eq!(cpu.regfile().gather(r2), want, "{threads} threads r{r2}");
        }

        // snapshot -> clobber -> restore, into a fresh processor too.
        let snap = cpu.snapshot();
        assert_eq!(snap.regs.len(), threads * regs as usize);
        let state = |cpu: &Processor| {
            let cols: Vec<Vec<u32>> = (0..regs).map(|r| cpu.regfile().gather(r)).collect();
            (cols, cpu.regfile().read_pred(t, 2))
        };
        let before = state(&cpu);
        cpu.regfile_mut().broadcast(0, 7);
        assert!(cpu.regfile().gather(0).iter().all(|&v| v == 7));
        assert_eq!(
            cpu.regfile().gather(1),
            before.0[1],
            "broadcast is one column"
        );
        cpu.reset();
        assert!(state(&cpu).0.iter().flatten().all(|&v| v == 0) && !state(&cpu).1);
        cpu.restore(&snap).unwrap();
        assert_eq!(state(&cpu), before, "{threads} threads");
        let mut fresh = Processor::new(config).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(state(&fresh), before, "{threads} threads (fresh)");
    }
}

#[test]
fn reset_is_power_on_state() {
    // In-place zeroing must be indistinguishable from a new processor:
    // registers, predicates, memory *and* its statistics, program kept.
    let mut cpu = Processor::new(ProcessorConfig::small().with_predicates(true)).unwrap();
    let p = assemble("  stid r1\n  movi r2, 0\n  setp.ne p0, r1, r2\n  sts [r1+0], r1\n  exit")
        .unwrap();
    cpu.load_program(&p).unwrap();
    let first = cpu.run(RunOptions::default()).unwrap();
    assert!(cpu.shared().stats().writes > 0);
    cpu.reset();
    let fresh = Processor::new(cpu.config().clone()).unwrap();
    let mut expect = fresh.snapshot();
    expect.program = Some(p);
    assert_eq!(cpu.snapshot(), expect);
    assert_eq!(cpu.shared().stats(), fresh.shared().stats());
    assert_eq!(cpu.run(RunOptions::default()).unwrap(), first);
}
