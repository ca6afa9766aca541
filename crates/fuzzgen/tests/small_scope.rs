//! Bounded-exhaustive compiler checks: enumerate every small program
//! over a deliberately tiny alphabet instead of sampling large ones
//! (Jackson's small-scope hypothesis; the technique of SmallCheck and
//! Korat). Random generation has to get lucky twice to reach a memory
//! pass's corner — an exact `(base, offset)` match, then an overlapping
//! store in between — while the enumeration below makes both happen by
//! construction.
//!
//! **The memory family.** Straight-line programs of one to three memory
//! instructions at 16 threads, each drawn from 36 symbols:
//! - a base: `tid`, `tid + 1` or the constant 0;
//! - an offset: 0, 1 or 2;
//! - an action: store `tid`, store 7, store the last load's value
//!   (`tid + 1` before the first load), or load.
//!
//! Each load's value is then stored to an output window of its own, and
//! the program runs from a non-zero memory image. O0 and O2 must leave
//! all of shared memory the same: 36 + 36² + 36³ = 47 988 programs.
//! Store-to-load forwarding fires on 2 406 of them, where the random
//! generator reaches it about once in 40 000 stages.

use simt_compiler::{compile, IrBuilder, Kernel, OptLevel, ValueId};
use simt_core::{Processor, ProcessorConfig, RunOptions};
use std::fmt::Write;

const THREADS: usize = 16;
/// Shared words: the accesses reach word 18, the output windows 64.
const WORDS: usize = 128;
/// First output window; load `i` of a program lands at `OUT + 16 i`.
const OUT: u32 = 32;

#[derive(Clone, Copy, Debug)]
enum Base {
    Tid,
    TidPlusOne,
    Zero,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    StoreTid,
    StoreSeven,
    StoreLastLoad,
    Load,
}

#[derive(Clone, Copy, Debug)]
struct MemOp {
    base: Base,
    off: u32,
    action: Action,
}

/// The 36 symbols, in enumeration order.
fn alphabet() -> Vec<MemOp> {
    let mut ops = Vec::new();
    for base in [Base::Tid, Base::TidPlusOne, Base::Zero] {
        for off in 0..3 {
            for action in [
                Action::StoreTid,
                Action::StoreSeven,
                Action::StoreLastLoad,
                Action::Load,
            ] {
                ops.push(MemOp { base, off, action });
            }
        }
    }
    ops
}

/// The kernel a symbol sequence spells, and the loads' output stores.
fn build(ops: &[MemOp]) -> Kernel {
    let mut b = IrBuilder::new("memory_family");
    let tid = b.tid();
    let one = b.iconst(1);
    let tid1 = b.add(tid, one);
    let zero = b.iconst(0);
    let seven = b.iconst(7);
    let mut loads: Vec<ValueId> = Vec::new();
    for op in ops {
        let base = match op.base {
            Base::Tid => tid,
            Base::TidPlusOne => tid1,
            Base::Zero => zero,
        };
        let value = match op.action {
            Action::StoreTid => tid,
            Action::StoreSeven => seven,
            Action::StoreLastLoad => loads.last().copied().unwrap_or(tid1),
            Action::Load => {
                loads.push(b.load(base, op.off));
                continue;
            }
        };
        b.store(base, op.off, value);
    }
    for (i, &v) in loads.iter().enumerate() {
        b.store(tid, OUT + 16 * i as u32, v);
    }
    b.finish()
}

/// One program's listing, for a failure message.
fn describe(ops: &[MemOp]) -> String {
    let mut s = String::new();
    for op in ops {
        let _ = write!(s, "{:?}[{:?}+{}]; ", op.action, op.base, op.off);
    }
    s
}

#[test]
fn every_small_memory_program_agrees_between_o0_and_o2() {
    let config = ProcessorConfig::small()
        .with_threads(THREADS)
        .with_shared_words(WORDS);
    let image: Vec<u32> = (0..WORDS as u32).map(|w| 0x1000 + 3 * w).collect();
    let mut cpu = Processor::new(config.clone()).unwrap();
    let mut run = |kernel: &Kernel, opt| {
        let compiled = compile(kernel, &config, opt).unwrap();
        cpu.reset_seeded(&image).unwrap();
        cpu.load_program(&compiled.program).unwrap();
        cpu.run(RunOptions::default()).unwrap();
        let forwarded = compiled
            .report
            .passes
            .iter()
            .any(|p| p.pass == "store-forward" && p.changed);
        (cpu.shared().as_slice().to_vec(), forwarded)
    };

    let alphabet = alphabet();
    let n = alphabet.len();
    let (mut programs, mut forwarding, mut divergences) = (0usize, 0usize, Vec::new());
    for len in 1..=3u32 {
        for index in 0..n.pow(len) {
            let ops: Vec<MemOp> = (0..len)
                .map(|i| alphabet[index / n.pow(len - 1 - i) % n])
                .collect();
            let kernel = build(&ops);
            let (o0, _) = run(&kernel, OptLevel::None);
            let (o2, forwarded) = run(&kernel, OptLevel::Full);
            programs += 1;
            forwarding += forwarded as usize;
            if o0 != o2 {
                let w = o0.iter().zip(&o2).position(|(a, b)| a != b).unwrap();
                divergences.push(format!(
                    "{}shared[{w}]: O0 {:#x}, O2 {:#x}",
                    describe(&ops),
                    o0[w],
                    o2[w]
                ));
            }
        }
    }
    assert_eq!(programs, 47_988);
    assert!(
        divergences.is_empty(),
        "{} of {programs} programs diverge; the first (smallest):\n{}",
        divergences.len(),
        divergences[..divergences.len().min(5)].join("\n")
    );
    assert!(forwarding > 0, "store-forward never fired");
}
