//! Property tests over random programs: the functional and
//! cycle-accurate modes are observationally identical (on narrow and
//! wide thread blocks), and the clock roll-up always matches the §3.1
//! counter formulas.

use proptest::prelude::*;
use simt_core::{InstructionTiming, Processor, ProcessorConfig, RunOptions};
use simt_isa::{CycleClass, Instruction, Opcode, Program};

/// Opcodes safe for random straight-line programs (no control flow, no
/// predicates — those are exercised deterministically elsewhere).
const SAFE_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::Min,
    Opcode::Max,
    Opcode::Abs,
    Opcode::Neg,
    Opcode::Sad,
    Opcode::MulLo,
    Opcode::MulHi,
    Opcode::MuluHi,
    Opcode::MadLo,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Not,
    Opcode::Cnot,
    Opcode::Popc,
    Opcode::Clz,
    Opcode::Brev,
    Opcode::Shl,
    Opcode::Lsr,
    Opcode::Asr,
    Opcode::SatAdd,
    Opcode::SatSub,
    Opcode::Mov,
    Opcode::Stid,
    Opcode::Sntid,
];

const REGS: u8 = 8;
const MEM_WORDS: usize = 4096;

fn arb_safe_instr() -> impl Strategy<Value = Instruction> {
    (
        0..SAFE_OPS.len(),
        any::<[u8; 4]>(),
        any::<u32>(),
        0u8..8,
        any::<bool>(),
    )
        .prop_map(|(op, regs, imm, scale, scaled)| {
            let opcode = SAFE_OPS[op];
            // r0 is reserved: it holds the thread id used as the memory
            // base, so random ops must not clobber it.
            let mut i = Instruction::new(opcode)
                .rd(1 + regs[0] % (REGS - 1))
                .ra(regs[1] % REGS)
                .rb(regs[2] % REGS)
                .rc(regs[3] % REGS);
            if opcode.imm_form() == simt_isa::ImmForm::Imm32 {
                i = i.imm(imm);
            }
            if scaled {
                i = i.scaled(scale);
            }
            i
        })
}

/// A random program: a mix of safe ALU ops plus occasional in-bounds
/// loads/stores keyed off the thread id, ending in `exit`.
fn arb_program(threads: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec((arb_safe_instr(), 0u8..10, any::<u16>()), 1..30).prop_map(
        move |items| {
            let mut v: Vec<Instruction> = vec![Instruction::new(Opcode::Stid).rd(0)];
            for (instr, kind, off) in items {
                // In-bounds offset: tid < threads <= 1024, so base reg r0
                // (tid) + off stays inside MEM_WORDS.
                let off = (off as usize % (MEM_WORDS - threads)) as u32;
                match kind {
                    0 => v.push(Instruction::new(Opcode::Lds).rd(1).ra(0).imm(off)),
                    1 => v.push(Instruction::new(Opcode::Sts).ra(0).rb(2).imm(off)),
                    _ => v.push(instr),
                }
            }
            v.push(Instruction::new(Opcode::Exit));
            Program::from_instructions(v)
        },
    )
}

fn run_with(
    program: &Program,
    threads: usize,
    opts: RunOptions,
) -> (simt_core::ExecStats, Vec<u32>, Vec<u32>) {
    let cfg = ProcessorConfig::default()
        .with_threads(threads)
        .with_regs_per_thread(REGS as usize)
        .with_shared_words(MEM_WORDS);
    let mut cpu = Processor::new(cfg).unwrap();
    let seed_mem: Vec<u32> = (0..MEM_WORDS as u32)
        .map(|i| i.wrapping_mul(2654435761))
        .collect();
    cpu.shared_mut().load_words(0, &seed_mem).unwrap();
    cpu.load_program(program).unwrap();
    let stats = cpu.run(opts).unwrap();
    let mem = cpu.shared().as_slice().to_vec();
    let r2: Vec<u32> = cpu.regfile().gather(2);
    (stats, mem, r2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn modes_agree(program in arb_program(96), threads in 1usize..=96) {
        let a = run_with(&program, threads, RunOptions::default());
        let b = run_with(&program, threads, RunOptions::cycle_accurate());
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
        prop_assert_eq!(&a.2, &b.2);
    }

    #[test]
    fn stage_replay_agrees_with_accounting(program in arb_program(64), threads in 1usize..=64) {
        // The clock-granular stage-register model and the closed-form
        // accounting must derive the same total on any program.
        let cfg = ProcessorConfig::default()
            .with_threads(threads)
            .with_regs_per_thread(REGS as usize)
            .with_shared_words(MEM_WORDS);
        let mut cpu = Processor::new(cfg).unwrap();
        cpu.load_program(&program).unwrap();
        let (stats, log) = simt_core::run_and_replay(&mut cpu, RunOptions::default()).unwrap();
        prop_assert_eq!(log.cycles(), stats.cycles);
        prop_assert_eq!(log.fill_cycles(), stats.fill_cycles);
        prop_assert_eq!(log.flush_cycles(), stats.branch_flush_cycles);
        prop_assert_eq!(log.issued, stats.instructions);
        prop_assert_eq!(log.loop_backedges, stats.loop_backedges);
    }

    /// `modes_agree` on a wide block (512 threads, 32 rows).
    #[test]
    fn modes_agree_wide_block(program in arb_program(512)) {
        let a = run_with(&program, 512, RunOptions::default());
        let b = run_with(&program, 512, RunOptions::cycle_accurate());
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
        prop_assert_eq!(&a.2, &b.2);
    }

    #[test]
    fn clock_rollup_matches_formulas(program in arb_program(200), threads in 1usize..=200) {
        let (stats, _, _) = run_with(&program, threads, RunOptions::default());
        prop_assert!(stats.buckets_consistent());
        // Recompute the roll-up from the instruction stream.
        let mut want = simt_core::FETCH_PIPELINE_DEPTH;
        for i in program.instructions() {
            let active = InstructionTiming::scaled_threads(threads, i.scale);
            want += InstructionTiming::cycles(i.opcode.cycle_class(), active);
        }
        prop_assert_eq!(stats.cycles, want);
    }

    #[test]
    fn cycle_formula_monotone_in_threads(t1 in 1usize..=4096, t2 in 1usize..=4096) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        for class in [CycleClass::Operation, CycleClass::Load, CycleClass::Store] {
            prop_assert!(
                InstructionTiming::cycles(class, lo) <= InstructionTiming::cycles(class, hi),
                "{class:?} {lo} {hi}"
            );
        }
    }

    #[test]
    fn store_never_cheaper_than_load(t in 1usize..=4096) {
        // 1W vs 4R: the write mux can never beat the read muxes.
        prop_assert!(
            InstructionTiming::cycles(CycleClass::Store, t)
                >= InstructionTiming::cycles(CycleClass::Load, t)
        );
    }

    #[test]
    fn dynamic_scaling_never_increases_cycles(t in 1usize..=4096, k in 0u8..8) {
        let scaled = InstructionTiming::scaled_threads(t, Some(k));
        for class in [CycleClass::Operation, CycleClass::Load, CycleClass::Store] {
            prop_assert!(
                InstructionTiming::cycles(class, scaled)
                    <= InstructionTiming::cycles(class, t)
            );
        }
    }

    #[test]
    fn stepped_counter_equals_closed_form(t in 1usize..=4096) {
        for class in [
            CycleClass::Operation,
            CycleClass::Load,
            CycleClass::Store,
            CycleClass::SingleCycle,
        ] {
            let stepped = simt_core::PipelineControl::start(class, t).run_to_end();
            prop_assert_eq!(stepped, InstructionTiming::cycles(class, t));
        }
    }
}
