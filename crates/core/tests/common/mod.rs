//! Shared random-program generators for the differential property
//! tests (`prop_decode.rs`) and the profiler determinism tests
//! (`prop_profile.rs`): random straight-line/loop/branch programs over
//! the full value-opcode surface, with guards, dynamic thread scaling
//! and thread-id-based (in-bounds) memory traffic.

use proptest::prelude::*;
use simt_core::ProcessorConfig;
use simt_isa::{Instruction, Opcode, Program};

/// Every ALU-value opcode (register writers evaluated per lane).
pub const VALUE_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::Min,
    Opcode::Max,
    Opcode::Abs,
    Opcode::Neg,
    Opcode::Sad,
    Opcode::Addi,
    Opcode::Subi,
    Opcode::MulLo,
    Opcode::MulHi,
    Opcode::MuluHi,
    Opcode::MadLo,
    Opcode::MadHi,
    Opcode::Muli,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Not,
    Opcode::Cnot,
    Opcode::Andi,
    Opcode::Ori,
    Opcode::Xori,
    Opcode::Popc,
    Opcode::Clz,
    Opcode::Brev,
    Opcode::Shl,
    Opcode::Lsr,
    Opcode::Asr,
    Opcode::Shli,
    Opcode::Lsri,
    Opcode::Asri,
    Opcode::SatAdd,
    Opcode::SatSub,
    Opcode::MulShr,
    Opcode::ShAdd,
    Opcode::Bfe,
    Opcode::Rotri,
    Opcode::Selp,
    Opcode::Mov,
    Opcode::Movi,
    Opcode::Stid,
    Opcode::Sntid,
];

/// The predicate-setting compare opcodes.
pub const SETP_OPS: &[Opcode] = &[
    Opcode::SetpEq,
    Opcode::SetpNe,
    Opcode::SetpLt,
    Opcode::SetpLe,
    Opcode::SetpGt,
    Opcode::SetpGe,
    Opcode::SetpLtu,
    Opcode::SetpGeu,
];

/// Register-file width the generated programs use.
pub const REGS: u8 = 8;
/// Shared-memory words the generated programs may touch.
pub const MEM_WORDS: usize = 4096;
/// Upper bound on the per-case thread sweep.
pub const MAX_THREADS: usize = 96;
/// Thread count of the wide-block differential case (a 32-row block)
/// — the memory-offset bound must cover it.
pub const WIDE_THREADS: usize = 512;

/// Random decoration: optional guard and optional dynamic thread scale.
fn decorate() -> impl Strategy<Value = (Option<(u8, bool)>, Option<u8>)> {
    (
        proptest::option::weighted(0.35, (0u8..4, any::<bool>())),
        proptest::option::weighted(0.25, 0u8..7),
    )
}

/// One random data instruction: value op, compare, load or store.
/// `r0` is reserved (it holds the thread id used as the memory base).
fn arb_data_instr() -> impl Strategy<Value = Instruction> {
    (
        0usize..(VALUE_OPS.len() + SETP_OPS.len() + 4),
        any::<[u8; 4]>(),
        any::<u32>(),
        decorate(),
    )
        .prop_map(|(pick, regs, imm, (guard, scale))| {
            let rd = 1 + regs[0] % (REGS - 1);
            let (ra, rb, rc) = (regs[1] % REGS, regs[2] % REGS, regs[3] % REGS);
            let mut i = if pick < VALUE_OPS.len() {
                let op = VALUE_OPS[pick];
                let mut i = Instruction::new(op).rd(rd).ra(ra).rb(rb);
                i = if op == Opcode::Selp {
                    // rc carries the steering predicate index.
                    i.rc(regs[3] % 4)
                } else {
                    i.rc(rc)
                };
                match op.imm_form() {
                    simt_isa::ImmForm::Imm32 => i.imm(imm),
                    simt_isa::ImmForm::Imm16 => i.imm(imm & 0xFFFF),
                    _ => i,
                }
            } else if pick < VALUE_OPS.len() + SETP_OPS.len() {
                // setp.* — rd carries the destination predicate index.
                Instruction::new(SETP_OPS[pick - VALUE_OPS.len()])
                    .rd(regs[0] % 4)
                    .ra(ra)
                    .rb(rb)
            } else {
                // Memory, thread-id based and in bounds: tid < threads
                // <= WIDE_THREADS, so r0 + off stays inside MEM_WORDS.
                let off = (imm as usize % (MEM_WORDS - WIDE_THREADS)) as u32;
                if pick % 2 == 0 {
                    Instruction::new(Opcode::Lds).rd(rd).ra(0).imm(off)
                } else {
                    Instruction::new(Opcode::Sts).ra(0).rb(rb).imm(off)
                }
            };
            if let Some((p, n)) = guard {
                i = i.guarded(p, n);
            }
            if let Some(k) = scale {
                i = i.scaled(k);
            }
            i
        })
}

/// A structural block of the random program.
#[derive(Debug, Clone)]
pub enum Block {
    /// Straight-line data instructions.
    Straight(Vec<Instruction>),
    /// A zero-overhead loop: `pre`, an optional nested inner loop, then
    /// `post`. `count` of 0 exercises the zero-trip skip; an entirely
    /// empty body exercises the empty-loop skip; an empty `post` with an
    /// inner loop makes both frames share an end address.
    Loop {
        /// Trip count (0 = zero-trip skip).
        count: u16,
        /// Body before the nested loop.
        pre: Vec<Instruction>,
        /// Optional nested inner loop (count, body).
        inner: Option<(u16, Vec<Instruction>)>,
        /// Body after the nested loop.
        post: Vec<Instruction>,
    },
    /// A forward branch over `body`: unconditional (`bra`) or
    /// predicated (`brp`), exercising taken-branch flushes.
    Skip {
        /// Predicate guard (`None` = unconditional `bra`).
        guard: Option<(u8, bool)>,
        /// Instructions skipped over.
        body: Vec<Instruction>,
    },
}

fn arb_block() -> impl Strategy<Value = Block> {
    let straight = proptest::collection::vec(arb_data_instr(), 1..6).prop_map(Block::Straight);
    let looped = (
        0u16..4,
        proptest::collection::vec(arb_data_instr(), 0..4),
        proptest::option::weighted(
            0.4,
            (1u16..4, proptest::collection::vec(arb_data_instr(), 1..3)),
        ),
        proptest::collection::vec(arb_data_instr(), 0..3),
    )
        .prop_map(|(count, pre, inner, post)| Block::Loop {
            count,
            pre,
            inner,
            post,
        });
    let skip = (
        proptest::option::weighted(0.5, (0u8..4, any::<bool>())),
        proptest::collection::vec(arb_data_instr(), 1..4),
    )
        .prop_map(|(guard, body)| Block::Skip { guard, body });
    prop_oneof![3 => straight, 2 => looped, 2 => skip]
}

/// Assemble the blocks into a program: `stid r0` prologue, block
/// flattening with loop end / branch target fixup, `exit` epilogue.
pub fn build_program(blocks: Vec<Block>) -> Program {
    let mut v: Vec<Instruction> = vec![Instruction::new(Opcode::Stid).rd(0)];
    for b in blocks {
        match b {
            Block::Straight(instrs) => v.extend(instrs),
            Block::Loop {
                count,
                pre,
                inner,
                post,
            } => {
                let inner_len = inner.as_ref().map_or(0, |(_, b)| 1 + b.len());
                let body_len = pre.len() + inner_len + post.len();
                let loop_pc = v.len();
                // End address: last instruction of the body (the loop's
                // own address when the body is empty — a skip).
                let end = if body_len == 0 {
                    loop_pc
                } else {
                    loop_pc + body_len
                };
                v.push(Instruction::new(Opcode::Loop).imm((count as u32) | ((end as u32) << 16)));
                v.extend(pre);
                if let Some((icount, ibody)) = inner {
                    let iend = v.len() + ibody.len();
                    v.push(
                        Instruction::new(Opcode::Loop).imm((icount as u32) | ((iend as u32) << 16)),
                    );
                    v.extend(ibody);
                }
                v.extend(post);
            }
            Block::Skip { guard, body } => {
                let target = (v.len() + 1 + body.len()) as u32;
                let br = match guard {
                    None => Instruction::new(Opcode::Bra).imm(target),
                    Some((p, n)) => Instruction::new(Opcode::Brp).imm(target).guarded(p, n),
                };
                v.push(br);
                v.extend(body);
            }
        }
    }
    v.push(Instruction::new(Opcode::Exit));
    Program::from_instructions(v)
}

/// A random program of 1–5 structural blocks.
pub fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_block(), 1..6).prop_map(build_program)
}

/// The processor configuration every differential case runs under.
pub fn config(threads: usize) -> ProcessorConfig {
    ProcessorConfig::default()
        .with_threads(threads)
        .with_regs_per_thread(REGS as usize)
        .with_shared_words(MEM_WORDS)
        .with_predicates(true)
}

/// The deterministic shared-memory seed image every case starts from.
pub fn seed_memory() -> Vec<u32> {
    (0..MEM_WORDS as u32)
        .map(|i| i.wrapping_mul(2654435761))
        .collect()
}
