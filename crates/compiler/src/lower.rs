//! Lowering: instruction selection and emission of a
//! [`simt_isa::Program`] through the existing [`KernelBuilder`].
//!
//! Selection folds constant operands into the ISA's immediate forms
//! (`addi`, `muli`, `shli`, …) so constants that only feed immediate
//! positions never materialize; everything else gets a register from
//! the linear-scan allocator and a register-register instruction.
//! Hardware-loop regions lower onto [`KernelBuilder::begin_loop`] /
//! [`KernelBuilder::end_loop`], which patch the zero-overhead `loop`
//! instruction's end address.

use crate::error::CompileError;
use crate::ir::{BinOp, Inst, Kernel, Op, Ty, UnOp, ValueId};
use crate::passes::{optimize, PipelineReport};
use crate::regalloc::{allocate, linearize, Allocation};
use simt_core::ProcessorConfig;
use simt_isa::{Instruction, KernelBuilder, Opcode, Program};

/// How hard to optimize before emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Straight lowering of the IR as written (the baseline the pass
    /// pipeline is measured against).
    None,
    /// The full pipeline, [`crate::passes::optimize`]: constant
    /// folding, strength reduction, LICM, CSE, store-to-load forwarding,
    /// `mad` fusion and DCE iterated to a fixpoint.
    Full,
}

/// A compiled kernel: the program plus what the pipeline did to get it.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The emitted program, ready to load into I-Mem.
    pub program: Program,
    /// Per-pass instruction-count statistics (empty at
    /// [`OptLevel::None`]).
    pub report: PipelineReport,
    /// General-purpose registers the kernel occupies (including the
    /// reserved r0) — the floor for `regs_per_thread`.
    pub regs_used: usize,
    /// Per-PC source attribution: for each emitted instruction, the
    /// IR value id it was lowered from (loop entry/back-edge copies
    /// and the loop instruction itself charge to the loop's value;
    /// the final `exit` is `None`). Always exactly one entry per
    /// program instruction, so a per-PC execution profile indexes it
    /// directly.
    pub source_map: Vec<Option<u32>>,
}

/// Compile an IR kernel for a processor configuration.
pub fn compile(
    kernel: &Kernel,
    config: &ProcessorConfig,
    opt: OptLevel,
) -> Result<CompiledKernel, CompileError> {
    config.validate()?;
    kernel.validated()?;
    let depth = kernel.loop_depth();
    if depth > config.loop_stack_depth {
        return Err(CompileError::LoopTooDeep {
            depth,
            limit: config.loop_stack_depth,
        });
    }
    let mut k = kernel.clone();
    let report = match opt {
        OptLevel::Full => optimize(&mut k),
        OptLevel::None => PipelineReport {
            insts_before: k.live_insts(),
            insts_after: k.live_insts(),
            ..Default::default()
        },
    };
    debug_assert!(k.validate().is_ok(), "passes broke the IR:\n{k}");

    let lin = linearize(&k);
    let alloc = allocate(
        &k,
        &lin,
        &select_materialized(&k),
        config.regs_per_thread,
        config.predicates,
    )?;

    let mut b = KernelBuilder::new();
    let mut source_map = Vec::new();
    emit_region(&k, k.body(), &mut b, &alloc, &mut source_map)?;
    b.exit();
    source_map.push(None);
    let program = b.build()?;
    debug_assert_eq!(
        source_map.len(),
        program.len(),
        "source map out of lockstep with emission"
    );
    if program.len() > config.imem_capacity {
        return Err(CompileError::ProgramTooLarge {
            len: program.len(),
            capacity: config.imem_capacity,
        });
    }
    Ok(CompiledKernel {
        program,
        report,
        regs_used: alloc.regs_used.max(1),
        source_map,
    })
}

/// Which operand (if a constant) folds into the instruction's immediate
/// field. Commutative ops accept the constant on either side; shifts
/// only on the right, and only when the amount fits the 16-bit field.
fn inline_slot(k: &Kernel, inst: &Inst) -> Option<usize> {
    let Op::Bin(b) = inst.op else { return None };
    let c0 = k.as_const(inst.args[0]);
    let c1 = k.as_const(inst.args[1]);
    match b {
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
            if c1.is_some() {
                Some(1)
            } else if c0.is_some() {
                Some(0)
            } else {
                None
            }
        }
        BinOp::Sub => c1.map(|_| 1),
        BinOp::Shl | BinOp::Lsr | BinOp::Asr => match c1 {
            Some(c) if (0..=0xFFFF).contains(&(c as i64)) => Some(1),
            _ => None,
        },
        _ => None,
    }
}

/// Constants that must be materialized with `movi` (some use is not an
/// immediate position), plus every non-constant word value. Carried
/// values are read by the back-edge copies, so constants referenced by
/// a carried list need a register too. A list, not a set: a constant
/// appears once per use that needs it, and the allocator — which gives
/// a register to exactly the word values named here — does not care.
fn select_materialized(k: &Kernel) -> Vec<ValueId> {
    let mut mat = Vec::new();
    k.for_each_inst(|v, inst| {
        if inst.op.ty() == Ty::Word && !matches!(inst.op, Op::Const(_)) {
            mat.push(v);
        }
        let slot = inline_slot(k, inst);
        for (i, &a) in inst.args.iter().enumerate() {
            if k.as_const(a).is_some() && slot != Some(i) {
                mat.push(a);
            }
        }
        if let Some(cs) = &inst.carried {
            for &c in cs {
                if k.as_const(c).is_some() {
                    mat.push(c);
                }
            }
        }
    });
    mat
}

/// True if lowering the region would emit at least one instruction
/// (loops around nothing are skipped — the builder rejects empty loop
/// bodies, and the hardware has nothing to repeat). A constant emits
/// its `movi` exactly when the allocator gave it a register.
fn region_emits(k: &Kernel, region: &[ValueId], alloc: &Allocation) -> bool {
    region.iter().any(|&v| {
        let inst = k.inst(v);
        match &inst.op {
            Op::Const(_) => alloc.reg.get(v).is_some(),
            // Params and results are register names, not instructions;
            // a loop with carried values still emits its back-edge
            // copies, which `emit_region` accounts for separately.
            Op::Param(_) | Op::Result(_) => false,
            Op::Loop(_) => inst
                .body
                .as_ref()
                .is_some_and(|body| region_emits(k, body, alloc)),
            _ => true,
        }
    })
}

/// Order a parallel-copy set (`dst ← src`, all conceptually
/// simultaneous) into sequential `mov`s: self-copies drop, a copy whose
/// destination no other pending copy still reads goes next, and a
/// cyclic permutation is broken by parking one destination's old value
/// in the loop's scratch register (reserved by the allocator exactly
/// when a cycle exists).
fn sequence_copies(
    pairs: Vec<(u8, u8)>,
    scratch: Option<u8>,
    loop_v: ValueId,
) -> Result<Vec<(u8, u8)>, CompileError> {
    let mut pending: Vec<(u8, u8)> = pairs.into_iter().filter(|(d, s)| d != s).collect();
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        if let Some(i) = pending
            .iter()
            .position(|&(d, _)| !pending.iter().any(|&(_, s)| s == d))
        {
            out.push(pending.remove(i));
        } else {
            // Every destination is still read by another copy: a cycle.
            let t = scratch.ok_or(CompileError::Malformed {
                value: loop_v.0,
                detail: "cyclic copy set without a scratch register".into(),
            })?;
            let (d, _) = pending[0];
            out.push((t, d)); // park d's old value
            for p in pending.iter_mut() {
                if p.1 == d {
                    p.1 = t;
                }
            }
        }
    }
    Ok(out)
}

fn emit_region(
    k: &Kernel,
    region: &[ValueId],
    b: &mut KernelBuilder,
    alloc: &Allocation,
    src: &mut Vec<Option<u32>>,
) -> Result<(), CompileError> {
    for &v in region {
        let inst = k.inst(v);
        if let Op::Loop(count) = inst.op {
            let body = inst.body.as_ref().expect("validated loop body");
            let params = k.loop_params(v);
            let scratch = alloc.loop_scratch.get(v);

            // Entry copies: parameter registers take their initial
            // values. Coalesced slots vanish (dst == src); the rest run
            // as a sequenced parallel-copy set before the loop opens —
            // they are needed even if the loop body emits nothing (the
            // results still read the parameter registers).
            let entry: Vec<(u8, u8)> = params
                .iter()
                .zip(&inst.args)
                .map(|(&p, &init)| Ok((reg(alloc, p)?, reg(alloc, init)?)))
                .collect::<Result<_, CompileError>>()?;
            for (d, s) in sequence_copies(entry, scratch, v)? {
                b.emit_instruction(Instruction::new(Opcode::Mov).rd(d).ra(s));
                src.push(Some(v.index() as u32));
            }

            // Back-edge copies: non-coalesced carried slots rotate into
            // the parameter registers at the end of every iteration.
            let carried = inst.carried.as_deref().unwrap_or(&[]);
            let back: Vec<(u8, u8)> = params
                .iter()
                .zip(carried)
                .map(|(&p, &c)| Ok((reg(alloc, p)?, reg(alloc, c)?)))
                .collect::<Result<_, CompileError>>()?;
            let back = sequence_copies(back, scratch, v)?;

            if !region_emits(k, body, alloc) && back.is_empty() {
                // Nothing repeats: the parameters keep their entry
                // values, which is exactly the final state.
                continue;
            }
            let open = b.begin_loop(count);
            src.push(Some(v.index() as u32));
            emit_region(k, body, b, alloc, src)?;
            for (d, s) in back {
                b.emit_instruction(Instruction::new(Opcode::Mov).rd(d).ra(s));
                src.push(Some(v.index() as u32));
            }
            b.end_loop(open);
            continue;
        }
        if let Some(mi) = build_instruction(k, v, alloc)? {
            b.emit_instruction(mi);
            src.push(Some(v.index() as u32));
        }
    }
    Ok(())
}

fn reg(alloc: &Allocation, v: ValueId) -> Result<u8, CompileError> {
    alloc.reg.get(v).ok_or_else(|| CompileError::Malformed {
        value: v.index() as u32,
        detail: "value reached emission without a register".into(),
    })
}

fn pred(alloc: &Allocation, v: ValueId) -> Result<u8, CompileError> {
    alloc.pred.get(v).ok_or_else(|| CompileError::Malformed {
        value: v.index() as u32,
        detail: "predicate reached emission without a register".into(),
    })
}

pub(crate) fn bin_opcode(b: BinOp) -> Opcode {
    match b {
        BinOp::Add => Opcode::Add,
        BinOp::Sub => Opcode::Sub,
        BinOp::Mul => Opcode::MulLo,
        BinOp::MulHi => Opcode::MulHi,
        BinOp::MulUHi => Opcode::MuluHi,
        BinOp::Min => Opcode::Min,
        BinOp::Max => Opcode::Max,
        BinOp::And => Opcode::And,
        BinOp::Or => Opcode::Or,
        BinOp::Xor => Opcode::Xor,
        BinOp::Shl => Opcode::Shl,
        BinOp::Lsr => Opcode::Lsr,
        BinOp::Asr => Opcode::Asr,
        BinOp::SatAdd => Opcode::SatAdd,
        BinOp::SatSub => Opcode::SatSub,
    }
}

fn bin_imm_opcode(b: BinOp) -> Opcode {
    match b {
        BinOp::Add => Opcode::Addi,
        BinOp::Sub => Opcode::Subi,
        BinOp::Mul => Opcode::Muli,
        BinOp::And => Opcode::Andi,
        BinOp::Or => Opcode::Ori,
        BinOp::Xor => Opcode::Xori,
        BinOp::Shl => Opcode::Shli,
        BinOp::Lsr => Opcode::Lsri,
        BinOp::Asr => Opcode::Asri,
        _ => unreachable!("{b:?} has no immediate form"),
    }
}

pub(crate) fn un_opcode(u: UnOp) -> Opcode {
    match u {
        UnOp::Abs => Opcode::Abs,
        UnOp::Neg => Opcode::Neg,
        UnOp::Not => Opcode::Not,
        UnOp::Cnot => Opcode::Cnot,
        UnOp::Popc => Opcode::Popc,
        UnOp::Clz => Opcode::Clz,
        UnOp::Brev => Opcode::Brev,
    }
}

fn cmp_opcode(c: crate::ir::CmpOp) -> Opcode {
    use crate::ir::CmpOp::*;
    match c {
        Eq => Opcode::SetpEq,
        Ne => Opcode::SetpNe,
        Lt => Opcode::SetpLt,
        Le => Opcode::SetpLe,
        Gt => Opcode::SetpGt,
        Ge => Opcode::SetpGe,
        Ltu => Opcode::SetpLtu,
        Geu => Opcode::SetpGeu,
    }
}

/// Select and build the machine instruction for one IR instruction
/// (`None` for constants that live purely in immediate fields).
fn build_instruction(
    k: &Kernel,
    v: ValueId,
    alloc: &Allocation,
) -> Result<Option<Instruction>, CompileError> {
    let inst = k.inst(v);
    let args = &inst.args;
    let mut mi = match &inst.op {
        // Params and results are names for registers the allocator has
        // already placed; they emit nothing themselves.
        Op::Param(_) | Op::Result(_) => return Ok(None),
        Op::Const(c) => match alloc.reg.get(v) {
            Some(r) => Instruction::new(Opcode::Movi).rd(r).imm(*c as u32),
            None => return Ok(None),
        },
        Op::Tid => Instruction::new(Opcode::Stid).rd(reg(alloc, v)?),
        Op::Ntid => Instruction::new(Opcode::Sntid).rd(reg(alloc, v)?),
        Op::Bin(b) => match inline_slot(k, inst) {
            Some(slot) => {
                let c = k.as_const(args[slot]).expect("inline slot is a constant");
                let other = args[1 - slot];
                Instruction::new(bin_imm_opcode(*b))
                    .rd(reg(alloc, v)?)
                    .ra(reg(alloc, other)?)
                    .imm(c as u32)
            }
            None => Instruction::new(bin_opcode(*b))
                .rd(reg(alloc, v)?)
                .ra(reg(alloc, args[0])?)
                .rb(reg(alloc, args[1])?),
        },
        Op::Un(u) => Instruction::new(un_opcode(*u))
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?),
        Op::Mad => Instruction::new(Opcode::MadLo)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?)
            .rc(reg(alloc, args[2])?),
        Op::MulShr(s) => Instruction::new(Opcode::MulShr)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?)
            .imm(s & 63),
        Op::ShAdd(s) => Instruction::new(Opcode::ShAdd)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?)
            .imm(s & 31),
        Op::Rotr(s) => Instruction::new(Opcode::Rotri)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .imm(s & 0xFFFF),
        Op::Cmp(c) => Instruction::new(cmp_opcode(*c))
            .rd(pred(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?),
        Op::Select => Instruction::new(Opcode::Selp)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?)
            .rc(pred(alloc, args[2])?),
        Op::Load(off) => Instruction::new(Opcode::Lds)
            .rd(reg(alloc, v)?)
            .ra(reg(alloc, args[0])?)
            .imm(off & 0xFFFF),
        Op::Store(off) => Instruction::new(Opcode::Sts)
            .ra(reg(alloc, args[0])?)
            .rb(reg(alloc, args[1])?)
            .imm(off & 0xFFFF),
        Op::Loop(_) => unreachable!("loops are emitted by emit_region"),
    };
    if let Some(s) = inst.scale {
        mi = mi.scaled(s);
    }
    if let Some(g) = inst.guard {
        mi = mi.guarded(pred(alloc, g.pred)?, g.negate);
    }
    Ok(Some(mi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrBuilder;
    use simt_isa::disassemble;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::default()
            .with_threads(64)
            .with_shared_words(1024)
    }

    /// The doc-example kernel: shared[tid+64] = 3*shared[tid] + 7.
    fn scale_bias() -> Kernel {
        let mut b = IrBuilder::new("scale_bias");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c3 = b.iconst(3);
        let x3 = b.mul(x, c3);
        let c7 = b.iconst(7);
        let y = b.add(x3, c7);
        b.store(tid, 64, y);
        b.finish()
    }

    #[test]
    fn lowering_reproduces_the_handwritten_program() {
        // Same shape as the hand-written kernel, except the allocator
        // reuses the load's register once its range ends (r2 for the
        // final sum instead of a fresh r4).
        let out = compile(&scale_bias(), &cfg(), OptLevel::Full).unwrap();
        let expected = simt_isa::assemble(
            "  stid r1
               lds r2, [r1+0]
               muli r3, r2, 3
               addi r2, r3, 7
               sts [r1+64], r2
               exit",
        )
        .unwrap();
        assert_eq!(
            out.program.instructions(),
            expected.instructions(),
            "\n{}",
            disassemble(&out.program)
        );
        assert_eq!(out.regs_used, 4);
    }

    #[test]
    fn source_map_stays_in_lockstep_with_emission() {
        // One entry per emitted instruction, everything attributed
        // except the trailing exit — including loop-carried kernels,
        // whose entry/back-edge copies charge to the loop value.
        let mut b = IrBuilder::new("mapped");
        let tid = b.tid();
        let zero = b.iconst(0);
        let acc = b.begin_loop_carried(5, &[zero]);
        let x = b.load(tid, 0);
        let s = b.add(acc[0], x);
        let res = b.end_loop_carried(&[s]);
        b.store(tid, 64, res[0]);
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let out = compile(&k, &cfg(), opt).unwrap();
            assert_eq!(out.source_map.len(), out.program.len());
            let (last, body) = out.source_map.split_last().unwrap();
            assert_eq!(*last, None, "exit carries no source value");
            assert!(
                body.iter().all(|s| s.is_some()),
                "every non-exit PC is attributed: {:?}",
                out.source_map
            );
        }
    }

    #[test]
    fn optimized_is_never_larger_than_naive() {
        let k = scale_bias();
        let naive = compile(&k, &cfg(), OptLevel::None).unwrap();
        let full = compile(&k, &cfg(), OptLevel::Full).unwrap();
        assert!(full.program.len() <= naive.program.len());
    }

    #[test]
    fn strength_reduced_mul_emits_shli() {
        let mut b = IrBuilder::new("by16");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(16);
        let y = b.mul(x, c);
        b.store(tid, 64, y);
        let k = b.finish();
        let full = compile(&k, &cfg(), OptLevel::Full).unwrap();
        let ops: Vec<Opcode> = full
            .program
            .instructions()
            .iter()
            .map(|i| i.opcode)
            .collect();
        assert!(ops.contains(&Opcode::Shli), "{ops:?}");
        assert!(!ops.contains(&Opcode::Muli), "{ops:?}");
        // The naive build multiplies.
        let naive = compile(&k, &cfg(), OptLevel::None).unwrap();
        let nops: Vec<Opcode> = naive
            .program
            .instructions()
            .iter()
            .map(|i| i.opcode)
            .collect();
        assert!(nops.contains(&Opcode::Muli), "{nops:?}");
    }

    #[test]
    fn loops_lower_to_hardware_loops() {
        let mut b = IrBuilder::new("looped");
        let tid = b.tid();
        b.begin_loop(6);
        let x = b.load(tid, 0);
        let one = b.iconst(1);
        let y = b.add(x, one);
        b.store(tid, 0, y);
        b.end_loop();
        let k = b.finish();
        let out = compile(&k, &cfg(), OptLevel::Full).unwrap();
        let loops: Vec<&Instruction> = out
            .program
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::Loop)
            .collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].loop_count(), 6);
        assert!(loops[0].loop_end() > 0);
    }

    #[test]
    fn predicates_require_a_predicate_build() {
        let mut b = IrBuilder::new("clamp");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(100);
        let p = b.cmp(crate::ir::CmpOp::Lt, x, c);
        let y = b.select(x, c, p);
        b.store(tid, 64, y);
        let k = b.finish();
        assert_eq!(
            compile(&k, &cfg(), OptLevel::Full).unwrap_err(),
            CompileError::PredicatesDisabled
        );
        let out = compile(&k, &cfg().with_predicates(true), OptLevel::Full).unwrap();
        assert!(out
            .program
            .instructions()
            .iter()
            .any(|i| i.opcode == Opcode::Selp));
    }

    #[test]
    fn register_pressure_errors_are_typed() {
        let mut b = IrBuilder::new("wide");
        let tid = b.tid();
        let vals: Vec<_> = (0..30).map(|i| b.load(tid, i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add(acc, v);
        }
        b.store(tid, 0, acc);
        let k = b.finish();
        let tight = cfg().with_regs_per_thread(8);
        assert_eq!(
            compile(&k, &tight, OptLevel::Full).unwrap_err(),
            CompileError::OutOfRegisters {
                needed: 8,
                available: 7
            }
        );
        // A roomier file compiles the same kernel.
        assert!(compile(&k, &cfg().with_regs_per_thread(64), OptLevel::Full).is_ok());
    }

    fn run_words(
        k: &Kernel,
        cfg: &ProcessorConfig,
        opt: OptLevel,
        out_off: usize,
        out_len: usize,
    ) -> Vec<u32> {
        let compiled = compile(k, cfg, opt).unwrap();
        let mut cpu = simt_core::Processor::new(cfg.clone()).unwrap();
        cpu.load_program(&compiled.program).unwrap();
        cpu.run(simt_core::RunOptions::default()).unwrap();
        cpu.shared().read_words(out_off, out_len).unwrap()
    }

    #[test]
    fn carried_accumulator_lowers_without_backedge_copies() {
        // Σ_{i<8} shared[tid]: the accumulator must live in ONE register
        // updated in place — no `mov` anywhere in the program.
        let mut b = IrBuilder::new("acc");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(8, &[zero]);
        let x = b.load(tid, 0);
        let next = b.add(p[0], x);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let k = b.finish();
        let out = compile(&k, &cfg(), OptLevel::Full).unwrap();
        let movs = out
            .program
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::Mov)
            .count();
        assert_eq!(movs, 0, "\n{}", disassemble(&out.program));
        // And it computes 8 * shared[tid] = 0 bit-exactly on the core
        // (shared memory starts zeroed, so seed via the accumulator).
        let words = run_words(&k, &cfg(), OptLevel::Full, 64, 4);
        assert_eq!(words, vec![0; 4]);
    }

    #[test]
    fn state_rotation_emits_ordered_backedge_movs() {
        // y[i] = x[i-1] (a one-sample delay line): carried chain
        // x1' = x0, x2' = x1 — the x2 copy must read x1 *before* the
        // x1 copy overwrites it, exactly the hand-written `mov` order.
        let mut b = IrBuilder::new("delay");
        let tid = b.tid();
        let z0 = b.iconst(0);
        let p = b.begin_loop_carried(4, &[z0, z0]);
        let x0 = b.load(tid, 0);
        b.store(tid, 64, p[0]); // previous iteration's sample
        b.store(tid, 128, p[1]); // the sample before that
        let _ = b.end_loop_carried(&[x0, p[0]]);
        b.store(tid, 192, tid);
        let k = b.finish();
        let out = compile(&k, &cfg(), OptLevel::Full).unwrap();
        let asm = disassemble(&out.program);
        // One entry copy (both params share the zero init) plus the two
        // back-edge rotation movs.
        let movs: Vec<&Instruction> = out
            .program
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::Mov)
            .collect();
        assert_eq!(movs.len(), 3, "entry copy + two back-edge movs\n{asm}");
        // The back-edge chain must run oldest-first: x2 <- x1, then
        // x1 <- x0.
        let back = &movs[1..];
        assert_eq!(back[0].ra, back[1].rd, "rotation order\n{asm}");
    }

    #[test]
    fn swap_loops_sequence_through_the_scratch_register() {
        // carried = [p1, p0] over 3 iterations starting from (1, 2):
        // an odd number of swaps lands on (2, 1).
        let mut b = IrBuilder::new("swap");
        let tid = b.tid();
        let a0 = b.iconst(1);
        let b0 = b.iconst(2);
        let p = b.begin_loop_carried(3, &[a0, b0]);
        b.store(tid, 0, p[0]);
        let r = b.end_loop_carried(&[p[1], p[0]]);
        b.store(tid, 64, r[0]);
        b.store(tid, 128, r[1]);
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let words = run_words(&k, &cfg(), opt, 64, 1);
            assert_eq!(words[0], 2, "{opt:?}: a after 3 swaps");
            let words = run_words(&k, &cfg(), opt, 128, 1);
            assert_eq!(words[0], 1, "{opt:?}: b after 3 swaps");
        }
    }

    #[test]
    fn swapped_results_seeding_a_second_loop_compile_and_run() {
        // Regression: loop B seeded with loop A's results in *swapped*
        // order. A's result registers expire at B's header, and
        // without the init live-range extension the linear scan could
        // hand them to B's params crossed — turning B's entry copies
        // into a register cycle with no scratch reserved (back-edge
        // cycle detection never sees entry sets). Must compile at both
        // opt levels and compute (1+2)+2 / (2+2)+2 swapped.
        let mut b = IrBuilder::new("seed_swap");
        let tid = b.tid();
        let c1 = b.iconst(1);
        let c2 = b.iconst(2);
        let one = b.iconst(1);
        let p = b.begin_loop_carried(2, &[c1, c2]);
        let a2 = b.add(p[0], one);
        let b2 = b.add(p[1], one);
        let r = b.end_loop_carried(&[a2, b2]);
        let q = b.begin_loop_carried(2, &[r[1], r[0]]); // swapped seeds
        let qa = b.add(q[0], one);
        let qb = b.add(q[1], one);
        let s = b.end_loop_carried(&[qa, qb]);
        b.store(tid, 64, s[0]);
        b.store(tid, 128, s[1]);
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let a = run_words(&k, &cfg(), opt, 64, 1)[0];
            let bb = run_words(&k, &cfg(), opt, 128, 1)[0];
            assert_eq!((a, bb), (6, 5), "{opt:?}");
        }
    }

    #[test]
    fn reentered_carried_loop_does_not_clobber_its_init() {
        // Fuzzer regression (simt-fuzzgen seed 100): a carried loop
        // nested in an outer loop coalesced its parameter with the
        // init (const 3), eliding the entry copy. The back edge then
        // wrote the carried value (-ntid) into the shared register, and
        // the *second* outer iteration's store read the clobber
        // instead of 3. The init must keep its own register whenever
        // an enclosing loop re-enters the carried loop without
        // re-defining it.
        let mut b = IrBuilder::new("reentry_keeps_init");
        let tid = b.tid();
        let ntid = b.ntid();
        let c3 = b.iconst(3);
        let d = b.un(crate::ir::UnOp::Neg, ntid); // any value != 3
        b.begin_loop(2); // outer
        b.store(tid, 64, c3); // re-reads c3 every outer iteration
        let _p = b.begin_loop_carried(1, &[c3]);
        let r = b.end_loop_carried(&[d]);
        b.store(tid, 192, r[0]); // keep the inner loop live
        b.end_loop();
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let words = run_words(&k, &cfg(), opt, 64, 4);
            assert_eq!(words, vec![3; 4], "{opt:?}: init clobbered");
        }
    }

    #[test]
    fn outer_param_survives_nested_loop_returning_it() {
        // Fuzzer regression (simt-fuzzgen seed 451): outer carried
        // value = a nested loop's result. Result-to-parameter joins ran
        // lazily per loop, so when the outer loop's carried check asked
        // "is the inner result already a parameter class?" the answer
        // was a stale no — and the outer parameter was coalesced
        // straight into the inner parameter's class. The inner entry
        // copy (param <- init 1) then clobbered the outer parameter
        // before the body read it.
        let mut b = IrBuilder::new("outer_param_vs_inner_entry");
        let tid = b.tid();
        let c1 = b.iconst(1);
        let x0 = b.iconst(5);
        let q = b.begin_loop_carried(2, &[x0]); // outer, q0 = 5
        let _p = b.begin_loop_carried(1, &[c1]); // inner, seeded with 1
        b.store(tid, 64, q[0]); // outer param read inside inner body
        let r = b.end_loop_carried(&[q[0]]); // inner returns q0
        let s = b.end_loop_carried(&[r[0]]); // outer carries it back
        b.store(tid, 192, s[0]);
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let inner = run_words(&k, &cfg(), opt, 64, 4);
            assert_eq!(inner, vec![5; 4], "{opt:?}: outer param clobbered");
            let after = run_words(&k, &cfg(), opt, 192, 4);
            assert_eq!(after, vec![5; 4], "{opt:?}: carried chain broken");
        }
    }

    #[test]
    fn loop_results_read_the_final_value_after_the_loop() {
        // A walking index: idx starts at tid, adds 3 per iteration; the
        // result after 5 iterations is tid + 15.
        let mut b = IrBuilder::new("walk");
        let tid = b.tid();
        let p = b.begin_loop_carried(5, &[tid]);
        let three = b.iconst(3);
        let next = b.add(p[0], three);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let k = b.finish();
        for opt in [OptLevel::None, OptLevel::Full] {
            let words = run_words(&k, &cfg(), opt, 64, 8);
            for (t, &w) in words.iter().enumerate() {
                assert_eq!(w, t as u32 + 15, "{opt:?}: thread {t}");
            }
        }
    }

    #[test]
    fn imem_capacity_is_enforced() {
        let mut b = IrBuilder::new("big");
        let tid = b.tid();
        let mut v = b.load(tid, 0);
        for _ in 0..600 {
            v = b.add(v, tid);
            b.store(tid, 0, v);
        }
        let k = b.finish();
        match compile(&k, &cfg(), OptLevel::Full) {
            Err(CompileError::ProgramTooLarge { capacity, .. }) => assert_eq!(capacity, 512),
            other => panic!("expected ProgramTooLarge, got {other:?}"),
        }
    }
}
