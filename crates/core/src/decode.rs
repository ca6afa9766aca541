//! Predecoded µop programs — the instruction cache of the host-side
//! simulator.
//!
//! The fetch/decode machine of [`sm`](crate::sm) used to re-extract
//! every instruction field (operand indices, immediates, guard
//! predicates, loop packing, cycle class and timing) on every *dynamic*
//! instruction. A [`DecodedProgram`] does all of that once, at
//! [`Processor::load_program`](crate::Processor::load_program) time,
//! lowering each [`Instruction`] into a flat, repr-packed `Uop`:
//!
//! * operand register fields resolved to plain indices;
//! * immediates widened per [`ImmForm`](simt_isa::ImmForm) (and loop
//!   count / end address unpacked);
//! * the optional predicate guard folded into two bytes (`guard_and`,
//!   `guard_xor`) so a lane's pass test is one AND + one XOR with no
//!   `Option` branch — see `Uop::guard_passes`;
//! * `setp` destination and `selp` source predicate bits pre-shifted;
//! * the active-thread count after dynamic scaling, the block shape and
//!   the closed-form clock count pre-resolved against the processor
//!   configuration.
//!
//! A decode is specialized to one [`ProcessorConfig`] (the thread count
//! bakes into `active`/`clocks`) and is immutable, so it can be shared:
//! the compile cache keeps one per compiled artifact, a multi-core
//! `simt_system::System` hands one `Arc` to every core, and
//! [`Processor::reset`](crate::Processor::reset) keeps it alive across
//! runs. Decoding never fails, but it runs the [`validate_program`]
//! checks once and keeps their verdict with the decode, so
//! [`Processor::load_decoded`](crate::Processor::load_decoded) — every
//! launch of a cached artifact — returns it without walking the program
//! again.
//!
//! The decode also folds the program's timing: without branches, the
//! §3.1 closed form makes a run's clocks a pure function of the µops and
//! their loop nest, so [`DecodedProgram::static_stats`] holds them
//! before anything runs.

use crate::config::ProcessorConfig;
use crate::error::LoadError;
use crate::sequencer::{InstructionTiming, FETCH_PIPELINE_DEPTH};
use crate::stats::ExecStats;
use simt_isa::{CycleClass, Guard, Instruction, Opcode, Program};
use std::sync::Arc;

/// One predecoded micro-operation: an [`Instruction`] with every field
/// the inner loop needs pre-extracted, pre-widened and pre-timed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Uop {
    /// The opcode — the dense dispatch discriminant of the run loop.
    pub opcode: Opcode,
    /// Sequencer cycle-counting class.
    pub class: CycleClass,
    /// Guard test byte: a lane executes iff
    /// `(pred & guard_and) ^ guard_xor != 0`.
    pub guard_and: u8,
    /// Guard flip byte (see `guard_and`).
    pub guard_xor: u8,
    /// Pre-shifted predicate bit: `1 << dst` for `setp.*`,
    /// `1 << sel` for `selp`, 0 otherwise.
    pub pred_bit: u8,
    /// The µop writes register `rd` and also *reads* it — a live source
    /// field names the same register — so a kernel that writes `rd` in
    /// place must read that source from a copy taken first. Decided
    /// here because only the decoder knows which source fields are
    /// live: dead ones are cleared to 0 below and would compare equal
    /// to an `rd` of `r0`.
    pub rd_is_src: bool,
    /// Destination register index (0 for control flow).
    pub rd: u16,
    /// First source register index (0 where the opcode reads none —
    /// dead source fields stay clear, so every index names a real
    /// register column).
    pub ra: u16,
    /// Second source register index (0 where dead).
    pub rb: u16,
    /// Third source register index (0 where dead).
    pub rc: u16,
    /// Widened immediate: `imm32` for Imm32 forms, zero-extended
    /// `imm16` for Imm16 forms, the trip count for `loop`.
    pub imm: u32,
    /// Branch / call target; loop end address for `loop`.
    pub target: u32,
    /// Active threads after dynamic scaling.
    pub active: u32,
    /// Closed-form clocks this instruction occupies the machine.
    pub clocks: u32,
    /// Thread-block row width in lanes (memory port accounting).
    pub lanes: u16,
    /// Thread-block depth in rows (memory port accounting).
    pub depth: u16,
}

impl Uop {
    /// Lower one instruction for a processor configuration.
    fn decode(instr: &Instruction, config: &ProcessorConfig) -> Uop {
        let (guard_and, guard_xor) = match instr.guard {
            None => (0, 1),
            Some(Guard { pred, negate }) => {
                let mask = 1u8 << pred.index();
                (mask, if negate { mask } else { 0 })
            }
        };
        let pred_bit = match instr.opcode {
            Opcode::SetpEq
            | Opcode::SetpNe
            | Opcode::SetpLt
            | Opcode::SetpLe
            | Opcode::SetpGt
            | Opcode::SetpGe
            | Opcode::SetpLtu
            | Opcode::SetpGeu => 1u8 << instr.dst_pred().index(),
            Opcode::Selp => 1u8 << instr.sel_pred().index(),
            _ => 0,
        };
        let (imm, target, rd) = match instr.opcode {
            // Loop form: trip count in `imm`, end address in `target`
            // (the zero/empty-trip skip destination is derived from
            // `target` and the PC on that cold path — a u16 field
            // could not hold every address the I-Mem capacity allows).
            Opcode::Loop => (instr.loop_count(), instr.loop_end() as u32, 0),
            Opcode::Bra | Opcode::Brp | Opcode::Call => (0, instr.target() as u32, 0),
            _ => {
                let imm = match instr.imm_form() {
                    simt_isa::ImmForm::Imm32 => instr.imm32(),
                    simt_isa::ImmForm::Imm16 => instr.imm16(),
                    _ => 0,
                };
                (imm, 0, instr.rd.index() as u16)
            }
        };
        // Only the source fields validation checked are kept (`selp`'s
        // rc is a predicate index, already folded into `pred_bit`).
        let reads = instr.opcode.reg_reads();
        let src = |n: usize, r: simt_isa::Reg| if reads >= n { r.index() as u16 } else { 0 };
        let live = |n: usize, r: simt_isa::Reg| reads >= n && r == instr.rd;
        let rd_is_src = instr.opcode.writes_rd()
            && (live(1, instr.ra) || live(2, instr.rb) || live(3, instr.rc));
        let active = InstructionTiming::scaled_threads(config.threads, instr.scale);
        let class = instr.opcode.cycle_class();
        let (lanes, depth) = InstructionTiming::block_shape(active);
        Uop {
            opcode: instr.opcode,
            class,
            guard_and,
            guard_xor,
            pred_bit,
            rd_is_src,
            rd,
            ra: src(1, instr.ra),
            rb: src(2, instr.rb),
            rc: src(3, instr.rc),
            imm,
            target,
            active: active as u32,
            clocks: InstructionTiming::cycles(class, active) as u32,
            lanes: lanes as u16,
            depth: depth as u16,
        }
    }

    /// Whether a lane with predicate nibble `pred` executes this µop.
    #[inline(always)]
    pub fn guard_passes(&self, pred: u8) -> bool {
        (pred & self.guard_and) ^ self.guard_xor != 0
    }
}

/// A program lowered to flat µops for one processor configuration.
///
/// Immutable and cheap to share (`Arc<DecodedProgram>`): the runtime's
/// compile cache attaches one to every compiled artifact so repeated
/// stream launches and graph replays skip re-decoding entirely, and
/// `simt_system::System::load_all` decodes once for all cores.
#[derive(Debug)]
pub struct DecodedProgram {
    uops: Vec<Uop>,
    program: Arc<Program>,
    config: ProcessorConfig,
    /// What [`validate_program`] says of `program` under `config`.
    validity: Result<(), LoadError>,
    /// See [`DecodedProgram::footprint`].
    footprint: (usize, bool),
    /// See [`DecodedProgram::static_stats`].
    static_stats: Option<ExecStats>,
}

impl DecodedProgram {
    /// Lower `program` for `config`.
    ///
    /// Decoding never fails: an invalid program decodes to a value that
    /// carries its [`validate_program`] error, which
    /// [`Processor::load_decoded`](crate::Processor::load_decoded)
    /// returns instead of loading it.
    pub fn decode(program: Arc<Program>, config: &ProcessorConfig) -> Self {
        let uops: Vec<Uop> = program
            .instructions()
            .iter()
            .map(|i| Uop::decode(i, config))
            .collect();
        let footprint = uops.iter().fold((0, false), |(regs, preds), u| {
            let named = u.rd.max(u.ra).max(u.rb).max(u.rc) as usize + 1;
            let sets_pred = u.pred_bit != 0 && u.opcode != Opcode::Selp;
            (regs.max(named), preds | sets_pred)
        });
        DecodedProgram {
            static_stats: static_stats(&uops, config.loop_stack_depth),
            uops,
            footprint,
            validity: validate_program(&program, config),
            program,
            config: config.clone(),
        }
    }

    /// The load checks' verdict on the source program under
    /// [`DecodedProgram::config`], computed once at decode time.
    pub(crate) fn validity(&self) -> &Result<(), LoadError> {
        &self.validity
    }

    /// The register-file state a run of this program can dirty: one
    /// past the highest register index any µop names (dead fields decode
    /// to 0, so a field that names nothing counts as `r0`), and whether
    /// any µop writes a predicate. Registers are stored register-major, so the first
    /// component bounds a *prefix* of the file.
    pub(crate) fn footprint(&self) -> (usize, bool) {
        self.footprint
    }

    /// The statistics a run of this program returns, folded from the
    /// µops at decode time (the static walk): every [`ExecStats`] field
    /// but `mem`, which depends on the data and stays zero. `None`
    /// ("dynamic") when the program holds a `bra`, `brp`, `call` or
    /// `ret`, whose path depends on predicates and the call stack, or
    /// when its run cannot reach `exit` (a loop nest deeper than the
    /// loop stack, or — in an invalid program — a PC past the end).
    pub fn static_stats(&self) -> Option<ExecStats> {
        self.static_stats
    }

    /// The source program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The configuration the decode is specialized to.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Number of µops (equal to the program's instruction count).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The µop stream.
    #[inline]
    pub(crate) fn uops(&self) -> &[Uop] {
        &self.uops
    }
}

/// The static walk behind [`DecodedProgram::static_stats`]. It follows
/// the run loop's PC and loop stack, but walks each loop body once:
/// every trip of a branch-free body issues the same µops, so the body's
/// one-trip tally, times its trip count, is what the trips charge. A
/// body the run leaves early (an `exit` inside it, or a skip or a
/// nested loop that carries the PC past its end) never closes, and its
/// tally counts once. Charges its own clocks rather than sharing the
/// run loop's accounting, so the two are independent derivations.
fn static_stats(uops: &[Uop], loop_stack_depth: usize) -> Option<ExecStats> {
    // The innermost open body's one-trip tally (the run's own outside
    // any loop), and per open loop its end address, trip count and the
    // enclosing tally it interrupted.
    let mut tally = ExecStats {
        cycles: FETCH_PIPELINE_DEPTH,
        fill_cycles: FETCH_PIPELINE_DEPTH,
        ..Default::default()
    };
    let mut open: Vec<(usize, u64, ExecStats)> = Vec::new();
    // Saturating, like `merge_times`: a folded body may have saturated
    // the tally already.
    let charge = |into: &mut u64, n: u64| *into = into.saturating_add(n);
    let mut pc = 0;
    loop {
        let u = uops.get(pc)?;
        let clocks = u64::from(u.clocks);
        charge(&mut tally.instructions, 1);
        charge(&mut tally.cycles, clocks);
        charge(
            match u.class {
                CycleClass::Operation => &mut tally.op_cycles,
                CycleClass::Load => &mut tally.load_cycles,
                CycleClass::Store => &mut tally.store_cycles,
                CycleClass::SingleCycle => &mut tally.single_cycles,
            },
            clocks,
        );
        if u.class != CycleClass::SingleCycle {
            charge(&mut tally.thread_ops, u64::from(u.active));
        }
        match u.opcode {
            Opcode::Bra | Opcode::Brp | Opcode::Call | Opcode::Ret => return None,
            Opcode::Exit => break,
            Opcode::Loop if u.imm == 0 || u.target as usize <= pc => {
                // A skipped body is a taken branch: a pipeline flush.
                charge(&mut tally.branches_taken, 1);
                charge(&mut tally.branch_flush_cycles, FETCH_PIPELINE_DEPTH);
                charge(&mut tally.cycles, FETCH_PIPELINE_DEPTH);
                pc = (u.target as usize).max(pc) + 1;
                continue;
            }
            Opcode::Loop if open.len() == loop_stack_depth => return None,
            Opcode::Loop => open.push((
                u.target as usize,
                u64::from(u.imm),
                std::mem::take(&mut tally),
            )),
            _ => {}
        }
        // The end of a body: all its trips at once, then the enclosing
        // loop's check on the same µop, as in the run loop.
        while open.last().is_some_and(|&(end, ..)| end == pc) {
            let (_, trips, outer) = open.pop().expect("checked above");
            let body = std::mem::replace(&mut tally, outer);
            tally.merge_times(&body, trips);
            charge(&mut tally.loop_backedges, trips - 1);
        }
        pc += 1;
    }
    // `exit` ends the run inside the first trip of every loop still open.
    for (_, _, outer) in open.into_iter().rev() {
        let body = std::mem::replace(&mut tally, outer);
        tally.merge_times(&body, 1);
    }
    Some(tally)
}

/// The host-side checks performed before writing the externally
/// re-loadable I-Mem (Fig. 2): capacity, terminator, predicate build,
/// register ranges and control-flow targets.
pub fn validate_program(program: &Program, config: &ProcessorConfig) -> Result<(), LoadError> {
    if program.len() > config.imem_capacity {
        return Err(LoadError::TooLarge {
            len: program.len(),
            capacity: config.imem_capacity,
        });
    }
    if !program.has_terminator() {
        return Err(LoadError::NoTerminator);
    }
    for (pc, i) in program.instructions().iter().enumerate() {
        if i.uses_predicates() && !config.predicates {
            return Err(LoadError::PredicatesDisabled { pc });
        }
        let limit = config.regs_per_thread;
        let check = |r: simt_isa::Reg| -> Result<(), LoadError> {
            if r.index() >= limit {
                Err(LoadError::RegisterRange {
                    pc,
                    reg: r.0,
                    limit,
                })
            } else {
                Ok(())
            }
        };
        // setp's rd field holds a predicate index, not a register.
        let writes_gpr = i.opcode.writes_rd()
            && !matches!(
                i.opcode,
                Opcode::SetpEq
                    | Opcode::SetpNe
                    | Opcode::SetpLt
                    | Opcode::SetpLe
                    | Opcode::SetpGt
                    | Opcode::SetpGe
                    | Opcode::SetpLtu
                    | Opcode::SetpGeu
            );
        if writes_gpr {
            check(i.rd)?;
        }
        if i.opcode.reg_reads() >= 1 {
            check(i.ra)?;
        }
        if i.opcode.reg_reads() >= 2 && i.opcode.imm_form() != simt_isa::ImmForm::Imm32 {
            check(i.rb)?;
        }
        if i.opcode.reads_rc() && i.opcode != Opcode::Selp {
            check(i.rc)?;
        }
        match i.opcode {
            Opcode::Bra | Opcode::Brp | Opcode::Call if i.target() >= program.len() => {
                return Err(LoadError::BadTarget {
                    pc,
                    target: i.target(),
                });
            }
            Opcode::Loop if i.loop_end() >= program.len() => {
                return Err(LoadError::BadTarget {
                    pc,
                    target: i.loop_end(),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::small()
    }

    #[test]
    fn guard_bytes_cover_all_three_cases() {
        let plain = Uop::decode(&Instruction::new(Opcode::Add), &cfg());
        for p in 0..16u8 {
            assert!(plain.guard_passes(p));
        }
        let pos = Uop::decode(&Instruction::new(Opcode::Add).guarded(2, false), &cfg());
        let neg = Uop::decode(&Instruction::new(Opcode::Add).guarded(2, true), &cfg());
        for p in 0..16u8 {
            let bit = p >> 2 & 1 != 0;
            assert_eq!(pos.guard_passes(p), bit, "@p2 nibble {p:#06b}");
            assert_eq!(neg.guard_passes(p), !bit, "@!p2 nibble {p:#06b}");
        }
    }

    #[test]
    fn immediates_widen_per_form() {
        let i32op = Uop::decode(&Instruction::new(Opcode::Addi).imm(0xDEAD_BEEF), &cfg());
        assert_eq!(i32op.imm, 0xDEAD_BEEF);
        let i16op = Uop::decode(&Instruction::new(Opcode::Shli).imm(0xDEAD_BEEF), &cfg());
        assert_eq!(i16op.imm, 0xBEEF);
        let none = Uop::decode(&Instruction::new(Opcode::Add).imm(7), &cfg());
        assert_eq!(none.imm, 0);
    }

    #[test]
    fn loop_fields_unpack() {
        let l = Uop::decode(&Instruction::new(Opcode::Loop).imm(0x0030_0005), &cfg());
        assert_eq!(l.imm, 5); // trip count
        assert_eq!(l.target, 0x30); // end address
        assert_eq!(l.rd, 0); // dead GPR field stays clear
    }

    #[test]
    fn dead_source_fields_stay_clear() {
        let full = |op| Instruction::new(op).rd(1).ra(9).rb(10).rc(11);
        let srcs = |op| {
            let u = Uop::decode(&full(op), &cfg());
            (u.ra, u.rb, u.rc)
        };
        assert_eq!(srcs(Opcode::Movi), (0, 0, 0));
        assert_eq!(srcs(Opcode::Addi), (9, 0, 0));
        assert_eq!(srcs(Opcode::Add), (9, 10, 0));
        assert_eq!(srcs(Opcode::Selp), (9, 10, 0)); // rc is a predicate index
        assert_eq!(srcs(Opcode::MadLo), (9, 10, 11));
        assert_eq!(srcs(Opcode::Sts), (9, 10, 0));
    }

    #[test]
    fn rd_is_src_is_set_by_live_sources_only() {
        let bit = |i: Instruction| Uop::decode(&i, &cfg()).rd_is_src;
        let i = |op, rd, ra, rb, rc| Instruction::new(op).rd(rd).ra(ra).rb(rb).rc(rc);
        // No missed copy-in: any live source naming rd, r0 included.
        assert!(bit(i(Opcode::Add, 1, 1, 2, 0)));
        assert!(bit(i(Opcode::Add, 1, 2, 1, 0)));
        assert!(bit(i(Opcode::MadLo, 1, 2, 3, 1)));
        assert!(bit(i(Opcode::Addi, 4, 4, 0, 0)));
        assert!(bit(i(Opcode::Add, 0, 0, 1, 0)));
        assert!(bit(i(Opcode::Lds, 0, 0, 0, 0)));
        assert!(bit(i(Opcode::Lds, 5, 5, 0, 0)));
        // No spurious one: dead fields decode to register 0 and must
        // not alias an rd of r0 ...
        assert!(!bit(i(Opcode::Add, 1, 2, 3, 0)));
        assert!(!bit(i(Opcode::Movi, 0, 0, 0, 0)));
        assert!(!bit(i(Opcode::Stid, 0, 0, 0, 0)));
        assert!(!bit(i(Opcode::Addi, 0, 1, 0, 0)));
        assert!(!bit(i(Opcode::Add, 0, 1, 2, 0)));
        assert!(!bit(i(Opcode::Lds, 0, 1, 0, 0)));
        // ... nor does a dead field that happens to name rd, selp's
        // predicate index included.
        assert!(!bit(i(Opcode::Addi, 1, 2, 1, 1)));
        assert!(!bit(i(Opcode::Add, 3, 1, 2, 3)));
        assert!(!bit(i(Opcode::Selp, 1, 2, 3, 1)));
        // Opcodes that write no register have no rd column to alias.
        assert!(!bit(i(Opcode::Sts, 1, 1, 1, 0)));
        assert!(!bit(i(Opcode::SetpLt, 1, 1, 1, 0)));
    }

    #[test]
    fn timing_is_preresolved_against_the_config() {
        let c = cfg(); // 64 threads
        let sts = Uop::decode(&Instruction::new(Opcode::Sts), &c);
        assert_eq!(sts.active, 64);
        assert_eq!(sts.clocks, 64); // 4 rows x 16-lane write mux
        assert_eq!((sts.lanes, sts.depth), (16, 4));
        let scaled = Uop::decode(&Instruction::new(Opcode::Sts).scaled(4), &c);
        assert_eq!(scaled.active, 4);
        assert_eq!(scaled.clocks, 4);
        assert_eq!((scaled.lanes, scaled.depth), (4, 1));
    }

    #[test]
    fn decode_matches_program_length_and_keeps_source() {
        let p = Arc::new(Program::from_instructions(vec![
            Instruction::new(Opcode::Stid).rd(1),
            Instruction::new(Opcode::Exit),
        ]));
        let d = DecodedProgram::decode(Arc::clone(&p), &cfg());
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert!(Arc::ptr_eq(d.program(), &p));
        assert_eq!(d.config(), &cfg());
    }

    /// The walk's answer and a run's, memory counters aside.
    fn walked_and_run(
        program: Program,
    ) -> (Option<ExecStats>, Result<ExecStats, crate::ExecError>) {
        let decoded = Arc::new(DecodedProgram::decode(Arc::new(program), &cfg()));
        let mut cpu = crate::Processor::new(cfg()).unwrap();
        cpu.load_decoded(Arc::clone(&decoded)).unwrap();
        let run = cpu.run(crate::RunOptions::default());
        let run = run.map(|s| ExecStats {
            mem: Default::default(),
            ..s
        });
        (decoded.static_stats(), run)
    }

    /// The walk of a branch-free program, checked against its run.
    fn walk(program: Program) -> ExecStats {
        let (walked, run) = walked_and_run(program.clone());
        assert_eq!(walked, Some(run.unwrap()), "{program:?}");
        walked.unwrap()
    }

    fn asm(src: &str) -> Program {
        simt_isa::assemble(src).unwrap()
    }

    /// `loop count` over the `body` µops that follow it, then `exit`
    /// (the assembler refuses a zero count).
    fn looped(count: u32, body: &[Opcode]) -> Program {
        let end = body.len() as u32;
        let mut v = vec![Instruction::new(Opcode::Loop).imm(end << 16 | count)];
        v.extend(body.iter().map(|&op| Instruction::new(op).rd(1)));
        v.push(Instruction::new(Opcode::Exit));
        Program::from_instructions(v)
    }

    #[test]
    fn the_walk_folds_straight_line_code() {
        let s = walk(asm(
            "  stid r1\n  add r2, r1, r1\n  lds r3, [r1+0]\n  sts [r1+0], r2\n  exit",
        ));
        assert_eq!(s.fill_cycles, FETCH_PIPELINE_DEPTH);
        assert_eq!((s.instructions, s.branch_flush_cycles), (5, 0));
        assert!(s.buckets_consistent());
    }

    #[test]
    fn the_walk_multiplies_loop_bodies_by_their_trips() {
        let s = walk(asm(
            "  loop 8, done\n  addi r1, r1, 1\n  addi r2, r2, 1\ndone:\n  exit",
        ));
        assert_eq!(s.instructions, 1 + 8 * 2 + 1);
        assert_eq!((s.loop_backedges, s.branch_flush_cycles), (7, 0));
        // Nested loops sharing an end address.
        let s = walk(asm(
            "  loop 3, done\n  stid r1\n  loop 4, done\n  addi r1, r1, 1\ndone:\n  exit",
        ));
        assert_eq!(s.instructions, 1 + 3 * (2 + 4) + 1);
        assert_eq!(s.loop_backedges, 3 * 3 + 2);
        assert_eq!(walk(looped(5, &[Opcode::Stid])).loop_backedges, 4);
    }

    #[test]
    fn a_skipped_body_is_a_taken_branch_on_every_trip() {
        let s = walk(looped(0, &[Opcode::Stid, Opcode::Sts]));
        assert_eq!((s.branches_taken, s.instructions), (1, 2));
        assert_eq!(s.branch_flush_cycles, FETCH_PIPELINE_DEPTH);
        // An empty body is skipped too, here once per outer trip.
        let s = walk(asm(
            "  loop 3, done\n  loop 5, empty\nempty:\n  addi r1, r1, 1\ndone:\n  exit",
        ));
        assert_eq!((s.branches_taken, s.instructions), (3, 1 + 3 * 2 + 1));
    }

    #[test]
    fn a_body_the_run_leaves_early_counts_once() {
        // `exit` inside a body.
        let s = walk(asm("  loop 4, done\n  stid r1\n  exit\ndone:\n  exit"));
        assert_eq!((s.instructions, s.loop_backedges), (3, 0));
        // A skip that ends an outer body passes over its back-edge.
        let s = walk(asm(
            "  loop 3, outer\n  stid r1\n  loop 2, outer\nouter:\n  exit",
        ));
        assert_eq!((s.instructions, s.branches_taken), (4, 1));
        // An inner body that ends past the outer one's end.
        let s = walk(asm(
            "  loop 3, outer\n  loop 2, inner\n  stid r1\nouter:\n  addi r1, r1, 1\ninner:\n  exit",
        ));
        assert_eq!((s.instructions, s.loop_backedges), (7, 1));
    }

    #[test]
    fn counts_past_u64_saturate() {
        // 65 535^4 trips of a 64-clock store: no run gets this far.
        let depth = cfg().loop_stack_depth;
        let mut src: String = (0..depth)
            .map(|i| format!("  loop 65535, e{i}\n"))
            .collect();
        src.push_str("  sts [r1+0], r1\n");
        src.extend((0..depth).map(|i| format!("e{i}:\n")));
        src.push_str("  exit");
        let decoded = DecodedProgram::decode(Arc::new(asm(&src)), &cfg());
        let s = decoded.static_stats().unwrap();
        assert_eq!((s.cycles, s.store_cycles), (u64::MAX, u64::MAX));
    }

    #[test]
    fn branches_and_too_deep_nests_are_dynamic() {
        for src in [
            "  bra skip\n  nop\nskip:\n  exit",
            "  call f\n  exit\nf:\n  addi r1, r1, 1\n  ret",
            "  movi r1, 1\n  setp.gt p0, r1, r1\n  @p0 brp out\nout:\n  exit",
        ] {
            let (walked, run) = walked_and_run(asm(src));
            assert_eq!(walked, None, "{src}");
            assert!(run.is_ok(), "{src}");
        }
        let depth = cfg().loop_stack_depth;
        let mut src: String = (0..=depth).map(|i| format!("  loop 2, e{i}\n")).collect();
        src.push_str("  stid r1\n");
        src.extend((0..=depth).map(|i| format!("e{i}:\n")));
        src.push_str("  exit");
        let (walked, run) = walked_and_run(asm(&src));
        assert_eq!(walked, None);
        assert!(matches!(
            run,
            Err(crate::ExecError::LoopStackOverflow { .. })
        ));
    }

    #[test]
    fn validation_matches_load_checks() {
        let no_term = Program::from_instructions(vec![Instruction::new(Opcode::Nop)]);
        assert_eq!(
            validate_program(&no_term, &cfg()),
            Err(LoadError::NoTerminator)
        );
        let bad_reg = Program::from_instructions(vec![
            Instruction::new(Opcode::Add).rd(99).ra(1).rb(1),
            Instruction::new(Opcode::Exit),
        ]);
        assert!(matches!(
            validate_program(&bad_reg, &cfg()),
            Err(LoadError::RegisterRange { pc: 0, reg: 99, .. })
        ));
        let bad_target = Program::from_instructions(vec![
            Instruction::new(Opcode::Bra).imm(9),
            Instruction::new(Opcode::Exit),
        ]);
        assert!(matches!(
            validate_program(&bad_target, &cfg()),
            Err(LoadError::BadTarget { pc: 0, target: 9 })
        ));
        let pred = Program::from_instructions(vec![
            Instruction::new(Opcode::Add)
                .rd(1)
                .ra(1)
                .rb(1)
                .guarded(0, false),
            Instruction::new(Opcode::Exit),
        ]);
        let no_preds = ProcessorConfig::small().with_predicates(false);
        assert_eq!(
            validate_program(&pred, &no_preds),
            Err(LoadError::PredicatesDisabled { pc: 0 })
        );
    }
}
