//! The streaming multiprocessor: one SM of 16 SPs executing in lockstep
//! (§2–§3). There is one run loop per interpreter, and it accounts
//! clocks with the closed-form counter arithmetic of
//! [`InstructionTiming`]. The two execution modes differ only before it
//! starts:
//!
//! * **Functional** — runs the loop.
//! * **CycleAccurate** — first steps the [`PipelineControl`] counter
//!   hardware clock by clock once per µop of the loaded program and
//!   checks each count against the closed form, then runs the same loop.
//!   A µop's clocks depend only on its cycle class and active-thread
//!   count, both fixed at decode, so one check per µop covers every
//!   dynamic issue of it.
//!
//! Both modes produce identical results and identical [`ExecStats`].
//!
//! Two *interpreters* compute that semantics independently (see
//! `docs/SIMULATOR.md`):
//!
//! * the **predecoded** fast path ([`Processor::run`]) executes the
//!   cached [`DecodedProgram`] µops with per-opcode column kernels,
//!   monomorphized over (trace on/off × per-PC profile on/off) so the
//!   hot loop carries no trace or profile branches. Its lanes are
//!   **native**: host arithmetic ([`crate::alu::native`]) written
//!   straight into the `rd` column, and unit-stride or broadcast
//!   `lds`/`sts` address columns moved as one block;
//! * the **reference** path ([`Processor::run_reference`]) interprets
//!   the [`Program`] directly, re-extracting fields per dynamic
//!   instruction the way the seed simulator did, one lane at a time
//!   through the **structural** datapath models
//!   ([`Datapath::eval`]) — kept as the differential-testing oracle and
//!   the host-throughput baseline.
//!
//! The two must never diverge: results, traces and [`ExecStats`] are
//! pinned bit-identical by `tests/prop_decode.rs`, which makes every
//! such comparison a native-versus-structural check as well.

use crate::alu::{native, native_setp, Datapath, Operands};
use crate::config::ProcessorConfig;
use crate::decode::{DecodedProgram, Uop};
use crate::error::{ConfigError, ExecError, LoadError};
use crate::profile::PcProfile;
use crate::regfile::RegisterFile;
use crate::sequencer::{InstructionTiming, PipelineControl, FETCH_PIPELINE_DEPTH};
use crate::shared::SharedMemory;
use crate::stats::ExecStats;
use simt_isa::{CycleClass, Guard, Instruction, Opcode, Program};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Execution mode selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Closed-form cycle accounting.
    Functional,
    /// The same run, after stepping the counter hardware once per µop
    /// of the loaded program and checking it against the closed form
    /// (one pass over the program, used by verification tests and
    /// `asmrun`).
    CycleAccurate,
}

/// Options for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Watchdog: abort after this many clocks.
    pub max_cycles: u64,
    /// Execution mode.
    pub mode: ExecMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_cycles: 200_000_000,
            mode: ExecMode::Functional,
        }
    }
}

impl RunOptions {
    /// Cycle-accurate verification run.
    pub fn cycle_accurate() -> Self {
        RunOptions {
            mode: ExecMode::CycleAccurate,
            ..Default::default()
        }
    }
}

/// One issued instruction in an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter of the instruction.
    pub pc: usize,
    /// Opcode issued.
    pub opcode: Opcode,
    /// Active threads after dynamic scaling.
    pub active: usize,
    /// Clocks the instruction occupied the machine.
    pub clocks: u64,
    /// Taken-branch target, if the instruction redirected the PC
    /// (zero-overhead loop back-edges are not branches and appear as
    /// `None`).
    pub jumped: Option<usize>,
}

/// A full architectural checkpoint (serializable).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Configuration the snapshot was taken under.
    pub config: ProcessorConfig,
    /// Register file contents, `[reg][thread]` register-major (each
    /// register one contiguous run of `config.threads` words).
    pub regs: Vec<u32>,
    /// Predicate nibbles, one per thread.
    pub preds: Vec<u8>,
    /// Shared memory contents.
    pub shared: Vec<u32>,
    /// Loaded program, if any.
    pub program: Option<Program>,
}

#[derive(Debug, Clone, Copy)]
struct LoopFrame {
    start: usize,
    end: usize,
    remaining: u32,
}

/// One SIMT processor instance.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
    regfile: RegisterFile,
    shared: SharedMemory,
    datapath: Datapath,
    /// The loaded program, predecoded (kept across [`Processor::reset`]).
    decoded: Option<Arc<DecodedProgram>>,
    /// The column kernels' reusable spare column (one word per thread):
    /// a µop that reads the register it writes reads its old contents
    /// from here.
    scratch: Vec<u32>,
}

impl Processor {
    /// Build a processor for `config`.
    pub fn new(config: ProcessorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Processor {
            regfile: RegisterFile::new(&config),
            shared: SharedMemory::new(config.shared_words),
            datapath: Datapath::new(),
            decoded: None,
            scratch: vec![0; config.threads],
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The loaded program, if any.
    pub fn program(&self) -> Option<&Program> {
        self.decoded.as_ref().map(|d| d.program().as_ref())
    }

    /// The predecoded form of the loaded program, if any — shareable
    /// with other processors of the same configuration via
    /// [`Processor::load_decoded`].
    pub fn decoded(&self) -> Option<&Arc<DecodedProgram>> {
        self.decoded.as_ref()
    }

    /// Host access to the register file.
    pub fn regfile(&self) -> &RegisterFile {
        &self.regfile
    }

    /// Mutable host access to the register file (data upload).
    pub fn regfile_mut(&mut self) -> &mut RegisterFile {
        &mut self.regfile
    }

    /// Host access to shared memory.
    pub fn shared(&self) -> &SharedMemory {
        &self.shared
    }

    /// Mutable host access to shared memory.
    pub fn shared_mut(&mut self) -> &mut SharedMemory {
        &mut self.shared
    }

    /// Validate a program against this build, load it into I-Mem (the
    /// I-Mem is "externally re-loadable", Fig. 2) and predecode it into
    /// the µop cache the run loop executes.
    pub fn load_program(&mut self, program: &Program) -> Result<(), LoadError> {
        let program = Arc::new(program.clone());
        self.load_decoded(Arc::new(DecodedProgram::decode(program, &self.config)))
    }

    /// Load an already-decoded program, sharing the decode instead of
    /// re-deriving it — the path the runtime's compile cache and
    /// multi-core systems use. The decode's configuration must equal
    /// this processor's; the program was validated against it when it
    /// was decoded, and an invalid one is rejected here with that
    /// verdict.
    pub fn load_decoded(&mut self, decoded: Arc<DecodedProgram>) -> Result<(), LoadError> {
        if *decoded.config() != self.config {
            return Err(LoadError::ConfigMismatch);
        }
        decoded.validity().clone()?;
        self.decoded = Some(decoded);
        Ok(())
    }

    /// Reset architectural state (registers, predicates, shared memory
    /// and its statistics) to power-on zeros, keeping the loaded program
    /// and its decode. Zeroes in place — no reallocation — and only what
    /// was written since the last reset (`docs/SIMULATOR.md`, "What a
    /// reset costs").
    pub fn reset(&mut self) {
        self.reset_seeded(&[])
            .expect("the empty image fits any memory");
    }

    /// [`Processor::reset`], with shared memory starting as `image`
    /// followed by zeros instead of all zeros — one copy, where a reset
    /// and a [`SharedMemory::load_words`] would clear the memory and then
    /// overwrite it. The image is the *seed*: it is not part of
    /// [`SharedMemory::written`]. Fails, changing nothing, when the image
    /// is longer than the memory.
    pub fn reset_seeded(&mut self, image: &[u32]) -> Result<(), ExecError> {
        self.shared.seed(image)?;
        self.regfile.clear();
        Ok(())
    }

    /// Snapshot the full architectural state (registers, predicates,
    /// shared memory, loaded program) — checkpointing for long
    /// simulations and for A/B experiments from a common state.
    pub fn snapshot(&self) -> Snapshot {
        let (regs, preds) = self.regfile.raw();
        Snapshot {
            config: self.config.clone(),
            regs: regs.to_vec(),
            preds: preds.to_vec(),
            shared: self.shared.as_slice().to_vec(),
            program: self.decoded.as_ref().map(|d| d.program().as_ref().clone()),
        }
    }

    /// Restore a snapshot taken from a processor with the same
    /// configuration. A snapshot can be deserialized from anywhere, so
    /// it is checked first, and a bad one is an error that leaves the
    /// processor untouched: a different configuration, register or
    /// predicate arrays that are not exactly this register file's size,
    /// shared memory larger than this build's, or a program that fails
    /// the checks [`Processor::load_program`] makes.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), LoadError> {
        if snap.config != self.config {
            return Err(LoadError::ConfigMismatch);
        }
        let (regs, preds) = self.regfile.raw();
        let (len, expected) = (snap.regs.len(), regs.len());
        if len != expected {
            return Err(LoadError::SnapshotRegs { len, expected });
        }
        let (len, expected) = (snap.preds.len(), preds.len());
        if len != expected {
            return Err(LoadError::SnapshotPreds { len, expected });
        }
        let (len, capacity) = (snap.shared.len(), self.config.shared_words);
        if len > capacity {
            return Err(LoadError::SnapshotShared { len, capacity });
        }
        let decoded = match &snap.program {
            Some(p) => {
                let decoded = DecodedProgram::decode(Arc::new(p.clone()), &self.config);
                decoded.validity().clone()?;
                Some(Arc::new(decoded))
            }
            None => None,
        };
        self.regfile.restore_raw(&snap.regs, &snap.preds);
        self.shared = SharedMemory::new(self.config.shared_words);
        self.shared
            .load_words(0, &snap.shared)
            .expect("the length was checked above");
        self.decoded = decoded;
        Ok(())
    }

    /// Execute the loaded program to `exit` (the predecoded fast path).
    pub fn run(&mut self, opts: RunOptions) -> Result<ExecStats, ExecError> {
        self.run_dispatch(opts, &mut None, &mut None)
    }

    /// Execute with a per-instruction trace (issued PC, opcode, active
    /// thread count, clocks, branch target) — the simulator's equivalent
    /// of a logic-analyzer capture on the instruction block.
    pub fn run_traced(
        &mut self,
        opts: RunOptions,
    ) -> Result<(ExecStats, Vec<TraceEntry>), ExecError> {
        let mut trace = Some(Vec::new());
        let stats = self.run_dispatch(opts, &mut trace, &mut None)?;
        Ok((stats, trace.unwrap()))
    }

    /// Execute with an opt-in per-PC profile: cycles, issues and
    /// thread-operations charged per program counter (see
    /// [`PcProfile`]). The µop table is 1:1 with the source program, so
    /// each slot names a source instruction directly. Statistics and
    /// architectural results are bit-exact with [`Processor::run`]; the
    /// profiled loop is a separate monomorphization, so unprofiled runs
    /// pay nothing.
    pub fn run_profiled(&mut self, opts: RunOptions) -> Result<(ExecStats, PcProfile), ExecError> {
        let len = self.decoded.as_ref().map(|d| d.len()).unwrap_or(0);
        let mut profile = Some(PcProfile::with_len(len));
        let stats = self.run_dispatch(opts, &mut None, &mut profile)?;
        Ok((stats, profile.unwrap()))
    }

    /// Execute through the **reference interpreter**: field extraction
    /// per dynamic instruction, generic per-lane dispatch through
    /// [`Datapath::eval`] — semantically identical to [`Processor::run`]
    /// (pinned by proptest), kept as the differential-testing oracle
    /// (`tables --sim` asserts the two bit-exact on the bench kernels;
    /// `bench-e2e` times this one as `core.run_reference_ns`).
    pub fn run_reference(&mut self, opts: RunOptions) -> Result<ExecStats, ExecError> {
        self.run_reference_inner(opts, &mut None)
    }

    /// [`Processor::run_reference`] with a per-instruction trace.
    pub fn run_reference_traced(
        &mut self,
        opts: RunOptions,
    ) -> Result<(ExecStats, Vec<TraceEntry>), ExecError> {
        let mut trace = Some(Vec::new());
        let stats = self.run_reference_inner(opts, &mut trace)?;
        Ok((stats, trace.unwrap()))
    }

    fn run_dispatch(
        &mut self,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
        profile: &mut Option<PcProfile>,
    ) -> Result<ExecStats, ExecError> {
        let decoded = self
            .decoded
            .clone()
            .expect("no program loaded — call load_program first");
        if opts.mode == ExecMode::CycleAccurate {
            step_counter_hardware(&decoded);
        }
        // Monomorphize the run loop over (trace, profile): the fast path
        // carries no trace pushes and no per-PC counter updates.
        match (trace.is_some(), profile.is_some()) {
            (false, false) => self.run_loop::<false, false>(&decoded, opts, trace, profile),
            (true, false) => self.run_loop::<true, false>(&decoded, opts, trace, profile),
            (false, true) => self.run_loop::<false, true>(&decoded, opts, trace, profile),
            (true, true) => self.run_loop::<true, true>(&decoded, opts, trace, profile),
        }
    }

    /// The predecoded run loop, monomorphized over trace capture and
    /// per-PC profiling.
    fn run_loop<const TRACED: bool, const PROFILED: bool>(
        &mut self,
        decoded: &DecodedProgram,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
        profile: &mut Option<PcProfile>,
    ) -> Result<ExecStats, ExecError> {
        let uops = decoded.uops();
        self.shared.reset_stats();
        // The column kernels write registers through raw slices: tell
        // the file up front what this program can dirty.
        let (regs, preds) = decoded.footprint();
        self.regfile.touch(regs, preds);
        let mut stats = ExecStats {
            cycles: FETCH_PIPELINE_DEPTH,
            fill_cycles: FETCH_PIPELINE_DEPTH,
            ..Default::default()
        };
        let mut pc = 0usize;
        let mut call_stack: Vec<usize> = Vec::with_capacity(self.config.call_stack_depth);
        let mut loop_stack: Vec<LoopFrame> = Vec::with_capacity(self.config.loop_stack_depth);

        loop {
            if stats.cycles > opts.max_cycles {
                return Err(ExecError::Watchdog {
                    cycles: opts.max_cycles,
                });
            }
            let u = match uops.get(pc) {
                Some(u) => *u,
                None => return Err(ExecError::PcOutOfRange { pc }),
            };
            let active = u.active as usize;

            // ---- clock accounting ----
            let clocks = u.clocks as u64;
            stats.cycles += clocks;
            stats.instructions += 1;
            match u.class {
                CycleClass::Operation => stats.op_cycles += clocks,
                CycleClass::Load => stats.load_cycles += clocks,
                CycleClass::Store => stats.store_cycles += clocks,
                CycleClass::SingleCycle => stats.single_cycles += clocks,
            }
            if u.class != CycleClass::SingleCycle {
                stats.thread_ops += active as u64;
            }

            // ---- semantics ----
            let mut jumped: Option<usize> = None;
            match u.opcode {
                Opcode::Bra => {
                    jumped = Some(u.target as usize);
                }
                Opcode::Brp => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        jumped = Some(u.target as usize);
                    }
                }
                Opcode::Call => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        if call_stack.len() == self.config.call_stack_depth {
                            return Err(ExecError::CallStackOverflow {
                                pc,
                                depth: self.config.call_stack_depth,
                            });
                        }
                        call_stack.push(pc + 1);
                        jumped = Some(u.target as usize);
                    }
                }
                Opcode::Ret => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        match call_stack.pop() {
                            Some(ra) => jumped = Some(ra),
                            None => return Err(ExecError::CallStackUnderflow { pc }),
                        }
                    }
                }
                Opcode::Loop => {
                    let count = u.imm;
                    let end = u.target as usize;
                    if count == 0 || end < pc + 1 {
                        // Empty or zero-trip loop: skip the body. A
                        // skip is a taken branch; fall through to flush
                        // accounting below.
                        jumped = Some(end.max(pc) + 1);
                    } else {
                        if loop_stack.len() == self.config.loop_stack_depth {
                            return Err(ExecError::LoopStackOverflow {
                                pc,
                                depth: self.config.loop_stack_depth,
                            });
                        }
                        loop_stack.push(LoopFrame {
                            start: pc + 1,
                            end,
                            remaining: count,
                        });
                    }
                }
                Opcode::Exit => {
                    if TRACED {
                        trace.as_mut().unwrap().push(TraceEntry {
                            pc,
                            opcode: u.opcode,
                            active,
                            clocks,
                            jumped: None,
                        });
                    }
                    if PROFILED {
                        let prof = profile.as_mut().unwrap();
                        prof.fill_cycles = stats.fill_cycles;
                        prof.record(pc, clocks, 0);
                    }
                    stats.mem = self.shared.stats();
                    return Ok(stats);
                }
                Opcode::Nop | Opcode::Bar => {}
                _ => self.exec_uop(&u, pc, active)?,
            }

            if TRACED {
                trace.as_mut().unwrap().push(TraceEntry {
                    pc,
                    opcode: u.opcode,
                    active,
                    clocks,
                    jumped,
                });
            }

            if PROFILED {
                // Charge the taken-branch flush to the branching PC so
                // every clock except pipeline fill has an owner.
                let flush = if jumped.is_some() {
                    FETCH_PIPELINE_DEPTH
                } else {
                    0
                };
                let ops = if u.class != CycleClass::SingleCycle {
                    active as u64
                } else {
                    0
                };
                profile.as_mut().unwrap().record(pc, clocks + flush, ops);
            }

            // ---- PC update ----
            match jumped {
                Some(target) => {
                    // "A branch taken zeroes out the following
                    // instructions in the pipeline."
                    stats.branches_taken += 1;
                    stats.branch_flush_cycles += FETCH_PIPELINE_DEPTH;
                    stats.cycles += FETCH_PIPELINE_DEPTH;
                    pc = target;
                }
                None => {
                    // Zero-overhead loop back-edges: the "next thread
                    // block" / branch logic of Fig. 2 redirects without a
                    // flush. Nested loops may share an end address — an
                    // exhausted inner frame pops and the enclosing frame
                    // gets its check in the same clock.
                    let mut redirected = false;
                    while let Some(top) = loop_stack.last_mut() {
                        if top.end != pc {
                            break;
                        }
                        if top.remaining > 1 {
                            top.remaining -= 1;
                            pc = top.start;
                            stats.loop_backedges += 1;
                            redirected = true;
                            break;
                        }
                        loop_stack.pop();
                    }
                    if !redirected {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Execute one data µop (operation / load / store) across the active
    /// thread set: one dense dispatch per *instruction*, then a column
    /// kernel per opcode over the operand registers' contiguous
    /// columns, with the guard test and operand indices pre-resolved —
    /// no per-lane field extraction or opcode dispatch, and host
    /// arithmetic ([`native`]) in the lane loop, not the gate structure
    /// the reference interpreter evaluates.
    fn exec_uop(&mut self, u: &Uop, pc: usize, active: usize) -> Result<(), ExecError> {
        let Processor {
            config,
            regfile,
            shared,
            scratch,
            ..
        } = self;
        let ntid = config.threads as u32;
        let (regs, preds, threads) = regfile.split_mut();
        let imm = u.imm;
        let k = ColumnKernel {
            regs,
            preds,
            scratch,
            threads,
            active,
            u: *u,
        };

        // One arm per opcode, each naming its opcode as a constant:
        // `native`/`native_setp` inline into the kernel's lane loop and
        // their match folds to the one arm before the loop is compiled.
        macro_rules! dispatch {
            (setp: $($setp:ident)*; value: $($value:ident)*;) => {
                match u.opcode {
                    Opcode::Lds => return k.lds(shared, pc),
                    Opcode::Sts => return k.sts(shared, pc),
                    $(Opcode::$setp => k.setp(|a, b| native_setp(Opcode::$setp, a, b)),)*
                    $(Opcode::$value => k.lanes(|_, a, b, c| native(Opcode::$value, a, b, c, imm)),)*
                    // The lane supplies what the registers do not: the
                    // steering predicate and the two special registers.
                    Opcode::Selp => {
                        let bit = u.pred_bit;
                        k.lanes_pred_src(|_, a, b, _, p| {
                            native(Opcode::Selp, a, b, (p & bit) as u32, 0)
                        })
                    }
                    Opcode::Stid => k.lanes(|tid, _, _, _| native(Opcode::Stid, tid, 0, 0, 0)),
                    Opcode::Sntid => k.lanes(|_, _, _, _| native(Opcode::Sntid, ntid, 0, 0, 0)),
                    // Control flow is handled by the run loop.
                    Opcode::Bra
                    | Opcode::Brp
                    | Opcode::Call
                    | Opcode::Ret
                    | Opcode::Loop
                    | Opcode::Exit
                    | Opcode::Nop
                    | Opcode::Bar => unreachable!("{:?} is not a data opcode", u.opcode),
                }
            };
        }
        dispatch! {
            setp: SetpEq SetpNe SetpLt SetpLe SetpGt SetpGe SetpLtu SetpGeu;
            value:
                // integer arithmetic
                Add Sub Min Max Abs Neg Sad Addi Subi
                // multiplier
                MulLo MulHi MuluHi MadLo MadHi Muli
                // bitwise logic
                And Or Xor Not Cnot Andi Ori Xori Popc Clz Brev
                // shifts
                Shl Lsr Asr Shli Lsri Asri
                // fixed-point / address helpers
                SatAdd SatSub MulShr ShAdd Bfe Rotri
                // data movement
                Mov Movi;
        }
        Ok(())
    }

    fn run_reference_inner(
        &mut self,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
    ) -> Result<ExecStats, ExecError> {
        let decoded = self
            .decoded
            .as_ref()
            .expect("no program loaded — call load_program first");
        if opts.mode == ExecMode::CycleAccurate {
            step_counter_hardware(decoded);
        }
        let program: Arc<Program> = Arc::clone(decoded.program());
        self.shared.reset_stats();
        let mut stats = ExecStats {
            cycles: FETCH_PIPELINE_DEPTH,
            fill_cycles: FETCH_PIPELINE_DEPTH,
            ..Default::default()
        };
        let mut pc = 0usize;
        let mut call_stack: Vec<usize> = Vec::with_capacity(self.config.call_stack_depth);
        let mut loop_stack: Vec<LoopFrame> = Vec::with_capacity(self.config.loop_stack_depth);

        loop {
            if stats.cycles > opts.max_cycles {
                return Err(ExecError::Watchdog {
                    cycles: opts.max_cycles,
                });
            }
            let instr = match program.fetch(pc) {
                Some(i) => *i,
                None => return Err(ExecError::PcOutOfRange { pc }),
            };
            let active = InstructionTiming::scaled_threads(self.config.threads, instr.scale);
            let class = instr.opcode.cycle_class();

            // ---- clock accounting ----
            let clocks = InstructionTiming::cycles(class, active);
            stats.cycles += clocks;
            stats.instructions += 1;
            match class {
                CycleClass::Operation => stats.op_cycles += clocks,
                CycleClass::Load => stats.load_cycles += clocks,
                CycleClass::Store => stats.store_cycles += clocks,
                CycleClass::SingleCycle => stats.single_cycles += clocks,
            }
            if class != CycleClass::SingleCycle {
                stats.thread_ops += active as u64;
            }

            // ---- semantics ----
            let mut jumped: Option<usize> = None;
            match instr.opcode {
                Opcode::Bra => {
                    jumped = Some(instr.target());
                }
                Opcode::Brp => {
                    if self.control_condition(&instr) {
                        jumped = Some(instr.target());
                    }
                }
                Opcode::Call => {
                    if self.control_condition(&instr) {
                        if call_stack.len() == self.config.call_stack_depth {
                            return Err(ExecError::CallStackOverflow {
                                pc,
                                depth: self.config.call_stack_depth,
                            });
                        }
                        call_stack.push(pc + 1);
                        jumped = Some(instr.target());
                    }
                }
                Opcode::Ret => {
                    if self.control_condition(&instr) {
                        match call_stack.pop() {
                            Some(ra) => jumped = Some(ra),
                            None => return Err(ExecError::CallStackUnderflow { pc }),
                        }
                    }
                }
                Opcode::Loop => {
                    let count = instr.loop_count();
                    let end = instr.loop_end();
                    if count == 0 || end < pc + 1 {
                        // Empty or zero-trip loop: skip the body.
                        jumped = Some(end.max(pc) + 1);
                        // A skip is a taken branch; fall through to flush
                        // accounting below.
                    } else {
                        if loop_stack.len() == self.config.loop_stack_depth {
                            return Err(ExecError::LoopStackOverflow {
                                pc,
                                depth: self.config.loop_stack_depth,
                            });
                        }
                        loop_stack.push(LoopFrame {
                            start: pc + 1,
                            end,
                            remaining: count,
                        });
                    }
                }
                Opcode::Exit => {
                    if let Some(t) = trace.as_mut() {
                        t.push(TraceEntry {
                            pc,
                            opcode: instr.opcode,
                            active,
                            clocks,
                            jumped: None,
                        });
                    }
                    stats.mem = self.shared.stats();
                    return Ok(stats);
                }
                Opcode::Nop | Opcode::Bar => {}
                _ => {
                    self.exec_data_instruction(&instr, pc, active)?;
                }
            }

            if let Some(t) = trace.as_mut() {
                t.push(TraceEntry {
                    pc,
                    opcode: instr.opcode,
                    active,
                    clocks,
                    jumped,
                });
            }

            // ---- PC update ----
            match jumped {
                Some(target) => {
                    // "A branch taken zeroes out the following
                    // instructions in the pipeline."
                    stats.branches_taken += 1;
                    stats.branch_flush_cycles += FETCH_PIPELINE_DEPTH;
                    stats.cycles += FETCH_PIPELINE_DEPTH;
                    pc = target;
                }
                None => {
                    // Zero-overhead loop back-edges (see run_loop).
                    let mut redirected = false;
                    while let Some(top) = loop_stack.last_mut() {
                        if top.end != pc {
                            break;
                        }
                        if top.remaining > 1 {
                            top.remaining -= 1;
                            pc = top.start;
                            stats.loop_backedges += 1;
                            redirected = true;
                            break;
                        }
                        loop_stack.pop();
                    }
                    if !redirected {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Uniform control condition: thread 0's view of the instruction's
    /// guard (branches are decided once, in the instruction block).
    fn control_condition(&self, instr: &Instruction) -> bool {
        match instr.guard {
            Some(Guard { pred, negate }) => self.regfile.read_pred(0, pred.index()) != negate,
            None => true,
        }
    }

    /// Execute a data instruction (operation / load / store) across the
    /// active thread set — the reference interpreter's generic per-lane
    /// dispatch through [`Datapath::eval`]. Layout-agnostic: it only
    /// sees the register file through `read`/`write`/`pred_nibble`, one
    /// lane at a time, in thread order.
    fn exec_data_instruction(
        &mut self,
        instr: &Instruction,
        pc: usize,
        active: usize,
    ) -> Result<(), ExecError> {
        let Processor {
            config,
            regfile: rf,
            shared,
            datapath,
            ..
        } = self;
        let ntid = config.threads as u32;
        let (rd, ra, rb, rc) = (instr.rd.0, instr.ra.0, instr.rb.0, instr.rc.0);
        let passing = |rf: &RegisterFile, tid: usize| guard_pass(rf.pred_nibble(tid), instr.guard);

        match instr.opcode {
            Opcode::Lds => {
                let (lanes, depth) = InstructionTiming::block_shape(active);
                for _ in 0..depth {
                    shared.account_read_row(lanes);
                }
                for tid in 0..active {
                    if !passing(rf, tid) {
                        continue;
                    }
                    let addr = rf.read(tid, ra).wrapping_add(instr.imm16()) as usize;
                    let v = shared.read(pc, tid, addr)?;
                    rf.write(tid, rd, v);
                }
            }
            Opcode::Sts => {
                let (lanes, depth) = InstructionTiming::block_shape(active);
                for _ in 0..depth {
                    shared.account_write_row(lanes);
                }
                // Stores stream through the single write port in thread
                // order; on address conflicts the highest thread id wins.
                for tid in 0..active {
                    if !passing(rf, tid) {
                        continue;
                    }
                    let addr = rf.read(tid, ra).wrapping_add(instr.imm16()) as usize;
                    shared.write(pc, tid, addr, rf.read(tid, rb))?;
                }
            }
            Opcode::SetpEq
            | Opcode::SetpNe
            | Opcode::SetpLt
            | Opcode::SetpLe
            | Opcode::SetpGt
            | Opcode::SetpGe
            | Opcode::SetpLtu
            | Opcode::SetpGeu => {
                let dst = instr.dst_pred().index();
                for tid in 0..active {
                    if !passing(rf, tid) {
                        continue;
                    }
                    let v = datapath.eval_setp(instr.opcode, rf.read(tid, ra), rf.read(tid, rb));
                    rf.write_pred(tid, dst, v);
                }
            }
            _ => {
                // Generic ALU-value instruction writing rd.
                let reads = instr.opcode.reg_reads();
                for tid in 0..active {
                    if !passing(rf, tid) {
                        continue;
                    }
                    let ops = Operands {
                        a: if reads >= 1 { rf.read(tid, ra) } else { 0 },
                        b: if reads >= 2 { rf.read(tid, rb) } else { 0 },
                        c: if instr.opcode.reads_rc() {
                            rf.read(tid, rc)
                        } else {
                            0
                        },
                        tid: tid as u32,
                        ntid,
                        sel_pred: instr.opcode == Opcode::Selp
                            && rf.read_pred(tid, instr.sel_pred().index()),
                    };
                    let v = datapath.eval(instr, ops);
                    if instr.opcode.writes_rd() {
                        rf.write(tid, rd, v);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The [`ExecMode::CycleAccurate`] check: step the counter hardware for
/// every µop of `decoded` and assert its count equals the closed form
/// the run loops charge. A µop's clocks are fixed at decode, so this
/// covers every dynamic issue of it, in every build.
fn step_counter_hardware(decoded: &DecodedProgram) {
    for (pc, u) in decoded.uops().iter().enumerate() {
        let stepped = PipelineControl::start(u.class, u.active as usize).run_to_end();
        assert_eq!(
            stepped,
            InstructionTiming::cycles(u.class, u.active as usize),
            "pc {pc}: counter hardware disagrees with the closed form"
        );
    }
}

/// One data µop's view of the register file: the raw register-major
/// columns, the predicate nibbles and the processor's scratch column.
///
/// Register-writing kernels **write in place**: [`split_rd`] splits the
/// flat register array around the `rd` column, the `ra`/`rb`/`rc`
/// prefixes `[..active]` are borrowed from the two halves, and each
/// lane is evaluated straight into `rd` — a plain store when the µop is
/// unguarded, a mask blend with the old value otherwise, one loop
/// either way. Only when `rd` is itself a live source
/// ([`Uop::rd_is_src`]) is that column first *copied in* to the scratch
/// column and read from there. The loops are plain zips over
/// equal-length contiguous slices, which is what lets the compiler
/// vectorize them.
struct ColumnKernel<'a> {
    regs: &'a mut [u32],
    preds: &'a mut [u8],
    scratch: &'a mut [u32],
    /// Column stride (the configured thread count).
    threads: usize,
    active: usize,
    /// By value: a local copy the lane loops can keep in registers.
    u: Uop,
}

/// The active prefix of one register's column.
#[inline(always)]
fn col(regs: &[u32], threads: usize, active: usize, reg: u16) -> &[u32] {
    &regs[reg as usize * threads..][..active]
}

/// Split the register array around the `rd` column: its active prefix,
/// mutable, and a lookup from a source field to that register's active
/// prefix in what is left. A field naming `rd` itself reads the scratch
/// column, which holds `rd`'s old contents when such a field is live
/// (`u.rd_is_src`) and which no kernel looks at when it is dead.
#[inline(always)]
fn split_rd<'a>(
    regs: &'a mut [u32],
    scratch: &'a mut [u32],
    threads: usize,
    active: usize,
    u: &Uop,
) -> (&'a mut [u32], impl Fn(u16) -> &'a [u32]) {
    let (below, rest) = regs.split_at_mut(u.rd as usize * threads);
    let (rd, above) = rest.split_at_mut(threads);
    let (rd, old) = (&mut rd[..active], &mut scratch[..active]);
    if u.rd_is_src {
        old.copy_from_slice(rd);
    }
    let (below, above, old): (&[u32], &[u32], &[u32]) = (below, above, old);
    let rd_reg = u.rd;
    let src = move |reg: u16| match reg.cmp(&rd_reg) {
        Ordering::Less => col(below, threads, active, reg),
        Ordering::Equal => old,
        Ordering::Greater => col(above, threads, active, reg - rd_reg - 1),
    };
    (rd, src)
}

/// Lanes an address-pattern test folds between early-exit checks: a
/// scattered column pays for one chunk, not for the column.
const PATTERN_CHUNK: usize = 64;

/// Whether every lane of `column` holds its lower neighbour's value
/// plus `step`: a branch-free OR-fold of the deviations, a chunk at a
/// time.
fn steps_by(column: &[u32], step: u32) -> bool {
    let upper = column.get(1..).unwrap_or_default();
    let mut chunks = column
        .chunks(PATTERN_CHUNK)
        .zip(upper.chunks(PATTERN_CHUNK));
    chunks.all(|(lo, hi)| {
        let deviation = |acc, (&lo, &hi): (&u32, &u32)| acc | (hi.wrapping_sub(lo) ^ step);
        lo.iter().zip(hi).fold(0, deviation) == 0
    })
}

/// The first word of the window an unguarded `lds`/`sts` walks when
/// lane `t` addresses word `first + t` — unit stride — and every one of
/// those is in bounds. A column that leaves the memory, or wraps
/// `u32`, is `None`: traps stay with the per-lane loops.
fn unit_stride(column: &[u32], imm: u32, words: usize) -> Option<usize> {
    let first = column.first()?.wrapping_add(imm);
    let last = first.checked_add(column.len() as u32 - 1)?;
    ((last as usize) < words && steps_by(column, 1)).then_some(first as usize)
}

/// The one in-bounds word every lane of an unguarded `lds` addresses,
/// if that is what the column says.
fn broadcast(column: &[u32], imm: u32, words: usize) -> Option<usize> {
    let addr = column.first()?.wrapping_add(imm) as usize;
    (addr < words && steps_by(column, 0)).then_some(addr)
}

/// `lds`, lane by lane: `rd[t] = data[a[t] + imm]` on guard-passing
/// lanes, stopping at the first out-of-bounds one, whose
/// `(thread, addr)` is the error. The unguarded common case carries no
/// per-lane guard test.
///
/// A function of its own so the two loops get a register allocation of
/// their own: inside `lds` they reloaded both base pointers from the
/// stack every lane (0.72 against 0.45 ns per lane). Where the linker
/// puts such a loop can still matter: PR 16 measured byte-identical
/// gather code starting 48 bytes into a 64-byte line, instead of 0 or
/// 32, at ≈ 4 % lower `stream_heavy` thread-ops/s (`CHANGES.md`).
#[inline(never)]
fn gather(
    rd: &mut [u32],
    a: &[u32],
    p: &[u8],
    data: &[u32],
    u: &Uop,
) -> Result<(), (usize, usize)> {
    let load = |thread: usize, d: &mut u32, a: u32| -> Result<(), (usize, usize)> {
        let addr = a.wrapping_add(u.imm) as usize;
        *d = *data.get(addr).ok_or((thread, addr))?;
        Ok(())
    };
    if u.guard_and == 0 {
        for (thread, (d, &a)) in rd.iter_mut().zip(a).enumerate() {
            load(thread, d, a)?;
        }
    } else {
        for (thread, ((d, &a), &p)) in rd.iter_mut().zip(a).zip(p).enumerate() {
            if u.guard_passes(p) {
                load(thread, d, a)?;
            }
        }
    }
    Ok(())
}

/// `sts`, lane by lane and in thread order: `data[a[t] + imm] =
/// values[t]` on guard-passing lanes, stopping at the first
/// out-of-bounds one. Returns the words written, the extent they lie in
/// and that lane's `(thread, addr)`, if any. Out of line for
/// [`gather`]'s reason.
#[inline(never)]
fn scatter(
    data: &mut [u32],
    a: &[u32],
    values: &[u32],
    p: &[u8],
    u: &Uop,
) -> (u64, Range<usize>, Option<(usize, usize)>) {
    let (mut writes, mut lo, mut hi) = (0u64, usize::MAX, 0);
    for (thread, ((&a, &value), &p)) in a.iter().zip(values).zip(p).enumerate() {
        if u.guard_passes(p) {
            let addr = a.wrapping_add(u.imm) as usize;
            match data.get_mut(addr) {
                Some(slot) => *slot = value,
                None => return (writes, lo..hi, Some((thread, addr))),
            }
            (lo, hi) = (lo.min(addr), hi.max(addr + 1));
            writes += 1;
        }
    }
    (writes, lo..hi, None)
}

impl ColumnKernel<'_> {
    /// Register-writing value op: `rd = f(tid, ra, rb, rc)` per lane.
    #[inline(always)]
    fn lanes<F>(self, f: F)
    where
        F: Fn(u32, u32, u32, u32) -> u32,
    {
        self.lanes_pred_src(|tid, a, b, c, _| f(tid, a, b, c))
    }

    /// [`ColumnKernel::lanes`] variant whose body also reads the lane's
    /// predicate nibble (`selp`). Every active lane is evaluated — the
    /// semantics are total — and a guard only selects what is stored.
    #[inline(always)]
    fn lanes_pred_src<F>(self, f: F)
    where
        F: Fn(u32, u32, u32, u32, u8) -> u32,
    {
        let ColumnKernel {
            regs,
            preds,
            scratch,
            threads,
            active,
            u,
        } = self;
        let (rd, src) = split_rd(regs, scratch, threads, active, &u);
        let (a, b, c, p) = (src(u.ra), src(u.rb), src(u.rc), &preds[..active]);
        let lanes = rd.iter_mut().zip(a).zip(b).zip(c).zip(p).enumerate();
        if u.guard_and == 0 {
            for (tid, ((((d, &a), &b), &c), &p)) in lanes {
                *d = f(tid as u32, a, b, c, p);
            }
        } else {
            // A mask blend, not a conditional store, so it vectorizes.
            for (tid, ((((d, &a), &b), &c), &p)) in lanes {
                let mask = (u.guard_passes(p) as u32).wrapping_neg();
                *d = (f(tid as u32, a, b, c, p) & mask) | (*d & !mask);
            }
        }
    }

    /// Predicate-writing compare: the µop's pre-shifted destination bit
    /// is set or cleared per guard-passing lane from `f(ra, rb)`.
    /// Predicates live beside the register columns, so the kernel
    /// updates them in place.
    #[inline(always)]
    fn setp<F>(self, f: F)
    where
        F: Fn(u32, u32) -> bool,
    {
        let ColumnKernel {
            regs,
            preds,
            threads,
            active,
            u,
            ..
        } = self;
        let (a, b) = (
            col(regs, threads, active, u.ra),
            col(regs, threads, active, u.rb),
        );
        let bit = u.pred_bit;
        for ((p, &a), &b) in preds[..active].iter_mut().zip(a).zip(b) {
            let set = if f(a, b) { *p | bit } else { *p & !bit };
            *p = if u.guard_passes(*p) { set } else { *p };
        }
    }

    /// `lds`: `rd = shared[ra + imm]` on guard-passing lanes. An
    /// unguarded, in-bounds [`unit_stride`] or [`broadcast`] address
    /// column is one `copy_from_slice` or `fill`; everything else
    /// [`gather`]s lane by lane, and an out-of-bounds lane traps with
    /// the lanes below it already loaded (and counted), as in-order
    /// per-lane execution leaves them.
    ///
    /// Out of line, like `sts`, to keep the dispatch function small; a
    /// call per µop is free.
    #[inline(never)]
    fn lds(self, shared: &mut SharedMemory, pc: usize) -> Result<(), ExecError> {
        let ColumnKernel {
            regs,
            preds,
            scratch,
            threads,
            active,
            u,
        } = self;
        shared.account_read_rows(u.lanes as usize, u.depth as usize);
        let data = shared.as_slice();
        let (rd, src) = split_rd(regs, scratch, threads, active, &u);
        let (a, p) = (src(u.ra), &preds[..active]);
        let unguarded = u.guard_and == 0;
        let bulk = unguarded
            && if let Some(first) = unit_stride(a, u.imm, data.len()) {
                rd.copy_from_slice(&data[first..][..active]);
                true
            } else if let Some(addr) = broadcast(a, u.imm, data.len()) {
                rd.fill(data[addr]);
                true
            } else {
                false
            };
        // The first trapping (thread, addr), if any.
        let trap = if bulk {
            None
        } else {
            gather(rd, a, p, data, &u).err()
        };
        let loaded = trap.map_or(active, |(thread, _)| thread);
        shared.bump_reads(if unguarded {
            loaded as u64
        } else {
            let passing = p[..loaded].iter().filter(|&&p| u.guard_passes(p));
            passing.count() as u64
        });
        match trap {
            None => Ok(()),
            Some((thread, addr)) => Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size: shared.words(),
            }),
        }
    }

    /// `sts`: `shared[ra + imm] = rb` on guard-passing lanes. Stores
    /// stream through the single write port in thread order — on
    /// address conflicts the highest thread id wins — and the address
    /// base and value are already two contiguous columns, so there is
    /// nothing to gather. An unguarded in-bounds unit-stride column
    /// has no conflicts to order and is one `copy_from_slice`.
    #[inline(never)]
    fn sts(self, shared: &mut SharedMemory, pc: usize) -> Result<(), ExecError> {
        let ColumnKernel {
            regs,
            preds,
            threads,
            active,
            u,
            ..
        } = self;
        shared.account_write_rows(u.lanes as usize, u.depth as usize);
        let src = |reg| col(regs, threads, active, reg);
        let (a, values, p) = (src(u.ra), src(u.rb), &preds[..active]);
        let (size, data) = (shared.words(), shared.as_mut_slice());
        if u.guard_and == 0 {
            if let Some(first) = unit_stride(a, u.imm, size) {
                data[first..][..active].copy_from_slice(values);
                shared.note_writes(active as u64, first..first + active);
                return Ok(());
            }
        }
        let (writes, extent, trap) = scatter(data, a, values, p, &u);
        shared.note_writes(writes, extent);
        trap.map_or(Ok(()), |(thread, addr)| {
            Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size,
            })
        })
    }
}

/// Evaluate a predicate guard against a thread's predicate nibble.
#[inline]
fn guard_pass(pred_nibble: u8, guard: Option<Guard>) -> bool {
    match guard {
        Some(Guard { pred, negate }) => (pred_nibble >> pred.index() & 1 != 0) != negate,
        None => true,
    }
}
