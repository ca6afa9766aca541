//! The random-IR generator: a seeded strategy over a small AST
//! ([`FuzzProgram`]) plus a materializer that turns the AST into
//! *valid* [`simt_compiler`] kernels.
//!
//! ## Why an AST in front of the [`IrBuilder`]
//!
//! Cranelift's `fuzzgen` taught the trick: generate a layer of
//! *selectors* (indices, opcodes, raw offsets) and resolve every
//! selector **modulo the visible scope** while materializing through
//! the real builder. Any structural edit to the AST — deleting an
//! instruction, unwrapping a loop, shrinking a constant — still
//! materializes to valid IR, which is exactly what the greedy
//! minimizer ([`mod@crate::minimize`]) needs.
//!
//! ## Soundness discipline for masked instructions
//!
//! A guarded (or thread-scaled) instruction is a *write mask*: inactive
//! lanes keep whatever the destination register held, and that stale
//! content depends on register allocation — it legitimately differs
//! between `O0` and `O2`. The generator therefore only lets masked
//! results escape through well-defined channels:
//!
//! * guarded **value ops and loads** are immediately wrapped in a
//!   `select` steered by the same predicate (the `setp`/`selp` chain
//!   idiom), so inactive lanes read the fallback, never the stale
//!   register;
//! * **thread scales** and bare guards go on stores only, where the
//!   mask semantics ("inactive lanes do not write memory") are exact;
//! * comparisons and selects are never masked (a stale predicate bit
//!   would leak the same way).
//!
//! ## Memory layout
//!
//! Shared memory is [`MEM_WORDS`] words. The input image occupies
//! `[IN_OFF, IN_OFF+IN_LEN)`. In [`GenMode::Pipeline`] stage 0 stores
//! only into the handoff window `H` and stage 1 reads `IN ∪ H` and
//! stores into `OUT` — disjoint windows chosen so the runtime's graph
//! fusion pass can actually fuse the two launches. [`GenMode::Wild`]
//! lets both stages load and store anywhere (masked bases), which
//! exercises aliasing in the compiler's memory passes but suppresses
//! fusion (the full-memory copy-out touches every window).

use proptest::prelude::*;
use proptest::{collection, option, sample};
use simt_compiler::ir::IrBuilder;
use simt_compiler::{BinOp, CmpOp, Kernel, UnOp, ValueId};
use simt_core::ProcessorConfig;

/// Shared-memory words every fuzz configuration provides.
pub const MEM_WORDS: usize = 4096;
/// Input image offset.
pub const IN_OFF: usize = 0;
/// Input image length in words.
pub const IN_LEN: usize = 1024;
/// Pipeline handoff window offset (stage 0's declared output).
pub const H_OFF: usize = 1024;
/// Pipeline handoff window length.
pub const H_LEN: usize = 512;
/// Pipeline result window offset (stage 1's declared output).
pub const OUT_OFF: usize = 2048;
/// Pipeline result window length.
pub const OUT_LEN: usize = 512;

/// Per-kernel cap on materialized IR instructions (keeps every program
/// comfortably inside the default 512-entry I-Mem after lowering).
const MAX_INSTS: usize = 60;
/// Hardware predicate registers; the materializer never defines more
/// predicates than this per kernel, so allocation failures stay rare.
const MAX_PREDS: usize = 4;
/// Thread counts the generator samples (≤ 512 so `tid + offset`
/// arithmetic stays inside every window bound).
pub const THREADS: &[usize] = &[1, 2, 3, 5, 16, 31, 64, 96, 128, 256, 512];

/// How the two stages use shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMode {
    /// Both stages load/store anywhere (masked bases, arbitrary
    /// offsets): maximal aliasing pressure, no graph fusion.
    Wild,
    /// Disjoint IN → H → OUT windows with `tid` addressing: the
    /// launch chain is fusible end to end.
    Pipeline,
}

/// Operation selector of one AST instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum GenOp {
    /// Two-operand word op.
    Bin(BinOp),
    /// One-operand word op.
    Un(UnOp),
    /// Fused multiply-add.
    Mad,
    /// `(a*b) >> s` over the 64-bit product.
    MulShr(u32),
    /// `(a << s) + b`.
    ShAdd(u32),
    /// Rotate right by an immediate.
    Rotr(u32),
    /// Predicate-producing comparison.
    Cmp(CmpOp),
    /// `p ? a : b`.
    Select,
    /// Word constant.
    Const(i32),
    /// Shared-memory load.
    Load,
    /// Shared-memory store.
    Store,
}

/// One AST instruction: an operation plus raw selectors that the
/// materializer resolves modulo the visible scope.
#[derive(Debug, Clone, PartialEq)]
pub struct GenInst {
    /// What to emit.
    pub op: GenOp,
    /// Operand selectors (resolved modulo visible words).
    pub srcs: [u32; 3],
    /// Memory-offset selector (loads/stores only).
    pub off: u32,
    /// Guard selector: predicate pick (modulo visible predicates) and
    /// negation.
    pub guard: Option<(u32, bool)>,
    /// Dynamic thread scale (applied to stores only).
    pub scale: Option<u8>,
}

/// A structural region of the AST.
#[derive(Debug, Clone, PartialEq)]
pub enum GenBlock {
    /// Straight-line instructions.
    Straight(Vec<GenInst>),
    /// A hardware loop with loop-carried block parameters.
    Loop {
        /// Trip-count selector (normalized to `1..=5`).
        count: u16,
        /// Initial-value selectors, one per carried slot.
        inits: Vec<u32>,
        /// Next-iteration selectors (resolved inside the body); the
        /// materializer uses `min(inits.len(), nexts.len())` slots.
        nexts: Vec<u32>,
        /// Nested body.
        body: Vec<GenBlock>,
    },
}

/// One kernel's AST.
#[derive(Debug, Clone, PartialEq)]
pub struct GenKernel {
    /// Top-level blocks.
    pub blocks: Vec<GenBlock>,
}

/// A complete fuzz case: two chained kernels plus the launch shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzProgram {
    /// Memory discipline.
    pub mode: GenMode,
    /// Thread count both stages run with.
    pub threads: usize,
    /// Seed of the deterministic input image (see [`input_image`]).
    pub mem_seed: u32,
    /// The two pipeline stages.
    pub stages: [GenKernel; 2],
}

/// The deterministic input image a case starts from.
pub fn input_image(mem_seed: u32) -> Vec<u32> {
    (0..IN_LEN as u32)
        .map(|i| (i ^ mem_seed).wrapping_mul(2654435761))
        .collect()
}

/// The processor configuration every fuzz case compiles for.
pub fn fuzz_config(threads: usize) -> ProcessorConfig {
    ProcessorConfig::default()
        .with_threads(threads)
        .with_shared_words(MEM_WORDS)
        .with_predicates(true)
        .with_regs_per_thread(64)
}

fn arb_gen_op() -> impl Strategy<Value = GenOp> {
    let bins = vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::MulHi,
        BinOp::MulUHi,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Lsr,
        BinOp::Asr,
        BinOp::SatAdd,
        BinOp::SatSub,
    ];
    let uns = vec![
        UnOp::Abs,
        UnOp::Neg,
        UnOp::Not,
        UnOp::Cnot,
        UnOp::Popc,
        UnOp::Clz,
        UnOp::Brev,
    ];
    let cmps = vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Ltu,
        CmpOp::Geu,
    ];
    prop_oneof![
        8 => sample::select(bins).prop_map(GenOp::Bin),
        3 => sample::select(uns).prop_map(GenOp::Un),
        1 => Just(GenOp::Mad),
        1 => (0u32..64).prop_map(GenOp::MulShr),
        1 => (0u32..32).prop_map(GenOp::ShAdd),
        1 => (0u32..32).prop_map(GenOp::Rotr),
        2 => sample::select(cmps).prop_map(GenOp::Cmp),
        1 => Just(GenOp::Select),
        2 => any::<i32>().prop_map(GenOp::Const),
        3 => Just(GenOp::Load),
        3 => Just(GenOp::Store),
    ]
}

fn arb_gen_inst() -> impl Strategy<Value = GenInst> {
    (
        arb_gen_op(),
        any::<[u32; 3]>(),
        any::<u32>(),
        option::weighted(0.3, (any::<u32>(), any::<bool>())),
        option::weighted(0.15, 0u8..8),
    )
        .prop_map(|(op, srcs, off, guard, scale)| GenInst {
            op,
            srcs,
            off,
            guard,
            scale,
        })
}

fn arb_gen_block() -> BoxedStrategy<GenBlock> {
    let leaf = collection::vec(arb_gen_inst(), 1..8)
        .prop_map(GenBlock::Straight)
        .boxed();
    // Three expansions → loops nest at most three deep, one below the
    // default four-slot hardware loop stack.
    leaf.prop_recursive(3, |inner| {
        prop_oneof![
            3 => collection::vec(arb_gen_inst(), 1..8).prop_map(GenBlock::Straight),
            2 => (
                any::<u16>(),
                collection::vec(any::<u32>(), 0..3),
                collection::vec(any::<u32>(), 0..3),
                collection::vec(inner, 1..3),
            )
                .prop_map(|(count, inits, nexts, body)| {
                    let slots = inits.len().min(nexts.len());
                    GenBlock::Loop {
                        count,
                        inits: inits[..slots].to_vec(),
                        nexts: nexts[..slots].to_vec(),
                        body,
                    }
                }),
        ]
        .boxed()
    })
}

fn arb_gen_kernel() -> impl Strategy<Value = GenKernel> {
    collection::vec(arb_gen_block(), 1..5).prop_map(|blocks| GenKernel { blocks })
}

/// Strategy over complete fuzz cases.
pub fn arb_program() -> impl Strategy<Value = FuzzProgram> {
    (
        prop_oneof![2 => Just(GenMode::Wild), 3 => Just(GenMode::Pipeline)],
        sample::select(THREADS.to_vec()),
        any::<u32>(),
        arb_gen_kernel(),
        arb_gen_kernel(),
    )
        .prop_map(|(mode, threads, mem_seed, s0, s1)| FuzzProgram {
            mode,
            threads,
            mem_seed,
            stages: [s0, s1],
        })
}

/// The program a seed deterministically expands to — the reproduction
/// contract: `program_for_seed(s)` is identical across processes and
/// platforms (ChaCha8 behind the vendored proptest shim).
pub fn program_for_seed(seed: u64) -> FuzzProgram {
    let mut rng = TestRng::with_seed(seed);
    arb_program().generate(&mut rng)
}

/// A materialized fuzz case: real kernels plus the launch geometry the
/// differential executor replays through every path.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// Processor configuration both stages compile for.
    pub config: ProcessorConfig,
    /// One kernel per stage, in launch order.
    pub kernels: Vec<Kernel>,
    /// Declared output window of each stage's launch spec.
    pub stage_outs: Vec<(usize, usize)>,
    /// Final copy-out window compared across runtime paths.
    pub out: (usize, usize),
    /// Seed of the input image.
    pub mem_seed: u32,
}

impl Materialized {
    /// The input image this case starts from.
    pub fn input(&self) -> Vec<u32> {
        input_image(self.mem_seed)
    }
}

/// Materialize an AST into valid kernels (this never fails: selectors
/// resolve modulo scope, budgets truncate, and every structural rule of
/// [`Kernel::validate`] is honoured by construction).
pub fn materialize(p: &FuzzProgram) -> Materialized {
    let (stage_outs, out) = match p.mode {
        GenMode::Wild => (vec![(0, MEM_WORDS), (0, MEM_WORDS)], (0, MEM_WORDS)),
        GenMode::Pipeline => (vec![(H_OFF, H_LEN), (OUT_OFF, OUT_LEN)], (OUT_OFF, OUT_LEN)),
    };
    let kernels = p
        .stages
        .iter()
        .enumerate()
        .map(|(i, k)| materialize_kernel(k, p.mode, i, &format!("fuzz_s{i}")))
        .collect();
    Materialized {
        config: fuzz_config(p.threads),
        kernels,
        stage_outs,
        out,
        mem_seed: p.mem_seed,
    }
}

/// Emission state while materializing one kernel.
struct Emit {
    b: IrBuilder,
    /// Visible word values, innermost scope last.
    words: Vec<ValueId>,
    /// Visible predicate values.
    preds: Vec<ValueId>,
    /// Predicates defined so far (capped at [`MAX_PREDS`]).
    cmps: usize,
    /// IR instructions emitted so far (capped at [`MAX_INSTS`]).
    insts: usize,
    tid: ValueId,
    mode: GenMode,
    stage: usize,
}

impl Emit {
    fn w(&self, sel: u32) -> ValueId {
        self.words[sel as usize % self.words.len()]
    }

    fn p(&self, sel: u32) -> ValueId {
        self.preds[sel as usize % self.preds.len()]
    }

    /// Map a raw offset selector to an in-bounds store offset for this
    /// stage (base is `tid ≤ 511` in pipeline mode, a masked word
    /// `≤ 1023` in wild mode).
    fn store_off(&self, off: u32) -> u32 {
        match self.mode {
            GenMode::Wild => off % 3071,
            GenMode::Pipeline => match self.stage {
                0 => H_OFF as u32 + off % H_LEN as u32,
                _ => OUT_OFF as u32 + off % OUT_LEN as u32,
            },
        }
    }

    /// Map a raw offset selector to an in-bounds load offset.
    fn load_off(&self, off: u32) -> u32 {
        match self.mode {
            GenMode::Wild => off % 3071,
            GenMode::Pipeline => match self.stage {
                0 => off % IN_LEN as u32,
                _ => {
                    // Stage 1 reads the input image or the handoff.
                    let r = off % (IN_LEN + H_LEN) as u32;
                    if r < IN_LEN as u32 {
                        r
                    } else {
                        r - IN_LEN as u32 + H_OFF as u32
                    }
                }
            },
        }
    }

    /// The address base for a memory op: `tid` in pipeline mode; in
    /// wild mode, either `tid` or an arbitrary word masked into
    /// `[0, 1024)` (costs one extra instruction).
    fn mem_base(&mut self, sel: u32) -> ValueId {
        match self.mode {
            GenMode::Pipeline => self.tid,
            GenMode::Wild => {
                if sel.is_multiple_of(2) {
                    self.tid
                } else {
                    let w = self.w(sel);
                    let mask = self.words[2]; // prologue's 1023 constant
                    self.insts += 1;
                    self.b.bin(BinOp::And, w, mask)
                }
            }
        }
    }

    /// Emit one instruction (or nothing, once the budget is spent).
    /// The margin of 4 covers the worst case: a masked base, the op
    /// itself, and a select wrap.
    fn inst(&mut self, gi: &GenInst) {
        if self.insts + 4 > MAX_INSTS {
            return;
        }
        let guard = gi.guard.map(|(sel, neg)| (self.p(sel), neg));
        match &gi.op {
            GenOp::Cmp(op) => {
                // Never masked: a stale predicate bit in an inactive
                // lane would be allocation-dependent.
                if self.cmps >= MAX_PREDS {
                    // Predicate budget spent: degrade to a word op so
                    // the instruction still contributes entropy.
                    self.insts += 1;
                    let v = self
                        .b
                        .bin(BinOp::Xor, self.w(gi.srcs[0]), self.w(gi.srcs[1]));
                    self.words.push(v);
                } else {
                    self.insts += 1;
                    let p = self.b.cmp(*op, self.w(gi.srcs[0]), self.w(gi.srcs[1]));
                    self.preds.push(p);
                    self.cmps += 1;
                }
            }
            GenOp::Select => {
                self.insts += 1;
                let v = self
                    .b
                    .select(self.w(gi.srcs[0]), self.w(gi.srcs[1]), self.p(gi.srcs[2]));
                self.words.push(v);
            }
            GenOp::Const(c) => {
                self.insts += 1;
                let v = self.b.iconst(*c);
                self.words.push(v);
            }
            GenOp::Store => {
                let base = self.mem_base(gi.srcs[2]);
                let value = self.w(gi.srcs[1]);
                if let Some((p, neg)) = guard {
                    self.b.guard_next(p, neg);
                }
                if let Some(k) = gi.scale {
                    self.b.scale_next(k);
                }
                self.insts += 1;
                self.b.store(base, self.store_off(gi.off), value);
            }
            GenOp::Load => {
                let base = self.mem_base(gi.srcs[2]);
                let off = self.load_off(gi.off);
                let v = match guard {
                    None => {
                        self.insts += 1;
                        self.b.load(base, off)
                    }
                    Some((p, neg)) => {
                        // Guarded load: inactive lanes keep a stale
                        // register, so route the result through a
                        // select on the same predicate.
                        let fallback = self.w(gi.srcs[1]);
                        self.b.guard_next(p, neg);
                        let raw = self.b.load(base, off);
                        self.insts += 2;
                        if neg {
                            self.b.select(fallback, raw, p)
                        } else {
                            self.b.select(raw, fallback, p)
                        }
                    }
                };
                self.words.push(v);
            }
            // The pure value ops share the guard-wrap discipline.
            op => {
                let raw = {
                    if let Some((p, neg)) = guard {
                        self.b.guard_next(p, neg);
                    }
                    self.insts += 1;
                    match op {
                        GenOp::Bin(b) => self.b.bin(*b, self.w(gi.srcs[0]), self.w(gi.srcs[1])),
                        GenOp::Un(u) => self.b.un(*u, self.w(gi.srcs[0])),
                        GenOp::Mad => {
                            self.b
                                .mad(self.w(gi.srcs[0]), self.w(gi.srcs[1]), self.w(gi.srcs[2]))
                        }
                        GenOp::MulShr(s) => {
                            self.b.mulshr(self.w(gi.srcs[0]), self.w(gi.srcs[1]), *s)
                        }
                        GenOp::ShAdd(s) => self.b.shadd(self.w(gi.srcs[0]), *s, self.w(gi.srcs[1])),
                        GenOp::Rotr(s) => self.b.rotr(self.w(gi.srcs[0]), *s % 32),
                        _ => unreachable!("handled above"),
                    }
                };
                let v = match guard {
                    None => raw,
                    Some((p, neg)) => {
                        let fallback = self.w(gi.srcs[1]);
                        self.insts += 1;
                        if neg {
                            self.b.select(fallback, raw, p)
                        } else {
                            self.b.select(raw, fallback, p)
                        }
                    }
                };
                self.words.push(v);
            }
        }
    }

    fn block(&mut self, block: &GenBlock) {
        match block {
            GenBlock::Straight(insts) => {
                for gi in insts {
                    self.inst(gi);
                }
            }
            GenBlock::Loop {
                count,
                inits,
                nexts,
                body,
            } => {
                // A loop needs headroom for its params/results plus at
                // least one body instruction.
                let slots = inits.len().min(nexts.len()).min(2);
                if self.insts + 2 * slots + 4 > MAX_INSTS {
                    return;
                }
                let init_vals: Vec<ValueId> = inits[..slots].iter().map(|&s| self.w(s)).collect();
                let trip = 1 + (*count as u32 % 5);
                let params = self.b.begin_loop_carried(trip, &init_vals);
                self.insts += 1 + slots;
                let word_mark = self.words.len();
                let pred_mark = self.preds.len();
                self.words.extend(params);
                let before = self.insts;
                for blk in body {
                    self.block(blk);
                }
                if slots == 0 && self.insts == before {
                    // The budget swallowed the whole body: a plain loop
                    // may not be empty, so pin it open with a store.
                    let base = self.tid;
                    let off = self.store_off(0);
                    let v = *self.words.last().expect("prologue words");
                    self.insts += 1;
                    self.b.store(base, off, v);
                }
                let next_vals: Vec<ValueId> = nexts[..slots].iter().map(|&s| self.w(s)).collect();
                let results = self.b.end_loop_carried(&next_vals);
                self.insts += slots;
                self.words.truncate(word_mark);
                self.preds.truncate(pred_mark);
                self.words.extend(results);
            }
        }
    }
}

/// Materialize one stage's kernel.
fn materialize_kernel(k: &GenKernel, mode: GenMode, stage: usize, name: &str) -> Kernel {
    let mut b = IrBuilder::new(name);
    // Prologue: thread identity, a few constants, the address mask, and
    // one guaranteed predicate so guard selectors always resolve.
    let tid = b.tid();
    let ntid = b.ntid();
    let mask = b.iconst(0x3FF);
    let one = b.iconst(1);
    let c3 = b.iconst(3);
    let half = b.bin(BinOp::Lsr, ntid, one);
    let p0 = b.cmp(CmpOp::Lt, tid, half);
    let mut e = Emit {
        b,
        words: vec![tid, ntid, mask, one, c3, half],
        preds: vec![p0],
        cmps: 1,
        insts: 7,
        tid,
        mode,
        stage,
    };
    for block in &k.blocks {
        e.block(block);
    }
    e.b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(program_for_seed(7), program_for_seed(7));
        assert_ne!(program_for_seed(7), program_for_seed(8));
    }

    #[test]
    fn every_materialized_program_validates() {
        for seed in 0..200 {
            let p = program_for_seed(seed);
            let m = materialize(&p);
            for k in &m.kernels {
                k.validate()
                    .unwrap_or_else(|e| panic!("seed {seed} materialized invalid IR: {e}\n{k}"));
                assert!(k.loop_depth() <= 3, "seed {seed} nests too deep");
                assert!(k.live_insts() <= MAX_INSTS + 4, "seed {seed} overshoots");
            }
        }
    }

    #[test]
    fn generator_reaches_loops_guards_and_both_modes() {
        let (mut loops, mut guards, mut wild, mut pipeline, mut carried) = (0, 0, 0, 0, 0);
        for seed in 0..300 {
            let p = program_for_seed(seed);
            match p.mode {
                GenMode::Wild => wild += 1,
                GenMode::Pipeline => pipeline += 1,
            }
            let m = materialize(&p);
            for k in &m.kernels {
                if k.loop_depth() > 0 {
                    loops += 1;
                }
                k.for_each_inst(|_, inst| {
                    if inst.guard.is_some() {
                        guards += 1;
                    }
                    if inst.carried.as_ref().is_some_and(|c| !c.is_empty()) {
                        carried += 1;
                    }
                });
            }
        }
        assert!(loops > 50, "loops materialize: {loops}");
        assert!(guards > 100, "guards materialize: {guards}");
        assert!(carried > 10, "carried loops materialize: {carried}");
        assert!(wild > 30 && pipeline > 30, "both modes: {wild}/{pipeline}");
    }
}
