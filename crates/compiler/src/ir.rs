//! The SSA kernel IR.
//!
//! A [`Kernel`] is an arena of single-assignment instructions organised
//! into nested regions: the root region is straight-line code, and a
//! [`Op::Loop`] instruction owns a child region that maps one-to-one
//! onto the ISA's zero-overhead hardware loop (§3 of the paper — a trip
//! count and an end address, no loop-carried registers). Values defined
//! inside a loop body are scoped to that body; state that must survive
//! an iteration flows through shared memory, exactly as it does on the
//! lockstep machine.
//!
//! Each instruction may carry the two per-instruction attributes the
//! ISA exposes: a **dynamic thread scale** (`active = nthreads >> k`,
//! the §2 reduction feature) and a **predicate guard** referencing an
//! SSA predicate value produced by [`Op::Cmp`].
//!
//! ## Loop-carried values
//!
//! The hardware loop has no loop-carried *registers* in its encoding —
//! a trip count and an end address are all the ISA stores — but real
//! looped kernels (`matmul`'s accumulator, `iir`'s filter state) keep
//! state in ordinary registers that survive the back edge. The IR
//! models that state Cranelift-style, with **block parameters** instead
//! of phi nodes: a loop's body region declares parameters
//! ([`Op::Param`]), [`IrBuilder::begin_loop_carried`] takes the
//! initial values, and [`IrBuilder::end_loop_carried`] takes the
//! next-iteration values; the final values are read back after the loop
//! through [`Op::Result`]. The register allocator coalesces each
//! parameter with its initial and next-iteration values wherever that
//! is sound, so lowering still emits the bare hardware-loop instruction
//! with no copies on the back edge (see `crate::regalloc`).
//!
//! ```
//! use simt_compiler::ir::IrBuilder;
//!
//! let mut b = IrBuilder::new("scale_bias");
//! let tid = b.tid();
//! let x = b.load(tid, 0);             // x = shared[tid]
//! let c = b.iconst(3);
//! let x3 = b.mul(x, c);               // muli after lowering
//! let c7 = b.iconst(7);
//! let y = b.add(x3, c7);
//! b.store(tid, 64, y);                // shared[tid + 64] = 3*x + 7
//! let kernel = b.finish();
//! assert!(kernel.validate().is_ok());
//! ```

use crate::entity::{ValueMap, ValueSet};
use crate::error::CompileError;
use simt_core::{DspMode, ProcessorConfig};
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// An SSA value: the result of one instruction in the kernel arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a value id from a raw arena index **without** any
    /// scoping or bounds guarantee. This exists for adversarial tooling
    /// (`simt-fuzzgen`'s near-miss generator) that deliberately builds
    /// dangling or out-of-scope references to prove the validator
    /// rejects them with a typed error; ordinary clients should only
    /// ever hold ids handed out by [`IrBuilder`].
    pub fn from_raw(index: u32) -> Self {
        ValueId(index)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Type of an SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 32-bit machine word (the only data type of the integer datapath).
    Word,
    /// A predicate bit (lives in p0..p3 after allocation).
    Pred,
    /// No value (stores, loops).
    Void,
}

/// Two-operand word ops, mapping onto the adder / multiplier / shifter /
/// soft-logic datapaths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Low 32 bits of the signed product.
    Mul,
    /// High 32 bits of the signed product.
    MulHi,
    /// High 32 bits of the unsigned product.
    MulUHi,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (0 for shifts ≥ 32).
    Shl,
    /// Logical right shift (0 for shifts ≥ 32).
    Lsr,
    /// Arithmetic right shift (sign for shifts ≥ 32).
    Asr,
    /// Saturating add.
    SatAdd,
    /// Saturating subtract.
    SatSub,
}

/// One-operand word ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Absolute value (wrapping at `i32::MIN`).
    Abs,
    /// Wrapping negate.
    Neg,
    /// Bitwise not.
    Not,
    /// Logical not: 1 if zero, else 0.
    Cnot,
    /// Population count.
    Popc,
    /// Count leading zeros.
    Clz,
    /// Bit reverse.
    Brev,
}

/// Predicate-producing comparisons (`setp.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Operation of one IR instruction. Operand arity and types are fixed
/// per variant (checked by [`Kernel::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Word constant.
    Const(i32),
    /// Thread id (`stid`).
    Tid,
    /// Thread count (`sntid`).
    Ntid,
    /// Binary word op; args `[a, b]`.
    Bin(BinOp),
    /// Unary word op; args `[a]`.
    Un(UnOp),
    /// Fused multiply-add `a*b + c` (low 32); args `[a, b, c]`.
    Mad,
    /// Fixed-point scaling multiply `(a*b) >> s` over the full 64-bit
    /// product; args `[a, b]`.
    MulShr(u32),
    /// Address generation `(a << s) + b`; args `[a, b]`.
    ShAdd(u32),
    /// Rotate right by an immediate; args `[a]`.
    Rotr(u32),
    /// Comparison producing a predicate; args `[a, b]`.
    Cmp(CmpOp),
    /// Predicated select `p ? a : b`; args `[a, b, p]`.
    Select,
    /// Shared-memory load `shared[base + off]`; args `[base]`.
    Load(u32),
    /// Shared-memory store `shared[base + off] = v`; args `[base, v]`.
    Store(u32),
    /// Zero-overhead hardware loop repeating its body region `count`
    /// times. Args are the *initial values* of the body's block
    /// parameters (empty for a plain loop); the body region and the
    /// next-iteration values ([`Inst::carried`]) are attached to the
    /// instruction.
    Loop(u32),
    /// The `idx`-th block parameter of the enclosing loop body: the
    /// value carried into the current iteration (the loop's `idx`-th
    /// arg on iteration 0, its `idx`-th carried value afterwards). Only
    /// valid as a leading instruction of a loop body.
    Param(u32),
    /// The final value of the enclosing loop's `idx`-th carried slot,
    /// readable after the loop; the single arg is the [`Op::Loop`]
    /// instruction itself.
    Result(u32),
}

impl Op {
    /// Result type.
    pub fn ty(&self) -> Ty {
        match self {
            Op::Cmp(_) => Ty::Pred,
            Op::Store(_) | Op::Loop(_) => Ty::Void,
            _ => Ty::Word,
        }
    }

    /// Expected operand count. [`Op::Loop`] is variadic (one arg per
    /// block parameter); this returns its minimum of 0 and the
    /// validator checks the real arity against the body's parameters.
    pub fn arity(&self) -> usize {
        match self {
            Op::Const(_) | Op::Tid | Op::Ntid | Op::Loop(_) | Op::Param(_) => 0,
            Op::Un(_) | Op::Rotr(_) | Op::Load(_) | Op::Result(_) => 1,
            Op::Bin(_) | Op::MulShr(_) | Op::ShAdd(_) | Op::Cmp(_) | Op::Store(_) => 2,
            Op::Mad | Op::Select => 3,
        }
    }

    /// True for ops with no side effects (eligible for CSE / DCE).
    /// Block parameters and loop results are excluded even though they
    /// compute nothing: two `Param(0)` instructions of *different*
    /// loops would otherwise value-number equal, and liveness for both
    /// is decided by their owning loop, not by ordinary use marking.
    pub fn is_pure(&self) -> bool {
        !matches!(
            self,
            Op::Load(_) | Op::Store(_) | Op::Loop(_) | Op::Param(_) | Op::Result(_)
        )
    }

    /// A small stable tag for content hashing.
    fn tag(&self) -> u32 {
        match self {
            Op::Const(_) => 0,
            Op::Tid => 1,
            Op::Ntid => 2,
            Op::Bin(b) => 3 + *b as u32,
            Op::Un(u) => 32 + *u as u32,
            Op::Mad => 48,
            Op::MulShr(_) => 49,
            Op::ShAdd(_) => 50,
            Op::Rotr(_) => 51,
            Op::Cmp(c) => 52 + *c as u32,
            Op::Select => 63,
            Op::Load(_) => 64,
            Op::Store(_) => 65,
            Op::Loop(_) => 66,
            Op::Param(_) => 67,
            Op::Result(_) => 68,
        }
    }

    /// Immediate payload for content hashing.
    fn payload(&self) -> u32 {
        match self {
            Op::Const(c) => *c as u32,
            Op::MulShr(s) | Op::ShAdd(s) | Op::Rotr(s) => *s,
            Op::Load(o) | Op::Store(o) => *o,
            Op::Loop(c) => *c,
            Op::Param(i) | Op::Result(i) => *i,
            _ => 0,
        }
    }
}

/// A predicate guard on an instruction: execute (write) only the lanes
/// where `pred` holds (negated if `negate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrGuard {
    /// Guarding predicate value (must have type [`Ty::Pred`]).
    pub pred: ValueId,
    /// Invert the predicate.
    pub negate: bool,
}

/// One instruction in the kernel arena.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Operation.
    pub op: Op,
    /// Operand values (arity per [`Op::arity`]).
    pub args: Vec<ValueId>,
    /// Optional dynamic thread scale (`active = nthreads >> k`, k ≤ 7).
    pub scale: Option<u8>,
    /// Optional predicate guard.
    pub guard: Option<IrGuard>,
    /// Body region (loops only).
    pub body: Option<Vec<ValueId>>,
    /// Next-iteration values of the body's block parameters, one per
    /// [`Op::Param`], read at the end of every iteration (loops only;
    /// `None` for plain loops).
    pub carried: Option<Vec<ValueId>>,
}

impl Inst {
    fn new(op: Op, args: Vec<ValueId>) -> Self {
        Inst {
            op,
            args,
            scale: None,
            guard: None,
            body: None,
            carried: None,
        }
    }
}

/// What a [`Kernel`] remembers about its own IR so a warm
/// [`crate::CompileCache`] lookup does not re-derive it: the
/// [`Kernel::validate`] outcome, the configuration-independent canonical
/// bytes, and the cache-key hash state after them. Write-once and
/// IR-only — the processor configuration is appended per lookup, so one
/// kernel launched under two configurations shares one cell.
#[derive(Default)]
struct Identity {
    /// `validate()`'s verdict and, for a well-formed kernel, its
    /// canonical IR bytes. Behind an `Arc` so a cache entry and every
    /// clone of the kernel compare material by pointer.
    canon: OnceLock<Result<Arc<[u8]>, CompileError>>,
    /// FNV-1a state after the cache's IR-namespace byte, the opt-level
    /// byte and `canon`, indexed by `opt_full`. Filled per level on
    /// first use: FNV state does not transfer between prefixes, and a
    /// miss should pay one pass, not two.
    keyed: [OnceLock<u64>; 2],
}

/// An SSA kernel: the instruction arena plus the root region.
///
/// Clones share a private identity memo (see `docs/COMPILER.md`, "The
/// compile cache"); it is not part of equality, and every `&mut` path
/// to the arena or a region detaches from it.
#[derive(Clone)]
pub struct Kernel {
    /// Kernel name (not part of the content hash).
    pub name: String,
    insts: Vec<Inst>,
    body: Vec<ValueId>,
    identity: Arc<Identity>,
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.insts == other.insts && self.body == other.body
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("insts", &self.insts)
            .field("body", &self.body)
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Identity cells filled on this thread (each fill is one
    /// `validate()` + one canonical serialization).
    pub(crate) static IDENTITY_FILLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Kernel {
    /// Assemble a kernel from an arena and a root region.
    pub(crate) fn from_parts(name: String, insts: Vec<Inst>, body: Vec<ValueId>) -> Self {
        Kernel {
            name,
            insts,
            body,
            identity: Arc::default(),
        }
    }

    /// The IR is about to change: leave the identity memo to whoever
    /// still shares it. A cell nobody else holds and nothing has filled
    /// is kept, so a pass pipeline pays for one detach, not one per
    /// rewrite.
    fn detach_identity(&mut self) {
        match Arc::get_mut(&mut self.identity) {
            Some(cell) if cell.canon.get().is_none() => {}
            Some(cell) => *cell = Identity::default(),
            None => self.identity = Arc::default(),
        }
    }

    /// The instruction behind a value.
    pub fn inst(&self, v: ValueId) -> &Inst {
        &self.insts[v.index()]
    }

    /// The whole arena, unreachable entries included.
    pub(crate) fn insts(&self) -> &[Inst] {
        &self.insts
    }

    pub(crate) fn inst_mut(&mut self, v: ValueId) -> &mut Inst {
        self.detach_identity();
        &mut self.insts[v.index()]
    }

    /// Append a fresh instruction to the arena (the caller places it
    /// into a region).
    pub(crate) fn append_inst(&mut self, op: Op, args: Vec<ValueId>) -> ValueId {
        self.detach_identity();
        let v = ValueId(self.insts.len() as u32);
        self.insts.push(Inst::new(op, args));
        v
    }

    /// Result type of a value.
    pub fn ty(&self, v: ValueId) -> Ty {
        self.inst(v).op.ty()
    }

    /// The root region.
    pub fn body(&self) -> &[ValueId] {
        &self.body
    }

    /// Append an instruction to the arena **and** the root region with
    /// no validation whatsoever — arity, types, scoping and attribute
    /// rules are all the caller's problem. Pair with
    /// [`Kernel::validate`]: this is the raw surface the fuzzer's
    /// near-miss mode uses to construct deliberately broken kernels and
    /// assert they are rejected with typed errors rather than panics.
    pub fn raw_push(&mut self, inst: Inst) -> ValueId {
        self.detach_identity();
        let v = ValueId(self.insts.len() as u32);
        self.insts.push(inst);
        self.body.push(v);
        v
    }

    /// Mutable access to an instruction, bypassing builder invariants
    /// (see [`Kernel::raw_push`]). Panics if `v` is out of the arena.
    pub fn raw_inst_mut(&mut self, v: ValueId) -> &mut Inst {
        self.inst_mut(v)
    }

    /// Mutable access to the root region, bypassing builder invariants
    /// (see [`Kernel::raw_push`]).
    pub fn raw_body_mut(&mut self) -> &mut Vec<ValueId> {
        self.detach_identity();
        &mut self.body
    }

    /// Maximum loop-nesting depth of the kernel (0 for straight-line
    /// code). Compared against `ProcessorConfig::loop_stack_depth` at
    /// compile time so an over-deep nest is a typed
    /// [`CompileError::LoopTooDeep`] instead of a runtime
    /// loop-stack overflow.
    pub fn loop_depth(&self) -> usize {
        fn depth(k: &Kernel, region: &[ValueId]) -> usize {
            region
                .iter()
                .map(|&v| match &k.inst(v).body {
                    Some(b) => 1 + depth(k, b),
                    None => 0,
                })
                .max()
                .unwrap_or(0)
        }
        depth(self, &self.body)
    }

    /// The constant behind a value, if it is an [`Op::Const`].
    pub fn as_const(&self, v: ValueId) -> Option<i32> {
        match self.inst(v).op {
            Op::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Number of instructions reachable from the root region (the
    /// figure the pass pipeline reports).
    pub fn live_insts(&self) -> usize {
        fn count(k: &Kernel, region: &[ValueId]) -> usize {
            region
                .iter()
                .map(|&v| match &k.inst(v).body {
                    Some(b) => 1 + count(k, b),
                    None => 1,
                })
                .sum()
        }
        count(self, &self.body)
    }

    /// Pre-order traversal of every region, outermost first.
    pub fn for_each_inst(&self, mut f: impl FnMut(ValueId, &Inst)) {
        fn walk(k: &Kernel, region: &[ValueId], f: &mut impl FnMut(ValueId, &Inst)) {
            for &v in region {
                f(v, k.inst(v));
                if let Some(body) = &k.inst(v).body {
                    walk(k, body, f);
                }
            }
        }
        walk(self, &self.body, &mut f);
    }

    /// The leading [`Op::Param`] instructions of a loop's body region,
    /// in declaration order (empty for plain loops or non-loop values).
    pub fn loop_params(&self, v: ValueId) -> Vec<ValueId> {
        match &self.inst(v).body {
            Some(body) => body
                .iter()
                .copied()
                .take_while(|&p| matches!(self.inst(p).op, Op::Param(_)))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Structural validation: arity, operand types, attribute ranges,
    /// SSA dominance (every use is preceded by its definition in the
    /// same or an enclosing region), and the block-parameter contract
    /// on loops (params lead the body with sequential indices; the
    /// loop's args and carried list both match them in count and type;
    /// carried values are visible at the end of the body).
    pub fn validate(&self) -> Result<(), CompileError> {
        fn bad(v: ValueId, detail: String) -> CompileError {
            CompileError::Malformed { value: v.0, detail }
        }
        fn walk(
            k: &Kernel,
            region: &[ValueId],
            visible: &mut ValueSet,
            sanctioned_params: &[ValueId],
            carried: Option<&[ValueId]>,
        ) -> Result<(), CompileError> {
            for &v in region {
                let inst = k.inst(v);
                if !matches!(inst.op, Op::Loop(_)) && inst.args.len() != inst.op.arity() {
                    return Err(bad(
                        v,
                        format!(
                            "{:?} expects {} operands, has {}",
                            inst.op,
                            inst.op.arity(),
                            inst.args.len()
                        ),
                    ));
                }
                for (i, &a) in inst.args.iter().enumerate() {
                    if !visible.contains(a) {
                        return Err(bad(v, format!("operand {a} does not dominate this use")));
                    }
                    let want = match (&inst.op, i) {
                        (Op::Select, 2) => Ty::Pred,
                        (Op::Result(_), 0) => {
                            // The operand is the loop itself, checked
                            // structurally below instead of by type.
                            continue;
                        }
                        _ => Ty::Word,
                    };
                    if k.ty(a) != want {
                        return Err(bad(v, format!("operand {i} ({a}) is not {want:?}")));
                    }
                }
                if let Some(g) = inst.guard {
                    if !visible.contains(g.pred) {
                        return Err(bad(v, format!("guard {} does not dominate", g.pred)));
                    }
                    if k.ty(g.pred) != Ty::Pred {
                        return Err(bad(v, format!("guard {} is not a predicate", g.pred)));
                    }
                }
                if let Some(s) = inst.scale {
                    if s > 7 {
                        return Err(bad(v, format!("thread scale {s} exceeds the 3-bit field")));
                    }
                }
                match inst.op {
                    Op::Load(off) | Op::Store(off) if off > 0xFFFF => {
                        return Err(bad(v, format!("memory offset {off} exceeds imm16")));
                    }
                    Op::Loop(count) => {
                        if count == 0 || count > 0xFFFF {
                            return Err(bad(v, format!("loop count {count} outside 1..=65535")));
                        }
                        // The hardware loop is uniform control flow
                        // (§3): per-lane masks on it have no ISA
                        // encoding and would be silently dropped.
                        if inst.guard.is_some() || inst.scale.is_some() {
                            return Err(bad(
                                v,
                                "loops are uniform control flow and cannot carry a \
                                 guard or thread scale"
                                    .into(),
                            ));
                        }
                        let body = inst
                            .body
                            .as_ref()
                            .ok_or_else(|| bad(v, "loop instruction has no body region".into()))?;
                        if body.is_empty() {
                            return Err(bad(v, "loop body is empty".into()));
                        }
                        // Block-parameter contract: params lead the
                        // body with sequential indices, and the loop's
                        // args (initial values) and carried list (next-
                        // iteration values) both match them in count.
                        let params = k.loop_params(v);
                        for (i, &p) in params.iter().enumerate() {
                            if k.inst(p).op != Op::Param(i as u32) {
                                return Err(bad(
                                    p,
                                    format!(
                                        "loop param {i} is {:?}, want Param({i})",
                                        k.inst(p).op
                                    ),
                                ));
                            }
                        }
                        if body[params.len()..]
                            .iter()
                            .any(|&b| matches!(k.inst(b).op, Op::Param(_)))
                        {
                            return Err(bad(v, "block parameters must lead the loop body".into()));
                        }
                        if inst.args.len() != params.len() {
                            return Err(bad(
                                v,
                                format!(
                                    "loop has {} initial values for {} block parameters",
                                    inst.args.len(),
                                    params.len()
                                ),
                            ));
                        }
                        let carried_len = inst.carried.as_ref().map_or(0, Vec::len);
                        if carried_len != params.len() {
                            return Err(bad(
                                v,
                                format!(
                                    "loop has {} carried values for {} block parameters",
                                    carried_len,
                                    params.len()
                                ),
                            ));
                        }
                        walk(k, body, visible, &params, inst.carried.as_deref())?;
                    }
                    Op::Param(_) => {
                        if !sanctioned_params.contains(&v) {
                            return Err(bad(
                                v,
                                "block parameter outside a loop body's leading positions".into(),
                            ));
                        }
                        if inst.guard.is_some() || inst.scale.is_some() {
                            return Err(bad(
                                v,
                                "block parameters cannot carry a guard or thread scale".into(),
                            ));
                        }
                    }
                    Op::Result(idx) => {
                        let target = inst.args[0];
                        if !matches!(k.inst(target).op, Op::Loop(_)) {
                            return Err(bad(v, format!("result operand {target} is not a loop")));
                        }
                        if idx as usize >= k.loop_params(target).len() {
                            return Err(bad(
                                v,
                                format!(
                                    "result index {idx} out of range for a loop with {} \
                                     block parameters",
                                    k.loop_params(target).len()
                                ),
                            ));
                        }
                        if inst.guard.is_some() || inst.scale.is_some() {
                            return Err(bad(
                                v,
                                "loop results cannot carry a guard or thread scale".into(),
                            ));
                        }
                    }
                    _ => {
                        if inst.body.is_some() {
                            return Err(bad(v, "only loops carry a body region".into()));
                        }
                    }
                }
                if !matches!(inst.op, Op::Loop(_)) && inst.carried.is_some() {
                    return Err(bad(v, "only loops carry next-iteration values".into()));
                }
                // One bit per value is only a scope if each value has
                // one defining position.
                if !visible.insert(v) {
                    return Err(bad(v, "value is placed in a region twice".into()));
                }
            }
            // The carried values are read at the end of every
            // iteration, while this region's definitions are still in
            // scope; check them here, before the scope closes.
            if let Some(cs) = carried {
                for (i, &c) in cs.iter().enumerate() {
                    if !visible.contains(c) {
                        return Err(bad(
                            c,
                            format!("carried value {i} ({c}) is not visible at the back edge"),
                        ));
                    }
                    if k.ty(c) != Ty::Word {
                        return Err(bad(c, format!("carried value {i} ({c}) is not a Word")));
                    }
                }
            }
            // Values defined in this region go out of scope with it (a
            // loop body's definitions are invisible after the loop).
            for &v in region {
                visible.remove(v);
            }
            Ok(())
        }
        let mut visible = ValueSet::new(self.insts.len());
        walk(self, &self.body, &mut visible, &[], None)
    }

    /// Canonical byte serialization of the kernel plus the processor
    /// configuration it will be compiled for: a dense renumbering in
    /// traversal order, independent of the kernel name and of arena
    /// garbage left behind by passes. Two kernels are
    /// compilation-equivalent exactly when their canonical bytes are
    /// equal — [`Kernel::content_hash`] hashes these bytes, and the
    /// [`crate::CompileCache`] compares them on every hit so a 64-bit
    /// key collision can never return the wrong program.
    pub fn canonical_bytes(&self, config: &ProcessorConfig) -> Vec<u8> {
        let mut out = self.canonical_ir();
        put(&mut out, config.threads as u32);
        put(&mut out, config.regs_per_thread as u32);
        put(&mut out, config.shared_words as u32);
        out.push(config.predicates as u8);
        put(&mut out, config.call_stack_depth as u32);
        put(&mut out, config.loop_stack_depth as u32);
        put(&mut out, config.imem_capacity as u32);
        out.push(match config.dsp_mode {
            DspMode::Integer => 0,
            DspMode::FloatingPoint => 1,
        });
        out
    }

    /// The configuration-independent prefix of
    /// [`Kernel::canonical_bytes`]: the region walk alone. Assumes
    /// well-formed regions (an operand that is defined nowhere panics).
    fn canonical_ir(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut dense = ValueMap::new(self.insts.len());
        fn walk(
            k: &Kernel,
            region: &[ValueId],
            dense: &mut ValueMap<u32>,
            numbered: &mut u32,
            out: &mut Vec<u8>,
        ) {
            put(out, 0xBE61_0000); // region open
            for &v in region {
                dense.insert(v, *numbered);
                *numbered += 1;
                let inst = k.inst(v);
                put(out, inst.op.tag());
                put(out, inst.op.payload());
                for &a in &inst.args {
                    put(out, dense[a]);
                }
                put(
                    out,
                    match inst.scale {
                        Some(s) => 0x100 | s as u32,
                        None => 0,
                    },
                );
                match inst.guard {
                    Some(g) => {
                        put(out, 0x200 | g.negate as u32);
                        put(out, dense[g.pred]);
                    }
                    None => put(out, 0),
                }
                if let Some(body) = &inst.body {
                    walk(k, body, dense, numbered, out);
                    // Carried values reference body definitions, so
                    // their dense ids only exist after the body walk.
                    match &inst.carried {
                        Some(cs) => {
                            put(out, 0x400 | cs.len() as u32);
                            for &c in cs {
                                put(out, dense[c]);
                            }
                        }
                        None => put(out, 0),
                    }
                }
            }
            put(out, 0xBE61_FFFF); // region close
        }
        walk(self, &self.body, &mut dense, &mut 0, &mut out);
        out
    }

    /// What the compile cache needs to key and check this kernel:
    /// its canonical IR bytes and the FNV-1a state after the cache's IR
    /// namespace byte, the opt-level byte and those bytes — the caller
    /// finishes the key with [`hash_config`]. A malformed kernel yields
    /// the typed error [`Kernel::validate`] gives. Computed once per
    /// identity cell: every later call, on this kernel or any clone of
    /// it, is two loads.
    pub(crate) fn cache_identity(&self, opt_full: bool) -> Result<(&Arc<[u8]>, Fnv), CompileError> {
        let canon = self
            .identity
            .canon
            .get_or_init(|| {
                #[cfg(test)]
                IDENTITY_FILLS.with(|n| n.set(n.get() + 1));
                // Validate before serializing: the canonical walk
                // assumes well-formed regions.
                self.validate()?;
                Ok(self.canonical_ir().into())
            })
            .as_ref()
            .map_err(Clone::clone)?;
        let state = *self.identity.keyed[opt_full as usize].get_or_init(|| {
            let mut h = Fnv::default();
            h.write_u8(crate::cache::IR_NAMESPACE);
            h.write_u8(opt_full as u8);
            h.write(canon);
            h.finish()
        });
        Ok((canon, Fnv(state)))
    }

    /// [`Kernel::validate`]'s verdict, answered from the identity memo
    /// when a cache lookup has filled it (every `&mut` path detaches the
    /// memo, so a filled one describes this exact IR), walked otherwise.
    pub(crate) fn validated(&self) -> Result<(), CompileError> {
        match self.identity.canon.get() {
            Some(verdict) => verdict.as_ref().map(|_| ()).map_err(Clone::clone),
            None => self.validate(),
        }
    }

    /// Content hash of the kernel + configuration — the
    /// [`crate::CompileCache`] key. Deterministic across processes
    /// (FNV-1a over [`Kernel::canonical_bytes`]).
    pub fn content_hash(&self, config: &ProcessorConfig) -> u64 {
        let mut h = Fnv::default();
        h.write(&self.canonical_bytes(config));
        h.finish()
    }
}

impl fmt::Display for Kernel {
    /// Human-readable IR listing (debugging aid, not a parseable form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(
            k: &Kernel,
            region: &[ValueId],
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            for &v in region {
                let inst = k.inst(v);
                write!(f, "{:indent$}", "", indent = indent)?;
                if inst.op.ty() != Ty::Void {
                    write!(f, "{v} = ")?;
                }
                write!(f, "{:?}", inst.op)?;
                for a in &inst.args {
                    write!(f, " {a}")?;
                }
                if let Some(s) = inst.scale {
                    write!(f, " .t{s}")?;
                }
                if let Some(g) = inst.guard {
                    write!(f, " @{}{}", if g.negate { "!" } else { "" }, g.pred)?;
                }
                writeln!(f)?;
                if let Some(body) = &inst.body {
                    render(k, body, indent + 2, f)?;
                    if let Some(cs) = &inst.carried {
                        write!(f, "{:indent$}next", "", indent = indent + 2)?;
                        for c in cs {
                            write!(f, " {c}")?;
                        }
                        writeln!(f)?;
                    }
                }
            }
            Ok(())
        }
        writeln!(f, "kernel {} {{", self.name)?;
        render(self, &self.body, 2, f)?;
        write!(f, "}}")
    }
}

/// Builds a [`Kernel`] instruction by instruction, with a region stack
/// for hardware loops. Structural misuse (unbalanced loops) panics, as
/// in [`simt_isa::KernelBuilder`]; semantic problems surface as typed
/// errors from [`Kernel::validate`] at compile time.
#[derive(Debug)]
pub struct IrBuilder {
    name: String,
    insts: Vec<Inst>,
    /// Region stack: `regions[0]` is the root, the top receives pushes.
    regions: Vec<Vec<ValueId>>,
    /// Loop instructions owning the open regions above the root, with
    /// their block-parameter counts.
    open_loops: Vec<(ValueId, usize)>,
    pending_scale: Option<u8>,
    pending_guard: Option<IrGuard>,
}

impl IrBuilder {
    /// A new, empty kernel.
    pub fn new(name: impl Into<String>) -> Self {
        IrBuilder {
            name: name.into(),
            insts: Vec::new(),
            regions: vec![Vec::new()],
            open_loops: Vec::new(),
            pending_scale: None,
            pending_guard: None,
        }
    }

    fn push(&mut self, op: Op, args: Vec<ValueId>) -> ValueId {
        let mut inst = Inst::new(op, args);
        inst.scale = self.pending_scale.take();
        inst.guard = self.pending_guard.take();
        let v = ValueId(self.insts.len() as u32);
        self.insts.push(inst);
        self.regions.last_mut().expect("region stack").push(v);
        v
    }

    /// Apply a dynamic thread scale to the *next* instruction.
    pub fn scale_next(&mut self, k: u8) -> &mut Self {
        self.pending_scale = Some(k & 0x7);
        self
    }

    /// Guard the *next* instruction on predicate `pred`.
    pub fn guard_next(&mut self, pred: ValueId, negate: bool) -> &mut Self {
        self.pending_guard = Some(IrGuard { pred, negate });
        self
    }

    /// Word constant.
    pub fn iconst(&mut self, v: i32) -> ValueId {
        self.push(Op::Const(v), vec![])
    }

    /// Thread id.
    pub fn tid(&mut self) -> ValueId {
        self.push(Op::Tid, vec![])
    }

    /// Thread count.
    pub fn ntid(&mut self) -> ValueId {
        self.push(Op::Ntid, vec![])
    }

    /// Generic binary op.
    pub fn bin(&mut self, op: BinOp, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::Bin(op), vec![a, b])
    }

    /// `a + b` (wrapping).
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Add, a, b)
    }

    /// `a - b` (wrapping).
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Sub, a, b)
    }

    /// `a * b` (low 32 bits).
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Mul, a, b)
    }

    /// Generic unary op.
    pub fn un(&mut self, op: UnOp, a: ValueId) -> ValueId {
        self.push(Op::Un(op), vec![a])
    }

    /// `a*b + c` (low 32 bits).
    pub fn mad(&mut self, a: ValueId, b: ValueId, c: ValueId) -> ValueId {
        self.push(Op::Mad, vec![a, b, c])
    }

    /// `(a*b) >> s` over the 64-bit product (fixed-point scaling).
    pub fn mulshr(&mut self, a: ValueId, b: ValueId, s: u32) -> ValueId {
        self.push(Op::MulShr(s & 63), vec![a, b])
    }

    /// `(a << s) + b` (address generation).
    pub fn shadd(&mut self, a: ValueId, s: u32, b: ValueId) -> ValueId {
        self.push(Op::ShAdd(s & 31), vec![a, b])
    }

    /// Rotate right by an immediate.
    pub fn rotr(&mut self, a: ValueId, s: u32) -> ValueId {
        self.push(Op::Rotr(s), vec![a])
    }

    /// Comparison producing a predicate value.
    pub fn cmp(&mut self, op: CmpOp, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::Cmp(op), vec![a, b])
    }

    /// `p ? a : b`.
    pub fn select(&mut self, a: ValueId, b: ValueId, p: ValueId) -> ValueId {
        self.push(Op::Select, vec![a, b, p])
    }

    /// `shared[base + off]`.
    pub fn load(&mut self, base: ValueId, off: u32) -> ValueId {
        self.push(Op::Load(off), vec![base])
    }

    /// `shared[base + off] = v`.
    pub fn store(&mut self, base: ValueId, off: u32, v: ValueId) {
        self.push(Op::Store(off), vec![base, v]);
    }

    /// Open a zero-overhead hardware loop repeating `count` times, with
    /// no loop-carried values. Close it with [`IrBuilder::end_loop`].
    ///
    /// # Panics
    /// If a scale or guard is pending: the hardware loop is uniform
    /// control flow and cannot be masked per lane.
    pub fn begin_loop(&mut self, count: u32) {
        self.begin_loop_carried(count, &[]);
    }

    /// Open a hardware loop whose body carries `inits.len()` values
    /// across iterations, returning the body's block parameters (the
    /// per-iteration values). On iteration 0 each parameter holds its
    /// entry in `inits`; afterwards it holds the matching value passed
    /// to [`IrBuilder::end_loop_carried`].
    ///
    /// ```
    /// use simt_compiler::ir::IrBuilder;
    ///
    /// // shared[tid + 64] = Σ_{i<8} shared[tid] (a carried accumulator)
    /// let mut b = IrBuilder::new("acc8");
    /// let tid = b.tid();
    /// let zero = b.iconst(0);
    /// let p = b.begin_loop_carried(8, &[zero]);   // p[0]: the running sum
    /// let x = b.load(tid, 0);
    /// let next = b.add(p[0], x);
    /// let r = b.end_loop_carried(&[next]);        // r[0]: the final sum
    /// b.store(tid, 64, r[0]);
    /// let kernel = b.finish();
    /// assert!(kernel.validate().is_ok());
    /// ```
    ///
    /// # Panics
    /// If a scale or guard is pending (loops are uniform control flow).
    pub fn begin_loop_carried(&mut self, count: u32, inits: &[ValueId]) -> Vec<ValueId> {
        assert!(
            self.pending_scale.is_none() && self.pending_guard.is_none(),
            "loops are uniform control flow and cannot carry a guard or thread scale"
        );
        let v = self.push(Op::Loop(count & 0xFFFF), inits.to_vec());
        self.open_loops.push((v, inits.len()));
        self.regions.push(Vec::new());
        (0..inits.len())
            .map(|i| self.push(Op::Param(i as u32), vec![]))
            .collect()
    }

    /// Close the innermost open loop.
    ///
    /// # Panics
    /// If no loop is open, or the open loop declared block parameters
    /// (close those with [`IrBuilder::end_loop_carried`]).
    pub fn end_loop(&mut self) {
        let &(_, n) = self.open_loops.last().expect("end_loop without begin_loop");
        assert_eq!(
            n, 0,
            "loop carries {n} value(s); close with end_loop_carried"
        );
        self.end_loop_carried(&[]);
    }

    /// Close the innermost open loop, passing the next-iteration value
    /// of each block parameter, and return the loop's results (the
    /// final carried values, visible after the loop).
    ///
    /// # Panics
    /// If no loop is open, `carried.len()` does not match the loop's
    /// parameter count, or a scale or guard is pending.
    pub fn end_loop_carried(&mut self, carried: &[ValueId]) -> Vec<ValueId> {
        assert!(
            self.pending_scale.is_none() && self.pending_guard.is_none(),
            "loop results cannot carry a guard or thread scale"
        );
        let (v, n) = self.open_loops.pop().expect("end_loop without begin_loop");
        assert_eq!(
            carried.len(),
            n,
            "loop declared {n} block parameter(s), got {} carried value(s)",
            carried.len()
        );
        let body = self.regions.pop().expect("loop body region");
        self.insts[v.index()].body = Some(body);
        if n > 0 {
            self.insts[v.index()].carried = Some(carried.to_vec());
        }
        (0..n)
            .map(|i| self.push(Op::Result(i as u32), vec![v]))
            .collect()
    }

    /// Finish the kernel.
    ///
    /// # Panics
    /// If a loop is still open.
    pub fn finish(mut self) -> Kernel {
        assert!(
            self.open_loops.is_empty(),
            "{} loop(s) left open",
            self.open_loops.len()
        );
        let body = self.regions.pop().expect("root region");
        Kernel::from_parts(self.name, self.insts, body)
    }
}

fn put(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a, 64-bit: a tiny deterministic hasher so cache keys are stable
/// across processes (std's `DefaultHasher` is randomly seeded).
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    /// The FNV-1a offset basis.
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// `write` and `finish` are the trait's; the fixed-width writes below
/// stay inherent so a key's bytes are little-endian on every host (the
/// trait's defaults feed native-endian bytes).
impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Fnv {
    pub(crate) fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }
}

/// Hash every configuration field that affects the compiled artifact.
pub(crate) fn hash_config(h: &mut Fnv, cfg: &ProcessorConfig) {
    h.write_u32(cfg.threads as u32);
    h.write_u32(cfg.regs_per_thread as u32);
    h.write_u32(cfg.shared_words as u32);
    h.write_u8(cfg.predicates as u8);
    h.write_u32(cfg.call_stack_depth as u32);
    h.write_u32(cfg.loop_stack_depth as u32);
    h.write_u32(cfg.imem_capacity as u32);
    h.write_u8(match cfg.dsp_mode {
        DspMode::Integer => 0,
        DspMode::FloatingPoint => 1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_ssa() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(3);
        let y = b.mul(x, c);
        b.store(tid, 64, y);
        let k = b.finish();
        assert!(k.validate().is_ok());
        assert_eq!(k.live_insts(), 5);
        assert_eq!(k.ty(y), Ty::Word);
    }

    #[test]
    fn loop_scoping_is_enforced() {
        // A value defined inside a loop body must not be used after it.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.begin_loop(4);
        let inner = b.load(tid, 0);
        let one = b.iconst(1);
        let bumped = b.add(inner, one);
        b.store(tid, 0, bumped);
        b.end_loop();
        let mut k = b.finish();
        assert!(k.validate().is_ok());
        // Force a use-after-scope: store the loop-local value at root.
        let escape = ValueId(k.insts.len() as u32);
        k.insts.push(Inst::new(Op::Store(0), vec![tid, bumped]));
        k.body.push(escape);
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn a_value_placed_in_two_regions_is_rejected() {
        // Scoping is one bit per value, which only means something if
        // each value has one defining position: the same instruction
        // listed at the root and again in a loop body is malformed, not
        // "visible twice".
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.begin_loop(2);
        b.store(tid, 0, tid);
        b.end_loop();
        b.store(tid, 1, tid);
        let mut k = b.finish();
        assert!(k.validate().is_ok());
        let loop_id = k.body[1];
        k.inst_mut(loop_id).body.as_mut().unwrap().push(tid);
        assert_eq!(
            k.validate(),
            Err(CompileError::Malformed {
                value: tid.0,
                detail: "value is placed in a region twice".into()
            })
        );
    }

    #[test]
    fn type_errors_are_caught() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let p = b.cmp(CmpOp::Lt, tid, tid);
        // Predicate used where a word is required.
        let bad = b.add(p, tid);
        b.store(tid, 0, bad);
        let k = b.finish();
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn content_hash_ignores_name_and_garbage() {
        let build = |name: &str| {
            let mut b = IrBuilder::new(name);
            let tid = b.tid();
            let x = b.load(tid, 0);
            b.store(tid, 16, x);
            b.finish()
        };
        let cfg = ProcessorConfig::default();
        let a = build("a");
        let mut b2 = build("b");
        assert_eq!(a.content_hash(&cfg), b2.content_hash(&cfg));
        // Arena garbage (an unreferenced instruction) must not matter.
        b2.insts.push(Inst::new(Op::Const(99), vec![]));
        assert_eq!(a.content_hash(&cfg), b2.content_hash(&cfg));
        // A different config must.
        assert_ne!(
            a.content_hash(&cfg),
            a.content_hash(&cfg.clone().with_threads(64))
        );
        // A different offset must.
        let mut c = build("c");
        if let Op::Store(off) = &mut c.inst_mut(c.body[2]).op {
            *off = 17;
        }
        assert_ne!(a.content_hash(&cfg), c.content_hash(&cfg));
    }

    #[test]
    #[should_panic(expected = "uniform control flow")]
    fn masked_loops_are_rejected_by_the_builder() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.cmp(CmpOp::Lt, tid, zero);
        b.guard_next(p, false);
        b.begin_loop(3);
    }

    #[test]
    fn masked_loops_are_rejected_by_validation() {
        // Construct the degenerate form directly (bypassing the
        // builder): a guard on a loop has no ISA encoding and must be
        // a typed error, never silently dropped at emission.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.cmp(CmpOp::Lt, tid, zero);
        b.begin_loop(3);
        b.store(tid, 0, tid);
        b.end_loop();
        let mut k = b.finish();
        let loop_id = *k.body.last().unwrap();
        k.inst_mut(loop_id).guard = Some(IrGuard {
            pred: p,
            negate: false,
        });
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn carried_loops_build_and_validate() {
        // acc over 8 iterations, plus a walking index: two carried slots.
        let mut b = IrBuilder::new("acc");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(8, &[zero, tid]);
        let x = b.load(p[1], 0);
        let acc2 = b.add(p[0], x);
        let one = b.iconst(1);
        let idx2 = b.add(p[1], one);
        let r = b.end_loop_carried(&[acc2, idx2]);
        b.store(tid, 64, r[0]);
        let k = b.finish();
        assert!(k.validate().is_ok(), "\n{k}");
        assert_eq!(k.ty(p[0]), Ty::Word);
        assert_eq!(k.ty(r[1]), Ty::Word);
        let s = k.to_string();
        assert!(s.contains("next"), "{s}");
        assert!(s.contains("Param(0)"), "{s}");
        assert!(s.contains("Result(1)"), "{s}");
    }

    #[test]
    fn carried_arity_mismatches_are_rejected() {
        // A carried list on a loop with no block parameters.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.begin_loop(4);
        b.store(tid, 0, tid);
        b.end_loop();
        let mut k = b.finish();
        let loop_id = k.body[1];
        k.inst_mut(loop_id).carried = Some(vec![tid]);
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));

        // An initial value without a matching parameter.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.begin_loop(4);
        b.store(tid, 0, tid);
        b.end_loop();
        let mut k = b.finish();
        let loop_id = k.body[1];
        k.inst_mut(loop_id).args = vec![tid];
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn params_outside_loop_bodies_are_rejected() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.store(tid, 0, tid);
        let mut k = b.finish();
        let p = k.append_inst(Op::Param(0), vec![]);
        k.body.push(p);
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn carried_values_must_be_visible_at_the_back_edge() {
        // Carried value defined inside a *nested* loop: out of scope at
        // the outer back edge.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(4, &[zero]);
        b.begin_loop(2);
        let inner = b.load(tid, 0);
        b.store(tid, 0, inner);
        b.end_loop();
        let r = b.end_loop_carried(&[p[0]]);
        b.store(tid, 64, r[0]);
        let mut k = b.finish();
        let outer = k.body[2];
        k.inst_mut(outer).carried = Some(vec![inner]);
        assert!(matches!(k.validate(), Err(CompileError::Malformed { .. })));
    }

    #[test]
    fn carried_lists_reach_the_content_hash() {
        let build = |swap: bool| {
            let mut b = IrBuilder::new("t");
            let tid = b.tid();
            let zero = b.iconst(0);
            let p = b.begin_loop_carried(4, &[zero, tid]);
            let a2 = b.add(p[0], p[1]);
            let i2 = b.add(p[1], p[0]);
            let r = if swap {
                b.end_loop_carried(&[i2, a2])
            } else {
                b.end_loop_carried(&[a2, i2])
            };
            b.store(tid, 0, r[0]);
            b.finish()
        };
        let cfg = ProcessorConfig::default();
        assert_ne!(
            build(false).content_hash(&cfg),
            build(true).content_hash(&cfg),
            "swapping the carried order must change the hash"
        );
    }

    #[test]
    fn display_renders_regions() {
        let mut b = IrBuilder::new("show");
        let tid = b.tid();
        b.begin_loop(3);
        let x = b.load(tid, 0);
        b.store(tid, 1, x);
        b.end_loop();
        let k = b.finish();
        let s = k.to_string();
        assert!(s.contains("Loop(3)"), "{s}");
        assert!(s.contains("Store(1)"), "{s}");
    }
}
