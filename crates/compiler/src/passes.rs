//! The optimization pipeline: constant folding, strength reduction,
//! loop-invariant code motion, common-subexpression elimination,
//! store-to-load forwarding, `mad` fusion and dead-code elimination,
//! with per-pass before/after instruction counts.
//!
//! Frontends are encouraged to emit clear, mechanical IR (explicit
//! address arithmetic, one constant per use); these passes recover the
//! hand-scheduled form. Constant evaluation reproduces the datapath
//! semantics bit-for-bit (wrapping adds, the shifter's ≥32 behaviour,
//! saturation), so folding can never change a kernel's output.

use crate::entity::{ValueMap, ValueSet};
use crate::ir::{BinOp, Fnv, IrGuard, Kernel, Op, UnOp, ValueId};
use crate::lower::{bin_opcode, un_opcode};
use simt_core::alu::native;
use simt_isa::Opcode;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A `HashMap` for the two tables whose keys are *structural* (CSE's
/// expression, store forwarding's address), hashed with the crate's
/// [`Fnv`]: the keys are a few words the compiler built itself, so
/// SipHash's flooding resistance buys nothing. A table keyed by a
/// [`ValueId`] is a [`crate::entity`] map instead.
type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// Architectural thread ceiling (the ISA's 1024-thread limit), used as
/// a sound over-approximation wherever a pass needs address ranges but
/// has no [`simt_core::ProcessorConfig`] in hand: every real build runs
/// at most this many threads, so ranges computed at the ceiling are
/// supersets of the real access sets and disjointness decided on them
/// holds for any configuration.
const MAX_THREADS: usize = 1024;

/// Before/after instruction counts of one pass invocation.
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Pass name.
    pub pass: &'static str,
    /// Live IR instructions before the pass ran.
    pub insts_before: usize,
    /// Live IR instructions after.
    pub insts_after: usize,
    /// Whether the pass rewrote anything (folds and CSE aliasing change
    /// instructions in place; the count only drops at the next DCE).
    pub changed: bool,
}

/// What the whole pipeline did to a kernel.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Every pass invocation, in execution order (the pipeline iterates
    /// to a fixpoint, so passes appear once per round).
    pub passes: Vec<PassStats>,
    /// Live IR instructions before the pipeline.
    pub insts_before: usize,
    /// Live IR instructions after.
    pub insts_after: usize,
}

impl PipelineReport {
    /// Fractional instruction-count reduction (0 when nothing shrank).
    pub fn reduction(&self) -> f64 {
        if self.insts_before == 0 {
            0.0
        } else {
            1.0 - self.insts_after as f64 / self.insts_before as f64
        }
    }
}

/// A pass: rewrites the kernel in place, reports whether it changed it.
type Pass = fn(&mut Kernel) -> bool;

/// The pipeline in run order; a pass's index is its bit in [`ENABLES`].
const PASSES: [(&str, Pass); 7] = [
    ("const-fold", const_fold),
    ("strength-reduce", strength_reduce),
    ("licm", licm),
    ("cse", cse),
    ("store-forward", forward_stores),
    ("mad-fuse", mad_fuse),
    ("dce", dce),
];
const CF: usize = 0;
const SR: usize = 1;
const LICM: usize = 2;
const CSE: usize = 3;
const SF: usize = 4;
const MF: usize = 5;
const DCE: usize = 6;
/// Every pass's bit.
const ALL: u8 = (1 << PASSES.len()) - 1;

/// `ENABLES[p]` has bit `q` set when a change by pass `p` may give pass
/// `q` something to do. It starts all-ones; each cleared bit says why
/// `q` cannot find new work in what `p` changed (or, for `p == q`, why
/// `p` finds nothing left after its own run by the time it runs again).
/// A wrongly cleared bit trips the cross-check in [`optimize`]; the set
/// bits sr → sr and dce → mf each have a test that needs its second run.
const ENABLES: [u8; 7] = {
    let mut t = [ALL; 7];
    // cf → cf: one walk in dominance order sees its own folds; this round's dce drops its aliases.
    t[CF] &= !(1 << CF);
    // sr → cf: a shift by k ≥ 1 of a non-constant is no identity and no fold.
    t[SR] &= !(1 << CF);
    // licm → cf, sr: hoisting changes no op, operand or mask.
    t[LICM] &= !(1 << CF | 1 << SR);
    // cse → cf, sr: an alias has its value's op, operands and scale.
    t[CSE] &= !(1 << CF | 1 << SR);
    // sf → sf: one walk sees its own forwards; this round's dce drops the loads it replaced.
    t[SF] &= !(1 << SF);
    // mf → cf, sr: a mad has no constant operand.
    t[MF] &= !(1 << CF | 1 << SR);
    // mf → sf: the fused add had a multiply operand, so it was no `tid + d` base.
    t[MF] &= !(1 << SF);
    // mf → mf: fusing only raises use counts, so no multiply becomes single-use.
    t[MF] &= !(1 << MF);
    // dce → cf, sr: survivors keep their ops, operands and masks.
    t[DCE] &= !(1 << CF | 1 << SR);
    // dce → licm: every store, which bounds a hoisted load, survives.
    t[DCE] &= !(1 << LICM);
    // dce → cse: removing values makes no two survivors equal.
    t[DCE] &= !(1 << CSE);
    // dce → sf: stores survive, and a removed loop held none.
    t[DCE] &= !(1 << SF);
    // dce → dce: liveness is marked from the stores, which all survive.
    t[DCE] &= !(1 << DCE);
    t
};

/// Run the full pipeline to a fixpoint (at most 8 rounds) and report
/// per-pass statistics.
///
/// A round visits the seven passes in order, but runs only the *dirty*
/// ones: every pass starts dirty, running one cleans it, and a change by
/// pass `p` dirties `ENABLES[p]` — the invalidation rule of LLVM's new
/// pass manager. A clean pass is recorded as the no-op run it would be
/// (`live → live`, unchanged), so the report, and with it every event
/// and pin derived from it, lists 7 runs per round exactly as if each
/// had run. The pipeline stops after a round in which nothing changed.
/// Debug builds run every skipped pass on a clone and assert it would
/// have changed nothing.
pub fn optimize(k: &mut Kernel) -> PipelineReport {
    // One count, carried from pass to pass: a pass that reports no
    // change left every region as it found it.
    let mut live = k.live_insts();
    let mut report = PipelineReport {
        insts_before: live,
        ..Default::default()
    };
    let mut dirty = ALL;
    for _round in 0..8 {
        let mut any = false;
        for (p, &(name, pass)) in PASSES.iter().enumerate() {
            let changed = if dirty & 1 << p != 0 {
                dirty &= !(1 << p);
                pass(k)
            } else {
                #[cfg(debug_assertions)]
                {
                    let mut probe = k.clone();
                    assert!(
                        !pass(&mut probe) && probe == *k,
                        "{name} was skipped as clean but would rewrite:\n{k}"
                    );
                }
                false
            };
            if changed {
                dirty |= ENABLES[p];
            }
            let stats = PassStats {
                pass: name,
                insts_before: live,
                insts_after: if changed { k.live_insts() } else { live },
                changed,
            };
            live = stats.insts_after;
            any |= changed;
            report.passes.push(stats);
        }
        if !any {
            break;
        }
    }
    report.insts_after = live;
    report
}

// ---- bit-exact constant evaluation -------------------------------------
//
// A folded instruction must yield what executing it would have: folding
// evaluates the opcode the op lowers to through `simt_core::alu::native`,
// the semantics the simulator's fast path itself runs.

pub(crate) fn eval_bin(op: BinOp, a: u32, b: u32) -> u32 {
    native(bin_opcode(op), a, b, 0, 0)
}

pub(crate) fn eval_un(op: UnOp, a: u32) -> u32 {
    native(un_opcode(op), a, 0, 0, 0)
}

// ---- constant folding -------------------------------------------------

/// Evaluate instructions whose operands are all constants, and apply
/// algebraic identities (`x+0`, `x*1`, `x*0`, `x|0`, `x^0`, `x&-1`,
/// shifts by zero). Guarded instructions are left alone: a guard is a
/// write mask, and masked lanes must keep seeing no write.
pub fn const_fold(k: &mut Kernel) -> bool {
    let mut replace = ValueMap::new(k.insts().len());
    let mut changed = false;
    let root = std::mem::take(k.raw_body_mut());
    fold_region(k, &root, &mut replace, &mut changed);
    *k.raw_body_mut() = root;
    changed
}

/// Lift a loop's body region out of the arena, so a pass can walk it
/// while rewriting the instructions it names (the caller puts it back).
/// `None`, and the kernel untouched, for anything but a loop.
fn take_body(k: &mut Kernel, v: ValueId) -> Option<Vec<ValueId>> {
    k.inst(v).body.as_ref()?;
    k.inst_mut(v).body.take()
}

/// Apply a replacement map to an instruction's operands and guard.
/// `inst_mut` detaches the kernel's identity memo, so it is taken only
/// for a slot that really changes.
fn rewrite_args(k: &mut Kernel, v: ValueId, replace: &ValueMap<ValueId>) {
    for i in 0..k.inst(v).args.len() {
        if let Some(r) = replace.get(k.inst(v).args[i]) {
            k.inst_mut(v).args[i] = r;
        }
    }
    if let Some(g) = k.inst(v).guard {
        if let Some(pred) = replace.get(g.pred) {
            k.inst_mut(v).guard = Some(IrGuard { pred, ..g });
        }
    }
}

/// Apply a replacement map to a loop's carried list. Carried values are
/// defined *inside* the body, so this must run after the body walk has
/// populated `replace` — unlike args, which are rewritten on entry.
fn rewrite_carried(k: &mut Kernel, v: ValueId, replace: &ValueMap<ValueId>) {
    if let Some(cs) = &mut k.inst_mut(v).carried {
        for c in cs.iter_mut() {
            if let Some(r) = replace.get(*c) {
                *c = r;
            }
        }
    }
}

fn fold_region(
    k: &mut Kernel,
    region: &[ValueId],
    replace: &mut ValueMap<ValueId>,
    changed: &mut bool,
) {
    for &v in region {
        rewrite_args(k, v, replace);
        if let Some(body) = take_body(k, v) {
            fold_region(k, &body, replace, changed);
            k.inst_mut(v).body = Some(body);
            rewrite_carried(k, v, replace);
            continue;
        }
        // A guard is a write mask and a scale is a lane mask: folding
        // either away would make inactive lanes observe a value they
        // never computed (their register keeps its prior contents), so
        // masked instructions are left exactly as written.
        // Non-loop arity is at most 3, and nothing below matches more.
        let inst = k.inst(v);
        if inst.guard.is_some() || inst.scale.is_some() || inst.args.len() > 3 {
            continue;
        }
        let (op, args) = (inst.op, inst.args.as_slice());
        let mut consts = [None; 3];
        for (c, &a) in consts.iter_mut().zip(args) {
            *c = k.as_const(a);
        }
        let consts = &consts[..args.len()];
        // Full evaluation.
        let folded: Option<u32> = match (op, consts) {
            (Op::Bin(b), [Some(x), Some(y)]) => Some(eval_bin(b, *x as u32, *y as u32)),
            (Op::Un(u), [Some(x)]) => Some(eval_un(u, *x as u32)),
            (Op::Mad, [Some(x), Some(y), Some(z)]) => {
                Some(native(Opcode::MadLo, *x as u32, *y as u32, *z as u32, 0))
            }
            (Op::MulShr(s), [Some(x), Some(y)]) => {
                Some(native(Opcode::MulShr, *x as u32, *y as u32, 0, s))
            }
            (Op::ShAdd(s), [Some(x), Some(y)]) => {
                Some(native(Opcode::ShAdd, *x as u32, *y as u32, 0, s))
            }
            _ => None,
        };
        if let Some(val) = folded {
            let inst = k.inst_mut(v);
            inst.op = Op::Const(val as i32);
            inst.args.clear();
            *changed = true;
            continue;
        }
        // Algebraic identities aliasing the result to an operand.
        let alias: Option<ValueId> = match (op, consts) {
            (Op::Bin(BinOp::Add), [_, Some(0)]) | (Op::Bin(BinOp::Sub), [_, Some(0)]) => {
                Some(args[0])
            }
            (Op::Bin(BinOp::Add), [Some(0), _]) => Some(args[1]),
            (Op::Bin(BinOp::Mul), [_, Some(1)]) => Some(args[0]),
            (Op::Bin(BinOp::Mul), [Some(1), _]) => Some(args[1]),
            (Op::Bin(BinOp::Or), [_, Some(0)]) | (Op::Bin(BinOp::Xor), [_, Some(0)]) => {
                Some(args[0])
            }
            (Op::Bin(BinOp::Or), [Some(0), _]) | (Op::Bin(BinOp::Xor), [Some(0), _]) => {
                Some(args[1])
            }
            (Op::Bin(BinOp::And), [_, Some(-1)]) => Some(args[0]),
            (Op::Bin(BinOp::And), [Some(-1), _]) => Some(args[1]),
            (Op::Bin(BinOp::Shl), [_, Some(0)])
            | (Op::Bin(BinOp::Lsr), [_, Some(0)])
            | (Op::Bin(BinOp::Asr), [_, Some(0)]) => Some(args[0]),
            _ => None,
        };
        if let Some(target) = alias {
            replace.insert(v, target);
            *changed = true;
            continue;
        }
        // Annihilators producing a fresh constant.
        let zero = matches!(
            (op, consts),
            (Op::Bin(BinOp::Mul), [_, Some(0)])
                | (Op::Bin(BinOp::Mul), [Some(0), _])
                | (Op::Bin(BinOp::And), [_, Some(0)])
                | (Op::Bin(BinOp::And), [Some(0), _])
        );
        if zero {
            let inst = k.inst_mut(v);
            inst.op = Op::Const(0);
            inst.args.clear();
            *changed = true;
        }
    }
}

// ---- strength reduction ----------------------------------------------

/// Rewrite expensive forms into cheaper datapath ops:
///
/// * `mul` by a power-of-two constant becomes a left shift through the
///   integrated multiplicative (barrel-replacement) shifter — same DSP
///   column, but eligible for the immediate `shli` form;
/// * address adds feeding a load/store base are folded into the
///   instruction's 16-bit offset field (`lds rd, [ra+imm]`), the
///   addressing mode the hand-written kernels use.
pub fn strength_reduce(k: &mut Kernel) -> bool {
    let mut changed = false;
    let mut new_consts: Vec<(i32, ValueId)> = Vec::new();
    let mut root = std::mem::take(k.raw_body_mut());
    reduce_region(k, &root, &mut new_consts, &mut changed);
    // Materialized shift-amount constants dominate everything from the
    // top of the root region.
    root.splice(0..0, new_consts.iter().map(|&(_, v)| v));
    *k.raw_body_mut() = root;
    changed
}

fn strength_const(k: &mut Kernel, pool: &mut Vec<(i32, ValueId)>, val: i32) -> ValueId {
    if let Some((_, v)) = pool.iter().find(|(c, _)| *c == val) {
        return *v;
    }
    let v = k.append_inst(Op::Const(val), vec![]);
    pool.push((val, v));
    v
}

fn reduce_region(
    k: &mut Kernel,
    region: &[ValueId],
    pool: &mut Vec<(i32, ValueId)>,
    changed: &mut bool,
) {
    for &v in region {
        if let Some(body) = take_body(k, v) {
            reduce_region(k, &body, pool, changed);
            k.inst_mut(v).body = Some(body);
            continue;
        }
        let inst = k.inst(v);
        match inst.op {
            // mul by 2^k -> shl by k (the in-place rewrite keeps any
            // scale/guard attributes, so masking semantics are intact).
            Op::Bin(BinOp::Mul) => {
                let (a, b) = (inst.args[0], inst.args[1]);
                let (x, c) = match (k.as_const(a), k.as_const(b)) {
                    (_, Some(c)) => (a, Some(c)),
                    (Some(c), _) => (b, Some(c)),
                    _ => (a, None),
                };
                if let Some(c) = c {
                    if c > 1 && (c as u32).is_power_of_two() {
                        let sh = strength_const(k, pool, c.trailing_zeros() as i32);
                        let inst = k.inst_mut(v);
                        inst.op = Op::Bin(BinOp::Shl);
                        inst.args = vec![x, sh];
                        *changed = true;
                    }
                }
            }
            // lds/sts base = add(x, const) -> fold into the offset field.
            // Only for unmasked adds: a guarded or scaled address add
            // leaves inactive lanes with a different base register, so
            // folding it would change the address those lanes access.
            Op::Load(off) | Op::Store(off) => {
                let base_inst = k.inst(inst.args[0]);
                if base_inst.guard.is_some() || base_inst.scale.is_some() {
                    continue;
                }
                if let Op::Bin(BinOp::Add) = base_inst.op {
                    let (ba, bb) = (base_inst.args[0], base_inst.args[1]);
                    let folded = match (k.as_const(ba), k.as_const(bb)) {
                        (_, Some(c)) => Some((ba, c)),
                        (Some(c), _) => Some((bb, c)),
                        _ => None,
                    };
                    if let Some((x, c)) = folded {
                        let new_off = off as i64 + c as i64;
                        if (0..=0xFFFF).contains(&new_off) {
                            let inst = k.inst_mut(v);
                            inst.args[0] = x;
                            inst.op = match inst.op {
                                Op::Load(_) => Op::Load(new_off as u32),
                                Op::Store(_) => Op::Store(new_off as u32),
                                _ => unreachable!(),
                            };
                            *changed = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

// ---- common-subexpression elimination ---------------------------------

/// Value-numbering key: op, operands and thread scale. A pure op has at
/// most three operands; the unused slots hold [`NO_OPERAND`].
type CseKey = (Op, [ValueId; 3], Option<u8>);

/// Pads a [`CseKey`]'s operand array (no arena is this large).
const NO_OPERAND: ValueId = ValueId(u32::MAX);

/// Dominator-scoped value numbering over pure, guard-free instructions:
/// two instructions with the same op, operands and thread scale compute
/// the same value, so later ones alias the first. Memory operations are
/// never merged.
pub fn cse(k: &mut Kernel) -> bool {
    let mut scopes: Vec<FnvMap<CseKey, ValueId>> = Vec::new();
    let mut replace = ValueMap::new(k.insts().len());
    let mut changed = false;

    /// Walk one region in a scope of its own, sized for it up front.
    fn walk(
        k: &mut Kernel,
        region: &[ValueId],
        scopes: &mut Vec<FnvMap<CseKey, ValueId>>,
        replace: &mut ValueMap<ValueId>,
        changed: &mut bool,
    ) {
        let scope = FnvMap::with_capacity_and_hasher(region.len(), Default::default());
        scopes.push(scope);
        for &v in region {
            rewrite_args(k, v, replace);
            if let Some(body) = take_body(k, v) {
                walk(k, &body, scopes, replace, changed);
                k.inst_mut(v).body = Some(body);
                rewrite_carried(k, v, replace);
                continue;
            }
            let inst = k.inst(v);
            let mut operands = [NO_OPERAND; 3];
            if !inst.op.is_pure() || inst.guard.is_some() || inst.args.len() > operands.len() {
                continue;
            }
            operands[..inst.args.len()].copy_from_slice(&inst.args);
            let key = (inst.op, operands, inst.scale);
            if let Some(&prior) = scopes.iter().rev().find_map(|s| s.get(&key)) {
                replace.insert(v, prior);
                *changed = true;
            } else {
                scopes.last_mut().expect("scope stack").insert(key, v);
            }
        }
        scopes.pop();
    }

    let root = std::mem::take(k.raw_body_mut());
    walk(k, &root, &mut scopes, &mut replace, &mut changed);
    *k.raw_body_mut() = root;
    changed
}

// ---- store-to-load forwarding -----------------------------------------

/// Forwarding state: `(base value, offset)` → last value stored there.
type AvailMap = FnvMap<(ValueId, u32), ValueId>;

/// Invalidate every entry a store to `(base, off)` may clobber. Entries
/// are only made for lane-unique `tid + d` bases, so an access through
/// one at offset `o` covers the words `[d + o, d + o + T)` for `T`
/// threads: two accesses with the same base are disjoint only when
/// their offsets are at least `T` apart — [`MAX_THREADS`], since the
/// pass has no configuration. Accesses with *different* base values may
/// still hit the same address (e.g. `tid` vs `tid + k`), so they are
/// conservatively killed.
fn clobber(avail: &mut AvailMap, base: ValueId, off: u32) {
    avail.retain(|&(b, o), _| b == base && o.abs_diff(off) >= MAX_THREADS as u32);
}

/// Collect every `(base, off)` a region (and its nested loops) stores
/// to, for parent-scope invalidation after a loop body.
fn region_store_keys(k: &Kernel, region: &[ValueId], keys: &mut Vec<(ValueId, u32)>) {
    for &v in region {
        let inst = k.inst(v);
        if let Op::Store(off) = inst.op {
            keys.push((inst.args[0], off));
        }
        if let Some(body) = &inst.body {
            region_store_keys(k, body, keys);
        }
    }
}

/// Replace loads that provably re-read a value just stored at the same
/// `(base, offset)` with the stored value itself — the round trip
/// through shared memory becomes a register move the next DCE deletes.
/// This is what turns a fused kernel chain's store/load handoff into a
/// direct SSA def-use edge. Masked (guarded or scaled) loads are left
/// alone — their inactive lanes keep the old register contents — and
/// masked stores only invalidate (a partial write forwards nothing).
/// Only stores through a lane-unique base (`tid + constant`, see
/// [`crate::analysis::lane_unique_base`]) are forwardable at all: a
/// uniform-address store collapses all lanes to one winning value that
/// a later load broadcasts, which per-lane forwarding would not
/// reproduce.
pub fn forward_stores(k: &mut Kernel) -> bool {
    let mut replace = ValueMap::new(k.insts().len());
    let mut changed = false;

    fn walk(
        k: &mut Kernel,
        region: &[ValueId],
        avail: &mut AvailMap,
        replace: &mut ValueMap<ValueId>,
        changed: &mut bool,
    ) {
        for &v in region {
            rewrite_args(k, v, replace);
            if let Some(body) = take_body(k, v) {
                // A loop body re-executes: values stored before the loop
                // are only safe to forward inside it when the body never
                // clobbers them — start the body with an empty map and
                // kill parent entries the body stores over.
                let mut inner = AvailMap::default();
                walk(k, &body, &mut inner, replace, changed);
                let mut keys = Vec::new();
                region_store_keys(k, &body, &mut keys);
                for (b, o) in keys {
                    clobber(avail, b, o);
                }
                k.inst_mut(v).body = Some(body);
                rewrite_carried(k, v, replace);
                continue;
            }
            let inst = k.inst(v);
            match inst.op {
                Op::Store(off) => {
                    let base = inst.args[0];
                    let value = inst.args[1];
                    let masked = inst.guard.is_some() || inst.scale.is_some();
                    clobber(avail, base, off);
                    if !masked && crate::analysis::lane_unique_base(k, base) {
                        avail.insert((base, off), value);
                    }
                }
                Op::Load(off) if inst.guard.is_none() && inst.scale.is_none() => {
                    if let Some(&stored) = avail.get(&(inst.args[0], off)) {
                        replace.insert(v, stored);
                        *changed = true;
                    }
                }
                _ => {}
            }
        }
    }

    let root = std::mem::take(k.raw_body_mut());
    walk(
        k,
        &root,
        &mut AvailMap::default(),
        &mut replace,
        &mut changed,
    );
    *k.raw_body_mut() = root;
    changed
}

// ---- mad fusion -------------------------------------------------------

/// Fuse `mul` → `add` chains into the DSP column's single `mad`
/// instruction: an unmasked add with one operand produced by an
/// unmasked, single-use, register-register multiply becomes
/// `mad(a, b, other)`; the multiply dies at the next DCE. Constant
/// operands are excluded on both sides — they would lower to the
/// immediate forms (`muli`/`addi`) anyway, and a `mad` would force a
/// `movi` that erases the win.
pub fn mad_fuse(k: &mut Kernel) -> bool {
    // Global use counts (args + guards + carried lists) decide
    // single-use multiplies.
    let mut uses: ValueMap<usize> = ValueMap::new(k.insts().len());
    k.for_each_inst(|_, inst| {
        let mut count = |a: ValueId| uses.insert(a, uses.get(a).unwrap_or(0) + 1);
        for &a in &inst.args {
            count(a);
        }
        if let Some(g) = inst.guard {
            count(g.pred);
        }
        if let Some(cs) = &inst.carried {
            for &c in cs {
                count(c);
            }
        }
    });

    let mut rewrites: Vec<(ValueId, [ValueId; 3])> = Vec::new();
    k.for_each_inst(|v, inst| {
        if inst.op != Op::Bin(BinOp::Add) || inst.guard.is_some() || inst.scale.is_some() {
            return;
        }
        for (slot, &m) in inst.args.iter().enumerate() {
            let other = inst.args[1 - slot];
            if m == other {
                continue; // add(m, m): the mul has two uses here
            }
            let mi = k.inst(m);
            let fusible = mi.op == Op::Bin(BinOp::Mul)
                && mi.guard.is_none()
                && mi.scale.is_none()
                && uses.get(m) == Some(1)
                && k.as_const(mi.args[0]).is_none()
                && k.as_const(mi.args[1]).is_none()
                && k.as_const(other).is_none();
            if fusible {
                rewrites.push((v, [mi.args[0], mi.args[1], other]));
                break;
            }
        }
    });

    let changed = !rewrites.is_empty();
    for (v, args) in rewrites {
        let inst = k.inst_mut(v);
        inst.op = Op::Mad;
        inst.args = args.to_vec();
    }
    changed
}

// ---- dead-store elision (fusion support) ------------------------------

/// Remove root-region stores into declared dead ranges — shared-memory
/// windows a fused kernel's caller has proven nothing downstream reads
/// (the intermediate buffers of a fused launch chain). A store goes only
/// when its address range resolves (see [`crate::analysis`]), lies
/// inside one dead range, and no later load in the kernel may read any
/// part of that range. Returns the number of stores removed.
///
/// This is not part of [`optimize`]: dead ranges are an *external* fact
/// about the launch graph, not derivable from the kernel alone.
pub fn elide_stores(k: &mut Kernel, dead: &[(usize, usize)], threads: usize) -> usize {
    use crate::analysis::{access_range, ranges_intersect};

    // Pre-order index of every instruction (matches execution order:
    // a loop body sits at its header's position, repeated).
    let mut index = ValueMap::new(k.insts().len());
    let mut loads: Vec<(usize, Option<(usize, usize)>)> = Vec::new();
    {
        let mut i = 0usize;
        k.for_each_inst(|v, inst| {
            index.insert(v, i);
            if let Op::Load(off) = inst.op {
                loads.push((i, access_range(k, inst.args[0], off, threads)));
            }
            i += 1;
        });
    }

    let mut remove: Vec<ValueId> = Vec::new();
    for &v in k.body() {
        let inst = k.inst(v);
        let Op::Store(off) = inst.op else { continue };
        let Some(range) = access_range(k, inst.args[0], off, threads) else {
            continue;
        };
        if !dead.iter().any(|&(lo, hi)| lo <= range.0 && range.1 <= hi) {
            continue;
        }
        let pos = index[v];
        let read_later = loads
            .iter()
            .any(|&(p, r)| p > pos && r.is_none_or(|r| ranges_intersect(r, range)));
        if !read_later {
            remove.push(v);
        }
    }
    let removed = remove.len();
    k.raw_body_mut().retain(|v| !remove.contains(v));
    removed
}

// ---- dead-code elimination --------------------------------------------

/// Remove instructions whose results are never used. Stores are the
/// roots of liveness (a kernel's output is its memory effects); loops
/// survive if their bodies contain a live store or any of their
/// [`Op::Result`]s is live; unused loads are removed (they have no
/// memory effect, only a cycle cost). A live loop keeps its *entire*
/// block-parameter machinery — params, initial values and carried
/// values — so the three lists stay index-aligned.
pub fn dce(k: &mut Kernel) -> bool {
    fn effectful(k: &Kernel, v: ValueId) -> bool {
        let inst = k.inst(v);
        match &inst.op {
            Op::Store(_) => true,
            Op::Loop(_) => inst
                .body
                .as_ref()
                .is_some_and(|b| b.iter().any(|&c| effectful(k, c))),
            _ => false,
        }
    }

    // Seed phase: every store, plus the chain of loops enclosing it —
    // a store inside a loop body depends on the loop's carried state
    // for iterations past the first, so the loop (and with it the
    // params/inits/carried lists) must be traced, not just kept.
    let mut work: Vec<ValueId> = Vec::new();
    let mut owner = ValueMap::new(k.insts().len()); // param -> loop
    fn seed(
        k: &Kernel,
        region: &[ValueId],
        stack: &mut Vec<ValueId>,
        work: &mut Vec<ValueId>,
        owner: &mut ValueMap<ValueId>,
    ) {
        for &v in region {
            let inst = k.inst(v);
            if matches!(inst.op, Op::Store(_)) {
                work.push(v);
                work.extend(stack.iter().copied());
            }
            if matches!(inst.op, Op::Param(_)) {
                if let Some(&l) = stack.last() {
                    owner.insert(v, l);
                }
            }
            if let Some(body) = &inst.body {
                stack.push(v);
                seed(k, body, stack, work, owner);
                stack.pop();
            }
        }
    }
    let mut stack = Vec::new();
    seed(k, k.body(), &mut stack, &mut work, &mut owner);

    // Mark phase: everything a live instruction (transitively) reads.
    // Marking a loop pulls in its initial values (args), carried values
    // and block parameters; marking a param pulls in its owning loop;
    // marking a result pulls in the loop through its arg.
    let mut marked = ValueSet::new(k.insts().len());
    while let Some(v) = work.pop() {
        if !marked.insert(v) {
            continue;
        }
        let inst = k.inst(v);
        work.extend(inst.args.iter().copied());
        if let Some(g) = inst.guard {
            work.push(g.pred);
        }
        if matches!(inst.op, Op::Loop(_)) {
            if let Some(cs) = &inst.carried {
                work.extend(cs.iter().copied());
            }
            work.extend(k.loop_params(v));
        }
        if matches!(inst.op, Op::Param(_)) {
            if let Some(l) = owner.get(v) {
                work.push(l);
            }
        }
    }

    // Sweep phase: keep the marked or effectful nodes of every region,
    // in place; true if any node went.
    fn sweep(k: &mut Kernel, region: &mut Vec<ValueId>, marked: &ValueSet) -> bool {
        let before = region.len();
        region.retain(|&v| marked.contains(v) || effectful(k, v));
        let mut removed = region.len() != before;
        for &v in region.iter() {
            if let Some(mut body) = take_body(k, v) {
                removed |= sweep(k, &mut body, marked);
                k.inst_mut(v).body = Some(body);
            }
        }
        removed
    }

    let mut root = std::mem::take(k.raw_body_mut());
    let removed = sweep(k, &mut root, &marked);
    *k.raw_body_mut() = root;
    removed
}

// ---- loop-invariant code motion ---------------------------------------

/// Hoist instructions out of hardware-loop bodies when every operand is
/// defined outside the body — a loop re-executes them `count` times for
/// the same result. Pure, unmasked instructions (constants, ALU ops,
/// compares) hoist freely; a **load** additionally requires that no
/// store anywhere in the body may alias it, decided with the
/// [`crate::analysis`] address resolver at the architectural thread
/// ceiling (a sound over-approximation — see `MAX_THREADS`). Masked
/// (guarded or thread-scaled) instructions, stores, params, results and
/// nested loops never move. Inner loops are processed first, so an
/// invariant hoists as many levels as its operands allow per pass, and
/// the pipeline's fixpoint iteration finishes the job.
pub fn licm(k: &mut Kernel) -> bool {
    let mut changed = false;
    let root = std::mem::take(k.raw_body_mut());
    let root = licm_region(k, root, &mut changed);
    *k.raw_body_mut() = root;
    changed
}

/// All values defined anywhere in a region tree (the loop body and its
/// nested bodies).
fn region_defs(k: &Kernel, region: &[ValueId], defs: &mut ValueSet) {
    for &v in region {
        defs.insert(v);
        if let Some(body) = &k.inst(v).body {
            region_defs(k, body, defs);
        }
    }
}

/// The address range of every store in a region tree; `None` as soon as
/// one store's range cannot be resolved ("may write everything").
fn region_store_ranges(k: &Kernel, region: &[ValueId]) -> Option<Vec<(usize, usize)>> {
    let mut out = Some(Vec::new());
    fn walk(k: &Kernel, region: &[ValueId], out: &mut Option<Vec<(usize, usize)>>) {
        for &v in region {
            let inst = k.inst(v);
            if let Op::Store(off) = inst.op {
                match (
                    crate::analysis::access_range(k, inst.args[0], off, MAX_THREADS),
                    out.as_mut(),
                ) {
                    (Some(r), Some(list)) => list.push(r),
                    _ => *out = None,
                }
            }
            if let Some(body) = &inst.body {
                walk(k, body, out);
            }
        }
    }
    walk(k, region, &mut out);
    out
}

fn licm_region(k: &mut Kernel, region: Vec<ValueId>, changed: &mut bool) -> Vec<ValueId> {
    let mut out = Vec::with_capacity(region.len());
    for v in region {
        let Some(body) = take_body(k, v) else {
            out.push(v);
            continue;
        };
        // Inner loops first: their invariants land in this body and may
        // hoist again right below.
        let mut body = licm_region(k, body, changed);

        let mut defined = ValueSet::new(k.insts().len());
        region_defs(k, &body, &mut defined);
        let store_ranges = region_store_ranges(k, &body);

        loop {
            let mut hoisted_any = false;
            let mut remaining = Vec::with_capacity(body.len());
            for (i, &bv) in body.iter().enumerate() {
                // Never empty the body: a loop must keep at least one
                // instruction to repeat.
                let still_in_body = remaining.len() + (body.len() - i - 1);
                if still_in_body >= 1 && hoistable(k, bv, &defined, &store_ranges) {
                    out.push(bv);
                    defined.remove(bv);
                    hoisted_any = true;
                    *changed = true;
                } else {
                    remaining.push(bv);
                }
            }
            body = remaining;
            if !hoisted_any {
                break;
            }
        }
        k.inst_mut(v).body = Some(body);
        out.push(v);
    }
    out
}

/// Whether one body instruction may move in front of the loop.
fn hoistable(
    k: &Kernel,
    v: ValueId,
    defined: &ValueSet,
    store_ranges: &Option<Vec<(usize, usize)>>,
) -> bool {
    let inst = k.inst(v);
    if inst.guard.is_some() || inst.scale.is_some() {
        return false; // masked: executes differently per lane
    }
    if inst.args.iter().any(|&a| defined.contains(a)) {
        return false; // depends on per-iteration state
    }
    match &inst.op {
        Op::Store(_) | Op::Loop(_) | Op::Param(_) | Op::Result(_) => false,
        Op::Load(off) => {
            // Safe only when provably no store in the body can touch
            // the loaded range — then every iteration (and the hoisted
            // position) reads the same memory.
            let Some(range) = crate::analysis::access_range(k, inst.args[0], *off, MAX_THREADS)
            else {
                return false;
            };
            match store_ranges {
                Some(writes) => !writes
                    .iter()
                    .any(|&w| crate::analysis::ranges_intersect(w, range)),
                None => false,
            }
        }
        _ => true, // pure ALU/compare/constant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, IrBuilder};

    #[test]
    fn folds_constant_expressions() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c2 = b.iconst(20);
        let c3 = b.iconst(3);
        let s = b.add(c2, c3); // 23
        b.store(tid, 0, s);
        let mut k = b.finish();
        let r = optimize(&mut k);
        // tid, const 23, store.
        assert_eq!(k.live_insts(), 3, "\n{k}");
        assert!(r.insts_after < r.insts_before);
        let stored = k.inst(k.body()[k.body().len() - 1]).args[1];
        assert_eq!(k.as_const(stored), Some(23));
    }

    #[test]
    fn identities_and_dce() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let z = b.iconst(0);
        let y = b.add(x, z); // x + 0 -> x
        let dead = b.mul(x, x); // unused
        let _ = dead;
        b.store(tid, 8, y);
        let mut k = b.finish();
        optimize(&mut k);
        // tid, load, store survive.
        assert_eq!(k.live_insts(), 3, "\n{k}");
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c8 = b.iconst(8);
        let y = b.mul(x, c8);
        b.store(tid, 4, y);
        let mut k = b.finish();
        optimize(&mut k);
        let mut saw_shift = false;
        k.for_each_inst(|_, inst| {
            assert!(!matches!(inst.op, Op::Bin(BinOp::Mul)), "mul survived");
            if let Op::Bin(BinOp::Shl) = inst.op {
                saw_shift = true;
            }
        });
        assert!(saw_shift);
    }

    #[test]
    fn folding_matches_hardware_shift_semantics() {
        // Shifts >= 32 flush to zero / sign, exactly as the shifter does.
        assert_eq!(eval_bin(BinOp::Shl, 1, 32), 0);
        assert_eq!(eval_bin(BinOp::Lsr, 0xFFFF_FFFF, 40), 0);
        assert_eq!(eval_bin(BinOp::Asr, 0x8000_0000, 40), 0xFFFF_FFFF);
        assert_eq!(eval_bin(BinOp::SatAdd, i32::MAX as u32, 1), i32::MAX as u32);
        assert_eq!(eval_un(UnOp::Abs, i32::MIN as u32), i32::MIN as u32);
    }

    #[test]
    fn cse_merges_address_math_but_not_loads() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c = b.iconst(100);
        let a1 = b.add(tid, c);
        let c2 = b.iconst(100);
        let a2 = b.add(tid, c2); // same address, separately built
        let l1 = b.load(a1, 0);
        let l2 = b.load(a2, 0); // loads must NOT merge
        let s = b.add(l1, l2);
        b.store(tid, 0, s);
        let mut k = b.finish();
        cse(&mut k);
        dce(&mut k);
        let mut loads = 0;
        let mut adds = 0;
        k.for_each_inst(|_, inst| match inst.op {
            Op::Load(_) => loads += 1,
            Op::Bin(BinOp::Add) => adds += 1,
            _ => {}
        });
        assert_eq!(loads, 2);
        assert_eq!(adds, 2, "\n{k}"); // one address add + the sum
    }

    #[test]
    fn addressing_fold_moves_adds_into_offsets() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c = b.iconst(1024);
        let addr = b.add(tid, c);
        let x = b.load(addr, 0);
        b.store(addr, 2048, x);
        let mut k = b.finish();
        optimize(&mut k);
        let mut offs = Vec::new();
        k.for_each_inst(|_, inst| match inst.op {
            Op::Load(o) | Op::Store(o) => offs.push(o),
            Op::Bin(BinOp::Add) => panic!("address add survived:\n{inst:?}"),
            _ => {}
        });
        assert_eq!(offs, vec![1024, 3072]);
    }

    #[test]
    fn guarded_instructions_are_not_folded_or_merged() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c0 = b.iconst(0);
        let p = b.cmp(CmpOp::Lt, tid, c0);
        b.guard_next(p, false);
        let g1 = b.add(tid, c0); // guarded: may not alias to tid
        b.guard_next(p, false);
        let g2 = b.add(tid, c0); // identical but guarded: no CSE
        let s = b.add(g1, g2);
        b.store(tid, 0, s);
        let mut k = b.finish();
        optimize(&mut k);
        let mut guarded_adds = 0;
        k.for_each_inst(|_, inst| {
            if inst.guard.is_some() && matches!(inst.op, Op::Bin(BinOp::Add)) {
                guarded_adds += 1;
            }
        });
        assert_eq!(guarded_adds, 2, "\n{k}");
    }

    #[test]
    fn scaled_instructions_are_never_folded() {
        // A thread scale is a lane mask: folding a scaled const add to
        // an unscaled constant would make inactive lanes observe a
        // value they never computed. The scaled add must survive.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c2 = b.iconst(2);
        let c3 = b.iconst(3);
        b.scale_next(1);
        let v = b.add(c2, c3);
        b.store(tid, 0, v);
        let mut k = b.finish();
        optimize(&mut k);
        let mut scaled_add = None;
        k.for_each_inst(|_, inst| {
            if matches!(inst.op, Op::Bin(BinOp::Add)) {
                scaled_add = inst.scale;
            }
        });
        assert_eq!(scaled_add, Some(1), "\n{k}");
    }

    #[test]
    fn stores_forward_into_matching_loads() {
        // store then load at the same (base, offset): the round trip
        // collapses to the stored value, and DCE sweeps both the load
        // and (here) nothing else — the store's effect remains.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        b.store(tid, 64, x);
        let y = b.load(tid, 64); // forwards to x
        let z = b.add(y, y);
        b.store(tid, 128, z);
        let mut k = b.finish();
        optimize(&mut k);
        let mut loads = 0;
        k.for_each_inst(|_, inst| {
            if matches!(inst.op, Op::Load(_)) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1, "round-trip load must be forwarded:\n{k}");
    }

    #[test]
    fn forwarding_respects_clobbers_and_masks() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        b.store(tid, 64, x);
        // An intervening store through a *different* base may alias.
        let other = b.load(tid, 1);
        b.store(other, 64, x);
        let y = b.load(tid, 64); // must NOT forward
        b.store(tid, 128, y);
        // A scaled load never forwards (inactive lanes keep old regs).
        b.store(tid, 256, x);
        b.scale_next(1);
        let s = b.load(tid, 256);
        b.store(tid, 300, s);
        let mut k = b.finish();
        let before = {
            let mut loads = 0;
            k.for_each_inst(|_, i| {
                if matches!(i.op, Op::Load(_)) {
                    loads += 1;
                }
            });
            loads
        };
        optimize(&mut k);
        let mut after = 0;
        k.for_each_inst(|_, i| {
            if matches!(i.op, Op::Load(_)) {
                after += 1;
            }
        });
        assert_eq!(after, before, "no load may be forwarded here:\n{k}");
    }

    #[test]
    fn a_store_overlapping_other_lanes_kills_the_forwarded_value() {
        // At 16 threads the store at offset 0 writes words [0, 16),
        // which covers words [1, 16) that the store at offset 1 wrote:
        // lane t's 7 lands on lane t-1's word. Only the last lane
        // reads back its own tid, so forwarding `tid` is wrong.
        let mut b = IrBuilder::new("overlap");
        let tid = b.tid();
        let seven = b.iconst(7);
        b.store(tid, 1, tid);
        b.store(tid, 0, seven);
        let x = b.load(tid, 1);
        b.store(tid, 200, x);
        let k = b.finish();
        let cfg = simt_core::ProcessorConfig::small().with_threads(16);
        let run = |opt| {
            let compiled = crate::compile(&k, &cfg, opt).unwrap();
            let mut cpu = simt_core::Processor::new(cfg.clone()).unwrap();
            cpu.load_program(&compiled.program).unwrap();
            cpu.run(simt_core::RunOptions::default()).unwrap();
            cpu.shared().read_words(200, 16).unwrap()
        };
        let mut expected = vec![7; 16];
        expected[15] = 15;
        assert_eq!(run(crate::OptLevel::None), expected);
        assert_eq!(run(crate::OptLevel::Full), expected);
    }

    #[test]
    fn uniform_address_stores_never_forward_per_lane_values() {
        // Every lane stores its tid to ONE address: the hardware keeps
        // a single winner (highest thread id), and the load broadcasts
        // it. Forwarding would hand each lane its own tid instead —
        // the store/load round trip must survive.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        b.store(zero, 100, tid);
        let winner = b.load(zero, 100);
        b.store(tid, 200, winner);
        let mut k = b.finish();
        optimize(&mut k);
        let mut loads = 0;
        k.for_each_inst(|_, i| {
            if matches!(i.op, Op::Load(_)) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1, "broadcast load must survive:\n{k}");
    }

    #[test]
    fn loop_bodies_do_not_forward_across_iterations() {
        // The body loads, bumps and stores the same cell: iteration i+1
        // must re-load what iteration i stored, so the load survives.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.store(tid, 0, tid);
        b.begin_loop(4);
        let x = b.load(tid, 0);
        let one = b.iconst(1);
        let y = b.add(x, one);
        b.store(tid, 0, y);
        b.end_loop();
        let mut k = b.finish();
        optimize(&mut k);
        let mut loads = 0;
        k.for_each_inst(|_, i| {
            if matches!(i.op, Op::Load(_)) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1, "loop-carried load must survive:\n{k}");
    }

    #[test]
    fn mul_add_chains_fuse_to_mad() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let y = b.load(tid, 64);
        let w = b.load(tid, 128);
        let p = b.mul(x, y);
        let z = b.add(p, w);
        b.store(tid, 256, z);
        let mut k = b.finish();
        let r = optimize(&mut k);
        let mut mads = 0;
        let mut muls = 0;
        k.for_each_inst(|_, i| match i.op {
            Op::Mad => mads += 1,
            Op::Bin(BinOp::Mul) => muls += 1,
            _ => {}
        });
        assert_eq!((mads, muls), (1, 0), "\n{k}");
        assert!(r.insts_after < r.insts_before);
    }

    #[test]
    fn mad_fusion_skips_consts_multi_use_and_masks() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let y = b.load(tid, 64);
        // Const multiply: stays muli + add.
        let c = b.iconst(3);
        let p1 = b.mul(x, c);
        let s1 = b.add(p1, y);
        b.store(tid, 128, s1);
        // Multi-use multiply: both uses keep it alive, no fusion.
        let p2 = b.mul(x, y);
        let s2 = b.add(p2, y);
        b.store(tid, 192, s2);
        b.store(tid, 200, p2);
        // Guarded add: write-mask semantics, no fusion.
        let zero = b.iconst(0);
        let g = b.cmp(CmpOp::Lt, tid, zero);
        let p3 = b.mul(x, y);
        b.guard_next(g, false);
        let s3 = b.add(p3, y);
        b.store(tid, 220, s3);
        let mut k = b.finish();
        optimize(&mut k);
        let mut mads = 0;
        k.for_each_inst(|_, i| {
            if matches!(i.op, Op::Mad) {
                mads += 1;
            }
        });
        assert_eq!(mads, 0, "\n{k}");
    }

    #[test]
    fn licm_hoists_invariant_work_out_of_loop_bodies() {
        // Per-iteration: a constant, an invariant multiply and an
        // invariant broadcast load (taps at a constant address the body
        // never stores over). All three must hoist; the carried update
        // and the store stay.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(8, &[zero]);
        let c3 = b.iconst(3);
        let bias = b.mul(tid, c3); // invariant: tid and const defined outside
        let tap = b.load(zero, 2048); // broadcast, no aliasing store
        let t1 = b.add(bias, tap);
        let next = b.add(p[0], t1);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let mut k = b.finish();
        licm(&mut k);
        assert!(k.validate().is_ok(), "\n{k}");
        let loop_v = k
            .body()
            .iter()
            .copied()
            .find(|&v| matches!(k.inst(v).op, Op::Loop(_)))
            .unwrap();
        let body = k.inst(loop_v).body.clone().unwrap();
        assert!(
            !body.iter().any(|&v| matches!(k.inst(v).op, Op::Load(_))),
            "invariant load must hoist:\n{k}"
        );
        assert!(
            !body
                .iter()
                .any(|&v| matches!(k.inst(v).op, Op::Bin(BinOp::Mul))),
            "invariant multiply must hoist:\n{k}"
        );
        // t1 = bias + tap is invariant too and hoists on the same pass
        // (inner-first processing re-examines after each hoist round).
        let adds_in_body = body
            .iter()
            .filter(|&&v| matches!(k.inst(v).op, Op::Bin(BinOp::Add)))
            .count();
        assert_eq!(adds_in_body, 1, "only the carried update stays:\n{k}");
    }

    #[test]
    fn licm_keeps_loads_the_body_may_store_over() {
        // The body stores through tid: a tid-based load may alias it
        // and must stay put.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(4, &[zero]);
        let x = b.load(tid, 0); // aliases the store below
        let next = b.add(p[0], x);
        b.store(tid, 0, next);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let mut k = b.finish();
        licm(&mut k);
        let loop_v = k
            .body()
            .iter()
            .copied()
            .find(|&v| matches!(k.inst(v).op, Op::Loop(_)))
            .unwrap();
        let body = k.inst(loop_v).body.clone().unwrap();
        assert!(
            body.iter().any(|&v| matches!(k.inst(v).op, Op::Load(_))),
            "aliasing load must stay in the body:\n{k}"
        );
    }

    #[test]
    fn licm_never_moves_masked_instructions() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let c2 = b.iconst(2);
        let c3 = b.iconst(3);
        b.begin_loop(4);
        b.scale_next(1);
        let s = b.add(c2, c3); // invariant args, but thread-scaled
        b.store(tid, 0, s);
        b.end_loop();
        let mut k = b.finish();
        licm(&mut k);
        let loop_v = k
            .body()
            .iter()
            .copied()
            .find(|&v| matches!(k.inst(v).op, Op::Loop(_)))
            .unwrap();
        let body = k.inst(loop_v).body.clone().unwrap();
        assert!(
            body.iter()
                .any(|&v| matches!(k.inst(v).op, Op::Bin(BinOp::Add))),
            "scaled instruction must stay:\n{k}"
        );
    }

    /// The live instructions' ops, in order, and the pass report's
    /// round count.
    fn shape(k: &Kernel, r: &PipelineReport) -> (Vec<Op>, usize) {
        let mut ops = Vec::new();
        k.for_each_inst(|_, i| ops.push(i.op));
        (ops, r.passes.len() / PASSES.len())
    }

    #[test]
    fn a_nested_address_add_folds_on_strength_reduces_second_run() {
        // One run folds the add right under the load's base; the inner
        // add is exposed only to strength-reduce's next run, which the
        // SR → SR bit in `ENABLES` schedules (nothing else dirties it).
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let one = b.iconst(1);
        let a1 = b.add(tid, one);
        let two = b.iconst(2);
        let a2 = b.add(a1, two);
        let x = b.load(a2, 10);
        b.store(tid, 64, x);
        let mut k = b.finish();
        let r = optimize(&mut k);
        let (ops, rounds) = shape(&k, &r);
        assert_eq!(ops, [Op::Tid, Op::Load(13), Op::Store(64)], "\n{k}");
        assert_eq!(k.inst(k.body()[1]).args, [tid], "\n{k}");
        assert_eq!(rounds, 3);
    }

    #[test]
    fn a_multiply_freed_by_dce_fuses_on_the_next_round() {
        // `m` has two uses until dce drops the dead `sub`; only then is
        // it single-use, so mad-fuse needs the DCE → MF bit to run again.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let y = b.load(tid, 64);
        let z = b.load(tid, 128);
        let m = b.mul(x, y);
        let s = b.add(m, z);
        let one = b.iconst(1);
        let _dead = b.sub(m, one);
        b.store(tid, 192, s);
        let mut k = b.finish();
        let r = optimize(&mut k);
        let (ops, rounds) = shape(&k, &r);
        let want = [
            Op::Tid,
            Op::Load(0),
            Op::Load(64),
            Op::Load(128),
            Op::Mad,
            Op::Store(192),
        ];
        assert_eq!(ops, want, "\n{k}");
        assert_eq!(rounds, 3);
    }

    #[test]
    fn empty_loops_are_dead() {
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        b.begin_loop(5);
        let x = b.load(tid, 0);
        let _unused = b.add(x, x);
        b.end_loop();
        b.store(tid, 0, tid);
        let mut k = b.finish();
        optimize(&mut k);
        // The loop computed nothing observable: tid + store remain.
        assert_eq!(k.live_insts(), 2, "\n{k}");
    }
}
