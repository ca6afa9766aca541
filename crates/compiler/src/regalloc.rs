//! Linear-scan register allocation over SSA live ranges.
//!
//! The register file is a fixed hardware structure (`regs_per_thread`
//! M20K-backed registers per thread, r0 reserved by convention), so
//! there is no spill path: exhaustion is a typed
//! [`CompileError::OutOfRegisters`]. Predicate values get the same
//! treatment over the four architectural predicate registers p0..p3.
//!
//! Live ranges respect the hardware-loop regions: a value defined
//! outside a loop and used inside it is live through the *entire* loop
//! (every iteration re-reads it), so its range extends to the loop end.
//!
//! ## Loop-carried coalescing
//!
//! A loop's block parameter, its initial value, its next-iteration
//! (carried) value and its [`crate::ir::Op::Result`]s all want to be
//! *one register* — that is exactly how the hand-written kernels use
//! the hardware loop (`add r7, r7, r8` is the accumulator's carried
//! update writing the parameter's register in place). The allocator
//! builds a coalescing class per parameter:
//!
//! * the **results** always join (they are pure register reads of the
//!   final value);
//! * the **initial value** joins when nothing reads it at or after the
//!   loop header, so the defining instruction can target the
//!   parameter's register directly (`muli r4, r2, k` becomes the index
//!   seed with no `mov`);
//! * the **carried value** joins when it is defined in the loop body
//!   after the parameter's last use (and the parameter feeds no other
//!   back-edge slot), so its defining instruction updates the register
//!   in place with no copy on the back edge.
//!
//! Slots that cannot coalesce get explicit `mov` copies — sequenced as
//! a parallel-copy set by the lowering (`iir`'s `x2=x1; x1=x0` state
//! rotation is such a sequence), with a scratch register reserved per
//! loop only when the back-edge permutation contains a genuine cycle.

use crate::entity::{ValueMap, ValueSet};
use crate::error::CompileError;
use crate::ir::{Kernel, Op, Ty, ValueId};

/// The kernel linearized into emission order, with loop extents.
#[derive(Debug, Default)]
pub struct Linear {
    /// Every instruction (including loop headers) in emission order.
    pub order: Vec<ValueId>,
    /// Position of each instruction in `order`.
    pub pos: ValueMap<usize>,
    /// `(header, first body pos, last body pos)` per loop, outermost
    /// first.
    pub loops: Vec<(ValueId, usize, usize)>,
}

/// Flatten the region tree into emission order.
pub fn linearize(k: &Kernel) -> Linear {
    let mut lin = Linear {
        pos: ValueMap::new(k.insts().len()),
        ..Default::default()
    };
    fn walk(k: &Kernel, region: &[ValueId], lin: &mut Linear) {
        for &v in region {
            lin.pos.insert(v, lin.order.len());
            lin.order.push(v);
            if let Some(body) = &k.inst(v).body {
                let start = lin.order.len();
                let slot = lin.loops.len();
                lin.loops.push((v, start, start));
                walk(k, body, lin);
                lin.loops[slot].2 = lin.order.len().saturating_sub(1);
            }
        }
    }
    walk(k, k.body(), &mut lin);
    lin
}

/// Result of allocation: hardware registers for every materialized
/// value.
#[derive(Debug, Default)]
pub struct Allocation {
    /// General-purpose register per word value.
    pub reg: ValueMap<u8>,
    /// Predicate register (0..=3) per predicate value.
    pub pred: ValueMap<u8>,
    /// Registers used, as a count including r0 (what
    /// `regs_per_thread` must cover).
    pub regs_used: usize,
    /// Scratch register per loop whose back-edge copies form a cyclic
    /// permutation (a register swap needs a temporary); live through
    /// the whole loop.
    pub loop_scratch: ValueMap<u8>,
}

/// Union-find over values, tracking whether a class already contains a
/// block parameter (classes never merge two parameters).
struct Classes {
    parent: ValueMap<ValueId>,
    has_param: ValueSet,
}

impl Classes {
    fn find(&mut self, v: ValueId) -> ValueId {
        let p = self.parent.get(v).unwrap_or(v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    /// Merge `b` into `a`'s class.
    fn union(&mut self, a: ValueId, b: ValueId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(rb, ra);
            if self.has_param.contains(rb) {
                self.has_param.insert(ra);
            }
        }
    }

    fn class_has_param(&mut self, v: ValueId) -> bool {
        let r = self.find(v);
        self.has_param.contains(r)
    }
}

/// Where the live range of a value defined at `def_pos` must reach for
/// a use at `use_pos`: the use itself, or the end of the outermost loop
/// that contains the use but started after the definition — the value
/// must survive every iteration of it.
fn use_end(def_pos: usize, use_pos: usize, loops: &[(ValueId, usize, usize)]) -> usize {
    loops
        .iter()
        // Loops are outermost-first; the first hit is widest.
        .find(|&&(_, start, last)| start > def_pos && (start..=last).contains(&use_pos))
        .map_or(use_pos, |&(_, _, last)| use_pos.max(last))
}

/// Per-loop block-parameter metadata gathered for coalescing.
struct LoopMeta<'k> {
    header: ValueId,
    header_pos: usize,
    last: usize,
    params: Vec<ValueId>,
    inits: &'k [ValueId],
    carried: &'k [ValueId],
}

/// True when the loop's param-to-param back-edge copies form at least
/// one cyclic permutation (e.g. a swap `carried = [p1, p0]`), which
/// needs a scratch register to sequence.
fn backedge_has_cycle(meta: &LoopMeta) -> bool {
    // map: param index i receives param index j on the back edge.
    let src_of: Vec<Option<usize>> = meta
        .carried
        .iter()
        .map(|c| meta.params.iter().position(|p| p == c))
        .collect();
    let n = meta.params.len();
    // Walk the "receives-from" edges; a node revisited while still on
    // the current path closes a cycle. (Not a permutation: one param
    // may feed several slots, so paths can merge — finished nodes are
    // marked black and skipped.)
    let mut color = vec![0u8; n]; // 0 = unvisited, 1 = on path, 2 = done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut i = start;
        loop {
            if color[i] == 1 {
                return true;
            }
            if color[i] == 2 {
                break;
            }
            color[i] = 1;
            path.push(i);
            match src_of[i] {
                Some(j) if j != i => i = j, // self-carry is copy-free
                _ => break,
            }
        }
        for &x in &path {
            color[x] = 2;
        }
    }
    false
}

/// One register bank under linear scan: which registers are free, and
/// the live ranges holding the rest.
struct Bank {
    /// Bit `r` set = register `r` is free (r0..r254, p0..p3).
    free: [u64; 4],
    /// `(range end, register)` of every occupied register.
    active: Vec<(usize, u8)>,
}

/// Mark register `r` free in a [`Bank`]'s mask.
fn release(free: &mut [u64; 4], r: usize) {
    free[r / 64] |= 1 << (r % 64);
}

impl Bank {
    /// A bank of `count` free registers numbered from `first`.
    fn new(first: usize, count: usize) -> Self {
        let mut free = [0; 4];
        for r in first..first + count {
            release(&mut free, r);
        }
        Bank {
            free,
            active: Vec::new(),
        }
    }

    /// Free the registers whose ranges ended strictly before `pos`.
    fn expire(&mut self, pos: usize) {
        let free = &mut self.free;
        self.active.retain(|&(end, r)| {
            if end < pos {
                release(free, r as usize);
            }
            end >= pos
        });
    }

    /// Occupy the **lowest-numbered** free register until `end` — the
    /// allocator's register-choice policy; `None` when the bank is full.
    fn take(&mut self, end: usize) -> Option<u8> {
        let word = self.free.iter().position(|&w| w != 0)?;
        let bit = self.free[word].trailing_zeros();
        self.free[word] &= !(1 << bit);
        let r = (word * 64) as u8 + bit as u8;
        self.active.push((end, r));
        Some(r)
    }
}

/// Allocate hardware registers for every value that `materialized` says
/// needs one (predicates always need one). `word_regs` is the total
/// register-file size per thread (r0 included but reserved);
/// `pred_available` is false for builds without predicate support.
/// `materialized` may be any collection of ids — a `HashSet`, a slice,
/// with repeats — and an id that names no instruction of `k` is ignored.
///
/// Loop block parameters are coalesced with their initial, carried and
/// result values where sound (see the module docs); each coalescing
/// class occupies a single register whose live interval covers every
/// member.
pub fn allocate<'a>(
    k: &Kernel,
    lin: &Linear,
    materialized: impl IntoIterator<Item = &'a ValueId>,
    word_regs: usize,
    pred_available: bool,
) -> Result<Allocation, CompileError> {
    let arena = k.insts().len();
    let mut needs_reg = ValueSet::new(arena);
    for &v in materialized {
        // The caller's ids are unchecked: one outside the arena can name
        // nothing the scan below visits.
        if v.index() < arena {
            needs_reg.insert(v);
        }
    }

    // Loop metadata, in traversal order (outermost first).
    let metas: Vec<LoopMeta> = lin
        .loops
        .iter()
        .map(|&(header, _, last)| {
            let inst = k.inst(header);
            LoopMeta {
                header,
                header_pos: lin.pos[header],
                last,
                params: k.loop_params(header),
                inits: &inst.args,
                carried: inst.carried.as_deref().unwrap_or(&[]),
            }
        })
        .collect();

    // Per value, folded over its use positions (args + guards + carried
    // values, which the back-edge copies read at the end of the loop
    // body): the last one, and the live-range end — extended through
    // any loop that contains a use but not the definition.
    let mut last_use: ValueMap<usize> = ValueMap::new(arena);
    let mut ends: ValueMap<usize> = ValueMap::new(arena);
    for (p, &v) in lin.order.iter().enumerate() {
        ends.insert(v, p);
    }
    let mut note_use = |a: ValueId, p: usize| {
        // A value placed in no region has no range to extend.
        let Some(def) = lin.pos.get(a) else { return };
        last_use.insert(a, last_use.get(a).map_or(p, |l| l.max(p)));
        ends.insert(a, ends[a].max(use_end(def, p, &lin.loops)));
    };
    for (p, &v) in lin.order.iter().enumerate() {
        let inst = k.inst(v);
        for &a in &inst.args {
            note_use(a, p);
        }
        if let Some(g) = inst.guard {
            note_use(g.pred, p);
        }
    }
    for meta in &metas {
        for &c in meta.carried {
            note_use(c, meta.last);
        }
    }

    // Initial values stay live until every block parameter of their
    // loop has a register. Parameters are allocated at the body's
    // leading positions, right after the header — without this
    // extension a param could be handed a just-expired init's register,
    // and two sequential loops seeded with each other's results in
    // permuted order would turn the *entry* copy set into a register
    // cycle that the back-edge-only scratch reservation cannot break.
    // With it, entry-copy destinations are always disjoint from
    // entry-copy sources (coalesced slots excepted, and those copies
    // vanish), so entry sets sequence without a scratch register.
    for meta in &metas {
        for &init in meta.inits {
            if let Some(e) = ends.get(init) {
                ends.insert(init, e.max(meta.header_pos + meta.params.len()));
            }
        }
    }

    // ---- coalescing classes -------------------------------------------
    // Result joins first, for every loop: a result is a pure read of a
    // parameter's final value, so its class must carry the has-param
    // mark *before* any conditional coalescing below consults it. An
    // outer loop's carried value can be a nested loop's result — doing
    // these joins lazily (per loop, in traversal order) lets the outer
    // carried check read a stale "no param here" for the inner result
    // and coalesce the outer parameter straight into the inner
    // parameter's class, whose entry copy then clobbers the outer
    // parameter every time the inner loop runs.
    let mut classes = Classes {
        parent: ValueMap::new(arena),
        has_param: ValueSet::new(arena),
    };
    let mut param_last: ValueMap<usize> = ValueMap::new(arena);
    for meta in &metas {
        for &p in &meta.params {
            classes.has_param.insert(p);
            param_last.insert(p, meta.last);
        }
    }
    for &v in &lin.order {
        let inst = k.inst(v);
        if let Op::Result(idx) = inst.op {
            // Block parameters lead their loop's body, in index order.
            let body = k.inst(inst.args[0]).body.as_deref().unwrap_or(&[]);
            let param = body
                .get(idx as usize)
                .filter(|&&p| classes.has_param.contains(p));
            if let Some(&p) = param {
                classes.union(p, v);
            }
        }
    }
    for meta in &metas {
        for (i, &p) in meta.params.iter().enumerate() {
            // Initial value: joins when nothing reads it at or after
            // the loop header (so the defining instruction can write
            // the parameter's register directly). A value already in a
            // parameter class (an outer param, another loop's slot, a
            // result) never joins.
            let init = meta.inits[i];
            // Coalescing the init elides the entry copy: the register
            // must already hold the initial value every time the loop
            // is *entered*. An enclosing loop re-enters this loop once
            // per outer iteration, after the back edge overwrote the
            // shared register with the carried value — sound only if
            // the init is re-defined inside that enclosing loop. A loop
            // that starts after the init's definition and contains this
            // header is exactly the unsound case.
            let reentered_without_redef = |d: usize| {
                lin.loops
                    .iter()
                    .any(|&(_, start, last)| start > d && (start..=last).contains(&meta.header_pos))
            };
            let init_ok = !classes.class_has_param(init)
                && last_use.get(init).is_none_or(|u| u <= meta.header_pos)
                && lin
                    .pos
                    .get(init)
                    .is_some_and(|d| d < meta.header_pos && !reentered_without_redef(d));
            if init_ok {
                classes.union(p, init);
            }
            // Carried value: joins when defined in this body after the
            // parameter's last read, so updating the register in place
            // cannot clobber a value still needed this iteration. A
            // parameter feeding another back-edge slot keeps its
            // register readable until the copies run, so its own slot
            // must not coalesce over it.
            let c = meta.carried[i];
            let feeds_other_slot = meta
                .carried
                .iter()
                .enumerate()
                .any(|(j, &cc)| j != i && cc == p);
            let carried_ok = !classes.class_has_param(c)
                && !feeds_other_slot
                && lin.pos.get(c).is_some_and(|d| {
                    d > meta.header_pos && d <= meta.last && last_use.get(p).is_none_or(|u| u <= d)
                });
            if carried_ok {
                classes.union(p, c);
            }
        }
    }

    // Class live intervals: a parameter's register stays occupied to
    // the end of its loop (the next iteration reads it at the top), and
    // the class end covers every member.
    let mut class_end: ValueMap<usize> = ValueMap::new(arena);
    for &v in &lin.order {
        let root = classes.find(v);
        let end = ends[v].max(param_last.get(v).unwrap_or(0));
        class_end.insert(root, class_end.get(root).map_or(end, |e| e.max(end)));
    }

    let mut alloc = Allocation {
        reg: ValueMap::new(arena),
        pred: ValueMap::new(arena),
        loop_scratch: ValueMap::new(arena),
        regs_used: 0,
    };

    // General-purpose registers: r1..=min(word_regs-1, 254).
    let hi = word_regs.min(255).saturating_sub(1);
    let mut words = Bank::new(1, hi);
    let mut class_reg: ValueMap<u8> = ValueMap::new(arena);
    let take_word = |words: &mut Bank, end: usize| {
        words.take(end).ok_or(CompileError::OutOfRegisters {
            needed: words.active.len() + 1,
            available: hi,
        })
    };

    // Predicates: p0..p3 (a build without predicate support fails on
    // the first predicate value instead).
    let mut preds = Bank::new(0, 4);

    // Loops are met in the order `metas` lists them.
    let mut next_loop = metas.iter().peekable();

    for (p, &v) in lin.order.iter().enumerate() {
        words.expire(p);
        preds.expire(p);

        // A loop with a cyclic back-edge permutation reserves a scratch
        // register for the copy sequencer, live through the loop.
        let header = next_loop.next_if(|m| m.header == v);
        if let Some(meta) = header.filter(|m| backedge_has_cycle(m)) {
            let r = take_word(&mut words, meta.last)?;
            alloc.regs_used = alloc.regs_used.max(r as usize + 1);
            alloc.loop_scratch.insert(v, r);
        }

        let inst = k.inst(v);
        match inst.op.ty() {
            Ty::Word if needs_reg.contains(v) => {
                let root = classes.find(v);
                let r = match class_reg.get(root) {
                    // The class already owns a register; this member
                    // simply reads/writes it in place.
                    Some(r) => r,
                    None => {
                        let r = take_word(&mut words, class_end[root])?;
                        class_reg.insert(root, r);
                        alloc.regs_used = alloc.regs_used.max(r as usize + 1);
                        r
                    }
                };
                alloc.reg.insert(v, r);
            }
            Ty::Pred => {
                if !pred_available {
                    return Err(CompileError::PredicatesDisabled);
                }
                let r = preds.take(ends[v]).ok_or(CompileError::OutOfPredicates {
                    needed: preds.active.len() + 1,
                })?;
                alloc.pred.insert(v, r);
            }
            _ => {}
        }
    }
    Ok(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrBuilder, Op};
    use std::collections::HashSet;

    fn materialized_all(k: &Kernel) -> HashSet<ValueId> {
        let mut m = HashSet::new();
        k.for_each_inst(|v, inst| {
            if inst.op.ty() == Ty::Word {
                m.insert(v);
            }
        });
        m
    }

    /// Loops the allocator reserved a back-edge scratch register for.
    fn scratch_count(k: &Kernel, a: &Allocation) -> usize {
        let mut n = 0;
        k.for_each_inst(|v, _| n += a.loop_scratch.get(v).is_some() as usize);
        n
    }

    #[test]
    fn registers_are_reused_after_last_use() {
        // A long dependency chain only ever needs two registers.
        let mut b = IrBuilder::new("chain");
        let tid = b.tid();
        let mut v = b.load(tid, 0);
        for _ in 0..20 {
            v = b.add(v, tid);
        }
        b.store(tid, 0, v);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert!(a.regs_used <= 4, "used {} registers", a.regs_used);
    }

    #[test]
    fn exhaustion_is_a_typed_error() {
        // 8 simultaneously-live values into a 4-register file.
        let mut b = IrBuilder::new("wide");
        let tid = b.tid();
        let vals: Vec<_> = (0..8).map(|i| b.load(tid, i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add(acc, v);
        }
        b.store(tid, 0, acc);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        // tid and two loads fill r1..r3; the third load is the fourth
        // value live at once.
        assert_eq!(
            allocate(&k, &lin, &m, 4, false).unwrap_err(),
            CompileError::OutOfRegisters {
                needed: 4,
                available: 3
            }
        );
    }

    #[test]
    fn the_lowest_free_register_is_always_chosen() {
        // Fresh file: r1, r2, r3, r4 in definition order.
        let mut b = IrBuilder::new("policy");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let y = b.load(tid, 1);
        let z = b.load(tid, 2);
        b.store(tid, 8, x); // x's last use: r2 expires after this
        let w = b.load(tid, 3); // r2 is free again, and so are r5..r15
        let u = b.load(tid, 4); // r2 is taken: the next lowest is r5
        for (off, v) in [y, z, w, u].into_iter().enumerate() {
            b.store(tid, 16 + off as u32, v);
        }
        let k = b.finish();
        let a = allocate(&k, &linearize(&k), &materialized_all(&k), 16, false).unwrap();
        assert_eq!([a.reg[tid], a.reg[x], a.reg[y], a.reg[z]], [1, 2, 3, 4]);
        assert_eq!(
            a.reg[w], 2,
            "an expired low register beats a fresh high one"
        );
        assert_eq!(a.reg[u], 5);
        assert_eq!(a.regs_used, 6);
    }

    #[test]
    fn the_lowest_free_predicate_is_always_chosen() {
        let mut b = IrBuilder::new("ppolicy");
        let tid = b.tid();
        let c = b.iconst(1);
        let ps: Vec<_> = (0..3)
            .map(|_| b.cmp(crate::ir::CmpOp::Lt, tid, c))
            .collect();
        let s0 = b.select(tid, c, ps[0]); // p0's last use
        let q = b.cmp(crate::ir::CmpOp::Ge, tid, c); // p0 is free again, and so is p3
        let r = b.cmp(crate::ir::CmpOp::Ne, tid, c); // p0 is taken: p3
        let mut acc = s0;
        for p in [ps[1], ps[2], q, r] {
            acc = b.select(acc, c, p);
        }
        b.store(tid, 0, acc);
        let k = b.finish();
        let a = allocate(&k, &linearize(&k), &materialized_all(&k), 16, true).unwrap();
        assert_eq!([a.pred[ps[0]], a.pred[ps[1]], a.pred[ps[2]]], [0, 1, 2]);
        assert_eq!(a.pred[q], 0, "an expired p0 beats a fresh p3");
        assert_eq!(a.pred[r], 3);
    }

    #[test]
    fn a_loop_takes_its_scratch_register_before_anything_inside_it() {
        // The swap loop of `swap_permutations_reserve_a_scratch_register`
        // with a body-local value: the scratch register is claimed at
        // the header, so it sits below every register the body takes.
        let mut b = IrBuilder::new("swap");
        let tid = b.tid();
        let a0 = b.iconst(1);
        let b0 = b.iconst(2);
        let p = b.begin_loop_carried(3, &[a0, b0]);
        let x = b.load(tid, 5);
        b.store(tid, 0, x);
        b.store(tid, 1, p[0]);
        let r = b.end_loop_carried(&[p[1], p[0]]);
        b.store(tid, 64, r[0]);
        b.store(tid, 128, r[1]);
        let k = b.finish();
        let lin = linearize(&k);
        let a = allocate(&k, &lin, &materialized_all(&k), 16, false).unwrap();
        let header = lin.loops[0].0;
        // tid, and the two seeds the params coalesce with, came first.
        assert_eq!([a.reg[tid], a.reg[p[0]], a.reg[p[1]]], [1, 2, 3]);
        assert_eq!(a.loop_scratch.get(header), Some(4));
        assert_eq!(a.reg[x], 5);
    }

    #[test]
    fn stray_materialized_ids_are_ignored_not_indexed() {
        // `allocate` is public and its id collection is the caller's:
        // an id past the arena, an arena entry in no region, a repeat —
        // none names a value the scan visits, none may panic.
        let mut b = IrBuilder::new("stray");
        let tid = b.tid();
        let x = b.load(tid, 0);
        b.store(tid, 8, x);
        let mut k = b.finish();
        let orphan = k.append_inst(Op::Const(99), vec![]);
        let lin = linearize(&k);
        let clean = allocate(&k, &lin, &[tid, x], 16, false).unwrap();
        let past_arena = ValueId::from_raw(k.insts().len() as u32 + 7);
        let stray = [tid, x, x, orphan, past_arena, ValueId::from_raw(u32::MAX)];
        let a = allocate(&k, &lin, &stray, 16, false).unwrap();
        assert_eq!(a.reg.get(orphan), None);
        assert_eq!(
            (a.reg, a.pred, a.regs_used),
            (clean.reg, clean.pred, clean.regs_used)
        );
        assert_eq!(linearize(&k).pos.get(past_arena), None);
    }

    #[test]
    fn values_used_in_loops_live_through_them() {
        let mut b = IrBuilder::new("looped");
        let tid = b.tid();
        let bias = b.load(tid, 0); // defined before the loop
        b.begin_loop(4);
        let x = b.load(tid, 64);
        let y = b.add(x, bias); // keeps `bias` live across the body
        b.store(tid, 64, y);
        b.end_loop();
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        // bias, x and y must coexist: three registers minimum.
        let rb = a.reg[bias];
        let (_, start, last) = lin.loops[0];
        // No value defined inside the loop may share bias's register.
        for p in start..=last {
            let v = lin.order[p];
            if k.inst(v).op.ty() == Ty::Word {
                assert_ne!(a.reg[v], rb, "loop-local value reused a live register");
            }
        }
    }

    #[test]
    fn predicates_allocate_from_p0() {
        let mut b = IrBuilder::new("preds");
        let tid = b.tid();
        let c = b.iconst(4);
        let p = b.cmp(crate::ir::CmpOp::Lt, tid, c);
        let q = b.select(tid, c, p);
        b.store(tid, 0, q);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, true).unwrap();
        assert_eq!(a.pred[p], 0);
        let e = allocate(&k, &lin, &m, 16, false).unwrap_err();
        assert_eq!(e, CompileError::PredicatesDisabled);
    }

    #[test]
    fn too_many_live_predicates_error() {
        let mut b = IrBuilder::new("preds5");
        let tid = b.tid();
        let c = b.iconst(1);
        let ps: Vec<_> = (0..5)
            .map(|_| b.cmp(crate::ir::CmpOp::Lt, tid, c))
            .collect();
        // Use all five at the end so they're simultaneously live.
        let mut acc = tid;
        for &p in &ps {
            acc = b.select(acc, c, p);
        }
        b.store(tid, 0, acc);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        match allocate(&k, &lin, &m, 16, true) {
            Err(CompileError::OutOfPredicates { needed }) => assert_eq!(needed, 5),
            other => panic!("expected OutOfPredicates, got {other:?}"),
        }
    }

    #[test]
    fn carried_accumulator_coalesces_to_one_register() {
        // acc = acc + x across a loop: param, init, carried update and
        // result must share one register (no copies anywhere).
        let mut b = IrBuilder::new("acc");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(8, &[zero]);
        let x = b.load(tid, 0);
        let next = b.add(p[0], x);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        let acc = a.reg[p[0]];
        assert_eq!(a.reg[zero], acc, "init must coalesce");
        assert_eq!(a.reg[next], acc, "carried update must coalesce");
        assert_eq!(a.reg[r[0]], acc, "result must coalesce");
        assert_eq!(scratch_count(&k, &a), 0);
    }

    #[test]
    fn carried_update_before_last_param_use_does_not_coalesce() {
        // The carried value is defined *before* another read of the
        // param (the store), so writing the register in place would
        // clobber the value the store still needs.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(8, &[zero]);
        let x = b.load(tid, 0);
        let next = b.add(p[0], x);
        b.store(tid, 0, p[0]); // param read AFTER the carried def
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert_ne!(
            a.reg[next], a.reg[p[0]],
            "coalescing would clobber the param before its store"
        );
    }

    #[test]
    fn init_with_later_uses_does_not_coalesce() {
        // The init value is stored after the loop, so the loop must not
        // evolve it in place.
        let mut b = IrBuilder::new("t");
        let tid = b.tid();
        let seed = b.load(tid, 0);
        let p = b.begin_loop_carried(4, &[seed]);
        let one = b.iconst(1);
        let next = b.add(p[0], one);
        let r = b.end_loop_carried(&[next]);
        b.store(tid, 64, r[0]);
        b.store(tid, 128, seed); // init still needed after the loop
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert_ne!(a.reg[seed], a.reg[p[0]], "init must keep its own register");
    }

    #[test]
    fn swap_permutations_reserve_a_scratch_register() {
        // carried = [p1, p0]: a two-cycle on the back edge.
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
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert_eq!(scratch_count(&k, &a), 1, "swap needs one scratch register");
        // The state-rotation *chain* (x2=x1, x1=x0) needs none.
        let mut b = IrBuilder::new("chain");
        let tid = b.tid();
        let z = b.iconst(0);
        let p = b.begin_loop_carried(3, &[z, z]);
        let x0 = b.load(tid, 0);
        b.store(tid, 64, p[1]);
        let _r = b.end_loop_carried(&[x0, p[0]]);
        b.store(tid, 128, tid);
        let k = b.finish();
        let lin = linearize(&k);
        let m = materialized_all(&k);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert_eq!(scratch_count(&k, &a), 0, "chains sequence without scratch");
    }

    #[test]
    fn non_materialized_consts_get_no_register() {
        let mut b = IrBuilder::new("imm");
        let tid = b.tid();
        let c = b.iconst(3);
        let y = b.mul(tid, c);
        b.store(tid, 0, y);
        let k = b.finish();
        let lin = linearize(&k);
        // Selection says the const folds into `muli`.
        let mut m = materialized_all(&k);
        m.remove(&c);
        let a = allocate(&k, &lin, &m, 16, false).unwrap();
        assert_eq!(a.reg.get(c), None);
        assert_eq!(a.regs_used, 3); // r0 reserved, tid=r1, y=r2
        assert_eq!(k.inst(c).op, Op::Const(3));
    }
}
