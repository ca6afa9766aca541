//! Multi-kernel lowering: stitch a chain of kernels into one program.
//!
//! Back-to-back launches on one dependency path pay a pipeline fill per
//! launch and hand values between stages through shared-memory
//! store/load round trips. [`fuse_kernels`] concatenates the stages into
//! a single SSA arena, lets the regular pass pipeline unify the stages'
//! `tid`/constant scaffolding (CSE) and forward each handoff store into
//! its consuming load (store-to-load forwarding), then elides the now
//! write-only stores into the *dead ranges* the caller has proven
//! nothing downstream reads. What remains is one kernel whose stages
//! communicate through registers.
//!
//! The caller (the `simt-graph` fusion pass) owns the legality argument:
//! dead ranges must be intermediate buffers no other launch, copy, or
//! host read observes. This module re-checks the *intra-kernel* half —
//! a store is only elided when no later load in the fused kernel can
//! read it — so a wrong dead range degrades to a missed optimization on
//! loads this kernel still performs, never to a wrong value inside it.

use crate::error::CompileError;
use crate::ir::{Kernel, Op, ValueId};
use crate::passes::{dce, elide_stores, optimize, PipelineReport};

/// What [`fuse_kernels`] did to the chain.
#[derive(Debug, Clone, Default)]
pub struct FuseReport {
    /// Stages stitched.
    pub parts: usize,
    /// Live IR instructions across all stages before fusion.
    pub insts_before: usize,
    /// Live IR instructions in the fused kernel.
    pub insts_after: usize,
    /// Loads eliminated by the fusion (stage-handoff loads forwarded
    /// into registers, plus any address math that died with them).
    pub loads_eliminated: usize,
    /// Handoff stores elided into the dead ranges.
    pub stores_elided: usize,
    /// The optimization pipeline's per-pass statistics over the
    /// stitched kernel.
    pub pipeline: PipelineReport,
}

/// Concatenate kernels into one arena, in order, renumbering every
/// value so the stages' regions stay disjoint. No optimization happens
/// here; the result is the mechanical "run stage 1, then stage 2, …"
/// program.
pub fn concat_kernels(name: impl Into<String>, parts: &[&Kernel]) -> Kernel {
    let mut insts = Vec::new();
    let mut body = Vec::new();
    for part in parts {
        let base = insts.len() as u32;
        let shift = |v: ValueId| ValueId(v.0 + base);
        for inst in part.insts() {
            let mut inst = inst.clone();
            for a in inst.args.iter_mut() {
                *a = shift(*a);
            }
            if let Some(g) = &mut inst.guard {
                g.pred = shift(g.pred);
            }
            if let Some(body) = &mut inst.body {
                for v in body.iter_mut() {
                    *v = shift(*v);
                }
            }
            if let Some(carried) = &mut inst.carried {
                for v in carried.iter_mut() {
                    *v = shift(*v);
                }
            }
            insts.push(inst);
        }
        body.extend(part.body().iter().map(|&v| shift(v)));
    }
    Kernel::from_parts(name.into(), insts, body)
}

fn count_loads(k: &Kernel) -> usize {
    let mut n = 0;
    k.for_each_inst(|_, inst| {
        if matches!(inst.op, Op::Load(_)) {
            n += 1;
        }
    });
    n
}

/// Stitch `parts` into one fused kernel for a `threads`-wide build,
/// eliding stores into `dead` — the half-open shared-memory ranges that
/// hold stage-handoff intermediates nothing outside the fused launch
/// reads.
pub fn fuse_kernels(
    name: impl Into<String>,
    parts: &[&Kernel],
    dead: &[(usize, usize)],
    threads: usize,
) -> Result<(Kernel, FuseReport), CompileError> {
    let mut k = concat_kernels(name, parts);
    k.validate()?;
    let insts_before = k.live_insts();
    let loads_before = count_loads(&k);

    // The regular pipeline unifies cross-stage scaffolding (CSE) and
    // forwards handoff stores into their consuming loads.
    let pipeline = optimize(&mut k);

    // Handoff stores into proven-dead intermediate ranges go next, and
    // a final DCE sweeps the address math that only fed them.
    let stores_elided = elide_stores(&mut k, dead, threads);
    if stores_elided > 0 {
        dce(&mut k);
    }
    debug_assert!(k.validate().is_ok(), "fusion broke the IR:\n{k}");

    let report = FuseReport {
        parts: parts.len(),
        insts_before,
        insts_after: k.live_insts(),
        loads_eliminated: loads_before.saturating_sub(count_loads(&k)),
        stores_elided,
        pipeline,
    };
    Ok((k, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrBuilder;
    use crate::lower::{compile, OptLevel};
    use simt_core::ProcessorConfig;

    /// Stage 1: shared[tid + 64] = shared[tid] * 3.
    fn stage1() -> Kernel {
        let mut b = IrBuilder::new("s1");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(3);
        let y = b.mul(x, c);
        b.store(tid, 64, y);
        b.finish()
    }

    /// Stage 2: shared[tid + 128] = shared[tid + 64] + 7.
    fn stage2() -> Kernel {
        let mut b = IrBuilder::new("s2");
        let tid = b.tid();
        let x = b.load(tid, 64);
        let c = b.iconst(7);
        let y = b.add(x, c);
        b.store(tid, 128, y);
        b.finish()
    }

    #[test]
    fn concat_preserves_stage_order_and_validates() {
        let (a, b) = (stage1(), stage2());
        let k = concat_kernels("cat", &[&a, &b]);
        assert!(k.validate().is_ok(), "\n{k}");
        assert_eq!(k.live_insts(), a.live_insts() + b.live_insts());
    }

    #[test]
    fn fusion_forwards_the_handoff_and_elides_the_store() {
        let (a, b) = (stage1(), stage2());
        let cfg = ProcessorConfig::default()
            .with_threads(64)
            .with_shared_words(1024);
        let (k, report) = fuse_kernels("fused", &[&a, &b], &[(64, 128)], 64).unwrap();
        assert_eq!(report.parts, 2);
        assert_eq!(report.stores_elided, 1, "\n{k}");
        assert_eq!(report.loads_eliminated, 1, "\n{k}");
        // One tid, one load, mul, add(+consts), one store survive: the
        // fused program carries a single store/load pair, not two.
        let mut loads = 0;
        let mut stores = 0;
        k.for_each_inst(|_, inst| match inst.op {
            Op::Load(_) => loads += 1,
            Op::Store(_) => stores += 1,
            _ => {}
        });
        assert_eq!((loads, stores), (1, 1), "\n{k}");
        // And it still computes 3*x + 7 into shared[tid + 128].
        let fused = compile(&k, &cfg, OptLevel::Full).unwrap();
        let reference = {
            let mut rb = IrBuilder::new("ref");
            let tid = rb.tid();
            let x = rb.load(tid, 0);
            let c3 = rb.iconst(3);
            let x3 = rb.mul(x, c3);
            let c7 = rb.iconst(7);
            let y = rb.add(x3, c7);
            rb.store(tid, 128, y);
            compile(&rb.finish(), &cfg, OptLevel::Full).unwrap()
        };
        assert_eq!(
            fused.program.instructions(),
            reference.program.instructions()
        );
    }

    #[test]
    fn stores_survive_when_the_range_is_still_read() {
        // Stage 2 reads the handoff *twice* — once scaled, which cannot
        // be forwarded. The store must survive to feed the scaled load.
        let (a, _) = (stage1(), ());
        let mut b2 = IrBuilder::new("s2s");
        let tid = b2.tid();
        let x = b2.load(tid, 64);
        b2.scale_next(1);
        let xs = b2.load(tid, 64);
        let y = b2.add(x, xs);
        b2.store(tid, 128, y);
        let b = b2.finish();
        let (k, report) = fuse_kernels("fused", &[&a, &b], &[(64, 128)], 64).unwrap();
        assert_eq!(report.stores_elided, 0, "\n{k}");
        let mut stores = 0;
        k.for_each_inst(|_, inst| {
            if matches!(inst.op, Op::Store(_)) {
                stores += 1;
            }
        });
        assert_eq!(stores, 2, "handoff store must survive\n{k}");
    }

    #[test]
    fn stores_outside_the_dead_ranges_survive() {
        let (a, b) = (stage1(), stage2());
        let (k, report) = fuse_kernels("fused", &[&a, &b], &[], 64).unwrap();
        assert_eq!(report.stores_elided, 0);
        let mut stores = 0;
        k.for_each_inst(|_, inst| {
            if matches!(inst.op, Op::Store(_)) {
                stores += 1;
            }
        });
        assert_eq!(stores, 2, "\n{k}");
    }
}
