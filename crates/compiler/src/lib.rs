//! # simt-compiler — an optimizing compiler for the SIMT soft processor
//!
//! The kernels of this reproduction were, until this crate, written the
//! way the paper's were: by hand, register by register, against the
//! [`simt_isa::KernelBuilder`] or the text assembler. That does not
//! scale to the ROADMAP's production ambitions — many kernel families,
//! many processor configurations, repeated launches. This crate adds
//! the compilation layer in between, shaped after cranelift/wasmtime:
//!
//! * [`ir`] — a small **SSA kernel IR**: typed values ([`Ty`]), ops
//!   covering the full ALU / memory / predicate surface, and nested
//!   regions that map one-to-one onto the ISA's zero-overhead hardware
//!   loops — including **loop-carried values** as Cranelift-style block
//!   parameters ([`IrBuilder::begin_loop_carried`]), which is what lets
//!   `matmul`/`iir` compile instead of being hand-scheduled. Built with
//!   [`IrBuilder`].
//! * [`passes`] — an **optimization pipeline** (constant folding with
//!   bit-exact datapath semantics, strength reduction of multiplies
//!   into the barrel-replacement shifter and of address adds into
//!   `lds`/`sts` offset fields, loop-invariant code motion out of
//!   hardware-loop bodies, dominator-scoped CSE, store-to-load
//!   forwarding, `mad` fusion, DCE), iterated to a fixpoint, then a
//!   final **load/store schedule** for the cycle model — all with
//!   per-pass before/after statistics ([`PipelineReport`]).
//! * [`regalloc`] — **linear-scan register allocation** over SSA live
//!   ranges, with loop-carried coalescing: each block parameter shares
//!   one register with its initial, carried and result values wherever
//!   sound, so lowered loops carry no copies on the back edge. The
//!   register file is fixed hardware, so exhaustion is a typed
//!   [`CompileError::OutOfRegisters`], never a spill.
//! * [`lower`] — instruction selection (immediate forms for constant
//!   operands) and emission of a [`simt_isa::Program`] through the
//!   existing [`simt_isa::KernelBuilder`].
//! * [`entity`] — the **dense side tables** every stage above keeps its
//!   per-value facts in: a `Vec`-backed map and a bit-set indexed by
//!   [`ValueId`] (Cranelift's `SecondaryMap`/`EntitySet`), not hash maps.
//! * [`cache`] — a **content-addressed [`CompileCache`]**: hash of
//!   (IR or assembly source, [`ProcessorConfig`], opt level) →
//!   compiled program, shared across a device pool so repeated launches
//!   never re-lower. `simt-runtime` mounts one on its launch path.
//!
//! ## Quickstart
//!
//! ```
//! use simt_compiler::{compile, IrBuilder, OptLevel};
//! use simt_core::ProcessorConfig;
//!
//! // shared[tid + 64] = 3 * shared[tid] + 7
//! let mut b = IrBuilder::new("scale_bias");
//! let tid = b.tid();
//! let x = b.load(tid, 0);
//! let c3 = b.iconst(3);
//! let x3 = b.mul(x, c3);
//! let c7 = b.iconst(7);
//! let y = b.add(x3, c7);
//! b.store(tid, 64, y);
//! let kernel = b.finish();
//!
//! let cfg = ProcessorConfig::default();
//! let out = compile(&kernel, &cfg, OptLevel::Full).unwrap();
//! assert_eq!(out.program.len(), 6); // stid, lds, muli, addi, sts, exit
//! ```
//!
//! `docs/COMPILER.md` at the repository root walks the whole pipeline
//! with worked examples (saxpy stage by stage, the loop-carried
//! matmul).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod entity;
pub mod error;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod regalloc;
pub mod stitch;

pub use cache::{CompileCache, Lookup};
pub use error::CompileError;
pub use ir::{BinOp, CmpOp, IrBuilder, Kernel, Op, Ty, UnOp, ValueId};
pub use lower::{compile, CompiledKernel, OptLevel};
pub use passes::{
    const_fold, cse, dce, elide_stores, forward_stores, licm, mad_fuse, optimize, schedule_mem,
    strength_reduce, PassStats, PipelineReport,
};
pub use stitch::{concat_kernels, fuse_kernels, FuseReport};

use simt_core::ProcessorConfig;

/// Convenience: compile with the full pipeline.
pub fn compile_full(
    kernel: &Kernel,
    config: &ProcessorConfig,
) -> Result<CompiledKernel, CompileError> {
    compile(kernel, config, OptLevel::Full)
}
