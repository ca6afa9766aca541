//! # simt-kernels — fixed-point kernels for the SIMT soft processor
//!
//! The paper positions the processor for "embedded applications that may
//! be commonly found in FPGA systems" (§1) — integer/fixed-point signal
//! processing, since the design is integer-only (§2.1): "integer versions
//! of these have historically been used on fixed-point DSP processors".
//!
//! This crate provides:
//!
//! * [`qformat`] — Q15/Q31 fixed-point helpers;
//! * [`harness`] — load data → run → collect results;
//! * [`vector`] — saxpy, scaling (arithmetic shifts!), saturating clip;
//! * [`reduce`] — sum / dot-product tree reductions built on **dynamic
//!   thread scaling**, the §2 feature that shrinks store time as the
//!   active set halves;
//! * [`fir`] — Q15 FIR filters (taps broadcast from shared memory);
//! * [`matmul`] — fixed-point matrix multiply using the zero-overhead
//!   loops of §3;
//! * [`iir`] — Q15 biquad banks (sequential per-channel recursion on the
//!   hardware loop);
//! * [`launch`] — [`LaunchSpec`]: self-contained, runtime-launchable
//!   kernel instances with bit-exact host-reference outputs, consumed by
//!   `simt-runtime` streams. A spec's [`KernelSource`] is either text
//!   assembly or a `simt-compiler` SSA IR kernel (the `*_ir`
//!   constructors); the `vector`, `reduce`, `fir`, `matmul` and `iir`
//!   families ship IR frontends compiled through the optimizing
//!   pipeline — the looped pair (`matmul`/`iir`) through loop-carried
//!   SSA block parameters;
//! * [`scan`] — Hillis–Steele prefix sum on the predicate machinery;
//! * [`sobel`] — 2-D edge magnitude using `shadd` address generation;
//! * [`workload`] — deterministic input generators.
//!
//! Every kernel has a host-side reference implementation; tests assert
//! bit-exact agreement.

#![forbid(unsafe_code)]

pub mod fir;
pub mod harness;
pub mod iir;
pub mod launch;
pub mod matmul;
pub mod pipeline;
pub mod qformat;
pub mod reduce;
pub mod scan;
pub mod sobel;
pub mod vector;
pub mod workload;

pub use harness::{run_kernel, run_program, KernelError, KernelResult};
pub use launch::{KernelSource, LaunchSpec};
pub use pipeline::Pipeline;
