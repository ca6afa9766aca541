//! # simt-isa — the PTX-inspired instruction set of the 950 MHz SIMT soft processor
//!
//! The paper ("A 950 MHz SIMT Soft Processor", IPPS 2025, §2) specifies the
//! ISA only by its *shape*: it is "inspired by Nvidia PTX, with a subset of
//! 61 instructions supported", predicates are an optional configuration
//! parameter (they cost roughly 50 % extra processor logic), and many
//! instructions carry a per-instruction **dynamic thread scale** that
//! shrinks the thread space for that instruction (used e.g. during vector
//! reductions to cut store time). This crate defines a concrete ISA with
//! exactly those properties:
//!
//! * [`Opcode`] — exactly **61** opcodes in eight classes (a unit test
//!   pins the count), covering integer arithmetic, logic, shifts,
//!   fixed-point/address helpers, compares and predicated selection, data
//!   movement including shared-memory access, and uniform control flow
//!   (branches, call/return, zero-overhead loops).
//! * [`Instruction`] — the decoded form, with an optional predicate
//!   [`Guard`] and optional dynamic thread scale.
//! * [`encode`] — a fixed 64-bit instruction word (the instruction memory
//!   is built from M20K blocks configured in their fastest 512 × 40 mode;
//!   two of the three M20Ks of the paper's `Inst` module hold the 64-bit
//!   word, the third holds the call/loop stack and branch history).
//! * [`asm`] / [`disasm`] — a textual assembler and disassembler.
//! * [`program`] — the program container loaded into I-Mem.
//!
//! ## Lockstep semantics
//!
//! All threads execute in lockstep: every instruction, whether one clock or
//! hundreds, completes before the next is issued (paper §3). Control flow
//! is therefore **uniform**: branches are decided once, in the instruction
//! block — the predicated branch [`Opcode::Brp`] samples thread 0's
//! predicate register. Per-thread divergence is expressed with predicate
//! guards (write masking), the GPU IF/THEN/ELSE of §2.

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod disasm;
pub mod encode;
pub mod error;
pub mod image;
pub mod instr;
pub mod opcode;
pub mod program;

pub use asm::{assemble, Assembler};
pub use builder::KernelBuilder;
pub use disasm::disassemble;
pub use encode::{decode_word, encode_word};
pub use error::IsaError;
pub use image::{from_image, to_image};
pub use instr::{Guard, Instruction, PredReg, Reg};
pub use opcode::{CycleClass, ImmForm, OpClass, Opcode};
pub use program::Program;

/// Number of scalar processors in the SM; fixed at 16 by the paper
/// ("The processor is comprised of 16 SPs", §2). Thread-block *width*.
pub const SP_COUNT: usize = 16;

/// Maximum number of threads supported ("Up to 4096 threads", abstract).
pub const MAX_THREADS: usize = 4096;

/// Maximum total register-file size ("64K registers", abstract).
pub const MAX_REGISTERS: usize = 65536;

/// Number of predicate registers per thread (p0..p3, 2-bit field).
pub const PRED_REGS: usize = 4;

/// Read ports of the multi-port shared memory (4R-1W, §2): a load streams
/// a 16-thread row through the 16:4 read-address mux in
/// `SP_COUNT / SHARED_READ_PORTS = 4` clocks.
pub const SHARED_READ_PORTS: usize = 4;

/// Write ports of the shared memory: a store streams a 16-thread row
/// through the 16:1 write mux one thread per clock.
pub const SHARED_WRITE_PORTS: usize = 1;
