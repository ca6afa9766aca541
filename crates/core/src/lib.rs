//! # simt-core — cycle-accurate simulator of the 950 MHz SIMT soft processor
//!
//! One streaming multiprocessor (SM) of 16 scalar processors (SPs)
//! executing all threads in lockstep: "every thread in the current
//! instruction is issued before the next instruction is started" (§2).
//! The simulator reproduces, at clock granularity, the machinery the
//! paper builds for its near-GHz fetch/decode (§3):
//!
//! * the **pipeline-advance control** of Fig. 3 with its width/depth
//!   counters, the *registered* end-of-instruction comparison (count to
//!   N−1), the single-cycle-instruction trap, and per-instruction
//!   **dynamic thread scaling** ([`sequencer`]);
//! * the **4R-1W multi-port shared memory** whose fixed, conflict-free
//!   port schedule makes loads cost 4 clocks per 16-thread row and stores
//!   16 ([`shared`]);
//! * a register file of up to 4096 threads × 64 K registers ([`regfile`]);
//! * per-lane semantics in two independent forms ([`alu`]): the
//!   **bit-exact datapath models** of `simt-datapath` — every multiply
//!   through the DSP-vector composition, every shift through the
//!   multiplicative shifter — which the reference interpreter evaluates,
//!   and the host arithmetic they compute, which the fast path runs and
//!   the tests prove equal;
//! * uniform control flow with the Fig. 2 call stack, zero-overhead
//!   loops, and taken-branch pipeline zeroing ([`sm`]).
//!
//! ## Quick example
//!
//! ```
//! use simt_core::{Processor, ProcessorConfig, RunOptions};
//! use simt_isa::assemble;
//!
//! let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
//! let program = assemble(
//!     "  stid r1         ; r1 = thread id
//!        add r2, r1, r1  ; r2 = 2*tid
//!        sts [r1+0], r2  ; shared[tid] = 2*tid
//!        exit",
//! )
//! .unwrap();
//! cpu.load_program(&program).unwrap();
//! let stats = cpu.run(RunOptions::default()).unwrap();
//! assert_eq!(cpu.shared().as_slice()[5], 10);
//! assert!(stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub mod alu;
pub mod config;
pub mod decode;
pub mod error;
pub mod fetch;
pub mod profile;
pub mod regfile;
pub mod sequencer;
pub mod shared;
pub mod sm;
pub mod stats;

pub use alu::{Datapath, Operands};
pub use config::{DspMode, ProcessorConfig};
pub use decode::{validate_program, DecodedProgram};
pub use error::{ConfigError, ExecError, LoadError};
pub use fetch::{replay, run_and_replay, ClockEvent, ClockLog};
pub use profile::{PcCounter, PcProfile};
pub use regfile::RegisterFile;
pub use sequencer::{InstructionTiming, PipelineControl, FETCH_PIPELINE_DEPTH};
pub use shared::{SharedMemStats, SharedMemory};
pub use sm::{ExecMode, Processor, RunOptions, Snapshot, TraceEntry};
pub use stats::ExecStats;
