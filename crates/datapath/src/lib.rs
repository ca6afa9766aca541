//! # simt-datapath — bit-exact models of the 950 MHz integer ALU
//!
//! The paper's §4 describes the ALU structures that made the near-GHz
//! clock possible. This crate reproduces each one **structurally** — the
//! same decomposition, the same vectors, the same carry network — so that
//! the claimed identities can be machine-checked:
//!
//! * [`mult::Int32Multiplier`] — the 32×32 multiplier built as a 33×33
//!   signed unit from **four 18×19 DSP multipliers over two DSP blocks**
//!   (§4.1): one block computes `AH·BH` and `AL·BL` (vectors **A**, **C**),
//!   the other the sum `AH·BL + AL·BH` (vector **B**). The two 66-bit
//!   composition vectors are summed by a segmented adder whose carries
//!   come from a **{generate, propagate}** prefix circuit.
//! * [`shifter::MultiplicativeShifter`] — the integrated shifter (§4.2):
//!   left shifts multiply by a one-hot shift value; right logical shifts
//!   bit-reverse in and out of the multiplier; right *arithmetic* shifts
//!   OR in a bit-reversed unary mask of leading ones when the input is
//!   negative. Width-generic, so Figure 5's 12-bit worked example runs
//!   verbatim.
//! * [`adder::PipelinedAdder32`] — the two-stage adder whose 16-bit halves
//!   each map into a subset of a LAB (the 20-bit LAB adder "easily meets
//!   the 1 GHz performance target").
//! * [`adder::SegmentAdder66`] — the 66-bit composition adder with the
//!   {g,p} carry-lookahead of §4.1, exposed separately for tests.
//! * [`logic::LogicUnit`] — the bitwise soft-logic functions (single level
//!   for AND/OR/XOR; cNOT and friends use the spare pipeline levels).
//! * [`barrel::BarrelShifter`] — the **rejected** 5-level binary shifter,
//!   kept as the baseline whose long 8-bit/16-bit routing levels break
//!   timing in a full 16-SP SM (§4, reproduced by `fpga-fitter`'s STA).
//!
//! Every unit reports its pipeline depth; the soft-logic ALU is
//! depth-matched to the DSP datapath ([`ALU_LATENCY`]) exactly as the
//! paper requires, so results from different units retire in lockstep.

#![forbid(unsafe_code)]

pub mod adder;
pub mod barrel;
pub mod logic;
pub mod mult;
pub mod mult_pipe;
pub mod shifter;

pub use adder::{PipelinedAdder32, SegmentAdder66};
pub use barrel::BarrelShifter;
pub use logic::LogicUnit;
pub use mult::{Int32Multiplier, MulVectors, Signedness};
pub use mult_pipe::MultiplierPipeline;
pub use shifter::{MultiplicativeShifter, ShiftKind};

/// Pipeline depth of the ALU, in clocks, from operand registration to
/// result writeback. The DSP block contributes three stages ("one input
/// and output stage ... and an internal stage", §4); the 66-bit
/// composition add contributes two (segment sums + registered-carry
/// insertion, §4.1); one more registers the writeback mux. The soft-logic
/// ALU is *depth matched* to this so every operation instruction has the
/// same fill latency.
pub const ALU_LATENCY: usize = 6;

/// Pipeline stages inside the DSP block (input, internal, output — §4).
pub const DSP_PIPELINE_STAGES: usize = 3;
