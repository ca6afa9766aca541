//! Umbrella crate for the 950 MHz SIMT soft-processor reproduction.
//!
//! This crate hosts the workspace-level integration tests (`tests/`)
//! and runnable examples (`examples/`). All functionality lives in the
//! member crates, re-exported here for convenience.
//!
//! ## The crate graph, silicon to host
//!
//! An arrow points from a crate to the crates built on it; edges implied
//! by a longer path are left out, and `simt-bench` builds on nearly
//! everything.
//!
//! ```text
//!   simt-isa ──► simt-core ──► simt-compiler ──► simt-kernels ──► simt-graph
//!                    │                                                │
//!                    ▼                                                ▼
//!   fpga-fabric ─► fpga-fitter ──► simt-system    simt-profile ──► simt-runtime
//!                    │                            simt-metrics ──► (streams, events,
//!                    │                                              placement, graph
//!                    │                                              replay, compile
//!                    │                                              cache, chaos,
//!                    │                                              postmortem)
//!                    │                                                │
//!                    │                                                ▼
//!                    └─────────────────────────► simt-bench ◄──── simt-fuzzgen
//! ```
//!
//! * [`simt_isa`] — the PTX-inspired 61-instruction ISA, assembler and
//!   disassembler, binary I-Mem images.
//! * [`simt_datapath`] — bit-exact models of the paper's ALU datapaths
//!   (DSP-decomposed 32×32 multiplier, multiplicative shifter, segmented
//!   prefix adder).
//! * [`simt_core`] — the cycle-accurate SIMT processor simulator.
//! * [`simt_compiler`] — the optimizing compiler: SSA kernel IR, pass
//!   pipeline (constant folding, strength reduction, CSE, DCE),
//!   linear-scan register allocation, lowering to the ISA, and the
//!   content-addressed [`simt_compiler::CompileCache`].
//! * [`fpga_fabric`] — the Agilex-7 device model.
//! * [`fpga_fitter`] — the "virtual Quartus" synthesis / placement / STA
//!   pipeline that regenerates the paper's timing-closure results.
//! * [`simt_kernels`] — fixed-point kernels, host references, and the
//!   [`simt_kernels::LaunchSpec`] descriptions the runtime launches
//!   (from text assembly or compiled IR frontends).
//! * [`simt_system`] — stamped multi-core systems with a word-serial
//!   interconnect and bulk-synchronous phases.
//! * [`simt_graph`] — execution graphs: launch/copy DAGs (built or
//!   captured from streams), IR-level fusion of back-to-back kernel
//!   chains with escape analysis.
//! * [`simt_runtime`] — the stream-oriented host runtime: CUDA-style
//!   streams, events, async launches and modeled copies over a pool of
//!   simulated devices, with least-loaded placement at dispatch, a
//!   discrete-event virtual timeline, graph capture/instantiate/replay,
//!   a pool-wide LRU-bounded compile cache on the launch path, seeded
//!   fault injection with recovery (`simt_runtime::chaos`) and
//!   postmortem bundles (`simt_runtime::postmortem`).
//! * [`simt_fuzzgen`] — random-IR differential fuzzing: seeded
//!   generation of valid kernel IR, an every-path differential executor
//!   (O0/O2 × reference/predecoded × functional/cycle-accurate ×
//!   eager/replayed),
//!   a greedy failure minimizer, and the pinned regression corpus.
//!
//! ## Stream-API quickstart
//!
//! ```
//! use simt_repro::simt_kernels::{workload::int_vector, LaunchSpec};
//! use simt_repro::simt_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::default()); // 2-device pool
//! let stream = rt.stream();
//! let x = int_vector(256, 1);
//! let y = int_vector(256, 2);
//! let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
//! for (off, words) in &inputs {
//!     stream.copy_in(*off, words); // host→device at modeled link cost
//! }
//! let (off, len) = (spec.out_off, spec.out_len);
//! let expected = spec.expected.clone();
//! let launch = stream.launch(spec); // asynchronous
//! let out = stream.copy_out(off, len);
//! rt.synchronize().unwrap();
//! assert_eq!(out.wait().unwrap(), expected);
//! assert!(launch.wait().unwrap().cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub use fpga_fabric;
pub use fpga_fitter;
pub use simt_compiler;
pub use simt_core;
pub use simt_datapath;
pub use simt_fuzzgen;
pub use simt_graph;
pub use simt_isa;
pub use simt_kernels;
pub use simt_runtime;
pub use simt_system;
