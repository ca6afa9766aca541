//! # simt-graph — execution graphs for the SIMT runtime
//!
//! The runtime (streams, events) executes one command at a time per
//! stream; the compiler optimizes one kernel at a time. Heavy repeated
//! workloads — the serving case the ROADMAP targets — are neither: they
//! are *fixed DAGs of launches and copies* submitted over and over with
//! fresh data. This crate models that shape explicitly, in the spirit
//! of CUDA Graphs:
//!
//! * [`GraphBuilder`] / [`ExecGraph`] — an explicit DAG of kernel
//!   launches, host→device and device→host copies, with validated edges
//!   (cycles and dangling dependencies are typed [`GraphError`]s, never
//!   panics). `simt-runtime` can also record one by *capturing* a
//!   stream (`Stream::begin_capture` / `end_capture`).
//! * [`fuse`](fuse::fuse) — an IR-level fusion pass over the graph:
//!   chains of back-to-back [`KernelSource::Ir`] launches on the same
//!   dependency path are stitched into a single fused kernel through
//!   `simt-compiler`'s multi-kernel lowering. Stage handoffs through
//!   shared memory become register def-use edges (store-to-load
//!   forwarding), and the intermediate stores are elided once an escape
//!   analysis proves no other node or host copy reads them.
//! * replay lives in `simt-runtime` (`Runtime::instantiate` /
//!   `Runtime::replay`): whole-graph compilation through the pool-wide
//!   compile cache, then topological replay that places each ready node
//!   on the least-loaded device's virtual timeline.
//!
//! ```
//! use simt_graph::GraphBuilder;
//! use simt_kernels::{workload::int_vector, LaunchSpec};
//!
//! let x = int_vector(64, 1);
//! let y = int_vector(64, 2);
//! let (spec, inputs) = LaunchSpec::saxpy_ir(3, &x, &y).detach_inputs();
//! let (off, len) = (spec.out_off, spec.out_len);
//!
//! let mut b = GraphBuilder::new();
//! let copies: Vec<_> = inputs
//!     .into_iter()
//!     .map(|(dst, words)| b.copy_in(dst, words, &[]))
//!     .collect();
//! let launch = b.launch(spec, &copies);
//! b.copy_out(off, len, &[launch]);
//! let graph = b.finish().unwrap();
//! assert_eq!(graph.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuse;
pub mod graph;

pub use fuse::{fuse, FusionReport};
pub use graph::{ExecGraph, GraphBuilder, GraphError, GraphNode, GraphOp, NodeId};

// Re-exported so runtime capture code and graph consumers agree on the
// launch vocabulary without an extra import.
pub use simt_kernels::{KernelSource, LaunchSpec};
