//! Execution-graph instantiation and replay.
//!
//! A [`simt_graph::ExecGraph`] (built directly, or recorded with
//! `Stream::begin_capture`/`end_capture`, optionally fused with
//! [`simt_graph::fuse()`]) becomes runnable in two steps:
//!
//! 1. [`Runtime::instantiate`] — validate every node against the pool
//!    configuration and compile every launch through the pool-wide
//!    content-addressed compile cache. Instantiation is the only
//!    compile cost the graph ever pays; replays are pure cache hits.
//! 2. [`Runtime::replay`] — execute the DAG against a fresh, zeroed
//!    graph buffer of as many words as the graph can address (the
//!    largest copy-window end and `min(shared_words, memory_words)` of
//!    its launches, fixed at instantiation and raised by
//!    [`GraphExec::set_copy_in`]; never more than the device buffer),
//!    walking a deterministic topological order and *placing*
//!    each ready node on the least-loaded device engine of the pool's
//!    shared virtual timeline (launches on compute engines, copies on
//!    DMA engines — the same dispatch rule stream commands use). The
//!    returned [`GraphReplay`] carries the copy-out payloads, the
//!    per-node placement trace and the replay's modeled span.
//!
//! Replays are parameterizable: [`GraphExec::set_copy_in`] swaps a
//! copy-in node's payload between replays — new data, zero recompiles.
//!
//! What a replay copies: each copy-in's payload into the buffer, each
//! copy-out's window out of it into the result, and per launch what
//! [`pool`] says a launch copies. Besides the buffer it allocates one
//! state per node, the placement trace, the output list and the
//! copy-out payloads (`tests/alloc_replay.rs` counts them).
//!
//! A replay executes on the caller's thread, outside the scheduler
//! lock, and then *books* itself in one acquisition: every executed
//! node retires through the path stream commands take, in topological
//! order, and the replay's span is recorded. A replay cut short — a
//! trap, a bad window, a shutdown — books the nodes it did execute.

use crate::scheduler::{Origin, Retired};
use crate::stats::CommandKind;
use crate::{pool, Runtime, RuntimeError};
use simt_core::ExecStats;
use simt_graph::{ExecGraph, GraphOp, NodeId};
use std::time::Instant;

/// An instantiated graph: validated against the pool and pre-compiled
/// through its compile cache, ready to replay any number of times.
#[derive(Debug)]
pub struct GraphExec {
    graph: ExecGraph,
    memory_words: usize,
    /// Words of graph buffer a replay allocates: no node addresses a
    /// word at or past it (the largest copy-window end, and each
    /// launch's `min(shared_words, memory_words)`).
    extent: usize,
}

impl GraphExec {
    /// The underlying graph.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// Replace a copy-in node's payload for subsequent replays (buffer
    /// re-binding without recompiling). The new payload must stay inside
    /// the device buffer (`memory_words`); one reaching past what the
    /// graph addressed so far grows the replay buffer with it.
    pub fn set_copy_in(&mut self, node: NodeId, data: Vec<u32>) -> Result<(), RuntimeError> {
        let dst = match self.graph.nodes().get(node.index()).map(|n| &n.op) {
            Some(GraphOp::CopyIn { dst, .. }) => *dst,
            Some(other) => {
                return Err(RuntimeError::Graph(format!(
                    "{node} is a {} node, not a copy-in",
                    other.kind()
                )))
            }
            None => {
                return Err(RuntimeError::Graph(format!(
                    "{node} is out of range for a graph of {} nodes",
                    self.graph.len()
                )))
            }
        };
        let end = check_window(dst, data.len(), self.memory_words)?;
        self.extent = self.extent.max(end);
        assert!(self.graph.set_copy_in(node, data), "checked copy-in node");
        Ok(())
    }
}

/// Where one node ran on the virtual timeline.
#[derive(Debug, Clone, Copy)]
pub struct NodePlacement {
    /// The node.
    pub node: NodeId,
    /// Command kind (launch / copy-in / copy-out).
    pub kind: CommandKind,
    /// Device whose engine the node was placed on.
    pub device: usize,
    /// Virtual start cycle.
    pub start: u64,
    /// Virtual end cycle.
    pub end: u64,
}

/// Result of one graph replay.
#[derive(Debug, Clone, Default)]
pub struct GraphReplay {
    /// Copy-out payloads, in replay order.
    pub outputs: Vec<(NodeId, Vec<u32>)>,
    /// Per-node placement trace, in replay order.
    pub placements: Vec<NodePlacement>,
    /// Modeled cycles from the replay's first start to its last end —
    /// the graph's makespan on the pool.
    pub span_cycles: u64,
    /// Aggregated execution statistics of every launch node.
    pub compute: ExecStats,
    /// Launches that found their program in the pool's compile cache
    /// (after instantiation, all of them).
    pub compile_hits: u64,
}

impl GraphReplay {
    /// The payload a copy-out node produced, if `node` is one.
    pub fn output(&self, node: NodeId) -> Option<&[u32]> {
        self.outputs
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, words)| words.as_slice())
    }

    /// How many nodes each device received, indexed by device id.
    pub fn device_spread(&self, devices: usize) -> Vec<usize> {
        let mut spread = vec![0usize; devices];
        for p in &self.placements {
            if let Some(slot) = spread.get_mut(p.device) {
                *slot += 1;
            }
        }
        spread
    }
}

/// The end `off + len` of the copy window `[off, off + len)`, if it
/// fits a buffer of `memory_words` words.
pub(crate) fn check_window(
    off: usize,
    len: usize,
    memory_words: usize,
) -> Result<usize, RuntimeError> {
    match off.checked_add(len) {
        Some(end) if end <= memory_words => Ok(end),
        _ => Err(RuntimeError::CopyOutOfBounds {
            offset: off,
            len,
            memory_words,
        }),
    }
}

impl Runtime {
    /// Instantiate a graph: validate every copy window against the
    /// device buffer and compile every launch through the pool-wide
    /// compile cache (whole-graph compilation — one artifact per
    /// distinct kernel, shared with the streams' launch path). The
    /// artifacts are resolved in *predecoded* form, so every replayed
    /// launch reuses the cached simulator decode (`decode_hits` on the
    /// cache) instead of re-deriving it.
    pub fn instantiate(&self, graph: ExecGraph) -> Result<GraphExec, RuntimeError> {
        let memory_words = self.config().device.memory_words;
        let mut lookups = Vec::new();
        let extent = graph.nodes().iter().try_fold(0, |extent: usize, node| {
            let end = match &node.op {
                GraphOp::CopyIn { dst, data } => check_window(*dst, data.len(), memory_words)?,
                GraphOp::CopyOut { src, len } => check_window(*src, *len, memory_words)?,
                GraphOp::Launch(spec) => {
                    lookups.push(pool::resolve(self.compile_cache(), spec)?.1);
                    spec.config.shared_words.min(memory_words)
                }
            };
            Ok(extent.max(end))
        });
        // Whatever was looked up before a node was rejected happened.
        self.shared.record_lookups(&lookups);
        Ok(GraphExec {
            graph,
            memory_words,
            extent: extent?,
        })
    }

    /// Replay an instantiated graph: execute its nodes in deterministic
    /// topological order against a fresh graph buffer, placing each
    /// node on the least-loaded engine of the pool's shared virtual
    /// timeline. Kernel results are bit-exact with eager stream
    /// execution of the same DAG; the placement breaks stream-device
    /// affinity, so independent branches land on different devices.
    pub fn replay(&self, exec: &GraphExec) -> Result<GraphReplay, RuntimeError> {
        let mut device = self.replay_device.lock().unwrap();
        let mut buffer = vec![0u32; exec.extent];
        let order = exec.graph.topo_order();
        let mut nodes: Vec<NodeState> = order.iter().map(|_| NodeState::default()).collect();
        let mut replay = GraphReplay {
            placements: Vec::with_capacity(order.len()),
            ..Default::default()
        };
        // Execute, outside the scheduler lock, until a node fails.
        let executed = order.iter().try_for_each(|&id| {
            // A replay spans many nodes of host-side work; honor a
            // concurrent `Runtime::shutdown` between nodes so the
            // caller's handle resolves instead of racing the drop.
            if self
                .shared
                .shutdown
                .load(std::sync::atomic::Ordering::Relaxed)
            {
                return Err(RuntimeError::Shutdown);
            }
            let t0 = Instant::now();
            let (kind, cycles, words, launch) = match &exec.graph.node(id).op {
                GraphOp::CopyIn { dst, data } => {
                    let end = check_window(*dst, data.len(), buffer.len())?;
                    buffer[*dst..end].copy_from_slice(data);
                    let cycles = device.copy_cycles(data.len());
                    (CommandKind::CopyIn, cycles, data.len(), None)
                }
                GraphOp::CopyOut { src, len } => {
                    let end = check_window(*src, *len, buffer.len())?;
                    replay.outputs.push((id, buffer[*src..end].to_vec()));
                    (CommandKind::CopyOut, device.copy_cycles(*len), *len, None)
                }
                GraphOp::Launch(spec) => {
                    let outcome = device.run_launch(spec, &mut buffer)?;
                    replay.compute.merge(&outcome.stats);
                    if outcome.lookup.hit {
                        replay.compile_hits += 1;
                    }
                    let launch = self.shared.launched(&mut device, &spec.name, outcome);
                    let cycles = launch.outcome.stats.cycles;
                    (CommandKind::Launch, cycles, 0, Some(launch))
                }
            };
            nodes[id.index()].run = Some(Retired {
                // Ready when its dependencies end, known once they are
                // booked.
                origin: Origin::Graph { ready: 0 },
                seq: id.index() as u64,
                kind,
                cycles,
                words: words as u64,
                wall: t0.elapsed(),
                launch,
            });
            Ok(())
        });
        // Book what ran, in one acquisition. A dependency comes earlier
        // in the topological order, so its end is filled in.
        let mut state = self.shared.lock();
        let mut span = (u64::MAX, 0u64);
        for &id in order {
            let Some(mut run) = nodes[id.index()].run.take() else {
                break;
            };
            let deps = exec.graph.node(id).deps.iter();
            let ready = deps.map(|d| nodes[d.index()].end).max().unwrap_or(0);
            run.origin = Origin::Graph { ready };
            let (placed, start, end) = self.shared.retire(&mut state, &run);
            nodes[id.index()].end = end;
            span = (span.0.min(start), span.1.max(end));
            replay.placements.push(NodePlacement {
                node: id,
                kind: run.kind,
                device: placed,
                start,
                end,
            });
        }
        executed?;
        replay.span_cycles = span.1.saturating_sub(span.0);
        self.shared
            .replay_done(&mut state, replay.placements.len(), replay.span_cycles);
        Ok(replay)
    }
}

/// One node of a replay in flight, by `NodeId::index()`: what it did,
/// from its execution until it is booked, then the virtual cycle it
/// ended at.
#[derive(Default)]
struct NodeState {
    run: Option<Retired>,
    end: u64,
}
