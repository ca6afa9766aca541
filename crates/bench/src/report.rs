//! The machine-readable attribution report behind `tables --check`:
//! when the regression gate trips on a modeled-cycle leaf, the bench
//! harness re-runs the implicated workloads under the profiler and
//! writes a [`CheckReport`] naming the PCs, passes, and graph nodes
//! where the cycles live — so an exit-1 comes with a *where*, not just
//! a diff.

use serde::{Deserialize, Serialize};
use simt_runtime::PcHotspot;

/// One baseline-vs-current leaf difference out of the artifact walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafDelta {
    /// JSON-pointer-ish path: `ARTIFACT.json:/rows/3/cycles`.
    pub path: String,
    /// Comparison class the leaf was held to (`Exact` or `Throughput`).
    pub class: String,
    /// Baseline value.
    pub baseline: f64,
    /// Regenerated value.
    pub current: f64,
    /// Relative delta `(current - baseline) / |baseline|`.
    pub delta: f64,
}

/// Per-pass instruction counts for one compiled kernel — where the
/// optimizer grew or shrank the program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassDelta {
    /// Pass name.
    pub pass: String,
    /// IR instructions entering the pass.
    pub insts_before: u64,
    /// IR instructions leaving the pass.
    pub insts_after: u64,
}

/// One node of a replayed execution graph on the virtual timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpan {
    /// Topological node index.
    pub node: usize,
    /// Node label (kernel name or copy direction).
    pub label: String,
    /// Device the node was placed on.
    pub device: usize,
    /// Modeled start cycle.
    pub start: u64,
    /// Modeled end cycle.
    pub end: u64,
}

/// A profiled re-run of one workload at one thread shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeProfile {
    /// Thread count of the shape.
    pub threads: usize,
    /// Total modeled cycles of the profiled run.
    pub total_cycles: u64,
    /// Pipeline-fill cycles not attributable to any PC.
    pub fill_cycles: u64,
    /// Hottest PCs, descending by cycles.
    pub pcs: Vec<PcHotspot>,
    /// Optimizer pass ledger (empty for hand-written asm kernels).
    pub passes: Vec<PassDelta>,
    /// Graph-node spans (empty for plain stream workloads).
    pub graph_nodes: Vec<NodeSpan>,
}

/// Attribution for one implicated workload: the same kernel profiled
/// at two thread shapes, so a reviewer can see whether a cycle delta
/// scales with parallelism or is a fixed cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadAttribution {
    /// Workload name (`saxpy`, `matmul_ir`, ...).
    pub workload: String,
    /// Profiled shapes, ascending by thread count.
    pub shapes: Vec<ShapeProfile>,
}

/// The report `tables --check` writes next to its exit code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Report format version.
    pub schema_version: u32,
    /// True when `--inject` deliberately corrupted the fresh side.
    pub injected: bool,
    /// Out-of-band leaf deltas (the gate's failures).
    pub failures: Vec<LeafDelta>,
    /// In-band throughput drift (reported, never failing).
    pub warnings: Vec<LeafDelta>,
    /// Profiled attribution for every implicated workload.
    pub attributions: Vec<WorkloadAttribution>,
}

/// Current check-report schema version.
pub const CHECK_REPORT_SCHEMA_VERSION: u32 = 1;

impl CheckReport {
    /// Workload names implicated by the failing leaves: every known
    /// workload whose name appears as a path component of a failure
    /// (deduplicated, in `known` order).
    pub fn implicated_workloads(failures: &[LeafDelta], known: &[&str]) -> Vec<String> {
        known
            .iter()
            .filter(|name| {
                failures.iter().any(|f| {
                    f.path
                        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .any(|seg| seg == **name)
                })
            })
            .map(|s| s.to_string())
            .collect()
    }

    /// Human-readable rendering for the gate's stderr.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== check report: {} failure(s), {} warning(s){} ==",
            self.failures.len(),
            self.warnings.len(),
            if self.injected { " (injected)" } else { "" }
        );
        for f in &self.failures {
            let _ = writeln!(
                s,
                "FAIL {}  {} -> {}  ({:+.2}%)",
                f.path,
                f.baseline,
                f.current,
                f.delta * 100.0
            );
        }
        for a in &self.attributions {
            let _ = writeln!(s, "attribution: {}", a.workload);
            for shape in &a.shapes {
                let _ = writeln!(
                    s,
                    "  threads={}: {} modeled cycles ({} fill)",
                    shape.threads, shape.total_cycles, shape.fill_cycles
                );
                for pc in shape.pcs.iter().take(5) {
                    let _ = writeln!(s, "    pc {:>4}  {:>10} cyc  {}", pc.pc, pc.cycles, pc.asm);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(path: &str) -> LeafDelta {
        LeafDelta {
            path: path.into(),
            class: "Exact".into(),
            baseline: 100.0,
            current: 200.0,
            delta: 1.0,
        }
    }

    #[test]
    fn implicated_workloads_match_path_components() {
        let failures = vec![
            fail("BENCH_compiler.json:/kernels/2/matmul_ir/cycles"),
            fail("BENCH_sim.json:/rows/0/saxpy/dyn_instrs"),
        ];
        let known = ["saxpy", "fir", "matmul_ir", "iir_ir"];
        assert_eq!(
            CheckReport::implicated_workloads(&failures, &known),
            vec!["saxpy".to_string(), "matmul_ir".to_string()]
        );
        // `fir` must not match inside `fir`-free paths, and substrings
        // (`iir` inside `iir_ir`) must not match as components.
        let failures = vec![fail("BENCH_compiler.json:/iir_ir/cycles")];
        assert_eq!(
            CheckReport::implicated_workloads(&failures, &known),
            vec!["iir_ir".to_string()]
        );
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = CheckReport {
            schema_version: CHECK_REPORT_SCHEMA_VERSION,
            injected: true,
            failures: vec![fail("BENCH_graph.json:/fused_makespan_cycles")],
            warnings: Vec::new(),
            attributions: vec![WorkloadAttribution {
                workload: "saxpy".into(),
                shapes: vec![ShapeProfile {
                    threads: 64,
                    total_cycles: 1000,
                    fill_cycles: 10,
                    pcs: vec![PcHotspot {
                        pc: 2,
                        issues: 7,
                        cycles: 500,
                        thread_ops: 448,
                        asm: "vmac.q15 r3, r1, r2".into(),
                        ir_value: None,
                    }],
                    passes: vec![PassDelta {
                        pass: "fuse_mac".into(),
                        insts_before: 12,
                        insts_after: 9,
                    }],
                    graph_nodes: vec![NodeSpan {
                        node: 0,
                        label: "saxpy".into(),
                        device: 0,
                        start: 0,
                        end: 128,
                    }],
                }],
            }],
        };
        let back = CheckReport::from_value(&report.to_value()).expect("round trip");
        assert_eq!(back, report);
        assert!(report.render_text().contains("attribution: saxpy"));
    }
}
