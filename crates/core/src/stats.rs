//! Execution statistics and derived performance figures.

use crate::shared::SharedMemStats;
use serde::{Deserialize, Serialize};

/// Cycle-exact accounting of one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Total clocks, including pipeline fill and branch flushes.
    pub cycles: u64,
    /// Instructions issued (loop iterations re-issue body instructions).
    pub instructions: u64,
    /// Clocks spent filling the fetch pipeline at start.
    pub fill_cycles: u64,
    /// Clocks lost to taken-branch pipeline flushes.
    pub branch_flush_cycles: u64,
    /// Number of taken branches (bra / taken brp / call / ret).
    pub branches_taken: u64,
    /// Zero-overhead loop back-edges taken (no flush cost).
    pub loop_backedges: u64,
    /// Clocks in operation-class instructions.
    pub op_cycles: u64,
    /// Clocks in loads.
    pub load_cycles: u64,
    /// Clocks in stores.
    pub store_cycles: u64,
    /// Clocks in single-cycle instructions.
    pub single_cycles: u64,
    /// Shared-memory statistics.
    pub mem: SharedMemStats,
    /// Thread-operations retired (sum of active threads over operation
    /// and memory instructions) — the numerator of GOPS.
    pub thread_ops: u64,
}

impl ExecStats {
    /// Field-wise accumulate another run's statistics into `self`.
    ///
    /// Lives next to the struct (rather than as a helper in a consumer
    /// crate) and destructures `other` exhaustively, so adding a field
    /// to [`ExecStats`] without extending the merge is a compile error
    /// — counters can't silently drop out of aggregates.
    pub fn merge(&mut self, other: &Self) {
        let ExecStats {
            cycles,
            instructions,
            fill_cycles,
            branch_flush_cycles,
            branches_taken,
            loop_backedges,
            op_cycles,
            load_cycles,
            store_cycles,
            single_cycles,
            mem,
            thread_ops,
        } = other;
        self.cycles += cycles;
        self.instructions += instructions;
        self.fill_cycles += fill_cycles;
        self.branch_flush_cycles += branch_flush_cycles;
        self.branches_taken += branches_taken;
        self.loop_backedges += loop_backedges;
        self.op_cycles += op_cycles;
        self.load_cycles += load_cycles;
        self.store_cycles += store_cycles;
        self.single_cycles += single_cycles;
        self.mem.merge(mem);
        self.thread_ops += thread_ops;
    }

    /// [`ExecStats::merge`] of `other` taken `times` times over, every
    /// counter saturating at `u64::MAX`: how the static walk folds one
    /// trip of a loop body into what encloses it. `mem` is left alone —
    /// memory traffic depends on the data, and the walk tallies none.
    pub(crate) fn merge_times(&mut self, other: &Self, times: u64) {
        let ExecStats {
            cycles,
            instructions,
            fill_cycles,
            branch_flush_cycles,
            branches_taken,
            loop_backedges,
            op_cycles,
            load_cycles,
            store_cycles,
            single_cycles,
            mem: _,
            thread_ops,
        } = other;
        for (into, n) in [
            (&mut self.cycles, cycles),
            (&mut self.instructions, instructions),
            (&mut self.fill_cycles, fill_cycles),
            (&mut self.branch_flush_cycles, branch_flush_cycles),
            (&mut self.branches_taken, branches_taken),
            (&mut self.loop_backedges, loop_backedges),
            (&mut self.op_cycles, op_cycles),
            (&mut self.load_cycles, load_cycles),
            (&mut self.store_cycles, store_cycles),
            (&mut self.single_cycles, single_cycles),
            (&mut self.thread_ops, thread_ops),
        ] {
            *into = into.saturating_add(n.saturating_mul(times));
        }
    }

    /// Instructions per clock.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mean clocks per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Wall-clock seconds at a given clock frequency in MHz (e.g. the
    /// 956 MHz restricted Fmax of §5).
    pub fn seconds_at(&self, fmax_mhz: f64) -> f64 {
        self.cycles as f64 / (fmax_mhz * 1e6)
    }

    /// Thread-operations per second at a clock frequency in MHz
    /// (effective GOPS when divided by 1e9).
    pub fn ops_per_second_at(&self, fmax_mhz: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_ops as f64 / self.seconds_at(fmax_mhz)
        }
    }

    /// Consistency check: the per-class cycle buckets plus fill and
    /// flushes account for every clock.
    pub fn buckets_consistent(&self) -> bool {
        self.fill_cycles
            + self.branch_flush_cycles
            + self.op_cycles
            + self.load_cycles
            + self.store_cycles
            + self.single_cycles
            == self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise() {
        let mut a = ExecStats {
            cycles: 10,
            instructions: 2,
            ..Default::default()
        };
        let mut b = ExecStats {
            cycles: 5,
            instructions: 3,
            thread_ops: 7,
            ..Default::default()
        };
        b.mem.reads = 11;
        b.mem.write_cycles = 13;
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.instructions, 5);
        assert_eq!(a.thread_ops, 7);
        assert_eq!(a.mem.reads, 11);
        assert_eq!(a.mem.write_cycles, 13);
    }

    #[test]
    fn derived_metrics() {
        let s = ExecStats {
            cycles: 1000,
            instructions: 250,
            thread_ops: 16000,
            ..Default::default()
        };
        assert!((s.ipc() - 0.25).abs() < 1e-12);
        assert!((s.cpi() - 4.0).abs() < 1e-12);
        let secs = s.seconds_at(1000.0); // 1 GHz -> 1 ns/clk
        assert!((secs - 1e-6).abs() < 1e-15);
        assert!((s.ops_per_second_at(1000.0) - 16e9).abs() < 1.0);
    }

    #[test]
    fn zero_safe() {
        let s = ExecStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.ops_per_second_at(950.0), 0.0);
        assert!(s.buckets_consistent());
    }
}
