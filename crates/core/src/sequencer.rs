//! The instruction fetch/decode pipeline-advance control (§3, Figs. 2–3).
//!
//! "The end of an instruction is defined when the number of clocks that
//! instruction requires has been reached. This signal is now registered
//! to improve performance, so the circuit must check for the number of
//! cycles minus one." (§3.1)
//!
//! This module provides both:
//!
//! * the **closed-form** clock counts ([`InstructionTiming`]) that the
//!   simulator's run loops charge, and
//! * a **clock-steppable** model of the counter hardware
//!   ([`PipelineControl`]) with the width/depth counters, the registered
//!   end-of-instruction comparison (count to *N−1*), and the single-cycle
//!   trap — which a cycle-accurate run steps once per µop of its program
//!   and which the tests check against the closed forms at every thread
//!   count.

use serde::{Deserialize, Serialize};
use simt_isa::{CycleClass, SHARED_READ_PORTS, SP_COUNT};

/// Depth of the instruction fetch/decode pipeline in clocks (PC → I-Mem →
/// decode → control-register delay chain → issue). A taken branch "zeroes
/// out the following instructions in the pipeline" (§3), costing this
/// many bubble clocks; program start pays the same fill.
pub const FETCH_PIPELINE_DEPTH: u64 = 4;

/// Closed-form clock counts of the pipeline control (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstructionTiming;

impl InstructionTiming {
    /// Thread-block shape for `active` threads: `(width_lanes, depth)` —
    /// lanes in a (possibly scaled) row and number of rows. Dynamic
    /// thread scaling changes *both* for loads/stores ("both the thread
    /// block width and depth can change") but only depth matters for
    /// operation instructions.
    pub fn block_shape(active: usize) -> (usize, usize) {
        let lanes = active.clamp(1, SP_COUNT);
        let depth = active.div_ceil(SP_COUNT).max(1);
        (lanes, depth)
    }

    /// Clocks for an instruction of `class` over `active` threads.
    ///
    /// * operation: `depth` (one 16-thread row per clock — "512 threads
    ///   would require 32 clocks per operation instruction");
    /// * load: `ceil(lanes/4) × depth` (the 16:4 read mux — "4 clocks per
    ///   block width");
    /// * store: `lanes × depth` (the 16:1 write mux);
    /// * single-cycle: 1 (trapped a decode stage early).
    pub fn cycles(class: CycleClass, active: usize) -> u64 {
        let (lanes, depth) = Self::block_shape(active);
        match class {
            CycleClass::Operation => depth as u64,
            CycleClass::Load => (lanes.div_ceil(SHARED_READ_PORTS) * depth) as u64,
            CycleClass::Store => (lanes * depth) as u64,
            CycleClass::SingleCycle => 1,
        }
    }

    /// Active thread count after applying a dynamic thread scale of `k`
    /// (threads >> k, floor 1).
    pub fn scaled_threads(threads: usize, scale: Option<u8>) -> usize {
        match scale {
            Some(k) => (threads >> k).max(1),
            None => threads,
        }
    }
}

/// Clock-steppable model of the Fig. 3 counter hardware.
///
/// The comparators check "the width and depth combination one cycle
/// before the end", and the end signal is registered — so `tick()`
/// reports completion exactly `cycles()` clocks after `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineControl {
    /// Width counter limit (1 for operations — depth-only counting).
    width_limit: u32,
    /// Depth counter limit.
    depth_limit: u32,
    width_count: u32,
    depth_count: u32,
    /// The registered end-of-instruction signal (`increment_pipe`).
    end_registered: bool,
    /// Single-cycle trap from the previous decode stage.
    single_cycle: bool,
    elapsed: u64,
    done: bool,
}

impl PipelineControl {
    /// Arm the counters for one instruction.
    pub fn start(class: CycleClass, active: usize) -> Self {
        let (lanes, depth) = InstructionTiming::block_shape(active);
        let (width_limit, depth_limit, single) = match class {
            CycleClass::Operation => (1, depth as u32, depth == 1),
            CycleClass::Load => (
                lanes.div_ceil(SHARED_READ_PORTS) as u32,
                depth as u32,
                false,
            ),
            CycleClass::Store => (lanes as u32, depth as u32, false),
            CycleClass::SingleCycle => (1, 1, true),
        };
        // A load/store of a single 4-or-fewer-lane row can still be one
        // clock; the same trap catches it.
        let single_cycle = single || (width_limit == 1 && depth_limit == 1);
        PipelineControl {
            width_limit,
            depth_limit,
            width_count: 0,
            depth_count: 0,
            end_registered: single_cycle,
            single_cycle,
            elapsed: 0,
            done: false,
        }
    }

    /// Advance one clock; returns `true` on the clock the instruction
    /// completes (`increment_pipe` asserts and the PC advances).
    pub fn tick(&mut self) -> bool {
        assert!(!self.done, "tick after completion");
        self.elapsed += 1;
        if self.end_registered {
            // The registered signal (or the single-cycle trap) fires now.
            self.done = true;
            return true;
        }
        // Comparators look at the *current* counts — the combination one
        // cycle before the end — then the result is registered.
        let last_width =
            self.width_count == self.width_limit.saturating_sub(2) || self.width_limit == 1;
        let last_depth = self.depth_count
            == if self.width_limit == 1 {
                self.depth_limit.saturating_sub(2)
            } else {
                self.depth_limit - 1
            };
        // For width×depth instructions the end comparison is
        // (depth == D-1, width == W-2); for depth-only it is (depth == D-2).
        let about_to_end = if self.width_limit == 1 {
            last_depth
        } else {
            last_depth && last_width
        };
        if about_to_end {
            self.end_registered = true;
        }
        // Step the counters.
        self.width_count += 1;
        if self.width_count == self.width_limit {
            self.width_count = 0;
            self.depth_count += 1;
        }
        false
    }

    /// Clocks elapsed since `start`.
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Whether the single-cycle trap was taken.
    pub fn was_single_cycle(&self) -> bool {
        self.single_cycle
    }

    /// Run to completion, returning total clocks (what a cycle-accurate
    /// run checks each µop with).
    pub fn run_to_end(mut self) -> u64 {
        while !self.tick() {}
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_512_threads() {
        // §3.1: 512 threads, parallelism 16 -> 32 clocks per operation;
        // a load runs 4 clocks per width over depth 32 -> 128 clocks.
        assert_eq!(InstructionTiming::cycles(CycleClass::Operation, 512), 32);
        assert_eq!(InstructionTiming::cycles(CycleClass::Load, 512), 128);
        assert_eq!(InstructionTiming::cycles(CycleClass::Store, 512), 512);
        assert_eq!(InstructionTiming::cycles(CycleClass::SingleCycle, 512), 1);
    }

    #[test]
    fn dynamic_scaling_shrinks_width_and_depth() {
        // 512 threads scaled by k=5 -> 16 active: store drops from 512
        // clocks to 16, load from 128 to 4.
        let active = InstructionTiming::scaled_threads(512, Some(5));
        assert_eq!(active, 16);
        assert_eq!(InstructionTiming::cycles(CycleClass::Store, active), 16);
        assert_eq!(InstructionTiming::cycles(CycleClass::Load, active), 4);
        // k=7 on 512 -> 4 active: a *partial* row, width shrinks too.
        let active = InstructionTiming::scaled_threads(512, Some(7));
        assert_eq!(active, 4);
        assert_eq!(InstructionTiming::cycles(CycleClass::Store, active), 4);
        assert_eq!(InstructionTiming::cycles(CycleClass::Load, active), 1);
        assert_eq!(InstructionTiming::cycles(CycleClass::Operation, active), 1);
    }

    #[test]
    fn scaled_threads_floor_one() {
        assert_eq!(InstructionTiming::scaled_threads(4, Some(7)), 1);
        assert_eq!(InstructionTiming::scaled_threads(1024, None), 1024);
    }

    /// Every active-thread count a µop can carry, up to the configuration
    /// ceiling, for every cycle class: the counter hardware and the
    /// closed form agree on all of them, in every build, so stepping
    /// once per µop proves as much as stepping every dynamic issue.
    #[test]
    fn stepped_counters_match_closed_form() {
        for threads in 1..=simt_isa::MAX_THREADS {
            for class in [
                CycleClass::Operation,
                CycleClass::Load,
                CycleClass::Store,
                CycleClass::SingleCycle,
            ] {
                let want = InstructionTiming::cycles(class, threads);
                let got = PipelineControl::start(class, threads).run_to_end();
                assert_eq!(got, want, "{class:?} threads={threads}");
            }
        }
    }

    #[test]
    fn single_cycle_trap() {
        let pc = PipelineControl::start(CycleClass::SingleCycle, 4096);
        assert!(pc.was_single_cycle());
        assert_eq!(pc.run_to_end(), 1);
        // A 16-thread operation is one row -> also trapped single-cycle.
        let pc = PipelineControl::start(CycleClass::Operation, 16);
        assert!(pc.was_single_cycle());
        assert_eq!(pc.run_to_end(), 1);
        // A 32-thread operation is two rows -> not single-cycle.
        let pc = PipelineControl::start(CycleClass::Operation, 32);
        assert!(!pc.was_single_cycle());
        assert_eq!(pc.run_to_end(), 2);
    }

    #[test]
    #[should_panic(expected = "tick after completion")]
    fn tick_after_done_is_a_bug() {
        let mut pc = PipelineControl::start(CycleClass::SingleCycle, 16);
        assert!(pc.tick());
        pc.tick();
    }
}
