//! # simt-system — multi-processor SIMT systems
//!
//! The paper's §6 names the next step: "A multi-processor design will
//! show how the FPGA can support high performance systems. This will
//! encompass both packing processors together ... and combining with a
//! high speed interconnect fabric", with "a system performance (i.e. a
//! design consisting of multiple SIMT cores plus some accelerators) of
//! 850 MHz \[as\] a reasonable target" (§5.1).
//!
//! This crate builds that system on the reproduction's substrates:
//!
//! * N [`simt_core::Processor`] cores (the stamps of §5.1), each with its
//!   own register file and shared memory;
//! * a word-serial **interconnect**: point-to-point links that move data
//!   between cores' shared memories at one word per system clock after a
//!   fixed setup latency (the sector-boundary pipeline stages of §6);
//! * **bulk-synchronous execution**: each phase runs every core's kernel
//!   to `exit` (cores are independent lockstep machines), then the host
//!   moves data; phase time is the slowest core, exactly as a hardware
//!   barrier would behave;
//! * a system clock derived from the *stamped* compile of `fpga-fitter`
//!   — the Table 2 result is what multi-core systems actually run at.

#![forbid(unsafe_code)]

use fpga_fabric::Device;
use fpga_fitter::{best_of, seed_sweep, CompileOptions};
use serde::{Deserialize, Serialize};
use simt_core::{
    ConfigError, ExecError, ExecStats, LoadError, Processor, ProcessorConfig, RunOptions,
};
use simt_isa::Program;

/// Configuration of a multi-core system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of SIMT cores (stamps).
    pub cores: usize,
    /// Per-core processor configuration.
    pub core: ProcessorConfig,
    /// Interconnect payload width in words per clock.
    pub link_width_words: usize,
    /// Link setup latency in clocks (arbitration + the sector-crossing
    /// pipeline stages of §6).
    pub link_latency: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 3, // the paper's 3-stamp system
            core: ProcessorConfig::default(),
            link_width_words: 1,
            link_latency: 12,
        }
    }
}

/// Cycle accounting for a system run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Total system clocks across all phases and transfers.
    pub cycles: u64,
    /// Clocks spent in compute phases (max over cores per phase).
    pub compute_cycles: u64,
    /// Clocks spent in interconnect transfers.
    pub transfer_cycles: u64,
    /// Number of compute phases run.
    pub phases: u64,
    /// Number of transfers performed.
    pub transfers: u64,
    /// Words moved over the interconnect.
    pub words_moved: u64,
    /// Last phase's per-core statistics.
    pub last_phase: Vec<ExecStats>,
}

impl SystemStats {
    /// Wall-clock seconds at a system frequency in MHz.
    pub fn seconds_at(&self, fmax_mhz: f64) -> f64 {
        self.cycles as f64 / (fmax_mhz * 1e6)
    }
}

/// A multi-core SIMT system.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    cores: Vec<Processor>,
    stats: SystemStats,
}

impl System {
    /// Build a system of identical cores.
    pub fn new(config: SystemConfig) -> Result<Self, ConfigError> {
        assert!(config.cores >= 1, "at least one core");
        assert!(config.link_width_words >= 1, "link width must be non-zero");
        let cores = (0..config.cores)
            .map(|_| Processor::new(config.core.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(System {
            config,
            cores,
            stats: SystemStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to a core.
    pub fn core(&self, i: usize) -> &Processor {
        &self.cores[i]
    }

    /// Mutable access to a core (data upload).
    pub fn core_mut(&mut self, i: usize) -> &mut Processor {
        &mut self.cores[i]
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Load the same program on every core: the program is validated
    /// and predecoded **once** (cores are identical, so the µop decode
    /// is too) and the remaining cores share the decode — per-phase
    /// re-runs then never re-decode either, since each core keeps its
    /// decode across [`Processor::reset`].
    pub fn load_all(&mut self, program: &Program) -> Result<(), LoadError> {
        let (first, rest) = self.cores.split_first_mut().expect("at least one core");
        first.load_program(program)?;
        let decoded = first
            .decoded()
            .cloned()
            .expect("load_program leaves a decode");
        for c in rest {
            c.load_decoded(std::sync::Arc::clone(&decoded))?;
        }
        Ok(())
    }

    /// Load a distinct program per core.
    ///
    /// # Panics
    /// If `programs.len() != cores`.
    pub fn load_each(&mut self, programs: &[Program]) -> Result<(), LoadError> {
        assert_eq!(programs.len(), self.cores.len(), "one program per core");
        for (c, p) in self.cores.iter_mut().zip(programs) {
            c.load_program(p)?;
        }
        Ok(())
    }

    /// Run *one core* of the system to `exit` — the single-core entry
    /// point the phase machinery (and external schedulers such as
    /// `simt-runtime`) build on. Does **not** advance the system clock:
    /// callers compose the returned stats into a phase via
    /// [`System::account_phase`] or use [`System::run_phase`] /
    /// [`System::run_phase_subset`], which do both.
    pub fn run_core(&mut self, i: usize, opts: RunOptions) -> Result<ExecStats, ExecError> {
        self.cores[i].run(opts)
    }

    /// Account one completed bulk-synchronous phase from per-core stats:
    /// the phase costs the *slowest* participating core's clocks — the
    /// hardware barrier semantics of a stamped system on one clock
    /// network.
    pub fn account_phase(&mut self, phase: Vec<ExecStats>) -> &[ExecStats] {
        let slowest = phase.iter().map(|s| s.cycles).max().unwrap_or(0);
        self.stats.compute_cycles += slowest;
        self.stats.cycles += slowest;
        self.stats.phases += 1;
        self.stats.last_phase = phase;
        &self.stats.last_phase
    }

    /// Run one bulk-synchronous compute phase over every core.
    pub fn run_phase(&mut self, opts: RunOptions) -> Result<&[ExecStats], ExecError> {
        let all: Vec<usize> = (0..self.cores.len()).collect();
        self.run_phase_subset(&all, opts)
    }

    /// Run one bulk-synchronous compute phase over a subset of cores
    /// (the idle cores neither execute nor contribute to the barrier) —
    /// the reusable single-phase entry point for hosts that keep parts
    /// of the pool busy with other work.
    ///
    /// # Panics
    /// If `cores` is empty or contains an out-of-range or duplicate
    /// index.
    pub fn run_phase_subset(
        &mut self,
        cores: &[usize],
        opts: RunOptions,
    ) -> Result<&[ExecStats], ExecError> {
        assert!(!cores.is_empty(), "a phase needs at least one core");
        let mut seen = vec![false; self.cores.len()];
        for &i in cores {
            assert!(i < self.cores.len(), "core index {i} out of range");
            assert!(!seen[i], "duplicate core index {i}");
            seen[i] = true;
        }
        // The modeled cores run concurrently, so a trap on one does not
        // stop the others: the host runs every selected core, in index
        // order, and only then reports the first error.
        let results: Vec<Result<ExecStats, ExecError>> = self
            .cores
            .iter_mut()
            .zip(&seen)
            .filter(|(_, &selected)| selected)
            .map(|(core, _)| core.run(opts))
            .collect();
        let phase = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.account_phase(phase))
    }

    /// Move `len` words from `src` core's shared memory at `src_off` to
    /// `dst` core's at `dst_off`, and account the interconnect clocks:
    /// `latency + ceil(len / width)`.
    pub fn transfer(
        &mut self,
        src: usize,
        src_off: usize,
        dst: usize,
        dst_off: usize,
        len: usize,
    ) -> Result<u64, ExecError> {
        assert!(
            src < self.cores.len() && dst < self.cores.len(),
            "core index"
        );
        assert_ne!(src, dst, "transfer endpoints must differ");
        let words = self.cores[src].shared().read_words(src_off, len)?;
        self.cores[dst].shared_mut().load_words(dst_off, &words)?;
        let clocks = self.config.link_latency + (len.div_ceil(self.config.link_width_words)) as u64;
        self.stats.transfer_cycles += clocks;
        self.stats.cycles += clocks;
        self.stats.transfers += 1;
        self.stats.words_moved += len as u64;
        Ok(clocks)
    }

    /// The system clock this many-core design achieves on the device:
    /// the best-of-5-seeds stamped compile of Table 2 (§5.1 argues ~850
    /// MHz is the reasonable system target).
    pub fn derive_system_fmax(&self, device: &Device) -> f64 {
        let sweep = seed_sweep(
            &self.config.core,
            device,
            &CompileOptions::stamped(self.cores.len(), 0.93),
            &[0, 1, 2, 3, 4],
        );
        best_of(&sweep).fmax_restricted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::assemble;

    fn small_system(cores: usize) -> System {
        System::new(SystemConfig {
            cores,
            core: ProcessorConfig::small(),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn phase_runs_all_cores() {
        let mut sys = small_system(3);
        let p = assemble("  stid r1\n  muli r2, r1, 2\n  sts [r1+0], r2\n  exit").unwrap();
        sys.load_all(&p).unwrap();
        let phase = sys.run_phase(RunOptions::default()).unwrap().to_vec();
        assert_eq!(phase.len(), 3);
        for i in 0..3 {
            assert_eq!(sys.core(i).shared().as_slice()[7], 14);
        }
        assert_eq!(sys.stats().phases, 1);
        assert_eq!(sys.stats().compute_cycles, phase[0].cycles);
    }

    #[test]
    fn phase_cost_is_slowest_core() {
        let mut sys = small_system(2);
        let fast = assemble("  exit").unwrap();
        let slow = assemble("  loop 50, e\n  addi r1, r1, 1\ne:\n  exit").unwrap();
        sys.load_each(&[fast, slow]).unwrap();
        let phase = sys.run_phase(RunOptions::default()).unwrap();
        let max = phase.iter().map(|s| s.cycles).max().unwrap();
        let min = phase.iter().map(|s| s.cycles).min().unwrap();
        assert!(max > min);
        assert_eq!(sys.stats().cycles, max);
    }

    #[test]
    fn subset_phase_runs_only_selected_cores() {
        let mut sys = small_system(3);
        let p = assemble("  stid r1\n  muli r2, r1, 3\n  sts [r1+0], r2\n  exit").unwrap();
        sys.load_all(&p).unwrap();
        let phase = sys
            .run_phase_subset(&[0, 2], RunOptions::default())
            .unwrap();
        assert_eq!(phase.len(), 2);
        assert_eq!(sys.core(0).shared().as_slice()[5], 15);
        assert_eq!(sys.core(2).shared().as_slice()[5], 15);
        // Core 1 never ran: its shared memory is untouched.
        assert_eq!(sys.core(1).shared().as_slice()[5], 0);
        assert_eq!(sys.stats().phases, 1);
    }

    #[test]
    fn run_core_composes_into_a_phase() {
        let mut sys = small_system(2);
        let fast = assemble("  exit").unwrap();
        let slow = assemble("  loop 50, e\n  addi r1, r1, 1\ne:\n  exit").unwrap();
        sys.load_each(&[fast, slow]).unwrap();
        let a = sys.run_core(0, RunOptions::default()).unwrap();
        let b = sys.run_core(1, RunOptions::default()).unwrap();
        assert!(b.cycles > a.cycles);
        // run_core does not advance the system clock; account_phase does.
        assert_eq!(sys.stats().cycles, 0);
        sys.account_phase(vec![a, b]);
        assert_eq!(sys.stats().cycles, b.cycles);
        assert_eq!(sys.stats().phases, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate core index")]
    fn subset_phase_rejects_duplicates() {
        let mut sys = small_system(2);
        let p = assemble("  exit").unwrap();
        sys.load_all(&p).unwrap();
        let _ = sys.run_phase_subset(&[1, 1], RunOptions::default());
    }

    #[test]
    fn transfers_move_data_and_cost_clocks() {
        let mut sys = small_system(2);
        sys.core_mut(0)
            .shared_mut()
            .load_words(0, &[1, 2, 3, 4])
            .unwrap();
        let clocks = sys.transfer(0, 0, 1, 100, 4).unwrap();
        assert_eq!(sys.core(1).shared().as_slice()[100..104], [1, 2, 3, 4]);
        assert_eq!(clocks, 12 + 4);
        assert_eq!(sys.stats().transfer_cycles, 16);
        assert_eq!(sys.stats().words_moved, 4);
    }

    #[test]
    fn transfer_bounds_trap() {
        let mut sys = small_system(2);
        assert!(sys.transfer(0, 1020, 1, 0, 10).is_err());
        assert!(sys.transfer(0, 0, 1, 1020, 10).is_err());
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_transfer_rejected() {
        let mut sys = small_system(2);
        let _ = sys.transfer(0, 0, 0, 64, 4);
    }

    #[test]
    fn wider_links_are_faster() {
        let mut narrow = small_system(2);
        let mut wide = System::new(SystemConfig {
            cores: 2,
            core: ProcessorConfig::small(),
            link_width_words: 4,
            link_latency: 12,
        })
        .unwrap();
        narrow
            .core_mut(0)
            .shared_mut()
            .load_words(0, &[0; 64])
            .unwrap();
        wide.core_mut(0)
            .shared_mut()
            .load_words(0, &[0; 64])
            .unwrap();
        let n = narrow.transfer(0, 0, 1, 0, 64).unwrap();
        let w = wide.transfer(0, 0, 1, 0, 64).unwrap();
        assert_eq!(n, 12 + 64);
        assert_eq!(w, 12 + 16);
    }

    #[test]
    fn derived_system_fmax_tracks_table2() {
        let sys = System::new(SystemConfig {
            cores: 3,
            ..Default::default()
        })
        .unwrap();
        let f = sys.derive_system_fmax(&Device::agfd019());
        // §5.1: "a system performance ... of 850 MHz is a reasonable
        // target"; Table 2's 3-stamp best is 854.
        assert!((f - 854.0).abs() / 854.0 < 0.02, "{f:.1}");
    }
}
