//! Shared helpers for the `tables` binary, and the artifact gate behind
//! `tables --check`.

#![forbid(unsafe_code)]

pub mod check;

use fpga_fabric::Device;
use fpga_fitter::{best_of, seed_sweep, CompileOptions, CompileReport};
use simt_core::ProcessorConfig;

/// The five seeds of the paper's §5.1 sweeps.
pub const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// The reference configuration (Table 1 instance) and device.
pub fn reference() -> (ProcessorConfig, Device) {
    (ProcessorConfig::default(), Device::agfd019())
}

/// Best-of-5-seeds compile for given options.
pub fn best_of_five(opts: &CompileOptions) -> CompileReport {
    let (cfg, dev) = reference();
    let sweep = seed_sweep(&cfg, &dev, opts, &SEEDS);
    best_of(&sweep).clone()
}

/// Format a paper-vs-measured row.
pub fn row(label: &str, paper: f64, measured: f64) -> String {
    let delta = if paper != 0.0 {
        (measured - paper) / paper * 100.0
    } else {
        0.0
    };
    format!("{label:<44} {paper:>10.0} {measured:>10.0} {delta:>+8.1}%")
}
