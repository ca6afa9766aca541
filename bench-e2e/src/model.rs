//! The modeled clock: the fitter's Fmax the runtime's cycle counts are
//! multiplied by, and the model's error against the paper's anchors.

use fpga_fabric::Device;
use fpga_fitter::{best_of, compile, seed_sweep, CompileOptions, CompileReport};
use simt_core::ProcessorConfig;

/// Seeds per "best compile" sweep (§5.1: "We ran 5-seeds").
pub const SWEEP_SEEDS: u64 = 5;

/// The paper's 3-stamp system at 93 % utilisation (Table 2).
fn stamped3() -> CompileOptions {
    CompileOptions::stamped(3, 0.93)
}

/// The five fitter seeds of sweep number `sweep` (`0` = seeds 0–4, the
/// sweep the Table 2 anchors are pinned on).
fn sweep_seeds(sweep: u64) -> Vec<u64> {
    let first = sweep.wrapping_mul(SWEEP_SEEDS);
    (0..SWEEP_SEEDS).map(|i| first.wrapping_add(i)).collect()
}

/// Best-of-five 3-stamp compile of sweep `sweep`: the system clock a
/// user who ran one five-seed campaign would get.
pub fn system_compile(sweep: u64) -> CompileReport {
    let sweep = seed_sweep(
        &ProcessorConfig::default(),
        &Device::agfd019(),
        &stamped3(),
        &sweep_seeds(sweep),
    );
    best_of(&sweep).clone()
}

/// One pinned anchor: what the paper printed and what the model gives.
pub struct Anchor {
    /// Where the paper states it.
    pub name: &'static str,
    /// The paper's figure.
    pub paper: f64,
    /// The model's figure.
    pub model: f64,
}

impl Anchor {
    /// Relative error in percent.
    pub fn err_pct(&self) -> f64 {
        100.0 * (self.model - self.paper).abs() / self.paper
    }
}

/// The pinned paper anchors (fitter seeds 0–4 where a sweep is meant).
pub fn anchors() -> Vec<Anchor> {
    let cfg = ProcessorConfig::default();
    let dev = Device::agfd019();
    let unconstrained = compile(&cfg, &dev, &CompileOptions::unconstrained());
    let area = unconstrained.area.gpgpu;
    let one = seed_sweep(
        &cfg,
        &dev,
        &CompileOptions::stamped(1, 0.93),
        &sweep_seeds(0),
    );
    let three = seed_sweep(&cfg, &dev, &stamped3(), &sweep_seeds(0));
    let a = |name, paper, model| Anchor { name, paper, model };
    vec![
        a("table1.gpgpu.alms", 7038.0, area.alms as f64),
        a("table1.gpgpu.regs", 24534.0, area.regs as f64),
        a("table1.gpgpu.m20k", 99.0, area.m20k as f64),
        a("table1.gpgpu.dsp", 32.0, area.dsp as f64),
        a(
            "s5.unconstrained.logic_mhz",
            984.0,
            unconstrained.fmax_logic(),
        ),
        a(
            "s5.unconstrained.restricted_mhz",
            956.0,
            unconstrained.fmax_restricted(),
        ),
        a(
            "table2.1stamp.best_mhz",
            927.0,
            best_of(&one).fmax_restricted(),
        ),
        a(
            "table2.3stamp.best_mhz",
            854.0,
            best_of(&three).fmax_restricted(),
        ),
    ]
}

/// Largest relative error over the anchors, percent.
pub fn max_err_pct(anchors: &[Anchor]) -> f64 {
    anchors.iter().map(Anchor::err_pct).fold(0.0, f64::max)
}
