//! The compile pipeline: area model → placement → STA, with seed sweeps.
//!
//! Mirrors the paper's methodology: "We ran several compiles —
//! unconstrained and constrained — to validate the performance of the
//! soft processor over a wide range of possible system uses" (§5), and
//! "We ran 5-seeds of both the tightly constrained single instance and
//! the three stamp system" (§5.1).

use crate::area::{area_model, AreaReport};
use crate::netlist::{timing_arcs, DesignVariant};
use crate::place::{place, Constraint, Placement};
use crate::sta::{analyze, StaReport};
use fpga_fabric::{Device, TimingModel};
use serde::{Deserialize, Serialize};
use simt_core::ProcessorConfig;

/// Options for one compile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Fitter seed.
    pub seed: u64,
    /// Placement constraint.
    pub constraint: Constraint,
    /// Number of identical cores stamped onto the device (§5.1).
    pub stamps: usize,
    /// Design variant (shifter, DSP mode, context, MLAB trap).
    pub variant: DesignVariant,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            seed: 0,
            constraint: Constraint::Unconstrained,
            stamps: 1,
            variant: DesignVariant::this_work(),
        }
    }
}

impl CompileOptions {
    /// Unconstrained compile of the published design.
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// Bounding-box constrained compile at a logic utilization.
    pub fn constrained(utilization: f64) -> Self {
        CompileOptions {
            constraint: Constraint::BoundingBox { utilization },
            ..Self::default()
        }
    }

    /// Multi-stamp compile (tight boxes, sector-separated).
    pub fn stamped(stamps: usize, utilization: f64) -> Self {
        CompileOptions {
            constraint: Constraint::BoundingBox { utilization },
            stamps,
            ..Self::default()
        }
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the design variant.
    pub fn with_variant(mut self, v: DesignVariant) -> Self {
        self.variant = v;
        self
    }
}

/// One compile's full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// Options used.
    pub options: CompileOptions,
    /// Area model (Table 1).
    pub area: AreaReport,
    /// Placement.
    pub placement: Placement,
    /// Timing.
    pub sta: StaReport,
}

impl CompileReport {
    /// Soft-logic Fmax, MHz.
    pub fn fmax_logic(&self) -> f64 {
        self.sta.fmax_logic_mhz
    }

    /// Restricted Fmax (hard blocks included), MHz.
    pub fn fmax_restricted(&self) -> f64 {
        self.sta.fmax_restricted_mhz
    }

    /// A human-readable compile summary in the style of a fitter report:
    /// constraint, resources, clocks, and the slowest paths.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "=== compile summary (seed {}) ===", self.options.seed);
        let c = match self.options.constraint {
            crate::place::Constraint::Unconstrained => "unconstrained".to_string(),
            crate::place::Constraint::BoundingBox { utilization } => {
                format!(
                    "bounding box @ {:.0}% logic utilization",
                    utilization * 100.0
                )
            }
            crate::place::Constraint::ComponentAligned { utilization } => {
                format!("component-aligned @ {:.0}%", utilization * 100.0)
            }
        };
        let _ = writeln!(s, "constraint : {c}, {} stamp(s)", self.options.stamps);
        let a = &self.area.gpgpu;
        let _ = writeln!(
            s,
            "resources  : {} ALMs, {} registers, {} M20K, {} DSP (per core)",
            a.alms, a.regs, a.m20k, a.dsp
        );
        let b = &self.area.sp_reg_budget;
        let _ = writeln!(
            s,
            "SP regs    : {} primary + {} secondary + {} hyper",
            b.primary, b.secondary, b.hyper
        );
        let _ = writeln!(
            s,
            "fmax       : {:.0} MHz logic / {:.0} MHz restricted (by {})",
            self.fmax_logic(),
            self.fmax_restricted(),
            self.sta.restricted_by
        );
        let _ = writeln!(s, "worst paths:");
        for p in self.sta.paths.iter().take(5) {
            let _ = writeln!(
                s,
                "  {:<44} {:>7.0} ps  {:>6.0} MHz{}",
                p.name,
                p.delay_ps,
                p.fmax_mhz,
                if p.hard { "  [hard]" } else { "" }
            );
        }
        s
    }
}

/// Run one compile.
pub fn compile(cfg: &ProcessorConfig, device: &Device, opts: &CompileOptions) -> CompileReport {
    let area = area_model(cfg);
    let placement = place(device, &area, opts.constraint, opts.stamps);
    let arcs = timing_arcs(&opts.variant);
    let sta = analyze(
        &arcs,
        &opts.variant,
        placement.quality,
        opts.stamps,
        opts.seed,
        &TimingModel::default(),
    );
    CompileReport {
        options: opts.clone(),
        area,
        placement,
        sta,
    }
}

/// Compile once per seed, one after another, and return all reports
/// in seed order (each compile is a pure function of its seed).
pub fn seed_sweep(
    cfg: &ProcessorConfig,
    device: &Device,
    opts: &CompileOptions,
    seeds: &[u64],
) -> Vec<CompileReport> {
    seeds
        .iter()
        .map(|&seed| compile(cfg, device, &opts.clone().with_seed(seed)))
        .collect()
}

/// Best compile of a sweep by restricted Fmax ("Best Compile" in
/// Table 2).
pub fn best_of(reports: &[CompileReport]) -> &CompileReport {
    reports
        .iter()
        .max_by(|a, b| a.fmax_restricted().total_cmp(&b.fmax_restricted()))
        .expect("empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ProcessorConfig, Device) {
        (ProcessorConfig::default(), Device::agfd019())
    }

    #[test]
    fn unconstrained_compile_bands() {
        // §5: unconstrained 984 MHz logic, 956 MHz restricted.
        let (cfg, dev) = setup();
        let r = compile(&cfg, &dev, &CompileOptions::unconstrained());
        assert!(
            (r.fmax_logic() - 984.0).abs() / 984.0 < 0.03,
            "logic fmax {:.1}",
            r.fmax_logic()
        );
        assert!(
            (r.fmax_restricted() - 956.0).abs() / 956.0 < 0.01,
            "restricted fmax {:.1}",
            r.fmax_restricted()
        );
    }

    #[test]
    fn constrained_86_exceeds_950() {
        let (cfg, dev) = setup();
        let sweep = seed_sweep(&cfg, &dev, &CompileOptions::constrained(0.86), &[0, 1, 2]);
        let best = best_of(&sweep);
        assert!(
            best.fmax_restricted() > 950.0,
            "{:.1}",
            best.fmax_restricted()
        );
    }

    #[test]
    fn table2_stamping_trend() {
        // Best of 5 seeds: 1-stamp ~927, 3-stamp ~854 (within 2 %).
        let (cfg, dev) = setup();
        let seeds = [0u64, 1, 2, 3, 4];
        let one = seed_sweep(&cfg, &dev, &CompileOptions::stamped(1, 0.93), &seeds);
        let three = seed_sweep(&cfg, &dev, &CompileOptions::stamped(3, 0.93), &seeds);
        let f1 = best_of(&one).fmax_restricted();
        let f3 = best_of(&three).fmax_restricted();
        assert!((f1 - 927.0).abs() / 927.0 < 0.02, "1-stamp {f1:.1}");
        assert!((f3 - 854.0).abs() / 854.0 < 0.02, "3-stamp {f3:.1}");
        // ~3% below the unconstrained restricted clock, a further ~8%
        // for the stamps.
        assert!(f1 < 956.0 && f3 < f1);
        let drop = (f1 - f3) / f1;
        assert!(drop > 0.05 && drop < 0.12, "stamp drop {drop:.3}");
    }

    #[test]
    fn seed_sweep_is_deterministic() {
        let (cfg, dev) = setup();
        let a = seed_sweep(&cfg, &dev, &CompileOptions::constrained(0.93), &[3, 4]);
        let b = seed_sweep(&cfg, &dev, &CompileOptions::constrained(0.93), &[3, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn summary_renders() {
        let (cfg, dev) = setup();
        let r = compile(&cfg, &dev, &CompileOptions::constrained(0.93));
        let s = r.summary();
        assert!(s.contains("93%"));
        assert!(s.contains("7038 ALMs"));
        assert!(s.contains("763 primary"));
        assert!(s.contains("worst paths"));
        assert!(s.contains("[hard]"));
    }

    #[test]
    fn egpu_baseline_lands_at_771() {
        let (cfg, dev) = setup();
        let opts = CompileOptions::unconstrained().with_variant(DesignVariant::egpu_baseline());
        let r = compile(&cfg, &dev, &opts);
        assert!((r.fmax_restricted() - 771.0).abs() / 771.0 < 0.01);
    }
}
