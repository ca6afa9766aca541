//! Calibration constants, each traceable to a sentence of the paper.
//!
//! The *mechanisms* of the fitting model (logic depth, routing distance,
//! congestion, seed noise, worst-slack coupling, hard-block ceilings) are
//! structural; these constants pin the mechanism strengths to the paper's
//! anchor measurements. The reported megahertz then *emerge* from running
//! the compile pipeline — they are asserted within tolerance bands by
//! `tests/experiments.rs` (the anchor list is `bench-e2e/README.md`'s
//! `anchor_err_pct` entry), never copied into results.

/// Natural logic utilization of an unconstrained compile — plenty of
/// placement freedom, so routing quality is nominal (§5: the
/// unconstrained compile "showed good regularity").
pub const UNCONSTRAINED_UTILIZATION: f64 = 0.55;

/// Utilization at and below which congestion is negligible.
pub const CONGESTION_KNEE: f64 = 0.60;

/// Cubic congestion strength: route distances scale by
/// `1 + CONGESTION_CUBIC * (u - knee)^3` above the knee. Calibrated so an
/// 86 %-utilization box still exceeds 950 MHz while a 93 % box lands ~3 %
/// below the unconstrained clock (§5 / Table 2).
pub const CONGESTION_CUBIC: f64 = 4.0;

/// Std-dev of the per-seed lognormal placement-quality jitter ("compile
/// seed values" are listed among the factors soft-logic performance
/// depends on, §4).
pub const SEED_SIGMA: f64 = 0.015;

/// Worst-slack attention division for N identical stamps on one clock:
/// route quality degrades by `1 + STAMP_COUPLING * ln(N)` — "the compiler
/// will be simultaneously optimizing all stamps. The worst-case slack at
/// any point in the compile may be limited, and contained within a single
/// stamp" (§5.1). Calibrated to the 8 % drop of Table 2.
pub const STAMP_COUPLING: f64 = 0.1666;

/// Crowding multiplier applied to *long* soft routes (> 1 LAB column)
/// when the design context is a full 16-SP SM rather than a single SP:
/// "two consecutive logic levels with long routing distances can close
/// timing when compiled as part of a smaller circuit, but placement in a
/// larger system design context is difficult" (§4). Calibrated so the
/// 5-level barrel shifter closes standalone but drops the SM below
/// 850 MHz.
pub const SM_CROWDING: f64 = 2.1;

/// Placement-dependent derate on the DSP hard ceiling (register-to-DSP
/// interface margin): 958 MHz becomes the paper's 956 MHz restricted
/// Fmax.
pub const DSP_INTERFACE_DERATE: f64 = 0.002;

/// Nominal routing distance (LAB columns) of the pipeline-control enable
/// fan-out — "the pipeline control enable paths, which will likely be
/// the single most critical path in the entire processor" (§3).
/// Calibrated so the unconstrained soft-logic Fmax lands at the paper's
/// 984 MHz.
pub const CONTROL_ENABLE_DISTANCE: f64 = 1.832;

/// Fraction of SP registers that retime into hyper-registers (§5: 420 of
/// 1337 for the reference SP).
pub const HYPER_REG_FRACTION: f64 = 0.314;

/// Fraction of SP registers implemented as secondary (balancing/delay)
/// ALM registers (§5: 154 of 1337).
pub const SECONDARY_REG_FRACTION: f64 = 0.115;

/// Top-level ALM overhead relative to the module sum: bounding-box
/// unreachable ALMs plus top-level glue ("The reported logic includes
/// unreachable ALMs inside the bounding box", §5). 6344 → 7038 in the
/// reference compile.
pub const TOP_ALM_OVERHEAD: f64 = 0.1094;

/// Top-level register overhead: the decoded-control register delay chain
/// into the main core (§3) plus clock/reset distribution. 22 276 →
/// 24 534 in the reference compile.
pub const TOP_REG_OVERHEAD: f64 = 0.1014;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_reproduce_sp_register_split() {
        // §5: 763 primary + 154 secondary + 420 hyper = 1337.
        let total = 1337u32;
        let hyper = (total as f64 * HYPER_REG_FRACTION).round() as u32;
        let secondary = (total as f64 * SECONDARY_REG_FRACTION).round() as u32;
        assert_eq!(hyper, 420);
        assert_eq!(secondary, 154);
        assert_eq!(total - hyper - secondary, 763);
    }

    #[test]
    fn congestion_is_zero_below_knee() {
        let q = |u: f64| 1.0 + CONGESTION_CUBIC * (u - CONGESTION_KNEE).max(0.0).powi(3);
        assert_eq!(q(0.40), 1.0);
        assert_eq!(q(CONGESTION_KNEE), 1.0);
        assert!(q(0.86) > 1.05 && q(0.86) < 1.09);
        assert!(q(0.93) > 1.12 && q(0.93) < 1.17);
    }
}
