//! # fpga-fabric — a model of the Agilex-7 fabric the paper targets
//!
//! The paper's results are physical: Fmax is set by hard-block ceilings,
//! logic depth between registers, routing distance, and placement freedom
//! inside a **sector** geometry. This crate models exactly those
//! quantities, with every constant traceable to a sentence in the paper
//! or to the public Agilex documentation it cites:
//!
//! * [`alm`] — the Adaptive Logic Module ("the fracturable 6 LUT is
//!   combined with four registers", §2.2) and the LAB of 10 ALMs with its
//!   20-bit adder (§4);
//! * [`dsp`] — the Variable-Precision DSP block and its mode-dependent
//!   ceilings: **958 MHz integer**, **771 MHz fp32** (§2.1) — the single
//!   fact that forces this processor to be integer-only;
//! * [`m20k`] — the M20K block memory and the 850 MHz ALM-in-memory-mode
//!   trap (§5: auto-shift-register-replacement must be OFF);
//! * [`sector`] / [`device`] — sector geometry ("one representative
//!   sector contains 16640 ALMs, 240 M20K memory blocks, and 160 DSP
//!   Blocks", §2.2) and the AGFD019R24C21V target ("only one DSP column
//!   per sector", §5);
//! * [`timing`] — the element-delay constants the STA in `fpga-fitter`
//!   composes into path delays, including hyper-register retiming (§5).

#![forbid(unsafe_code)]

pub mod alm;
pub mod device;
pub mod dsp;
pub mod m20k;
pub mod sector;
pub mod timing;

pub use alm::{Alm, Lab, ALMS_PER_LAB, LAB_ADDER_BITS};
pub use device::{Device, DeviceKind};
pub use dsp::{DspBlock, DspMode};
pub use m20k::{M20k, M20kMode};
pub use sector::{ColumnKind, Sector, SectorGeometry};
pub use timing::{TimingModel, PS_PER_SECOND};

/// The FPGA's architectural performance ceiling: "modern FPGAs have a
/// performance potential of a 1 GHz clock frequency" (§1). The clock
/// network and hard blocks support it; nothing in the fabric exceeds it.
pub const FABRIC_FMAX_MHZ: f64 = 1000.0;

/// Convert a minimum period in picoseconds to Fmax in MHz.
pub fn ps_to_mhz(period_ps: f64) -> f64 {
    1e6 / period_ps
}

/// Convert an Fmax in MHz to a minimum period in picoseconds.
pub fn mhz_to_ps(fmax_mhz: f64) -> f64 {
    1e6 / fmax_mhz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((ps_to_mhz(1000.0) - 1000.0).abs() < 1e-9);
        assert!((mhz_to_ps(958.0) - 1043.84).abs() < 0.01);
        assert!((ps_to_mhz(mhz_to_ps(771.0)) - 771.0).abs() < 1e-9);
    }
}
