//! The experiment suite: every table/figure anchor of the paper (the
//! list is `bench-e2e/README.md`'s `anchor_err_pct` entry), asserted
//! end-to-end through the public APIs.

use fpga_fabric::Device;
use fpga_fitter::{best_of, compile, seed_sweep, CompileOptions, DesignVariant};
use simt_core::{InstructionTiming, ProcessorConfig};
use simt_datapath::{MultiplicativeShifter, ShiftKind};
use simt_isa::CycleClass;

const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

fn reference() -> (ProcessorConfig, Device) {
    (ProcessorConfig::default(), Device::agfd019())
}

// ---- T1: Table 1 -------------------------------------------------------

#[test]
fn t1_resource_rows() {
    let (cfg, dev) = reference();
    let a = compile(&cfg, &dev, &CompileOptions::constrained(0.93)).area;
    assert_eq!(
        (a.sp.alms, a.sp.regs, a.sp.m20k, a.sp.dsp),
        (371, 1337, 4, 2)
    );
    assert_eq!(
        (a.mul_sft.alms, a.mul_sft.regs, a.mul_sft.dsp),
        (145, 424, 2)
    );
    assert_eq!((a.logic.alms, a.logic.regs), (83, 424));
    assert_eq!((a.inst.alms, a.inst.regs, a.inst.m20k), (275, 651, 3));
    assert_eq!((a.shared.alms, a.shared.regs), (133, 233));
    assert_eq!(a.gpgpu.dsp, 32);
    assert_eq!(a.gpgpu.m20k, 99);
    assert!((a.gpgpu.alms as f64 - 7038.0).abs() / 7038.0 < 0.01);
    assert!((a.gpgpu.regs as f64 - 24534.0).abs() / 24534.0 < 0.01);
}

// ---- T2: Table 2 -------------------------------------------------------

#[test]
fn t2_stamping_best_of_five() {
    let (cfg, dev) = reference();
    let one = seed_sweep(&cfg, &dev, &CompileOptions::stamped(1, 0.93), &SEEDS);
    let three = seed_sweep(&cfg, &dev, &CompileOptions::stamped(3, 0.93), &SEEDS);
    let f1 = best_of(&one).fmax_restricted();
    let f3 = best_of(&three).fmax_restricted();
    assert!((f1 - 927.0).abs() / 927.0 < 0.02, "1-stamp {f1:.1} vs 927");
    assert!((f3 - 854.0).abs() / 854.0 < 0.02, "3-stamp {f3:.1} vs 854");
    // The ordering holds for every seed, not just the best.
    for (a, b) in one.iter().zip(&three) {
        assert!(a.fmax_restricted() > b.fmax_restricted());
    }
}

// ---- R1/R2: §5 compile results ------------------------------------------

#[test]
fn r1_unconstrained_fmax() {
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::unconstrained());
    assert!(
        (r.fmax_logic() - 984.0).abs() / 984.0 < 0.03,
        "logic {:.1}",
        r.fmax_logic()
    );
    assert!(
        (r.fmax_restricted() - 956.0).abs() / 956.0 < 0.005,
        "restricted {:.1}",
        r.fmax_restricted()
    );
    assert!(
        r.sta.restricted_by.starts_with("dsp"),
        "{}",
        r.sta.restricted_by
    );
}

#[test]
fn r2_constrained_boxes_exceed_950() {
    let (cfg, dev) = reference();
    let sweep = seed_sweep(&cfg, &dev, &CompileOptions::constrained(0.86), &SEEDS);
    assert!(best_of(&sweep).fmax_restricted() > 950.0);
}

// ---- R3: register composition ------------------------------------------

#[test]
fn r3_sp_register_budget() {
    let (cfg, dev) = reference();
    let b = compile(&cfg, &dev, &CompileOptions::unconstrained())
        .area
        .sp_reg_budget;
    assert_eq!((b.primary, b.secondary, b.hyper), (763, 154, 420));
}

// ---- R4: eGPU baseline ----------------------------------------------------

#[test]
fn r4_egpu_baseline_771() {
    let (cfg, dev) = reference();
    let r = compile(
        &cfg,
        &dev,
        &CompileOptions::unconstrained().with_variant(DesignVariant::egpu_baseline()),
    );
    assert!(
        (r.fmax_restricted() - 771.0).abs() / 771.0 < 0.01,
        "{:.1}",
        r.fmax_restricted()
    );
}

// ---- R5: shifter closure ----------------------------------------------------

#[test]
fn r5_barrel_vs_multiplicative() {
    let (cfg, dev) = reference();
    let standalone = compile(
        &cfg,
        &dev,
        &CompileOptions::unconstrained()
            .with_variant(DesignVariant::with_barrel_shifter().standalone_sp()),
    );
    assert!(
        standalone.fmax_logic() >= 1000.0,
        "{:.1}",
        standalone.fmax_logic()
    );

    let sm = compile(
        &cfg,
        &dev,
        &CompileOptions::unconstrained().with_variant(DesignVariant::with_barrel_shifter()),
    );
    assert!(sm.fmax_logic() < 850.0, "{:.1}", sm.fmax_logic());
    assert!(sm.sta.critical.name.contains("16-bit"));

    let fixed = compile(&cfg, &dev, &CompileOptions::unconstrained());
    assert!(fixed.fmax_logic() > 950.0);
}

#[test]
fn r5b_mlab_trap() {
    // §5: auto-shift-register-replacement must be OFF, else the 850 MHz
    // memory-mode ALM caps the clock.
    let (cfg, dev) = reference();
    let mut v = DesignVariant::this_work();
    v.auto_shift_register_replacement = true;
    let r = compile(&cfg, &dev, &CompileOptions::unconstrained().with_variant(v));
    assert_eq!(r.fmax_restricted(), 850.0);
}

// ---- F5: Figure 5 -----------------------------------------------------------

#[test]
fn f5_arithmetic_shift_walkthrough() {
    let sh = MultiplicativeShifter::new(12);
    let t = sh.shift_traced(ShiftKind::Asr, 0b1100_0110_1111, 5);
    assert_eq!(t.reversed_input, Some(0b1111_0110_0011));
    assert_eq!(t.one_hot, 0b0000_0010_0000);
    assert_eq!(t.or_mask, 0b1111_1000_0000);
    assert_eq!(t.result as i32 - 4096, -29);
}

// ---- F6/F7: floorplans ------------------------------------------------------

#[test]
fn f6_f7_floorplans_render() {
    let (cfg, dev) = reference();
    let un = compile(&cfg, &dev, &CompileOptions::unconstrained());
    let fig6 = fpga_fitter::render(&dev, &un.placement);
    assert!(fig6.contains('|') && fig6.contains('s') && fig6.contains('f'));

    let tight = compile(&cfg, &dev, &CompileOptions::constrained(0.93));
    let fig7 = fpga_fitter::render(&dev, &tight.placement);
    let width = |s: &str| s.lines().nth(1).map(|l| l.len()).unwrap_or(0);
    assert!(width(&fig7) < width(&fig6), "tight box is narrower");
}

// ---- C1: §3.1 cycle anchors -------------------------------------------------

#[test]
fn c1_cycle_formulas() {
    assert_eq!(InstructionTiming::cycles(CycleClass::Operation, 512), 32);
    assert_eq!(InstructionTiming::cycles(CycleClass::Load, 512), 128);
    assert_eq!(InstructionTiming::cycles(CycleClass::Store, 512), 512);
    assert_eq!(InstructionTiming::cycles(CycleClass::SingleCycle, 512), 1);
}

// ---- headline ------------------------------------------------------------

#[test]
fn headline_exceeds_950() {
    // "we implement a soft GPGPU which exceeds 950 MHz" — for the
    // unconstrained compile on any seed, and for the 86 % box over a
    // short seed sweep (seed noise can dip an individual constrained
    // compile a few MHz).
    let (cfg, dev) = reference();
    let r = compile(&cfg, &dev, &CompileOptions::unconstrained());
    assert!(r.fmax_restricted() > 950.0);
    let sweep = seed_sweep(&cfg, &dev, &CompileOptions::constrained(0.86), &[0, 1, 2]);
    assert!(best_of(&sweep).fmax_restricted() > 950.0);
}
