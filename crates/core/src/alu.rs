//! Per-thread instruction semantics, twice.
//!
//! **Structural — the oracle.** [`Datapath::eval`] / [`Datapath::eval_setp`]
//! route every operation through the bit-exact datapath models of
//! `simt-datapath`: every multiply goes through the DSP-vector
//! composition, every shift through the multiplicative shifter, every
//! add through the two-stage 16+16 adder. An RTL bug class (wrong vector
//! arrangement, wrong carry, wrong mask) surfaces there as a wrong
//! *result*, not just as a wrong cycle count. The **reference
//! interpreter** ([`Processor::run_reference`](crate::Processor::run_reference))
//! computes through it, as do `tables --fig5`, the fitter's depth inputs
//! and the datapath crate's own tests.
//!
//! **Native — the fast path.** [`native`] / [`native_setp`] say what that
//! structure *computes*: a 32-bit wrapping add, a 64-bit product, a
//! shift. The predecoded interpreter ([`Processor::run`](crate::Processor::run))
//! and the compiler's constant folder evaluate through them. The fast
//! path may be native because both semantics are pure, total functions
//! of `(opcode, a, b, c, imm)`: `tests/native_semantics.rs` proves them
//! equal opcode by opcode over a corner-value cross product plus seeded
//! random operands, and every predecoded-vs-reference comparison
//! (`prop_decode`, `opcode_matrix`, the fuzz matrix's `ref-*` vs `pre-*`
//! legs, `tables --sim`'s `bit_exact`) checks native against structural
//! again on whole programs. The gate structure exists to close timing
//! near 1 GHz, which no host loop has to do.

use simt_datapath::{
    logic::LogicOp, Int32Multiplier, LogicUnit, MultiplicativeShifter, PipelinedAdder32, ShiftKind,
    Signedness,
};
use simt_isa::{Instruction, Opcode};

/// The execution datapath of one SP (all SPs are identical; the
/// simulator shares one instance since the models are stateless).
#[derive(Debug, Clone, Default)]
pub struct Datapath {
    mult: Int32Multiplier,
    shifter: MultiplicativeShifter,
    adder: PipelinedAdder32,
    logic: LogicUnit,
}

/// Operand bundle for one thread's lane.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    /// `ra` value.
    pub a: u32,
    /// `rb` value (or 0 where dead).
    pub b: u32,
    /// `rc` value (or 0).
    pub c: u32,
    /// Thread id.
    pub tid: u32,
    /// Configured thread count (`sntid`).
    pub ntid: u32,
    /// Predicate source for `selp`.
    pub sel_pred: bool,
}

impl Datapath {
    /// New datapath.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate a non-memory, non-control instruction for one lane.
    /// Returns the value destined for `rd`.
    ///
    /// # Panics
    /// If called with a memory, control or `setp` opcode (those are
    /// handled by the SM loop).
    pub fn eval(&self, instr: &Instruction, ops: Operands) -> u32 {
        let Operands { a, b, c, .. } = ops;
        let imm = instr.imm32();
        let imm16 = instr.imm16();
        match instr.opcode {
            Opcode::Add => self.adder.add(a, b),
            Opcode::Sub => self.adder.sub(a, b),
            Opcode::Min => self.adder.min_s(a, b),
            Opcode::Max => self.adder.max_s(a, b),
            Opcode::Abs => self.adder.abs(a),
            Opcode::Neg => self.adder.neg(a),
            Opcode::Sad => self.adder.sad(a, b, c),
            Opcode::Addi => self.adder.add(a, imm),
            Opcode::Subi => self.adder.sub(a, imm),
            Opcode::MulLo => self.mult.mul_lo(a, b, Signedness::Signed),
            Opcode::MulHi => self.mult.mul_hi(a, b, Signedness::Signed),
            Opcode::MuluHi => self.mult.mul_hi(a, b, Signedness::Unsigned),
            Opcode::MadLo => self
                .adder
                .add(self.mult.mul_lo(a, b, Signedness::Signed), c),
            Opcode::MadHi => self
                .adder
                .add(self.mult.mul_hi(a, b, Signedness::Signed), c),
            Opcode::Muli => self.mult.mul_lo(a, imm, Signedness::Signed),
            Opcode::And => self.logic.eval(LogicOp::And, a, b),
            Opcode::Or => self.logic.eval(LogicOp::Or, a, b),
            Opcode::Xor => self.logic.eval(LogicOp::Xor, a, b),
            Opcode::Not => self.logic.eval(LogicOp::Not, a, 0),
            Opcode::Cnot => self.logic.eval(LogicOp::Cnot, a, 0),
            Opcode::Andi => self.logic.eval(LogicOp::And, a, imm),
            Opcode::Ori => self.logic.eval(LogicOp::Or, a, imm),
            Opcode::Xori => self.logic.eval(LogicOp::Xor, a, imm),
            Opcode::Popc => self.logic.eval(LogicOp::Popc, a, 0),
            Opcode::Clz => self.logic.eval(LogicOp::Clz, a, 0),
            Opcode::Brev => self.logic.eval(LogicOp::Brev, a, 0),
            Opcode::Shl => self.shifter.shift(ShiftKind::Lsl, a, b),
            Opcode::Lsr => self.shifter.shift(ShiftKind::Lsr, a, b),
            Opcode::Asr => self.shifter.shift(ShiftKind::Asr, a, b),
            Opcode::Shli => self.shifter.shift(ShiftKind::Lsl, a, imm16),
            Opcode::Lsri => self.shifter.shift(ShiftKind::Lsr, a, imm16),
            Opcode::Asri => self.shifter.shift(ShiftKind::Asr, a, imm16),
            Opcode::SatAdd => self.adder.sat_add(a, b),
            Opcode::SatSub => self.adder.sat_sub(a, b),
            Opcode::MulShr => {
                // Fixed-point scaling: full 64-bit signed product,
                // arithmetic shift right by imm (0..=63), low 32 bits.
                let full = self.mult.mul_full(a, b, Signedness::Signed) as i64;
                (full >> (imm16 & 63)) as u32
            }
            Opcode::ShAdd => {
                // Address generation: (a << imm) + b.
                self.adder
                    .add(self.shifter.shift(ShiftKind::Lsl, a, imm16 & 31), b)
            }
            Opcode::Bfe => {
                let pos = imm16 & 0x1F;
                let len = (imm16 >> 5) & 0x3F;
                let shifted = self.shifter.shift(ShiftKind::Lsr, a, pos);
                if len >= 32 {
                    shifted
                } else {
                    shifted & ((1u32 << len) - 1)
                }
            }
            Opcode::Rotri => self.shifter.rotate_right(a, imm16),
            Opcode::Selp => {
                if ops.sel_pred {
                    a
                } else {
                    b
                }
            }
            Opcode::Mov => a,
            Opcode::Movi => imm,
            Opcode::Stid => ops.tid,
            Opcode::Sntid => ops.ntid,
            Opcode::SetpEq
            | Opcode::SetpNe
            | Opcode::SetpLt
            | Opcode::SetpLe
            | Opcode::SetpGt
            | Opcode::SetpGe
            | Opcode::SetpLtu
            | Opcode::SetpGeu
            | Opcode::Lds
            | Opcode::Sts
            | Opcode::Bra
            | Opcode::Brp
            | Opcode::Call
            | Opcode::Ret
            | Opcode::Loop
            | Opcode::Exit
            | Opcode::Nop
            | Opcode::Bar => {
                unreachable!("{:?} is not an ALU-value opcode", instr.opcode)
            }
        }
    }

    /// Evaluate a `setp.*` comparison; routed through the shared
    /// subtractor's flags exactly as the hardware compares.
    pub fn eval_setp(&self, opcode: Opcode, a: u32, b: u32) -> bool {
        let (_, f) = self.adder.add_carry(a, !b, true);
        let lt_signed = f.negative != f.overflow;
        let eq = a == b;
        let lt_unsigned = !f.carry; // borrow
        match opcode {
            Opcode::SetpEq => eq,
            Opcode::SetpNe => !eq,
            Opcode::SetpLt => lt_signed,
            Opcode::SetpLe => lt_signed || eq,
            Opcode::SetpGt => !(lt_signed || eq),
            Opcode::SetpGe => !lt_signed,
            Opcode::SetpLtu => lt_unsigned,
            Opcode::SetpGeu => !lt_unsigned,
            _ => unreachable!("{opcode:?} is not a setp opcode"),
        }
    }
}

/// What the datapath computes, in host arithmetic — the semantics of
/// every ALU-value opcode as a pure function of its operands.
///
/// `imm` is the immediate as the decoder widens it (`imm32` for Imm32
/// forms, zero-extended `imm16` for Imm16 forms; ignored elsewhere).
/// The three opcodes whose value comes from the lane rather than from
/// registers take it as an operand: `selp` steers on `c != 0`, `stid`
/// and `sntid` return the special register passed as `a`.
///
/// Always inlined: a caller passing a constant `opcode` (each arm of
/// the simulator's µop dispatch does) gets the one arm it names, and
/// the match folds out of its lane loop.
///
/// # Panics
/// If called with a memory, control or `setp` opcode, like
/// [`Datapath::eval`].
#[inline(always)]
pub fn native(opcode: Opcode, a: u32, b: u32, c: u32, imm: u32) -> u32 {
    // The full 64-bit signed product of the two 32-bit operands.
    let product = |a: u32, b: u32| a as i32 as i64 * b as i32 as i64;
    let mul_hi = |a: u32, b: u32| (product(a, b) >> 32) as u32;
    // Out-of-range shift amounts shift everything out (the one-hot
    // conversion yields 0); `asr` then leaves the sign.
    let shl = |a: u32, s: u32| a.checked_shl(s).unwrap_or(0);
    let lsr = |a: u32, s: u32| a.checked_shr(s).unwrap_or(0);
    let asr = |a: u32, s: u32| ((a as i32) >> s.min(31)) as u32;
    match opcode {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Min => (a as i32).min(b as i32) as u32,
        Opcode::Max => (a as i32).max(b as i32) as u32,
        Opcode::Abs => (a as i32).wrapping_abs() as u32,
        Opcode::Neg => a.wrapping_neg(),
        Opcode::Sad => c.wrapping_add((a as i32).abs_diff(b as i32)),
        Opcode::Addi => a.wrapping_add(imm),
        Opcode::Subi => a.wrapping_sub(imm),
        Opcode::MulLo => a.wrapping_mul(b),
        Opcode::MulHi => mul_hi(a, b),
        Opcode::MuluHi => ((a as u64 * b as u64) >> 32) as u32,
        Opcode::MadLo => a.wrapping_mul(b).wrapping_add(c),
        Opcode::MadHi => mul_hi(a, b).wrapping_add(c),
        Opcode::Muli => a.wrapping_mul(imm),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Not => !a,
        Opcode::Cnot => (a == 0) as u32,
        Opcode::Andi => a & imm,
        Opcode::Ori => a | imm,
        Opcode::Xori => a ^ imm,
        Opcode::Popc => a.count_ones(),
        Opcode::Clz => a.leading_zeros(),
        Opcode::Brev => a.reverse_bits(),
        Opcode::Shl => shl(a, b),
        Opcode::Lsr => lsr(a, b),
        Opcode::Asr => asr(a, b),
        Opcode::Shli => shl(a, imm),
        Opcode::Lsri => lsr(a, imm),
        Opcode::Asri => asr(a, imm),
        Opcode::SatAdd => (a as i32).saturating_add(b as i32) as u32,
        Opcode::SatSub => (a as i32).saturating_sub(b as i32) as u32,
        // Fixed-point scaling: the full product, arithmetic shift right
        // by imm (0..=63), low 32 bits.
        Opcode::MulShr => (product(a, b) >> (imm & 63)) as u32,
        // Address generation: (a << imm) + b.
        Opcode::ShAdd => (a << (imm & 31)).wrapping_add(b),
        Opcode::Bfe => {
            let pos = imm & 0x1F;
            let len = (imm >> 5) & 0x3F;
            (a >> pos) & 1u32.checked_shl(len).map_or(u32::MAX, |bit| bit - 1)
        }
        Opcode::Rotri => a.rotate_right(imm & 31),
        Opcode::Selp => {
            if c != 0 {
                a
            } else {
                b
            }
        }
        Opcode::Mov | Opcode::Stid | Opcode::Sntid => a,
        Opcode::Movi => imm,
        Opcode::SetpEq
        | Opcode::SetpNe
        | Opcode::SetpLt
        | Opcode::SetpLe
        | Opcode::SetpGt
        | Opcode::SetpGe
        | Opcode::SetpLtu
        | Opcode::SetpGeu
        | Opcode::Lds
        | Opcode::Sts
        | Opcode::Bra
        | Opcode::Brp
        | Opcode::Call
        | Opcode::Ret
        | Opcode::Loop
        | Opcode::Exit
        | Opcode::Nop
        | Opcode::Bar => {
            unreachable!("{opcode:?} is not an ALU-value opcode")
        }
    }
}

/// The `setp.*` comparisons in host arithmetic (see [`native`]).
///
/// # Panics
/// If `opcode` is not a `setp.*`, like [`Datapath::eval_setp`].
#[inline(always)]
pub fn native_setp(opcode: Opcode, a: u32, b: u32) -> bool {
    match opcode {
        Opcode::SetpEq => a == b,
        Opcode::SetpNe => a != b,
        Opcode::SetpLt => (a as i32) < (b as i32),
        Opcode::SetpLe => (a as i32) <= (b as i32),
        Opcode::SetpGt => (a as i32) > (b as i32),
        Opcode::SetpGe => (a as i32) >= (b as i32),
        Opcode::SetpLtu => a < b,
        Opcode::SetpGeu => a >= b,
        _ => unreachable!("{opcode:?} is not a setp opcode"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::Instruction;

    fn ops(a: u32, b: u32, c: u32) -> Operands {
        Operands {
            a,
            b,
            c,
            tid: 3,
            ntid: 64,
            sel_pred: false,
        }
    }

    #[test]
    fn arithmetic_semantics() {
        let dp = Datapath::new();
        let i = |op| Instruction::new(op);
        assert_eq!(dp.eval(&i(Opcode::Add), ops(2, 3, 0)), 5);
        assert_eq!(dp.eval(&i(Opcode::Sub), ops(2, 3, 0)) as i32, -1);
        assert_eq!(dp.eval(&i(Opcode::Sad), ops(2, 7, 10)), 15);
        assert_eq!(
            dp.eval(&i(Opcode::MulLo), ops(-4i32 as u32, 3, 0)) as i32,
            -12
        );
        assert_eq!(dp.eval(&i(Opcode::MadLo), ops(4, 3, 5)), 17);
        assert_eq!(
            dp.eval(&i(Opcode::MuluHi), ops(0xFFFF_FFFF, 2, 0)),
            1 // 0xFFFFFFFF*2 = 0x1_FFFFFFFE
        );
    }

    #[test]
    fn mulshr_fixed_point_scaling() {
        let dp = Datapath::new();
        // Q15 multiply: 0.5 * 0.5 = 0.25 -> (16384 * 16384) >> 15 = 8192
        let i = Instruction::new(Opcode::MulShr).imm(15);
        assert_eq!(dp.eval(&i, ops(16384, 16384, 0)), 8192);
        // negative operand keeps sign through the arithmetic shift
        let r = dp.eval(&i, ops(-16384i32 as u32, 16384, 0));
        assert_eq!(r as i32, -8192);
    }

    #[test]
    fn shadd_and_bfe() {
        let dp = Datapath::new();
        let sh = Instruction::new(Opcode::ShAdd).imm(2);
        assert_eq!(dp.eval(&sh, ops(5, 3, 0)), 23); // (5<<2)+3
        let bfe = Instruction::new(Opcode::Bfe).imm(4 | (8 << 5));
        assert_eq!(dp.eval(&bfe, ops(0xABCD_EF12, 0, 0)), 0xF1);
    }

    #[test]
    fn selp_and_specials() {
        let dp = Datapath::new();
        let i = Instruction::new(Opcode::Selp);
        let mut o = ops(11, 22, 0);
        o.sel_pred = true;
        assert_eq!(dp.eval(&i, o), 11);
        o.sel_pred = false;
        assert_eq!(dp.eval(&i, o), 22);
        assert_eq!(dp.eval(&Instruction::new(Opcode::Stid), o), 3);
        assert_eq!(dp.eval(&Instruction::new(Opcode::Sntid), o), 64);
    }

    #[test]
    fn setp_all_conditions() {
        let dp = Datapath::new();
        let a = -5i32 as u32;
        let b = 3u32;
        assert!(!dp.eval_setp(Opcode::SetpEq, a, b));
        assert!(dp.eval_setp(Opcode::SetpNe, a, b));
        assert!(dp.eval_setp(Opcode::SetpLt, a, b)); // -5 < 3 signed
        assert!(!dp.eval_setp(Opcode::SetpLtu, a, b)); // 0xFFFFFFFB > 3 unsigned
        assert!(dp.eval_setp(Opcode::SetpGeu, a, b));
        assert!(dp.eval_setp(Opcode::SetpLe, 3, 3));
        assert!(!dp.eval_setp(Opcode::SetpGt, 3, 3));
        assert!(dp.eval_setp(Opcode::SetpGe, 3, 3));
    }

    #[test]
    fn shifts_by_register_value() {
        let dp = Datapath::new();
        assert_eq!(dp.eval(&Instruction::new(Opcode::Shl), ops(1, 4, 0)), 16);
        assert_eq!(dp.eval(&Instruction::new(Opcode::Shl), ops(1, 32, 0)), 0); // out of range
        assert_eq!(
            dp.eval(&Instruction::new(Opcode::Asr), ops(0x8000_0000, 40, 0)),
            0xFFFF_FFFF // negative, out of range -> -1
        );
    }
}
