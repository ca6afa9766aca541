//! Native ≡ structural, at the function level: for every ALU-value
//! opcode and every `setp.*`, the host-arithmetic semantics the fast
//! interpreter runs ([`native`] / [`native_setp`]) equal the gate-level
//! datapath models the reference interpreter runs ([`Datapath::eval`] /
//! [`Datapath::eval_setp`]) — over the full cross product of a corner
//! set and over seeded random operands. Deterministic: no proptest, no
//! case-count knob.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simt_core::alu::{native, native_setp};
use simt_core::{Datapath, Operands};
use simt_isa::{ImmForm, Instruction, Opcode};

/// Operand corners: shift amounts around the 32- and 64-bit edges, the
/// 16-bit segment boundary of the two-stage adder and the DSP vectors,
/// and both signed rails.
const CORNERS: [u32; 17] = [
    0,
    1,
    2,
    15,
    16,
    31,
    32,
    33,
    63,
    64,
    0xFFFF,
    0x1_0000,
    0x7FFF_FFFF,
    0x8000_0000,
    0x8000_0001,
    0xFFFF_FFFF,
    0xAAAA_5555,
];

/// Immediate corners (every one fits the 16-bit forms): shifts of 0,
/// 31, 32, past 32, 63, past 63; `bfe` lengths below and above 32;
/// `rotri` by multiples of 32.
const IMMEDIATES: [u32; 9] = [0, 1, 15, 31, 32, 33, 63, 64, 0xFFFF];

const RANDOM_TRIPLES: usize = 20_000;

/// How the function-level comparison treats an opcode. No wildcard arm:
/// a new opcode does not compile until it is given a row.
enum Row {
    /// Writes `rd` from `(a, b, c, imm)`; compared through
    /// `Datapath::eval`.
    Value,
    /// Writes a predicate from `(a, b)`; compared through `eval_setp`.
    Setp,
    /// Memory and control flow have no ALU value.
    NoValue,
}

fn row(op: Opcode) -> Row {
    match op {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Min
        | Opcode::Max
        | Opcode::Abs
        | Opcode::Neg
        | Opcode::Sad
        | Opcode::Addi
        | Opcode::Subi
        | Opcode::MulLo
        | Opcode::MulHi
        | Opcode::MuluHi
        | Opcode::MadLo
        | Opcode::MadHi
        | Opcode::Muli
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Not
        | Opcode::Cnot
        | Opcode::Andi
        | Opcode::Ori
        | Opcode::Xori
        | Opcode::Popc
        | Opcode::Clz
        | Opcode::Brev
        | Opcode::Shl
        | Opcode::Lsr
        | Opcode::Asr
        | Opcode::Shli
        | Opcode::Lsri
        | Opcode::Asri
        | Opcode::SatAdd
        | Opcode::SatSub
        | Opcode::MulShr
        | Opcode::ShAdd
        | Opcode::Bfe
        | Opcode::Rotri
        | Opcode::Selp
        | Opcode::Mov
        | Opcode::Movi
        | Opcode::Stid
        | Opcode::Sntid => Row::Value,
        Opcode::SetpEq
        | Opcode::SetpNe
        | Opcode::SetpLt
        | Opcode::SetpLe
        | Opcode::SetpGt
        | Opcode::SetpGe
        | Opcode::SetpLtu
        | Opcode::SetpGeu => Row::Setp,
        Opcode::Lds
        | Opcode::Sts
        | Opcode::Bra
        | Opcode::Brp
        | Opcode::Call
        | Opcode::Ret
        | Opcode::Loop
        | Opcode::Exit
        | Opcode::Nop
        | Opcode::Bar => Row::NoValue,
    }
}

/// One value-opcode comparison. The structural side gets an
/// `Instruction` and the lane context the way the reference interpreter
/// builds them; the native side gets the immediate the way the decoder
/// widens it, and the lane context as operands (`selp` steers on `c`,
/// `stid`/`sntid` return `a`).
fn check_value(dp: &Datapath, op: Opcode, a: u32, b: u32, c: u32, imm: u32) {
    let instr = Instruction::new(op).imm(imm);
    let widened = match op.imm_form() {
        ImmForm::Imm32 => instr.imm32(),
        ImmForm::Imm16 => instr.imm16(),
        _ => 0,
    };
    let lane = Operands {
        a,
        b,
        c,
        tid: a,
        ntid: a,
        sel_pred: c != 0,
    };
    assert_eq!(
        native(op, a, b, c, widened),
        dp.eval(&instr, lane),
        "{op:?} a={a:#x} b={b:#x} c={c:#x} imm={imm:#x}"
    );
}

fn check_setp(dp: &Datapath, op: Opcode, a: u32, b: u32) {
    assert_eq!(
        native_setp(op, a, b),
        dp.eval_setp(op, a, b),
        "{op:?} a={a:#x} b={b:#x}"
    );
}

#[test]
fn native_equals_structural_for_every_opcode() {
    let dp = Datapath::new();
    let (mut values, mut setps) = (0, 0);
    for &op in Opcode::ALL {
        // One stream per opcode, so adding an opcode moves no other
        // opcode's operands.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0000 + op.as_u8() as u64);
        match row(op) {
            Row::Value => {
                let immediates: &[u32] = match op.imm_form() {
                    ImmForm::Imm32 | ImmForm::Imm16 => &IMMEDIATES,
                    _ => &[0],
                };
                for a in CORNERS {
                    for b in CORNERS {
                        for c in CORNERS {
                            for &imm in immediates {
                                check_value(&dp, op, a, b, c, imm);
                            }
                        }
                    }
                }
                for _ in 0..RANDOM_TRIPLES {
                    let (a, b, c, imm) = (rng.gen(), rng.gen(), rng.gen(), rng.gen());
                    check_value(&dp, op, a, b, c, imm);
                }
                values += 1;
            }
            Row::Setp => {
                for a in CORNERS {
                    for b in CORNERS {
                        check_setp(&dp, op, a, b);
                    }
                }
                for _ in 0..RANDOM_TRIPLES {
                    let (a, b): (u32, u32) = (rng.gen(), rng.gen());
                    check_setp(&dp, op, a, b);
                    // Random words are almost never equal or adjacent.
                    check_setp(&dp, op, a, a);
                    check_setp(&dp, op, a, a.wrapping_add(1));
                }
                setps += 1;
            }
            Row::NoValue => {}
        }
    }
    assert_eq!((values, setps), (43, 8));
}
