//! The 32×32 integer multiplier of §4.1, modelled at the vector level.
//!
//! The Agilex DSP block offers 18×19 multipliers; a 32×32 product is not
//! directly supported and "must be constructed from a combination of DSP
//! Blocks and soft logic". The paper's construction, reproduced here:
//!
//! 1. Split each operand into 16-bit halves `{AH, AL}`, `{BH, BL}`,
//!    routed to the 16 LSBs of four 18×19 multipliers over two DSP
//!    blocks. For **unsigned** multiplication the guard bits of all four
//!    are zeroed; for **signed**, the lower-half inputs stay zero-extended
//!    while the upper-half inputs are sign-extended (making the unit an
//!    effective 33×33 signed multiplier serving both numerics).
//! 2. DSP block #1 computes two independent products:
//!    `A = AH·BH` and `C = AL·BL`.
//!    DSP block #2 computes the sum of two products:
//!    `B = AH·BL + AL·BH` (a 37-bit vector).
//! 3. Soft logic composes two 66-bit vectors:
//!    `V1 = { A[33:0], C[31:0] }` (lower 34 bits of A appended to the
//!    left of the lower 32 bits of C) and
//!    `V2 = sign_extend_66( B << 16 )` (B with a 16-bit zero vector
//!    appended to the right).
//! 4. `V1 + V2` is computed by the segmented 66-bit adder with
//!    {generate, propagate} carry-lookahead ([`SegmentAdder66`]); the low
//!    16 bits "are simply the 16 LSBs of C, and do not require any
//!    processing".
//!
//! The full 64-bit product is available as high and low halves ("the high
//! value would typically be used for signal processing, and the low value
//! for address generation").

use crate::adder::SegmentAdder66;
use serde::{Deserialize, Serialize};

/// Operand interpretation of the multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signedness {
    /// Both operands unsigned (guard bits of all four 18×19 inputs zero).
    Unsigned,
    /// Both operands signed two's complement (upper halves sign-extended).
    Signed,
}

/// The intermediate DSP-block output vectors, exposed for inspection and
/// testing (they are real signals in the paper's Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MulVectors {
    /// `AH·BH` — first multiplier of DSP block #1 (34 significant bits).
    pub vector_a: i64,
    /// `AH·BL + AL·BH` — DSP block #2, configured as a sum of two
    /// multipliers (37 significant bits).
    pub vector_b: i64,
    /// `AL·BL` — second multiplier of DSP block #1 (32 significant bits).
    pub vector_c: u64,
    /// First 66-bit composition vector `{A[33:0], C[31:0]}`.
    pub v1: u128,
    /// Second 66-bit composition vector `sign_extend(B) << 16`.
    pub v2: u128,
}

/// The 33×33 signed multiplier unit (serving 32×32 signed and unsigned).
#[derive(Debug, Clone, Default)]
pub struct Int32Multiplier {
    adder: SegmentAdder66,
}

const MASK66: u128 = (1u128 << 66) - 1;

impl Int32Multiplier {
    /// A multiplier with a fresh composition adder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decompose the operands into the three DSP-block vectors and the
    /// two 66-bit composition vectors (§4.1 / Figure 4).
    #[inline]
    pub fn vectors(&self, a: u32, b: u32, mode: Signedness) -> MulVectors {
        let al = (a & 0xFFFF) as i64; // zero-extended in both modes
        let bl = (b & 0xFFFF) as i64;
        let (ah, bh) = match mode {
            Signedness::Unsigned => ((a >> 16) as i64, (b >> 16) as i64),
            Signedness::Signed => (((a as i32) >> 16) as i64, ((b as i32) >> 16) as i64),
        };
        let vector_a = ah * bh;
        let vector_b = ah * bl + al * bh;
        let vector_c = (al * bl) as u64;
        // V1 = lower 34 bits of A, appended to the left of C's 32 bits.
        let v1 = (((vector_a as u128) & ((1 << 34) - 1)) << 32) | (vector_c as u128 & 0xFFFF_FFFF);
        // V2 = B sign-extended to 66 bits with 16 zeros appended right.
        let v2 = ((vector_b as i128) << 16) as u128 & MASK66;
        MulVectors {
            vector_a,
            vector_b,
            vector_c,
            v1,
            v2,
        }
    }

    /// Full 64-bit product via the structural datapath: DSP vectors, then
    /// the segmented 66-bit addition.
    ///
    /// The same A/B/C and V1/V2 vectors as [`Int32Multiplier::vectors`],
    /// held in 32-bit words and composed directly in the adder's
    /// [`Segments`](crate::adder::Segments) form: this is the host's
    /// hottest path (the simulator evaluates it per multiply lane, in
    /// loops that vectorize over 32-bit lanes), and no signal of the
    /// structure is wider than the 18-bit top segment except the
    /// products themselves. Each product's low 32 bits are exact; its
    /// few bits above them are its sign in signed mode and zero in
    /// unsigned mode (`ext`), because every 17×17-bit partial product
    /// fits 32 bits in its own numerics.
    #[inline(always)]
    pub fn mul_full(&self, a: u32, b: u32, mode: Signedness) -> u64 {
        const M16: u32 = 0xFFFF;
        let (al, bl) = (a & M16, b & M16); // zero-extended in both modes
        let (ah, bh) = match mode {
            Signedness::Unsigned => (a >> 16, b >> 16),
            Signedness::Signed => (((a as i32) >> 16) as u32, ((b as i32) >> 16) as u32),
        };
        let ext = |product: u32| match mode {
            Signedness::Unsigned => 0,
            Signedness::Signed => ((product as i32) >> 31) as u32,
        };
        let vector_a = ah.wrapping_mul(bh);
        let (ah_bl, al_bh) = (ah.wrapping_mul(bl), al.wrapping_mul(bh));
        let vector_b = ah_bl.wrapping_add(al_bh);
        let vector_b_hi = ext(ah_bl)
            .wrapping_add(ext(al_bh))
            .wrapping_add((vector_b < ah_bl) as u32); // bits [36:32], sign-extended
        let vector_c = al * bl;
        // V1 = lower 34 bits of A, appended to the left of C's 32 bits.
        let v1 = [
            vector_c & M16,
            vector_c >> 16,
            vector_a & M16,
            (vector_a >> 16) | (ext(vector_a) & 0x3) << 16,
        ];
        // V2 = B sign-extended to 66 bits with 16 zeros appended right.
        let v2 = [
            0,
            vector_b & M16,
            vector_b >> 16,
            vector_b_hi & ((1 << 18) - 1),
        ];
        let (sum, _) = self.adder.add_segments(v1, v2);
        // Low 64 bits of the 66-bit sum.
        ((sum[3] << 16 | sum[2]) as u64) << 32 | (sum[1] << 16 | sum[0]) as u64
    }

    /// Low 32 bits of the product ("for address generation").
    #[inline]
    pub fn mul_lo(&self, a: u32, b: u32, mode: Signedness) -> u32 {
        self.mul_full(a, b, mode) as u32
    }

    /// High 32 bits of the product ("for signal processing").
    #[inline]
    pub fn mul_hi(&self, a: u32, b: u32, mode: Signedness) -> u32 {
        (self.mul_full(a, b, mode) >> 32) as u32
    }

    /// Pipeline depth in clocks (DSP input/internal/output + two adder
    /// stages + writeback), see [`crate::ALU_LATENCY`].
    pub fn latency(&self) -> usize {
        crate::ALU_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: u32, b: u32, mode: Signedness) -> u64 {
        match mode {
            Signedness::Unsigned => (a as u64).wrapping_mul(b as u64),
            Signedness::Signed => ((a as i32 as i64).wrapping_mul(b as i32 as i64)) as u64,
        }
    }

    #[test]
    fn vectors_compose_exactly() {
        let m = Int32Multiplier::new();
        for &(a, b) in &[
            (0u32, 0u32),
            (1, 1),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (0x8000_0000, 0x7FFF_FFFF),
            (123_456_789, 987_654_321),
            (0xDEAD_BEEF, 0xCAFE_F00D),
        ] {
            for mode in [Signedness::Unsigned, Signedness::Signed] {
                let v = m.vectors(a, b, mode);
                // identity: product = A·2^32 + B·2^16 + C
                let want = reference(a, b, mode) as u128 & ((1 << 64) - 1);
                let got = (v.v1 + v.v2) & ((1 << 64) - 1);
                assert_eq!(got, want, "a={a:#x} b={b:#x} {mode:?}");
            }
        }
    }

    #[test]
    fn structural_matches_reference_corners() {
        let m = Int32Multiplier::new();
        let corners = [
            0u32,
            1,
            2,
            0xFFFF,
            0x10000,
            0x7FFF_FFFF,
            0x8000_0000,
            0x8000_0001,
            0xFFFF_FFFF,
            0x0001_0001,
            0xAAAA_5555,
        ];
        for &a in &corners {
            for &b in &corners {
                for mode in [Signedness::Unsigned, Signedness::Signed] {
                    assert_eq!(
                        m.mul_full(a, b, mode),
                        reference(a, b, mode),
                        "a={a:#x} b={b:#x} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hi_lo_split() {
        let m = Int32Multiplier::new();
        // -2 * 3 = -6 -> hi = 0xFFFFFFFF (sign), lo = -6.
        assert_eq!(m.mul_lo(-2i32 as u32, 3, Signedness::Signed), -6i32 as u32);
        assert_eq!(m.mul_hi(-2i32 as u32, 3, Signedness::Signed), 0xFFFF_FFFF);
        // unsigned: 0xFFFFFFFF^2 = 0xFFFFFFFE_00000001
        assert_eq!(
            m.mul_hi(0xFFFF_FFFF, 0xFFFF_FFFF, Signedness::Unsigned),
            0xFFFF_FFFE
        );
        assert_eq!(m.mul_lo(0xFFFF_FFFF, 0xFFFF_FFFF, Signedness::Unsigned), 1);
    }

    #[test]
    fn ptx_24bit_subset_is_covered() {
        // §4: "we could just use a subset of the Nvidia PTX 24-bit integer
        // multiplier" — the general 32-bit unit must subsume it.
        let m = Int32Multiplier::new();
        let a = 0x00FF_FFFF; // 24-bit operands
        let b = 0x00ED_CBA9;
        assert_eq!(
            m.mul_full(a, b, Signedness::Unsigned),
            (a as u64) * (b as u64)
        );
    }

    #[test]
    fn low_16_bits_are_vector_c_passthrough() {
        // §4.1: "The 16 LSBs of the result are simply the 16 LSBs of C".
        let m = Int32Multiplier::new();
        for &(a, b) in &[(0x1234_5678u32, 0x9ABC_DEF0u32), (7, 9), (0xFFFF, 0xFFFF)] {
            let v = m.vectors(a, b, Signedness::Signed);
            let full = m.mul_full(a, b, Signedness::Signed);
            assert_eq!(full & 0xFFFF, v.vector_c & 0xFFFF);
        }
    }
}
