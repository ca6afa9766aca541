//! Adders: the two-stage pipelined 32-bit ALU adder and the segmented
//! 66-bit composition adder with {generate, propagate} carry-lookahead.

use serde::{Deserialize, Serialize};

/// Per-segment trace of the 66-bit addition, exposing the real signals of
/// §4.1 so tests can pin the carry network behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTrace {
    /// Carry out of segment 2 (bits \[31:16\]) — the only segment with no
    /// carry-in whose carry-out matters.
    pub carry_from_seg2: bool,
    /// Generate bit of segment 3 (bits \[47:32\]).
    pub g3: bool,
    /// Propagate bit of segment 3: AND of the OR of every operand bit
    /// pair, "registered as a single bit".
    pub p3: bool,
    /// Carry injected into segment 3 in the second pipeline stage.
    pub carry_into_seg3: bool,
    /// Carry injected into segment 4 (bits \[65:48\]).
    pub carry_into_seg4: bool,
}

/// The 66-bit segmented adder of §4.1.
///
/// "Building a structure to consistently close timing at 1 GHz for a
/// 66-bit integer addition ... was solved using a prefix structure to
/// compute carry look-aheads":
///
/// * bits `[15:0]` are the 16 LSBs of vector C — passed through untouched;
/// * bits `[31:16]` have no carry-in and add in one segment;
/// * bits `[47:32]` and `[65:48]` add independently in the first pipeline
///   stage; their carries are inserted in the **next** stage, computed
///   from a registered single-bit {g, p} pair, so each carry needs "only
///   a single gate".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentAdder66;

const MASK66: u128 = (1u128 << 66) - 1;
const M16: u32 = 0xFFFF;
const M18: u32 = (1 << 18) - 1;

/// A 66-bit value split at the adder's segment boundaries: bits
/// `[15:0]`, `[31:16]`, `[47:32]` (16 bits each) and `[65:48]` (18 bits).
pub type Segments = [u32; 4];

impl SegmentAdder66 {
    /// New adder.
    pub fn new() -> Self {
        SegmentAdder66
    }

    /// Add two 66-bit values (inputs must already be masked to 66 bits),
    /// returning the 66-bit sum. Structurally identical to
    /// [`SegmentAdder66::add_traced`] with the trace discarded.
    #[inline]
    pub fn add(&self, x: u128, y: u128) -> u128 {
        self.add_traced(x, y).0
    }

    /// Add with the internal carry-network trace: split at the segment
    /// boundaries, run [`SegmentAdder66::add_segments`], rejoin.
    #[inline(always)]
    pub fn add_traced(&self, x: u128, y: u128) -> (u128, SegmentTrace) {
        debug_assert_eq!(x & !MASK66, 0, "x exceeds 66 bits");
        debug_assert_eq!(y & !MASK66, 0, "y exceeds 66 bits");
        let split = |v: u128| -> Segments {
            [
                v as u32 & M16,
                (v >> 16) as u32 & M16,
                (v >> 32) as u32 & M16,
                (v >> 48) as u32,
            ]
        };
        let (s, trace) = self.add_segments(split(x), split(y));
        let sum = (s[3] as u128) << 48 | (s[2] as u128) << 32 | (s[1] as u128) << 16 | s[0] as u128;
        (sum, trace)
    }

    /// The carry network itself, on operands already split at the
    /// segment boundaries (see [`Segments`]) — the form the multiplier
    /// composes its vectors in.
    ///
    /// Every segment is at most 18 bits wide, so the whole add runs on
    /// 32-bit words: the host-side simulator evaluates this on every
    /// multiply lane, and 32-bit lanes are what its column loops
    /// vectorize over. The independent stage-1 adds and the registered
    /// single-bit {g, p} carry insertion are exactly the hardware's.
    #[inline(always)]
    pub fn add_segments(&self, x: Segments, y: Segments) -> (Segments, SegmentTrace) {
        debug_assert!(x[..3].iter().chain(&y[..3]).all(|&s| s <= M16));
        debug_assert!(x[3] <= M18 && y[3] <= M18);
        // Segment 1, bits [15:0]: V2 is zero there by construction in the
        // multiplier, so the hardware passes C's 16 LSBs through; the
        // general case still adds correctly, rippling into segment 2.
        let raw1 = x[0] + y[0];
        let c1 = raw1 >> 16;

        // Segment 2, bits [31:16]: no carry-in in the hardware (c1 is zero
        // when y[15:0]==0); carry-out feeds the {g,p} network.
        let raw2 = x[1] + y[1] + c1;
        let carry_from_seg2 = raw2 >> 16 != 0;

        // Segment 3, bits [47:32]: added independently in stage 1; the
        // carry-in arrives in stage 2.
        let raw3 = x[2] + y[2];
        let g3 = raw3 >> 16 != 0;
        // p3 = AND over bit positions of (x3 | y3): a carry entering the
        // segment would ripple all the way through.
        let p3 = (x[2] | y[2]) == M16;

        // Segment 4, bits [65:48]: same independent add.
        let raw4 = x[3] + y[3];

        // ---- second pipeline stage: single-gate carry insertion ----
        let carry_into_seg3 = carry_from_seg2;
        let s3 = (raw3 + carry_into_seg3 as u32) & M16;
        let carry_into_seg4 = g3 | (p3 & carry_into_seg3);
        let s4 = (raw4 + carry_into_seg4 as u32) & M18;

        (
            [raw1 & M16, raw2 & M16, s3, s4],
            SegmentTrace {
                carry_from_seg2,
                g3,
                p3,
                carry_into_seg3,
                carry_into_seg4,
            },
        )
    }

    /// Pipeline depth of the composition add (segment sums + carry
    /// insertion).
    pub fn latency(&self) -> usize {
        2
    }
}

/// Result flags of the 32-bit ALU adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddFlags {
    /// Carry out of bit 31 (unsigned overflow).
    pub carry: bool,
    /// Signed overflow.
    pub overflow: bool,
    /// Result is negative (bit 31).
    pub negative: bool,
    /// Result is zero.
    pub zero: bool,
}

/// The two-stage pipelined 32-bit adder of §4.
///
/// "The adder function — also supporting operations such as subtraction
/// and absolute value — is implemented as a two stage pipelined adder;
/// the two halves map into a subset of a Logic Array Block." Each stage
/// adds a 16-bit half (well inside the LAB's 20-bit adder); the low
/// half's carry-out is registered into the second stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelinedAdder32;

impl PipelinedAdder32 {
    /// New adder.
    pub fn new() -> Self {
        PipelinedAdder32
    }

    /// Structural two-stage add with carry-in (carry-in 1 + inverted `b`
    /// gives subtraction).
    #[inline]
    pub fn add_carry(&self, a: u32, b: u32, carry_in: bool) -> (u32, AddFlags) {
        // Stage 1: low 16 bits.
        let lo = (a & 0xFFFF) + (b & 0xFFFF) + carry_in as u32;
        let c_lo = lo >> 16 != 0; // registered between stages
        let lo = lo & 0xFFFF;
        // Stage 2: high 16 bits + registered carry.
        let hi = (a >> 16) + (b >> 16) + c_lo as u32;
        let carry = hi >> 16 != 0;
        let hi = hi & 0xFFFF;
        let sum = (hi << 16) | lo;
        let overflow = ((a ^ sum) & (b ^ sum)) >> 31 != 0;
        (
            sum,
            AddFlags {
                carry,
                overflow,
                negative: sum >> 31 != 0,
                zero: sum == 0,
            },
        )
    }

    /// `a + b` (wrapping).
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        self.add_carry(a, b, false).0
    }

    /// `a - b` (wrapping): invert and add with carry-in, exactly as the
    /// hardware shares the adder.
    #[inline]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        self.add_carry(a, !b, true).0
    }

    /// Absolute value: conditional negate through the same adder.
    #[inline]
    pub fn abs(&self, a: u32) -> u32 {
        if (a as i32) < 0 {
            self.sub(0, a)
        } else {
            a
        }
    }

    /// Arithmetic negate.
    #[inline]
    pub fn neg(&self, a: u32) -> u32 {
        self.sub(0, a)
    }

    /// Signed minimum via the shared subtractor's flags.
    #[inline]
    pub fn min_s(&self, a: u32, b: u32) -> u32 {
        let (_, f) = self.add_carry(a, !b, true);
        // a < b (signed)  <=>  negative XOR overflow
        if f.negative != f.overflow {
            a
        } else {
            b
        }
    }

    /// Signed maximum.
    #[inline]
    pub fn max_s(&self, a: u32, b: u32) -> u32 {
        let (_, f) = self.add_carry(a, !b, true);
        if f.negative != f.overflow {
            b
        } else {
            a
        }
    }

    /// Saturating signed add (fixed-point wordgrowth control, §4.2
    /// motivation).
    #[inline]
    pub fn sat_add(&self, a: u32, b: u32) -> u32 {
        let (s, f) = self.add_carry(a, b, false);
        if f.overflow {
            if (a as i32) < 0 {
                0x8000_0000
            } else {
                0x7FFF_FFFF
            }
        } else {
            s
        }
    }

    /// Saturating signed subtract.
    #[inline]
    pub fn sat_sub(&self, a: u32, b: u32) -> u32 {
        let (s, f) = self.add_carry(a, !b, true);
        if f.overflow {
            if (a as i32) < 0 {
                0x8000_0000
            } else {
                0x7FFF_FFFF
            }
        } else {
            s
        }
    }

    /// Sum of absolute difference: `c + |a - b|` (PTX `sad`).
    #[inline]
    pub fn sad(&self, a: u32, b: u32, c: u32) -> u32 {
        let d = self.sub(a, b);
        let (_, f) = self.add_carry(a, !b, true);
        let mag = if f.negative != f.overflow {
            self.neg(d)
        } else {
            d
        };
        self.add(c, mag)
    }

    /// Pipeline depth (two LAB-adder stages).
    pub fn latency(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_stage_add_matches_wrapping() {
        let a = PipelinedAdder32::new();
        let cases = [
            (0u32, 0u32),
            (0xFFFF_FFFF, 1),
            (0x0000_FFFF, 1),
            (0x7FFF_FFFF, 1),
            (0x8000_0000, 0x8000_0000),
            (0x1234_5678, 0x9ABC_DEF0),
        ];
        for &(x, y) in &cases {
            assert_eq!(a.add(x, y), x.wrapping_add(y));
            assert_eq!(a.sub(x, y), x.wrapping_sub(y));
        }
    }

    #[test]
    fn flags_behave() {
        let a = PipelinedAdder32::new();
        let (_, f) = a.add_carry(0xFFFF_FFFF, 1, false);
        assert!(f.carry && f.zero && !f.negative);
        let (_, f) = a.add_carry(0x7FFF_FFFF, 1, false);
        assert!(f.overflow && f.negative);
    }

    #[test]
    fn abs_neg_minmax() {
        let a = PipelinedAdder32::new();
        assert_eq!(a.abs(-5i32 as u32) as i32, 5);
        assert_eq!(a.abs(5) as i32, 5);
        assert_eq!(a.abs(i32::MIN as u32), i32::MIN as u32); // wraps like hw
        assert_eq!(a.neg(7) as i32, -7);
        assert_eq!(a.min_s(-3i32 as u32, 2) as i32, -3);
        assert_eq!(a.max_s(-3i32 as u32, 2) as i32, 2);
        assert_eq!(a.min_s(5, 5), 5);
    }

    #[test]
    fn saturation() {
        let a = PipelinedAdder32::new();
        assert_eq!(a.sat_add(0x7FFF_FFFF, 1), 0x7FFF_FFFF);
        assert_eq!(a.sat_add(0x8000_0000, 0xFFFF_FFFF), 0x8000_0000);
        assert_eq!(a.sat_sub(0x8000_0000, 1), 0x8000_0000);
        assert_eq!(a.sat_sub(0x7FFF_FFFF, 0xFFFF_FFFF), 0x7FFF_FFFF);
        assert_eq!(a.sat_add(1, 2), 3);
    }

    #[test]
    fn sad_matches_definition() {
        let a = PipelinedAdder32::new();
        for &(x, y, c) in &[(5u32, 9u32, 100u32), (9, 5, 100), (0, 0, 7)] {
            let want = (c as i64 + ((x as i32 as i64) - (y as i32 as i64)).abs()) as u32;
            assert_eq!(a.sad(x, y, c), want);
        }
    }

    #[test]
    fn segment_adder_exact_on_corners() {
        let s = SegmentAdder66::new();
        let m66 = (1u128 << 66) - 1;
        let cases = [
            (0u128, 0u128),
            (m66, 0),
            (m66, 1),
            (m66, m66),
            (0xFFFF_0000, 0x1_0000),
            ((1 << 48) - 1, 1),
            ((1 << 32) - 1, 1),
        ];
        for &(x, y) in &cases {
            assert_eq!(s.add(x & m66, y & m66), (x + y) & m66, "x={x:#x} y={y:#x}");
        }
    }

    #[test]
    fn propagate_chain_exercised() {
        let s = SegmentAdder66::new();
        // Segment 3 all-ones + carry from segment 2 -> p3 must carry into
        // segment 4.
        let x = 0xFFFFu128 << 32 | 0xFFFF << 16; // seg3 = FFFF, seg2 = FFFF
        let y = 1u128 << 16; // +1 into seg2 -> carry out
        let (sum, t) = s.add_traced(x, y);
        assert!(t.carry_from_seg2);
        assert!(!t.g3);
        assert!(t.p3);
        assert!(t.carry_into_seg4);
        assert_eq!(sum, (x + y) & ((1 << 66) - 1));
    }

    #[test]
    fn generate_without_propagate() {
        let s = SegmentAdder66::new();
        let x = 0x8000u128 << 32; // seg3 msb
        let y = 0x8000u128 << 32;
        let (_, t) = s.add_traced(x, y);
        assert!(t.g3);
        assert!(!t.p3);
        assert!(t.carry_into_seg4);
    }
}
