//! Binary I-Mem images.
//!
//! The instruction memory "is also externally re-loadable" (Fig. 2) —
//! the host writes a program image into the M20K pair at runtime. This
//! module defines that image format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SIMT"
//! 4       2     format version (1)
//! 6       2     flags: bit 0 = program uses predicates
//! 8       4     instruction count N
//! 12      8·N   64-bit instruction words, little endian
//! 12+8N   4     checksum: XOR-fold of all words (detects truncation)
//! ```

use crate::error::IsaError;
use crate::program::Program;

/// Image magic.
pub const MAGIC: &[u8; 4] = b"SIMT";
/// Current format version.
pub const VERSION: u16 = 1;

fn checksum(words: &[u64]) -> u32 {
    words
        .iter()
        .fold(0u32, |acc, &w| acc ^ (w as u32) ^ ((w >> 32) as u32))
}

/// Serialize a program into an I-Mem image.
pub fn to_image(program: &Program) -> Vec<u8> {
    let words = program.words();
    let mut buf = Vec::with_capacity(16 + 8 * words.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(program.uses_predicates() as u16).to_le_bytes());
    buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &w in &words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&checksum(&words).to_le_bytes());
    buf
}

/// Deserialize an I-Mem image back into a program.
pub fn from_image(data: &[u8]) -> Result<Program, IsaError> {
    let err = |detail: &str| IsaError::Syntax {
        line: 0,
        detail: format!("bad image: {detail}"),
    };
    if data.len() < 16 {
        return Err(err("truncated header"));
    }
    let (header, body) = data.split_at(12);
    if &header[0..4] != MAGIC {
        return Err(err("wrong magic"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(err(&format!("unsupported version {version}")));
    }
    // header[6..8] is the flags word; the decoder re-derives predicate
    // use from the instructions.
    let count = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if body.len() as u64 != 8 * count as u64 + 4 {
        return Err(err(&format!(
            "length mismatch: {} bytes for {count} instructions",
            body.len()
        )));
    }
    let (payload, trailer) = body.split_at(8 * count);
    let words: Vec<u64> = payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect();
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    if stored != checksum(&words) {
        return Err(err("checksum mismatch"));
    }
    Program::from_words(&words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn sample() -> Program {
        assemble(
            "  stid r1\n  mul.lo r2, r1, r1\n  sts [r1+0], r2\n  loop 3, e\n  addi r2, r2, 1\ne:\n  exit",
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let img = to_image(&p);
        let q = from_image(&img).unwrap();
        assert_eq!(p.instructions(), q.instructions());
    }

    #[test]
    fn header_fields() {
        let img = to_image(&sample());
        assert_eq!(&img[0..4], b"SIMT");
        assert_eq!(u16::from_le_bytes([img[4], img[5]]), VERSION);
        assert_eq!(u32::from_le_bytes([img[8], img[9], img[10], img[11]]), 6);
        // Byte order on the wire: `roundtrip` alone would pass a
        // to_image/from_image pair that flipped endianness together.
        // `stid r1` encodes as 0x3100_0100_0000_0000.
        assert_eq!(img[12..20], [0, 0, 0, 0, 0, 0x01, 0, 0x31]);
        assert_eq!(sample().words()[0], 0x3100_0100_0000_0000);
        // Trailing checksum 0x0b04_0100, low byte first.
        assert_eq!(img[img.len() - 4..], [0x00, 0x01, 0x04, 0x0b]);
    }

    #[test]
    fn corruption_detected() {
        let img = to_image(&sample());
        // Flip a payload bit.
        let mut bad = img.clone();
        bad[20] ^= 1;
        assert!(from_image(&bad).is_err(), "checksum must catch bit flips");
        // Truncate.
        assert!(from_image(&img[..img.len() - 5]).is_err());
        // Wrong magic.
        let mut bad = img.clone();
        bad[0] = b'X';
        assert!(from_image(&bad).is_err());
        // Wrong version.
        let mut bad = img;
        bad[4] = 9;
        assert!(from_image(&bad).is_err());
    }

    #[test]
    fn empty_program_image() {
        let p = Program::default();
        let q = from_image(&to_image(&p)).unwrap();
        assert!(q.is_empty());
    }
}
