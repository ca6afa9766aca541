//! The multi-port shared memory (§2).
//!
//! "The shared memory architecture is multi-port, a departure from the
//! banked memory typically found in commercial GPGPUs. The multi-port
//! memory (configured as 4R-1W) has a lower potential bandwidth, but a
//! much simpler arbitration mechanism."
//!
//! The port schedule is fixed and conflict-free (no arbitration stalls —
//! that is the whole point): a 16-thread row reads through the 16:4
//! read-address mux in 4 clocks (4 threads per clock), and writes through
//! the 16:1 write muxes one thread per clock. Dynamic thread scaling
//! shortens both by shrinking the row count.
//!
//! # The written extent
//!
//! The memory is *seeded* with an image
//! ([`Processor::reset_seeded`](crate::Processor::reset_seeded); a plain
//! reset seeds the empty image) and from then on keeps one extent `[lo, hi)`
//! covering every word written since, by the host or by a store. The
//! invariant every writer maintains: **outside the extent, memory equals
//! the seed image** — the image's words below its length, zero above.
//! A host that seeded the memory from a buffer therefore has only the
//! extent to copy back, and the next seed has only the words past its
//! own image to zero.

use crate::error::ExecError;
use serde::{Deserialize, Serialize};
use simt_isa::{SHARED_READ_PORTS, SP_COUNT};
use std::ops::Range;

/// Cycle-level access statistics of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemStats {
    /// Total word reads served.
    pub reads: u64,
    /// Total word writes served.
    pub writes: u64,
    /// Clocks spent streaming read rows (4 per full row).
    pub read_cycles: u64,
    /// Clocks spent streaming write rows (16 per full row).
    pub write_cycles: u64,
}

impl SharedMemStats {
    /// Field-wise accumulate another run's memory statistics into
    /// `self`. The exhaustive destructuring makes forgetting a new
    /// field a compile error (see [`crate::ExecStats::merge`]).
    pub fn merge(&mut self, other: &Self) {
        let SharedMemStats {
            reads,
            writes,
            read_cycles,
            write_cycles,
        } = other;
        self.reads += reads;
        self.writes += writes;
        self.read_cycles += read_cycles;
        self.write_cycles += write_cycles;
    }
}

/// The shared memory array plus its port model.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<u32>,
    stats: SharedMemStats,
    /// Words written since the last seed lie in `written` (empty:
    /// `start == end`).
    written: Range<usize>,
    /// Length of the last seed image: outside `written`, words at or
    /// above it are zero.
    seeded: usize,
}

impl SharedMemory {
    /// Allocate and zero `words` 32-bit words.
    pub fn new(words: usize) -> Self {
        SharedMemory {
            data: vec![0; words],
            stats: SharedMemStats::default(),
            written: 0..0,
            seeded: 0,
        }
    }

    /// Size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Access statistics so far.
    pub fn stats(&self) -> SharedMemStats {
        self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = SharedMemStats::default();
    }

    /// Make the contents `image` followed by zeros, reset the
    /// statistics and empty the written extent — in place, one copy of
    /// the image, and zeroing only the words past it that the previous
    /// image or a write since may have left non-zero. Seeding the empty
    /// image is the power-on state.
    pub(crate) fn seed(&mut self, image: &[u32]) -> Result<(), ExecError> {
        let head = self.host_range(0, image.len())?;
        let stale = self.seeded.max(self.written.end);
        self.data[head].copy_from_slice(image);
        if let Some(tail) = self.data.get_mut(image.len()..stale) {
            tail.fill(0);
        }
        self.reset_stats();
        (self.written, self.seeded) = (0..0, image.len());
        Ok(())
    }

    /// The extent covering every word written since the last seed (see
    /// the module doc); empty when nothing was.
    pub fn written(&self) -> Range<usize> {
        self.written.clone()
    }

    /// Widen the written extent to cover `words` (in bounds; an empty
    /// range, whatever its ends, covers nothing).
    #[inline]
    fn mark_written(&mut self, words: Range<usize>) {
        if words.is_empty() {
            return;
        }
        self.written = if self.written.is_empty() {
            words
        } else {
            self.written.start.min(words.start)..self.written.end.max(words.end)
        };
    }

    /// The in-bounds word range `offset..offset + len`, or the trap a
    /// host access outside the array reports (`addr` is the last word
    /// asked for, saturated when `offset + len` overflows).
    fn host_range(&self, offset: usize, len: usize) -> Result<Range<usize>, ExecError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.data.len() => Ok(offset..end),
            end => Err(ExecError::SharedOutOfBounds {
                pc: 0,
                thread: 0,
                addr: end.unwrap_or(usize::MAX).saturating_sub(1),
                size: self.data.len(),
            }),
        }
    }

    /// Host-side bulk write starting at word `offset`.
    pub fn load_words(&mut self, offset: usize, words: &[u32]) -> Result<(), ExecError> {
        let range = self.host_range(offset, words.len())?;
        self.data[range.clone()].copy_from_slice(words);
        self.mark_written(range);
        Ok(())
    }

    /// Host-side bulk read.
    pub fn read_words(&self, offset: usize, len: usize) -> Result<Vec<u32>, ExecError> {
        Ok(self.data[self.host_range(offset, len)?].to_vec())
    }

    /// Single-word read through one read port (bounds-checked trap).
    #[inline]
    pub fn read(&mut self, pc: usize, thread: usize, addr: usize) -> Result<u32, ExecError> {
        match self.data.get(addr) {
            Some(&v) => {
                self.stats.reads += 1;
                Ok(v)
            }
            None => Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size: self.data.len(),
            }),
        }
    }

    /// Single-word write through the write port.
    #[inline]
    pub fn write(
        &mut self,
        pc: usize,
        thread: usize,
        addr: usize,
        value: u32,
    ) -> Result<(), ExecError> {
        let size = self.data.len();
        match self.data.get_mut(addr) {
            Some(slot) => {
                *slot = value;
                self.stats.writes += 1;
                self.mark_written(addr..addr + 1);
                Ok(())
            }
            None => Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size,
            }),
        }
    }

    /// Clocks to stream a read row of `lanes` threads through the 16:4
    /// mux: always the full `SP_COUNT / SHARED_READ_PORTS = 4` for a full
    /// row; a partial final row still takes ⌈lanes/4⌉ mux slots.
    pub fn read_row_cycles(lanes: usize) -> u64 {
        debug_assert!((1..=SP_COUNT).contains(&lanes));
        lanes.div_ceil(SHARED_READ_PORTS) as u64
    }

    /// Clocks to stream a write row of `lanes` threads through the 16:1
    /// write mux: one thread per clock.
    pub fn write_row_cycles(lanes: usize) -> u64 {
        debug_assert!((1..=SP_COUNT).contains(&lanes));
        lanes as u64
    }

    /// Account the port cycles of a read row (the sequencer calls this as
    /// its width counter steps).
    pub fn account_read_row(&mut self, lanes: usize) {
        self.stats.read_cycles += Self::read_row_cycles(lanes);
    }

    /// Account the port cycles of a write row.
    pub fn account_write_row(&mut self, lanes: usize) {
        self.stats.write_cycles += Self::write_row_cycles(lanes);
    }

    /// Account `rows` read rows at once (the predecoded path knows the
    /// block depth up front instead of stepping the width counter).
    pub fn account_read_rows(&mut self, lanes: usize, rows: usize) {
        self.stats.read_cycles += Self::read_row_cycles(lanes) * rows as u64;
    }

    /// Account `rows` write rows at once.
    pub fn account_write_rows(&mut self, lanes: usize, rows: usize) {
        self.stats.write_cycles += Self::write_row_cycles(lanes) * rows as u64;
    }

    /// Direct slice view (diagnostics, host verification, and the
    /// simulator's `lds` column kernel).
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Mutable slice view for the simulator's `sts` column kernel, which
    /// reports what it wrote itself (see [`SharedMemory::note_writes`]).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.data
    }

    /// Account `n` word reads performed through [`SharedMemory::as_slice`]
    /// (the simulator's `lds` column kernel bypasses
    /// [`SharedMemory::read`]).
    pub(crate) fn bump_reads(&mut self, n: u64) {
        self.stats.reads += n;
    }

    /// Account `n` word writes performed through
    /// [`SharedMemory::as_mut_slice`], all of them inside `words`.
    pub(crate) fn note_writes(&mut self, n: u64, words: Range<usize>) {
        self.stats.writes += n;
        self.mark_written(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_trapped() {
        let mut m = SharedMemory::new(16);
        assert!(m.read(0, 0, 15).is_ok());
        let e = m.read(7, 3, 16).unwrap_err();
        assert_eq!(
            e,
            ExecError::SharedOutOfBounds {
                pc: 7,
                thread: 3,
                addr: 16,
                size: 16
            }
        );
        assert!(m.write(0, 0, 15, 1).is_ok());
        assert!(m.write(0, 0, 99, 1).is_err());
    }

    #[test]
    fn port_schedule_full_row() {
        // 16 threads: read = 4 clocks (4R ports), write = 16 clocks (1W).
        assert_eq!(SharedMemory::read_row_cycles(16), 4);
        assert_eq!(SharedMemory::write_row_cycles(16), 16);
    }

    #[test]
    fn port_schedule_partial_rows() {
        assert_eq!(SharedMemory::read_row_cycles(1), 1);
        assert_eq!(SharedMemory::read_row_cycles(4), 1);
        assert_eq!(SharedMemory::read_row_cycles(5), 2);
        assert_eq!(SharedMemory::write_row_cycles(3), 3);
    }

    #[test]
    fn bulk_io() {
        let mut m = SharedMemory::new(8);
        m.load_words(2, &[10, 20, 30]).unwrap();
        assert_eq!(m.read_words(0, 8).unwrap(), vec![0, 0, 10, 20, 30, 0, 0, 0]);
        assert!(m.load_words(6, &[1, 2, 3]).is_err());
        assert!(m.read_words(7, 2).is_err());
    }

    #[test]
    fn bulk_io_offset_overflow_is_a_typed_error() {
        // `offset + len` used to wrap past the bound test and panic in
        // the slice index.
        let mut m = SharedMemory::new(8);
        let oob = |addr| ExecError::SharedOutOfBounds {
            pc: 0,
            thread: 0,
            addr,
            size: 8,
        };
        assert_eq!(m.load_words(usize::MAX, &[1]), Err(oob(usize::MAX - 1)));
        assert_eq!(m.read_words(usize::MAX, 2), Err(oob(usize::MAX - 1)));
        assert_eq!(m.read_words(usize::MAX - 1, 1), Err(oob(usize::MAX - 1)));
        assert_eq!(m.read_words(9, 0), Err(oob(8)));
        assert_eq!(m.load_words(8, &[]), Ok(()));
        assert_eq!(m.as_slice(), &[0; 8]);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = SharedMemory::new(8);
        m.read(0, 0, 0).unwrap();
        m.write(0, 0, 1, 5).unwrap();
        m.account_read_row(16);
        m.account_write_row(16);
        let s = m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.read_cycles, 4);
        assert_eq!(s.write_cycles, 16);
        m.reset_stats();
        assert_eq!(m.stats(), SharedMemStats::default());
    }
}
