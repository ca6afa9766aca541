//! The register file: up to 64 K × 32-bit registers, banked per SP.
//!
//! Each SP owns the registers of the threads it services (thread `t` runs
//! on SP `t mod 16`), built from M20Ks in their fastest 512 × 40 mode with
//! two read-port replicas (Table 1's 4 M20K per SP for the reference
//! configuration). Register address = `thread-slot × regs_per_thread +
//! reg`, computed in the decode delay chain.
//!
//! The *host* storage is register-major (`[reg][thread]`): the machine
//! issues one instruction across every thread, so the simulator's inner
//! loops walk one register of all threads — a contiguous column here
//! (see `docs/SIMULATOR.md`, "Register-file layout").
//!
//! Register-major also makes "the registers a program names" a
//! contiguous *prefix* of the storage, so the file remembers how many
//! leading columns may be non-zero and a reset zeroes only those: every
//! host write raises the mark, and the run loop raises it once per run
//! from the decoded program's footprint.

use crate::config::ProcessorConfig;
use simt_isa::SP_COUNT;

/// The full register file (all 16 SP banks).
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs_per_thread: usize,
    threads: usize,
    /// Flat storage, `[reg][thread]` register-major: register `r` is
    /// the contiguous column `data[r * threads..][..threads]`.
    data: Vec<u32>,
    /// Per-thread predicate registers p0..p3, one nibble per thread.
    preds: Vec<u8>,
    /// Columns `dirty_regs..` are all zero.
    dirty_regs: usize,
    /// When false, every predicate nibble is zero.
    dirty_preds: bool,
}

impl RegisterFile {
    /// Allocate and zero a register file for `config`.
    pub fn new(config: &ProcessorConfig) -> Self {
        RegisterFile {
            regs_per_thread: config.regs_per_thread,
            threads: config.threads,
            data: vec![0; config.threads * config.regs_per_thread],
            preds: vec![0; config.threads],
            dirty_regs: 0,
            dirty_preds: false,
        }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers per thread.
    pub fn regs_per_thread(&self) -> usize {
        self.regs_per_thread
    }

    #[inline]
    fn index(&self, thread: usize, reg: u8) -> usize {
        debug_assert!(thread < self.threads, "thread {thread} out of range");
        debug_assert!(
            (reg as usize) < self.regs_per_thread,
            "r{reg} beyond regs/thread {}",
            self.regs_per_thread
        );
        reg as usize * self.threads + thread
    }

    /// One register across all threads.
    fn column(&self, reg: u8) -> &[u32] {
        &self.data[self.index(0, reg)..][..self.threads]
    }

    fn column_mut(&mut self, reg: u8) -> &mut [u32] {
        let base = self.index(0, reg);
        self.touch(reg as usize + 1, false);
        &mut self.data[base..][..self.threads]
    }

    /// Record that registers `0..regs` (clamped to the file) and, if
    /// `preds`, the predicates may be written from now on: what
    /// [`RegisterFile::clear`] will have to zero.
    #[inline]
    pub(crate) fn touch(&mut self, regs: usize, preds: bool) {
        self.dirty_regs = self.dirty_regs.max(regs.min(self.regs_per_thread));
        self.dirty_preds |= preds;
    }

    /// Zero every register and predicate in place (power-on state, no
    /// reallocation): only the columns something may have written.
    pub(crate) fn clear(&mut self) {
        self.data[..self.dirty_regs * self.threads].fill(0);
        if self.dirty_preds {
            self.preds.fill(0);
        }
        (self.dirty_regs, self.dirty_preds) = (0, false);
    }

    /// Read a register.
    #[inline]
    pub fn read(&self, thread: usize, reg: u8) -> u32 {
        self.data[self.index(thread, reg)]
    }

    /// Write a register.
    #[inline]
    pub fn write(&mut self, thread: usize, reg: u8, value: u32) {
        let i = self.index(thread, reg);
        self.data[i] = value;
        self.touch(reg as usize + 1, false);
    }

    /// Read a predicate register.
    #[inline]
    pub fn read_pred(&self, thread: usize, pred: usize) -> bool {
        self.preds[thread] >> (pred & 3) & 1 != 0
    }

    /// Write a predicate register.
    #[inline]
    pub fn write_pred(&mut self, thread: usize, pred: usize, value: bool) {
        self.dirty_preds = true;
        let bit = 1u8 << (pred & 3);
        if value {
            self.preds[thread] |= bit;
        } else {
            self.preds[thread] &= !bit;
        }
    }

    /// Bulk-load a register across all threads (host-side data upload,
    /// the way kernels receive their inputs).
    pub fn broadcast(&mut self, reg: u8, value: u32) {
        self.column_mut(reg).fill(value);
    }

    /// Host-side scatter: write `values[t]` to `reg` of thread `t`.
    ///
    /// # Panics
    /// If `values.len() != threads`.
    pub fn scatter(&mut self, reg: u8, values: &[u32]) {
        assert_eq!(values.len(), self.threads, "scatter length mismatch");
        self.column_mut(reg).copy_from_slice(values);
    }

    /// Host-side gather of one register across all threads.
    pub fn gather(&self, reg: u8) -> Vec<u32> {
        self.column(reg).to_vec()
    }

    /// The SP servicing a thread (round-robin by low bits, the physical
    /// lane assignment of the 16-wide block).
    pub fn sp_of_thread(thread: usize) -> usize {
        thread % SP_COUNT
    }

    /// Split borrow of the raw register and predicate arrays plus the
    /// column stride, for the simulator's column kernels (`data` is
    /// `[reg][thread]` register-major, one column of `threads` words
    /// per register; `preds` one nibble-in-a-byte per thread). Writes
    /// through it are not seen by the dirty marks: the run loop
    /// [`RegisterFile::touch`]es the program's footprint first.
    pub(crate) fn split_mut(&mut self) -> (&mut [u32], &mut [u8], usize) {
        (&mut self.data, &mut self.preds, self.threads)
    }

    /// A thread's raw predicate nibble (the four predicate registers
    /// packed p3..p0) — the form the predecoded guard test consumes.
    #[inline]
    pub(crate) fn pred_nibble(&self, thread: usize) -> u8 {
        self.preds[thread]
    }

    /// Immutable view of the raw arrays — registers register-major —
    /// for snapshots.
    pub(crate) fn raw(&self) -> (&[u32], &[u8]) {
        (&self.data, &self.preds)
    }

    /// Restore the raw arrays (snapshot restore; register-major like
    /// [`RegisterFile::raw`], lengths must match).
    pub(crate) fn restore_raw(&mut self, data: &[u32], preds: &[u8]) {
        assert_eq!(data.len(), self.data.len());
        assert_eq!(preds.len(), self.preds.len());
        self.data.copy_from_slice(data);
        self.preds.copy_from_slice(preds);
        self.touch(self.regs_per_thread, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::small()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut rf = RegisterFile::new(&cfg());
        rf.write(3, 5, 0xDEAD_BEEF);
        assert_eq!(rf.read(3, 5), 0xDEAD_BEEF);
        assert_eq!(rf.read(3, 4), 0);
        assert_eq!(rf.read(2, 5), 0);
    }

    #[test]
    fn predicates_are_per_thread_nibbles() {
        let mut rf = RegisterFile::new(&cfg());
        rf.write_pred(0, 0, true);
        rf.write_pred(0, 3, true);
        rf.write_pred(1, 1, true);
        assert!(rf.read_pred(0, 0));
        assert!(!rf.read_pred(0, 1));
        assert!(rf.read_pred(0, 3));
        assert!(rf.read_pred(1, 1));
        rf.write_pred(0, 0, false);
        assert!(!rf.read_pred(0, 0));
        assert!(rf.read_pred(0, 3));
    }

    #[test]
    fn broadcast_scatter_gather() {
        let mut rf = RegisterFile::new(&cfg());
        rf.broadcast(1, 7);
        assert!(rf.gather(1).iter().all(|&v| v == 7));
        let vals: Vec<u32> = (0..64).map(|t| t * 3).collect();
        rf.scatter(2, &vals);
        assert_eq!(rf.gather(2), vals);
        assert_eq!(rf.read(10, 2), 30);
    }

    #[test]
    fn lane_assignment() {
        assert_eq!(RegisterFile::sp_of_thread(0), 0);
        assert_eq!(RegisterFile::sp_of_thread(15), 15);
        assert_eq!(RegisterFile::sp_of_thread(16), 0);
        assert_eq!(RegisterFile::sp_of_thread(37), 5);
    }

    #[test]
    #[should_panic]
    fn scatter_length_checked() {
        let mut rf = RegisterFile::new(&cfg());
        rf.scatter(0, &[1, 2, 3]);
    }
}
