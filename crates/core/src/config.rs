//! Processor configuration — the paper's user-parameterisable thread and
//! register spaces (§1: "parameterized thread and register spaces. Up to
//! 4096 threads and 64K registers can be specified by the user").

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};
use simt_isa::{MAX_REGISTERS, MAX_THREADS, SP_COUNT};

/// DSP-block operating mode — determines the hard ceiling of the clock
/// (§2.1): the floating-point mode used by the original eGPU tops out at
/// 771 MHz; the integer modes reach 958 MHz, which is why this processor
/// is integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DspMode {
    /// Integer mode (this work): up to 958 MHz.
    Integer,
    /// Floating-point mode (eGPU baseline): up to 771 MHz.
    FloatingPoint,
}

/// Static configuration of one SIMT processor instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorConfig {
    /// Number of threads the program runs (1..=4096). The thread block is
    /// `SP_COUNT` wide; depth = ceil(threads / 16).
    pub threads: usize,
    /// General-purpose registers per thread (1..=256);
    /// `threads × regs_per_thread ≤ 65536`.
    pub regs_per_thread: usize,
    /// Shared-memory size in 32-bit words.
    pub shared_words: usize,
    /// Build with predicate support (§2: optional, ≈ +50 % logic).
    pub predicates: bool,
    /// Hardware call-stack depth (the `stack` of Fig. 2).
    pub call_stack_depth: usize,
    /// Hardware zero-overhead-loop stack depth.
    pub loop_stack_depth: usize,
    /// Instruction-memory capacity in 64-bit words.
    pub imem_capacity: usize,
    /// DSP-block mode (integer for this design; FP for the eGPU baseline).
    pub dsp_mode: DspMode,
}

impl Default for ProcessorConfig {
    /// The paper's Table 1 instance: 16 SPs, 16 K registers
    /// (1024 threads × 16), 16 KB (4096-word) shared memory, no
    /// predicates, integer DSP mode.
    fn default() -> Self {
        ProcessorConfig {
            threads: 1024,
            regs_per_thread: 16,
            shared_words: 4096,
            predicates: false,
            call_stack_depth: 8,
            loop_stack_depth: 4,
            imem_capacity: 512,
            dsp_mode: DspMode::Integer,
        }
    }
}

impl ProcessorConfig {
    /// The Table 1 reference instance (same as `default`, with predicates
    /// selectable).
    pub fn table1() -> Self {
        Self::default()
    }

    /// A small configuration for unit tests and examples: 64 threads,
    /// 16 regs/thread, 1 K words of shared memory, predicates on.
    pub fn small() -> Self {
        ProcessorConfig {
            threads: 64,
            regs_per_thread: 16,
            shared_words: 1024,
            predicates: true,
            ..Self::default()
        }
    }

    /// Builder-style: set thread count.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Builder-style: set registers per thread.
    pub fn with_regs_per_thread(mut self, r: usize) -> Self {
        self.regs_per_thread = r;
        self
    }

    /// Builder-style: set shared-memory words.
    pub fn with_shared_words(mut self, w: usize) -> Self {
        self.shared_words = w;
        self
    }

    /// Builder-style: enable/disable predicates.
    pub fn with_predicates(mut self, p: bool) -> Self {
        self.predicates = p;
        self
    }

    /// Builder-style: DSP mode.
    pub fn with_dsp_mode(mut self, m: DspMode) -> Self {
        self.dsp_mode = m;
        self
    }

    /// Validate all paper-imposed limits.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(ConfigError::Threads {
                requested: self.threads,
                max: MAX_THREADS,
            });
        }
        if self.regs_per_thread == 0 || self.regs_per_thread > 256 {
            return Err(ConfigError::RegsPerThread {
                requested: self.regs_per_thread,
            });
        }
        let total = self.threads * self.regs_per_thread;
        if total > MAX_REGISTERS {
            return Err(ConfigError::TotalRegisters {
                requested: total,
                max: MAX_REGISTERS,
            });
        }
        if self.shared_words == 0 {
            return Err(ConfigError::SharedWords {
                requested: self.shared_words,
            });
        }
        if self.call_stack_depth == 0 || self.loop_stack_depth == 0 {
            return Err(ConfigError::StackDepth);
        }
        if self.imem_capacity == 0 {
            return Err(ConfigError::ImemCapacity);
        }
        Ok(())
    }

    /// Total registers across all threads.
    pub fn total_registers(&self) -> usize {
        self.threads * self.regs_per_thread
    }

    /// Thread-block depth: rows of 16 threads.
    pub fn block_depth(&self) -> usize {
        self.threads.div_ceil(SP_COUNT)
    }

    /// Shared-memory size in bytes.
    pub fn shared_bytes(&self) -> usize {
        self.shared_words * 4
    }

    /// Registers held by each SP's register-file bank (threads are
    /// distributed round-robin across SPs by `tid mod 16`).
    pub fn regs_per_sp(&self) -> usize {
        self.total_registers().div_ceil(SP_COUNT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_table1_instance() {
        let c = ProcessorConfig::default();
        assert_eq!(c.total_registers(), 16384); // "16K registers"
        assert_eq!(c.shared_bytes(), 16384); // "16KB shared memory"
        assert!(c.validate().is_ok());
        assert_eq!(c.block_depth(), 64); // 1024 threads / 16 SPs
    }

    #[test]
    fn limits_enforced() {
        assert!(ProcessorConfig::default()
            .with_threads(0)
            .validate()
            .is_err());
        assert!(ProcessorConfig::default()
            .with_threads(4096)
            .validate()
            .is_ok());
        assert!(ProcessorConfig::default()
            .with_threads(4097)
            .validate()
            .is_err());
        // 4096 threads x 32 regs = 128K > 64K
        assert!(ProcessorConfig::default()
            .with_threads(4096)
            .with_regs_per_thread(32)
            .validate()
            .is_err());
        // 4096 x 16 = 64K exactly
        assert!(ProcessorConfig::default()
            .with_threads(4096)
            .with_regs_per_thread(16)
            .validate()
            .is_ok());
        assert!(ProcessorConfig::default()
            .with_shared_words(0)
            .validate()
            .is_err());
    }

    #[test]
    fn block_depth_rounds_up() {
        assert_eq!(ProcessorConfig::default().with_threads(17).block_depth(), 2);
        assert_eq!(ProcessorConfig::default().with_threads(16).block_depth(), 1);
        assert_eq!(ProcessorConfig::default().with_threads(1).block_depth(), 1);
        assert_eq!(
            ProcessorConfig::default().with_threads(512).block_depth(),
            32
        );
    }
}
