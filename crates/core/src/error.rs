//! Error types for processor configuration, program loading and execution.

use std::fmt;

/// Configuration validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Thread count outside 1..=4096.
    Threads { requested: usize, max: usize },
    /// Registers per thread outside 1..=256.
    RegsPerThread { requested: usize },
    /// Total registers exceed the 64 K limit.
    TotalRegisters { requested: usize, max: usize },
    /// Shared memory must be non-empty.
    SharedWords { requested: usize },
    /// Stack depths must be non-zero.
    StackDepth,
    /// I-Mem capacity must be non-zero.
    ImemCapacity,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Threads { requested, max } => {
                write!(f, "thread count {requested} outside 1..={max}")
            }
            ConfigError::RegsPerThread { requested } => {
                write!(f, "regs per thread {requested} outside 1..=256")
            }
            ConfigError::TotalRegisters { requested, max } => {
                write!(f, "total registers {requested} exceed {max}")
            }
            ConfigError::SharedWords { requested } => {
                write!(f, "shared memory of {requested} words is invalid")
            }
            ConfigError::StackDepth => write!(f, "stack depths must be non-zero"),
            ConfigError::ImemCapacity => write!(f, "I-Mem capacity must be non-zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Program-load errors (the checks the host performs before writing the
/// externally re-loadable I-Mem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Program longer than the configured I-Mem.
    TooLarge { len: usize, capacity: usize },
    /// Program uses predicates but the processor was built without them
    /// (the optional parameter of §2).
    PredicatesDisabled { pc: usize },
    /// Program references a register beyond `regs_per_thread`.
    RegisterRange { pc: usize, reg: u8, limit: usize },
    /// Program has no terminating instruction.
    NoTerminator,
    /// A branch, call or loop targets an address outside the program.
    BadTarget { pc: usize, target: usize },
    /// A pre-decoded program or a snapshot was built for a different
    /// processor configuration (decodes bake in the thread count and
    /// timing).
    ConfigMismatch,
    /// A snapshot's register array is not this register file's size.
    SnapshotRegs { len: usize, expected: usize },
    /// A snapshot's predicate array is not one nibble per thread.
    SnapshotPreds { len: usize, expected: usize },
    /// A snapshot's shared memory is larger than this build's.
    SnapshotShared { len: usize, capacity: usize },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::TooLarge { len, capacity } => {
                write!(
                    f,
                    "program of {len} words exceeds I-Mem capacity {capacity}"
                )
            }
            LoadError::PredicatesDisabled { pc } => write!(
                f,
                "instruction at {pc} uses predicates but the build has them disabled"
            ),
            LoadError::RegisterRange { pc, reg, limit } => write!(
                f,
                "instruction at {pc} references r{reg} but only {limit} regs/thread exist"
            ),
            LoadError::NoTerminator => write!(f, "program does not end in exit/bra/ret"),
            LoadError::BadTarget { pc, target } => {
                write!(
                    f,
                    "instruction at {pc} targets {target}, outside the program"
                )
            }
            LoadError::ConfigMismatch => {
                write!(f, "decoded program was built for a different configuration")
            }
            LoadError::SnapshotRegs { len, expected } => {
                write!(f, "snapshot has {len} register words, not {expected}")
            }
            LoadError::SnapshotPreds { len, expected } => {
                write!(f, "snapshot has {len} predicate nibbles, not {expected}")
            }
            LoadError::SnapshotShared { len, capacity } => {
                write!(f, "snapshot has {len} shared words, the memory {capacity}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Runtime execution errors (hardware traps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// PC ran off the end of the program without `exit`.
    PcOutOfRange { pc: usize },
    /// Shared-memory access out of bounds.
    SharedOutOfBounds {
        pc: usize,
        thread: usize,
        addr: usize,
        size: usize,
    },
    /// Call stack overflow (Fig. 2's stack is finite).
    CallStackOverflow { pc: usize, depth: usize },
    /// `ret` with an empty call stack.
    CallStackUnderflow { pc: usize },
    /// Loop stack overflow.
    LoopStackOverflow { pc: usize, depth: usize },
    /// Execution exceeded the watchdog cycle budget.
    Watchdog { cycles: u64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "PC {pc} out of program range"),
            ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size,
            } => write!(
                f,
                "pc {pc}: thread {thread} accessed shared[{addr}] beyond size {size}"
            ),
            ExecError::CallStackOverflow { pc, depth } => {
                write!(f, "pc {pc}: call stack overflow (depth {depth})")
            }
            ExecError::CallStackUnderflow { pc } => {
                write!(f, "pc {pc}: ret with empty call stack")
            }
            ExecError::LoopStackOverflow { pc, depth } => {
                write!(f, "pc {pc}: loop stack overflow (depth {depth})")
            }
            ExecError::Watchdog { cycles } => {
                write!(f, "watchdog: execution exceeded {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for ExecError {}
