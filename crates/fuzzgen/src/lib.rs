//! `simt-fuzzgen` — random-IR differential fuzzing for the SIMT
//! processor model.
//!
//! The crate closes the loop the hand-written test suites cannot: it
//! generates *valid* [`simt_compiler`] IR programs from a seed (every
//! value opcode, guard chains over the four predicate registers,
//! nested hardware loops with loop-carried block parameters,
//! shared-memory traffic, randomized thread counts), then runs each
//! program through every execution path the repo implements and
//! asserts full-state agreement:
//!
//! * `O0` vs `O2` compilation ([`simt_compiler::OptLevel`]),
//! * the reference interpreter vs the predecoded pipeline model,
//! * functional vs cycle-accurate timing mode,
//! * an eager runtime stream vs captured-graph replay vs
//!   fused-graph replay ([`simt_runtime`]).
//!
//! Disagreement anywhere is a [`Verdict::Divergence`]; the greedy
//! [`minimize`](crate::minimize::minimize) shrinker reduces it to a
//! small reproducer that belongs in `corpus/` as a pinned regression.
//! See `docs/FUZZING.md` for the grammar, the path-pair matrix, and
//! seed-reproduction instructions.
//!
//! Entry points: [`fuzz_one`] for a single seed,
//! [`gen::program_for_seed`] + [`differ::check`] for the pieces, and
//! the `tables --fuzz <n>` bench driver for bulk runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differ;
pub mod gen;
pub mod minimize;
pub mod nearmiss;
pub mod text;

pub use differ::{check, check_chaos, DivergenceReport, PassReport, Verdict};
pub use gen::{materialize, program_for_seed, FuzzProgram, Materialized};
pub use minimize::minimize;

/// Generate the program for `seed` and run it through the full
/// differential matrix. Deterministic: the same seed always yields the
/// same program and verdict.
pub fn fuzz_one(seed: u64) -> Verdict {
    differ::check(&gen::program_for_seed(seed))
}

/// Generate the program for `seed` and run its eager runtime path under
/// a chaos fault plan derived from the same seed, asserting the
/// recovered output is bit-exact with the fault-free `O2` oracle. Cases
/// whose retry budget is exhausted by the plan are
/// [`Verdict::Skipped`]; any output difference after recovery is a
/// [`Verdict::Divergence`]. Deterministic in `seed`.
pub fn fuzz_one_chaos(seed: u64) -> Verdict {
    differ::check_chaos(&gen::program_for_seed(seed), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_one_is_deterministic() {
        let a = fuzz_one(42);
        let b = fuzz_one(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn fuzz_one_chaos_is_deterministic() {
        let a = fuzz_one_chaos(42);
        let b = fuzz_one_chaos(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
