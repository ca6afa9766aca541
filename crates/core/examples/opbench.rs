//! Host cost of one µop: `loop N { <one instruction> }` at 1024 threads
//! through [`Processor::run`], best of K runs, in ns per lane.
//!
//! ```sh
//! cargo run --release -p simt-core --example opbench        # K = 100
//! cargo run --release -p simt-core --example opbench -- 300
//! ```
//!
//! A reading tool, not a test: it asserts nothing and its numbers are
//! wall-clock (repeat a surprising one; the box is noisy in episodes).
//! The rows cover what the column kernels distinguish — plain, `rd`
//! aliasing a source (copy-in), guarded (mask blend), and the three
//! address patterns of `lds`/`sts` (see `docs/SIMULATOR.md`).

use simt_core::{Processor, ProcessorConfig, RunOptions};
use simt_isa::assemble;
use std::time::Instant;

const THREADS: usize = 1024;
const TRIPS: usize = 512;

/// Registers the bodies use: r1 = tid (a unit-stride address column),
/// r2 = 7 everywhere (broadcast), r3 = a permutation of 0..1024
/// (scattered, in bounds), r4/r5 = data, p0 = odd lanes; r6 is the
/// destination where nothing aliases.
const OPS: &[(&str, &str)] = &[
    ("mov", "mov r6, r4"),
    ("add", "add r6, r4, r5"),
    ("add rd=ra", "add r4, r4, r5"),
    ("@p add", "@p0 add r6, r4, r5"),
    ("addi", "addi r6, r4, 77"),
    ("mul.lo", "mul.lo r6, r4, r5"),
    ("mad.lo", "mad.lo r6, r4, r5, r2"),
    ("mad.lo rd=rc", "mad.lo r4, r5, r2, r4"),
    ("mul.hi", "mul.hi r6, r4, r5"),
    ("mulshr", "mulshr r6, r4, r5, 15"),
    ("shli", "shli r6, r4, 3"),
    ("asri", "asri r6, r4, 3"),
    ("asr", "asr r6, r4, r2"),
    ("shadd", "shadd r6, r4, r5, 2"),
    ("satadd", "satadd r6, r4, r5"),
    ("setp.lt", "setp.lt p1, r4, r5"),
    ("selp", "selp r6, r4, r5, p0"),
    ("lds unit-stride", "lds r6, [r1+64]"),
    ("lds broadcast", "lds r6, [r2+64]"),
    ("lds scattered", "lds r6, [r3+64]"),
    ("lds rd=ra", "lds r3, [r3+0]"),
    ("@p lds", "@p0 lds r6, [r1+64]"),
    ("sts unit-stride", "sts [r1+64], r4"),
    ("sts broadcast", "sts [r2+64], r4"),
    ("sts scattered", "sts [r3+64], r4"),
    ("@p sts", "@p0 sts [r1+64], r4"),
];

fn main() {
    let best_of: usize = std::env::args()
        .nth(1)
        .and_then(|k| k.parse().ok())
        .unwrap_or(100);
    let config = ProcessorConfig::default()
        .with_threads(THREADS)
        .with_predicates(true);
    println!("{THREADS} threads, loop {TRIPS}, best of {best_of}: ns per lane");
    for &(name, body) in OPS {
        let src = format!("  loop {TRIPS}, end\n  {body}\nend:\n  exit");
        let program = assemble(&src).expect("the op table assembles");
        let mut cpu = Processor::new(config.clone()).expect("a valid configuration");
        let tids: Vec<u32> = (0..THREADS as u32).collect();
        let rf = cpu.regfile_mut();
        rf.scatter(1, &tids);
        rf.broadcast(2, 7);
        // 389 is odd, so t -> 389 t mod 1024 permutes 0..1024; the
        // shared memory holds the same permutation, so `lds r3, [r3]`
        // keeps r3 one.
        let perm: Vec<u32> = tids.iter().map(|t| t * 389 % THREADS as u32).collect();
        rf.scatter(3, &perm);
        rf.scatter(
            4,
            &perm
                .iter()
                .map(|v| v.wrapping_mul(2_654_435_761))
                .collect::<Vec<_>>(),
        );
        rf.scatter(
            5,
            &perm
                .iter()
                .map(|v| (!v).wrapping_mul(40_503))
                .collect::<Vec<_>>(),
        );
        for t in (1..THREADS).step_by(2) {
            rf.write_pred(t, 0, true);
        }
        cpu.shared_mut()
            .load_words(0, &perm)
            .expect("1024 words fit the default memory");
        cpu.load_program(&program).expect("the program is valid");
        let best = (0..best_of)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(cpu.run(RunOptions::default())).expect("no trap");
                start.elapsed()
            })
            .min()
            .unwrap_or_default();
        let per_lane = best.as_nanos() as f64 / (TRIPS * THREADS) as f64;
        println!("  {name:<18} {per_lane:6.3}");
    }
}
