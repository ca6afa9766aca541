//! A warm graph replay allocates a fixed handful of blocks: the ones
//! its result is made of, and nothing that grows as it goes.
//!
//! A test binary of its own, like `alloc.rs`: the counting allocator is
//! process-global, so nothing else may run beside the one test.

#[path = "common/counting.rs"]
mod counting;

use counting::ALLOCATIONS;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::int_vector;
use simt_runtime::{fuse, GraphBuilder, Runtime, RuntimeConfig};
use std::sync::atomic::Ordering;

/// What one warm replay of the fused `saxpy_scale_sum` graph (two
/// copy-ins, one fused launch, one copy-out) may allocate: the graph
/// buffer, the per-node end cycles, the placement trace, the output
/// list and the copy-out payload it holds, plus the run loop's call and
/// loop stacks.
const REPLAY_ALLOCATIONS: u64 = 7;

#[test]
fn a_warm_replay_allocates_a_fixed_handful_of_blocks() {
    let p = Pipeline::saxpy_scale_sum(3, 2, &int_vector(256, 1), &int_vector(256, 2), 0);
    let mut b = GraphBuilder::new();
    let copies: Vec<_> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(p.out_off, p.out_len, &prev);
    let (graph, report) = fuse(&b.finish().unwrap());
    assert_eq!((graph.len(), report.launches_fused), (4, 2));

    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    // The counter is process-wide: have the pool's worker start, run a
    // command and park again before anything is counted.
    rt.stream().launch(p.stages[0].clone());
    rt.synchronize().unwrap();
    let exec = rt.instantiate(graph).unwrap();
    // Warm what a first replay fills: the replay device's processor
    // build and its kernel-histogram handle.
    assert_eq!(rt.replay(&exec).unwrap().outputs[0].1, p.expected);
    const REPLAYS: u64 = 32;
    let runs: Vec<u64> = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..REPLAYS {
                // Dropped at once: a replay's blocks are all its result.
                rt.replay(&exec).unwrap();
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    assert!(runs.iter().all(|&n| n == runs[0]), "{runs:?}");
    assert_eq!(runs[0] % REPLAYS, 0, "{runs:?}: not a per-replay constant");
    assert!(
        runs[0] / REPLAYS <= REPLAY_ALLOCATIONS,
        "{} allocations per warm replay, at most {REPLAY_ALLOCATIONS} expected",
        runs[0] / REPLAYS
    );
}
