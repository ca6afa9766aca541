//! The always-on event ring adds no allocation to a warm launch.
//!
//! A test binary of its own: the counting allocator is process-global,
//! so nothing else may run beside the one test.

#[path = "common/counting.rs"]
mod counting;

use counting::ALLOCATIONS;
use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_runtime::{Runtime, RuntimeConfig};
use std::sync::atomic::Ordering;

/// Allocations made — by the submitting thread and the worker alike —
/// while `launches` warm launches of one kernel drain from a backlog
/// built under pause on a one-device pool (so every run does the same
/// work in the same order).
fn warm_launch_allocations(cfg: RuntimeConfig, launches: usize) -> u64 {
    let rt = Runtime::new(RuntimeConfig { devices: 1, ..cfg });
    let s = rt.stream();
    let spec = LaunchSpec::saxpy_ir(3, &int_vector(64, 1), &int_vector(64, 2));
    // Warm everything a first launch fills: compile and decode cache,
    // the device's processor build, its kernel-histogram handle.
    s.launch(spec.clone());
    rt.synchronize().unwrap();
    rt.pause();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..launches {
        s.launch(spec.clone());
    }
    rt.resume();
    rt.synchronize().unwrap();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn the_event_ring_adds_no_allocation_to_a_warm_launch() {
    const LAUNCHES: usize = 64;
    let with_ring = warm_launch_allocations(RuntimeConfig::default(), LAUNCHES);
    let without =
        warm_launch_allocations(RuntimeConfig::default().with_flight_capacity(0), LAUNCHES);
    assert!(without > 0, "the counter is live");
    assert_eq!(
        with_ring, without,
        "{LAUNCHES} warm launches: {with_ring} allocations with the default \
         black box, {without} with none"
    );
}
