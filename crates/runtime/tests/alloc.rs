//! The always-on event ring adds no allocation to a warm launch.
//!
//! A test binary of its own: the counting allocator is process-global,
//! so nothing else may run beside the one test.

use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_runtime::{Runtime, RuntimeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation request.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side
// effect that touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
