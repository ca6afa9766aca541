//! What the event ring promises about order, pinned on one worker.
//!
//! One device drains a backlog built under `pause()`, so everything the
//! ring records is a function of the work: multi-command batches
//! (`copy_in`×2 → `launch` → `copy_out`), a cross-stream event edge, a
//! command that fails and poisons its tail, chaos-plan retries, then an
//! `instantiate` + `replay` on the caller's thread. The recorded stream
//! is compared with committed goldens in two *projections* — the
//! scheduler's events (everything but `CacheLookup`/`PassRun`) and the
//! cache's and compiler's (`CacheLookup`/`PassRun` only) — on a default
//! pool (read through `flight()`) and a profiled one (`tracer()`).
//! Where a launch's lookups sit *between* the scheduler events of its
//! batch is the one thing the projections leave free.
//!
//! Regenerate after a deliberate change of the event model with
//! `BLESS=1 cargo test -p simt-runtime --test event_order`.

use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_profile::Event;
use simt_runtime::{
    fuse, ChaosConfig, GraphBuilder, ProfileConfig, RecoveryConfig, Runtime, RuntimeConfig,
    RuntimeError,
};

mod common;

/// One device, a transient-only fault plan nothing fails terminally
/// under, and a window wide enough that the black box keeps the run.
fn config() -> RuntimeConfig {
    RuntimeConfig::with_devices(1)
        .with_flight_capacity(4096)
        .with_chaos(
            ChaosConfig::new(0xE7E27)
                .with_transient_launch_rate(0.25)
                .with_copy_fault_rate(0.15),
        )
        .with_recovery(RecoveryConfig {
            max_attempts: 16,
            quarantine_after: u64::MAX,
            degrade_after: u64::MAX,
            ..RecoveryConfig::default()
        })
}

/// `jobs` × (`copy_in`×2 → `launch` → `copy_out`) of an IR kernel.
fn saxpy_jobs(s: &simt_runtime::Stream, jobs: u64) -> Vec<(simt_runtime::CopyHandle, Vec<u32>)> {
    (0..jobs)
        .map(|i| {
            let (x, y) = (int_vector(64, i + 1), int_vector(64, 2 * i + 1));
            let (spec, inputs) = LaunchSpec::saxpy_ir(3, &x, &y).detach_inputs();
            for (off, words) in &inputs {
                s.copy_in(*off, words);
            }
            let (off, len, expected) = (spec.out_off, spec.out_len, spec.expected.clone());
            s.launch(spec);
            (s.copy_out(off, len), expected)
        })
        .collect()
}

/// Run the scenario on a fresh pool and leave it quiescent.
fn scenario(cfg: RuntimeConfig) -> Runtime {
    let rt = Runtime::new(cfg);
    let (producer, consumer, doomed) = (rt.stream(), rt.stream(), rt.stream());
    let edge = rt.event();
    rt.pause();
    let produced = saxpy_jobs(&producer, 3);
    producer.record_event(&edge);
    // The consumer holds until the producer's three jobs are through.
    consumer.wait_event(&edge);
    let consumed = saxpy_jobs(&consumer, 2);
    let sum = LaunchSpec::sum_ir(&int_vector(64, 9));
    let consumer_sum = consumer.launch(sum);
    // A copy outside the device buffer fails; the launch and the copy
    // behind it see the sticky marker.
    let words = rt.config().device.memory_words;
    let root = doomed.copy_out(words - 1, 2);
    let tail_launch = doomed.launch(LaunchSpec::sum_ir(&int_vector(64, 4)));
    let tail_copy = doomed.copy_out(0, 4);
    rt.resume();
    assert!(matches!(
        rt.synchronize(),
        Err(RuntimeError::CopyOutOfBounds { .. })
    ));
    for (out, expected) in produced.into_iter().chain(consumed) {
        assert_eq!(out.wait().unwrap(), expected);
    }
    assert!(consumer_sum.wait().is_ok());
    assert!(matches!(
        root.wait(),
        Err(RuntimeError::CopyOutOfBounds { .. })
    ));
    let poisoned = RuntimeError::StreamPoisoned {
        stream: doomed.id(),
    };
    assert_eq!(tail_launch.wait().unwrap_err(), poisoned);
    assert_eq!(tail_copy.wait().unwrap_err(), poisoned);

    // A fused graph (two copy-ins, one launch, one copy-out), compiled
    // at instantiation and replayed twice on this thread.
    let p = Pipeline::saxpy_scale_sum(3, 2, &int_vector(64, 5), &int_vector(64, 6), 0);
    let mut b = GraphBuilder::new();
    let mut prev: Vec<_> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    let out = b.copy_out(p.out_off, p.out_len, &prev);
    let (graph, _) = fuse(&b.finish().unwrap());
    let exec = rt.instantiate(graph).unwrap();
    for _ in 0..2 {
        let replay = rt.replay(&exec).unwrap();
        assert_eq!(replay.outputs.len(), 1);
        assert_eq!(replay.outputs[0].1, p.expected, "node {out}");
    }
    rt
}

fn is_cache_event(e: &Event) -> bool {
    matches!(e, Event::CacheLookup { .. } | Event::PassRun { .. })
}

/// One event per line, in record order.
fn render<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    events.map(|e| format!("{e:?}\n")).collect()
}

/// The scenario exercises what it says it does, then both projections
/// equal their goldens.
fn check(events: &[Event], pool: &str) {
    let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
    assert!(
        count(|e| matches!(e, Event::Batch { commands, .. } if *commands >= 3)) >= 1,
        "no multi-command batch"
    );
    assert!(count(|e| matches!(e, Event::Retry { .. })) >= 2, "no retry");
    // The root cause, and the launch that shared its batch.
    assert_eq!(count(|e| matches!(e, Event::Failed { .. })), 2);
    assert_eq!(count(|e| matches!(e, Event::GraphReplayDone { .. })), 2);
    assert!(count(|e| matches!(e, Event::CacheLookup { hit: false, .. })) >= 2);
    assert!(count(|e| matches!(e, Event::CacheLookup { hit: true, .. })) >= 2);
    assert_eq!(
        count(|e| matches!(e, Event::PassRun { .. })) > 0,
        pool == "profiled"
    );
    common::assert_golden(
        &format!("event_order_scheduler_{pool}.txt"),
        &render(events.iter().filter(|e| !is_cache_event(e))),
    );
    common::assert_golden(
        &format!("event_order_cache_{pool}.txt"),
        &render(events.iter().filter(|e| is_cache_event(e))),
    );
}

#[test]
fn the_default_pools_black_box_keeps_both_projections() {
    let rt = scenario(config());
    let dump = rt.flight().expect("the black box is on");
    assert!(dump.recorded <= dump.capacity, "the window lapped");
    let events: Vec<Event> = dump.events.into_iter().map(|r| r.event).collect();
    check(&events, "default");
}

#[test]
fn the_profiled_pools_trace_keeps_both_projections() {
    let rt = scenario(config().with_profile(ProfileConfig::default()));
    let tracer = rt.tracer().expect("profiled pool");
    assert_eq!(tracer.dropped(), 0);
    check(&tracer.events(), "profiled");
}
